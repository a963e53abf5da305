"""Gate vocabulary for the simulator.

Kinds: ``h``, ``x``, ``swap``, ``ucg`` (uniformly controlled gate: one 2x2
block per select-register value) and ``ucr`` (uniformly controlled Ry: one
angle per value).  A one-qubit unitary is a ``ucg`` with no selects, and an
Ry a ``ucr`` with no selects.  Every gate may additionally carry plain
controls as ``(qubit, required_value)`` pairs; a CNOT is an ``x`` with one
1-valued control.

Conventions, fixed package-wide:
  * qubit 0 is the most significant bit of a basis index;
  * ucg/ucr select qubits are listed most significant first, so the block
    (angle) index is the integer read off the select qubits in list order.

Parameters are held in one form each: ucg blocks as a read-only
``(2^s, 2, 2)`` complex128 array, copied when the gate is built, and ucr
angles as a tuple of Python floats.  Gates compare by value (arrays by
``np.array_equal``), so ``inverse(inverse(g)) == g`` exactly; they are not
hashable.  For the simulator's view kernel every gate but swap has a
``Gate.block_array``: the ucg blocks themselves, or one built on first use.
``gate_matrix`` builds the dense unitary by per-basis-state index arithmetic
through ``_block_for``, deliberately sharing no code with the view kernel in
``statevector`` so the two can check each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import MAX_DENSE_QUBITS
from .exceptions import ResourceLimitError


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_H = _read_only(np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2))
_ID = _read_only(np.eye(2, dtype=np.complex128))
_X = _read_only(np.array([[0, 1], [1, 0]], dtype=np.complex128))
_Z = _read_only(np.diag(np.array([1, -1], dtype=np.complex128)))
_NEG_ID = _read_only(-_ID)


def _ry_block(angle: float) -> tuple[tuple[float, float], tuple[float, float]]:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return ((c, -s), (s, c))


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate of kind h, x, swap, ucg or ucr, built by the functions below.

    ``params`` is ``(blocks,)`` for a ucg, the read-only ``(2^s, 2, 2)``
    array, and ``(angles,)`` for a ucr, a tuple of floats; ``==`` compares
    kind, qubits, controls and parameters by value.  Gates are not hashable.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple = ()
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        used = list(self.qubits) + [q for q, _ in self.controls]
        if len(set(used)) != len(used):
            raise ValueError(f"gate references a qubit twice: {self}")
        if any(q < 0 for q in used):
            raise ValueError("qubit indices must be non-negative")
        if any(v not in (0, 1) for _, v in self.controls):
            raise ValueError("control values must be 0 or 1")

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            (self.kind, self.qubits, self.controls) == (other.kind, other.qubits, other.controls)
            and len(self.params) == len(other.params)
            and all(np.array_equal(a, b) for a, b in zip(self.params, other.params))
        )

    @property
    def target(self) -> int:
        return self.qubits[-1]

    @property
    def selects(self) -> tuple[int, ...]:
        return self.qubits[:-1]

    @cached_property
    def block_array(self) -> np.ndarray:
        """Parameters as a read-only ``(2^s, 2, 2)`` complex array indexed by
        select value (``s = 0`` for h and x); the ucg blocks themselves, else
        built on first use, then kept."""
        if self.kind == "h":
            return _H[None]
        if self.kind == "x":
            return _X[None]
        if self.kind == "ucg":
            return self.params[0]
        if self.kind == "ucr":
            half = np.asarray(self.params[0], dtype=np.float64) / 2.0
            blocks = np.empty((half.size, 2, 2), dtype=np.complex128)
            blocks[:, 0, 0] = blocks[:, 1, 1] = np.cos(half)
            blocks[:, 1, 0] = np.sin(half)
            blocks[:, 0, 1] = -blocks[:, 1, 0]
            return _read_only(blocks)
        raise ValueError(f"kind {self.kind!r} has no block array")


def h(q: int) -> Gate:
    return Gate("h", (q,))


def x(q: int) -> Gate:
    return Gate("x", (q,))


def ry(q: int, angle: float) -> Gate:
    return ucr((), q, (angle,))


def one_qubit(q: int, matrix) -> Gate:
    return ucg((), q, [matrix])


def pauli_z(q: int) -> Gate:
    return ucg((), q, [_Z])


def cnot(control_qubit: int, target_qubit: int) -> Gate:
    return Gate("x", (target_qubit,), controls=((control_qubit, 1),))


def swap(a: int, b: int) -> Gate:
    if a == b:
        raise ValueError("swap needs two distinct qubits")
    return Gate("swap", (a, b))


def ucg(selects: tuple[int, ...], target: int, blocks) -> Gate:
    blocks = np.array(blocks, dtype=np.complex128)  # a copy, made read-only below
    if blocks.ndim != 3 or blocks.shape[1:] != (2, 2):
        raise ValueError("one-qubit unitary must be 2x2")
    if len(blocks) != 2 ** len(selects):
        raise ValueError(f"ucg over {len(selects)} selects needs {2**len(selects)} blocks, got {len(blocks)}")
    return Gate("ucg", (*selects, target), (_read_only(blocks),))


def ucr(selects: tuple[int, ...], target: int, angles) -> Gate:
    angles = tuple(float(a) for a in angles)
    if len(angles) != 2 ** len(selects):
        raise ValueError(f"ucr over {len(selects)} selects needs {2**len(selects)} angles, got {len(angles)}")
    return Gate("ucr", (*selects, target), (angles,))


def reflection_about_zero(qubits: tuple[int, ...]) -> Gate:
    """The reflection 2|0..0><0..0| - I on the given qubits (as one ucg)."""
    if not qubits:
        raise ValueError("reflection needs at least one qubit")
    rest = np.broadcast_to(_NEG_ID, (2 ** (len(qubits) - 1) - 1, 2, 2))
    return ucg(tuple(qubits[:-1]), qubits[-1], np.concatenate((_Z[None], rest)))


def swap_as_cnots(a: int, b: int) -> list[Gate]:
    """SWAP(a, b) as its standard 3-CNOT expansion."""
    if a == b:
        raise ValueError("swap needs two distinct qubits")
    return [cnot(a, b), cnot(b, a), cnot(a, b)]


def inverse(gate: Gate) -> Gate:
    """Inverse gate: ucg conjugate-transposes each block, ucr negates its
    angles, the rest are self-inverse."""
    if gate.kind == "ucg":
        (blocks,) = gate.params
        dagger = np.conjugate(blocks.swapaxes(1, 2), order="C")
        return Gate("ucg", gate.qubits, (_read_only(dagger),), gate.controls)
    if gate.kind == "ucr":
        (angles,) = gate.params
        return Gate("ucr", gate.qubits, (tuple(-a for a in angles),), gate.controls)
    return gate  # h, x, swap (and cnot as controlled x) are involutions


def _block_for(gate: Gate, select_value: int):
    if gate.kind == "h":
        return _H
    if gate.kind == "x":
        return _X
    if gate.kind == "ucg":
        return gate.params[0][select_value]
    if gate.kind == "ucr":
        return _ry_block(gate.params[0][select_value])
    raise ValueError(f"no block form for kind {gate.kind!r}")


def gate_matrix(gate: Gate, num_qubits: int | None = None) -> np.ndarray:
    """Dense unitary of the gate on ``num_qubits`` qubits (test oracle).

    Built column by column from the gate's definition using only index
    arithmetic; independent of the simulator's view kernel.
    """
    if num_qubits is None:
        num_qubits = max(list(gate.qubits) + [q for q, _ in gate.controls]) + 1
    if num_qubits > MAX_DENSE_QUBITS:
        raise ResourceLimitError(f"dense matrix capped at {MAX_DENSE_QUBITS} qubits")
    if any(q >= num_qubits for q in gate.qubits) or any(q >= num_qubits for q, _ in gate.controls):
        raise ValueError("gate references a qubit outside the register")

    def bit(i: int, q: int) -> int:
        return (i >> (num_qubits - 1 - q)) & 1

    dim = 1 << num_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if any(bit(i, q) != v for q, v in gate.controls):
            m[i, i] = 1.0
            continue
        if gate.kind == "swap":
            a, b = gate.qubits
            if bit(i, a) == bit(i, b):
                m[i, i] = 1.0
            else:
                m[i ^ (1 << (num_qubits - 1 - a)) ^ (1 << (num_qubits - 1 - b)), i] = 1.0
            continue
        k = 0
        for q in gate.selects:
            k = (k << 1) | bit(i, q)
        block = _block_for(gate, k)
        t = gate.target
        tmask = 1 << (num_qubits - 1 - t)
        b = bit(i, t)
        m[i & ~tmask, i] += block[0][b]
        m[i | tmask, i] += block[1][b]
    return m
