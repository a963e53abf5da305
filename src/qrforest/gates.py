"""Gate vocabulary for the simulator.

Kinds: ``h``, ``x``, ``ry`` (angle), ``u`` (explicit one-qubit unitary),
``swap``, ``ucg`` (uniformly controlled gate: one 2x2 block per select-register
value) and ``ucr`` (uniformly controlled Ry: one angle per value).  Every gate
may additionally carry plain controls as ``(qubit, required_value)`` pairs;
a CNOT is an ``x`` with one 1-valued control.

Conventions, fixed package-wide:
  * qubit 0 is the most significant bit of a basis index;
  * ucg/ucr select qubits are listed most significant first, so the block
    (angle) index is the integer read off the select qubits in list order.

All parameters are stored as plain tuples (matrices as nested 2x2 tuples),
so gates are hashable and compare by value; ``inverse(inverse(g)) == g``
exactly.  For the simulator's view kernel every gate but swap also lowers its
parameters once, on first use, to a read-only ``(2^s, 2, 2)`` complex array
(``Gate.block_array``).  ``gate_matrix`` builds the dense unitary by
per-basis-state index arithmetic from the tuples through ``_block_for``,
deliberately sharing no code with the lowering or with the view kernel in
``statevector`` so the two can check each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import MAX_DENSE_QUBITS
from .exceptions import ResourceLimitError

Block = tuple[tuple[complex, complex], tuple[complex, complex]]

_ID: Block = ((1 + 0j, 0j), (0j, 1 + 0j))
_X: Block = ((0j, 1 + 0j), (1 + 0j, 0j))
_Z: Block = ((1 + 0j, 0j), (0j, -1 + 0j))
_NEG_ID: Block = ((-1 + 0j, 0j), (0j, -1 + 0j))
_H: Block = tuple(tuple(complex(v) / math.sqrt(2) for v in row) for row in ((1, 1), (1, -1)))


def _as_blocks(matrices) -> tuple[Block, ...]:  # one array for all, stored as Python complex
    m = np.asarray(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (2, 2):
        raise ValueError("one-qubit unitary must be 2x2")
    return tuple((tuple(r0), tuple(r1)) for r0, r1 in m.tolist())


def _ry_block(angle: float) -> Block:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return ((complex(c), complex(-s)), (complex(s), complex(c)))


@dataclass(frozen=True)
class Gate:
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

    @property
    def target(self) -> int:
        return self.qubits[-1]

    @property
    def selects(self) -> tuple[int, ...]:
        return self.qubits[:-1]

    @cached_property
    def block_array(self) -> np.ndarray:
        """Parameters as a read-only ``(2^s, 2, 2)`` complex array indexed by
        select value (``s = 0`` for h, x, ry and u); built on first use, then
        kept."""
        if self.kind == "h":
            blocks = np.array([[[1, 1], [1, -1]]], dtype=np.complex128) / math.sqrt(2)
        elif self.kind == "x":
            blocks = np.array([[[0, 1], [1, 0]]], dtype=np.complex128)
        elif self.kind in ("u", "ucg"):
            blocks = np.array(self.params if self.kind == "u" else self.params[0], dtype=np.complex128)
        elif self.kind in ("ry", "ucr"):
            angles = self.params if self.kind == "ry" else self.params[0]
            half = np.asarray(angles, dtype=np.float64) / 2.0
            blocks = np.empty((half.size, 2, 2), dtype=np.complex128)
            blocks[:, 0, 0] = blocks[:, 1, 1] = np.cos(half)
            blocks[:, 1, 0] = np.sin(half)
            blocks[:, 0, 1] = -blocks[:, 1, 0]
        else:
            raise ValueError(f"kind {self.kind!r} has no block array")
        blocks.flags.writeable = False
        return blocks


def h(q: int) -> Gate:
    return Gate("h", (q,))


def x(q: int) -> Gate:
    return Gate("x", (q,))


def ry(q: int, angle: float) -> Gate:
    return Gate("ry", (q,), (float(angle),))


def one_qubit(q: int, matrix) -> Gate:
    return Gate("u", (q,), _as_blocks([matrix]))


def pauli_z(q: int) -> Gate:
    return Gate("u", (q,), (_Z,))


def cnot(control_qubit: int, target_qubit: int) -> Gate:
    return Gate("x", (target_qubit,), controls=((control_qubit, 1),))


def swap(a: int, b: int) -> Gate:
    if a == b:
        raise ValueError("swap needs two distinct qubits")
    return Gate("swap", (a, b))


def ucg(selects: tuple[int, ...], target: int, blocks) -> Gate:
    blocks = np.asarray(blocks, dtype=complex)
    if len(blocks) != 2 ** len(selects):
        raise ValueError(f"ucg over {len(selects)} selects needs {2**len(selects)} blocks, got {len(blocks)}")
    return Gate("ucg", (*selects, target), (_as_blocks(blocks),))


def ucr(selects: tuple[int, ...], target: int, angles) -> Gate:
    angles = tuple(float(a) for a in angles)
    if len(angles) != 2 ** len(selects):
        raise ValueError(f"ucr over {len(selects)} selects needs {2**len(selects)} angles, got {len(angles)}")
    return Gate("ucr", (*selects, target), (angles,))


def reflection_about_zero(qubits: tuple[int, ...]) -> Gate:
    """The reflection 2|0..0><0..0| - I on the given qubits (as one ucg)."""
    if not qubits:
        raise ValueError("reflection needs at least one qubit")
    if len(qubits) == 1:
        return Gate("u", qubits, (_Z,))
    n_blocks = 2 ** (len(qubits) - 1)
    return ucg(tuple(qubits[:-1]), qubits[-1], (_Z,) + (_NEG_ID,) * (n_blocks - 1))


def swap_as_cnots(a: int, b: int) -> list[Gate]:
    """SWAP(a, b) as its standard 3-CNOT expansion."""
    if a == b:
        raise ValueError("swap needs two distinct qubits")
    return [cnot(a, b), cnot(b, a), cnot(a, b)]


def inverse(gate: Gate) -> Gate:
    """Inverse gate: Ry negates its angle, ucg/ucr invert blockwise, the
    rest are self-inverse (u conjugate-transposes)."""
    if gate.kind == "ry":
        return Gate("ry", gate.qubits, (-gate.params[0],), gate.controls)
    if gate.kind == "u":
        (b,) = gate.params
        return Gate("u", gate.qubits, (_dagger(b),), gate.controls)
    if gate.kind == "ucg":
        (blocks,) = gate.params
        return Gate("ucg", gate.qubits, (tuple(_dagger(b) for b in blocks),), gate.controls)
    if gate.kind == "ucr":
        (angles,) = gate.params
        return Gate("ucr", gate.qubits, (tuple(-a for a in angles),), gate.controls)
    return gate  # h, x, swap (and cnot as controlled x) are involutions


def _dagger(b: Block) -> Block:
    return (
        (b[0][0].conjugate(), b[1][0].conjugate()),
        (b[0][1].conjugate(), b[1][1].conjugate()),
    )


def _block_for(gate: Gate, select_value: int = 0) -> Block:
    if gate.kind == "h":
        return _H
    if gate.kind == "x":
        return _X
    if gate.kind == "ry":
        return _ry_block(gate.params[0])
    if gate.kind == "u":
        return gate.params[0]
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
        if gate.kind in ("ucg", "ucr"):
            selects = gate.selects
            k = 0
            for q in selects:
                k = (k << 1) | bit(i, q)
            block = _block_for(gate, k)
        else:
            block = _block_for(gate)
        t = gate.target
        tmask = 1 << (num_qubits - 1 - t)
        b = bit(i, t)
        m[i & ~tmask, i] += block[0][b]
        m[i | tmask, i] += block[1][b]
    return m
