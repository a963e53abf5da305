"""Gate vocabulary for the simulator.

Kinds: ``h``, ``x``, ``swap``, ``ucg`` (uniformly controlled gate: one 2x2
block per select-register value) and ``ucr`` (uniformly controlled Ry: one
angle per value).  A one-qubit unitary is a ``ucg`` with no selects, an Ry
a ``ucr`` with no selects, and a CNOT the one-select ``ucg`` with blocks
``[I, X]``.  No gate carries a plain control qubit, as the compiler emits
none.  ``Gate`` refuses a kind outside ``KINDS`` or a repeated qubit.

Conventions, fixed package-wide:
  * qubit 0 is the most significant bit of a basis index;
  * ucg/ucr select qubits are listed most significant first, so the block
    (angle) index is the integer read off the select qubits in list order.

Parameters are held in one form: a read-only array, copied when the gate
is built -- ucg blocks as ``(2^s, 2, 2)`` complex128, ucr angles as
``(2^s,)`` float64.  Gates compare by value (``np.array_equal``) and are not
hashable.  The simulator reads its 2x2 entries from these parameters (and
``_H``, ``_X`` for h, x) when it binds a gate.  ``_X`` and ``_ID`` are the
compiler's walk blocks.  The dense-matrix oracle and the gate-level inverse
live with the tests, so the two share no code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_H = _read_only(np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2))
_ID = _read_only(np.eye(2, dtype=np.complex128))
_X = _read_only(np.array([[0, 1], [1, 0]], dtype=np.complex128))
KINDS = ("h", "x", "swap", "ucg", "ucr")


@dataclass(frozen=True, eq=False)
class Gate:
    """A gate of a ``KINDS`` kind (checked here), built by the functions below.

    ``params`` is ``(blocks,)`` for a ucg, the read-only ``(2^s, 2, 2)``
    array, and ``(angles,)`` for a ucr, the read-only ``(2^s,)`` array;
    ``==`` compares kind, qubits and parameters by value.  Gates are not
    hashable.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple = ()
    # Not a field, and always empty: it answers perfbench's oracle, which
    # reads ``gate.controls`` on every gate.
    controls = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate references a qubit twice: {self}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative")

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            (self.kind, self.qubits) == (other.kind, other.qubits)
            and len(self.params) == len(other.params)
            and all(np.array_equal(a, b) for a, b in zip(self.params, other.params))
        )

    @property
    def target(self) -> int:
        return self.qubits[-1]

    @property
    def selects(self) -> tuple[int, ...]:
        return self.qubits[:-1]


def h(q: int) -> Gate:
    return Gate("h", (q,))


def x(q: int) -> Gate:
    return Gate("x", (q,))


def one_qubit(q: int, matrix) -> Gate:
    return ucg((), q, [matrix])


def cnot(control_qubit: int, target_qubit: int) -> Gate:
    return ucg((control_qubit,), target_qubit, [_ID, _X])


def swap(a: int, b: int) -> Gate:
    return Gate("swap", (a, b))


def ucg(selects: tuple[int, ...], target: int, blocks) -> Gate:
    blocks = np.array(blocks, dtype=np.complex128)  # a copy, made read-only below
    if blocks.ndim != 3 or blocks.shape[1:] != (2, 2):
        raise ValueError("one-qubit unitary must be 2x2")
    if len(blocks) != 2 ** len(selects):
        raise ValueError(f"ucg over {len(selects)} selects needs {2**len(selects)} blocks, got {len(blocks)}")
    return Gate("ucg", (*selects, target), (_read_only(blocks),))


def ucr(selects: tuple[int, ...], target: int, angles) -> Gate:
    angles = np.array(angles, dtype=np.float64)  # a copy, made read-only below
    if angles.ndim != 1:
        raise ValueError(f"ucr angles must be one flat sequence, got shape {angles.shape}")
    if len(angles) != 2 ** len(selects):
        raise ValueError(f"ucr over {len(selects)} selects needs {2**len(selects)} angles, got {len(angles)}")
    return Gate("ucr", (*selects, target), (_read_only(angles),))
