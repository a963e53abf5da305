"""Dense state-vector simulation.

A ``StateVector`` holds 2^N complex128 amplitudes; qubit 0 is the most
significant bit of the basis index (so |q0 q1 ... q_{N-1}> reads left to
right as a binary number).  Gates are applied in place by one view kernel:
the amplitudes are reshaped to a ``(2,) * N`` array, basic indexing fixes
the control and target axes, and the gate's 2x2 blocks combine the two
resulting views (after Häner and Steiger, arXiv:1704.01127).  ``bind`` does
that setup once per gate and ``run`` only the arithmetic, so a gate list
applied many times is bound once.  A swap without controls moves no data:
``bind`` relabels which buffer axis holds each of its qubits, and one reorder
step at the end of the list, if needed, copies the axes back into qubit
order.  ``invert`` turns bound steps into those of the inverse gate list
without binding again: the same views in reverse order, each block
conjugate-transposed (for real entries, only a new order of the same
arrays).  A state is exclusively owned while being mutated.  Dense matrices
never appear here; the dense oracle the kernel is tested against, and the
readout helpers only tests need, live with the tests.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import gates as g
from .config import MAX_SIM_QUBITS
from .exceptions import ResourceLimitError

# The third entry of ``bind``'s final step when swaps left the qubits on other axes.
_REORDER = "reorder"


class StateVector:
    """2^N amplitudes, mutated in place by ``apply`` or ``run`` (which return self)."""

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        if num_qubits > MAX_SIM_QUBITS:
            raise ResourceLimitError(
                f"{num_qubits} qubits exceeds the simulator cap of {MAX_SIM_QUBITS}"
            )
        self.num_qubits = num_qubits
        if amplitudes is None:
            self._amp = np.zeros(1 << num_qubits, dtype=np.complex128)
            self._amp[0] = 1.0
        else:
            arr = np.array(amplitudes, dtype=np.complex128)
            if arr.shape != (1 << num_qubits,):
                raise ValueError(f"expected {1 << num_qubits} amplitudes, got {arr.shape}")
            self._amp = arr

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amp

    def bind(self, gates: Iterable[g.Gate]) -> list[tuple]:
        """Check the gates, then fix per gate two views of this state's buffer
        (the amplitudes as a ``(2,) * n`` array, with the control axes and each
        target value fixed) and, but for swap, its 2x2 block entries broadcast
        over them.  An uncontrolled swap emits no step: it exchanges which
        buffer axes its two qubits hold, and later gates index the axes their
        qubits hold then.  If that map is not the identity after the last gate,
        one reorder step copies the axes back, so every ``run`` of the steps
        starts and ends with axis ``q`` holding qubit ``q``."""
        n = self.num_qubits
        psi = self._amp.reshape((2,) * n)
        axis = list(range(n))  # axis[q]: the buffer axis that holds qubit q
        steps = []
        for gate in gates:
            for q in list(gate.qubits) + [q for q, _ in gate.controls]:
                if q >= n:
                    raise ValueError(f"gate touches qubit {q} but state has {n}")
            if gate.kind not in ("h", "x", "swap", "ucg", "ucr"):
                raise ValueError(f"unknown gate kind {gate.kind!r}")
            if gate.kind == "swap" and not gate.controls:
                qa, qb = gate.qubits
                axis[qa], axis[qb] = axis[qb], axis[qa]
                continue
            at: list = [slice(None)] * n
            for q, v in gate.controls:
                at[axis[q]] = v
            # The trailing Ellipsis keeps a fully fixed index a 0-d view, not a scalar.
            if gate.kind == "swap":
                qa, qb = axis[gate.qubits[0]], axis[gate.qubits[1]]
                at[qa], at[qb] = 1, 0
                v10 = psi[(*at, ...)]
                at[qa], at[qb] = 0, 1
                steps.append((v10, psi[(*at, ...)], None))
                continue
            selects, target = [axis[q] for q in gate.selects], axis[gate.target]
            at[target] = 0
            a = psi[(*at, ...)]
            at[target] = 1
            b = psi[(*at, ...)]
            # Block k is indexed by the selects in list order; the views hold
            # them in buffer-axis order, with a length-1 axis for every other free axis.
            order = sorted(range(len(selects)), key=selects.__getitem__)
            shape = [2 if ax in selects else 1 for ax in range(n) if type(at[ax]) is slice]
            c = (
                gate.block_array.reshape((2,) * len(selects) + (2, 2))
                .transpose(*order, -2, -1)
                .reshape(*shape, 2, 2)
            )
            steps.append((a, b, (c[..., 0, 0], c[..., 0, 1], c[..., 1, 0], c[..., 1, 1])))
        if axis != list(range(n)):
            steps.append((psi, psi.transpose(axis), _REORDER))
        return steps

    def run(self, steps: Iterable[tuple]) -> "StateVector":
        """Apply steps from ``bind`` in place: only the arithmetic
        ``a, b = c00 a + c01 b, c10 a + c11 b``, the controlled-swap exchange,
        or the reorder copy that puts every qubit back on its own axis."""
        for a, b, c in steps:
            if c is None:
                b[...], a[...] = a, b.copy()  # b is copied before it is overwritten
            elif c is _REORDER:
                a[...] = b.copy()  # one of a and b is a transposed view of the other
            else:
                c00, c01, c10, c11 = c
                a[...], b[...] = c00 * a + c01 * b, c10 * a + c11 * b
        return self

    def apply(self, gate: g.Gate) -> "StateVector":
        """Apply one gate in place."""
        return self.run(self.bind((gate,)))

    def apply_all(self, gate_seq: Iterable[g.Gate]) -> "StateVector":
        """Apply gates in place; all are checked before any is applied."""
        return self.run(self.bind(gate_seq))


def invert(steps: Sequence[tuple]) -> list[tuple]:
    """Steps that undo ``steps`` from ``bind``, over the same buffer: the
    steps in reverse order, a controlled-swap exchange as it is, the reorder
    ``a <- b`` as ``b <- a`` (which permutes by the inverse axis order), and a
    block step with its entries conjugate-transposed.  Real entries, as in
    every gate of the forecasting operator, are reused as they are, only
    reordered; complex ones are conjugated into new arrays."""
    undo = []
    for a, b, c in reversed(steps):
        if c is None:
            undo.append((a, b, None))
        elif c is _REORDER:
            undo.append((b, a, _REORDER))
        else:
            # bind takes all four entries as views of one block array, so
            # one check of the array that owns them covers the step.
            if c[0].base.imag.any():
                c = tuple(map(np.conj, c))
            c00, c01, c10, c11 = c
            undo.append((a, b, (c00, c10, c01, c11)))
    return undo
