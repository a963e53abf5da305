"""Dense state-vector simulation.

A ``StateVector`` holds 2^N complex128 amplitudes; qubit 0 is the most
significant bit of the basis index (so |q0 q1 ... q_{N-1}> reads left to
right as a binary number).  Gates run in place through one view kernel:
the amplitudes are reshaped to a ``(2,) * N`` array, basic indexing fixes
the control axes and two values of the gate's own axes, and a 2x2 block
combines the two resulting views (after Häner and Steiger, arXiv:1704.01127).
``bind`` does that setup once per gate and ``run`` only the arithmetic, so a
gate list applied many times is bound once.  ``bind`` reads each block's four
entries from the gate's own parameters: a ucg's blocks, the constant H or X
block, and for a ucr the real ``cos`` and ``sin`` of its half-angles.  Every
bound step is of that one kind: a controlled swap is the X block over the
views where its two qubits differ, and an uncontrolled swap is no step at
all, only a relabel of which buffer axis holds each of its qubits.  A bound
list therefore leaves the buffer in the axis order ``bind`` returns with it;
``apply`` copies the axes back into qubit order once, after the list.
``invert`` turns bound steps into those of the inverse gate list without
binding again: the same views in reverse order, each block
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

_BLOCK = {"h": g._H, "x": g._X, "swap": g._X}  # a swap exchanges where its qubits differ


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

    def bind(self, gates: Iterable[g.Gate]) -> tuple[list[tuple], tuple[int, ...]]:
        """Check only that each gate's qubits lie on this state (``Gate``
        checked its kind when it was built), then fix per gate two views of
        this state's buffer (the amplitudes as a ``(2,) * n`` array with the
        control axes fixed, and the target axis at 0 and at 1, or a controlled
        swap's two axes at (1, 0) and (0, 1)) and the four entries of its 2x2
        blocks, read from the gate's parameters and broadcast over them: views
        of a ucg's blocks, of the H or X block (a swap's is X), and for a ucr
        the real float64 ``(c, -s, s, c)`` with ``c, s = cos, sin`` of its
        half-angles, each placed in buffer order once, C-contiguous and
        read-only.  Every step is of this one kind.  An uncontrolled swap emits
        no step: it exchanges which buffer axes its two qubits hold, and later
        gates index the axes their qubits hold then.  Returns the steps, which
        expect the buffer in qubit order, and ``axis``: ``axis[q]`` is the
        buffer axis that holds qubit ``q`` after they run."""
        n = self.num_qubits
        psi = self._amp.reshape((2,) * n)
        axis = list(range(n))  # axis[q]: the buffer axis that holds qubit q
        steps = []
        for gate in gates:
            for q in list(gate.qubits) + [q for q, _ in gate.controls]:
                if q >= n:
                    raise ValueError(f"gate touches qubit {q} but state has {n}")
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
                a = psi[(*at, ...)]
                at[qa], at[qb] = 0, 1
                selects = []
            else:
                selects, target = [axis[q] for q in gate.selects], axis[gate.target]
                at[target] = 0
                a = psi[(*at, ...)]
                at[target] = 1
            b = psi[(*at, ...)]
            # Entry k is indexed by the selects in list order; the views hold
            # them in buffer-axis order, with a length-1 axis for every other free axis.
            order = sorted(range(len(selects)), key=selects.__getitem__)
            shape = [2 if ax in selects else 1 for ax in range(n) if type(at[ax]) is slice]

            def place(e: np.ndarray) -> np.ndarray:
                return e.reshape((2,) * len(selects)).transpose(order).reshape(shape)

            if gate.kind == "ucr":
                half = gate.params[0] / 2.0
                c, s = (np.asarray(place(f(half)), order="C") for f in (np.cos, np.sin))
                entries = (c, np.asarray(-s), s, c)  # asarray: -s of a 0-d s is a scalar
                for e in entries:  # shared with the steps invert makes of these
                    e.flags.writeable = False
            else:
                blocks = gate.params[0] if gate.kind == "ucg" else _BLOCK[gate.kind]
                entries = tuple(place(blocks[..., i, j]) for i in (0, 1) for j in (0, 1))
            steps.append((a, b, entries))
        return steps, tuple(axis)

    def run(self, steps: Iterable[tuple]) -> "StateVector":
        """Apply steps from ``bind`` or ``invert`` in place: per step only the
        arithmetic ``a, b = c00 a + c01 b, c10 a + c11 b``.  The buffer is
        left in the axis order the steps end in."""
        for a, b, (c00, c01, c10, c11) in steps:
            a[...], b[...] = c00 * a + c01 * b, c10 * a + c11 * b
        return self

    def apply(self, *gates: g.Gate) -> "StateVector":
        """Apply gates in place: bind them all (so all are checked before any
        is applied), run the steps, then copy the buffer back into qubit order
        once if swaps left it in another."""
        steps, axis = self.bind(gates)
        self.run(steps)
        if axis != tuple(range(self.num_qubits)):
            psi = self._amp.reshape((2,) * self.num_qubits)
            psi[...] = psi.transpose(axis).copy()
        return self


def invert(steps: Sequence[tuple]) -> list[tuple]:
    """Steps that undo ``steps`` from ``bind``, over the same buffer: the
    steps in reverse order, each with its entries conjugate-transposed.  They
    start in the axis order ``steps`` end in and end in qubit order.  Real
    entries, as in every gate of the forecasting operator (a ucr's are
    float64; H, X and its ucg blocks are complex with zero imaginary parts),
    are reused as they are, only reordered; complex ones are conjugated into
    new arrays."""
    undo = []
    for a, b, c in reversed(steps):
        if any(np.iscomplexobj(e) and e.imag.any() for e in c):
            c = tuple(map(np.conj, c))
        c00, c01, c10, c11 = c
        undo.append((a, b, (c00, c10, c01, c11)))
    return undo
