"""Dense state-vector simulation.

A ``StateVector`` holds 2^N complex128 amplitudes; qubit 0 is the most
significant bit of the basis index (so |q0 q1 ... q_{N-1}> reads left to
right as a binary number).  Gates are applied in place by one view kernel:
the amplitudes are reshaped to a ``(2,) * N`` array, basic indexing fixes
the control and target axes, and the gate's 2x2 blocks combine the two
resulting views (after Häner and Steiger, arXiv:1704.01127).  ``bind`` does
that setup once per gate and ``run`` only the arithmetic, so a gate list
applied many times is bound once.  A state is exclusively owned while being
mutated.  Dense matrices never appear here -- ``gates.gate_matrix`` is the
independent oracle the kernel is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import gates as g
from .config import ATOL_PROB, ATOL_STATE, MAX_SIM_QUBITS
from .exceptions import ResourceLimitError

@dataclass(frozen=True)
class Register:
    """Named contiguous qubit range (lambda, psi, phi, phase)."""

    name: str
    start: int
    size: int

    def __post_init__(self):
        if self.start < 0 or self.size < 0:
            raise ValueError("register range must be non-negative")

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.start + self.size))


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

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "StateVector":
        sv = cls(num_qubits)
        sv._amp[0] = 0.0
        sv._amp[index] = 1.0
        return sv

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amp

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self._amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self._amp))

    def check_norm(self, atol: float = ATOL_STATE) -> None:
        if abs(self.norm() - 1.0) > atol:
            raise ValueError(f"state norm drifted to {self.norm()!r}")

    # -- gate application -------------------------------------------------

    def bind(self, gates: Iterable[g.Gate]) -> list[tuple]:
        """Check the gates, then fix per gate two views of this state's buffer
        (the amplitudes as a ``(2,) * n`` array, axis ``q`` for qubit ``q``, with
        the control axes and each target value fixed) and, but for swap, its
        2x2 block entries broadcast over them.  ``run`` can repeat the steps."""
        n = self.num_qubits
        psi = self._amp.reshape((2,) * n)
        steps = []
        for gate in gates:
            for q in list(gate.qubits) + [q for q, _ in gate.controls]:
                if q >= n:
                    raise ValueError(f"gate touches qubit {q} but state has {n}")
            if gate.kind not in ("h", "x", "swap", "ucg", "ucr"):
                raise ValueError(f"unknown gate kind {gate.kind!r}")
            at: list = [slice(None)] * n
            for q, v in gate.controls:
                at[q] = v
            # The trailing Ellipsis keeps a fully fixed index a 0-d view, not a scalar.
            if gate.kind == "swap":
                qa, qb = gate.qubits
                at[qa], at[qb] = 1, 0
                v10 = psi[(*at, ...)]
                at[qa], at[qb] = 0, 1
                steps.append((v10, psi[(*at, ...)], None))
                continue
            selects, target = gate.selects, gate.target
            at[target] = 0
            a = psi[(*at, ...)]
            at[target] = 1
            b = psi[(*at, ...)]
            # Block k is indexed by the selects in list order; the views hold
            # them in qubit order, with a length-1 axis for every other free qubit.
            order = sorted(range(len(selects)), key=selects.__getitem__)
            shape = [2 if q in selects else 1 for q in range(n) if type(at[q]) is slice]
            c = (
                gate.block_array.reshape((2,) * len(selects) + (2, 2))
                .transpose(*order, -2, -1)
                .reshape(*shape, 2, 2)
            )
            steps.append((a, b, (c[..., 0, 0], c[..., 0, 1], c[..., 1, 0], c[..., 1, 1])))
        return steps

    def run(self, steps: Iterable[tuple]) -> "StateVector":
        """Apply steps from ``bind`` in place: only the arithmetic
        ``a, b = c00 a + c01 b, c10 a + c11 b``, or the swap exchange."""
        for a, b, c in steps:
            if c is None:
                b[...], a[...] = a, b.copy()  # b is copied before it is overwritten
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

    # -- readout -----------------------------------------------------------

    def probability(self, qubits: Sequence[int], value: int) -> float:
        """Exact marginal probability that the listed qubits (most significant
        first) read out as ``value``.  No state change."""
        qubits = tuple(qubits)
        if not 0 <= value < (1 << len(qubits)):
            raise ValueError(f"value {value} out of range for {len(qubits)} qubits")
        at: list = [slice(None)] * self.num_qubits
        for pos, q in enumerate(qubits):
            at[q] = (value >> (len(qubits) - 1 - pos)) & 1
        view = self._amp.reshape((2,) * self.num_qubits)[(*at, ...)]
        return float(np.sum(np.abs(view) ** 2))

    def sample(self, rng: np.random.Generator | int | None) -> int:
        """Draw one basis index from |a_j|^2 (inverse CDF on rng.random())."""
        probs = np.abs(self._amp) ** 2
        total = probs.sum()
        if abs(total - 1.0) > ATOL_PROB:
            raise ValueError(f"cannot sample an unnormalized state (sum p = {total!r})")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        cum = np.cumsum(probs)
        k = int(np.searchsorted(cum, rng.random() * total, side="right"))
        return min(k, self._amp.size - 1)

