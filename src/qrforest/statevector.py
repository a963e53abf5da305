"""Dense state-vector simulation.

A ``StateVector`` holds 2^N complex128 amplitudes; qubit 0 is the most
significant bit of the basis index (so |q0 q1 ... q_{N-1}> reads left to
right as a binary number).  Gates are applied in place through vectorized
stride kernels; a state is exclusively owned while being mutated.  Dense
matrices never appear here -- ``gates.gate_matrix`` is the independent
oracle the kernels are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import gates as g
from .config import ATOL_PROB, ATOL_STATE, MAX_SIM_QUBITS
from .exceptions import ResourceLimitError

_INDEX_CACHE: dict[int, np.ndarray] = {}


def _indices(dim: int) -> np.ndarray:
    arr = _INDEX_CACHE.get(dim)
    if arr is None:
        arr = np.arange(dim, dtype=np.int64)
        _INDEX_CACHE[dim] = arr
    return arr


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
    """2^N amplitudes, mutated in place by ``apply`` (which returns self)."""

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

    def apply(self, gate: g.Gate) -> "StateVector":
        n = self.num_qubits
        for q in list(gate.qubits) + [q for q, _ in gate.controls]:
            if q >= n:
                raise ValueError(f"gate touches qubit {q} but state has {n}")
        if gate.kind in ("h", "x", "ry", "u"):
            self._apply_block(gate.scalar_block, gate.target, gate.controls)
        elif gate.kind == "swap":
            self._apply_swap(*gate.qubits, gate.controls)
        elif gate.kind in ("ucg", "ucr"):
            self._apply_ucg(gate.selects, gate.target, gate.block_array, gate.controls)
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
        return self

    def apply_all(self, gate_seq: Iterable[g.Gate]) -> "StateVector":
        for gate in gate_seq:
            self.apply(gate)
        return self

    def _mask(self, qubit: int) -> int:
        return 1 << (self.num_qubits - 1 - qubit)

    def _control_masks(self, controls) -> tuple[int, int]:
        cmask = cwant = 0
        for q, v in controls:
            m = self._mask(q)
            cmask |= m
            cwant |= m * v
        return cmask, cwant

    def _apply_block(self, block, target, controls) -> None:
        amp = self._amp
        tmask = self._mask(target)
        cmask, cwant = self._control_masks(controls)
        idx = _indices(amp.size)
        i0 = idx[(idx & (cmask | tmask)) == cwant]
        i1 = i0 | tmask
        a, b = amp[i0], amp[i1]
        amp[i0] = block[0][0] * a + block[0][1] * b
        amp[i1] = block[1][0] * a + block[1][1] * b

    def _apply_swap(self, qa, qb, controls) -> None:
        amp = self._amp
        amask, bmask = self._mask(qa), self._mask(qb)
        cmask, cwant = self._control_masks(controls)
        idx = _indices(amp.size)
        i10 = idx[(idx & (cmask | amask | bmask)) == (cwant | amask)]
        i01 = (i10 ^ amask) | bmask
        tmp = amp[i01]
        amp[i01] = amp[i10]
        amp[i10] = tmp

    def _apply_ucg(self, selects, target, blocks, controls) -> None:
        amp = self._amp
        n = self.num_qubits
        tmask = self._mask(target)
        cmask, cwant = self._control_masks(controls)
        idx = _indices(amp.size)
        i0 = idx[(idx & (cmask | tmask)) == cwant]
        i1 = i0 | tmask
        k = np.zeros(i0.shape, dtype=np.int64)
        for q in selects:
            k = (k << 1) | ((i0 >> (n - 1 - q)) & 1)
        a, b = amp[i0], amp[i1]
        amp[i0] = blocks[k, 0, 0] * a + blocks[k, 0, 1] * b
        amp[i1] = blocks[k, 1, 0] * a + blocks[k, 1, 1] * b

    # -- readout -----------------------------------------------------------

    def probability(self, qubits: Sequence[int], value: int) -> float:
        """Exact marginal probability that the listed qubits (most significant
        first) read out as ``value``.  No state change."""
        qubits = tuple(qubits)
        if not 0 <= value < (1 << len(qubits)):
            raise ValueError(f"value {value} out of range for {len(qubits)} qubits")
        mask = want = 0
        for pos, q in enumerate(qubits):
            m = self._mask(q)
            mask |= m
            if (value >> (len(qubits) - 1 - pos)) & 1:
                want |= m
        idx = _indices(self._amp.size)
        sel = (idx & mask) == want
        return float(np.sum(np.abs(self._amp[sel]) ** 2))

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


def dump_amplitudes(state: StateVector) -> str:
    """Debug dump: one ``index real imag`` line per amplitude."""
    return "\n".join(
        f"{i} {float(a.real)!r} {float(a.imag)!r}" for i, a in enumerate(state.amplitudes)
    )
