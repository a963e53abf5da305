"""Amplitude estimation via phase estimation over the Grover iterate.

A single run is textbook phase estimation of Q = D V on a ``log2 t``-qubit
phase register: prepare the compiled forecasting state Psi, put the phase
register in uniform superposition, apply the controlled powers Q^(2^m),
inverse-Fourier-transform the register, measure it, and map the integer
outcome ``k`` to the estimate ``sin^2(pi k / t)``.  Outcomes therefore live
on a fixed grid of ``t/2 + 1`` values; the estimate is within
``2 pi sqrt(beta (1 - beta)) / t + pi^2 / t^2`` of the true normalized
forecast with probability at least ``8 / pi^2``.  Median boosting over an
odd number of independent runs drives the failure probability below any
requested ``delta``.

The simulation builds no such circuit.  The controlled powers leave the
history state ``sum_m Q^m|Psi> |m> / sqrt(t)`` (Cleve, Ekert, Macchiavello,
Mosca, quant-ph/9708016); Q is unitary, so its readout needs only
``g(m) = <Psi|Q^m Psi>``: outcome ``k`` has probability
``(2 Re fft((t - m) g(m))[k] - t g(0)) / t^2`` over m = 0 .. t-1, clipped at
0 as rounding can leave a zero a few ulps below.  With Psi = U|0> and
Q = D V, D = U S0 U^-1, S0 = 2|0><0| - I, conjugating by U gives
``U^-1 Q U = S0 U^-1 V U``, so ``g(m) = <0|(S0 U^-1 V U)^m|0>``: the
all-zero amplitude of one running vector that starts at |0>.  The engine
holds only that vector.  Each of ``t - 1`` steps runs redo (U's bound steps,
which leave it in U's output axis order; its swaps only relabel axes),
negates the amplitudes where phi (the circuit's "phi" register) reads 1
on the buffer axis the axis map gives it (V), runs undo (U's bound steps
backwards, each block transposed: every block of U is real; they end in
qubit order), negates every amplitude but index 0 (S0), and reads ``g(m)``
at index 0, so no step copies the state and none takes an inner product.
The width cap counts the textbook circuit's work + phase qubits.

``sample_outcomes`` is the one path from (forest, input) to phase outcomes:
it makes every check before it compiles, then simulates the distribution, a
deterministic function of (forest, input, t), once per call; its runs stay
independent through their measurement seeds.

Counting conventions (exposed through the result object) are those of the
textbook circuit, not of the simulator's work: one preparation of the
forecasting operator per run plus one forward and one inverse application
inside each of the ``t - 1`` controlled Grover powers; each application
walks ``height`` levels, i.e. does ``height`` classical input queries.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .compiler import CompiledCircuit, check_compilable, compile_forest_op
from .config import MAX_SIM_QUBITS
from .exceptions import ResourceLimitError
from .model import InputObject, RandomForest, beta_to_R
from .statevector import StateVector, invert

# Median-boost repetition count: with single-run failure <= 1 - 8/pi^2 < 0.19,
# Hoeffding needs r >= 5.2 ln(1/delta) for the median to fail with
# probability <= delta; 12 leaves generous slack.
_BOOST_CONSTANT = 12.0


def repetitions_for_delta(delta: float) -> int:
    """Smallest odd repetition count >= 12 ln(1/delta)."""
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 0.5)")
    r = max(1, math.ceil(_BOOST_CONSTANT * -math.log(delta)))
    return r if r % 2 else r + 1


# No failure bound needs more runs than the smallest positive double does
# (8935), so no request for more is ever useful.
MAX_REPETITIONS = repetitions_for_delta(math.ulp(0.0))


def _check_t(t: int) -> None:
    if t < 2 or t & (t - 1):
        raise ValueError("t must be a power of two >= 2")


def _as_int(name: str, value) -> int:
    """``value`` as an int; a bool or a value without ``__index__`` is refused."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True, slots=True)
class QaeConfig:
    """Estimation parameters.

    ``t`` is the phase-grid size (a power of two; log2 t phase qubits).
    Give either ``repetitions`` (odd) or ``delta``; with neither, one
    repetition is run.  ``target`` selects whether the result also carries
    the forecast mapped back to the raw leaf-label scale ('r') or just the
    normalized estimate ('beta').  A ``seed`` must be non-negative.  ``t``,
    ``repetitions`` and ``seed`` are stored as ints; a bool or a float is refused.
    """

    t: int
    repetitions: int | None = None
    delta: float | None = None
    target: str = "beta"
    seed: int | None = None

    def __post_init__(self):
        for name in ("t", "repetitions", "seed"):
            value = getattr(self, name)
            if name == "t" or value is not None:
                object.__setattr__(self, name, _as_int(name, value))  # the class is frozen
        _check_t(self.t)
        _check_seed(self.seed)
        if self.repetitions is not None and self.delta is not None:
            raise ValueError("give repetitions or delta, not both")
        if self.repetitions is not None and (self.repetitions < 1 or self.repetitions % 2 == 0):
            raise ValueError("repetitions must be an odd integer >= 1")
        if self.delta is not None and not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5)")
        if self.target not in ("beta", "r"):
            raise ValueError("target must be 'beta' or 'r'")

    @property
    def resolved_repetitions(self) -> int:
        if self.repetitions is not None:
            return self.repetitions
        if self.delta is not None:
            return repetitions_for_delta(self.delta)
        return 1


@dataclass(frozen=True)
class EstimationResult:
    """One boosted estimate plus its bookkeeping.

    ``grover_calls`` counts applications of Q = D V (equivalently of D, or of
    V); ``u_invocations`` counts runs of the forecasting operator or its
    inverse, including the per-repetition state preparation.
    """

    beta_estimate: float
    r_estimate: float | None
    error_bound: float
    raw_estimates: tuple[float, ...]
    repetitions: int
    t: int
    grover_calls: int
    u_invocations: int
    height: int


def error_bound(beta_estimate: float, t: int) -> float:
    """Single-run confidence radius 2 pi sqrt(b(1-b))/t + pi^2/t^2."""
    b = min(1.0, max(0.0, beta_estimate))
    return 2.0 * math.pi * math.sqrt(b * (1.0 - b)) / t + math.pi**2 / t**2


def estimate_of(outcome: int, t: int) -> float:
    """The amplitude estimate ``sin^2(pi k / t)`` read off phase outcome k."""
    return math.sin(math.pi * outcome / t) ** 2


def check_width(work_qubits: int, t: int) -> None:
    """Refuse a phase grid ``t`` that is not a power of two >= 2, then a run
    of ``work_qubits`` plus ``log2 t`` phase qubits wider than
    ``MAX_SIM_QUBITS``; needs only the widths, so it runs before any work."""
    _check_t(t)
    phase_size = t.bit_length() - 1
    width = work_qubits + phase_size
    if width > MAX_SIM_QUBITS:
        raise ResourceLimitError(
            f"{width} qubits ({work_qubits} work + {phase_size} phase) "
            f"exceeds the simulator cap of {MAX_SIM_QUBITS}"
        )


class PhaseEstimation:
    """Exact QPE outcome distribution for one (circuit, t) pair:
    ``max(0, (2 Re fft((t - m) g) - t g(0)) / t^2)`` with
    ``g(m) = <0|(S0 U^-1 V U)^m|0>`` streamed off one running vector that
    starts at |0> (see above), so ``g(0) = 1`` and nothing runs before the
    loop.  U is bound once as ``redo``, and ``undo`` is ``redo`` run
    backwards (``statevector.invert``), sharing its views and entries; a
    step is redo, V, undo, S0.  V negates the view where phi's buffer axis,
    through ``bind``'s axis map, reads 1.  Only the distribution and ``t``
    are kept."""

    def __init__(self, circuit: CompiledCircuit, t: int):
        check_width(circuit.num_qubits, t)
        self.t = t
        w = circuit.num_qubits
        sv = StateVector(w)  # |0>: the loop runs in U's input frame
        redo, axis = sv.bind(circuit.gates)
        undo = invert(redo)
        v = sv.amplitudes
        phi = circuit.register("phi").start
        phi_one = v.reshape((2,) * w)[(slice(None),) * axis[phi] + (1, ...)]  # V's view
        g = np.empty(t, dtype=np.complex128)
        g[0] = 1.0
        for m in range(1, t):
            sv.run(redo)
            phi_one *= -1
            sv.run(undo)
            v[1:] *= -1  # 2|0><0| - I: every sign but the all-zero state's
            g[m] = v[0]
        p = 2.0 * np.fft.fft((t - np.arange(t)) * g).real - t * g[0].real
        self._distribution = np.maximum(p / t**2, 0.0)
        self._cumulative = np.cumsum(self._distribution)

    def distribution(self) -> np.ndarray:
        """Exact outcome probabilities over phase values 0 .. t-1."""
        return self._distribution.copy()

    def sample_outcome(self, rng: np.random.Generator) -> int:
        r = rng.random() * self._cumulative[-1]
        k = int(np.searchsorted(self._cumulative, r, side="right"))
        return min(k, self.t - 1)


def sample_outcomes(forest: RandomForest, x: InputObject, t: int, seed: int | None, count: int) -> tuple[int, ...]:
    """Phase outcomes of ``count`` independent runs of phase estimation over
    ``compile_forest_op(forest, x)``, run ``i`` drawing from
    ``default_rng(SeedSequence(seed).spawn(count)[i])``.  Before it compiles
    it refuses, in order: a ``count``, ``t`` or ``seed`` that is a bool or
    not an integer, ``count < 1``, what ``check_compilable`` or
    ``check_width`` refuse, ``count > MAX_REPETITIONS`` and a negative seed."""
    count, t = _as_int("count", count), _as_int("t", t)
    seed = None if seed is None else _as_int("seed", seed)
    if count < 1:
        raise ValueError("need at least one run")
    check_width(check_compilable(forest, x), t)
    if count > MAX_REPETITIONS:
        raise ResourceLimitError(
            f"{count} runs requested; no failure bound needs more than {MAX_REPETITIONS}"
        )
    _check_seed(seed)
    seeds = np.random.SeedSequence(seed).spawn(count)
    engine = PhaseEstimation(compile_forest_op(forest, x), t)
    return tuple(engine.sample_outcome(np.random.default_rng(s)) for s in seeds)


def query_count(result: EstimationResult) -> int:
    """Classical input queries consumed: ``height`` per forecasting-operator
    application, over all preparations and Grover powers."""
    return result.height * result.u_invocations


def run_forecast(forest: RandomForest, x: InputObject, config: QaeConfig) -> EstimationResult:
    """Median of ``config``'s independent runs from ``sample_outcomes``;
    fills the raw-scale forecast when target is 'r'."""
    r, t = config.resolved_repetitions, config.t
    outcomes = sample_outcomes(forest, x, t, config.seed, r)
    grid = {k: estimate_of(k, t) for k in set(outcomes)}  # runs that drew k share one float
    raw = tuple(grid[k] for k in outcomes)
    beta = sorted(raw)[r // 2]
    return EstimationResult(
        beta_estimate=beta,
        r_estimate=beta_to_R(beta, forest.y_min, forest.y_max) if config.target == "r" else None,
        error_bound=error_bound(beta, t),
        raw_estimates=raw,
        repetitions=r,
        t=t,
        grover_calls=r * (t - 1),
        u_invocations=r * (2 * t - 1),
        height=forest.height,
    )
