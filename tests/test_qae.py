import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import document_inputs, forest_documents, gate_matrix, random_instance
from conftest import two_leaf_forest
from qrforest import qae
from qrforest.compiler import compile_forest_op
from qrforest.exceptions import ResourceLimitError
from qrforest.forest_io import load_forest
from qrforest.model import InputObject, beta_classical, beta_to_R, forecast_classical
from qrforest.qae import (
    EstimationResult,
    PhaseEstimation,
    QaeConfig,
    error_bound,
    estimate_of,
    query_count,
    repetitions_for_delta,
    run_forecast,
    sample_outcomes,
)
from qrforest.statevector import StateVector


def _grid(t):
    return {math.sin(math.pi * k / t) ** 2 for k in range(t // 2 + 1)}


def _fejer(d, t):
    d = d % t
    if d == 0.0:
        return 1.0
    return math.sin(math.pi * d) ** 2 / (t * math.sin(math.pi * d / t)) ** 2


def exact_outcome_distribution(beta, t):
    """Closed-form phase-readout distribution: the prepared state splits
    evenly over the two Grover eigenphases +-2*theta, each contributing a
    Fejer kernel centered at t*theta/pi (mod t)."""
    w = t * math.asin(math.sqrt(beta)) / math.pi
    return np.array([0.5 * _fejer(k - w, t) + 0.5 * _fejer(k + w, t) for k in range(t)])


def _zero_beta_instance():
    forest = two_leaf_forest((0.0, 1.0))
    return forest, InputObject.of(0.2)  # walks to the y_min leaf


def _one_beta_instance():
    forest = two_leaf_forest((1.0, 0.0))
    return forest, InputObject.of(0.2)  # walks to the y_max leaf


def _half_beta_instance():
    forest = two_leaf_forest((0.0, 2.0), (2.0, 0.0))
    return forest, InputObject.of(0.2)


def _no_work(*args):
    raise AssertionError("built before the checks ran")


def test_zero_amplitude_is_estimated_exactly():
    instance = _zero_beta_instance()
    for seed in range(10):
        assert run_forecast(*instance, QaeConfig(t=8, seed=seed)).beta_estimate == 0.0


def test_full_amplitude_is_estimated_exactly():
    instance = _one_beta_instance()
    for seed in range(10):
        assert run_forecast(*instance, QaeConfig(t=8, seed=seed)).beta_estimate == 1.0


def test_grid_exact_amplitude_is_deterministic():
    forest, x = _half_beta_instance()
    assert beta_classical(forest, x) == 0.5
    engine = PhaseEstimation(compile_forest_op(forest, x), 4)
    dist = engine.distribution()
    np.testing.assert_allclose(dist, [0.0, 0.5, 0.0, 0.5], atol=1e-12)
    for seed in range(10):
        (outcome,) = sample_outcomes(forest, x, 4, seed, 1)
        assert estimate_of(outcome, 4) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("t", (8, 16, 32))
def test_distribution_matches_closed_form(reference, t):
    forest, x = reference
    engine = PhaseEstimation(compile_forest_op(forest, x), t)
    expected = exact_outcome_distribution(beta_classical(forest, x), t)
    np.testing.assert_allclose(engine.distribution(), expected, atol=1e-12)


def test_distribution_matches_closed_form_random_instance():
    forest, x = random_instance(4, 2, 80)
    engine = PhaseEstimation(compile_forest_op(forest, x), 16)
    expected = exact_outcome_distribution(beta_classical(forest, x), 16)
    np.testing.assert_allclose(engine.distribution(), expected, atol=1e-12)


def test_phi_is_found_through_its_register():
    # Qubit q relabelled (q + 1) % w: the same circuit with phi on qubit 0.
    circuit = compile_forest_op(*random_instance(4, 2, 80))
    w = circuit.num_qubits

    def relabel(q):
        return (q + 1) % w

    moved = dataclasses.replace(
        circuit,
        registers=tuple(dataclasses.replace(r, start=relabel(r.start)) for r in circuit.registers),
        gates=tuple(
            dataclasses.replace(gate, qubits=tuple(map(relabel, gate.qubits))) for gate in circuit.gates
        ),
    )
    assert moved.register("phi").qubits == (0,)
    np.testing.assert_allclose(
        PhaseEstimation(moved, 16).distribution(), PhaseEstimation(circuit, 16).distribution(), rtol=0, atol=1e-12
    )


def test_half_amplitude_distribution_at_t32():
    # beta = 0.5 sits exactly on the t=32 grid (k = 8 and its mirror 24)
    forest, x = _half_beta_instance()
    engine = PhaseEstimation(compile_forest_op(forest, x), 32)
    dist = engine.distribution()
    expected = np.zeros(32)
    expected[8] = expected[24] = 0.5
    np.testing.assert_allclose(dist, expected, atol=1e-12)
    assert estimate_of(int(np.argmax(dist)), 32) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n, h, seed, t", [(1, 1, 83, 4), (2, 2, 84, 8)])
def test_engine_matches_dense_matrix_phase_estimation(n, h, seed, t):
    """End-to-end oracle: rebuild the whole QPE pipeline with dense matrices
    (via gate_matrix and an explicit DFT matrix) and compare distributions."""
    from conftest import grover_iterate

    forest, x = random_instance(n, h, seed)
    circuit = compile_forest_op(forest, x)
    p = t.bit_length() - 1
    width = circuit.num_qubits + p
    dim = 1 << width

    def dense(gates):
        m = np.eye(dim, dtype=complex)
        for gate in gates:
            m = gate_matrix(gate, width) @ m
        return m

    from qrforest import gates as g

    full = dense(circuit.gates)
    full = dense([g.h(q) for q in range(circuit.num_qubits, width)]) @ full
    iterate = dense(grover_iterate(circuit))
    for pos, q in enumerate(range(circuit.num_qubits, width)):
        power = 1 << (p - 1 - pos)
        # Controlled Q = (I - P1) + P1 Q, with P1 projecting onto q reading 1.
        p1 = np.diag((np.arange(dim) >> (width - 1 - q)) & 1).astype(complex)
        ctrl = np.eye(dim) - p1 + p1 @ iterate
        full = np.linalg.matrix_power(ctrl, power) @ full
    grid = np.arange(t)
    f_inv = np.exp(-2j * np.pi * np.outer(grid, grid) / t) / np.sqrt(t)
    full = np.kron(np.eye(dim // t), f_inv) @ full
    state = full[:, 0]
    expected = (np.abs(state) ** 2).reshape(-1, t).sum(axis=0)

    engine = PhaseEstimation(circuit, t)
    np.testing.assert_allclose(engine.distribution(), expected, atol=1e-10)
    closed_form = exact_outcome_distribution(beta_classical(forest, x), t)
    np.testing.assert_allclose(engine.distribution(), closed_form, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from((1, 2, 4)),
    h=st.integers(1, 3),
    t=st.sampled_from(tuple(2**k for k in range(1, 7))),
    seed=st.integers(0, 2**20),
)
# Wide shapes, 12-17 work qubits, past what the strategies draw.
@example(n=64, h=8, t=4, seed=1072)
@example(n=16, h=6, t=16, seed=1022)
@example(n=1, h=12, t=8, seed=1013)
@example(n=64, h=4, t=64, seed=1068)
@example(n=2, h=14, t=4, seed=1016)
def test_engine_matches_closed_form_on_random_forests(n, h, t, seed):
    forest, x = random_instance(n, h, seed)
    dist = PhaseEstimation(compile_forest_op(forest, x), t).distribution()
    expected = exact_outcome_distribution(beta_classical(forest, x), t)
    np.testing.assert_allclose(dist, expected, atol=1e-12)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from((2, 8, 64)))
def test_distribution_is_a_probability_vector_on_documents(data, t):
    """The engine's outcome distribution is non-negative and sums to 1."""
    doc = data.draw(forest_documents())
    forest = load_forest(json.dumps(doc))
    assume(forest.y_max > forest.y_min)
    x = data.draw(document_inputs(doc))
    dist = PhaseEstimation(compile_forest_op(forest, x), t).distribution()
    assert dist.shape == (t,)
    assert dist.min() >= 0.0
    assert abs(dist.sum() - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from((2, 8, 64)), st.integers(0, 2**32))
def test_sampler_draws_only_outcomes_of_positive_probability(data, t, seed):
    doc = data.draw(forest_documents())
    forest = load_forest(json.dumps(doc))
    assume(forest.y_max > forest.y_min)
    x = data.draw(document_inputs(doc))
    dist = PhaseEstimation(compile_forest_op(forest, x), t).distribution()
    assert all(dist[k] > 0 for k in sample_outcomes(forest, x, t, seed, count=37))


def _success_probability(dist, beta, t):
    """Exact single-run success probability: the mass of the outcomes whose
    estimate lies within the quant-ph/0005055 radius of ``beta``."""
    radius = 2 * math.pi * math.sqrt(beta * (1 - beta)) / t + math.pi**2 / t**2
    return sum(p for k, p in enumerate(dist) if abs(math.sin(math.pi * k / t) ** 2 - beta) <= radius)


def _median_failure(success, r):
    """Probability that at least (r + 1) / 2 of r independent runs fail."""
    q = max(0.0, 1.0 - success)
    return sum(math.comb(r, j) * q**j * (1 - q) ** (r - j) for j in range((r + 1) // 2, r + 1))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from((4, 8, 16, 32, 64)))
def test_exact_guarantees_on_documents(data, t):
    """The 8/pi^2 single-run bound and the median boost, from the exact
    distributions of the engine and of the closed form, not from draws."""
    doc = data.draw(forest_documents())
    forest = load_forest(json.dumps(doc))
    assume(forest.y_max > forest.y_min)
    x = data.draw(document_inputs(doc))
    beta = beta_classical(forest, x)
    engine = PhaseEstimation(compile_forest_op(forest, x), t).distribution()
    for dist in (engine, exact_outcome_distribution(beta, t)):
        success = _success_probability(dist, beta, t)
        assert success >= 8 / math.pi**2 - 1e-12
        for delta in (0.2, 0.05, 1e-3):
            assert _median_failure(success, repetitions_for_delta(delta)) <= delta


def test_engine_memory_does_not_grow_with_t():
    # n = 16, h = 5, t = 256: 11 work qubits.  The running vector and U's
    # bound steps peak at 0.16 MiB traced; the (2^11, 256) history state it
    # replaced peaked at 20.2 MiB.
    circuit = compile_forest_op(*random_instance(16, 5, 5))
    tracemalloc.start()
    try:
        PhaseEstimation(circuit, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_engine_memory_at_a_wide_shape():
    # n = 2, h = 14, t = 4: 17 work qubits.  The engine holds the running
    # vector (2 MiB) and the leaf ucr's real entries in buffer order, cos and
    # +-sin over 2^16 selects (1.5 MiB), which U^-1's steps share and which
    # are dropped with the steps.  Traced peaks: 6.8 MiB on a fresh circuit
    # and on the second run.  With Psi's conjugate kept for <Psi, v> and the
    # ucr's entries as four complex copies they were 11.3 MiB.
    circuit = compile_forest_op(*random_instance(2, 14, 5))
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            PhaseEstimation(circuit, 4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 8 << 20
    assert peaks[1] < 8 << 20


def test_engine_memory_at_the_widest_leaf_rotation():
    # n = 64, h = 10, t = 8: 18 work qubits, and the leaf ucr selects on 17
    # of them.  The running vector is 4 MiB and the ucr's real entries 3 MiB;
    # the traced peak of the engine alone is 13.3 MiB.  With Psi's conjugate
    # and four complex ucr entries (8 MiB) it was 22.3 MiB.
    circuit = compile_forest_op(*random_instance(64, 10, 5))
    tracemalloc.start()
    try:
        PhaseEstimation(circuit, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_engine_runs_only_block_steps(monkeypatch):
    """The engine runs nothing before its loop, then U's bound steps (redo)
    and their inverse (undo) by turns, 2 (t - 1) runs from |0>; every step
    is a block step ``(a, b, (c00, c01, c10, c11))``, and undo holds redo's
    views in reverse, so no step copies the state into another order."""
    runs, first = [], []
    run = StateVector.run

    def record(sv, steps):
        if not runs:
            first.append(sv.amplitudes.copy())
        runs.append(steps)
        return run(sv, steps)

    monkeypatch.setattr(StateVector, "run", record)
    circuit = compile_forest_op(*random_instance(4, 3, 5))
    PhaseEstimation(circuit, 8)
    assert len(runs) == 2 * 7
    redo, undo = runs[0], runs[1]
    assert redo is not undo
    assert all(r is redo for r in runs[0::2]) and all(r is undo for r in runs[1::2])
    zero = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    zero[0] = 1.0
    np.testing.assert_array_equal(first[0], zero)
    assert len(redo) == len(undo)
    for (a, b, _), (ra, rb, _) in zip(undo, reversed(redo)):
        assert a is ra and b is rb
    for steps in (redo, undo):
        for a, b, c in steps:
            assert type(c) is tuple and len(c) == 4
            assert all(isinstance(e, np.ndarray) for e in (a, b, *c))


def test_engine_leaves_nothing_on_the_circuit():
    # n = 2, h = 14, t = 4: the circuit holds 0.13 MiB more traced memory
    # after the first run than before it (numpy's first FFT at this length).
    # When blocks were cached on the gates, the leaf ucr kept its 4 MiB.
    circuit = compile_forest_op(*random_instance(2, 14, 5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        PhaseEstimation(circuit, 4)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 19


def test_boosted_success_rate_at_beta_point_three(shared_engines):
    forest = two_leaf_forest((0.1, 1.0), (0.5, 0.0))
    x = InputObject.of(0.2)
    assert beta_classical(forest, x) == pytest.approx(0.3)
    bound = error_bound(0.3, 64)
    hits = 0
    for s in range(500):
        result = run_forecast(forest, x, QaeConfig(t=64, repetitions=15, seed=s))
        hits += abs(result.beta_estimate - 0.3) <= bound
    assert hits / 500 > 0.95


def test_empirical_frequencies_follow_distribution(reference):
    circuit = compile_forest_op(*reference)
    engine = PhaseEstimation(circuit, 32)
    dist = engine.distribution()
    mode = int(np.argmax(dist))
    assert estimate_of(mode, 32) == pytest.approx(0.146446609406726, abs=1e-12)
    draws = np.array(sample_outcomes(*reference, 32, 81, 4000))
    freq = np.bincount(draws, minlength=32) / draws.size
    assert np.abs(freq - dist).max() < 0.05


def test_estimates_live_on_the_grid(reference, shared_engines):
    grid = _grid(32)
    for seed in range(200):
        est = run_forecast(*reference, QaeConfig(t=32, seed=seed)).beta_estimate
        assert any(abs(est - v) < 1e-12 for v in grid)


def test_single_run_is_seed_deterministic(reference):
    a = run_forecast(*reference, QaeConfig(t=32, seed=7)).beta_estimate
    b = run_forecast(*reference, QaeConfig(t=32, seed=7)).beta_estimate
    assert a == b


def test_boosting_with_one_repetition_equals_single_run(reference):
    config = QaeConfig(t=32, repetitions=1, seed=3)
    result = run_forecast(*reference, config)
    assert result.raw_estimates == (result.beta_estimate,)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from((2, 8, 32)), st.integers(0, 2**32), st.integers(1, 9))
def test_sample_outcomes_are_the_boosted_runs(data, t, seed, r):
    """``run_forecast``'s raw estimates are ``estimate_of`` over the
    sampler's outcomes and its estimate is their median; a shorter run is a
    prefix of a longer one."""
    doc = data.draw(forest_documents())
    forest = load_forest(json.dumps(doc))
    assume(forest.y_max > forest.y_min)
    x = data.draw(document_inputs(doc))
    r |= 1
    outcomes = sample_outcomes(forest, x, t, seed, r)
    result = run_forecast(forest, x, QaeConfig(t=t, repetitions=r, seed=seed))
    assert result.raw_estimates == tuple(estimate_of(k, t) for k in outcomes)
    assert result.beta_estimate == sorted(result.raw_estimates)[r // 2]
    shorter = data.draw(st.integers(1, r))
    assert sample_outcomes(forest, x, t, seed, shorter) == outcomes[:shorter]


def test_sample_outcomes_refuses_no_runs_before_compiling(reference, monkeypatch):
    monkeypatch.setattr(qae, "compile_forest_op", _no_work)
    monkeypatch.setattr(qae, "PhaseEstimation", _no_work)
    for count in (0, -2):
        with pytest.raises(ValueError, match="need at least one run"):
            sample_outcomes(*reference, 32, 0, count)


@pytest.mark.parametrize(
    "name, args",
    [
        ("count", (8, 0, 3.0)),
        ("count", (8, 0, True)),
        ("t", (8.0, 0, 3)),
        ("seed", (8, 1.5, 3)),
        ("seed", (8, True, 3)),
    ],
    ids=["count-float", "count-bool", "t-float", "seed-float", "seed-bool"],
)
def test_sample_outcomes_refuses_a_non_integer_before_compiling(reference, monkeypatch, name, args):
    monkeypatch.setattr(qae, "compile_forest_op", _no_work)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        sample_outcomes(*reference, *args)


def test_boosting_constant_estimates_return_that_value():
    result = run_forecast(*_zero_beta_instance(), QaeConfig(t=8, repetitions=5, seed=0))
    assert result.raw_estimates == (0.0,) * 5
    assert result.beta_estimate == 0.0


def test_boosted_median_is_a_raw_estimate(reference):
    result = run_forecast(*reference, QaeConfig(t=32, repetitions=7, seed=5))
    assert result.beta_estimate in result.raw_estimates
    assert sorted(result.raw_estimates)[3] == result.beta_estimate


def test_single_run_success_rate(reference, shared_engines):
    forest, x = reference
    beta = beta_classical(forest, x)
    bound = error_bound(beta, 32)
    hits = sum(
        abs(run_forecast(forest, x, QaeConfig(t=32, seed=s)).beta_estimate - beta) <= bound
        for s in range(300)
    )
    assert hits / 300 >= 0.76


def test_boosting_does_not_hurt(reference, shared_engines):
    forest, x = reference
    beta = beta_classical(forest, x)
    bound = error_bound(beta, 32)

    def failure_rate(reps):
        fails = 0
        for s in range(200):
            result = run_forecast(forest, x, QaeConfig(t=32, repetitions=reps, seed=s))
            fails += abs(result.beta_estimate - beta) > bound
        return fails / 200

    assert failure_rate(15) <= failure_rate(1)


def test_error_bound_values():
    assert error_bound(0.0, 16) == pytest.approx(math.pi**2 / 256)
    assert error_bound(1.0, 16) == pytest.approx(math.pi**2 / 256)
    relaxed = 2.0 * math.pi / 32 + math.pi**2 / 32**2  # the estimate-free radius
    assert relaxed == pytest.approx(0.206, abs=5e-4)
    assert error_bound(0.3, 32) == pytest.approx(error_bound(0.7, 32), rel=1e-12)
    assert error_bound(0.5, 32) <= relaxed


def test_reference_bound_constants():
    # the quoted reference bound 0.0623 is the subtractive variant of the
    # confidence radius evaluated at the classical value 0.1596
    subtractive = 2 * math.pi * math.sqrt(0.1596 * (1 - 0.1596)) / 32 - math.pi**2 / 1024
    assert subtractive == pytest.approx(0.0623, abs=5e-5)
    assert abs(0.1596 - 0.14645) <= subtractive
    assert abs(0.1596 - 0.14645) <= error_bound(0.14645, 32)


def test_query_count_minimal_instance():
    # r=1, t=2: one preparation plus one controlled Grover power that runs
    # the operator forward and inverse once each -> 3 applications, each
    # walking h=1 level -> 3 queries
    result = run_forecast(*_zero_beta_instance(), QaeConfig(t=2, repetitions=1, seed=0))
    assert result.u_invocations == 3
    assert result.grover_calls == 1
    assert query_count(result) == 3


def test_query_count_scales_linearly_in_t():
    instance = _zero_beta_instance()
    counts = {
        t: query_count(run_forecast(*instance, QaeConfig(t=t, repetitions=1, seed=0)))
        for t in (8, 16, 32, 64)
    }
    for t in (8, 16, 32):
        assert 1.8 <= counts[2 * t] / counts[t] <= 2.2


def test_query_count_scales_linearly_in_height():
    results = {}
    for h in (1, 2, 3):
        forest, x = random_instance(2, h, 90)
        results[h] = query_count(
            run_forecast(forest, x, QaeConfig(t=8, repetitions=1, seed=0))
        )
    assert results[2] == 2 * results[1]
    assert results[3] == 3 * results[1]


def test_config_validation():
    with pytest.raises(ValueError):
        QaeConfig(t=3)
    with pytest.raises(ValueError):
        QaeConfig(t=1)
    with pytest.raises(ValueError):
        QaeConfig(t=8, repetitions=2)
    with pytest.raises(ValueError):
        QaeConfig(t=8, repetitions=3, delta=0.1)
    with pytest.raises(ValueError):
        QaeConfig(t=8, delta=0.7)
    with pytest.raises(ValueError):
        QaeConfig(t=8, target="R")
    assert QaeConfig(t=8).resolved_repetitions == 1
    assert QaeConfig(t=8, repetitions=7).resolved_repetitions == 7


@pytest.mark.parametrize("name,value", [("t", 8.0), ("repetitions", 3.0), ("repetitions", True), ("seed", 1.5)],
                         ids=["t-float", "repetitions-float", "repetitions-bool", "seed-float"])
def test_config_refuses_a_non_integer(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        QaeConfig(**{"t": 8, name: value})


def test_config_stores_numpy_integers_as_ints(reference):
    config = QaeConfig(t=np.int64(32), repetitions=np.int32(3), seed=np.uint8(5))
    assert [type(v) for v in (config.t, config.repetitions, config.seed)] == [int, int, int]
    assert run_forecast(*reference, config) == run_forecast(*reference, QaeConfig(t=32, repetitions=3, seed=5))


def test_repetitions_for_delta():
    assert repetitions_for_delta(0.1) == 29
    for delta in (0.4, 0.25, 0.1, 0.01):
        r = repetitions_for_delta(delta)
        assert r % 2 == 1
        assert r >= 12 * math.log(1 / delta)
    assert QaeConfig(t=8, delta=0.1).resolved_repetitions == 29


def test_phase_register_width_is_capped(reference):
    with pytest.raises(ResourceLimitError):
        run_forecast(*reference, QaeConfig(t=2**18, seed=0))


def test_phase_register_width_is_checked_before_allocation(reference):
    circuit = compile_forest_op(*reference)
    with pytest.raises(ResourceLimitError, match="phase"):
        PhaseEstimation(circuit, 2**40)


def test_run_forecast_fills_target_scale(reference):
    forest, x = reference
    beta_result = run_forecast(forest, x, QaeConfig(t=32, seed=1, target="beta"))
    assert beta_result.r_estimate is None
    r_result = run_forecast(forest, x, QaeConfig(t=32, seed=1, target="r"))
    assert r_result.beta_estimate == beta_result.beta_estimate
    assert r_result.r_estimate == pytest.approx(
        beta_to_R(r_result.beta_estimate, forest.y_min, forest.y_max)
    )
    assert isinstance(r_result, EstimationResult)


def test_r_error_is_scaled_beta_error(reference):
    forest, x = reference
    spread = forest.y_max - forest.y_min
    r_cl = forecast_classical(forest, x)
    beta = beta_classical(forest, x)
    for seed in range(20):
        result = run_forecast(forest, x, QaeConfig(t=32, seed=seed, target="r"))
        assert abs(result.r_estimate - r_cl) == pytest.approx(
            spread * abs(result.beta_estimate - beta), rel=1e-9
        )


def test_value_objects_have_no_dict():
    x = InputObject.of(1, 2.5)
    config = QaeConfig(t=16, delta=0.1, target="r", seed=3)
    for obj, field in ((x, "values"), (config, "seed")):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)
    assert x == InputObject((1.0, 2.5)) and hash(x) == hash(InputObject((1.0, 2.5)))
    assert {x: 1}[InputObject.of(1, 2.5)] == 1
    moved = dataclasses.replace(config, seed=4)
    assert (moved.t, moved.delta, moved.target, moved.seed) == (16, 0.1, "r", 4)
    assert moved != config and dataclasses.replace(moved, seed=3) == config
    assert hash(dataclasses.replace(moved, seed=3)) == hash(config)
    with pytest.raises(ValueError, match="not both"):
        dataclasses.replace(config, repetitions=3)


def test_phase_estimation_admits_t_as_the_sampler_does(reference):
    circuit = compile_forest_op(*reference)
    expected = PhaseEstimation(circuit, 8).distribution()
    assert PhaseEstimation(circuit, np.int64(8)).distribution().tobytes() == expected.tobytes()
    for bad in (8.0, True):
        with pytest.raises(ValueError, match="^t must be an integer, got "):
            PhaseEstimation(circuit, bad)


@pytest.mark.parametrize("delta", ("0.1", None, True, np.True_, 0.1j))
def test_a_delta_that_is_a_bool_or_not_a_real_number_is_refused(delta):
    with pytest.raises(ValueError, match="^delta must be a real number, got "):
        repetitions_for_delta(delta)
    if delta is not None:  # QaeConfig takes delta=None as no delta
        with pytest.raises(ValueError, match="^delta must be a real number, got "):
            QaeConfig(t=8, delta=delta)
