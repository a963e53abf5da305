"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.  Each test prints its PASS line only after every assertion in
the criterion has held.
"""
import itertools
import math
import time

import numpy as np

from conftest import gate_matrix, gate_menu, norm, probability, random_instance, random_statevector
from conftest import build_D, build_V, compile_inverse, swap_as_cnots
from qrforest import gates as g
from qrforest.compiler import compile_forest_op
from qrforest.model import beta_classical, beta_to_R, forecast_classical
from qrforest.qae import (
    QaeConfig,
    error_bound,
    query_count,
    repetitions_for_delta,
    run_forecast,
)
from qrforest.reference import reference_forest, reference_input
from qrforest.statevector import StateVector


def test_criterion_1_exact_amplitude_oracle():
    """P(phi=1) of the compiled operator equals the exact classical beta."""
    started = time.perf_counter()
    shapes = list(itertools.product((1, 2, 4, 8), (1, 2, 3)))
    count, worst = 0, 0.0
    seed = 0
    while count < 200:
        n, h = shapes[count % len(shapes)]
        forest, x = random_instance(n, h, 1000 + seed)
        seed += 1
        circuit = compile_forest_op(forest, x)
        state = StateVector(circuit.num_qubits).apply(*circuit.gates)
        p = probability(state, circuit.register("phi").qubits, 1)
        worst = max(worst, abs(p - beta_classical(forest, x)))
        assert abs(p - beta_classical(forest, x)) < 1e-9
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1: PASS - 200 randomized forests, max |P(phi=1) - beta| = "
        f"{worst:.2e} < 1e-9 in {elapsed:.1f}s"
    )


def test_criterion_2_single_run_confidence_bound(shared_engines):
    """>= 76% of 500 seeded single runs land within the confidence radius."""
    forest, x = reference_forest(), reference_input()
    beta = beta_classical(forest, x)
    bound = 2 * math.pi * math.sqrt(beta * (1 - beta)) / 32 + math.pi**2 / 1024
    hits = sum(
        abs(run_forecast(forest, x, QaeConfig(t=32, seed=s)).beta_estimate - beta) <= bound
        for s in range(500)
    )
    rate = hits / 500
    assert rate >= 0.76
    print(f"\nACCEPTANCE 2: PASS - single-run success rate {rate:.3f} >= 0.76 (t=32, 500 runs)")


def test_criterion_3_reference_pair_consistency():
    """The quoted classical/quantum pair (0.1596, 0.14645) sits inside both
    the quoted radius 0.0623 and our own bound evaluation."""
    diff = abs(0.1596 - 0.14645)
    assert diff <= 0.0623
    assert diff <= error_bound(0.14645, 32)
    # the quoted 0.0623 is the subtractive bound variant at the classical value
    subtractive = 2 * math.pi * math.sqrt(0.1596 * (1 - 0.1596)) / 32 - math.pi**2 / 1024
    assert round(subtractive, 4) == 0.0623
    assert diff <= subtractive
    print(
        f"\nACCEPTANCE 3: PASS - |0.1596 - 0.14645| = {diff:.5f} <= 0.0623 "
        f"(and <= our bound {error_bound(0.14645, 32):.4f})"
    )


def test_criterion_4_median_boosting_failure_rate(shared_engines):
    """With delta = 0.1 and the derived odd repetition count, the boosted
    estimate fails its radius on <= 10% of 300 seeded trials."""
    r = repetitions_for_delta(0.1)
    assert r % 2 == 1
    instances = [
        (reference_forest(), reference_input(), 32),
        (*random_instance(4, 2, 201), 16),
        (*random_instance(1, 3, 202), 16),
    ]
    rates = []
    for forest, x, t in instances:
        beta = beta_classical(forest, x)
        bound = error_bound(beta, t)
        fails = 0
        for s in range(300):
            result = run_forecast(forest, x, QaeConfig(t=t, repetitions=r, seed=s))
            fails += abs(result.beta_estimate - beta) > bound
        rate = fails / 300
        rates.append(rate)
        assert rate <= 0.1
    print(
        f"\nACCEPTANCE 4: PASS - boosted failure rates {['%.3f' % v for v in rates]} "
        f"<= 0.1 (r={r}, 300 trials each)"
    )


def test_criterion_5_raw_scale_reconstruction(shared_engines):
    """The raw-scale error is the normalized error times the label spread on
    every in-bound trial, and the median relative error stays <= 5%."""
    forest, x = reference_forest(), reference_input()
    beta = beta_classical(forest, x)
    r_cl = forecast_classical(forest, x)
    spread = forest.y_max - forest.y_min
    bound = error_bound(beta, 32)
    rel_errors, in_bound = [], 0
    for s in range(500):
        est = run_forecast(forest, x, QaeConfig(t=32, seed=s)).beta_estimate
        r_est = beta_to_R(est, forest.y_min, forest.y_max)
        if abs(est - beta) <= bound:
            in_bound += 1
            assert abs(r_est - r_cl) <= spread * bound + 1e-12
        rel_errors.append(abs(r_est - r_cl) / abs(r_cl))
    median_rel = sorted(rel_errors)[len(rel_errors) // 2]
    assert median_rel <= 0.05
    print(
        f"\nACCEPTANCE 5: PASS - raw-scale error fenced on all {in_bound} in-bound trials; "
        f"median relative error {median_rel:.4f} <= 0.05"
    )


def test_criterion_6_simulator_correctness_suite():
    """Kernels vs dense oracles, SWAP as CNOTs, inverse round trip,
    reflection involutions, and norm stability over 10^4 gates."""
    rng = np.random.default_rng(777)
    for n in (3, 6):
        menu = gate_menu(n, rng)
        for label, gate in menu:
            dense = gate_matrix(gate, n)
            for _ in range(100):
                state = random_statevector(n, rng)
                fast = StateVector(n, state).apply(gate).amplitudes
                assert np.abs(fast - dense @ state).max() < 1e-10, label

    composite = np.eye(4)
    for gate in swap_as_cnots(0, 1):
        composite = gate_matrix(gate, 2) @ composite
    assert np.array_equal(composite, gate_matrix(g.swap(0, 1), 2))

    forest, x = reference_forest(), reference_input()
    circuit = compile_forest_op(forest, x)
    inverse_circuit = compile_inverse(circuit)
    d_gates, v_gates = build_D(circuit), build_V(circuit)
    for trial in range(20):
        state = random_statevector(circuit.num_qubits, rng)
        sv = StateVector(circuit.num_qubits, state)
        sv.apply(*circuit.gates).apply(*inverse_circuit.gates)
        assert np.abs(sv.amplitudes - state).max() < 1e-10
        sv = StateVector(circuit.num_qubits, state)
        sv.apply(*d_gates).apply(*d_gates)
        assert np.abs(sv.amplitudes - state).max() < 1e-10
        sv = StateVector(circuit.num_qubits, state)
        sv.apply(*v_gates).apply(*v_gates)
        assert np.abs(sv.amplitudes - state).max() < 1e-10

    sv = StateVector(6)
    menu = gate_menu(6, rng)
    for i in range(10_000):
        if i % 100 == 0:
            menu = gate_menu(6, rng)
        sv.apply(menu[int(rng.integers(0, len(menu)))][1])
    drift = abs(norm(sv) - 1.0)
    assert drift < 1e-10
    print(f"\nACCEPTANCE 6: PASS - kernels match dense oracles; norm drift {drift:.2e} after 10^4 gates")


def test_criterion_7_query_scaling():
    """Query counts double with t (ratio in [1.8, 2.2]) and grow linearly in h."""
    forest, x = random_instance(2, 1, 300)
    counts = {}
    for t in (8, 16, 32, 64):
        result = run_forecast(forest, x, QaeConfig(t=t, repetitions=1, seed=0))
        counts[t] = query_count(result)
    ratios = [counts[2 * t] / counts[t] for t in (8, 16, 32)]
    assert all(1.8 <= r <= 2.2 for r in ratios)

    by_height = {}
    for h in (1, 2, 3):
        forest, x = random_instance(2, h, 301)
        result = run_forecast(forest, x, QaeConfig(t=16, repetitions=1, seed=0))
        by_height[h] = query_count(result)
    assert by_height[2] == 2 * by_height[1]
    assert by_height[3] == 3 * by_height[1]
    print(
        f"\nACCEPTANCE 7: PASS - t-doubling ratios {['%.3f' % r for r in ratios]} in [1.8, 2.2]; "
        f"h scaling {by_height} linear"
    )
