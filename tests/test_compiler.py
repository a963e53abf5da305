import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    MIXED_SCHEMA,
    document_inputs,
    forest_documents,
    gate_menu,
    random_instance,
    random_statevector,
    recursive_walk_oracle,
    two_leaf_forest,
)
from qrforest import gates as g
from qrforest.compiler import (
    build_D,
    build_V,
    compile_forest_op,
    compile_inverse,
    compile_plus1,
    compile_times2,
    dump_circuit,
    grover_iterate,
    leaf_angles,
    registers_for,
)
from qrforest.exceptions import DegenerateRangeError, UnsupportedForestError
from qrforest.forest_io import load_forest, save_forest
from qrforest.gates import gate_matrix
from qrforest.model import (
    InputObject,
    beta_classical,
    branch_outcomes,
    generate_random_forest,
    generate_random_input,
    walk_forest,
)
from qrforest.statevector import Register, StateVector


def _run(width, gates, basis=0):
    return StateVector.basis(width, basis).apply_all(gates)


def test_times2_single_step():
    psi = Register("psi", 0, 2)
    sv = _run(2, compile_times2(psi), basis=0b01)
    np.testing.assert_allclose(sv.amplitudes, StateVector.basis(2, 0b10).amplitudes, atol=0)


def test_times2_on_three_qubits():
    psi = Register("psi", 0, 3)
    m = np.eye(8)
    for gate in compile_times2(psi):
        m = gate_matrix(gate, 3) @ m
    np.testing.assert_allclose(m[:, 0b011], StateVector.basis(3, 0b110).amplitudes, atol=0)


@pytest.mark.parametrize("h", (1, 2, 3))
def test_times2_repeated_matches_integer_shift(h):
    psi = Register("psi", 0, h + 1)
    sv = StateVector.basis(h + 1, 1)
    value = 1
    for _ in range(h):
        sv.apply_all(compile_times2(psi))
        value *= 2
    np.testing.assert_allclose(sv.amplitudes, StateVector.basis(h + 1, value).amplitudes, atol=0)


def test_plus1_adds_one_when_root_outcome_true():
    lam, psi = Register("lambda", 0, 0), Register("psi", 0, 2)
    gate = compile_plus1(0, np.array([[False, True]]), lam, psi)
    sv = _run(2, [gate], basis=0b10)
    np.testing.assert_allclose(sv.amplitudes, StateVector.basis(2, 0b11).amplitudes, atol=0)


def test_plus1_leaves_value_when_root_outcome_false():
    lam, psi = Register("lambda", 0, 0), Register("psi", 0, 2)
    gate = compile_plus1(0, np.array([[True, False]]), lam, psi)
    sv = _run(2, [gate], basis=0b10)
    np.testing.assert_allclose(sv.amplitudes, StateVector.basis(2, 0b10).amplitudes, atol=0)


def test_plus1_tracks_outcomes_over_superposed_nodes():
    # level-1 parents of an h=2 tree are nodes 2 and 3 with distinct outcomes
    h = 2
    outcomes = np.array([[True, False, True, False]])  # slot 0 unused, nodes 1..3
    lam, psi = Register("lambda", 0, 0), Register("psi", 0, h + 1)
    gate = compile_plus1(1, outcomes, lam, psi)
    for parent in (2, 3):
        sv = _run(h + 1, [gate], basis=2 * parent)
        expected = 2 * parent + (1 if outcomes[0, parent] else 0)
        np.testing.assert_allclose(
            sv.amplitudes, StateVector.basis(h + 1, expected).amplitudes, atol=1e-15
        )


def test_outcome_table_matches_predicates():
    # each node's outcome equals the branch taken by descent of the document
    forest, x = random_instance(2, 2, 40)
    outcomes = branch_outcomes(forest, x)
    assert outcomes.shape == (2, 4) and outcomes.dtype == bool
    for i, tree in enumerate(json.loads(save_forest(forest))["trees"]):
        for j in range(1, 4):
            node = tree["nodes"][str(j)]
            v = x.values[node["attr"] - 1]
            taken = v > node["threshold"] if node["kind"] == "threshold-greater" else v == node["threshold"]
            assert outcomes[i, j] == taken


def test_angle_table_formula_and_range():
    forest, _ = random_instance(2, 2, 41)
    angles = leaf_angles(forest)
    assert angles.shape == (2, 4)
    lo, hi = forest.y_min, forest.y_max
    for i in range(2):
        for j in range(4):
            a = angles[i, j]
            assert 0.0 <= a <= math.pi / 2
            assert a == pytest.approx(math.asin(math.sqrt((forest.leaf[i, j] - lo) / (hi - lo))))


def _tree_op(forest, x):
    """One tree's walk-and-rotate gates: with one tree, lambda has no qubits,
    so the circuit after its leading psi = |1> X is exactly that operator."""
    gates = compile_forest_op(forest, x).gates
    assert gates[0] == g.x(forest.height)
    return gates[1:]


def test_tree_op_walks_and_rotates_h1():
    forest = two_leaf_forest((2.0, 6.0))
    for xv, leaf in ((0.2, 2), (0.9, 3)):
        x = InputObject.of(xv)
        sv = _run(3, _tree_op(forest, x), basis=0b010)  # psi=|1>, phi=|0>
        assert walk_forest(forest, x).tolist() == [leaf]
        s2 = (forest.leaf[0, leaf - 2] - 2.0) / 4.0
        assert sv.probability((0, 1), leaf) == pytest.approx(1.0, abs=1e-12)
        assert sv.probability((2,), 1) == pytest.approx(s2, abs=1e-12)


def test_tree_op_min_label_keeps_phi_zero():
    forest = two_leaf_forest((2.0, 6.0))
    x = InputObject.of(0.2)  # walks to the y_min leaf
    sv = _run(3, _tree_op(forest, x), basis=0b010)
    assert sv.probability((2,), 1) == 0.0


def test_tree_op_max_label_flips_phi():
    forest = two_leaf_forest((2.0, 6.0))
    x = InputObject.of(0.9)  # walks to the y_max leaf
    sv = _run(3, _tree_op(forest, x), basis=0b010)
    assert sv.probability((2,), 1) == pytest.approx(1.0, abs=1e-12)


def test_forest_op_phi_probability_is_beta(reference):
    forest, x = reference
    circuit = compile_forest_op(forest, x)
    sv = _run(circuit.num_qubits, circuit.gates)
    p = sv.probability(circuit.register("phi").qubits, 1)
    assert p == pytest.approx(beta_classical(forest, x), abs=1e-12)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_forest_op_phi_probability_is_beta_on_documents(data):
    doc = data.draw(forest_documents())
    x = data.draw(document_inputs(doc))
    forest = load_forest(json.dumps(doc))
    assume(forest.y_max > forest.y_min)
    circuit = compile_forest_op(forest, x)
    sv = _run(circuit.num_qubits, circuit.gates)
    p = sv.probability(circuit.register("phi").qubits, 1)
    assert p == pytest.approx(beta_classical(forest, x), abs=1e-9)
    # and beta itself agrees with descent of the document
    labels = [y for _, y in recursive_walk_oracle(json.dumps(doc), x)]
    declared = [y for tree in doc["trees"] for y in tree["leaves"].values()]
    lo, hi = min(declared), max(declared)
    assert beta_classical(forest, x) == pytest.approx(
        sum(y - lo for y in labels) / (len(labels) * (hi - lo)), abs=1e-12
    )


@pytest.mark.parametrize("n,h", [(1, 1), (2, 2), (4, 1), (4, 3), (8, 2)])
def test_forest_op_randomized_oracle(n, h):
    for seed in range(3):
        forest, x = random_instance(n, h, 50 + seed)
        circuit = compile_forest_op(forest, x)
        assert circuit.num_qubits == (n - 1).bit_length() + h + 2
        sv = _run(circuit.num_qubits, circuit.gates)
        sv.check_norm()
        p = sv.probability(circuit.register("phi").qubits, 1)
        assert p == pytest.approx(beta_classical(forest, x), abs=1e-9)


def test_forest_op_tree_marginal_is_uniform():
    forest, x = random_instance(4, 2, 60)
    circuit = compile_forest_op(forest, x)
    sv = _run(circuit.num_qubits, circuit.gates)
    lam = circuit.register("lambda")
    for i in range(4):
        assert sv.probability(lam.qubits, i) == pytest.approx(0.25, abs=1e-9)


def test_forest_op_branches_land_on_walked_leaves():
    forest, x = random_instance(4, 2, 61)
    circuit = compile_forest_op(forest, x)
    sv = _run(circuit.num_qubits, circuit.gates)
    lam, psi = circuit.register("lambda"), circuit.register("psi")
    for i, leaf in enumerate(walk_forest(forest, x).tolist()):
        joint = sv.probability(lam.qubits + psi.qubits, (i << psi.size) | leaf)
        assert joint == pytest.approx(1.0 / forest.n, abs=1e-10)


def test_forest_op_rejects_unsupported_counts():
    forest, x = random_instance(3, 1, 62)
    with pytest.raises(UnsupportedForestError):
        compile_forest_op(forest, x)


def test_forest_op_rejects_degenerate_range():
    forest = two_leaf_forest((1.0, 1.0))
    with pytest.raises(DegenerateRangeError):
        compile_forest_op(forest, InputObject.of(0.2))


def test_registers_partition_the_circuit():
    for n, h in ((1, 1), (2, 3), (8, 2)):
        lam, psi, phi = registers_for(n, h)
        qubits = lam.qubits + psi.qubits + phi.qubits
        assert qubits == tuple(range((n - 1).bit_length() + h + 2))


def test_walk_stage_structure_matches_height():
    # one outcome-driven ucg per level, flip blocks only at that level's parents
    forest, x = random_instance(2, 3, 63)
    circuit = compile_forest_op(forest, x)
    ucgs = [gate for gate in circuit.gates if gate.kind == "ucg"]
    assert len(ucgs) == forest.height
    h = forest.height
    for level, gate in enumerate(ucgs):
        (blocks,) = gate.params
        for value, block in enumerate(blocks):
            parent = value % (1 << h)  # low bits select the node index
            if np.array_equal(block, g._X):
                assert 2**level <= parent < 2 ** (level + 1)
    assert sum(gate.kind == "ucr" for gate in circuit.gates) == 1


def test_inverse_undoes_forest_op(reference):
    forest, x = reference
    circuit = compile_forest_op(forest, x)
    sv = _run(circuit.num_qubits, circuit.gates).apply_all(compile_inverse(circuit).gates)
    expected = StateVector(circuit.num_qubits).amplitudes
    assert np.abs(sv.amplitudes - expected).max() < 1e-10


def test_inverse_of_inverse_is_original(reference):
    circuit = compile_forest_op(*reference)
    assert compile_inverse(compile_inverse(circuit)).gates == circuit.gates


def test_inverse_on_random_fifty_gate_circuit():
    rng = np.random.default_rng(64)
    base = compile_forest_op(*random_instance(2, 1, 65))
    gates = []
    while len(gates) < 50:
        label, gate = gate_menu(base.num_qubits, rng)[int(rng.integers(0, 12))]
        gates.append(gate)
    circuit = replace(base, gates=tuple(gates))
    state = random_statevector(circuit.num_qubits, rng)
    sv = StateVector(circuit.num_qubits, state)
    sv.apply_all(circuit.gates).apply_all(compile_inverse(circuit).gates)
    assert np.abs(sv.amplitudes - state).max() < 1e-10


def test_V_flips_phase_of_marked_results(reference):
    circuit = compile_forest_op(*reference)
    v = build_V(circuit)
    phi = circuit.register("phi").qubits[0]
    keep = StateVector.basis(circuit.num_qubits, 0).apply_all(v)
    assert keep.amplitudes[0] == 1.0
    marked = 1 << (circuit.num_qubits - 1 - phi)
    flipped = StateVector.basis(circuit.num_qubits, marked).apply_all(v)
    assert flipped.amplitudes[marked] == -1.0
    rng = np.random.default_rng(66)
    state = random_statevector(circuit.num_qubits, rng)
    twice = StateVector(circuit.num_qubits, state).apply_all(v).apply_all(v)
    assert np.abs(twice.amplitudes - state).max() < 1e-12


def test_D_fixes_prepared_state(reference):
    circuit = compile_forest_op(*reference)
    psi = _run(circuit.num_qubits, circuit.gates).amplitudes.copy()
    after = StateVector(circuit.num_qubits, psi).apply_all(build_D(circuit))
    assert np.abs(after.amplitudes - psi).max() < 1e-10


def test_D_negates_orthogonal_states(reference):
    circuit = compile_forest_op(*reference)
    psi = _run(circuit.num_qubits, circuit.gates).amplitudes.copy()
    rng = np.random.default_rng(67)
    raw = random_statevector(circuit.num_qubits, rng)
    orth = raw - np.vdot(psi, raw) * psi
    orth /= np.linalg.norm(orth)
    after = StateVector(circuit.num_qubits, orth).apply_all(build_D(circuit))
    assert np.abs(after.amplitudes + orth).max() < 1e-10


def test_D_squares_to_identity(reference):
    circuit = compile_forest_op(*reference)
    rng = np.random.default_rng(68)
    state = random_statevector(circuit.num_qubits, rng)
    sv = StateVector(circuit.num_qubits, state)
    sv.apply_all(build_D(circuit)).apply_all(build_D(circuit))
    assert np.abs(sv.amplitudes - state).max() < 1e-10


def _dense_operator(gates, width):
    m = np.eye(1 << width, dtype=complex)
    for gate in gates:
        m = gate_matrix(gate, width) @ m
    return m


def test_D_and_V_are_hermitian_unitaries():
    circuit = compile_forest_op(*random_instance(2, 1, 69))
    width = circuit.num_qubits
    eye = np.eye(1 << width)
    for op in (build_D(circuit), build_V(circuit)):
        m = _dense_operator(op, width)
        assert np.abs(m - m.conj().T).max() < 1e-10
        assert np.abs(m.conj().T @ m - eye).max() < 1e-10


def test_grover_iterate_is_V_then_D(reference):
    circuit = compile_forest_op(*reference)
    assert grover_iterate(circuit) == build_V(circuit) + build_D(circuit)


def test_compile_memory_is_bounded():
    # n = 1, h = 12: 12 walk ucgs of 2^12 blocks, each held by U and U^-1
    # as one complex128 array, are 6 MiB (7.5 MiB traced at the peak).
    # Blocks held as Python objects would need several times that.
    forest = generate_random_forest(1, 12, MIXED_SCHEMA, (0.0, 1.0), 12)
    x = generate_random_input(MIXED_SCHEMA, 12)
    tracemalloc.start()
    try:
        q = grover_iterate(compile_forest_op(forest, x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(q) == 2 * (1 + 12 * 13 + 1) + 2
    assert peak < 12 << 20


def test_dump_circuit_text(reference):
    circuit = compile_forest_op(*reference)
    text = dump_circuit(circuit)
    lines = text.splitlines()
    assert lines[0].startswith("qubits: 5")
    assert "lambda=q0" in lines[0] and "psi=q1..q3" in lines[0] and "phi=q4" in lines[0]
    assert lines[1] == "h q0"
    assert lines[2] == "x q3"
    assert any(line.startswith("swap q1 q2") for line in lines)
    assert any(line.startswith("ucg selects=q0,q1,q2 target=q3 blocks=") for line in lines)
    assert lines[-1].startswith("ucr selects=q0,q1,q2,q3 target=q4 angles=")


def test_dump_circuit_golden():
    # bytes captured before forests were stored as arrays
    forest = generate_random_forest(4, 3, MIXED_SCHEMA, (-1.0, 3.0), 11)
    circuit = compile_forest_op(forest, generate_random_input(MIXED_SCHEMA, 10011))
    assert len(circuit.gates) == 16
    assert hashlib.sha256(dump_circuit(circuit).encode()).hexdigest() == (
        "29639db32cc29a7da947c0880dbccb0d2b1691da14eef9a2fe29dc74d3bd2409"
    )
