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
    basis_state,
    build_D,
    build_V,
    check_norm,
    compile_inverse,
    document_inputs,
    forest_documents,
    gate_matrix,
    gate_menu,
    generate_random_input,
    grover_iterate,
    pauli_z,
    probability,
    random_instance,
    random_statevector,
    recursive_walk_oracle,
    reflection_about_zero,
    two_leaf_forest,
)
from qrforest import gates as g
from qrforest.compiler import (
    Register,
    compile_forest_op,
    compile_plus1,
    compile_times2,
    dump_circuit,
    leaf_angles,
    registers_for,
)
from qrforest.exceptions import DegenerateRangeError, UnsupportedForestError
from qrforest.forest_io import load_forest, save_forest
from qrforest.model import (
    InputObject,
    beta_classical,
    branch_outcomes,
    generate_random_forest,
    walk_forest,
)
from qrforest.statevector import StateVector


def _run(width, gates, basis=0):
    return basis_state(width, basis).apply(*gates)


def test_times2_single_step():
    psi = Register("psi", 0, 2)
    sv = _run(2, compile_times2(psi), basis=0b01)
    np.testing.assert_allclose(sv.amplitudes, basis_state(2, 0b10).amplitudes, atol=0)


def test_times2_on_three_qubits():
    psi = Register("psi", 0, 3)
    m = np.eye(8)
    for gate in compile_times2(psi):
        m = gate_matrix(gate, 3) @ m
    np.testing.assert_allclose(m[:, 0b011], basis_state(3, 0b110).amplitudes, atol=0)


@pytest.mark.parametrize("h", (1, 2, 3))
def test_times2_repeated_matches_integer_shift(h):
    psi = Register("psi", 0, h + 1)
    sv = basis_state(h + 1, 1)
    value = 1
    for _ in range(h):
        sv.apply(*compile_times2(psi))
        value *= 2
    np.testing.assert_allclose(sv.amplitudes, basis_state(h + 1, value).amplitudes, atol=0)


def test_plus1_adds_one_when_root_outcome_true():
    lam, psi = Register("lambda", 0, 0), Register("psi", 0, 2)
    gate = compile_plus1(0, np.array([[False, True]]), lam, psi)
    sv = _run(2, [gate], basis=0b10)
    np.testing.assert_allclose(sv.amplitudes, basis_state(2, 0b11).amplitudes, atol=0)


def test_plus1_leaves_value_when_root_outcome_false():
    lam, psi = Register("lambda", 0, 0), Register("psi", 0, 2)
    gate = compile_plus1(0, np.array([[True, False]]), lam, psi)
    sv = _run(2, [gate], basis=0b10)
    np.testing.assert_allclose(sv.amplitudes, basis_state(2, 0b10).amplitudes, atol=0)


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
            sv.amplitudes, basis_state(h + 1, expected).amplitudes, atol=1e-15
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


def test_leaf_angles_equal_the_per_leaf_loop_bit_for_bit():
    # The bulk square root, clip and math.asin against the per-leaf form
    # dump_circuit's golden was captured with; np.arcsin would differ by ulps.
    forest = generate_random_forest(8, 6, MIXED_SCHEMA, (-3.0, 7.0), 43)
    lo, hi = forest.y_min, forest.y_max
    ratios = ((forest.leaf - lo) / (hi - lo)).tolist()
    loop = [[math.asin(math.sqrt(min(1.0, max(0.0, r)))) for r in row] for row in ratios]
    assert leaf_angles(forest).tolist() == loop


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
        assert probability(sv, (0, 1), leaf) == pytest.approx(1.0, abs=1e-12)
        assert probability(sv, (2,), 1) == pytest.approx(s2, abs=1e-12)


def test_tree_op_min_label_keeps_phi_zero():
    forest = two_leaf_forest((2.0, 6.0))
    x = InputObject.of(0.2)  # walks to the y_min leaf
    sv = _run(3, _tree_op(forest, x), basis=0b010)
    assert probability(sv, (2,), 1) == 0.0


def test_tree_op_max_label_flips_phi():
    forest = two_leaf_forest((2.0, 6.0))
    x = InputObject.of(0.9)  # walks to the y_max leaf
    sv = _run(3, _tree_op(forest, x), basis=0b010)
    assert probability(sv, (2,), 1) == pytest.approx(1.0, abs=1e-12)


def test_forest_op_phi_probability_is_beta(reference):
    forest, x = reference
    circuit = compile_forest_op(forest, x)
    sv = _run(circuit.num_qubits, circuit.gates)
    p = probability(sv, circuit.register("phi").qubits, 1)
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
    p = probability(sv, circuit.register("phi").qubits, 1)
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
        check_norm(sv)
        p = probability(sv, circuit.register("phi").qubits, 1)
        assert p == pytest.approx(beta_classical(forest, x), abs=1e-9)


def test_forest_op_tree_marginal_is_uniform():
    forest, x = random_instance(4, 2, 60)
    circuit = compile_forest_op(forest, x)
    sv = _run(circuit.num_qubits, circuit.gates)
    lam = circuit.register("lambda")
    for i in range(4):
        assert probability(sv, lam.qubits, i) == pytest.approx(0.25, abs=1e-9)


def test_forest_op_branches_land_on_walked_leaves():
    forest, x = random_instance(4, 2, 61)
    circuit = compile_forest_op(forest, x)
    sv = _run(circuit.num_qubits, circuit.gates)
    lam, psi = circuit.register("lambda"), circuit.register("psi")
    for i, leaf in enumerate(walk_forest(forest, x).tolist()):
        joint = probability(sv, lam.qubits + psi.qubits, (i << psi.size) | leaf)
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
    sv = _run(circuit.num_qubits, circuit.gates).apply(*compile_inverse(circuit).gates)
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
    sv.apply(*circuit.gates).apply(*compile_inverse(circuit).gates)
    assert np.abs(sv.amplitudes - state).max() < 1e-10


def test_V_flips_phase_of_marked_results(reference):
    circuit = compile_forest_op(*reference)
    v = build_V(circuit)
    phi = circuit.register("phi").qubits[0]
    keep = basis_state(circuit.num_qubits, 0).apply(*v)
    assert keep.amplitudes[0] == 1.0
    marked = 1 << (circuit.num_qubits - 1 - phi)
    flipped = basis_state(circuit.num_qubits, marked).apply(*v)
    assert flipped.amplitudes[marked] == -1.0
    rng = np.random.default_rng(66)
    state = random_statevector(circuit.num_qubits, rng)
    twice = StateVector(circuit.num_qubits, state).apply(*v).apply(*v)
    assert np.abs(twice.amplitudes - state).max() < 1e-12


def test_D_fixes_prepared_state(reference):
    circuit = compile_forest_op(*reference)
    psi = _run(circuit.num_qubits, circuit.gates).amplitudes.copy()
    after = StateVector(circuit.num_qubits, psi).apply(*build_D(circuit))
    assert np.abs(after.amplitudes - psi).max() < 1e-10


def test_D_negates_orthogonal_states(reference):
    circuit = compile_forest_op(*reference)
    psi = _run(circuit.num_qubits, circuit.gates).amplitudes.copy()
    rng = np.random.default_rng(67)
    raw = random_statevector(circuit.num_qubits, rng)
    orth = raw - np.vdot(psi, raw) * psi
    orth /= np.linalg.norm(orth)
    after = StateVector(circuit.num_qubits, orth).apply(*build_D(circuit))
    assert np.abs(after.amplitudes + orth).max() < 1e-10


def test_D_squares_to_identity(reference):
    circuit = compile_forest_op(*reference)
    rng = np.random.default_rng(68)
    state = random_statevector(circuit.num_qubits, rng)
    sv = StateVector(circuit.num_qubits, state)
    sv.apply(*build_D(circuit)).apply(*build_D(circuit))
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
    # n = 1, h = 12: 12 walk ucgs of 2^12 blocks, each one complex128 array
    # that U^-1 shares with U, are 3 MiB (4.5 MiB traced at the peak).
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


def test_iterate_holds_walk_blocks_once():
    # n = 1, h = 12: U^-1 reuses U's 12 walk ucgs (X/I blocks are their own
    # inverses), so their 2^12 blocks are 3 MiB once (4.5 MiB traced at the peak).
    forest = generate_random_forest(1, 12, MIXED_SCHEMA, (0.0, 1.0), 12)
    x = generate_random_input(MIXED_SCHEMA, 12)
    tracemalloc.start()
    try:
        q = grover_iterate(compile_forest_op(forest, x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    walks = [gate for gate in q if gate.kind == "ucg" and len(gate.selects) == 12]
    assert len(walks) == 24 and len({id(gate) for gate in walks}) == 12


@pytest.mark.parametrize("n,h", [(1, 1), (2, 2), (4, 3), (8, 4), (16, 5)])
def test_bound_swaps_are_relabels(n, h):
    """An uncontrolled swap binds to no step.  U leaves psi's qubits on the
    axes its h x2 cascades rotate them to (each moves psi qubit i to psi's
    axis i + 1, cyclically), and Q, whose U^-1 cascades undo U's, leaves
    every qubit on its own axis."""
    forest, x = random_instance(n, h, 60 + h)
    circuit = compile_forest_op(forest, x)
    q = grover_iterate(circuit)
    sv = StateVector(circuit.num_qubits)
    iterate, axis = sv.bind(q)
    assert len(iterate) == len(q) - sum(gate.kind == "swap" for gate in q)
    assert axis == tuple(range(circuit.num_qubits))
    if (n, h) == (8, 4):
        assert (len(q), len(iterate)) == (52, 20)
    forward, axis = sv.bind(circuit.gates)
    assert len(forward) == len(circuit.gates) - sum(gate.kind == "swap" for gate in circuit.gates)
    rotated = list(range(circuit.num_qubits))
    qs = circuit.register("psi").qubits
    for i, qubit in enumerate(qs):
        rotated[qubit] = qs[(i + h) % len(qs)]
    assert axis == tuple(rotated)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_bound_iterate_runs_its_gates_on_documents(data):
    """Running the bound Q k times equals applying its gates one ``apply``
    at a time, bit for bit, on circuits with Q's own swap cascades."""
    doc = data.draw(forest_documents())
    x = data.draw(document_inputs(doc))
    forest = load_forest(json.dumps(doc))
    assume(forest.y_max > forest.y_min)
    circuit = compile_forest_op(forest, x)
    q = grover_iterate(circuit)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = random_statevector(circuit.num_qubits, rng)
    sv = StateVector(circuit.num_qubits, state)
    one_by_one = StateVector(circuit.num_qubits, state)
    iterate, axis = sv.bind(q)
    assert axis == tuple(range(circuit.num_qubits))
    for _ in range(data.draw(st.integers(1, 3))):
        sv.run(iterate)
        for gate in q:
            one_by_one.apply(gate)
        np.testing.assert_array_equal(sv.amplitudes, one_by_one.amplitudes)


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


def test_dump_circuit_refuses_blocks_compile_never_builds(reference):
    circuit = compile_forest_op(*reference)
    for gate in (pauli_z(4), reflection_about_zero((0, 4)), g.ucg((0,), 4, [g._X, 1j * g._X])):
        with pytest.raises(ValueError, match="only X and I blocks"):
            dump_circuit(replace(circuit, gates=circuit.gates + (gate,)))


def test_dump_circuit_golden():
    # bytes captured before forests were stored as arrays
    forest = generate_random_forest(4, 3, MIXED_SCHEMA, (-1.0, 3.0), 11)
    circuit = compile_forest_op(forest, generate_random_input(MIXED_SCHEMA, 10011))
    assert len(circuit.gates) == 16
    assert hashlib.sha256(dump_circuit(circuit).encode()).hexdigest() == (
        "29639db32cc29a7da947c0880dbccb0d2b1691da14eef9a2fe29dc74d3bd2409"
    )
