import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_state, check_norm, gate_matrix, gate_menu, inverse, norm, probability
from conftest import random_instance, random_statevector, ry, swap_as_cnots
from qrforest import gates as g
from qrforest.exceptions import ResourceLimitError
from qrforest.compiler import Register, compile_forest_op
from qrforest.statevector import StateVector, invert

SQ2 = 1.0 / math.sqrt(2.0)


def test_hadamard_on_zero():
    sv = StateVector(1).apply(g.h(0))
    np.testing.assert_allclose(sv.amplitudes, [SQ2, SQ2], atol=1e-15)
    assert probability(sv, (0,), 1) == pytest.approx(0.5)


def test_ry_sets_requested_probability():
    sv = StateVector(1).apply(ry(0, 2.0 * math.asin(math.sqrt(0.25))))
    assert probability(sv, (0,), 1) == pytest.approx(0.25, abs=1e-15)


def test_cnot_flips_conditionally():
    sv = basis_state(2, 0b10).apply(g.cnot(0, 1))
    np.testing.assert_allclose(sv.amplitudes, [0, 0, 0, 1], atol=0)
    sv = basis_state(2, 0b01).apply(g.cnot(0, 1))
    np.testing.assert_allclose(sv.amplitudes, [0, 1, 0, 0], atol=0)


def test_zero_state_probability():
    assert probability(StateVector(2), (1,), 1) == 0.0


def _in_qubit_order(sv, axis):
    """The amplitudes in qubit order, read from a buffer whose axis ``axis[q]``
    holds qubit ``q``."""
    return sv.amplitudes.reshape((2,) * sv.num_qubits).transpose(axis).reshape(-1)


@pytest.mark.parametrize("n", (3, 4, 6))
def test_apply_matches_dense_oracle(n):
    rng = np.random.default_rng(100 + n)
    for trial in range(10):
        for label, gate in gate_menu(n, rng):
            state = random_statevector(n, rng)
            fast = StateVector(n, state).apply(gate).amplitudes
            dense = gate_matrix(gate, n) @ state
            assert np.abs(fast - dense).max() < 1e-10, label


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 15), min_size=1, max_size=12),
)
def test_bound_steps_run_the_gate_list(n, seed, picks):
    """``run(bind(gates))`` equals applying the gates one at a time, bit for
    bit, and the dense product to 1e-12; run twice, the bound steps still act
    on the live buffer."""
    rng = np.random.default_rng(seed)
    menu = gate_menu(n, rng)
    gates = [menu[i][1] for i in picks]
    state = random_statevector(n, rng)
    one_by_one = StateVector(n, state)
    for gate in gates:
        one_by_one.apply(gate)
    sv = StateVector(n, state)
    steps, axis = sv.bind(gates)
    assert sv.run(steps) is sv
    np.testing.assert_array_equal(_in_qubit_order(sv, axis), one_by_one.amplitudes)
    dense = np.eye(1 << n)
    for gate in gates:
        dense = gate_matrix(gate, n) @ dense
    assert np.abs(_in_qubit_order(sv, axis) - dense @ state).max() < 1e-12
    sv.amplitudes[:] = _in_qubit_order(sv, axis)
    sv.run(steps)
    for gate in gates:
        one_by_one.apply(gate)
    np.testing.assert_array_equal(_in_qubit_order(sv, axis), one_by_one.amplitudes)


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 15), min_size=1, max_size=12),
)
def test_inverted_steps_undo_the_bound_steps(n, seed, picks):
    """``run(invert(steps))`` undoes ``run(steps)`` to 1e-12, on gate lists
    with complex blocks, controls folded into ucgs and relabelling swaps, and
    from any state equals the oracle's gate-level inverse list applied one
    gate at a time."""
    rng = np.random.default_rng(seed)
    # A fresh menu per pick puts swaps on different pairs, so the axis
    # order the steps end in can be a cycle, which is not its own inverse.
    gates = [gate_menu(n, rng)[i][1] for i in picks]
    state = random_statevector(n, rng)
    sv = StateVector(n, state)
    steps, axis = sv.bind(gates)
    undo = invert(steps)
    sv.run(steps).run(undo)
    assert np.abs(sv.amplitudes - state).max() < 1e-12
    # undo starts where the steps end, with qubit q on buffer axis axis[q].
    sv.amplitudes[:] = sv.amplitudes.reshape((2,) * n).transpose(np.argsort(axis)).reshape(-1)
    sv.run(undo)
    oracle = StateVector(n, state)
    for gate in reversed(gates):
        oracle.apply(inverse(gate))
    assert np.abs(sv.amplitudes - oracle.amplitudes).max() < 1e-12


def test_invert_reuses_the_forecasting_steps():
    """U's blocks are real, so its inverted steps hold U's own views and
    block entries (``is``), in reverse order: no second block set exists.
    U's swaps leave its qubits on other axes, and undo brings them back."""
    for n, h in ((1, 3), (4, 3), (8, 4)):
        circuit = compile_forest_op(*random_instance(n, h, 70 + h))
        sv = StateVector(circuit.num_qubits)
        redo, axis = sv.bind(circuit.gates)
        undo = invert(redo)
        assert len(undo) == len(redo) and axis != tuple(range(circuit.num_qubits))
        for (a, b, c), (ra, rb, rc) in zip(undo, reversed(redo)):
            assert a is ra and b is rb
            c00, c01, c10, c11 = c
            assert c00 is rc[0] and c01 is rc[2] and c10 is rc[1] and c11 is rc[3]
        sv.run(redo).run(undo)
        assert np.abs(sv.amplitudes - basis_state(circuit.num_qubits, 0).amplitudes).max() < 1e-12


def test_self_inverse_gates_square_to_identity():
    rng = np.random.default_rng(12)
    state = random_statevector(3, rng)
    for gate in (g.h(1), g.x(2), g.cnot(0, 2), g.swap(1, 2)):
        sv = StateVector(3, state).apply(gate).apply(gate)
        assert np.abs(sv.amplitudes - state).max() < 1e-10


def test_ry_opposite_angles_cancel():
    rng = np.random.default_rng(13)
    for _ in range(10):
        xi = float(rng.uniform(-6, 6))
        state = random_statevector(2, rng)
        sv = StateVector(2, state).apply(ry(0, xi)).apply(ry(0, -xi))
        assert np.abs(sv.amplitudes - state).max() < 1e-10


def test_ucr_zero_angles_is_identity():
    rng = np.random.default_rng(14)
    state = random_statevector(3, rng)
    sv = StateVector(3, state).apply(g.ucr((0, 1), 2, [0.0] * 4))
    np.testing.assert_array_equal(sv.amplitudes, state)


def test_ucr_single_control_pi_flips_when_control_set():
    # expected 4x4: identity block for control 0, Ry(pi) = [[0,-1],[1,0]] for 1
    expected = np.eye(4)
    expected[2:, 2:] = [[0, -1], [1, 0]]
    for basis in range(4):
        sv = basis_state(2, basis).apply(g.ucr((0,), 1, [0.0, math.pi]))
        np.testing.assert_allclose(sv.amplitudes, expected[:, basis], atol=1e-15)


def test_ucr_matches_block_diagonal_oracle():
    rng = np.random.default_rng(15)
    for n in (3, 5):
        selects = tuple(range(n - 1))
        angles = rng.uniform(-math.pi, math.pi, size=2 ** (n - 1))
        dense = np.zeros((2**n, 2**n))
        for k, a in enumerate(angles):
            dense[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [
                [math.cos(a / 2), -math.sin(a / 2)],
                [math.sin(a / 2), math.cos(a / 2)],
            ]
        state = random_statevector(n, rng)
        fast = StateVector(n, state).apply(g.ucr(selects, n - 1, angles)).amplitudes
        assert np.abs(fast - dense @ state).max() < 1e-10


def test_ucr_binds_to_real_contiguous_entries():
    """A ucr binds to real float64 entries ``(c, -s, s, c)``, each placed in
    buffer order once and C-contiguous, so ``c00 is c11``; its selects are
    out of buffer order here, so placing them transposes."""
    rng = np.random.default_rng(19)
    gate = g.ucr((3, 0, 2), 1, rng.uniform(-math.pi, math.pi, size=8))
    state = random_statevector(4, rng)
    sv = StateVector(4, state)
    steps, axis = sv.bind([gate])
    assert len(steps) == 1 and axis == (0, 1, 2, 3)
    c00, c01, c10, c11 = steps[0][2]
    assert c00 is c11
    for e in (c00, c01, c10):
        assert e.dtype == np.float64 and e.flags.c_contiguous
    sv.run(steps)
    assert np.abs(sv.amplitudes - gate_matrix(gate, 4) @ state).max() < 1e-12


def test_swap_as_cnots_behaves_like_swap():
    sv = basis_state(2, 0b01).apply(*swap_as_cnots(0, 1))
    np.testing.assert_allclose(sv.amplitudes, [0, 0, 1, 0], atol=0)
    rng = np.random.default_rng(16)
    state = random_statevector(2, rng)
    via_cnots = StateVector(2, state).apply(*swap_as_cnots(0, 1)).amplitudes
    via_swap = StateVector(2, state).apply(g.swap(0, 1)).amplitudes
    np.testing.assert_allclose(via_cnots, via_swap, atol=1e-15)


def test_norm_preserved_over_random_sequence():
    rng = np.random.default_rng(17)
    sv = StateVector(5)
    for _ in range(200):
        label, gate = gate_menu(5, rng)[rng.integers(0, 12)]
        sv.apply(gate)
    assert abs(norm(sv) - 1.0) < 1e-10
    check_norm(sv)


def test_register_probability():
    reg = Register("psi", 1, 2)
    sv = basis_state(3, 0b011)
    assert probability(sv, reg.qubits, 0b11) == 1.0
    assert probability(sv, reg.qubits, 0b01) == 0.0
    assert probability(sv, (0,), 0) == 1.0
    with pytest.raises(ValueError):
        probability(sv, reg.qubits, 4)


def test_out_of_range_qubit_rejected():
    with pytest.raises(ValueError, match="qubit 3"):
        StateVector(2).apply(g.h(3))


def test_state_width_cap():
    with pytest.raises(ResourceLimitError):
        StateVector(23)


def test_apply_gate_returns_same_object():
    sv = StateVector(1)
    assert sv.apply(g.x(0)) is sv
    np.testing.assert_array_equal(sv.amplitudes, [0, 1])


def test_apply_all_checks_every_gate_before_applying_any():
    sv = StateVector(2)
    with pytest.raises(ValueError, match="qubit 3"):
        sv.apply(g.h(0), g.h(3))
    np.testing.assert_array_equal(sv.amplitudes, [1, 0, 0, 0])


def test_cnot_is_a_one_select_ucg():
    """A CNOT is the ucg with one select and blocks [I, X]; it binds to one
    step whose entries view those blocks."""
    gate = g.cnot(0, 2)
    assert gate.kind == "ucg" and gate.selects == (0,) and gate.target == 2
    (blocks,) = gate.params
    assert not blocks.flags.writeable
    np.testing.assert_array_equal(blocks, [np.eye(2), [[0, 1], [1, 0]]])
    perm = np.eye(8)[[0, 1, 2, 3, 5, 4, 7, 6]]  # flip q2 wherever q0 reads 1
    np.testing.assert_array_equal(gate_matrix(gate, 3), perm)
    rng = np.random.default_rng(18)
    state = random_statevector(3, rng)
    sv = StateVector(3, state)
    steps, axis = sv.bind([gate])
    assert len(steps) == 1 and axis == (0, 1, 2)
    assert all(np.shares_memory(e, blocks) for e in steps[0][2])
    sv.run(steps)
    np.testing.assert_array_equal(sv.amplitudes, perm @ state)
