import math

import numpy as np
import pytest

from conftest import controlled, gate_matrix, gate_menu, pauli_z, random_unitary_2x2, ry, swap_as_cnots
from conftest import inverse, reflection_about_zero
from qrforest import gates as g
from qrforest.exceptions import ResourceLimitError
from qrforest.statevector import StateVector

SQ2 = 1.0 / math.sqrt(2.0)


def test_hadamard_matrix_entries():
    expected = np.array([[SQ2, SQ2], [SQ2, -SQ2]])
    np.testing.assert_allclose(gate_matrix(g.h(0)), expected, atol=0)


def test_x_and_cnot_and_swap_matrices():
    np.testing.assert_array_equal(gate_matrix(g.x(0)), [[0, 1], [1, 0]])
    np.testing.assert_array_equal(
        gate_matrix(g.cnot(0, 1)),
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    )
    np.testing.assert_array_equal(
        gate_matrix(g.swap(0, 1)),
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    )


def test_ry_matrix():
    xi = 1.234
    m = gate_matrix(ry(0, xi))
    expected = np.array(
        [[math.cos(xi / 2), -math.sin(xi / 2)], [math.sin(xi / 2), math.cos(xi / 2)]]
    )
    np.testing.assert_allclose(m, expected, atol=1e-15)
    assert ry(0, xi) == g.ucr((), 0, [xi])  # an Ry is a ucr with no selects


def test_all_gate_kinds_are_unitary():
    rng = np.random.default_rng(3)
    for _ in range(10):
        for label, gate in gate_menu(4, rng):
            m = gate_matrix(gate, 4)
            err = np.abs(m.conj().T @ m - np.eye(16)).max()
            assert err < 1e-10, label


def test_ucg_identity_blocks_is_identity():
    gate = g.ucg((0, 1), 2, [np.eye(2)] * 4)
    np.testing.assert_allclose(gate_matrix(gate, 3), np.eye(8), atol=0)


def test_ucg_block_diagonal_structure():
    # selects more significant than the target and adjacent: the dense matrix
    # is exactly diag(G_0, ..., G_3)
    rng = np.random.default_rng(4)
    blocks = [random_unitary_2x2(rng) for _ in range(4)]
    m = gate_matrix(g.ucg((0, 1), 2, blocks), 3)
    expected = np.zeros((8, 8), dtype=complex)
    for k, b in enumerate(blocks):
        expected[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = b
    np.testing.assert_allclose(m, expected, atol=0)


def test_ucg_uniform_blocks_act_on_target_only():
    rng = np.random.default_rng(5)
    u = random_unitary_2x2(rng)
    m = gate_matrix(g.ucg((0, 1), 2, [u] * 4), 3)
    np.testing.assert_allclose(m, np.kron(np.eye(4), u), atol=0)


def test_ucr_matrix_is_block_diagonal_rotations():
    angles = [0.3, -1.1]
    m = gate_matrix(g.ucr((0,), 1, angles), 2)
    expected = np.zeros((4, 4))
    for k, a in enumerate(angles):
        expected[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [
            [math.cos(a / 2), -math.sin(a / 2)],
            [math.sin(a / 2), math.cos(a / 2)],
        ]
    np.testing.assert_allclose(m, expected, atol=1e-15)


@pytest.mark.parametrize("kind", ("h", "x", "ry", "u", "ucg", "ucr"))
def test_block_array_is_lowered_once_and_read_only(kind):
    """``bind`` lowers a gate's 2x2 blocks from its parameters into four
    read-only entries: views of the H or X constant or of a ucg's blocks,
    and for a ucr (an Ry too) real cos and +-sin computed once per bind."""
    rng = np.random.default_rng(6)
    gate = {
        "h": lambda: g.h(0),
        "x": lambda: g.x(0),
        "ry": lambda: ry(0, rng.uniform(-math.pi, math.pi)),
        "u": lambda: g.one_qubit(0, random_unitary_2x2(rng)),
        "ucg": lambda: g.ucg((0, 1), 2, [random_unitary_2x2(rng) for _ in range(4)]),
        "ucr": lambda: g.ucr((0, 1), 2, rng.uniform(-math.pi, math.pi, size=4)),
    }[kind]()
    blocks = 1 << len(gate.selects)
    sv = StateVector(gate.target + 1)
    (step,), _ = sv.bind([gate])
    entries = step[2]
    assert len(entries) == 4 and all(e.size == blocks for e in entries)
    assert not any(e.flags.writeable for e in entries)
    if kind in ("ry", "ucr"):  # real, built for this bind, c shared by both diagonal entries
        assert all(e.dtype == np.float64 and e.flags.c_contiguous for e in entries)
        assert entries[0] is entries[3]
        np.testing.assert_array_equal(entries[1], -entries[2])
        (again,), _ = sv.bind([gate])
        assert all(np.array_equal(x, y) for x, y in zip(again[2], entries))
        assert again[2][0] is not entries[0]
    else:  # views of arrays already held, not copies
        held = {"h": g._H, "x": g._X}[kind] if kind in ("h", "x") else gate.params[0]
        assert all(e.dtype == np.complex128 and np.shares_memory(e, held) for e in entries)
    m = gate_matrix(gate, gate.target + 1)
    flat = [e.reshape(-1) for e in entries]
    for k in range(blocks):
        block = np.array([[flat[0][k], flat[1][k]], [flat[2][k], flat[3][k]]])
        np.testing.assert_allclose(block, m[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], atol=1e-15)
    # A swap has no parameters: a controlled one binds the X block, an
    # uncontrolled one no step at all.
    (cswap,), _ = StateVector(3).bind([controlled(g.swap(0, 1), 2)])
    assert all(np.shares_memory(e, g._X) for e in cswap[2])
    assert StateVector(2).bind([g.swap(0, 1)]) == ([], (1, 0))


def test_parameters_are_copied_and_compared_by_value():
    rng = np.random.default_rng(9)
    blocks = np.array([random_unitary_2x2(rng) for _ in range(4)])
    u = random_unitary_2x2(rng)
    gate, single = g.ucg((0, 1), 2, blocks), g.one_qubit(0, u)
    held = gate.params[0].copy()
    blocks[1, 0, 0] += 1.0
    u[0, 1] = 0.0
    assert np.array_equal(gate.params[0], held) and not gate.params[0].flags.writeable
    assert not single.params[0].flags.writeable and not np.array_equal(single.params[0][0], u)
    assert gate == g.ucg((0, 1), 2, list(held))
    assert gate != g.ucg((0, 1), 2, blocks)  # one entry differs
    assert gate != g.ucg((1, 0), 2, held) and gate != g.ucr((0, 1), 2, [0.0] * 4)
    with pytest.raises(TypeError):
        hash(gate)


def test_ucr_angles_are_one_read_only_array():
    source = [0.25, -1.5, 3.0, 0.0]
    gate = g.ucr((0, 1), 2, source)
    (angles,) = gate.params
    assert angles.shape == (4,) and angles.dtype == np.float64 and not angles.flags.writeable
    array_source = np.array(source)
    from_array = g.ucr((0, 1), 2, array_source)
    array_source[0] = 9.0  # copied on construction
    assert from_array == gate and from_array.params[0] is not array_source
    for nested in ([[0.25, -1.5], [3.0, 0.0]], np.zeros((2, 2)), [[0.25], [-1.5, 3.0, 0.0]], 0.5):
        with pytest.raises(ValueError):
            g.ucr((0, 1), 2, nested)


def test_gate_kind_is_checked_when_built():
    with pytest.raises(ValueError, match="unknown gate kind 'foo'"):
        g.Gate("foo", (0,))
    assert g.KINDS == ("h", "x", "swap", "ucg", "ucr")


def test_block_and_angle_counts_validated():
    with pytest.raises(ValueError):
        g.ucg((0, 1), 2, [np.eye(2)] * 3)
    with pytest.raises(ValueError):
        g.ucr((0,), 1, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        g.ucg((0,), 0, [np.eye(2)] * 2)  # duplicate qubit
    with pytest.raises(ValueError):
        g.swap(1, 1)


def test_swap_as_cnots_matrix_identity():
    composite = np.eye(4)
    for gate in swap_as_cnots(0, 1):
        composite = gate_matrix(gate, 2) @ composite
    np.testing.assert_array_equal(composite, gate_matrix(g.swap(0, 1), 2))
    with pytest.raises(ValueError):
        swap_as_cnots(2, 2)


def test_reflection_about_zero_matrix():
    for n in (1, 2, 3):
        m = gate_matrix(reflection_about_zero(tuple(range(n))), n)
        expected = -np.eye(2**n)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(m, expected, atol=0)


def test_inverse_round_trips_exactly():
    rng = np.random.default_rng(6)
    for label, gate in gate_menu(4, rng):
        assert inverse(inverse(gate)) == gate, label
        m = gate_matrix(gate, 4)
        mi = gate_matrix(inverse(gate), 4)
        np.testing.assert_allclose(mi @ m, np.eye(16), atol=1e-12, err_msg=label)


def test_self_inverse_gates():
    for gate in (g.h(0), g.x(0), g.cnot(0, 1), g.swap(0, 1)):
        assert inverse(gate) == gate


def test_inverse_of_self_inverse_ucg_is_the_gate():
    walk = g.ucg((0, 1), 2, [g._X, g._ID, g._ID, g._X])
    for gate in (walk, reflection_about_zero((0, 1, 2)), pauli_z(1)):
        assert inverse(gate) is gate
    rng = np.random.default_rng(8)
    u = g.ucg((0,), 1, [random_unitary_2x2(rng) for _ in range(2)])
    assert inverse(u) is not u
    np.testing.assert_array_equal(inverse(u).params[0], np.conj(u.params[0]).swapaxes(1, 2))


def test_controlled_folds_ucg_and_ucr():
    rng = np.random.default_rng(7)
    blocks = [random_unitary_2x2(rng) for _ in range(2)]
    base = g.ucg((1,), 2, blocks)
    wrapped = controlled(base, 0)
    m = gate_matrix(wrapped, 3)
    expected = np.eye(8, dtype=complex)
    expected[4:, 4:] = gate_matrix(base, 3)[:4, :4]  # qubit 0 = 1 half acts
    # build expectation independently: identity on the |0>* half, base on |1>*
    expected = np.block(
        [[np.eye(4), np.zeros((4, 4))], [np.zeros((4, 4)), _dense_on_low_qubits(base)]]
    )
    np.testing.assert_allclose(m, expected, atol=0)

    base_r = g.ucr((1,), 2, [0.4, 0.9])
    m = gate_matrix(controlled(base_r, 0), 3)
    expected = np.block(
        [[np.eye(4), np.zeros((4, 4))], [np.zeros((4, 4)), _dense_on_low_qubits(base_r)]]
    )
    np.testing.assert_allclose(m, expected, atol=1e-15)


def _dense_on_low_qubits(gate):
    """Dense matrix of a gate whose qubits are 1..k, written on qubits 0..k-1."""
    shifted = g.Gate(gate.kind, tuple(q - 1 for q in gate.qubits), gate.params)
    return gate_matrix(shifted, max(shifted.qubits) + 1)


def test_controlled_plain_gate_matches_projector_sum():
    rng = np.random.default_rng(8)
    u = random_unitary_2x2(rng)
    m = gate_matrix(controlled(g.one_qubit(1, u), 0), 2)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    np.testing.assert_allclose(m, np.kron(p0, np.eye(2)) + np.kron(p1, u), atol=0)
    m0 = gate_matrix(controlled(g.one_qubit(1, u), 0, value=0), 2)
    np.testing.assert_allclose(m0, np.kron(p0, u) + np.kron(p1, np.eye(2)), atol=0)
    assert g.one_qubit(1, u) == g.ucg((), 1, [u])  # a one-qubit unitary is a ucg with no selects


def test_gate_matrix_qubit_cap():
    with pytest.raises(ResourceLimitError):
        gate_matrix(g.h(0), 11)
    with pytest.raises(ValueError):
        gate_matrix(g.h(3), 2)
