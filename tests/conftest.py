import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from qrforest import gates as g
from qrforest import qae
from qrforest.exceptions import ResourceLimitError
from qrforest.model import EQUALS, Attribute, InputObject, RandomForest, generate_random_forest
from qrforest.reference import reference_forest, reference_input
from qrforest.statevector import StateVector

MIXED_SCHEMA = (
    Attribute("real"),
    Attribute("discrete", 2),
    Attribute("discrete", 3),
    Attribute("real"),
)


@pytest.fixture
def reference():
    return reference_forest(), reference_input()


@pytest.fixture
def shared_engines(monkeypatch):
    """For one test, memoize ``qae.compile_forest_op`` by ``(id(forest), x)``
    and ``qae.PhaseEstimation`` by ``(id(circuit), t)``.  A statistical test
    that draws hundreds of seeded estimates for one forest and input then
    compiles it and simulates its distribution once, while every draw still
    goes through the real ``run_forecast`` and ``sample_outcomes`` and their
    checks.  Each forest and circuit is kept with what was built from it, so
    its id cannot be reused."""
    built = {}

    def memo(make, owner, arg):
        key = (id(owner), arg)
        if key not in built:
            built[key] = (owner, make(owner, arg))
        return built[key][1]

    compile_op, engine = qae.compile_forest_op, qae.PhaseEstimation
    monkeypatch.setattr(qae, "compile_forest_op", lambda forest, x: memo(compile_op, forest, x))
    monkeypatch.setattr(qae, "PhaseEstimation", lambda circuit, t: memo(engine, circuit, t))
    return built


def generate_random_input(schema, seed):
    """Random input conforming to the schema (reals in [0, 1))."""
    rng = np.random.default_rng(seed)
    return InputObject(tuple(
        float(rng.random()) if a.kind == "real" else float(rng.integers(1, a.categories + 1)) for a in schema
    ))


def random_instance(n, h, seed, schema=MIXED_SCHEMA, value_range=(-1.0, 3.0)):
    """Seeded (forest, input) pair over a schema mixing attribute kinds."""
    forest = generate_random_forest(n, h, schema, value_range, seed)
    return forest, generate_random_input(schema, seed + 10_000)


def per_call_forest(n, h, schema, value_range, seed):
    """The generator as one numpy call per draw: the reference that
    ``generate_random_forest``'s replay of raw words must match bit for
    bit."""
    lo, hi = value_range
    rng = np.random.default_rng(seed)
    kind = np.zeros((n, 2**h), dtype=np.int8)
    attribute = np.ones((n, 2**h), dtype=np.int32)
    threshold = np.zeros((n, 2**h))
    leaf = np.empty((n, 2**h))
    for i in range(n):
        for j in range(1, 2**h):
            a = int(rng.integers(0, len(schema)))
            attribute[i, j] = a + 1
            if schema[a].kind == "real":
                threshold[i, j] = rng.random()
            else:
                kind[i, j] = EQUALS
                threshold[i, j] = rng.integers(1, schema[a].categories + 1)
        leaf[i] = lo + (hi - lo) * rng.random(2**h)
    return RandomForest(tuple(schema), kind, attribute, threshold, leaf)


def two_leaf_forest(*label_pairs, threshold=0.5):
    """Height-1 forest over one real attribute: tree ``i`` tests
    ``x > threshold`` and has leaves ``label_pairs[i]`` = (false, true)."""
    n = len(label_pairs)
    return RandomForest(
        (Attribute("real"),),
        kind=[[0, 0]] * n,
        attribute=[[1, 1]] * n,
        threshold=[[0.0, threshold]] * n,
        leaf=list(label_pairs),
    )


def random_statevector(num_qubits, rng):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def ry(q, angle):
    """An Ry rotation: a ucr with no selects."""
    return g.ucr((), q, (angle,))


def random_unitary_2x2(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))


def gate_menu(num_qubits, rng):
    """One randomly parameterized gate of every kind, on random qubits, plus
    controlled variants in their ucg/ucr form and select-order variants
    (needs ``num_qubits >= 3``)."""

    def pick(k):
        return tuple(int(q) for q in rng.choice(num_qubits, size=k, replace=False))

    (q1,) = pick(1)
    c1, t1 = pick(2)
    a2, b2 = pick(2)
    cs, csa, csb = pick(3)
    sel = pick(3)
    cc0, cc1, *csel, ct = pick(min(num_qubits, 4))  # one select, or none on three qubits
    *dsel, dt = pick(min(num_qubits, 4))
    dsel = tuple(sorted(dsel, reverse=True))  # three selects, or two on three qubits
    x0, x1, xt = pick(3)

    def blocks(selects):
        return [random_unitary_2x2(rng) for _ in range(2 ** len(selects))]

    menu = [
        ("h", g.h(q1)),
        ("x", g.x(q1)),
        ("ry", ry(q1, float(rng.uniform(-2 * np.pi, 2 * np.pi)))),
        ("u", g.one_qubit(q1, random_unitary_2x2(rng))),
        ("cnot", g.cnot(c1, t1)),
        ("anti-controlled-x", g.ucg((c1,), t1, [_X, _ID])),
        ("swap", g.swap(a2, b2)),
        ("toffoli", g.ucg((cs, csa), csb, [_ID, _ID, _ID, _X])),
        ("ucg", g.ucg(sel[:-1], sel[-1], [random_unitary_2x2(rng) for _ in range(4)])),
        ("ucr", g.ucr(sel[:-1], sel[-1], rng.uniform(-np.pi, np.pi, size=4))),
        ("reflection", reflection_about_zero(tuple(range(num_qubits)))),
        ("z", pauli_z(q1)),
        ("controlled-ucg", controlled(controlled(g.ucg(tuple(csel), ct, blocks(csel)), cc1, 1), cc0, 0)),
        ("controlled-ucr", controlled(
            controlled(g.ucr(tuple(csel), ct, rng.uniform(-np.pi, np.pi, size=2 ** len(csel))), cc1, 0),
            cc0,
            1,
        )),
        ("ucg-descending-selects", g.ucg(dsel, dt, blocks(dsel))),
        ("mixed-controlled-x", g.ucg((x0, x1), xt, [_ID, _X, _ID, _ID])),
    ]
    return menu


def basis_state(num_qubits, index):
    """The basis state ``|index>`` on ``num_qubits`` qubits."""
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def probability(sv, qubits, value):
    """Exact marginal probability that the listed qubits (most significant
    first) of ``sv`` read out as ``value``.  No state change."""
    qubits = tuple(qubits)
    if not 0 <= value < (1 << len(qubits)):
        raise ValueError(f"value {value} out of range for {len(qubits)} qubits")
    at = [slice(None)] * sv.num_qubits
    for pos, q in enumerate(qubits):
        at[q] = (value >> (len(qubits) - 1 - pos)) & 1
    view = sv.amplitudes.reshape((2,) * sv.num_qubits)[(*at, ...)]
    return float(np.sum(np.abs(view) ** 2))


def norm(sv):
    return float(np.linalg.norm(sv.amplitudes))


def check_norm(sv, atol=1e-10):
    if abs(norm(sv) - 1.0) > atol:
        raise ValueError(f"state norm drifted to {norm(sv)!r}")


# Largest register for which the dense oracle builds a matrix.
MAX_DENSE_QUBITS = 10

_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]])
_ID = np.eye(2)
_Z = np.diag([1, -1])
_NEG_ID = -_ID


def _ry_block(angle):
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return ((c, -s), (s, c))


def _block_for(gate, select_value):
    if gate.kind == "h":
        return _H
    if gate.kind == "x":
        return _X
    if gate.kind == "ucg":
        return gate.params[0][select_value]
    if gate.kind == "ucr":
        return _ry_block(gate.params[0][select_value])
    raise ValueError(f"no block form for kind {gate.kind!r}")


def gate_matrix(gate, num_qubits=None):
    """Dense unitary of the gate on ``num_qubits`` qubits, the oracle the
    simulator's view kernel is tested against: built column by column from
    the gate's definition using only index arithmetic."""
    if num_qubits is None:
        num_qubits = max(gate.qubits) + 1
    if num_qubits > MAX_DENSE_QUBITS:
        raise ResourceLimitError(f"dense matrix capped at {MAX_DENSE_QUBITS} qubits")
    if any(q >= num_qubits for q in gate.qubits):
        raise ValueError("gate references a qubit outside the register")

    def bit(i, q):
        return (i >> (num_qubits - 1 - q)) & 1

    dim = 1 << num_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if gate.kind == "swap":
            a, b = gate.qubits
            if bit(i, a) == bit(i, b):
                m[i, i] = 1.0
            else:
                m[i ^ (1 << (num_qubits - 1 - a)) ^ (1 << (num_qubits - 1 - b)), i] = 1.0
            continue
        k = 0
        for q in gate.selects:
            k = (k << 1) | bit(i, q)
        block = _block_for(gate, k)
        t = gate.target
        tmask = 1 << (num_qubits - 1 - t)
        b = bit(i, t)
        m[i & ~tmask, i] += block[0][b]
        m[i | tmask, i] += block[1][b]
    return m


def swap_as_cnots(a, b):
    """SWAP(a, b) as its standard 3-CNOT expansion."""
    if a == b:
        raise ValueError("swap needs two distinct qubits")
    return [g.cnot(a, b), g.cnot(b, a), g.cnot(a, b)]


def controlled(gate, qubit, value=1):
    """Same gate, applied only when ``qubit`` has the given value, as a
    ucg or ucr: gates carry no plain controls.

    The control folds into the select register (new most significant
    select), padding the inactive half with identity blocks (zero angles);
    an h or x folds in its one-select ucg form.  A swap is refused: the
    kernel only relabels swaps, so a controlled one has no form.
    """
    if gate.kind == "swap":
        raise ValueError("a swap has no controlled form")
    if gate.kind == "ucr":
        (angles,) = gate.params
        pad = np.zeros_like(angles)
        new = np.concatenate((angles, pad) if value == 0 else (pad, angles))
        return g.ucr((qubit, *gate.selects), gate.target, new)
    blocks = gate.params[0] if gate.kind == "ucg" else _block_for(gate, 0)[None]
    pad = np.broadcast_to(_ID, blocks.shape)
    new = np.concatenate((blocks, pad) if value == 0 else (pad, blocks))
    return g.ucg((qubit, *gate.selects), gate.target, new)


def inverse(gate):
    """Inverse gate: ucg conjugate-transposes each block (and is returned
    itself when that changes no block, as for X/I and Z/-I blocks), ucr
    negates its angles, the rest are self-inverse."""
    if gate.kind == "ucg":
        (blocks,) = gate.params
        dagger = np.conjugate(blocks.swapaxes(1, 2))
        if np.array_equal(dagger, blocks):
            return gate
        return g.ucg(gate.selects, gate.target, dagger)
    if gate.kind == "ucr":
        (angles,) = gate.params
        return g.ucr(gate.selects, gate.target, -angles)
    return gate  # h, x and swap are involutions


def compile_inverse(circuit):
    """Gatewise inverse in reverse order, over the same registers: the
    textbook oracle's U^-1, apart from the engine's inverted steps."""
    return replace(circuit, gates=tuple(inverse(gate) for gate in reversed(circuit.gates)))


def pauli_z(q):
    """Z as a ucg with no selects."""
    return g.ucg((), q, [_Z])


def build_V(circuit):
    """The textbook oracle's V: a Z on phi, the reflection I - 2P that marks
    phi = 1.  The engine flips the signs of the odd amplitudes instead."""
    return (pauli_z(circuit.register("phi").qubits[0]),)


def reflection_about_zero(qubits):
    """The reflection 2|0..0><0..0| - I on the given qubits (as one ucg).
    The engine negates every amplitude but index 0's instead."""
    if not qubits:
        raise ValueError("reflection needs at least one qubit")
    rest = np.broadcast_to(_NEG_ID, (2 ** (len(qubits) - 1) - 1, 2, 2))
    return g.ucg(tuple(qubits[:-1]), qubits[-1], np.concatenate((_Z[None], rest)))


def build_D(circuit):
    """The textbook oracle's D, the reflection about the prepared state:
    U (2|0><0| - I) U^-1, applied right to left as a gate list."""
    inv = compile_inverse(circuit)
    refl = reflection_about_zero(tuple(range(circuit.num_qubits)))
    return inv.gates + (refl,) + circuit.gates


def grover_iterate(circuit):
    """One application of Q = D V as a gate list (V first in gate order)."""
    return build_V(circuit) + build_D(circuit)


def recursive_walk_oracle(text, x):
    """Per tree, the (leaf index, label) reached by recursive descent of the
    forest document as declared: early leaves are not padded, and the
    predicates are compared here, not by the package."""
    def descend(tree, j):
        if str(j) in tree["leaves"]:
            return j, float(tree["leaves"][str(j)])
        node = tree["nodes"][str(j)]
        v = x.values[node["attr"] - 1]
        if node["kind"] == "threshold-greater":
            taken = v > node["threshold"]
        else:
            taken = v == node["threshold"]
        return descend(tree, 2 * j + (1 if taken else 0))

    return [descend(tree, 1) for tree in json.loads(text)["trees"]]


def mean_forecast_oracle(text, x):
    """Independent forecast: per-tree recursive descent, then sum/divide."""
    labels = [label for _, label in recursive_walk_oracle(text, x)]
    return sum(labels) / len(labels)


_SCHEMA_ENTRIES = ({"kind": "real"}, {"kind": "discrete", "categories": 2}, {"kind": "discrete", "categories": 3})
_REALS = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.floats(0.0, 3.0))


@st.composite
def forest_documents(draw, max_h=4):
    """Forest document with n in {1, 2, 4}, h <= max_h, a mixed schema and
    early leaves (each internal position is a leaf with probability 1/4)."""
    n = draw(st.sampled_from((1, 2, 4)))
    h = draw(st.integers(1, max_h))
    schema = [dict(a) for a in draw(st.lists(st.sampled_from(_SCHEMA_ENTRIES), min_size=1, max_size=4))]
    trees = []
    for _ in range(n):
        nodes, leaves, stack = {}, {}, [1]
        while stack:
            j = stack.pop()
            if j >= 2**h or draw(st.integers(0, 3)) == 0:
                leaves[str(j)] = draw(st.floats(-4.0, 4.0))
                continue
            a = draw(st.integers(1, len(schema)))
            cats = schema[a - 1].get("categories")
            if cats and draw(st.booleans()):
                nodes[str(j)] = {"kind": "equals", "attr": a, "threshold": draw(st.integers(1, cats))}
            else:
                nodes[str(j)] = {"kind": "threshold-greater", "attr": a, "threshold": draw(_REALS)}
            stack += [2 * j, 2 * j + 1]
        trees.append({"nodes": nodes, "leaves": leaves})
    return {"n": n, "h": h, "schema": schema, "trees": trees}


@st.composite
def document_inputs(draw, doc):
    """An input that conforms to the document's schema."""
    return InputObject(tuple(
        float(draw(st.integers(1, a["categories"]))) if a["kind"] == "discrete" else draw(_REALS)
        for a in doc["schema"]
    ))

