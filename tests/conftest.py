import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from qrforest import gates as g
from qrforest import qae
from qrforest.model import (
    Attribute,
    InputObject,
    RandomForest,
    generate_random_forest,
    generate_random_input,
)
from qrforest.reference import reference_forest, reference_input

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
    """For one test, memoize ``qae.PhaseEstimation`` by ``(id(circuit), t)``.
    A statistical test that draws hundreds of seeded estimates from one
    circuit then simulates its distribution once, while every draw still goes
    through the real ``estimate_with_boosting`` and ``sample_outcomes``.  The
    circuit is kept with its engine, so its id cannot be reused."""
    built = {}

    def engine(circuit, t):
        key = (id(circuit), t)
        if key not in built:
            built[key] = (circuit, real(circuit, t))
        return built[key][1]

    real = qae.PhaseEstimation
    monkeypatch.setattr(qae, "PhaseEstimation", engine)
    return built


def random_instance(n, h, seed, schema=MIXED_SCHEMA, value_range=(-1.0, 3.0)):
    """Seeded (forest, input) pair over a schema mixing attribute kinds."""
    forest = generate_random_forest(n, h, schema, value_range, seed)
    return forest, generate_random_input(schema, seed + 10_000)


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


def random_unitary_2x2(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))


def gate_menu(num_qubits, rng):
    """One randomly parameterized gate of every kind, on random qubits, plus
    controlled and select-order variants (needs ``num_qubits >= 3``)."""

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
        ("ry", g.ry(q1, float(rng.uniform(-2 * np.pi, 2 * np.pi)))),
        ("u", g.one_qubit(q1, random_unitary_2x2(rng))),
        ("cnot", g.cnot(c1, t1)),
        ("anti-controlled-x", g.Gate("x", (t1,), controls=((c1, 0),))),
        ("swap", g.swap(a2, b2)),
        ("controlled-swap", g.Gate("swap", (csa, csb), controls=((cs, 1),))),
        ("ucg", g.ucg(sel[:-1], sel[-1], [random_unitary_2x2(rng) for _ in range(4)])),
        ("ucr", g.ucr(sel[:-1], sel[-1], rng.uniform(-np.pi, np.pi, size=4))),
        ("reflection", g.reflection_about_zero(tuple(range(num_qubits)))),
        ("z", g.pauli_z(q1)),
        ("controlled-ucg", replace(g.ucg(tuple(csel), ct, blocks(csel)), controls=((cc0, 0), (cc1, 1)))),
        ("controlled-ucr", replace(
            g.ucr(tuple(csel), ct, rng.uniform(-np.pi, np.pi, size=2 ** len(csel))),
            controls=((cc0, 1), (cc1, 0)),
        )),
        ("ucg-descending-selects", g.ucg(dsel, dt, blocks(dsel))),
        ("mixed-controlled-x", g.Gate("x", (xt,), controls=((x0, 0), (x1, 1)))),
    ]
    return menu


def controlled(gate, qubit, value=1):
    """Same gate, applied only when ``qubit`` has the given value; the dense
    textbook phase-estimation oracle builds its controlled Grover powers
    from it, so it lives here, apart from the engine.

    For ucg/ucr the control folds into the select register (new most
    significant select), padding the inactive half with identity blocks.
    """
    if gate.kind == "ucg":
        (blocks,) = gate.params
        pad = np.broadcast_to(g._ID, blocks.shape)
        new = np.concatenate((blocks, pad) if value == 0 else (pad, blocks))
        return g.ucg((qubit, *gate.selects), gate.target, new)
    if gate.kind == "ucr":
        (angles,) = gate.params
        pad = (0.0,) * len(angles)
        new = angles + pad if value == 0 else pad + angles
        return g.ucr((qubit, *gate.selects), gate.target, new)
    return g.Gate(gate.kind, gate.qubits, gate.params, gate.controls + ((qubit, value),))


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


__all__ = [
    "MIXED_SCHEMA",
    "random_instance",
    "two_leaf_forest",
    "controlled",
    "forest_documents",
    "document_inputs",
    "random_statevector",
    "mean_forecast_oracle",
    "recursive_walk_oracle",
    "reference_forest",
    "reference_input",
    "InputObject",
]
