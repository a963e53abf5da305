"""Reference checks for qrforest outputs.

Nothing here imports or reuses code from the package: the classical oracle
walks the forest document as declared (early leaves included, no padding) by
recursive descent, and the circuit oracle simulates a compiled gate list by
tensor contraction instead of the package's index-mask kernels.  Each check
returns a list of failure messages; an empty list means the output is right.
"""
from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-12
PHI_TOL = 1e-9


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class ForestDoc:
    """A forest document exactly as written, for recursive-descent answers."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.n, self.h = doc["n"], doc["h"]
        self.trees = [
            (
                {int(k): v for k, v in tree["nodes"].items()},
                {int(k): float(v) for k, v in tree["leaves"].items()},
            )
            for tree in doc["trees"]
        ]
        labels = [y for _, leaves in self.trees for y in leaves.values()]
        self.y_min, self.y_max = min(labels), max(labels)

    def _leaf(self, tree, x, j: int = 1) -> float:
        nodes, leaves = tree
        if j in leaves:
            return leaves[j]
        node = nodes[j]
        v = x[node["attr"] - 1]
        taken = v > node["threshold"] if node["kind"] == "threshold-greater" else v == node["threshold"]
        return self._leaf(tree, x, 2 * j + (1 if taken else 0))

    def forecast(self, x) -> float:
        return sum(self._leaf(t, x) for t in self.trees) / self.n

    def beta(self, x) -> float:
        lo, hi = self.y_min, self.y_max
        return sum(self._leaf(t, x) - lo for t in self.trees) / (self.n * (hi - lo))


def check_generated(text: str, n: int, h: int, schema: list[tuple[str, int]],
                    lo: float, hi: float) -> list[str]:
    """A `qrforest generate` document: full trees, predicates that fit the
    schema, labels inside the requested range."""
    doc = json.loads(text)
    errs = []
    want_schema = [{"kind": "real"} if k == "real" else {"kind": "discrete", "categories": c}
                   for k, c in schema]
    if doc.get("n") != n or doc.get("h") != h or doc.get("schema") != want_schema:
        errs.append("generate: header does not match the request")
        return errs
    node_keys = {str(j) for j in range(1, 2**h)}
    leaf_keys = {str(j) for j in range(2**h, 2 ** (h + 1))}
    if len(doc["trees"]) != n:
        errs.append("generate: wrong tree count")
    for i, tree in enumerate(doc["trees"]):
        if set(tree["nodes"]) != node_keys or set(tree["leaves"]) != leaf_keys:
            errs.append(f"generate: tree {i} is not a full heap of height {h}")
            break
        for node in tree["nodes"].values():
            kind, cats = schema[node["attr"] - 1]
            thr = node["threshold"]
            ok = (node["kind"] == "threshold-greater" and 0.0 <= thr < 1.0) if kind == "real" else (
                node["kind"] == "equals" and thr == int(thr) and 1 <= thr <= cats)
            if not ok:
                errs.append(f"generate: tree {i} has a predicate outside the schema: {node}")
                break
        if any(not lo <= y <= hi for y in tree["leaves"].values()):
            errs.append(f"generate: tree {i} has a label outside [{lo}, {hi}]")
    return errs


def check_classical(r: float, beta: float | None, forest: ForestDoc, x) -> list[str]:
    errs = []
    want_r, want_beta = forest.forecast(x), forest.beta(x)
    if not close(r, want_r):
        errs.append(f"classical R {r!r} != recursive descent {want_r!r}")
    if beta is None or not close(beta, want_beta):
        errs.append(f"classical beta {beta!r} != recursive descent {want_beta!r}")
    return errs


def error_bound(beta: float, t: int) -> float:
    b = min(1.0, max(0.0, beta))
    return 2.0 * math.pi * math.sqrt(b * (1.0 - b)) / t + math.pi**2 / t**2


def on_grid(estimate: float, t: int) -> bool:
    k = round(t * math.asin(math.sqrt(min(1.0, max(0.0, estimate)))) / math.pi)
    return any(abs(math.sin(math.pi * j / t) ** 2 - estimate) <= REL_TOL for j in (k - 1, k, k + 1))


def check_quantum(q: dict, forest: ForestDoc, t: int, reps: int) -> list[str]:
    """A boosted estimate: grid, median, raw-scale map, bound and the
    logical counts against their closed forms."""
    errs = []
    raw = q["raw_estimates"]
    if q["t"] != t or q["repetitions"] != reps or len(raw) != reps:
        errs.append(f"quantum: t/repetitions {q['t']}/{q['repetitions']}/{len(raw)} != {t}/{reps}")
        return errs
    off = [e for e in raw if not on_grid(e, t)]
    if off:
        errs.append(f"quantum: estimates off the sin^2(pi k/{t}) grid: {off[:3]}")
    beta = q["beta_estimate"]
    if beta != sorted(raw)[reps // 2]:
        errs.append("quantum: beta_estimate is not the median of the raw estimates")
    want_r = beta * (forest.y_max - forest.y_min) + forest.y_min
    if q["r_estimate"] is None or not close(q["r_estimate"], want_r):
        errs.append(f"quantum: r_estimate {q['r_estimate']!r} != beta*(y_max-y_min)+y_min {want_r!r}")
    if not close(q["error_bound"], error_bound(beta, t)):
        errs.append("quantum: error_bound does not match 2 pi sqrt(b(1-b))/t + pi^2/t^2")
    counts = (q["grover_calls"], q["u_invocations"], q["query_count"])
    want = (reps * (t - 1), reps * (2 * t - 1), forest.h * reps * (2 * t - 1))
    if counts != want:
        errs.append(f"quantum: grover/u/query counts {counts} != {want}")
    return errs


def within_bound(q: dict, forest: ForestDoc, x) -> bool:
    return abs(q["beta_estimate"] - forest.beta(x)) <= q["error_bound"]


# -- compiled-circuit oracle ------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _blocks(gate) -> np.ndarray:
    """One 2x2 block per select value, selects most significant first."""
    kind = gate.kind
    if kind == "h":
        return _H[None]
    if kind == "x":
        return _X[None]
    if kind == "ry":
        return _ry(gate.params[0])[None]
    if kind == "u":
        return np.array(gate.params[0], dtype=complex)[None]
    if kind == "ucg":
        return np.array(gate.params[0], dtype=complex)
    if kind == "ucr":
        return np.array([_ry(a) for a in gate.params[0]])
    raise ValueError(f"oracle has no rule for gate kind {kind!r}")


def apply_gate(psi: np.ndarray, gate) -> np.ndarray:
    """One gate on a state held as a (2,)*n tensor, qubit q on axis q."""
    n = psi.ndim
    if gate.kind == "swap":
        out = np.swapaxes(psi, *gate.qubits)
    else:
        axes = list(gate.qubits)  # selects..., target
        blocks = _blocks(gate)
        moved = np.moveaxis(psi, axes, range(len(axes))).reshape(len(blocks), 2, -1)
        out = np.einsum("kab,kbr->kar", blocks, moved).reshape((2,) * n)
        out = np.moveaxis(out, range(len(axes)), axes)
    if gate.controls:
        active = np.ones((2,) * n, dtype=bool)
        for q, v in gate.controls:
            idx = [slice(None)] * n
            idx[q] = 1 - v
            active[tuple(idx)] = False
        out = np.where(active, out, psi)
    return np.ascontiguousarray(out)


def phi_probability(num_qubits: int, gates, phi: int) -> float:
    """P(phi = 1) after running the gate list from |0...0>."""
    psi = np.zeros((2,) * num_qubits, dtype=complex)
    psi[(0,) * num_qubits] = 1.0
    for gate in gates:
        psi = apply_gate(psi, gate)
    return float(np.sum(np.abs(np.take(psi, 1, axis=phi)) ** 2))


def check_circuit(circuit, program_beta: float, forest: ForestDoc, x) -> list[str]:
    """The compiled forecasting operator puts beta on phi's |1> amplitude."""
    p = phi_probability(circuit.num_qubits, circuit.gates, circuit.register("phi").qubits[0])
    want = forest.beta(x)
    errs = []
    if abs(p - want) > PHI_TOL:
        errs.append(f"circuit: phi probability {p!r} != recursive-descent beta {want!r}")
    if abs(p - program_beta) > PHI_TOL:
        errs.append(f"circuit: phi probability {p!r} != beta_classical {program_beta!r}")
    return errs
