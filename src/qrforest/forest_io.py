"""Canonical forest documents: strict JSON parsing, deterministic output.

Document layout::

    {
      "n": 2,
      "h": 2,
      "schema": [{"kind": "real"}, {"kind": "discrete", "categories": 3}],
      "trees": [
        {"nodes":  {"1": {"kind": "threshold-greater", "attr": 1, "threshold": 0.5}, ...},
         "leaves": {"4": 0.25, ...}},
        ...
      ]
    }

Heap indices are serialized as decimal strings.  ``h`` is the forest height;
a tree may declare a leaf at an internal index (a branch shorter than ``h``),
in which case loading pads the branch with pass-through nodes that carry the
leaf label down to depth ``h``, so every stored tree is full.  Unknown fields
anywhere are rejected.

``save_forest`` is canonical (fixed key order, numerically sorted indices,
shortest-round-trip floats), so equal forests serialize to identical bytes
and ``save(load(save(f))) == save(f)``.
"""
from __future__ import annotations

import hashlib
import json
import math

from .config import MAX_FOREST_HEIGHT
from .exceptions import ForestFormatError
from .model import Attribute, DecisionTree, InputObject, Predicate, RandomForest

# Outcome of a pass-through node never matters (both children carry the same
# label); attribute 1 always exists.
_PASS_THROUGH = Predicate("threshold-greater", 1, 0.0)


def _require_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ForestFormatError(f"{where}: unknown field {unknown[0]!r}")
    missing = [k for k in allowed if k not in obj]
    if missing:
        raise ForestFormatError(f"{where}: missing field {missing[0]!r}")


def _parse_index(key: str, where: str) -> int:
    if not isinstance(key, str) or not key.isdigit() or (key != "0" and key.startswith("0")):
        raise ForestFormatError(f"{where}: index key {key!r} is not a decimal string")
    return int(key)


def _parse_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ForestFormatError(f"{where}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ForestFormatError(f"{where}: number must be finite")
    return v


def _parse_schema(raw, where: str) -> tuple[Attribute, ...]:
    if not isinstance(raw, list) or not raw:
        raise ForestFormatError(f"{where}: schema must be a non-empty list")
    out = []
    for i, entry in enumerate(raw):
        loc = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ForestFormatError(f"{loc}: expected an object")
        kind = entry.get("kind")
        if kind == "real":
            _require_keys(entry, ("kind",), loc)
            out.append(Attribute("real"))
        elif kind == "discrete":
            _require_keys(entry, ("kind", "categories"), loc)
            cats = entry["categories"]
            if isinstance(cats, bool) or not isinstance(cats, int) or cats < 1:
                raise ForestFormatError(f"{loc}: categories must be an integer >= 1")
            out.append(Attribute("discrete", cats))
        else:
            raise ForestFormatError(f"{loc}: kind must be 'real' or 'discrete'")
    return tuple(out)


def _parse_predicate(raw, schema: tuple[Attribute, ...], where: str) -> Predicate:
    if not isinstance(raw, dict):
        raise ForestFormatError(f"{where}: expected an object")
    _require_keys(raw, ("kind", "attr", "threshold"), where)
    kind = raw["kind"]
    if kind not in ("threshold-greater", "equals"):
        raise ForestFormatError(f"{where}: unknown predicate kind {kind!r}")
    attr = raw["attr"]
    if isinstance(attr, bool) or not isinstance(attr, int) or not 1 <= attr <= len(schema):
        raise ForestFormatError(f"{where}: attr must be an integer in [1, {len(schema)}]")
    threshold = _parse_number(raw["threshold"], f"{where}.threshold")
    if kind == "equals":
        a = schema[attr - 1]
        if a.kind != "discrete":
            raise ForestFormatError(f"{where}: equals predicate needs a discrete attribute")
        if threshold != int(threshold) or not 1 <= threshold <= a.categories:
            raise ForestFormatError(f"{where}: equals threshold must be a category in [1, {a.categories}]")
    return Predicate(kind, attr, threshold)


def _pad_tree(h: int, nodes: dict[int, Predicate], leaves: dict[int, float], where: str) -> DecisionTree:
    """Walk the declared heap from the root, padding early leaves down to
    depth ``h`` and rejecting gaps or unreachable entries."""
    full_nodes: dict[int, Predicate] = {}
    full_leaves: dict[int, float] = {}

    def fill(j: int, label: float) -> None:
        if j >= 2**h:
            full_leaves[j] = label
        else:
            full_nodes[j] = _PASS_THROUGH
            fill(2 * j, label)
            fill(2 * j + 1, label)

    reached: set[int] = set()
    stack = [1]
    while stack:
        j = stack.pop()
        reached.add(j)
        if j in leaves:
            fill(j, leaves[j])
        elif j in nodes:
            full_nodes[j] = nodes[j]
            stack.extend((2 * j, 2 * j + 1))
        else:
            raise ForestFormatError(f"{where}: missing entry for index {j}")
    for j in sorted(set(nodes) | set(leaves)):
        if j not in reached:
            raise ForestFormatError(f"{where}: index {j} is unreachable from the root")
    return DecisionTree(h, full_nodes, full_leaves)


def _parse_tree(raw, h: int, schema: tuple[Attribute, ...], where: str) -> DecisionTree:
    if not isinstance(raw, dict):
        raise ForestFormatError(f"{where}: expected an object")
    _require_keys(raw, ("nodes", "leaves"), where)
    if not isinstance(raw["nodes"], dict) or not isinstance(raw["leaves"], dict):
        raise ForestFormatError(f"{where}: nodes and leaves must be objects")
    nodes: dict[int, Predicate] = {}
    for key, value in raw["nodes"].items():
        loc = f"{where}.nodes[{key!r}]"
        j = _parse_index(key, loc)
        if not 1 <= j < 2**h:
            raise ForestFormatError(f"{loc}: node index out of range [1, {2**h - 1}]")
        nodes[j] = _parse_predicate(value, schema, loc)
    leaves: dict[int, float] = {}
    for key, value in raw["leaves"].items():
        loc = f"{where}.leaves[{key!r}]"
        j = _parse_index(key, loc)
        if not 1 <= j < 2 ** (h + 1):
            raise ForestFormatError(f"{loc}: leaf index out of range [1, {2**(h + 1) - 1}]")
        if j in nodes:
            raise ForestFormatError(f"{loc}: index {j} declared as both node and leaf")
        leaves[j] = _parse_number(value, loc)
    return _pad_tree(h, nodes, leaves, where)


def load_forest(text: str) -> RandomForest:
    """Parse a forest document, padding short branches to full height."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ForestFormatError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ForestFormatError("top level: expected an object")
    _require_keys(doc, ("n", "h", "schema", "trees"), "top level")
    n, h = doc["n"], doc["h"]
    for name, value in (("n", n), ("h", h)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ForestFormatError(f"top level: {name} must be an integer >= 1")
    if h > MAX_FOREST_HEIGHT:
        raise ForestFormatError(f"top level: h must be <= {MAX_FOREST_HEIGHT} (padding fills 2^h leaves)")
    schema = _parse_schema(doc["schema"], "schema")
    if not isinstance(doc["trees"], list):
        raise ForestFormatError("trees: expected a list")
    if len(doc["trees"]) != n:
        raise ForestFormatError(f"trees: n is {n} but {len(doc['trees'])} trees given")
    trees = tuple(
        _parse_tree(raw, h, schema, f"trees[{i}]") for i, raw in enumerate(doc["trees"])
    )
    return RandomForest(trees, schema)


def save_forest(forest: RandomForest) -> str:
    """Serialize to the canonical byte-stable document."""
    schema = [
        {"kind": a.kind} if a.kind == "real" else {"kind": "discrete", "categories": a.categories}
        for a in forest.schema
    ]
    trees = []
    for tree in forest.trees:
        nodes = {
            str(j): {
                "kind": p.kind,
                "attr": p.attribute,
                "threshold": int(p.threshold) if p.kind == "equals" else p.threshold,
            }
            for j, p in sorted(tree.nodes.items())
        }
        leaves = {str(j): y for j, y in sorted(tree.leaves.items())}
        trees.append({"nodes": nodes, "leaves": leaves})
    doc = {"n": forest.n, "h": forest.height, "schema": schema, "trees": trees}
    return json.dumps(doc, indent=2) + "\n"


def forest_fingerprint(forest: RandomForest) -> str:
    """SHA-256 of the canonical document; stable identity for caching."""
    return hashlib.sha256(save_forest(forest).encode()).hexdigest()


def input_fingerprint(x: InputObject) -> str:
    """SHA-256 of the canonical value list."""
    return hashlib.sha256(",".join(repr(v) for v in x.values).encode()).hexdigest()
