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
leaf label down to depth ``h``, so every stored tree is full.  Loading parses
straight into the ``(n, 2^h)`` arrays of ``model.RandomForest``, after
checking ``n * 2^h`` against ``config.MAX_FOREST_SLOTS``; an early leaf
fills one contiguous range of leaf slots.  Unknown fields anywhere are
rejected.

``save_forest`` is canonical (fixed key order, numerically sorted indices,
shortest-round-trip floats), so equal forests serialize to identical bytes
and ``save(load(save(f))) == save(f)``.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .config import MAX_FOREST_SLOTS
from .exceptions import ForestFormatError
from .model import EQUALS, PREDICATE_KINDS, Attribute, InputObject, RandomForest


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


def _parse_predicate(raw, schema: tuple[Attribute, ...], where: str) -> tuple[int, int, float]:
    if not isinstance(raw, dict):
        raise ForestFormatError(f"{where}: expected an object")
    _require_keys(raw, ("kind", "attr", "threshold"), where)
    kind = raw["kind"]
    if kind not in PREDICATE_KINDS:
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
    return PREDICATE_KINDS.index(kind), attr, threshold


def _parse_tree(raw, h: int, schema: tuple[Attribute, ...], where: str, row: tuple[np.ndarray, ...]) -> None:
    """Parse one tree into its row views ``(kind, attribute, threshold,
    leaf)``, which start as pass-through nodes.  Walks the declared heap from
    the root, rejecting gaps and unreachable entries; a leaf at depth ``d``
    fills the ``2^(h - d)`` leaf slots below it."""
    if not isinstance(raw, dict):
        raise ForestFormatError(f"{where}: expected an object")
    _require_keys(raw, ("nodes", "leaves"), where)
    if not isinstance(raw["nodes"], dict) or not isinstance(raw["leaves"], dict):
        raise ForestFormatError(f"{where}: nodes and leaves must be objects")
    nodes: dict[int, tuple[int, int, float]] = {}
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

    kind, attribute, threshold, leaf = row
    reached: set[int] = set()
    stack = [1]
    while stack:
        j = stack.pop()
        reached.add(j)
        if j in leaves:
            below = h + 1 - j.bit_length()
            leaf[(j << below) - 2**h : ((j + 1) << below) - 2**h] = leaves[j]
        elif j in nodes:
            stack.extend((2 * j, 2 * j + 1))
        else:
            raise ForestFormatError(f"{where}: missing entry for index {j}")
    for j in sorted(set(nodes) | set(leaves)):
        if j not in reached:
            raise ForestFormatError(f"{where}: index {j} is unreachable from the root")
    if nodes:
        at = list(nodes)
        kind[at], attribute[at], threshold[at] = zip(*nodes.values())


def load_forest(text: str) -> RandomForest:
    """Parse a forest document straight into the forest arrays, padding short
    branches to full height."""
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
    if n > MAX_FOREST_SLOTS >> h:
        raise ForestFormatError(
            f"top level: n * 2^h must be <= {MAX_FOREST_SLOTS} (the forest arrays hold n * 2^h slots)"
        )
    schema = _parse_schema(doc["schema"], "schema")
    if not isinstance(doc["trees"], list):
        raise ForestFormatError("trees: expected a list")
    if len(doc["trees"]) != n:
        raise ForestFormatError(f"trees: n is {n} but {len(doc['trees'])} trees given")
    # Slots a declared node does not overwrite stay pass-through nodes: their
    # outcome never matters (both children carry the same label), and
    # attribute 1 always exists.
    arrays = (
        np.zeros((n, 2**h), dtype=np.int8),
        np.ones((n, 2**h), dtype=np.int32),
        np.zeros((n, 2**h)),
        np.empty((n, 2**h)),
    )
    for i, raw in enumerate(doc["trees"]):
        _parse_tree(raw, h, schema, f"trees[{i}]", tuple(a[i] for a in arrays))
    return RandomForest(schema, *arrays)


def save_forest(forest: RandomForest) -> str:
    """Serialize to the canonical byte-stable document."""
    schema = [
        {"kind": a.kind} if a.kind == "real" else {"kind": "discrete", "categories": a.categories}
        for a in forest.schema
    ]
    width = forest.leaf.shape[1]
    trees = []
    for kinds, attrs, thresholds, labels in zip(
        forest.kind.tolist(), forest.attribute.tolist(), forest.threshold.tolist(), forest.leaf.tolist()
    ):
        nodes = {
            str(j): {
                "kind": PREDICATE_KINDS[kinds[j]],
                "attr": attrs[j],
                "threshold": int(thresholds[j]) if kinds[j] == EQUALS else thresholds[j],
            }
            for j in range(1, width)
        }
        leaves = {str(width + j): y for j, y in enumerate(labels)}
        trees.append({"nodes": nodes, "leaves": leaves})
    doc = {"n": forest.n, "h": forest.height, "schema": schema, "trees": trees}
    return json.dumps(doc, indent=2) + "\n"


def forest_fingerprint(forest: RandomForest) -> str:
    """SHA-256 of the canonical document; stable identity for caching."""
    return hashlib.sha256(save_forest(forest).encode()).hexdigest()


def input_fingerprint(x: InputObject) -> str:
    """SHA-256 of the canonical value list."""
    return hashlib.sha256(",".join(repr(v) for v in x.values).encode()).hexdigest()
