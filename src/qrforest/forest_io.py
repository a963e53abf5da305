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
rejected; ``model.Attribute`` alone checks a schema entry's kind and
category count, and its message is prefixed with the entry's location.

The whole document is checked and filled in bulk by ``_fill_forest``, with
one pass per field over the keys and values of every tree: index keys read
from their joined ASCII digits, exact field sets and types, one finite-number
array, per-schema category lookups, reachability by the parent rule on one
``(n, 2^(h+1))`` heap of declarations, and array writes at ``[row, slot]``.
The per-entry ``_parse_tree`` makes the same checks one entry at a time; it
is the only code that words an error.  Only when a bulk check fails does
``load_forest`` run it, tree by tree in order, so the first bad tree raises
and a valid document never reaches it.

``save_forest`` is canonical (fixed key order, numerically sorted indices,
shortest-round-trip floats), so equal forests serialize to identical bytes
and ``save(load(save(f))) == save(f)``.  The bytes are those of
``json.dumps(doc, indent=2) + "\n"``: json writes the ``n``/``h``/``schema``
head, and the trees are joined from per-node ``%`` templates (``%r`` is
json's ``float.__repr__``; every saved number is finite).
"""
from __future__ import annotations

import json
import math
import operator
import sys
from itertools import chain

import numpy as np

from .config import MAX_FOREST_SLOTS
from .exceptions import ForestFormatError
from .model import EQUALS, PREDICATE_KINDS, Attribute, RandomForest


def _require_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ForestFormatError(f"{where}: unknown field {unknown[0]!r}")
    missing = [k for k in allowed if k not in obj]
    if missing:
        raise ForestFormatError(f"{where}: missing field {missing[0]!r}")


def _parse_index(key: str, where: str) -> int:
    decimal = isinstance(key, str) and key.isascii() and key.isdigit()  # isdigit alone admits "²"
    if not decimal or (key != "0" and key.startswith("0")):
        raise ForestFormatError(f"{where}: index key {key!r} is not a decimal string")
    try:
        return int(key)
    except ValueError:  # more digits than int() converts; far beyond any index range
        raise ForestFormatError(f"{where}: index key of {len(key)} digits is out of range") from None


def _parse_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ForestFormatError(f"{where}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the double range
        v = math.inf
    if not math.isfinite(v):
        raise ForestFormatError(f"{where}: number must be finite")
    return v


def _parse_schema(raw, where: str) -> tuple[Attribute, ...]:
    if not isinstance(raw, list) or not raw:
        raise ForestFormatError(f"{where}: expected a non-empty list")
    out = []
    for i, entry in enumerate(raw):
        loc = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ForestFormatError(f"{loc}: expected an object")
        _require_keys(entry, ("kind", "categories") if entry.get("kind") == "discrete" else ("kind",), loc)
        try:  # Attribute owns the kind and category-count rules
            out.append(Attribute(entry["kind"], entry.get("categories")))
        except ValueError as e:
            raise ForestFormatError(f"{loc}: {e}") from None
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
        if not a.admits(threshold):
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


_KIND_CODES = {k: i for i, k in enumerate(PREDICATE_KINDS)}


def _canonical_indices(keys: list[str], end: int) -> np.ndarray | None:
    """The keys as heap indices, or None unless every key is the canonical
    decimal string of an index in ``[1, end)``: non-empty ASCII digits with
    no leading zero (so at least 1), read from their joined bytes."""
    if not keys:
        return np.zeros(0, dtype=np.intp)
    joined = "".join(keys)
    lengths = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    if not joined.isascii() or lengths.min() < 1 or lengths.max() > len(str(end - 1)):
        return None
    digits = np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - np.uint8(48)  # wraps below "0"
    ends = np.cumsum(lengths)
    if not (digits < 10).all() or not digits[ends - lengths].all():
        return None
    at = np.zeros(len(keys), dtype=np.intp)
    for p in range(lengths.max()):
        # The digit p places before each key's end; for a shorter key the
        # index falls in an earlier key (or wraps), and the mask drops it.
        at += np.where(lengths > p, digits[ends - 1 - p], 0).astype(np.intp) * 10**p
    return at if at.max() < end else None


def _fill_forest(trees: list, h: int, categories: np.ndarray, arrays: tuple[np.ndarray, ...]) -> bool:
    """Check every tree as ``_parse_tree`` does, with one pass per field over
    the whole document, and fill the forest ``arrays`` ``(kind, attribute,
    threshold, leaf)``.  Returns False, having written nothing, when any check
    fails.  ``categories[a]`` is the category count of attribute ``a``, 0 for
    a real one."""
    if not set(map(type, trees)) <= {dict} or any(t.keys() != {"nodes", "leaves"} for t in trees):
        return False
    nodes = list(map(operator.itemgetter("nodes"), trees))
    leaves = list(map(operator.itemgetter("leaves"), trees))
    if not set(map(type, nodes)) | set(map(type, leaves)) <= {dict}:
        return False
    node_at = _canonical_indices(list(chain.from_iterable(nodes)), 1 << h)
    leaf_at = _canonical_indices(list(chain.from_iterable(leaves)), 2 << h)
    if node_at is None or leaf_at is None:
        return False
    predicates = list(chain.from_iterable(map(dict.values, nodes)))
    try:
        # A three-field object holding all three names has exactly these
        # fields; len and itemgetter raise TypeError on any other JSON value.
        if not set(map(len, predicates)) <= {3}:
            return False
        kinds = map(operator.itemgetter("kind"), predicates)
        codes = np.fromiter(map(_KIND_CODES.__getitem__, kinds), dtype=np.int8, count=len(predicates))
        attrs = list(map(operator.itemgetter("attr"), predicates))
        thresholds = list(map(operator.itemgetter("threshold"), predicates))
    except (KeyError, TypeError):  # a missing field, or an unknown or unhashable kind
        return False
    labels = list(chain.from_iterable(map(dict.values, leaves)))
    if not set(map(type, attrs)) <= {int}:
        return False
    if not set(map(type, thresholds)) | set(map(type, labels)) <= {int, float}:
        return False
    try:
        attrs = np.array(attrs, dtype=np.int64)
        thresholds = np.array(thresholds, dtype=np.float64)
        labels = np.array(labels, dtype=np.float64)
    except OverflowError:  # an integer beyond int64, or beyond the double range
        return False
    if len(attrs) and not 1 <= attrs.min() <= attrs.max() < len(categories):
        return False
    if not (np.isfinite(thresholds).all() and np.isfinite(labels).all()):
        return False
    equals = codes == EQUALS
    t, c = thresholds[equals], categories[attrs[equals]]
    if not ((t == np.floor(t)) & (1 <= t) & (t <= c)).all():
        return False
    # Heaps of declarations (0 none, 1 node, 2 leaf), one row per tree.  A
    # tree is a valid walk from the root exactly when the root is declared,
    # every declared index's parent is a node and every node's children are
    # declared.  An index declared as both ends up a leaf here, and its
    # declared children then fail the parent rule.
    rows = np.arange(len(trees))
    node_row = np.repeat(rows, list(map(len, nodes)))
    leaf_row = np.repeat(rows, list(map(len, leaves)))
    heap = np.zeros((len(trees), 2 << h), dtype=np.int8)
    heap[:, 0] = 1  # stands in as the root's parent
    heap[node_row, node_at] = 1
    heap[leaf_row, leaf_at] = 2
    if (
        not heap[:, 1].all()
        or (heap[node_row, node_at >> 1] != 1).any()
        or (heap[leaf_row, leaf_at >> 1] != 1).any()
        or not heap[node_row, node_at << 1].all()
        or not heap[node_row, (node_at << 1) | 1].all()
    ):
        return False

    kind, attribute, threshold, leaf = arrays
    kind[node_row, node_at] = codes
    attribute[node_row, node_at] = attrs
    threshold[node_row, node_at] = thresholds
    # A leaf at depth d covers 2^(h - d) leaf slots from its first slot; the
    # leaves of valid trees tile every row, so their labels in (row, slot)
    # order, that is in order of the first slot's flat index, fill the array.
    below = h + 1 - np.frexp(leaf_at)[1]
    order = np.argsort((leaf_row << h) + (leaf_at << below) - (1 << h))
    leaf[:] = np.repeat(labels[order], 1 << below[order]).reshape(leaf.shape)
    return True


def load_forest(text: str) -> RandomForest:
    """Parse a forest document straight into the forest arrays, padding short
    branches to full height."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ForestFormatError(f"not valid JSON: {e}") from None
    except ValueError:  # an integer literal with more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise ForestFormatError(f"not valid JSON: a number has more than {limit} digits") from None
    except RecursionError:
        raise ForestFormatError("not valid JSON: nested too deeply") from None
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
    categories = np.array([0] + [a.categories or 0 for a in schema])
    if not _fill_forest(doc["trees"], h, categories, arrays):
        for i, raw in enumerate(doc["trees"]):
            _parse_tree(raw, h, schema, f"trees[{i}]", tuple(a[i] for a in arrays))
    try:
        return RandomForest(schema, *arrays)
    except ValueError as e:  # labels too large to sum
        raise ForestFormatError(f"trees: {e}") from None


# The canonical document is ``json.dumps(doc, indent=2)``: json writes the
# head, and each tree is filled into these templates.  A node template is
# picked by kind code; an equals threshold is written as an integer (``%d``
# truncates as ``int`` does) and any other number as json writes a finite
# float (``%r``).
_NODE_TEMPLATES = tuple(
    '        "%%d": {\n          "kind": "%s",\n          "attr": %%d,\n          "threshold": %s\n        }'
    % (k, "%d" if k == "equals" else "%r")
    for k in PREDICATE_KINDS
)
_LEAF_TEMPLATE = '        "%d": %r'
_TREE_TEMPLATE = '    {\n      "nodes": {\n%s\n      },\n      "leaves": {\n%s\n      }\n    }'


def save_forest(forest: RandomForest) -> str:
    """Serialize to the canonical byte-stable document."""
    schema = [
        {"kind": a.kind} if a.kind == "real" else {"kind": "discrete", "categories": a.categories}
        for a in forest.schema
    ]
    head = json.dumps({"n": forest.n, "h": forest.height, "schema": schema}, indent=2)
    width = forest.leaf.shape[1]
    # Each tree is one ``%`` call: its node templates, picked by kind, and the
    # leaf templates, filled from one flat argument list holding (index,
    # attr, threshold) per node up to ``end`` and then (index, label) per leaf.
    leaves = ",\n".join([_LEAF_TEMPLATE] * width)
    end = 3 * (width - 1)
    args = [None] * (end + 2 * width)
    args[0:end:3] = range(1, width)
    args[end::2] = range(width, 2 * width)
    trees = []
    for kinds, attrs, thresholds, labels in zip(
        forest.kind.tolist(), forest.attribute.tolist(), forest.threshold.tolist(), forest.leaf.tolist()
    ):
        args[1:end:3] = attrs[1:]
        args[2:end:3] = thresholds[1:]
        args[end + 1 :: 2] = labels
        template = _TREE_TEMPLATE % (",\n".join(map(_NODE_TEMPLATES.__getitem__, kinds[1:])), leaves)
        trees.append(template % tuple(args))
    return head[: -len("\n}")] + ',\n  "trees": [\n' + ",\n".join(trees) + "\n  ]\n}\n"
