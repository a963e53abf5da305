"""Trained regression forests and their exact classical evaluation.

A decision tree is stored as a full binary heap of fixed depth: internal
nodes occupy indices ``1 .. 2^h - 1`` (root = 1, children of ``j`` are
``2j`` for a false predicate and ``2j + 1`` for a true one) and leaves
occupy ``2^h .. 2^(h+1) - 1``.  Walking a tree is therefore ``h`` rounds of
``j <- 2j + outcome``.  Trees of non-uniform depth are padded to this shape
at load time (see ``forest_io``).

The forest forecast for an input is the mean of the per-tree leaf labels.
Its normalized form ``beta = mean((y_i - y_min) / (y_max - y_min))`` lies in
[0, 1] and is what the quantum estimator targets; ``beta_to_R`` maps an
estimate back to the raw forecast scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_FOREST_HEIGHT
from .exceptions import DegenerateRangeError, MetricError, SchemaMismatchError

PREDICATE_KINDS = ("threshold-greater", "equals")
METRIC_NAMES = ("MAE", "MSE", "RMSE", "MAPE", "wMAPE", "sMAPE")


@dataclass(frozen=True)
class Attribute:
    """Schema entry: a real-valued attribute, or a discrete one with
    categories ``1 .. categories``."""

    kind: str
    categories: int | None = None

    def __post_init__(self):
        if self.kind not in ("real", "discrete"):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == "discrete":
            if self.categories is None or self.categories < 1:
                raise ValueError("discrete attribute needs categories >= 1")
        elif self.categories is not None:
            raise ValueError("real attribute takes no categories")

    def admits(self, value: float) -> bool:
        if not math.isfinite(value):
            return False
        if self.kind == "discrete":
            return value == int(value) and 1 <= value <= self.categories
        return True


@dataclass(frozen=True)
class Predicate:
    """Node condition on one attribute (1-based index).

    ``threshold-greater`` tests ``x > threshold`` and is allowed on both
    attribute kinds; ``equals`` tests ``x == threshold`` against a category
    value and only makes sense on discrete attributes.
    """

    kind: str
    attribute: int
    threshold: float

    def __post_init__(self):
        if self.kind not in PREDICATE_KINDS:
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.attribute < 1:
            raise ValueError("attribute index is 1-based")

    def evaluate(self, values: tuple[float, ...]) -> bool:
        if self.attribute > len(values):
            raise SchemaMismatchError(
                f"predicate references attribute {self.attribute} "
                f"but input has {len(values)}"
            )
        v = values[self.attribute - 1]
        return v > self.threshold if self.kind == "threshold-greater" else v == self.threshold


@dataclass(frozen=True)
class DecisionTree:
    """Full padded tree of height ``h``: every internal slot has a predicate,
    every leaf slot a real label."""

    height: int
    nodes: dict[int, Predicate]
    leaves: dict[int, float]

    def __post_init__(self):
        h = self.height
        if h < 1:
            raise ValueError("tree height must be >= 1")
        internal = set(range(1, 2**h))
        leaf_range = set(range(2**h, 2 ** (h + 1)))
        if set(self.nodes) != internal:
            missing = sorted(internal - set(self.nodes)) or sorted(set(self.nodes) - internal)
            raise ValueError(f"internal nodes must cover [1, {2**h - 1}]; offending index {missing[0]}")
        if set(self.leaves) != leaf_range:
            missing = sorted(leaf_range - set(self.leaves)) or sorted(set(self.leaves) - leaf_range)
            raise ValueError(
                f"leaves must cover [{2**h}, {2**(h + 1) - 1}]; offending index {missing[0]}"
            )
        for j, y in self.leaves.items():
            if not math.isfinite(y):
                raise ValueError(f"leaf {j} label is not finite")

    @property
    def leaf_count(self) -> int:
        return 2**self.height


@dataclass(frozen=True)
class RandomForest:
    """A set of equally tall decision trees over a common attribute schema."""

    trees: tuple[DecisionTree, ...]
    schema: tuple[Attribute, ...]

    def __post_init__(self):
        if not self.trees:
            raise ValueError("forest needs at least one tree")
        if not self.schema:
            raise ValueError("forest needs at least one attribute")
        h = self.trees[0].height
        if any(t.height != h for t in self.trees):
            raise ValueError("all trees must share one (padded) height")
        d = len(self.schema)
        for i, tree in enumerate(self.trees):
            for j, pred in tree.nodes.items():
                if pred.attribute > d:
                    raise ValueError(
                        f"tree {i} node {j} references attribute {pred.attribute} "
                        f"but schema has {d}"
                    )

    @property
    def n(self) -> int:
        return len(self.trees)

    @property
    def height(self) -> int:
        return self.trees[0].height

    @property
    def y_min(self) -> float:
        return min(y for t in self.trees for y in t.leaves.values())

    @property
    def y_max(self) -> float:
        return max(y for t in self.trees for y in t.leaves.values())


@dataclass(frozen=True)
class InputObject:
    """Attribute vector to forecast for."""

    values: tuple[float, ...]

    @classmethod
    def of(cls, *values: float) -> "InputObject":
        return cls(tuple(float(v) for v in values))

    def validate_against(self, schema: tuple[Attribute, ...]) -> None:
        if len(self.values) != len(schema):
            raise SchemaMismatchError(
                f"input has {len(self.values)} values, schema expects {len(schema)}"
            )
        for i, (v, attr) in enumerate(zip(self.values, schema)):
            if not attr.admits(v):
                raise SchemaMismatchError(f"value {v!r} invalid for attribute {i + 1} ({attr.kind})")


@dataclass(frozen=True)
class PredictionPair:
    truth: float
    forecast: float


def walk_tree(tree: DecisionTree, x: InputObject) -> tuple[int, float]:
    """Walk from the root to a leaf; returns (leaf heap index, leaf label)."""
    j = 1
    for _ in range(tree.height):
        j = 2 * j + (1 if tree.nodes[j].evaluate(x.values) else 0)
    return j, tree.leaves[j]


def forecast_classical(forest: RandomForest, x: InputObject) -> float:
    """Mean leaf label over all trees: the exact classical forecast."""
    x.validate_against(forest.schema)
    return sum(walk_tree(t, x)[1] for t in forest.trees) / forest.n


def beta_classical(forest: RandomForest, x: InputObject) -> float:
    """Exact normalized forecast ``mean((y_i - y_min) / (y_max - y_min))``."""
    x.validate_against(forest.schema)
    lo, hi = forest.y_min, forest.y_max
    if hi <= lo:
        raise DegenerateRangeError("all leaf labels equal; normalized target undefined")
    return sum((walk_tree(t, x)[1] - lo) for t in forest.trees) / (forest.n * (hi - lo))


def beta_to_R(beta: float, y_min: float, y_max: float) -> float:
    """Map a normalized forecast back to the raw scale."""
    if y_max <= y_min:
        raise DegenerateRangeError("y_max must exceed y_min")
    return beta * (y_max - y_min) + y_min


def error_metric(pairs: list[PredictionPair], metric: str) -> float:
    """One of MAE, MSE, RMSE, MAPE, wMAPE, sMAPE over (truth, forecast) pairs.

    Raises MetricError on the metric's zero-denominator case: MAPE when some
    truth is 0, wMAPE when all truths are 0, sMAPE when a pair is (0, 0).
    """
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}")
    if not pairs:
        raise ValueError("need at least one pair")
    y = np.array([p.truth for p in pairs], dtype=float)
    f = np.array([p.forecast for p in pairs], dtype=float)
    err = np.abs(y - f)
    if metric == "MAE":
        return float(err.mean())
    if metric == "MSE":
        return float((err**2).mean())
    if metric == "RMSE":
        return float(np.sqrt((err**2).mean()))
    if metric == "MAPE":
        if np.any(y == 0):
            raise MetricError("MAPE undefined: a truth value is 0")
        return float((err / np.abs(y)).mean())
    if metric == "wMAPE":
        denom = np.abs(y).sum()
        if denom == 0:
            raise MetricError("wMAPE undefined: truth values sum to 0 in absolute value")
        return float(err.sum() / denom)
    denom = np.abs(y) + np.abs(f)
    if np.any(denom == 0):
        raise MetricError("sMAPE undefined: a pair is (0, 0)")
    return float((err / denom).mean())


def generate_random_forest(
    n: int,
    h: int,
    schema: tuple[Attribute, ...],
    value_range: tuple[float, float],
    seed: int,
) -> RandomForest:
    """Random full forest: predicates draw a uniform attribute per node, leaf
    labels are uniform in ``value_range``.  Real attributes get
    threshold-greater predicates with thresholds in [0, 1); discrete ones get
    equals predicates on a uniform category.  Deterministic per seed.
    """
    if n < 1 or h < 1:
        raise ValueError("need n >= 1 and h >= 1")
    if h > MAX_FOREST_HEIGHT:
        raise ValueError(f"h must be <= {MAX_FOREST_HEIGHT} (a tree holds 2^h leaves)")
    lo, hi = value_range
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError("value_range must be a finite (lo, hi) with lo <= hi")
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n):
        nodes = {}
        for j in range(1, 2**h):
            attr_i = int(rng.integers(0, len(schema)))
            attr = schema[attr_i]
            if attr.kind == "real":
                nodes[j] = Predicate("threshold-greater", attr_i + 1, float(rng.random()))
            else:
                nodes[j] = Predicate("equals", attr_i + 1, float(rng.integers(1, attr.categories + 1)))
        leaves = {j: lo + (hi - lo) * float(rng.random()) for j in range(2**h, 2 ** (h + 1))}
        trees.append(DecisionTree(h, nodes, leaves))
    return RandomForest(tuple(trees), tuple(schema))


def generate_random_input(schema: tuple[Attribute, ...], seed: int) -> InputObject:
    """Random input conforming to the schema (reals in [0, 1))."""
    rng = np.random.default_rng(seed)
    values = []
    for attr in schema:
        if attr.kind == "real":
            values.append(float(rng.random()))
        else:
            values.append(float(rng.integers(1, attr.categories + 1)))
    return InputObject(tuple(values))
