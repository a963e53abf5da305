"""Trained regression forests and their exact classical evaluation.

A decision tree is a full binary heap of fixed depth: internal nodes occupy
indices ``1 .. 2^h - 1`` (root = 1, children of ``j`` are ``2j`` for a
false predicate and ``2j + 1`` for a true one) and leaves occupy
``2^h .. 2^(h+1) - 1``.  A forest of ``n`` such trees is four ``(n, 2^h)``
arrays: predicate kind, attribute and threshold at slot ``j`` for node
``j``, and the label of leaf ``2^h + j`` at slot ``j``.  Walking every tree
is ``h`` rounds of ``j <- 2j + outcome`` over an ``(n,)`` index vector.
Trees of non-uniform depth are padded to this shape at load time (see
``forest_io``); ``n * 2^h`` is capped by ``config.MAX_FOREST_SLOTS``.

The forest forecast for an input is the mean of the per-tree leaf labels.
Its normalized form ``beta = mean((y_i - y_min) / (y_max - y_min))`` lies in
[0, 1] and is what the quantum estimator targets; ``beta_to_R`` maps an
estimate back to the raw forecast scale.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .config import MAX_CATEGORIES, MAX_FOREST_SLOTS
from .exceptions import DegenerateRangeError, SchemaMismatchError

PREDICATE_KINDS = ("threshold-greater", "equals")
EQUALS = PREDICATE_KINDS.index("equals")
METRIC_NAMES = ("MAE", "MSE", "RMSE", "MAPE", "wMAPE", "sMAPE")


def as_integer(name: str, value) -> int:
    """``value`` as an int; a bool or a value without ``__index__`` is refused."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True)
class Attribute:
    """Schema entry: a real-valued attribute, or a discrete one with
    categories ``1 .. categories`` (an integer up to ``MAX_CATEGORIES``).
    The only check of a kind or a count, for forest documents, ``generate
    --attrs`` and library callers alike."""

    kind: str
    categories: int | None = None

    def __post_init__(self):
        if self.kind not in ("real", "discrete"):
            raise ValueError("kind must be 'real' or 'discrete'")
        if self.kind == "discrete":
            categories = as_integer("categories", self.categories)
            if categories < 1:
                raise ValueError("categories must be an integer >= 1")
            if categories > MAX_CATEGORIES:
                raise ValueError("categories must be <= 2^53 (inputs are float64)")
            # kept as a Python int: generate_random_forest multiplies it by 64-bit words
            object.__setattr__(self, "categories", categories)
        elif self.categories is not None:
            raise ValueError("real attribute takes no categories")

    def admits(self, value: float) -> bool:
        if not math.isfinite(value):
            return False
        if self.kind == "discrete":
            return value == int(value) and 1 <= value <= self.categories
        return True


def check_schema(schema: tuple) -> None:
    """Refuse an empty schema or an entry that is not an ``Attribute``."""
    if not schema:
        raise ValueError("forest needs at least one attribute")
    for i, attr in enumerate(schema):
        if not isinstance(attr, Attribute):
            raise ValueError(f"schema entry {i + 1} must be an Attribute, got {attr!r}")


@dataclass(frozen=True, eq=False)
class RandomForest:
    """``n`` equally tall decision trees over a common attribute schema,
    stored as four ``(n, 2^h)`` arrays.

    In ``kind``, ``attribute`` and ``threshold``, slot ``j`` of row ``i`` is
    tree ``i``'s heap node ``j`` (slot 0 is unused): the predicate kind as an
    index into ``PREDICATE_KINDS``, its 1-based attribute and its threshold.
    ``threshold-greater`` tests ``x > threshold`` on either attribute kind;
    ``equals`` tests ``x == threshold`` against a category.  Slot ``j`` of
    ``leaf`` is the label of leaf ``2^h + j``.  ``y_min``/``y_max`` are
    computed once here.  A forest holds the arrays it is given and makes
    them read-only, without copying them: a caller's array that already has
    the field's dtype (int8, int32, float64, float64) becomes the field
    itself and is read-only from then on; any other is converted to a new
    array.
    """

    schema: tuple[Attribute, ...]
    kind: np.ndarray
    attribute: np.ndarray
    threshold: np.ndarray
    leaf: np.ndarray
    y_min: float = field(init=False)
    y_max: float = field(init=False)

    def __post_init__(self):
        check_schema(self.schema)
        arrays = {
            "kind": np.asarray(self.kind, dtype=np.int8),
            "attribute": np.asarray(self.attribute, dtype=np.int32),
            "threshold": np.asarray(self.threshold, dtype=np.float64),
            "leaf": np.asarray(self.leaf, dtype=np.float64),
        }
        shape = arrays["leaf"].shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 2 or shape[1] & (shape[1] - 1):
            raise ValueError("forest arrays need shape (n, 2^h) with n >= 1 and h >= 1")
        if any(a.shape != shape for a in arrays.values()):
            raise ValueError("all trees must share one (padded) height")
        kinds, attrs = arrays["kind"][:, 1:], arrays["attribute"][:, 1:]
        if kinds.min() < 0 or kinds.max() >= len(PREDICATE_KINDS):
            raise ValueError("predicate kind code must index PREDICATE_KINDS")
        if attrs.min() < 1 or attrs.max() > len(self.schema):
            raise ValueError(f"predicate attributes must lie in [1, {len(self.schema)}]")
        if not np.isfinite(arrays["threshold"][:, 1:]).all():
            raise ValueError("predicate thresholds must be finite")
        if not np.isfinite(arrays["leaf"]).all():
            raise ValueError("leaf labels must be finite")
        if not math.isfinite(2.0 * shape[0] * float(np.abs(arrays["leaf"]).max())):  # bounds every sum
            raise ValueError(f"leaf labels too large: 2 * n * max|label| overflows for n = {shape[0]}")
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "y_min", float(arrays["leaf"].min()))
        object.__setattr__(self, "y_max", float(arrays["leaf"].max()))

    @property
    def n(self) -> int:
        return self.leaf.shape[0]

    @property
    def height(self) -> int:
        return self.leaf.shape[1].bit_length() - 1


@dataclass(frozen=True, slots=True)
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


def branch_outcomes(forest: RandomForest, x: InputObject) -> np.ndarray:
    """``(n, 2^h)`` bool array: slot ``j`` of row ``i`` is tree ``i``'s
    predicate outcome at heap node ``j`` on ``x`` (slot 0 is meaningless)."""
    x.validate_against(forest.schema)
    v = np.array(x.values)[forest.attribute - 1]
    return np.where(forest.kind == EQUALS, v == forest.threshold, v > forest.threshold)


def walk_forest(forest: RandomForest, x: InputObject) -> np.ndarray:
    """Leaf heap index reached in every tree: ``h`` rounds of
    ``j <- 2j + outcome`` over all trees at once."""
    taken = branch_outcomes(forest, x)
    rows = np.arange(forest.n)
    j = np.ones(forest.n, dtype=np.intp)
    for _ in range(forest.height):
        j = 2 * j + taken[rows, j]
    return j


def _walked_labels(forest: RandomForest, x: InputObject) -> list[float]:
    leaves = walk_forest(forest, x) - forest.leaf.shape[1]
    return forest.leaf[np.arange(forest.n), leaves].tolist()


def forecast_classical(forest: RandomForest, x: InputObject) -> float:
    """Mean leaf label over all trees: the exact classical forecast."""
    # Python sum in tree order: np.sum adds in another order and can change
    # the last bit.
    return sum(_walked_labels(forest, x)) / forest.n


def label_range(forest: RandomForest) -> tuple[float, float]:
    """``(y_min, y_max)``; refuses a forest whose leaf labels are all equal,
    on which the normalized forecast is undefined."""
    lo, hi = forest.y_min, forest.y_max
    if hi <= lo:
        raise DegenerateRangeError("all leaf labels equal")
    return lo, hi


def beta_classical(forest: RandomForest, x: InputObject) -> float:
    """Exact normalized forecast ``mean((y_i - y_min) / (y_max - y_min))``."""
    x.validate_against(forest.schema)
    lo, hi = label_range(forest)
    return sum(y - lo for y in _walked_labels(forest, x)) / (forest.n * (hi - lo))


def beta_to_R(beta: float, y_min: float, y_max: float) -> float:
    """Map a normalized forecast back to the raw scale."""
    if y_max <= y_min:
        raise DegenerateRangeError("y_max must exceed y_min")
    return beta * (y_max - y_min) + y_min


def error_metrics(truth, forecast) -> dict[str, float | None]:
    """The ``METRIC_NAMES`` (MAE, MSE, RMSE, MAPE, wMAPE, sMAPE) over two
    equal-length float columns of truths and forecasts, all from one
    ``|y - f|``.

    A metric is ``None`` where its denominator is 0 (MAPE: a truth is 0;
    wMAPE: all truths are 0; sMAPE: a pair is (0, 0)) or its value
    overflows.  Every term is non-negative, so a zero denominator leaves an
    infinity or a NaN in the value, and one finiteness test finds both.
    """
    y = np.asarray(truth, dtype=np.float64)
    f = np.asarray(forecast, dtype=np.float64)
    if y.ndim != 1 or y.shape != f.shape or not y.size:
        raise ValueError("need two equal-length columns of at least one pair")
    with np.errstate(all="ignore"):  # a non-finite value reads None below
        err = np.abs(y - f)
        mse = (err**2).mean()
        values = (
            err.mean(),
            mse,
            np.sqrt(mse),
            (err / np.abs(y)).mean(),
            err.sum() / np.abs(y).sum(),
            (err / (np.abs(y) + np.abs(f))).mean(),
        )
    return {name: float(v) if np.isfinite(v) else None for name, v in zip(METRIC_NAMES, values)}


# Generator.integers and Generator.random as numpy computes them from PCG64's
# raw 64-bit words; generate_random_forest replays them.
_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_DOUBLE = 2.0**-53  # random() is a fresh word's top 53 bits times this


def _rejects(k: int) -> int:
    """Lemire's rejection bound for ``Generator.integers(0, k)``: a draw
    ``u`` is redrawn while ``u * k`` modulo ``2^bits`` is below it, with
    ``bits`` 32 up to ``k = 2^32`` (for ``k = 2^32`` the bound is 0 and the
    result is the raw 32-bit value, as numpy takes it) and 64 above."""
    return (1 << (32 if k <= 1 << 32 else 64)) % k


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

    The forest for a seed is what ``default_rng(seed)`` gives node by node,
    tree by tree: ``integers(0, len(schema))`` for the attribute, then
    ``random()`` for a real one or ``integers(1, categories + 1)`` for a
    discrete one, and ``random(2^h)`` for each tree's leaves, so a seed's
    forest is unchanged from the per-call generator.  Those calls are not
    made: raw PCG64 words are drawn about a tree at a time
    (``bit_generator.random_raw``) and one scan over the nodes replays
    numpy's rules on them.  A double is a fresh word's top 53 bits.  An
    integer draws nothing for one choice, and otherwise is Lemire's
    multiply-and-reject on a 32-bit value (up to 2^32 choices) or on a whole
    word.  A 32-bit value is the low half of a fresh word, then that word's
    high half; doubles and whole words leave a pending high half alone.  The
    scan is serial because the attribute drawn decides the next draw.  A
    change to numpy's stream would show in the ``generate`` golden tests and
    in the test that compares this with the per-call loop.
    ``n``, ``h`` and ``seed`` must be integers (not bools); ``seed`` must be
    non-negative, and ``schema`` a non-empty sequence of ``Attribute``.
    """
    n, h, seed = as_integer("n", n), as_integer("h", h), as_integer("seed", seed)
    check_seed(seed)
    if n < 1 or h < 1:
        raise ValueError("need n >= 1 and h >= 1")
    if n > MAX_FOREST_SLOTS >> h:
        raise ValueError(f"n * 2^h must be <= {MAX_FOREST_SLOTS} (the forest arrays hold n * 2^h slots)")
    lo, hi = value_range
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError("value_range must be a finite (lo, hi) with lo <= hi")
    check_schema(schema)
    raw = np.random.default_rng(seed).bit_generator.random_raw
    width = 2**h
    budget = 3 * width  # words a tree takes at most unless a draw is rejected
    words, w, half = [], 0, -1  # half: a pending high 32 bits, or -1

    def word() -> int:
        nonlocal words, w
        if w == len(words):
            words, w = raw(budget).tolist(), 0
        w += 1
        return words[w - 1]

    def integer(k: int, rejects: int) -> int:
        """``Generator.integers(0, k)``."""
        nonlocal half
        if k == 1:
            return 0
        if k > 1 << 32:  # k <= MAX_CATEGORIES rules out numpy's raw-word case k = 2^64
            m = word() * k
            while m & _M64 < rejects:
                m = word() * k
            return m >> 64
        while True:
            if half < 0:
                x = word()
                u, half = x & _M32, x >> 32
            else:
                u, half = half, -1
            m = u * k
            if m & _M32 >= rejects:
                return m >> 32

    pick_attribute = (len(schema), _rejects(len(schema)))
    pick_threshold = [(0, 0) if a.kind == "real" else (a.categories, _rejects(a.categories)) for a in schema]
    kind = np.zeros((n, width), dtype=np.int8)
    attribute = np.ones((n, width), dtype=np.int32)
    threshold = np.zeros((n, width))
    leaf = np.empty((n, width))
    for i in range(n):
        attrs, thresholds = [], []
        for _ in range(width - 1):
            a = integer(*pick_attribute)
            attrs.append(a + 1)
            k, rejects = pick_threshold[a]  # k = 0: a real attribute
            thresholds.append(1 + integer(k, rejects) if k else (word() >> 11) * _DOUBLE)
        attribute[i, 1:] = attrs
        threshold[i, 1:] = thresholds
        if len(words) - w < width:
            words, w = words[w:] + raw(budget).tolist(), 0
        leaf[i] = lo + (hi - lo) * ((np.array(words[w : w + width], dtype=np.uint64) >> 11) * _DOUBLE)
        w += width
    discrete = np.array([False] + [a.kind == "discrete" for a in schema])  # by 1-based attribute
    kind[:, 1:] = np.where(discrete[attribute[:, 1:]], EQUALS, 0)
    return RandomForest(tuple(schema), kind, attribute, threshold, leaf)
