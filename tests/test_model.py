import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    MIXED_SCHEMA,
    document_inputs,
    forest_documents,
    generate_random_input,
    mean_forecast_oracle,
    per_call_forest,
    random_instance,
    recursive_walk_oracle,
    two_leaf_forest,
)
from qrforest.exceptions import DegenerateRangeError, SchemaMismatchError
from qrforest.forest_io import load_forest, save_forest
from qrforest.model import (
    EQUALS,
    Attribute,
    InputObject,
    METRIC_NAMES,
    RandomForest,
    beta_classical,
    beta_to_R,
    error_metrics,
    forecast_classical,
    generate_random_forest,
    walk_forest,
)


def walked_labels(forest, x):
    return forest.leaf[np.arange(forest.n), walk_forest(forest, x) - 2**forest.height].tolist()


def test_walk_single_false_branch():
    forest, x = two_leaf_forest((3.0, 7.0)), InputObject.of(0.2)
    assert walk_forest(forest, x).tolist() == [2]
    assert walked_labels(forest, x) == [3.0]


def test_walk_single_true_branch():
    forest, x = two_leaf_forest((3.0, 7.0)), InputObject.of(0.9)
    assert walk_forest(forest, x).tolist() == [3]
    assert walked_labels(forest, x) == [7.0]


def test_walk_matches_recursive_descent_oracle():
    # heap arithmetic (j <- 2j + outcome) vs descent of the saved document
    checked = 0
    for seed in range(100):
        forest, _ = random_instance(2, 3, seed)
        text = save_forest(forest)
        for k in range(5):
            x = generate_random_input(MIXED_SCHEMA, 7_000 + 5 * seed + k)
            walked = list(zip(walk_forest(forest, x).tolist(), walked_labels(forest, x)))
            assert walked == recursive_walk_oracle(text, x)
            checked += forest.n
    assert checked >= 1000


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_walk_and_forecast_match_recursive_descent_on_documents(data):
    doc = data.draw(forest_documents())
    x = data.draw(document_inputs(doc))
    text = json.dumps(doc)
    forest = load_forest(text)
    expected = recursive_walk_oracle(text, x)
    h = doc["h"]
    for leaf, label, (declared, want) in zip(
        walk_forest(forest, x).tolist(), walked_labels(forest, x), expected
    ):
        # the padded walk ends below the declared (possibly early) leaf
        assert leaf >> (h + 1 - declared.bit_length()) == declared
        assert label == want
    assert forecast_classical(forest, x) == mean_forecast_oracle(text, x)


def test_walk_out_of_schema_attribute():
    with pytest.raises(SchemaMismatchError):
        walk_forest(two_leaf_forest((3.0, 7.0)), InputObject.of())


def test_forecast_single_tree_equals_walk():
    forest = two_leaf_forest((3.0, 7.0))
    x = InputObject.of(0.9)
    assert forecast_classical(forest, x) == walked_labels(forest, x)[0]


def test_forecast_two_trees_mean():
    forest = two_leaf_forest((3.0, 3.0), (7.0, 7.0))
    assert forecast_classical(forest, InputObject.of(0.2)) == 5.0


def test_forecast_matches_enumeration_oracle():
    for seed in range(20):
        forest, x = random_instance(8, 3, 300 + seed)
        assert forecast_classical(forest, x) == pytest.approx(
            mean_forecast_oracle(save_forest(forest), x), rel=1e-12
        )


def test_beta_bounds_and_leaf_label_range():
    for seed in range(50):
        forest, x = random_instance(4, 2, 500 + seed)
        labels = walked_labels(forest, x)
        assert min(labels) >= forest.y_min and max(labels) <= forest.y_max
        assert 0.0 <= beta_classical(forest, x) <= 1.0


def test_beta_hits_zero_on_all_min_leaves():
    forest = two_leaf_forest((1.0, 9.0), (1.0, 5.0))
    assert beta_classical(forest, InputObject.of(0.2)) == 0.0


def test_beta_hits_one_on_all_max_leaves():
    forest = two_leaf_forest((1.0, 9.0), (5.0, 9.0))
    assert beta_classical(forest, InputObject.of(0.9)) == 1.0


def test_reference_instance_beta(reference):
    forest, x = reference
    assert beta_classical(forest, x) == pytest.approx(0.1596, abs=1e-12)
    assert forecast_classical(forest, x) == pytest.approx(0.5596, abs=1e-12)


def test_beta_to_R_endpoints():
    assert beta_to_R(0.0, -2.0, 6.0) == -2.0
    assert beta_to_R(1.0, -2.0, 6.0) == 6.0


def test_beta_to_R_inverts_normalization():
    for seed in range(30):
        forest, x = random_instance(4, 3, 900 + seed)
        r = beta_to_R(beta_classical(forest, x), forest.y_min, forest.y_max)
        assert r == pytest.approx(forecast_classical(forest, x), rel=1e-12)


def test_degenerate_range_rejected():
    forest = two_leaf_forest((2.0, 2.0))
    with pytest.raises(DegenerateRangeError):
        beta_classical(forest, InputObject.of(0.5))
    with pytest.raises(DegenerateRangeError):
        beta_to_R(0.5, 2.0, 2.0)


def test_metrics_zero_when_forecast_is_exact():
    values = (1.5, -2.0, 4.0)
    assert error_metrics(values, values) == dict.fromkeys(METRIC_NAMES, 0.0)


def test_metrics_single_pair_values():
    m = error_metrics([2.0], [1.0])
    assert tuple(m) == METRIC_NAMES
    assert m["MAE"] == 1.0
    assert m["MSE"] == 1.0
    assert m["RMSE"] == 1.0
    assert m["MAPE"] == 0.5
    assert m["wMAPE"] == 0.5
    assert m["sMAPE"] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_metric_relations_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        truth, forecast = (rng.normal(size=(6, 2)) + 2.0).T
        values = error_metrics(truth, forecast)
        assert all(v >= 0.0 for v in values.values())
        assert values["MSE"] == pytest.approx(values["RMSE"] ** 2, rel=1e-12)
        assert values["MAE"] <= values["RMSE"] + 1e-15


def test_metric_degenerate_denominators():
    assert error_metrics([0.0], [1.0]) == {
        "MAE": 1.0, "MSE": 1.0, "RMSE": 1.0, "MAPE": None, "wMAPE": None, "sMAPE": 1.0,
    }
    assert error_metrics([0.0, 0.0], [1.0, 2.0])["wMAPE"] is None
    assert error_metrics([0.0, 1.0], [0.0, 2.0])["sMAPE"] is None
    with pytest.raises(ValueError):
        error_metrics([], [])
    with pytest.raises(ValueError):
        error_metrics([1.0], [1.0, 2.0])


def _metrics_oracle(truth, forecast):
    """Each metric written out over plain floats, ``None`` where its
    denominator is 0."""
    n = len(truth)
    err = [abs(y - f) for y, f in zip(truth, forecast)]
    mse = math.fsum(e * e for e in err) / n
    return {
        "MAE": math.fsum(err) / n,
        "MSE": mse,
        "RMSE": math.sqrt(mse),
        "MAPE": math.fsum(e / abs(y) for e, y in zip(err, truth)) / n if all(truth) else None,
        "wMAPE": math.fsum(err) / math.fsum(abs(y) for y in truth) if any(truth) else None,
        "sMAPE": (
            math.fsum(e / (abs(y) + abs(f)) for e, y, f in zip(err, truth, forecast)) / n
            if all(y or f for y, f in zip(truth, forecast)) else None
        ),
    }


# Magnitudes below 1e-290 become a zero of the same sign: over such a
# truth, MAPE of a 1e6 error overflows with a denominator that is not 0.
# Overflow has its own test (test_cli::test_metrics_that_overflow_are_degenerate).
_METRIC_VALUE = st.floats(-1e6, 1e6).map(lambda v: v if abs(v) >= 1e-290 else math.copysign(0.0, v))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_METRIC_VALUE, _METRIC_VALUE) | st.just((0.0, 0.0)), min_size=1, max_size=20))
@example([(0.0, 1.0), (2.0, 2.0)])
@example([(-0.0, 1.0), (0.0, 2.0)])
@example([(3.0, 1.0), (0.0, -0.0)])
def test_error_metrics_agree_with_a_per_metric_oracle(pairs):
    truth, forecast = [y for y, _ in pairs], [f for _, f in pairs]
    got, want = error_metrics(truth, forecast), _metrics_oracle(truth, forecast)
    assert tuple(got) == METRIC_NAMES
    for name in METRIC_NAMES:
        if want[name] is None:
            assert got[name] is None, name
        else:
            assert got[name] is not None and math.isclose(got[name], want[name], rel_tol=1e-12), name


def test_generator_is_deterministic():
    a = generate_random_forest(2, 2, MIXED_SCHEMA, (0.0, 1.0), seed=9)
    b = generate_random_forest(2, 2, MIXED_SCHEMA, (0.0, 1.0), seed=9)
    assert save_forest(a) == save_forest(b)
    assert save_forest(a) != save_forest(generate_random_forest(2, 2, MIXED_SCHEMA, (0.0, 1.0), seed=10))


def test_generator_reference_shape():
    binary = (Attribute("discrete", 2),) * 3
    forest = generate_random_forest(2, 2, binary, (0.0, 1.0), seed=1)
    assert forest.n == 2 and forest.height == 2
    assert forest.leaf.shape == (2, 4)


def test_generated_forests_satisfy_invariants():
    for seed in range(100):
        forest = generate_random_forest(3, 2, MIXED_SCHEMA, (-2.0, 5.0), seed)
        assert forest.kind.shape == forest.attribute.shape == forest.threshold.shape == (3, 4)
        assert forest.leaf.shape == (3, 4)
        assert ((-2.0 <= forest.leaf) & (forest.leaf <= 5.0)).all()
        for i in range(3):
            for j in range(1, 4):
                attr = MIXED_SCHEMA[forest.attribute[i, j] - 1]
                if forest.kind[i, j] == EQUALS:
                    assert attr.kind == "discrete"
                    assert 1 <= forest.threshold[i, j] <= attr.categories


# Category counts on every draw path of Generator.integers(1, k + 1): none
# (1), 32-bit Lemire (2, 3, 7; 2^31 + 1 rejects about half its draws), a raw
# 32-bit value (2^32) and 64-bit Lemire (2^32 + 1, 2^53, and a factor of
# 2^64 + 1, whose bound k - 1 is the largest a 64-bit draw can meet).
_REJECTS_64 = 67280421310721
_DRAW_PATH_CATEGORIES = (1, 2, 3, 7, 2**31 + 1, 2**32, 2**32 + 1, 2**53, _REJECTS_64)
_ATTRIBUTES = st.one_of(
    st.just(Attribute("real")), st.sampled_from(_DRAW_PATH_CATEGORIES).map(lambda k: Attribute("discrete", k))
)


def assert_same_forest(a, b):
    for name in ("kind", "attribute", "threshold", "leaf"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


@settings(deadline=None, max_examples=150)
@given(
    schema=st.lists(_ATTRIBUTES, min_size=1, max_size=4).map(tuple),
    n=st.integers(1, 8),
    h=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
@example(schema=(Attribute("discrete", 2**31 + 1),), n=8, h=6, seed=1)
@example(schema=(Attribute("real"), Attribute("discrete", 2**31 + 1)), n=8, h=6, seed=2)
@example(schema=(Attribute("discrete", 2**32), Attribute("real"), Attribute("discrete", 7)), n=5, h=5, seed=3)
@example(schema=(Attribute("discrete", 2**32 + 1), Attribute("discrete", 2**53)), n=4, h=6, seed=4)
@example(schema=(Attribute("discrete", _REJECTS_64),), n=1, h=6, seed=14182)  # one 64-bit draw rejected
@example(schema=(Attribute("discrete", 1), Attribute("discrete", 3), Attribute("real")), n=3, h=4, seed=5)
@example(schema=(Attribute("real"),), n=2, h=3, seed=6)
@example(schema=(Attribute("discrete", 1),), n=1, h=1, seed=7)
def test_generator_replays_the_per_call_draws(schema, n, h, seed):
    """The raw-word replay gives bit for bit what one numpy call per draw
    gives, on every draw path and with rejections."""
    assert_same_forest(
        generate_random_forest(n, h, schema, (-1.0, 3.0), seed), per_call_forest(n, h, schema, (-1.0, 3.0), seed)
    )


def test_generator_replays_the_per_call_draws_at_benchmark_size():
    # MIXED_SCHEMA is the benchmark's real,disc:2,disc:3,real
    assert_same_forest(
        generate_random_forest(64, 10, MIXED_SCHEMA, (-1.0, 3.0), 1501),
        per_call_forest(64, 10, MIXED_SCHEMA, (-1.0, 3.0), 1501),
    )


def test_attribute_takes_an_integer_count_of_at_most_2_to_the_53_categories():
    for bad in (2**53 + 1, 0, 2.5, 3.0, None, True):
        with pytest.raises(ValueError):
            Attribute("discrete", bad)
    wide = Attribute("discrete", np.int64(2**31 + 1))
    assert type(wide.categories) is int and wide == Attribute("discrete", 2**31 + 1)
    assert_same_forest(
        generate_random_forest(2, 4, (wide,), (0.0, 1.0), 9), per_call_forest(2, 4, (wide,), (0.0, 1.0), 9)
    )
    schema = (Attribute("discrete", 2**53), Attribute("real"))
    forest = generate_random_forest(3, 3, schema, (0.0, 1.0), seed=8)
    text = save_forest(forest)
    loaded = load_forest(text)
    assert loaded.schema == schema
    assert_same_forest(loaded, forest)
    assert save_forest(loaded) == text


@pytest.mark.parametrize("name,bad", [
    ("seed", None), ("seed", True), ("seed", -1), ("seed", 1.5), ("h", True), ("n", True),
])
def test_generator_refuses_a_bool_a_non_integer_and_a_negative_seed(name, bad):
    args = {"n": 2, "h": 2, "schema": MIXED_SCHEMA, "value_range": (0.0, 1.0), "seed": 4}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        generate_random_forest(**{**args, name: bad})
    assert_same_forest(generate_random_forest(**{**args, "seed": np.int64(4)}), generate_random_forest(**args))


def test_generator_refuses_an_empty_schema_before_any_draw():
    with pytest.raises(ValueError, match="^forest needs at least one attribute$"):
        generate_random_forest(2, 2, (), (0.0, 1.0), 0)


def test_a_schema_entry_that_is_not_an_attribute_is_refused():
    arrays = (np.zeros((1, 2)), np.ones((1, 2)), np.zeros((1, 2)), np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="^schema entry 1 must be an Attribute, got 'real'$"):
        RandomForest(("real",), *arrays)
    with pytest.raises(ValueError, match="^schema entry 2 must be an Attribute, got None$"):
        RandomForest((Attribute("real"), None), *arrays)
    with pytest.raises(ValueError, match="^schema entry 1 must be an Attribute, got 'real'$"):
        generate_random_forest(2, 2, ("real",), (0, 1), 0)


def test_input_validation():
    x = InputObject.of(0.5, 1, 3, 0.2)
    x.validate_against(MIXED_SCHEMA)
    with pytest.raises(SchemaMismatchError):
        InputObject.of(0.5).validate_against(MIXED_SCHEMA)
    with pytest.raises(SchemaMismatchError):
        InputObject.of(0.5, 7, 3, 0.2).validate_against(MIXED_SCHEMA)  # bad category
    with pytest.raises(SchemaMismatchError):
        InputObject.of(0.5, 1.5, 3, 0.2).validate_against(MIXED_SCHEMA)  # non-integral


def _forest(kind=((0, 0),), attribute=((1, 1),), threshold=((0.0, 0.0),), leaf=((1.0, 2.0),),
            schema=(Attribute("real"),)):
    return RandomForest(schema, kind, attribute, threshold, leaf)


def test_tree_construction_rejects_gaps():
    _forest()
    with pytest.raises(ValueError):
        _forest(leaf=((1.0,),))  # fewer than two leaf slots
    with pytest.raises(ValueError):
        _forest(leaf=((1.0, 2.0, 3.0),), kind=((0, 0, 0),), attribute=((1, 1, 1),),
                threshold=((0.0, 0.0, 0.0),))  # width not a power of two
    with pytest.raises(ValueError):
        _forest(threshold=((0.0,),))  # node array narrower than the leaves
    with pytest.raises(ValueError):
        _forest(leaf=((1.0, np.inf),))


def test_forest_construction_checks():
    with pytest.raises(ValueError):
        _forest(kind=np.zeros((0, 2)), attribute=np.ones((0, 2)), threshold=np.zeros((0, 2)),
                leaf=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        _forest(schema=())
    with pytest.raises(ValueError):  # trees of different heights cannot share arrays
        _forest(kind=((0, 0, 0, 0),), attribute=((1, 1, 1, 1),), threshold=((0.0,) * 4,))
    with pytest.raises(ValueError):
        _forest(kind=((0, 2),))  # unknown predicate kind
    with pytest.raises(ValueError):
        _forest(attribute=((1, 0),))  # attributes are 1-based
    with pytest.raises(ValueError):
        _forest(attribute=((1, 2),))  # beyond the schema
    for bad in (np.inf, -np.inf, np.nan):  # save_forest could not write it back
        with pytest.raises(ValueError, match="thresholds must be finite"):
            _forest(threshold=((0.0, bad),))
    _forest(threshold=((np.inf, 0.0),))  # slot 0 is no node
