import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MIXED_SCHEMA, forest_documents, random_instance
from qrforest.config import MAX_FOREST_SLOTS
from qrforest.exceptions import ForestFormatError
from qrforest.forest_io import (
    forest_fingerprint,
    input_fingerprint,
    load_forest,
    save_forest,
)
from qrforest.model import InputObject, generate_random_forest, walk_forest

MINIMAL = """
{
  "n": 1,
  "h": 1,
  "schema": [{"kind": "real"}],
  "trees": [
    {"nodes": {"1": {"kind": "threshold-greater", "attr": 1, "threshold": 0.5}},
     "leaves": {"2": 3.0, "3": 7.0}}
  ]
}
"""


def test_minimal_document_parses():
    forest = load_forest(MINIMAL)
    assert forest.n == 1 and forest.height == 1
    assert forest.leaf.tolist() == [[3.0, 7.0]]
    assert (forest.kind[0, 1], forest.attribute[0, 1], forest.threshold[0, 1]) == (0, 1, 0.5)


def _minimal_doc():
    return json.loads(MINIMAL)


def test_missing_leaf_names_the_index():
    doc = _minimal_doc()
    del doc["trees"][0]["leaves"]["3"]
    with pytest.raises(ForestFormatError, match="index 3"):
        load_forest(json.dumps(doc))


def test_unknown_fields_rejected():
    doc = _minimal_doc()
    doc["comment"] = "hi"
    with pytest.raises(ForestFormatError, match="comment"):
        load_forest(json.dumps(doc))
    doc = _minimal_doc()
    doc["trees"][0]["nodes"]["1"]["extra"] = 1
    with pytest.raises(ForestFormatError, match="extra"):
        load_forest(json.dumps(doc))


def test_tree_count_must_match_n():
    doc = _minimal_doc()
    doc["n"] = 2
    with pytest.raises(ForestFormatError, match="trees"):
        load_forest(json.dumps(doc))


def test_duplicate_node_and_leaf_index():
    doc = _minimal_doc()
    doc["trees"][0]["leaves"]["1"] = 0.0
    with pytest.raises(ForestFormatError, match="both node and leaf"):
        load_forest(json.dumps(doc))


def test_unreachable_entry_rejected():
    doc = _minimal_doc()
    doc["h"] = 2
    doc["trees"][0]["leaves"] = {"2": 3.0, "3": 7.0, "15": 1.0}
    with pytest.raises(ForestFormatError, match="15"):
        load_forest(json.dumps(doc))


def test_equals_needs_discrete_attribute():
    doc = _minimal_doc()
    doc["trees"][0]["nodes"]["1"] = {"kind": "equals", "attr": 1, "threshold": 1}
    with pytest.raises(ForestFormatError, match="discrete"):
        load_forest(json.dumps(doc))


def test_equals_threshold_must_be_a_category():
    doc = _minimal_doc()
    doc["schema"] = [{"kind": "discrete", "categories": 2}]
    doc["trees"][0]["nodes"]["1"] = {"kind": "equals", "attr": 1, "threshold": 5}
    with pytest.raises(ForestFormatError, match="category"):
        load_forest(json.dumps(doc))


def test_non_decimal_index_rejected():
    doc = _minimal_doc()
    doc["trees"][0]["leaves"]["03"] = doc["trees"][0]["leaves"].pop("3")
    with pytest.raises(ForestFormatError, match="decimal"):
        load_forest(json.dumps(doc))


def test_short_branch_is_padded_to_full_height():
    # left subtree ends in an early leaf at depth 1
    doc = {
        "n": 1,
        "h": 2,
        "schema": [{"kind": "real"}],
        "trees": [
            {
                "nodes": {
                    "1": {"kind": "threshold-greater", "attr": 1, "threshold": 0.5},
                    "3": {"kind": "threshold-greater", "attr": 1, "threshold": 0.8},
                },
                "leaves": {"2": 1.0, "6": 2.0, "7": 3.0},
            }
        ],
    }
    forest = load_forest(json.dumps(doc))
    assert forest.leaf.shape == (1, 4)
    assert forest.leaf.tolist() == [[1.0, 1.0, 2.0, 3.0]]  # label pushed down
    # node 2 is a pass-through node
    assert (forest.kind[0, 2], forest.attribute[0, 2], forest.threshold[0, 2]) == (0, 1, 0.0)
    # every walk on the padded side still takes h steps and returns the label
    for v in (0.0, 0.3):
        (leaf,) = walk_forest(forest, InputObject.of(v)).tolist()
        assert forest.leaf[0, leaf - 4] == 1.0 and leaf in (4, 5)
    assert walk_forest(forest, InputObject.of(0.9)).tolist() == [7]


def test_round_trip_identity_and_canonical_bytes():
    for seed in range(20):
        forest = generate_random_forest(3, 2, MIXED_SCHEMA, (-1.0, 4.0), seed)
        text = save_forest(forest)
        again = load_forest(text)
        for name in ("kind", "attribute", "threshold", "leaf"):
            assert (getattr(again, name) == getattr(forest, name)).all()
        assert again.schema == forest.schema
        assert save_forest(again) == text


def test_fingerprints():
    f1, x1 = random_instance(2, 2, 5)
    f2, _ = random_instance(2, 2, 6)
    assert forest_fingerprint(f1) == forest_fingerprint(load_forest(save_forest(f1)))
    assert forest_fingerprint(f1) != forest_fingerprint(f2)
    assert input_fingerprint(x1) == input_fingerprint(InputObject(x1.values))
    assert input_fingerprint(x1) != input_fingerprint(InputObject.of(*x1.values, 1.0))


def test_not_json():
    with pytest.raises(ForestFormatError, match="JSON"):
        load_forest("{nope")


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_slot_budget_refuses_before_allocating():
    doc = {"n": 64, "h": 20, "schema": [{"kind": "real"}], "trees": []}

    def load():
        with pytest.raises(ForestFormatError, match="n \\* 2\\^h must be <= 1048576"):
            load_forest(json.dumps(doc))

    assert _traced_peak(load) < 1 << 20
    doc["h"] = 10**9  # the check itself must not build 2^h
    with pytest.raises(ForestFormatError, match="slots"):
        load_forest(json.dumps(doc))


def test_slot_budget_admits_its_limit():
    h = MAX_FOREST_SLOTS.bit_length() - 1
    doc = {"n": 1, "h": h, "schema": [{"kind": "real"}], "trees": [{"nodes": {}, "leaves": {"1": 2.0}}]}
    forest = load_forest(json.dumps(doc))
    assert forest.leaf.shape == (1, MAX_FOREST_SLOTS)
    doc["n"] = 2
    doc["trees"] *= 2
    with pytest.raises(ForestFormatError, match="slots"):
        load_forest(json.dumps(doc))


def test_one_leaf_tall_document_loads_small():
    text = json.dumps({"n": 1, "h": 18, "schema": [{"kind": "real"}],
                       "trees": [{"nodes": {}, "leaves": {"1": 2.0}}]})
    holder = []
    assert _traced_peak(lambda: holder.append(load_forest(text))) < 32 << 20
    assert holder[0].y_min == holder[0].y_max == 2.0
    assert holder[0].leaf.shape == (1, 2**18)


@settings(deadline=None, max_examples=150)
@given(forest_documents())
def test_save_load_save_is_identity_on_documents_with_early_leaves(doc):
    text = save_forest(load_forest(json.dumps(doc)))
    assert save_forest(load_forest(text)) == text


def _locations(value, path=()):
    """Every (path, is_dict_key) below ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,), isinstance(value, dict)
        yield from _locations(child, path + (key,))


_JSON_VALUES = (None, True, 1, "x", [], {})


def _json_type(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return float if isinstance(value, (int, float)) else type(value)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mutated_documents_raise_only_forest_format_error(data):
    doc = data.draw(forest_documents(max_h=3))
    path, in_dict = data.draw(st.sampled_from(list(_locations(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if in_dict and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        old = parent[path[-1]]
        parent[path[-1]] = data.draw(
            st.sampled_from([v for v in _JSON_VALUES if _json_type(v) != _json_type(old)])
        )
    with pytest.raises(ForestFormatError):
        load_forest(json.dumps(doc))
