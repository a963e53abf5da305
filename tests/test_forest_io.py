import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrforest
from conftest import MIXED_SCHEMA, forest_documents
from qrforest import forest_io
from qrforest.config import MAX_FOREST_SLOTS
from qrforest.exceptions import ForestFormatError
from qrforest.forest_io import load_forest, save_forest
from qrforest.model import (
    Attribute,
    InputObject,
    RandomForest,
    forecast_classical,
    generate_random_forest,
    walk_forest,
)

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
    for key in ["03", "\u00b2", "\u0661"]:  # "²" and Arabic-Indic one are digits too
        doc = _minimal_doc()
        doc["trees"][0]["leaves"][key] = doc["trees"][0]["leaves"].pop("3")
        with pytest.raises(ForestFormatError, match="is not a decimal string"):
            load_forest(json.dumps(doc))


def test_index_key_with_a_digit_lookalike_rejected():
    # ":" follows "9" in ASCII, so a reader of digits as bytes minus "0"
    # would take "1:" for index 20, which this tree needs.
    node = {"kind": "threshold-greater", "attr": 1, "threshold": 0.5}
    tree = {"nodes": {"1": node, "2": node, "5": node, "10": node},
            "leaves": {"3": 1.0, "4": 2.0, "11": 3.0, "20": 4.0, "21": 5.0}}
    doc = {"n": 1, "h": 4, "schema": [{"kind": "real"}], "trees": [tree]}
    assert load_forest(json.dumps(doc)).leaf[0].tolist() == [2.0] * 4 + [4.0, 5.0] + [3.0] * 2 + [1.0] * 8
    tree["leaves"]["1:"] = tree["leaves"].pop("20")
    with pytest.raises(ForestFormatError) as e:
        load_forest(json.dumps(doc))
    assert str(e.value) == "trees[0].leaves['1:']: index key '1:' is not a decimal string"


@pytest.mark.parametrize("entries, key, message", [
    ("nodes", "0", "node index out of range [1, 1]"),
    ("nodes", "2", "node index out of range [1, 1]"),
    ("leaves", "0", "leaf index out of range [1, 3]"),
    ("leaves", "4", "leaf index out of range [1, 3]"),
])
def test_index_range_edges(entries, key, message):
    doc = _minimal_doc()
    doc["trees"][0][entries][key] = doc["trees"][0]["nodes"]["1"] if entries == "nodes" else 1.0
    with pytest.raises(ForestFormatError) as e:
        load_forest(json.dumps(doc))
    assert str(e.value) == f"trees[0].{entries}[{key!r}]: {message}"


@pytest.mark.parametrize("sign", [1, -1])
def test_integers_beyond_the_double_range_are_not_finite(sign):
    huge = sign * 10**400
    doc = _minimal_doc()
    doc["trees"][0]["nodes"]["1"]["threshold"] = huge
    with pytest.raises(ForestFormatError, match=r"nodes\['1'\]\.threshold: number must be finite"):
        load_forest(json.dumps(doc))
    doc = _minimal_doc()
    doc["trees"][0]["leaves"]["3"] = huge
    with pytest.raises(ForestFormatError, match=r"leaves\['3'\]: number must be finite"):
        load_forest(json.dumps(doc))


def _one_equals_node(categories):
    return json.dumps({"n": 1, "h": 1, "schema": [{"kind": "discrete", "categories": categories}], "trees": [
        {"nodes": {"1": {"kind": "equals", "attr": 1, "threshold": categories}}, "leaves": {"2": 1.0, "3": 2.0}}
    ]})


def test_category_counts_stop_at_two_to_the_53():
    # Inputs and thresholds are float64, where 2^53 + 1 rounds to 2^53.
    top = 2**53
    forest = load_forest(_one_equals_node(top))
    assert forecast_classical(forest, InputObject.of(float(top))) == 2.0
    assert forecast_classical(forest, InputObject.of(float(top - 1))) == 1.0
    for categories in (top + 1, 10**30):
        with pytest.raises(ForestFormatError) as e:
            load_forest(_one_equals_node(categories))
        assert str(e.value) == "schema[0]: categories must be <= 2^53 (inputs are float64)"


def test_index_key_beyond_the_digit_limit_names_its_location():
    key = "1" * 5000
    doc = _minimal_doc()
    doc["trees"][0]["leaves"][key] = 1.0
    with pytest.raises(ForestFormatError) as e:
        load_forest(json.dumps(doc))
    assert str(e.value) == f"trees[0].leaves[{key!r}]: index key of 5000 digits is out of range"


def test_integer_literals_beyond_the_digit_limit_are_refused():
    text = json.dumps(_minimal_doc())
    for field in ('"threshold": 0.5', '"n": 1'):
        assert field in text
        huge = field.split(" ")[0] + " " + "9" * 5000
        with pytest.raises(ForestFormatError, match="a number has more than 4300 digits"):
            load_forest(text.replace(field, huge))


def test_deeply_nested_document_is_refused():
    with pytest.raises(ForestFormatError, match="nested too deeply"):
        load_forest("[" * 200_000 + "]" * 200_000)


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


def _mutate_value(doc, data):
    """Delete one object field, or swap one value for a JSON value of
    another type."""
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


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mutated_documents_raise_only_forest_format_error(data):
    doc = data.draw(forest_documents(max_h=3))
    _mutate_value(doc, data)
    with pytest.raises(ForestFormatError):
        load_forest(json.dumps(doc))


def _loaded(text):
    """The four forest arrays as (dtype, shape, bytes), or the error message."""
    try:
        forest = load_forest(text)
    except ForestFormatError as e:
        return str(e)
    arrays = (forest.kind, forest.attribute, forest.threshold, forest.leaf)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_BAD_KEYS = (
    lambda k: "0" + k,
    lambda k: " " + k,
    lambda k: "+" + k,
    lambda k: k[0] + "_" + (k[1:] or "0"),
    lambda k: k.translate(_ARABIC_INDIC),
    lambda k: "²",
    lambda k: k + "\x00",
    lambda k: k + ",",
    lambda k: "",
)


def _entries(doc, data):
    """The nodes or the leaves object of one tree."""
    return data.draw(st.sampled_from(doc["trees"]))[data.draw(st.sampled_from(("nodes", "leaves")))]


def _predicate(doc, data):
    nodes = [node for tree in doc["trees"] for _, node in sorted(tree["nodes"].items())]
    return data.draw(st.sampled_from(nodes)) if nodes else {}


def _rename_key(doc, data):
    entries = _entries(doc, data)
    if entries:
        key = data.draw(st.sampled_from(sorted(entries)))
        entries[data.draw(st.sampled_from(_BAD_KEYS))(key)] = entries.pop(key)


def _odd_number(doc, data):
    tree = data.draw(st.sampled_from(doc["trees"]))
    value = data.draw(st.sampled_from(
        (10**400, -(10**400), 10**300, 2**64 + 1, math.inf, -math.inf, math.nan, True, "1", None)))
    if tree["nodes"] and data.draw(st.booleans()):
        tree["nodes"][data.draw(st.sampled_from(sorted(tree["nodes"])))]["threshold"] = value
    else:
        tree["leaves"][data.draw(st.sampled_from(sorted(tree["leaves"])))] = value


def _equals_threshold(doc, data):
    _predicate(doc, data).update(
        kind="equals",
        attr=data.draw(st.integers(1, len(doc["schema"]))),
        threshold=data.draw(st.sampled_from((1.5, 2.5, 0, 1, 3, 4))),
    )


def _odd_attr(doc, data):
    _predicate(doc, data)["attr"] = data.draw(st.sampled_from((0, 5, 1.0, True, None)))


def _odd_kind(doc, data):
    _predicate(doc, data)["kind"] = data.draw(st.sampled_from(("equal", "Equals", ["equals"], 1)))


def _extra_field(doc, data):
    _predicate(doc, data)["extra"] = 1


def _add_entry(doc, data):
    """Declare one more leaf or node: at a range edge, below a leaf, or
    anywhere."""
    tree = data.draw(st.sampled_from(doc["trees"]))
    h = doc["h"]
    below_leaves = sorted(2 * int(k) + b for k in tree["leaves"] for b in (0, 1))
    j = data.draw(st.one_of(
        st.sampled_from((0, 1, (1 << h) - 1, 1 << h, (2 << h) - 1, 2 << h)),
        st.sampled_from(below_leaves),
        st.integers(0, 4 << h),
    ))
    entry = data.draw(st.sampled_from((1.0, {"kind": "threshold-greater", "attr": 1, "threshold": 0.5})))
    tree["leaves" if entry == 1.0 else "nodes"][str(j)] = entry


def _drop_entry(doc, data):
    entries = _entries(doc, data)
    if entries:
        del entries[data.draw(st.sampled_from(sorted(entries)))]


def _keep(doc, data):
    pass


@pytest.mark.parametrize("mutate", [
    _keep, _mutate_value, _rename_key, _odd_number, _equals_threshold, _odd_attr, _odd_kind,
    _extra_field, _add_entry, _drop_entry,
])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_bulk_load_agrees_with_the_per_entry_parser(mutate, data):
    doc = data.draw(forest_documents(max_h=3))
    mutate(doc, data)
    text = json.dumps(doc)
    with mock.patch.object(forest_io, "_fill_forest", return_value=False):
        reference = _loaded(text)
    if isinstance(reference, str):
        assert _loaded(text) == reference
    else:  # a valid document never reaches the per-entry parser
        reached = AssertionError("per-entry parser reached")
        with mock.patch.object(forest_io, "_parse_tree", side_effect=reached):
            assert _loaded(text) == reference


def _tall_document():
    """Four trees of height 10 whose branches end early with probability
    1/5 at each internal index, so index keys run from 1 to 4 digits."""
    rng = np.random.default_rng(10)
    schema = [{"kind": "real"}, {"kind": "discrete", "categories": 3}]
    trees = []
    for _ in range(4):
        nodes, leaves, stack = {}, {}, [1]
        while stack:
            j = stack.pop()
            if j >= 1 << 10 or rng.random() < 0.2:
                leaves[str(j)] = float(rng.normal())
                continue
            if rng.random() < 0.5:
                nodes[str(j)] = {"kind": "equals", "attr": 2, "threshold": int(rng.integers(1, 4))}
            else:
                nodes[str(j)] = {"kind": "threshold-greater", "attr": 1, "threshold": float(rng.random())}
            stack += [2 * j, 2 * j + 1]
        trees.append({"nodes": nodes, "leaves": leaves})
    return {"n": 4, "h": 10, "schema": schema, "trees": trees}


def test_bulk_load_agrees_with_the_per_entry_parser_at_height_10():
    doc = _tall_document()
    keys = [k for tree in doc["trees"] for entries in tree.values() for k in entries]
    assert {len(k) for k in keys} == {1, 2, 3, 4}
    text = json.dumps(doc)
    with mock.patch.object(forest_io, "_fill_forest", return_value=False):
        reference = _loaded(text)
    reached = AssertionError("per-entry parser reached")
    with mock.patch.object(forest_io, "_parse_tree", side_effect=reached):
        assert _loaded(text) == reference


@pytest.mark.parametrize("pick", [min, max], ids=["shortest", "longest"])
@pytest.mark.parametrize("bad_key", _BAD_KEYS)
def test_bulk_load_agrees_with_the_per_entry_parser_at_height_10_on_a_bad_key(bad_key, pick):
    # A bad form of a short key stays within the longest key's digit count.
    doc = _tall_document()
    leaves = doc["trees"][2]["leaves"]  # the first two trees load before it raises
    key = pick(leaves, key=int)
    leaves[bad_key(key)] = leaves.pop(key)
    text = json.dumps(doc)
    with mock.patch.object(forest_io, "_fill_forest", return_value=False):
        reference = _loaded(text)
    assert reference.startswith("trees[2].leaves[")
    assert _loaded(text) == reference


_KIND_NAMES = ("threshold-greater", "equals")


def _indent2_document(forest):
    """The canonical document built as a dict and written by json itself."""
    schema = [{"kind": "real"} if a.kind == "real" else {"kind": "discrete", "categories": a.categories}
              for a in forest.schema]
    width = forest.leaf.shape[1]
    trees = []
    for i in range(forest.n):
        nodes = {}
        for j in range(1, width):
            kind = int(forest.kind[i, j])
            t = float(forest.threshold[i, j])
            nodes[str(j)] = {"kind": _KIND_NAMES[kind], "attr": int(forest.attribute[i, j]),
                             "threshold": int(t) if _KIND_NAMES[kind] == "equals" else t}
        leaves = {str(width + j): float(forest.leaf[i, j]) for j in range(width)}
        trees.append({"nodes": nodes, "leaves": leaves})
    doc = {"n": forest.n, "h": forest.height, "schema": schema, "trees": trees}
    return json.dumps(doc, indent=2) + "\n"


def test_save_writes_the_indent2_json_document():
    forest = RandomForest(
        (Attribute("real"), Attribute("discrete", 3)),
        kind=[[0, 0, 1, 0], [0, 1, 0, 1]],
        attribute=[[1, 1, 2, 1], [1, 2, 1, 2]],
        threshold=[[0.0, -0.0, 3.0, 1e-300], [0.0, 1.0, 1e300, 2.0]],
        leaf=[[-0.0, 1e-300, 1e300, 5e-324], [0.1, -2.5, 7.0, -1e300]],
    )
    assert save_forest(forest) == _indent2_document(forest)


@settings(deadline=None, max_examples=100)
@given(forest_documents())
def test_save_writes_the_indent2_json_document_for_documents(doc):
    forest = load_forest(json.dumps(doc))
    assert save_forest(forest) == _indent2_document(forest)


def test_load_and_save_leave_numpy_ma_unimported():
    # numpy.ma costs about 1 MB of RSS on its first import.
    code = (
        "import sys; from qrforest.forest_io import load_forest, save_forest\n"
        "from qrforest.model import Attribute, generate_random_forest\n"
        "f = generate_random_forest(4, 3, (Attribute('real'), Attribute('discrete', 3)), (0.0, 1.0), 1)\n"
        "save_forest(load_forest(save_forest(f)))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(qrforest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
