import argparse
import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qrforest import cli, qae
from qrforest.cli import _emit, _read_text, main
from qrforest.config import MAX_FOREST_BYTES, MAX_FOREST_SLOTS, MAX_INPUT_BYTES, MAX_PAIRS_LINE
from qrforest.exceptions import ForestFormatError, QrfError
from qrforest.forest_io import load_forest, save_forest
from qrforest.model import Attribute, RandomForest, beta_to_R
from qrforest.qae import MAX_REPETITIONS, QaeConfig, run_forecast
from qrforest.reference import reference_forest, reference_input
from conftest import forest_documents, two_leaf_forest


def run_cli(*argv):
    return main(list(argv))


def write_two_tree_forest(tmp_path):
    forest = two_leaf_forest((3.0, 3.0), (7.0, 7.0))
    path = tmp_path / "forest.json"
    path.write_text(save_forest(forest))
    return path


def test_generate_round_trips_and_is_deterministic(tmp_path, capsys):
    out = tmp_path / "f.json"
    args = ["generate", "-n", "2", "--height", "2", "--attrs", "disc:2,disc:2,disc:2",
            "--range", "0:1", "--seed", "5", "--out", str(out)]
    assert run_cli(*args) == 0
    first = out.read_text()
    assert run_cli(*args) == 0
    assert out.read_text() == first
    forest = load_forest(first)
    assert forest.n == 2 and forest.height == 2
    assert all(a == Attribute("discrete", 2) for a in forest.schema)


def test_generate_to_stdout(capsys):
    assert run_cli("generate", "-n", "1", "--height", "1", "--attrs", "real") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 1


def test_generate_rejects_height_above_limit(tmp_path):
    # one tree of height 21 already exceeds the slot budget
    height = MAX_FOREST_SLOTS.bit_length()
    out = tmp_path / "f.json"
    assert run_cli("generate", "-n", "1", "--height", str(height),
                   "--attrs", "real", "--out", str(out)) == 3
    assert not out.exists()
    doc = {"n": 1, "h": height, "schema": [{"kind": "real"}], "trees": []}
    with pytest.raises(ForestFormatError, match="n \\* 2\\^h must be"):
        load_forest(json.dumps(doc))


def test_generate_rejects_forests_above_the_slot_budget(tmp_path):
    # h = 20 alone fits; two such trees do not
    out = tmp_path / "f.json"
    assert run_cli("generate", "-n", "2", "--height", "20", "--attrs", "real",
                   "--out", str(out)) == 3
    assert not out.exists()


def test_generate_accepts_a_spaced_negative_range(tmp_path):
    common = ["generate", "-n", "2", "--height", "2", "--attrs", "real,disc:2", "--seed", "3"]
    spaced, glued = tmp_path / "spaced.json", tmp_path / "glued.json"
    assert run_cli(*common, "--range", "-2:5", "--out", str(spaced)) == 0
    assert run_cli(*common, "--range=-2:5", "--out", str(glued)) == 0
    assert spaced.read_bytes() == glued.read_bytes()
    assert load_forest(spaced.read_text()).y_min >= -2.0


@pytest.mark.parametrize("token", ["disc:x", "disc:", "disc:99999999999999999999", "disc:9007199254740993"])
def test_generate_names_a_bad_category_count(tmp_path, capsys, token):
    out = tmp_path / "f.json"
    assert run_cli("generate", "-n", "1", "--height", "1", "--attrs", f"real,{token}",
                   "--out", str(out)) == 3
    assert f"bad attribute token {token!r}" in capsys.readouterr().err
    assert not out.exists()


def test_category_count_of_two_to_the_53_is_the_largest(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert run_cli("generate", "-n", "1", "--height", "2", "--attrs", f"disc:{2**53}", "--out", str(out)) == 0
    assert load_forest(out.read_text()).schema == (Attribute("discrete", 2**53),)
    doc = json.loads(out.read_text())
    doc["schema"][0]["categories"] = 2**53 + 1
    out.write_text(json.dumps(doc))
    assert run_cli("forecast", "--forest", str(out), "--input", "1", "--mode", "classical") == 3
    assert "schema[0]: categories must be <= 2^53 (inputs are float64)" in capsys.readouterr().err


@pytest.mark.parametrize("argv,digest", [
    (["-n", "4", "--height", "3", "--range=-1:3", "--seed", "11"],
     "79e1f3e1f05bd82fddf56959ce7d4361886a00c92856101e5cbba670abfdf557"),
    (["-n", "64", "--height", "10", "--range", "0:1", "--seed", "7"],
     "0bb6e4c842e9bd18b765c859b399f8f26de24e3824d9568ab6c52761105b6f8f"),
], ids=["n4-h3", "n64-h10"])
def test_generate_golden_bytes(tmp_path, argv, digest):
    # bytes captured before forests were stored as arrays
    out = tmp_path / "f.json"
    assert run_cli("generate", *argv, "--attrs", "real,disc:2,disc:3,real", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_forecast_classical_mean(tmp_path, capsys):
    path = write_two_tree_forest(tmp_path)
    code = run_cli("forecast", "--forest", str(path), "--input", "0.2",
                   "--mode", "classical", "--format", "structured")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classical"]["r"] == 5.0
    assert "quantum" not in doc


def test_forecast_both_report_consistency(tmp_path, capsys):
    forest = two_leaf_forest((1.0, 2.0), (4.0, 3.0))
    path = tmp_path / "f.json"
    path.write_text(save_forest(forest))
    code = run_cli("forecast", "--forest", str(path), "--input", "0.9",
                   "--t", "16", "--seed", "3", "--format", "structured")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    q = doc["quantum"]
    assert q["r_estimate"] == pytest.approx(
        beta_to_R(q["beta_estimate"], doc["forest"]["y_min"], doc["forest"]["y_max"])
    )
    assert q["grover_calls"] == 15
    assert q["u_invocations"] == 31
    assert q["query_count"] == 31  # h = 1
    assert doc["comparison"]["MSE"] == pytest.approx(doc["comparison"]["RMSE"] ** 2)
    assert doc["classical"]["r"] == pytest.approx(2.5)


def test_forecast_structured_output_is_bit_reproducible(tmp_path):
    path = write_two_tree_forest(tmp_path)
    outputs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        assert run_cli("forecast", "--forest", str(path), "--input", "0.2",
                       "--t", "8", "--seed", "11", "--format", "structured",
                       "--out", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_forecast_input_from_file(tmp_path, capsys):
    path = write_two_tree_forest(tmp_path)
    input_file = tmp_path / "input.csv"
    input_file.write_text("0.9\n")
    assert run_cli("forecast", "--forest", str(path), "--input", str(input_file),
                   "--mode", "classical", "--format", "structured") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"] == [0.9]


needs_dev_zero = pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")


def _traced_run(*argv):
    tracemalloc.start()
    try:
        code = run_cli(*argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@needs_dev_zero
def test_forecast_refuses_an_endless_forest(tmp_path, monkeypatch, capsys):
    # The real cap, 256 MiB, would hold that much of /dev/zero; a smaller one
    # shows that reading stops one byte past it.
    monkeypatch.setattr(cli, "MAX_FOREST_BYTES", 1 << 20)
    code, peak = _traced_run("forecast", "--forest", "/dev/zero", "--input", "0.2")
    assert code == 3
    assert capsys.readouterr().err == f"error: /dev/zero: longer than {1 << 20} bytes\n"
    assert peak < 3 << 20
    path = write_two_tree_forest(tmp_path)
    text = path.read_text()
    monkeypatch.setattr(cli, "MAX_FOREST_BYTES", len(text))
    assert run_cli("forecast", "--forest", str(path), "--input", "0.2", "--mode", "classical") == 0
    monkeypatch.setattr(cli, "MAX_FOREST_BYTES", len(text) - 1)
    assert run_cli("forecast", "--forest", str(path), "--input", "0.2", "--mode", "classical") == 3
    assert f"{path}: longer than {len(text) - 1} bytes" in capsys.readouterr().err


@needs_dev_zero
def test_forecast_refuses_an_endless_input_file(tmp_path, capsys):
    path = write_two_tree_forest(tmp_path)
    code, peak = _traced_run("forecast", "--forest", str(path), "--input", "/dev/zero")
    assert code == 3
    assert capsys.readouterr().err == f"error: /dev/zero: longer than {MAX_INPUT_BYTES} bytes\n"
    assert peak < 3 * MAX_INPUT_BYTES
    big = tmp_path / "input.csv"
    big.write_text("0.9".ljust(MAX_INPUT_BYTES))
    assert run_cli("forecast", "--forest", str(path), "--input", str(big), "--mode", "classical") == 0
    big.write_text("0.9".ljust(MAX_INPUT_BYTES + 1))
    assert run_cli("forecast", "--forest", str(path), "--input", str(big), "--mode", "classical") == 3
    assert f"{big}: longer than {MAX_INPUT_BYTES} bytes" in capsys.readouterr().err


@needs_dev_zero
def test_metrics_refuses_an_endless_pairs_line(tmp_path, capsys):
    code, peak = _traced_run("metrics", "--pairs", "/dev/zero")
    assert code == 3
    assert capsys.readouterr().err == f"error: /dev/zero:1: longer than {MAX_PAIRS_LINE} characters\n"
    assert peak < 1 << 20
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("2 1\n" + "1 2".ljust(MAX_PAIRS_LINE - 1) + "\n")
    assert run_cli("metrics", "--pairs", str(pairs)) == 0
    pairs.write_text("2 1\n" + "1 2".ljust(MAX_PAIRS_LINE) + "\n")
    assert run_cli("metrics", "--pairs", str(pairs)) == 3
    assert f"{pairs}:2: longer than {MAX_PAIRS_LINE} characters" in capsys.readouterr().err


def test_metrics_refuses_more_than_max_pairs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_PAIRS", 3)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1 1\n\n2 1\n")  # a blank line holds no pair
    assert run_cli("metrics", "--pairs", str(pairs)) == 0
    assert capsys.readouterr().out.startswith("pairs: 2\n")
    pairs.write_text("1 1\n2 1\n1 2\n3 3\n")
    assert run_cli("metrics", "--pairs", str(pairs)) == 3
    assert capsys.readouterr().err == f"error: {pairs}: more than 3 lines\n"


def test_metrics_counts_blank_lines_against_the_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_PAIRS", 3)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("\n\n\n1 2\n")
    assert run_cli("metrics", "--pairs", str(pairs)) == 3
    assert capsys.readouterr().err == f"error: {pairs}: more than 3 lines\n"


def test_metrics_memory_at_two_to_the_16_pairs(tmp_path, capsys):
    # Each pair is two float64 entries of two columns, not an object.
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("2 1.5\n" * 2**16)
    code, peak = _traced_run("metrics", "--pairs", str(pairs))
    assert code == 0
    assert capsys.readouterr().out.startswith(f"pairs: {2**16}\nMAE: 0.5\n")
    assert peak < 4 << 20


@pytest.mark.parametrize("command", (
    ("forecast", "--forest", "@", "--input", "0.2"),
    ("forecast", "--forest", "@forest", "--input", "@"),
    ("metrics", "--pairs", "@"),
))
def test_an_undecodable_file_is_named(tmp_path, capsys, command):
    path = tmp_path / "undecodable.txt"
    path.write_bytes(b"0.5\n\xff\n")
    with pytest.raises(UnicodeDecodeError) as decoding:
        with open(path) as fh:
            fh.read()
    forest = write_two_tree_forest(tmp_path)
    argv = [str(path) if a == "@" else str(forest) if a == "@forest" else a for a in command]
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err == f"error: {path}: {decoding.value}\n"


@pytest.mark.parametrize("raw", (
    b"0.5,\r\n1\r2\n", b"\xc3\xa9t\xc3\xa9\r", b"", b"\xff\xfe bad", b"ok\xc3",
))
def test_capped_read_decodes_as_text_mode_open(tmp_path, raw):
    path = tmp_path / "f.txt"
    path.write_bytes(raw)
    try:
        with open(path) as fh:
            expected = fh.read()
    except UnicodeDecodeError as e:
        with pytest.raises(QrfError) as got:
            _read_text(str(path), 64)
        assert str(got.value) == f"{path}: {e}"
    else:
        assert _read_text(str(path), 64) == expected


def test_forest_cap_covers_canonical_documents_at_the_slot_budget():
    # Every number at the longest repr a finite double has, in a forest of
    # 2^12 slots, whose 4-digit heap indices are 3 digits short of the 7 at
    # 2^20 slots; one node and one leaf index a slot.
    slots, longest = 4 * 2**10, -1.2345678901234567e-300
    full = np.full((4, 2**10), longest)
    forest = RandomForest((Attribute("real"),) * 12, np.zeros(full.shape), np.full(full.shape, 12), full, full)
    per_slot = len(save_forest(forest).encode()) / slots
    assert 170 < per_slot < 190
    assert (per_slot + 2 * 3) * MAX_FOREST_SLOTS <= MAX_FOREST_BYTES


def test_forecast_literal_input_is_not_shadowed_by_a_file(tmp_path, monkeypatch, capsys):
    path = write_two_tree_forest(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "0.2").write_text("0.9\n")
    assert run_cli("forecast", "--forest", str(path), "--input", "0.2",
                   "--mode", "classical", "--format", "structured") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"] == [0.2]


def test_forecast_degenerate_range_short_circuits(tmp_path, capsys):
    forest = two_leaf_forest((2.0, 2.0))
    path = tmp_path / "f.json"
    path.write_text(save_forest(forest))
    code = run_cli("forecast", "--forest", str(path), "--input", "0.2",
                   "--format", "structured")
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["quantum"]["degenerate_range"] is True
    assert doc["quantum"]["r_estimate"] == 2.0
    assert "constant forecast" in captured.err


def test_forecast_target_beta_comparison(tmp_path, capsys):
    forest = two_leaf_forest((1.0, 2.0), (4.0, 3.0))
    path = tmp_path / "f.json"
    path.write_text(save_forest(forest))
    assert run_cli("forecast", "--forest", str(path), "--input", "0.9",
                   "--t", "16", "--seed", "3", "--target", "beta",
                   "--format", "structured") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["comparison"]["MAE"] == pytest.approx(
        abs(doc["classical"]["beta"] - doc["quantum"]["beta_estimate"])
    )


def test_forecast_missing_file_exit_code(tmp_path):
    assert run_cli("forecast", "--forest", str(tmp_path / "nope.json"),
                   "--input", "0.2") == 3


def test_forecast_malformed_forest_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert run_cli("forecast", "--forest", str(path), "--input", "0.2") == 3


def test_forecast_unsupported_tree_count_exit_code(tmp_path, capsys):
    assert run_cli("generate", "-n", "3", "--height", "1", "--attrs", "real",
                   "--out", str(tmp_path / "f3.json")) == 0
    assert run_cli("forecast", "--forest", str(tmp_path / "f3.json"),
                   "--input", "0.5", "--mode", "quantum") == 3


def test_forecast_resource_exit_code(tmp_path):
    path = write_two_tree_forest(tmp_path)
    assert run_cli("forecast", "--forest", str(path), "--input", "0.2",
                   "--t", str(2**20)) == 4


def test_forecast_width_is_checked_before_compiling(tmp_path, capsys):
    # 1 + 16 + 1 work qubits + 5 phase qubits: one over the cap.  The tiny
    # document loads into 2^16 slots (1.3 MiB of arrays); compiling it would
    # peak at about 400 MiB under tracemalloc, refusing it takes 2.1 MiB.
    path = tmp_path / "tall.json"
    path.write_text(json.dumps({
        "n": 1, "h": 16, "schema": [{"kind": "real"}],
        "trees": [{"nodes": {"1": {"kind": "threshold-greater", "attr": 1, "threshold": 0.5}},
                   "leaves": {"2": 0.0, "3": 1.0}}],
    }))
    tracemalloc.start()
    try:
        code = run_cli("forecast", "--forest", str(path), "--input", "0.7", "--mode", "quantum", "--t", "32")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert "23 qubits (18 work + 5 phase) exceeds the simulator cap of 22" in capsys.readouterr().err
    assert peak < 8 << 20
    assert run_cli("reproduce", "--t", str(2**20)) == 4
    assert "25 qubits (5 work + 20 phase)" in capsys.readouterr().err


def _no_simulation(circuit, t):
    raise AssertionError("PhaseEstimation was built")


def _no_compile(forest, x):
    raise AssertionError("the forest was compiled")


def test_forecast_refuses_a_negative_seed_before_simulating(tmp_path, monkeypatch, capsys):
    path = write_two_tree_forest(tmp_path)
    monkeypatch.setattr(qae, "PhaseEstimation", _no_simulation)
    assert run_cli("forecast", "--forest", str(path), "--input", "0.2", "--seed", "-1") == 3
    assert "seed" in capsys.readouterr().err
    assert run_cli("forecast", "--forest", str(path), "--input", "0.2", "--mode", "classical",
                   "--seed", "-1") == 0


def test_reproduce_refuses_a_negative_seed_before_simulating(monkeypatch, capsys):
    monkeypatch.setattr(qae, "PhaseEstimation", _no_simulation)
    assert run_cli("reproduce", "--seed", "-3") == 3
    assert "seed" in capsys.readouterr().err


def test_forecast_subnormal_delta(tmp_path, capsys):
    # -log(delta) stays finite where 1 / delta overflows
    path = write_two_tree_forest(tmp_path)
    assert run_cli("forecast", "--forest", str(path), "--input", "0.2",
                   "--t", "8", "--delta", "1e-320", "--format", "structured") == 0
    assert json.loads(capsys.readouterr().out)["quantum"]["repetitions"] == 8843


def test_forecast_takes_reps_or_delta_not_both(tmp_path, capsys):
    path = write_two_tree_forest(tmp_path)
    base = ("forecast", "--forest", str(path), "--input", "0.2", "--t", "8", "--format", "structured")
    assert run_cli(*base, "--reps", "3", "--delta", "0.1") == 3
    assert "give repetitions or delta, not both" in capsys.readouterr().err
    for flags, repetitions in (((), 1), (("--reps", "3"), 3), (("--delta", "0.1"), 29)):
        assert run_cli(*base, *flags) == 0
        assert json.loads(capsys.readouterr().out)["quantum"]["repetitions"] == repetitions


def test_forecast_repetitions_above_the_ceiling_exit_code(tmp_path, capsys):
    assert MAX_REPETITIONS == 8935
    path = write_two_tree_forest(tmp_path)
    assert run_cli("forecast", "--forest", str(path), "--input", "0.2",
                   "--reps", str(MAX_REPETITIONS + 2)) == 4
    assert "8935" in capsys.readouterr().err
    assert run_cli("reproduce", "--runs", str(MAX_REPETITIONS + 1)) == 4


def test_forecast_repetition_cap_fires_before_compiling(tmp_path, monkeypatch, capsys):
    path = write_two_tree_forest(tmp_path)
    monkeypatch.setattr(qae, "compile_forest_op", _no_compile)
    assert run_cli("forecast", "--forest", str(path), "--input", "0.2", "--mode", "quantum",
                   "--reps", str(MAX_REPETITIONS + 2)) == 4
    assert f"{MAX_REPETITIONS + 2} runs requested" in capsys.readouterr().err


def test_reproduce_report(tmp_path, capsys):
    assert run_cli("reproduce", "--runs", "10", "--seed", "0",
                   "--format", "structured") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["t"] == 32
    assert doc["beta_classical"] == pytest.approx(0.1596, abs=1e-12)
    assert doc["r_classical"] == pytest.approx(0.5596, abs=1e-12)
    assert doc["success_floor"] == pytest.approx(8 / math.pi**2)
    grid = [math.sin(math.pi * k / 32) ** 2 for k in range(17)]
    for row in doc["results"]:
        assert any(abs(row["beta_estimate"] - v) < 1e-12 for v in grid)
    assert len(doc["results"]) == 10
    assert 0.0 <= doc["summary"]["success_rate"] <= 1.0


def test_reproduce_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("reproduce", "--runs", "6", "--seed", "9",
                       "--format", "structured", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_golden_outcomes(capsys):
    assert run_cli("reproduce", "--runs", "5", "--seed", "0", "--format", "structured") == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["outcome"] for row in doc["results"]] == [28, 28, 28, 4, 28]


@pytest.mark.parametrize("runs,seed", [(1, 0), (5, 0), (5, 9), (7, 3)])
def test_reproduce_draws_the_boosting_stream(capsys, runs, seed):
    assert run_cli("reproduce", "--runs", str(runs), "--seed", str(seed),
                   "--format", "structured") == 0
    doc = json.loads(capsys.readouterr().out)
    result = run_forecast(reference_forest(), reference_input(), QaeConfig(t=doc["t"], repetitions=runs, seed=seed))
    assert tuple(row["beta_estimate"] for row in doc["results"]) == result.raw_estimates


@pytest.mark.parametrize("t", ["0", "3", "-4"])
def test_reproduce_rejects_a_bad_phase_grid(capsys, t):
    assert run_cli("reproduce", "--t", t) == 3
    assert "t must be a power of two >= 2" in capsys.readouterr().err


def test_reproduce_text_format(capsys):
    assert run_cli("reproduce", "--runs", "3", "--seed", "1") == 0
    text = capsys.readouterr().out
    assert "success_rate" in text and "beta" in text


def test_metrics_single_pair(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("2 1\n")
    assert run_cli("metrics", "--pairs", str(pairs), "--format", "structured") == 0
    doc = json.loads(capsys.readouterr().out)
    m = doc["metrics"]
    assert m["MAE"] == m["MSE"] == m["RMSE"] == 1.0
    assert m["MAPE"] == m["wMAPE"] == 0.5
    assert m["sMAPE"] == pytest.approx(1 / 3)


def test_metrics_identical_columns_are_zero(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1.5,1.5\n-2,-2\n4,4\n")
    assert run_cli("metrics", "--pairs", str(pairs), "--format", "structured") == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(v == 0.0 for v in doc["metrics"].values())


def test_metrics_flags_degenerate_rows_per_metric(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n2 1\n")
    assert run_cli("metrics", "--pairs", str(pairs), "--format", "structured") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metrics"]["MAPE"] is None  # zero truth in one row
    assert doc["metrics"]["MAE"] == 1.0


def test_metrics_subset_and_bad_name(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("2 1\n")
    assert run_cli("metrics", "--pairs", str(pairs), "--metrics", "MAE,RMSE",
                   "--format", "structured") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["metrics"]) == {"MAE", "RMSE"}
    assert run_cli("metrics", "--pairs", str(pairs), "--metrics", "MAD") == 3


def test_metrics_checks_names_before_reading(tmp_path, capsys):
    assert run_cli("metrics", "--pairs", str(tmp_path / "missing.txt"), "--metrics", "MAD") == 3
    assert "unknown metric 'MAD'" in capsys.readouterr().err


def test_metrics_malformed_line(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("2 1 7\n")
    assert run_cli("metrics", "--pairs", str(pairs)) == 3


@pytest.mark.parametrize("bad", ("nan", "inf", "-inf"))
def test_metrics_refuses_non_finite_pairs(tmp_path, capsys, bad):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"2 1\n1 {bad}\n")
    assert run_cli("metrics", "--pairs", str(pairs), "--format", "structured") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{pairs}:2: values must be finite" in captured.err


def test_metrics_that_overflow_are_degenerate(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1e200 -1e200\n")
    assert run_cli("metrics", "--pairs", str(pairs), "--format", "structured") == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["metrics"]["MAE"] == 2e200
    assert doc["metrics"]["MSE"] is None and doc["metrics"]["RMSE"] is None
    assert captured.err == ""  # no RuntimeWarning
    assert run_cli("metrics", "--pairs", str(pairs)) == 0
    assert "MSE: degenerate" in capsys.readouterr().out


def test_forecast_refuses_labels_whose_sums_overflow(tmp_path, capsys):
    doc = {"n": 1, "h": 1, "schema": [{"kind": "real"}], "trees": [{
        "nodes": {"1": {"kind": "threshold-greater", "attr": 1, "threshold": 0.5}},
        "leaves": {"2": -1e308, "3": 1e308},
    }]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ForestFormatError, match="leaf labels too large"):
        load_forest(path.read_text())
    assert run_cli("forecast", "--forest", str(path), "--input", "0.9",
                   "--mode", "both", "--format", "structured") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "leaf labels too large" in captured.err


def test_generate_refuses_labels_whose_sums_overflow(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert run_cli("generate", "-n", "2", "--height", "1", "--attrs", "real",
                   "--range", "1e307:1.7e308", "--out", str(out)) == 3
    assert "leaf labels too large" in capsys.readouterr().err
    assert not out.exists()


def test_structured_output_refuses_non_finite_numbers():
    args = argparse.Namespace(format="structured", out=None)
    with pytest.raises(ValueError, match="not JSON compliant"):
        _emit({"value": math.nan}, "", args)


# The CLI property's grammar: per command, each flag's valid and invalid
# values.  A value "@name" is a file the test writes into its temporary
# directory ("@missing" is never written, "@" is the directory itself); the
# caps are patched small so that an over-cap file costs a few bytes.
_SMALL_CAPS = {"MAX_FOREST_BYTES": 1 << 15, "MAX_INPUT_BYTES": 64, "MAX_PAIRS_LINE": 64}
_FILES = {
    "forest3": save_forest(two_leaf_forest((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))),
    "flat": save_forest(two_leaf_forest((1.0, 1.0), (1.0, 1.0))),
    "forest_big": save_forest(two_leaf_forest((0.0, 1.0))).ljust(1 << 16),
    "nested": "[" * 20_000,
    "input": "0.5\n",
    "input_big": "0.5".ljust(65),
    "pairs": "1 2\n3,4\n\n0 0\n",
    "pairs_bad": "1 2 3\n",
    "pairs_nonfinite": "nan 1\n",
    "pairs_long": "1 2".ljust(65) + "\n",
    "pairs_huge": "1e308 -1e308\n-1e308 1e308\n",
    "garbage": b"\xff\xfe\x00{",
}
_MISSING = ("@missing", "@missing/file", "@", "/dev/null", "@garbage")
_OUT = (("@out", "-"), ("@", "@missing/out"))
_FORMAT = (("text", "structured"), ("json",))
_SEED = (("0", "7", str(2**70)), ("-1", "x"))
_T = (("2", "4", "8"), ("3", "0", "-2", "x", str(2**30)))
_GRAMMAR = {
    "generate": {
        "-n": (("1", "2", "3"), ("0", "-1", "x")),
        "--height": (("1", "2", "3"), ("0", "-1", "40", "x")),
        "--attrs": (("real", "real,disc:2", "disc:3,real", f"disc:{2**53}"), ("disc:0", "disc:x", "bogus", "",
                                                                            f"disc:{2**60}")),
        "--range": (("0:1", "-2:5", "1:1", "1:0"), ("x", "0:1:2", "nan:1", "-inf:1", "-1e308:1e308")),
        "--seed": _SEED,
        "--out": _OUT,
    },
    "forecast": {
        "--forest": (("@forest", "@forest3", "@flat"), ("@forest_big", "@nested", *_MISSING)),
        "--input": (("fit", "fit", "0.5", "1,1", "@input"),
                    ("", "nan", "inf", "-0", "1e400", "@input_big", *_MISSING)),
        "--mode": (("classical", "quantum", "both"), ("bogus",)),
        "--target": (("beta", "r"), ("bogus",)),
        "--t": _T,
        "--reps": (("1", "3"), ("2", "0", "-1", str(MAX_REPETITIONS + 2), "x")),
        "--delta": (("0.1", "0.3"), ("0", "0.5", "nan", "inf", "-1", "x")),
        "--seed": _SEED,
        "--format": _FORMAT,
        "--out": _OUT,
    },
    "reproduce": {
        "--runs": (("1", "3"), ("0", "-1", str(MAX_REPETITIONS + 1), "x")),
        "--t": _T,
        "--seed": _SEED,
        "--format": _FORMAT,
        "--out": _OUT,
    },
    "metrics": {
        "--pairs": (("@pairs", "@pairs_huge"), ("@pairs_bad", "@pairs_nonfinite", "@pairs_long", *_MISSING)),
        "--metrics": (("MAE", "MAE,RMSE", "sMAPE,MAPE"), ("bogus", "", ",")),
        "--format": _FORMAT,
        "--out": _OUT,
    },
}
_REQUIRED = {"-n", "--height", "--attrs", "--forest", "--input", "--pairs"}


@st.composite
def _cli_argv(draw):
    """A command, its required flags nearly always and each other flag half
    the time, each with a value that is valid seven times in eight, and now
    and then one stray token or an unknown command."""
    command = draw(st.sampled_from(tuple(_GRAMMAR))) if draw(st.integers(0, 19)) else "bogus"
    argv = [command]
    for flag, (valid, invalid) in _GRAMMAR.get(command, {}).items():
        if draw(st.integers(0, 19 if flag in _REQUIRED else 1)):
            argv += [flag, draw(st.sampled_from(valid if draw(st.integers(0, 7)) else invalid))]
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("--bogus", "-n", "--t", "1"))))
    return argv


def _mutated(draw, doc):
    """The document, or (one time in three) with one field replaced by a
    value of another type or one field dropped."""
    junk = st.one_of(st.none(), st.booleans(), st.sampled_from((0, -1, 3, 2**70, 1.5, "1", [], {})))
    choice = draw(st.integers(0, 8))
    if choice == 1:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(junk)
    elif choice == 2:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif choice == 3 and doc["trees"]:
        tree = doc["trees"][draw(st.integers(0, len(doc["trees"]) - 1))]
        tree[draw(st.sampled_from(("nodes", "leaves")))] = draw(junk)
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_with_a_documented_code(tmp_path, monkeypatch, capsys, data):
    """Whatever the arguments, ``main`` returns 0, 3 or 4 or argparse exits
    with 2; no other exception escapes."""
    for name, value in _SMALL_CAPS.items():
        monkeypatch.setattr(cli, name, value)
    for name, content in _FILES.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    doc = data.draw(forest_documents(max_h=3))
    fit = ",".join("1" * len(doc["schema"]))  # an input every schema admits
    (tmp_path / "forest").write_text(json.dumps(_mutated(data.draw, doc)))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else fit if a == "fit" else a
            for a in data.draw(_cli_argv())]
    try:
        code = main(argv)
    except SystemExit as e:
        assert e.code == 2, argv
    else:
        assert code in (0, 3, 4), argv
    capsys.readouterr()
