"""qrforest benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload qpe-wide --seed 1 --seconds 25 --trace 0

Every process this starts runs one closed loop with one client and BLAS
pinned to one thread, in a fresh process and a fresh working directory under
``.perfbench_work/``.  With ``--trace 0`` the run sets the workload up
several times and measures the end-to-end metrics once, untraced.  With
``--trace 1`` it measures the loop untraced and then traced, in two
processes, and times the gate kernels in a third; that gives the per-layer
metrics and the tracing overhead.  The report lines name every metric with
its unit and, for a per-layer metric, the end-to-end metric it should move;
the last line is the JSON result.  See README.md for the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
BUDGET_S = 170.0
SETUPS = 3  # set-ups per --trace 0 run; setup_s is their median
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("qpe-wide", "small-mixed", "classical-large")

# Gated end-to-end metrics, in BENCHMARK.json.  The per-call percentiles are
# only reported: on a shared 2-vCPU guest the host's speed flips between
# modes every few seconds, and a run's p50 lands in one mode or another, so
# its run-to-run spread exceeds any bound allowed (see README.md).
END_TO_END = (
    ("forecast_s.mean", "s"),
    ("forecasts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
REPORTED = (("forecast_s.p50", "s"), ("forecast_s.tail", "s"), ("generate_s.p50", "s"))

_QPE = "forecast_s.mean on qpe-wide (none on classical-large)"
_SMALL = "forecasts_per_s on small-mixed"
_LOAD = "forecast_s.mean and peak_rss_mb on classical-large"
PER_LAYER = [
    ("cli.main.self_s", "s", "forecast_s.mean and generate_s.p50 on classical-large"),
    ("forest_io.load_forest.s", "s", _LOAD),
    ("forest_io.load_forest.calls", "count", _LOAD),
    ("forest_io.load_forest.bytes", "B", _LOAD),
    ("forest_io.save_forest.s", "s", "generate_s.p50, forecasts_per_s and peak_rss_mb on classical-large"),
    ("forest_io.forest_fingerprint.s", "s", _SMALL),
    ("forest_io.forest_fingerprint.calls", "count", _SMALL),
    ("model.forecast_classical.s", "s", "forecast_s.mean on classical-large"),
    ("model.beta_classical.s", "s", "forecast_s.mean on classical-large"),
    ("model.generate_random_forest.s", "s", "generate_s.p50 and forecasts_per_s on classical-large"),
    ("compiler.compile_forest_op.s", "s", _SMALL),
    ("compiler.compile_forest_op.calls", "count", _SMALL),
    ("compiler.grover_iterate.s", "s", _SMALL),
    ("compiler.gates_per_q", "count", _SMALL),
    ("compiler.width", "count", _SMALL),
]
PER_LAYER += [(f"statevector.apply.calls.{k}", "count", _QPE) for k in ("h", "x", "u", "swap", "ucg", "ucr")]
PER_LAYER += [(f"statevector.apply.s.{k}", "s", _QPE) for k in ("h", "x", "u", "swap", "ucg", "ucr")]
PER_LAYER += [
    ("statevector.amps_touched", "count", _QPE),
    ("statevector.peak_state_bytes", "B", "forecast_s.mean and peak_rss_mb on qpe-wide"),
]
PER_LAYER += [
    (f"statevector.ns_per_amp.{k}.q{n}", "ns", _QPE)
    for k in ("h", "x", "cx", "u", "swap", "ucg", "ucr")
    for n in (11, 16, 20)
]
PER_LAYER += [
    ("qae.engine_build.s", "s", "forecast_s.mean on qpe-wide"),
    ("qae.engine_builds", "count", _SMALL),
    ("qae.engine_lookups", "count", _SMALL),
    ("qae.engine_cache_hit_ratio", "ratio", _SMALL),
    ("qae.boost.s", "s", _SMALL),
    ("qae.grover_calls", "count", "logical count of the paper's algorithm; fixed by n, h, t, reps"),
    ("qae.u_invocations", "count", "logical count of the paper's algorithm; fixed by n, h, t, reps"),
    ("qae.query_count", "count", "logical count of the paper's algorithm; fixed by n, h, t, reps"),
    ("trace.overhead_ratio", "ratio", "traced forecast_s.p50 over untraced, same workload"),
    ("trace.accounted_share", "ratio", "median time inside wrapped calls per forecast over traced p50"),
    ("trace.absent_entry_points", "count", "wrapped names the program no longer has"),
]


class BenchError(Exception):
    pass


def run_worker(args, role: str, deadline: float, traced: int = 0) -> dict:
    os.makedirs(WORK, exist_ok=True)
    cwd = tempfile.mkdtemp(prefix=f"{args.workload}-{role}-", dir=WORK)
    env = dict(os.environ, **{v: BLAS_THREADS for v in BLAS_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role,
           "--traced", str(traced)]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker ran past the {BUDGET_S:.0f} s budget") from None
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    forecast, generate = main["latencies"]["forecast"], main["latencies"]["generate"]
    tail_s, tail_pct = tail(forecast)
    values = {
        "forecast_s.mean": statistics.mean(forecast),
        "forecast_s.p50": statistics.median(forecast),
        "forecast_s.tail": tail_s,
        "forecasts_per_s": main["forecasts"] / main["loop_s"],
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(w["setup_s"] for w in setups + [main]),
    }
    notes = [
        f"forecast_s.tail is p{tail_pct:.1f} of {len(forecast)} forecasts",
        f"setup_s is the median of {len(setups) + 1} set-ups",
    ]
    if generate:
        values["generate_s.p50"] = statistics.median(generate)
        notes.append(f"generate_s.p50 is over {len(generate)} generate calls")
    return values, notes


def per_layer(plain: dict, traced: dict, kernels: dict) -> tuple[dict, list[str]]:
    values = dict(traced["trace"]["metrics"])
    values.update(traced["logical"])
    for name, _, _ in PER_LAYER:
        if name.startswith("statevector.ns_per_amp."):
            values[name] = kernels["kernels"].get(name, 0.0)
    traced_p50 = statistics.median(traced["latencies"]["forecast"])
    values["trace.overhead_ratio"] = traced_p50 / statistics.median(plain["latencies"]["forecast"])
    layers = traced["trace"]["layers"]
    values["trace.accounted_share"] = layers["forecast"]["accounted_p50_s"] / traced_p50
    values["trace.absent_entry_points"] += len(kernels["absent"])

    notes = [
        f"absent: {', '.join(traced['trace']['absent'] + kernels['absent']) or 'none'}",
        f"accounting: median time inside wrapped calls per forecast "
        f"{layers['forecast']['accounted_p50_s']:.4g} s; traced p50 {traced_p50:.4g} s = untraced p50 "
        f"{statistics.median(plain['latencies']['forecast']):.4g} s x overhead {values['trace.overhead_ratio']:.4f}",
    ]
    for kind, row in layers.items():
        shares = "  ".join(f"{layer}={s:.4g}s ({s / row['mean_s']:.1%})" for layer, s in row["self_s"].items())
        notes.append(f"self time per {kind} (mean {row['mean_s']:.4g} s over {row['requests']}): {shares}")
    for parent, name, calls, dt, self_dt in traced["trace"]["span_tree"]:
        notes.append(f"span {parent} > {name}: calls={calls} total={dt:.4g}s self={self_dt:.4g}s")
    for name, value in sorted(kernels["kernels"].items()):
        kind, n = name.split(".")[2], int(name.split(".")[3][1:])
        touched = 2 ** (n - 1) if kind in ("cx", "swap") else 2**n
        moved = 2 * 16 * touched  # read and write each touched complex128 amplitude once
        notes.append(f"{name}: computed bytes moved {moved} B, computed rate "
                     f"{moved / (value * 2**n):.3g} GB/s")
    return values, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qrforest", "__init__.py")):
        print("error: src/qrforest not found next to perfbench/", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S

    try:
        if args.trace:
            plain = run_worker(args, "measure", deadline)
            traced = run_worker(args, "measure", deadline, traced=1)
            kernels = run_worker(args, "kernels", deadline)
            workers, main_worker = [plain, traced, kernels], plain
            e2e, e2e_notes = end_to_end(plain, [])
            layer, layer_notes = per_layer(plain, traced, kernels)
        else:
            setups = [run_worker(args, "setup", deadline) for _ in range(SETUPS - 1)]
            main_worker = run_worker(args, "measure", deadline)
            workers = setups + [main_worker]
            e2e, e2e_notes = end_to_end(main_worker, setups)
            layer, layer_notes = None, []
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORK)
        except OSError:  # still in use by another run, or never made
            pass

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    info = dict(main_worker["info"], loop="closed, 1 client", blas_threads=int(BLAS_THREADS))
    if args.workload == "small-mixed":
        info["repeat_share"] = main_worker["repeat_share"]
    w = args.workload
    print(f"workload {w}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"{w} workload " + json.dumps(info, sort_keys=True))
    for name, unit in END_TO_END + REPORTED:
        if name in e2e:
            print(f"{w} {name} = {e2e[name]:.6g} {unit}")
    print(f"{w} error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    rate = main_worker["within_bound_rate"]
    if rate is not None:
        print(f"{w} within_bound_rate = {rate:.6g} ratio "
              f"(first {main_worker['within_window']} quantum forecasts)")
    for note in e2e_notes:
        print(f"{w} note: {note}")
    if layer is not None:
        for name, unit, moves in PER_LAYER:
            print(f"{w} {name} = {layer[name]:.6g} {unit}  -> {moves}")
        for note in layer_notes:
            print(f"{w} trace: {note}")

    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
