"""One benchmark process: set-up, then a timed closed loop (one client,
each call waits for the previous one), then the output checks.

Run by ``run.py`` in a fresh process and a fresh working directory, so the
program's module-level caches and the peak RSS start cold, and no stray file
can shadow an inline ``--input`` literal.  Prints one JSON object as its last
line.

Roles:
  setup    set up only (``run.py`` takes the median set-up time over several)
  measure  set up, run the loop for ``--seconds``, check every output;
           with ``--traced 1`` the loop runs under the tracer
  kernels  time ``StateVector.apply`` per gate kind on random states
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

perf = time.perf_counter

# (qubits, timed repetitions); with the warm-up call each gate runs an odd
# number of times, so the oracle check also catches a wrong involution.
KERNEL_SIZES = ((11, 100), (16, 20), (20, 6))
KERNEL_KINDS = ("h", "x", "cx", "u", "swap", "ucg", "ucr")
UC_SELECTS = 6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(wl, seconds: float, tracer: Tracer | None) -> dict:
    records, latencies = [], {"forecast": [], "generate": []}
    forecasts = 0
    start = perf()
    for op in wl.ops():
        if perf() - start >= seconds and forecasts >= wl.min_forecasts and len(records) >= wl.count_window:
            break
        if tracer:
            tracer.begin(op.kind)
        t0 = perf()
        try:
            value, error = op.run(), None
        except Exception:
            value, error = None, traceback.format_exc(limit=3)
        dt = perf() - t0
        if tracer:
            tracer.end(dt)
        if error is None:
            try:
                value = op.collect(value)
            except Exception:
                error = traceback.format_exc(limit=3)
        latencies[op.kind].append(dt)
        forecasts += op.kind == "forecast"
        records.append((op, value, error))
    loop_s = perf() - start
    keys = [op.key for op, _, _ in records if op.key is not None]
    return {
        "records": records,
        "loop_s": loop_s,
        "forecasts": forecasts,
        "latencies": latencies,
        "repeat_share": (len(keys) - len(set(keys))) / len(keys) if keys else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "trace": tracer.summary() if tracer else None,
    }


def check_all(wl, loop: dict) -> dict:
    """Checks set-up and loop outputs; counts and the within-bound rate are
    taken over the first ``count_window`` loop operations only, so that they
    repeat exactly for a seed whatever the machine's speed."""
    wl.finish()
    errors = list(wl.setup_errors)
    within, logical = [], [0, 0, 0]
    for i, (op, value, error) in enumerate(wl.warmup + loop["records"]):
        if error is not None:
            errors.append([error])
            continue
        try:
            errs, ok, counts = op.check(value)
        except Exception:
            errs, ok, counts = [traceback.format_exc(limit=3)], None, None
        errors.append(errs)
        in_window = len(wl.warmup) <= i < len(wl.warmup) + wl.count_window
        if in_window and ok is not None:
            within.append(ok)
        if in_window and counts is not None:
            logical = [a + b for a, b in zip(logical, counts)]
    failed = [e for e in errors if e]
    for errs in failed[:5]:
        print("check failed: " + "; ".join(errs), file=sys.stderr)
    return {
        "attempted": len(errors),
        "failed": len(failed),
        "within_bound_rate": sum(within) / len(within) if within else None,
        "within_window": len(within),
        "logical": dict(zip(("qae.grover_calls", "qae.u_invocations", "qae.query_count"), logical)),
    }


def random_unitary(rng) -> np.ndarray:
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / abs(np.diag(r)))


def kernel_sheet(seed: int) -> dict:
    """Median ns per amplitude of one ``StateVector.apply`` per kind, on a
    random normalised state built once per size and reused.  After timing,
    the state must match the oracle's replay of the same applications."""
    from qrforest import StateVector
    from qrforest import gates as g

    rng = np.random.default_rng([seed, 2])
    sheet, absent, failed = {}, [], 0
    for n, reps in KERNEL_SIZES:
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        q, sel = n // 2, tuple(range(UC_SELECTS))
        builders = {
            "h": lambda: g.h(q),
            "x": lambda: g.x(q),
            "cx": lambda: g.cnot(0, q),
            "u": lambda: g.one_qubit(q, random_unitary(rng)),
            "swap": lambda: g.swap(q - 1, q),
            "ucg": lambda: g.ucg(sel, UC_SELECTS, [random_unitary(rng) for _ in range(2**UC_SELECTS)]),
            "ucr": lambda: g.ucr(sel, UC_SELECTS, rng.uniform(0, 2 * np.pi, 2**UC_SELECTS)),
        }
        expected = amps.reshape((2,) * n)
        try:
            sv = StateVector(n, amps)
        except Exception:
            absent += [f"statevector.ns_per_amp.{kind}.q{n}" for kind in KERNEL_KINDS]
            continue
        for kind in KERNEL_KINDS:
            name = f"statevector.ns_per_amp.{kind}.q{n}"
            try:
                gate = builders[kind]()
                sv.apply(gate)
                times = []
                for _ in range(reps):
                    t0 = perf()
                    sv.apply(gate)
                    times.append(perf() - t0)
            except Exception:
                absent.append(name)
                continue
            sheet[name] = statistics.median(times) / 2**n * 1e9
            for _ in range(reps + 1):
                expected = oracle.apply_gate(expected, gate)
            if np.max(np.abs(sv.amplitudes - expected.reshape(-1))) > oracle.PHI_TOL:
                failed += 1
                print(f"check failed: {name} state differs from the oracle", file=sys.stderr)
            expected = sv.amplitudes.reshape((2,) * n).copy()
    attempted = len(sheet)
    return {"kernels": sheet, "absent": absent, "attempted": attempted, "failed": failed}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "measure", "kernels"), required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.role == "kernels":
        out = kernel_sheet(args.seed)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        wl.setup()
        out = {"setup_s": perf() - STARTED, "info": wl.info}
        if args.role == "measure":
            tracer = None
            if args.traced:
                tracer = Tracer(wl.count_window)
                tracer.install()
            loop = run_loop(wl, args.seconds, tracer)
            out.update({k: v for k, v in loop.items() if k != "records"})
            out.update(check_all(wl, loop))
        else:
            out.update(check_all(wl, {"records": []}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
