"""Command-line interface.

Subcommands: ``generate`` (random forest file), ``forecast`` (classical /
quantum-simulated / both, with a comparison report), ``reproduce`` (the
built-in reference experiment over many seeds), ``metrics`` (error metrics
over a two-column pairs file).

Reports come in two formats: ``text`` (human-readable, includes wall time)
and ``structured`` (versioned JSON whose bytes are fully determined by the
inputs and seed; volatile fields like wall time are text-only).

Exit codes: 0 success, 2 usage (argparse), 3 input parsing/validation,
4 simulation resource limits.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from array import array

from .config import MAX_FOREST_BYTES, MAX_INPUT_BYTES, MAX_PAIRS, MAX_PAIRS_LINE
from .exceptions import DegenerateRangeError, QrfError, ResourceLimitError
from .forest_io import load_forest, save_forest
from .model import (
    Attribute,
    InputObject,
    METRIC_NAMES,
    beta_classical,
    beta_to_R,
    error_metrics,
    forecast_classical,
    generate_random_forest,
)
from .qae import QaeConfig, error_bound, estimate_of, query_count, run_forecast, sample_outcomes
from .reference import REFERENCE_RUNS, REFERENCE_T, reference_forest, reference_input

SCHEMA_VERSION = 1
SUCCESS_FLOOR = 8.0 / math.pi**2

EXIT_OK = 0
EXIT_DATA = 3
EXIT_RESOURCE = 4


def _parse_attrs(text: str) -> tuple[Attribute, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if token == "real":
            out.append(Attribute("real"))
            continue
        try:  # Attribute refuses a count outside 1 .. config.MAX_CATEGORIES
            out.append(Attribute("discrete", int(token[5:]) if token.startswith("disc:") else 0))
        except ValueError:
            raise QrfError(f"bad attribute token {token!r} (use 'real' or 'disc:K')") from None
    return tuple(out)


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise QrfError(f"bad range {text!r} (use LO:HI)") from None
    return lo, hi


def _read_text(path: str, cap: int) -> str:
    """Text-mode ``open(path).read()`` of at most ``cap`` bytes: one read of a
    regular file's size + 1, else a MiB a read, refused once past ``cap``.
    A decoding error becomes a ``QrfError`` that names the path."""
    with open(path, "rb") as fh:
        parts = [fh.read(min(os.fstat(fh.fileno()).st_size, cap) + 1)]
        while (size := sum(map(len, parts))) <= cap and (part := fh.read(min(cap + 1 - size, 1 << 20))):
            parts.append(part)
    if size > cap:
        raise QrfError(f"{path}: longer than {cap} bytes")
    try:
        return io.TextIOWrapper(io.BytesIO(b"".join(parts))).read()
    except UnicodeDecodeError as e:
        raise QrfError(f"{path}: {e}") from None


def _number_list(text: str) -> InputObject | None:
    try:
        return InputObject(tuple(float(v) for v in text.split(",")))
    except ValueError:
        return None


def _parse_input(value: str) -> InputObject:
    """--input takes a comma-separated number list; any other value is read
    as the path of a file containing one such line.  The literal is tried
    first, so a file can never shadow it."""
    x = _number_list(value)
    if x is None:
        try:
            value = _read_text(value, MAX_INPUT_BYTES).strip()
        except OSError:
            pass
        x = _number_list(value)
    if x is None:
        raise QrfError(f"bad input values {value!r}")
    return x


def _write_out(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit(doc: dict, text: str, args) -> None:
    _write_out(json.dumps(doc, indent=2, allow_nan=False) + "\n" if args.format == "structured" else text, args.out)


def cmd_generate(args) -> int:
    forest = generate_random_forest(
        args.trees, args.height, _parse_attrs(args.attrs), _parse_range(args.range), args.seed
    )
    _write_out(save_forest(forest), args.out)
    return EXIT_OK


def cmd_forecast(args) -> int:
    forest = load_forest(_read_text(args.forest, MAX_FOREST_BYTES))
    x = _parse_input(args.input)
    started = time.perf_counter()

    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "forecast",
        "forest": {"n": forest.n, "h": forest.height, "y_min": forest.y_min, "y_max": forest.y_max},
        "input": list(x.values),
        "mode": args.mode,
        "target": args.target,
        "seed": args.seed,
    }
    lines = [
        f"forest: n={forest.n} h={forest.height} y_min={forest.y_min!r} y_max={forest.y_max!r}",
        "input: " + ",".join(repr(v) for v in x.values),
        f"mode: {args.mode}  target: {args.target}  seed: {args.seed}",
    ]

    classical_r = classical_beta = None
    if args.mode in ("classical", "both"):
        classical_r = forecast_classical(forest, x)
        try:
            classical_beta = beta_classical(forest, x)
        except DegenerateRangeError:
            classical_beta = None
        doc["classical"] = {"r": classical_r, "beta": classical_beta}
        lines.append(f"classical: R={classical_r!r} beta={classical_beta!r}")

    if args.mode in ("quantum", "both"):
        config = QaeConfig(
            t=args.t,
            repetitions=args.reps,
            delta=args.delta,
            target="r",
            seed=args.seed,
        )
        try:
            result = run_forecast(forest, x, config)
        except DegenerateRangeError:
            constant = forecast_classical(forest, x)
            print(
                "warning: all leaf labels equal; returning the constant forecast",
                file=sys.stderr,
            )
            doc["quantum"] = {"degenerate_range": True, "r_estimate": constant}
            lines.append(f"quantum: degenerate range, constant forecast R={constant!r}")
        else:
            doc["quantum"] = {
                "degenerate_range": False,
                "t": result.t,
                "repetitions": result.repetitions,
                "beta_estimate": result.beta_estimate,
                "r_estimate": result.r_estimate,
                "error_bound": result.error_bound,
                "grover_calls": result.grover_calls,
                "u_invocations": result.u_invocations,
                "query_count": query_count(result),
                "raw_estimates": list(result.raw_estimates),
            }
            lines.append(
                f"quantum: beta={result.beta_estimate!r} R={result.r_estimate!r} "
                f"bound={result.error_bound!r} t={result.t} reps={result.repetitions} "
                f"grover_calls={result.grover_calls} queries={query_count(result)}"
            )
            if args.mode == "both":  # run_forecast refuses a degenerate range, so classical_beta is set
                if args.target == "beta":
                    truth, estimate = classical_beta, result.beta_estimate
                else:
                    truth, estimate = classical_r, result.r_estimate
                doc["comparison"] = error_metrics([truth], [estimate])
                lines.append(
                    "comparison: "
                    + "  ".join(
                        f"{k}={v!r}" if v is not None else f"{k}=degenerate"
                        for k, v in doc["comparison"].items()
                    )
                )

    lines.append(f"wall_time_s: {time.perf_counter() - started:.3f}")
    _emit(doc, "\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    forest, x = reference_forest(), reference_input()
    outcomes = sample_outcomes(forest, x, args.t, args.seed, args.runs)
    beta_cl = beta_classical(forest, x)
    r_cl = forecast_classical(forest, x)
    spread = forest.y_max - forest.y_min
    bound = error_bound(beta_cl, args.t)

    runs = []
    for i, outcome in enumerate(outcomes):
        beta_est = estimate_of(outcome, args.t)
        r_est = beta_to_R(beta_est, forest.y_min, forest.y_max)
        runs.append(
            {
                "run": i,
                "outcome": outcome,
                "beta_estimate": beta_est,
                "abs_beta_error": abs(beta_est - beta_cl),
                "within_bound": abs(beta_est - beta_cl) <= bound,
                "r_estimate": r_est,
                "rel_r_error": abs(r_est - r_cl) / abs(r_cl),
            }
        )

    success_rate = sum(r["within_bound"] for r in runs) / len(runs)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "reproduce",
        "t": args.t,
        "runs": args.runs,
        "seed": args.seed,
        "beta_classical": beta_cl,
        "r_classical": r_cl,
        "beta_error_bound": bound,
        "r_error_bound": bound * spread,
        "success_floor": SUCCESS_FLOOR,
        "results": runs,
        "summary": {
            "success_rate": success_rate,
            "mean_abs_beta_error": sum(r["abs_beta_error"] for r in runs) / len(runs),
            "median_rel_r_error": sorted(r["rel_r_error"] for r in runs)[len(runs) // 2],
        },
    }
    lines = [
        f"reference experiment: n={forest.n} h={forest.height} t={args.t} "
        f"runs={args.runs} seed={args.seed}",
        f"classical: beta={beta_cl!r} R={r_cl!r}",
        f"single-run bound: {bound!r} (success floor {SUCCESS_FLOOR:.4f})",
        f"{'run':>4} {'k':>3} {'beta_est':>10} {'abs_err':>10} {'ok':>3} {'r_est':>10} {'rel_r_err':>10}",
    ]
    for r in runs:
        lines.append(
            f"{r['run']:>4} {r['outcome']:>3} {r['beta_estimate']:>10.6f} "
            f"{r['abs_beta_error']:>10.6f} {'y' if r['within_bound'] else 'n':>3} "
            f"{r['r_estimate']:>10.6f} {r['rel_r_error']:>10.6f}"
        )
    s = doc["summary"]
    lines.append(
        f"summary: success_rate={s['success_rate']:.3f} "
        f"mean_abs_beta_error={s['mean_abs_beta_error']:.6f} "
        f"median_rel_r_error={s['median_rel_r_error']:.6f}"
    )
    _emit(doc, "\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_metrics(args) -> int:
    wanted = METRIC_NAMES if args.metrics is None else tuple(args.metrics.split(","))
    for name in wanted:
        if name not in METRIC_NAMES:
            raise QrfError(f"unknown metric {name!r} (choose from {', '.join(METRIC_NAMES)})")
    truths, forecasts = array("d"), array("d")
    try:
        with open(args.pairs) as fh:
            for lineno, line in enumerate(iter(lambda: fh.readline(MAX_PAIRS_LINE + 1), ""), 1):
                if lineno > MAX_PAIRS:
                    raise QrfError(f"{args.pairs}: more than {MAX_PAIRS} lines")
                if len(line) > MAX_PAIRS_LINE:
                    raise QrfError(f"{args.pairs}:{lineno}: longer than {MAX_PAIRS_LINE} characters")
                line = line.strip()
                if not line:
                    continue
                try:  # a count other than two fails to unpack
                    truth, forecast = map(float, line.replace(",", " ").split())
                except ValueError:
                    raise QrfError(f"{args.pairs}:{lineno}: expected two numbers per line") from None
                if not (math.isfinite(truth) and math.isfinite(forecast)):
                    raise QrfError(f"{args.pairs}:{lineno}: values must be finite")
                truths.append(truth)
                forecasts.append(forecast)
    except UnicodeDecodeError as e:
        raise QrfError(f"{args.pairs}: {e}") from None
    if not truths:
        raise QrfError(f"{args.pairs}: no pairs found")
    every = error_metrics(truths, forecasts)
    table = {name: every[name] for name in wanted}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "metrics",
        "pairs": len(truths),
        "metrics": table,
    }
    lines = [f"pairs: {len(truths)}"] + [
        f"{k}: {v!r}" if v is not None else f"{k}: degenerate" for k, v in table.items()
    ]
    _emit(doc, "\n".join(lines) + "\n", args)
    return EXIT_OK


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrforest",
        description="Quantum amplitude-estimation forecasting for random-forest regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random forest file")
    p.add_argument("-n", "--trees", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--attrs", required=True, help="comma list of 'real' or 'disc:K'")
    p.add_argument("--range", default="0:1", help="leaf label range LO:HI")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("forecast", help="forecast one input object")
    p.add_argument("--forest", required=True, help="forest file path")
    p.add_argument("--input", required=True, help="comma-separated values, or a file path")
    p.add_argument("--mode", choices=("classical", "quantum", "both"), default="both")
    p.add_argument("--target", choices=("beta", "r"), default="r")
    p.add_argument("--t", type=int, default=REFERENCE_T, help="phase grid size (power of two)")
    p.add_argument("--reps", type=int, default=None, help="odd repetition count for the median (default 1)")
    p.add_argument(
        "--delta", type=float, default=None, help="derive repetitions from a failure bound (not with --reps)"
    )
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("reproduce", help="run the built-in reference experiment")
    p.add_argument("--runs", type=int, default=REFERENCE_RUNS)
    p.add_argument("--t", type=int, default=REFERENCE_T)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("metrics", help="error metrics over a pairs file")
    p.add_argument("--pairs", required=True, help="two numeric columns: truth forecast")
    p.add_argument("--metrics", default=None, help=f"comma list from {','.join(METRIC_NAMES)}")
    _add_output_flags(p)
    p.set_defaults(func=cmd_metrics)

    return parser


def _glue_negative_range(argv: list[str]) -> list[str]:
    """argparse reads a value that starts with '-' as an option, so a spaced
    negative range (``--range -2:5``) is passed on as ``--range=-2:5``."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--range" and arg.startswith("-") and ":" in arg:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_glue_negative_range(argv))
    try:
        return args.func(args)
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (QrfError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
