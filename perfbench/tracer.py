"""Out-of-package tracing for the benchmark's traced run.

Public qrforest entry points are wrapped from outside by attribute
replacement: a module-level function is replaced in every loaded qrforest
module that binds it, a method on its class.  Each wrapped call is a span
with a parent span (the innermost open one) and a self time (its duration
minus that of its wrapped children).  The benchmark opens one root span per
timed operation, so every span belongs to one request.

An entry point that no longer exists is listed as absent and its metrics
read 0, so the benchmark keeps running when a later change reshapes it.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (span name, module, attribute path)
ENTRY_POINTS = (
    ("cli.main", "qrforest.cli", "main"),
    ("forest_io.load_forest", "qrforest.forest_io", "load_forest"),
    ("forest_io.save_forest", "qrforest.forest_io", "save_forest"),
    ("forest_io.forest_fingerprint", "qrforest.forest_io", "forest_fingerprint"),
    ("model.forecast_classical", "qrforest.model", "forecast_classical"),
    ("model.beta_classical", "qrforest.model", "beta_classical"),
    ("model.generate_random_forest", "qrforest.model", "generate_random_forest"),
    ("compiler.compile_forest_op", "qrforest.compiler", "compile_forest_op"),
    ("compiler.grover_iterate", "qrforest.compiler", "grover_iterate"),
    ("qae.run_forecast", "qrforest.qae", "run_forecast"),
    ("qae.boost", "qrforest.qae", "estimate_with_boosting"),
    ("qae.engine_build", "qrforest.qae", "PhaseEstimation.__init__"),
    ("statevector.apply", "qrforest.statevector", "StateVector.apply"),
    ("statevector.alloc", "qrforest.statevector", "StateVector.__init__"),
)

APPLY_KINDS = ("h", "x", "u", "swap", "ucg", "ucr")
# Spans reported by inclusive time, and counters reported as they stand.
INCLUSIVE = (
    "forest_io.load_forest", "forest_io.save_forest", "forest_io.forest_fingerprint",
    "model.forecast_classical", "model.beta_classical", "model.generate_random_forest",
    "compiler.compile_forest_op", "compiler.grover_iterate",
)
COUNTED = (
    "forest_io.load_forest.calls", "forest_io.load_forest.bytes", "forest_io.forest_fingerprint.calls",
    "compiler.compile_forest_op.calls", "compiler.gates_per_q", "compiler.width",
    "statevector.amps_touched", "qae.engine_builds", "qae.engine_lookups",
)


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the name is gone."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None) if owner is not None else None
    return None if original is None else (owner, attr, original)


class Tracer:
    def __init__(self, count_window: int):
        self.count_window = count_window
        self.request = -1
        self.request_kind = None
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.spans: list[tuple] = []  # (request, kind, name, parent, seconds, self seconds)
        self.apply_seconds: dict[tuple, float] = defaultdict(float)  # (request kind, gate kind)
        self.apply_parents: dict[str, list] = defaultdict(lambda: [0, 0.0])  # parent -> calls, seconds
        self.counts: dict[str, int] = defaultdict(int)  # over the first count_window requests
        self.peak_state_bytes = 0
        self.absent: set[str] = set()
        self.request_seconds: dict[str, float] = defaultdict(float)
        self.accounted: dict[str, list[float]] = defaultdict(list)  # per request: time inside wrapped calls

    @property
    def in_window(self) -> bool:
        return 0 <= self.request < self.count_window

    # -- requests -----------------------------------------------------------

    def begin(self, kind: str) -> None:
        self.request += 1
        self.request_kind = kind
        self.stack.append(["request." + kind, 0.0])

    def end(self, seconds: float) -> None:
        root = self.stack.pop()
        self.accounted[self.request_kind].append(root[1])
        self.request_seconds[self.request_kind] += seconds

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        for name, module, path in ENTRY_POINTS:
            found = _resolve(module, path)
            if found is None:
                self.absent.add(name)
                continue
            owner, attr, original = found
            if name == "statevector.apply":
                wrapper = self._wrap_apply(original)
            elif name == "statevector.alloc":
                wrapper = self._wrap_alloc(original)
            else:
                wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qrforest" or mod_name.startswith("qrforest."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        stack, hook = self.stack, getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                self.spans.append((self.request, self.request_kind, name,
                                   parent[0] if parent else None, dt, dt - frame[1]))
            if hook is not None and self.in_window:
                try:
                    hook(args, result)
                except Exception:  # a reshaped argument or result must not break the call
                    self.absent.add(name + " (counter)")
            return result

        return wrapper

    def _wrap_apply(self, fn):
        stack, seconds, parents, counts = self.stack, self.apply_seconds, self.apply_parents, self.counts

        @functools.wraps(fn)
        def apply(sv, gate, *args, **kwargs):
            t0 = perf()
            try:
                return fn(sv, gate, *args, **kwargs)
            finally:
                dt = perf() - t0
                kind = getattr(gate, "kind", "?")
                seconds[(self.request_kind, kind)] += dt
                if stack:
                    stack[-1][1] += dt
                    entry = parents[stack[-1][0]]
                    entry[0] += 1
                    entry[1] += dt
                if self.in_window:
                    counts["statevector.apply.calls." + kind] += 1
                    width = getattr(sv, "num_qubits", 0) - len(getattr(gate, "controls", ()))
                    touched = 1 << max(0, width)
                    counts["statevector.amps_touched"] += touched // 2 if kind == "swap" else touched

        return apply

    def _wrap_alloc(self, fn):
        @functools.wraps(fn)
        def init(sv, *args, **kwargs):
            fn(sv, *args, **kwargs)
            if self.in_window:
                nbytes = getattr(getattr(sv, "amplitudes", None), "nbytes", 0)
                self.peak_state_bytes = max(self.peak_state_bytes, nbytes)

        return init

    # -- counters read off arguments and results -----------------------------

    def _on_forest_io_load_forest(self, args, result):
        self.counts["forest_io.load_forest.calls"] += 1
        text = args[0]
        self.counts["forest_io.load_forest.bytes"] += len(text.encode() if isinstance(text, str) else text)

    def _on_forest_io_forest_fingerprint(self, args, result):
        self.counts["forest_io.forest_fingerprint.calls"] += 1

    def _on_compiler_compile_forest_op(self, args, result):
        self.counts["compiler.compile_forest_op.calls"] += 1
        width = getattr(result, "num_qubits", 0)
        self.counts["compiler.width"] = max(self.counts["compiler.width"], width)

    def _on_compiler_grover_iterate(self, args, result):
        self.counts["compiler.gates_per_q"] = max(self.counts["compiler.gates_per_q"], len(result))

    def _on_qae_boost(self, args, result):
        self.counts["qae.engine_lookups"] += 1

    def _on_qae_engine_build(self, args, result):
        self.counts["qae.engine_builds"] += 1

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer figures: seconds per request over every traced request,
        counts over the first ``count_window`` requests."""
        ops = max(1, sum(len(a) for a in self.accounted.values()))
        total, own = defaultdict(float), defaultdict(float)
        by_kind = defaultdict(float)  # (request kind, layer) -> self seconds
        tree = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, seconds, self
        for _, kind, name, parent, dt, self_dt in self.spans:
            total[name] += dt
            own[name] += self_dt
            by_kind[(kind, name.split(".")[0])] += self_dt
            entry = tree[(parent, name)]
            entry[0] += 1
            entry[1] += dt
            entry[2] += self_dt
        apply_total = defaultdict(float)
        for (kind, gate_kind), dt in self.apply_seconds.items():
            apply_total[gate_kind] += dt
            by_kind[(kind, "statevector")] += dt
        for parent, (calls, dt) in self.apply_parents.items():
            tree[(parent, "statevector.apply")] = [calls, dt, dt]

        c = self.counts
        builds, lookups = c["qae.engine_builds"], c["qae.engine_lookups"]
        m = {name + ".s": total[name] / ops for name in INCLUSIVE}
        m.update((name, c[name]) for name in COUNTED)
        for kind in APPLY_KINDS:
            m["statevector.apply.calls." + kind] = c["statevector.apply.calls." + kind]
            m["statevector.apply.s." + kind] = apply_total[kind] / ops
        m["cli.main.self_s"] = own["cli.main"] / ops
        m["qae.engine_build.s"] = own["qae.engine_build"] / ops
        m["qae.boost.s"] = own["qae.boost"] / ops
        m["qae.engine_cache_hit_ratio"] = (lookups - builds) / lookups if lookups else 0.0
        m["statevector.peak_state_bytes"] = self.peak_state_bytes
        m["trace.absent_entry_points"] = len(self.absent)

        layers = {}
        for kind, seconds in self.request_seconds.items():
            n = len(self.accounted[kind])
            layers[kind] = {
                "requests": n,
                "mean_s": seconds / n,
                "accounted_p50_s": statistics.median(self.accounted[kind]),
                "self_s": {layer: s / n for (k, layer), s in sorted(by_kind.items()) if k == kind},
            }
        return {
            "metrics": m,
            "absent": sorted(self.absent),
            "layers": layers,
            "span_tree": sorted(
                [parent or "-", name, calls, dt, self_dt] for (parent, name), (calls, dt, self_dt) in tree.items()
            ),
        }
