"""The benchmark's workloads.

Every input is drawn from the run seed: set-up writes the program's input
files into the (fresh) working directory and the operation stream draws new
inputs as it goes, so the program only ever sees generated files and input
values.  The program is reached through its public API, looked up at call
time so that the traced run's wrappers are the ones called.

Each operation has a timed ``run``, an untimed ``collect`` that picks up its
output right after, and a ``check`` that the worker runs once the timed loop
is over.  ``check`` returns the failed checks as messages, the within-bound
flag of a quantum forecast and its logical counts.
"""
from __future__ import annotations

import itertools
import json
import os
import traceback

import numpy as np

import oracle
import qrforest
import qrforest.cli

SCHEMA_TOKENS = "real,disc:2,disc:3,real"
SCHEMA = [("real", 0), ("discrete", 2), ("discrete", 3), ("real", 0)]
DELTA = 0.05


def random_input(rng) -> tuple[float, ...]:
    return tuple(
        float(rng.random()) if kind == "real" else float(rng.integers(1, cats + 1))
        for kind, cats in SCHEMA
    )


def literal(x) -> str:
    return ",".join(repr(v) for v in x)


def new_seed(rng) -> int:
    return int(rng.integers(2**31))


def simulated_width(n: int, h: int, t: int) -> int:
    """lambda + psi + phi work qubits plus the log2 t phase qubits."""
    return (n - 1).bit_length() + h + 2 + t.bit_length() - 1


class Op:
    def __init__(self, kind, run, collect, check, key=None):
        self.kind, self.run, self.collect, self.check, self.key = kind, run, collect, check, key


class Workload:
    """Shared set-up bookkeeping: ``qrforest generate`` calls and the
    results of checks made during set-up."""

    name = ""
    min_forecasts = 11  # so that forecast_s.tail always has ten samples beyond it
    count_window = 11  # operations over which counts and within_bound_rate are taken

    def __init__(self, seed: int):
        self.setup_rng = np.random.default_rng([seed, 0])
        self.stream_rng = np.random.default_rng([seed, 1])
        self.setup_errors: list[list[str]] = []
        self.warmup: list[tuple[Op, object, str | None]] = []
        self.info: dict = {}

    def write_generated(self, n: int, h: int, path: str) -> str:
        """Writes one forest twice from one seed; the two documents must be
        identical and well formed."""
        args = ["-n", str(n), "--height", str(h), "--attrs", SCHEMA_TOKENS, "--range", "0:1",
                "--seed", str(new_seed(self.setup_rng))]
        texts = []
        for _ in range(2):
            code = qrforest.cli.main(["generate", *args, "--out", path])
            with open(path) as fh:
                texts.append(fh.read())
            self.setup_errors.append([] if code == 0 else [f"generate exited {code}"])
        errs = oracle.check_generated(texts[0], n, h, SCHEMA, 0.0, 1.0)
        if len(set(texts)) != 1:
            errs.append("generate: one seed gave different documents")
        self.setup_errors.append(errs)
        return texts[0]

    def warm(self, op: Op) -> None:
        """Runs one operation outside the stream; it is checked with the rest."""
        try:
            self.warmup.append((op, op.collect(op.run()), None))
        except Exception:
            self.warmup.append((op, None, traceback.format_exc(limit=3)))

    def finish(self) -> None:
        """Called after the loop, before checks."""


def _cli_forecast_collect(code):
    try:
        with open("out.json") as fh:
            doc = json.load(fh)
        os.remove("out.json")
    except OSError:
        doc = None
    return code, doc


class QpeWide(Workload):
    """One 15-qubit phase estimation per call through the CLI, never repeating."""

    name = "qpe-wide"
    N, H, T, REPS = 8, 4, 64, 5

    def setup(self) -> None:
        self.text = self.write_generated(self.N, self.H, "forest.json")
        self.forest = oracle.ForestDoc(self.text)
        self.info = {
            "n": self.N, "h": self.H, "t": self.T, "repetitions": self.REPS,
            "simulated_width": simulated_width(self.N, self.H, self.T), "doc_bytes": len(self.text.encode()),
        }
        self.warm(self.op(random_input(self.setup_rng), new_seed(self.setup_rng)))

    def ops(self):
        while True:
            yield self.op(random_input(self.stream_rng), new_seed(self.stream_rng))

    def op(self, x, seed) -> Op:
        argv = ["forecast", "--forest", "forest.json", "--input", literal(x), "--mode", "both",
                "--t", str(self.T), "--reps", str(self.REPS), "--seed", str(seed),
                "--format", "structured", "--out", "out.json"]
        return Op("forecast", lambda: qrforest.cli.main(argv), _cli_forecast_collect,
                  lambda record: self.check(x, record))

    def finish(self) -> None:
        self.program_forest = qrforest.load_forest(self.text)

    def check(self, x, record):
        code, doc = record
        if code != 0 or doc is None:
            return [f"forecast exited {code}"], None, None
        cl, q = doc["classical"], doc["quantum"]
        errs = oracle.check_classical(cl["r"], cl["beta"], self.forest, x)
        errs += oracle.check_quantum(q, self.forest, self.T, self.REPS)
        circuit = qrforest.compile_forest_op(self.program_forest, qrforest.InputObject(x))  # every input is new
        errs += oracle.check_circuit(circuit, cl["beta"], self.forest, x)
        logical = (q["grover_calls"], q["u_invocations"], q["query_count"])
        return errs, oracle.within_bound(q, self.forest, x), logical


class SmallMixed(Workload):
    """Library forecasts over a pool of eight small forests; every fourth
    query repeats one of the last eight fresh (forest, input) pairs."""

    name = "small-mixed"
    count_window = 64
    POOL = [(n, h, t) for n in (2, 4) for h in (2, 3) for t in (32, 64)]
    RECENT = 8

    def setup(self) -> None:
        self.texts, self.forests, self.docs = [], [], []
        for i, (n, h, _) in enumerate(self.POOL):
            text = self.write_generated(n, h, f"forest-{i}.json")
            self.texts.append(text)
            self.forests.append(qrforest.load_forest(text))
            self.docs.append(oracle.ForestDoc(text))
        self.reps = qrforest.repetitions_for_delta(DELTA)
        self.pairs_checked = set()
        self.info = {
            "pool": [{"n": n, "h": h, "t": t, "simulated_width": simulated_width(n, h, t)} for n, h, t in self.POOL],
            "delta": DELTA, "repetitions": self.reps, "recent_window": self.RECENT,
            "doc_bytes": sum(len(t.encode()) for t in self.texts),
        }
        for i in range(len(self.POOL)):
            self.warm(self.op(i, random_input(self.setup_rng), new_seed(self.setup_rng)))

    def ops(self):
        rng, recent, order = self.stream_rng, [], []
        for i in itertools.count():
            if i % 4 == 3:
                k, x = recent[int(rng.integers(len(recent)))]
            else:
                if not order:
                    order = [int(k) for k in rng.permutation(len(self.POOL))]
                k, x = order.pop(), random_input(rng)
                recent = (recent + [(k, x)])[-self.RECENT:]
            yield self.op(k, x, new_seed(rng))

    def op(self, k, x, seed) -> Op:
        forest, t = self.forests[k], self.POOL[k][2]
        x_obj = qrforest.InputObject(x)
        config = qrforest.QaeConfig(t=t, delta=DELTA, target="r", seed=seed)
        return Op("forecast", lambda: qrforest.run_forecast(forest, x_obj, config), self.collect,
                  lambda record: self.check(k, x, record), key=(k, x))

    @staticmethod
    def collect(result) -> dict:
        return {
            "t": result.t, "repetitions": result.repetitions, "beta_estimate": result.beta_estimate,
            "r_estimate": result.r_estimate, "error_bound": result.error_bound,
            "grover_calls": result.grover_calls, "u_invocations": result.u_invocations,
            "query_count": qrforest.query_count(result), "raw_estimates": list(result.raw_estimates),
        }

    def check(self, k, x, q):
        doc = self.docs[k]
        errs = oracle.check_quantum(q, doc, self.POOL[k][2], self.reps)
        if (k, x) not in self.pairs_checked:
            self.pairs_checked.add((k, x))
            x_obj = qrforest.InputObject(x)
            circuit = qrforest.compile_forest_op(self.forests[k], x_obj)
            errs += oracle.check_circuit(circuit, qrforest.beta_classical(self.forests[k], x_obj), doc, x)
        logical = (q["grover_calls"], q["u_invocations"], q["query_count"])
        return errs, oracle.within_bound(q, doc, x), logical


def padded_forest_doc(rng, n: int, h: int, early_depth: int, early_share: float) -> str:
    """A forest document in which ``early_share`` of the nodes at
    ``early_depth`` are declared as leaves, so loading must pad them."""
    level = 2**early_depth
    trees = []
    for _ in range(n):
        early = set((level + rng.choice(level, size=int(level * early_share), replace=False)).tolist())
        attrs = rng.integers(0, len(SCHEMA), size=2**h)
        uniform = rng.random(size=2 ** (h + 1))
        nodes, leaves, stack = {}, {}, [1]
        while stack:
            j = stack.pop()
            if j in early or j >= 2**h:
                leaves[j] = float(uniform[j])
                continue
            kind, cats = SCHEMA[attrs[j]]
            nodes[j] = (
                {"kind": "threshold-greater", "attr": int(attrs[j]) + 1, "threshold": float(uniform[j])}
                if kind == "real"
                else {"kind": "equals", "attr": int(attrs[j]) + 1, "threshold": 1 + int(uniform[j] * cats)}
            )
            stack += (2 * j, 2 * j + 1)
        trees.append({"nodes": {str(j): nodes[j] for j in sorted(nodes)},
                      "leaves": {str(j): leaves[j] for j in sorted(leaves)}})
    schema = [{"kind": "real"} if kind == "real" else {"kind": "discrete", "categories": cats}
              for kind, cats in SCHEMA]
    return json.dumps({"n": n, "h": h, "schema": schema, "trees": trees}, indent=2) + "\n"


class ClassicalLarge(Workload):
    """Two classical CLI forecasts on a padded n=64, h=10 document, then a
    CLI generate of a fresh n=64, h=10 forest, and again."""

    name = "classical-large"
    count_window = 15
    N, H, EARLY_DEPTH, EARLY_SHARE = 64, 10, 8, 0.25

    def setup(self) -> None:
        text = padded_forest_doc(self.setup_rng, self.N, self.H, self.EARLY_DEPTH, self.EARLY_SHARE)
        with open("forest.json", "w") as fh:
            fh.write(text)
        self.info = {
            "n": self.N, "h": self.H, "doc_bytes": len(text.encode()),
            "padded_leaf_share": self.EARLY_SHARE,
            "early_leaf_depth": self.EARLY_DEPTH,
        }
        del text
        self.warm(self.forecast_op(random_input(self.setup_rng)))
        code = qrforest.cli.main(["generate", *self.generate_args(new_seed(self.setup_rng)), "--out", "warm.json"])
        self.setup_errors.append([] if code == 0 else [f"generate exited {code}"])
        os.remove("warm.json")

    def ops(self):
        for i in itertools.count():
            if i % 3 < 2:
                yield self.forecast_op(random_input(self.stream_rng))
            else:
                yield self.generate_op(i, new_seed(self.stream_rng))

    def forecast_op(self, x) -> Op:
        argv = ["forecast", "--forest", "forest.json", "--input", literal(x), "--mode", "classical",
                "--format", "structured", "--out", "out.json"]
        return Op("forecast", lambda: qrforest.cli.main(argv), _cli_forecast_collect,
                  lambda record: self.check_forecast(x, record))

    def generate_args(self, seed) -> list[str]:
        return ["-n", str(self.N), "--height", str(self.H), "--attrs", SCHEMA_TOKENS,
                "--range", "0:1", "--seed", str(seed)]

    def generate_op(self, i, seed) -> Op:
        path = f"gen-{i}.json"
        args = ["generate", *self.generate_args(seed), "--out", path]
        return Op("generate", lambda: qrforest.cli.main(args), lambda code: (code, path),
                  self.check_generate)

    def finish(self) -> None:
        with open("forest.json") as fh:
            self.forest = oracle.ForestDoc(fh.read())

    def check_forecast(self, x, record):
        code, doc = record
        if code != 0 or doc is None:
            return [f"forecast exited {code}"], None, None
        cl = doc["classical"]
        return oracle.check_classical(cl["r"], cl["beta"], self.forest, x), None, None

    def check_generate(self, record):
        code, path = record
        if code != 0:
            return [f"generate exited {code}"], None, None
        with open(path) as fh:
            text = fh.read()
        os.remove(path)
        self.info["generated_doc_bytes"] = len(text.encode())
        return oracle.check_generated(text, self.N, self.H, SCHEMA, 0.0, 1.0), None, None


WORKLOADS = {w.name: w for w in (QpeWide, SmallMixed, ClassicalLarge)}
