"""Compiles (forest, input) pairs into forecasting circuits.

Register layout for ``n`` trees of height ``h`` (total width
``ceil(log2 n) + h + 2``):

    lambda   ceil(log2 n) qubits   tree index (uniform superposition)
    psi      h + 1 qubits          heap index of the current node
    phi      1 qubit               result amplitude

The forest operator prepares lambda with Hadamards, sets psi to |1> (one X
on its least significant qubit), then runs ``h`` walk stages.  Each stage
doubles psi with a SWAP cascade (a cyclic shift -- psi's top bit is 0 until
the final stage, so the shift is exact multiplication by two) and then
conditionally adds one: a single ucg, selected on lambda and the high psi
qubits (= the parent node index), flips psi's low qubit exactly where that
tree's parent predicate evaluated true on the input.  A final ucr selected
on lambda and psi rotates phi by twice the leaf angle
``arcsin(sqrt((y - y_min) / (y_max - y_min)))``.

Node predicates are evaluated classically against the known input when the
outcome table is built (one lookup per walk level per application of the
operator); the circuit itself only branches on node indices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import gates as g
from .exceptions import DegenerateRangeError, UnsupportedForestError
from .forest_io import forest_fingerprint, input_fingerprint
from .model import DecisionTree, InputObject, RandomForest
from .statevector import Register

_BLOCK_NAMES = {g._ID: "I", g._X: "X", g._Z: "Z", g._NEG_ID: "-I"}


@dataclass(frozen=True)
class BranchOutcomeTable:
    """Per tree, the predicate outcome of every internal node on one input.

    ``rows[i][j - 1]`` is tree ``i``'s outcome at heap node ``j``; building a
    row costs one classical input query per entry.
    """

    height: int
    rows: tuple[tuple[bool, ...], ...]

    @classmethod
    def evaluate(cls, forest: RandomForest, x: InputObject) -> "BranchOutcomeTable":
        x.validate_against(forest.schema)
        h = forest.height
        rows = tuple(
            tuple(tree.nodes[j].evaluate(x.values) for j in range(1, 2**h))
            for tree in forest.trees
        )
        return cls(h, rows)

    def outcome(self, tree: int, node: int) -> bool:
        return self.rows[tree][node - 1]


@dataclass(frozen=True)
class LeafAngleTable:
    """Per tree, the phi rotation half-angle of every leaf; all in [0, pi/2]."""

    height: int
    rows: tuple[tuple[float, ...], ...]

    @classmethod
    def from_forest(cls, forest: RandomForest) -> "LeafAngleTable":
        lo, hi = forest.y_min, forest.y_max
        if hi <= lo:
            raise DegenerateRangeError("all leaf labels equal; rotation angles undefined")
        h = forest.height
        rows = []
        for tree in forest.trees:
            ratios = [(tree.leaves[j] - lo) / (hi - lo) for j in range(2**h, 2 ** (h + 1))]
            rows.append(tuple(math.asin(math.sqrt(min(1.0, max(0.0, r)))) for r in ratios))
        return cls(h, tuple(rows))

    def angle(self, tree: int, leaf: int) -> float:
        return self.rows[tree][leaf - 2**self.height]


@dataclass(frozen=True)
class CompiledCircuit:
    """Immutable gate list over the lambda/psi/phi layout, tagged with the
    fingerprints of the forest and input it was compiled from."""

    registers: tuple[Register, ...]
    gates: tuple[g.Gate, ...]
    num_qubits: int
    n_trees: int
    height: int
    forest_hash: str
    input_hash: str

    def register(self, name: str) -> Register:
        for r in self.registers:
            if r.name == name:
                return r
        raise KeyError(name)


def registers_for(n: int, h: int) -> tuple[Register, Register, Register]:
    lam_size = (n - 1).bit_length()
    return (
        Register("lambda", 0, lam_size),
        Register("psi", lam_size, h + 1),
        Register("phi", lam_size + h + 1, 1),
    )


def compile_times2(psi: Register) -> tuple[g.Gate, ...]:
    """|j> -> |2j> on psi as the adjacent-SWAP cascade (cyclic bit shift)."""
    qs = psi.qubits
    return tuple(g.swap(qs[i], qs[i + 1]) for i in range(len(qs) - 1))


def compile_plus1(level: int, rows, lam: Register, psi: Register) -> g.Gate:
    """One walk stage's conditional +1: ucg over (lambda, high psi qubits)
    flipping psi's low qubit where the parent outcome is true.  ``rows`` are
    ``BranchOutcomeTable.rows`` for the trees under lambda."""
    h = psi.size - 1
    lo, hi = 1 << level, 1 << (level + 1)
    blocks = []
    for row in rows:
        for v in range(1 << h):
            blocks.append(g._X if lo <= v < hi and row[v - 1] else g._ID)
    return g.ucg(lam.qubits + psi.qubits[:-1], psi.qubits[-1], blocks)


def _leaf_rotation_gate(angle_rows, lam: Register, psi: Register, phi: Register) -> g.Gate:
    h = psi.size - 1
    angles = []
    for row in angle_rows:
        angles.extend([0.0] * (1 << h))
        angles.extend(2.0 * a for a in row)
    return g.ucr(lam.qubits + psi.qubits, phi.qubits[0], angles)


def compile_tree_op(
    tree: DecisionTree,
    tree_index: int,
    outcomes: BranchOutcomeTable,
    angles: LeafAngleTable,
) -> tuple[g.Gate, ...]:
    """Single-tree walk-and-rotate operator, laid out with psi at qubit 0
    (no lambda selects).  Expects psi = |1>, phi = |0> on input."""
    if tree.height != outcomes.height or tree.height != angles.height:
        raise ValueError("table heights do not match the tree")
    lam = Register("lambda", 0, 0)
    psi = Register("psi", 0, tree.height + 1)
    phi = Register("phi", tree.height + 1, 1)
    seq: list[g.Gate] = []
    for level in range(tree.height):
        seq.extend(compile_times2(psi))
        seq.append(compile_plus1(level, (outcomes.rows[tree_index],), lam, psi))
    seq.append(_leaf_rotation_gate((angles.rows[tree_index],), lam, psi, phi))
    return tuple(seq)


def compile_forest_op(forest: RandomForest, x: InputObject) -> CompiledCircuit:
    """The full forecasting operator: from |0...0> it prepares a uniform
    superposition of trees, each walked to its leaf, with phi carrying the
    normalized leaf label in its |1> amplitude."""
    x.validate_against(forest.schema)
    n, h = forest.n, forest.height
    if n & (n - 1):
        raise UnsupportedForestError(f"tree count must be a power of two, got {n}")
    outcomes = BranchOutcomeTable.evaluate(forest, x)
    angles = LeafAngleTable.from_forest(forest)
    lam, psi, phi = registers_for(n, h)
    seq: list[g.Gate] = [g.h(q) for q in lam.qubits]
    seq.append(g.x(psi.qubits[-1]))
    for level in range(h):
        seq.extend(compile_times2(psi))
        seq.append(compile_plus1(level, outcomes.rows, lam, psi))
    seq.append(_leaf_rotation_gate(angles.rows, lam, psi, phi))
    return CompiledCircuit(
        registers=(lam, psi, phi),
        gates=tuple(seq),
        num_qubits=lam.size + h + 2,
        n_trees=n,
        height=h,
        forest_hash=forest_fingerprint(forest),
        input_hash=input_fingerprint(x),
    )


def compile_inverse(circuit: CompiledCircuit) -> CompiledCircuit:
    """Gatewise inverse in reverse order; same registers and fingerprints."""
    return replace(circuit, gates=tuple(g.inverse(gate) for gate in reversed(circuit.gates)))


def build_V(circuit: CompiledCircuit) -> tuple[g.Gate, ...]:
    """Phase flip on phi = 1 (the reflection I - 2P)."""
    return (g.pauli_z(circuit.register("phi").qubits[0]),)


def build_D(circuit: CompiledCircuit) -> tuple[g.Gate, ...]:
    """Reflection about the prepared state: U (2|0><0| - I) U^-1, applied
    right to left as a gate list."""
    inv = compile_inverse(circuit)
    refl = g.reflection_about_zero(tuple(range(circuit.num_qubits)))
    return inv.gates + (refl,) + circuit.gates


def grover_iterate(circuit: CompiledCircuit) -> tuple[g.Gate, ...]:
    """One application of Q = D V (V first in gate order)."""
    return build_V(circuit) + build_D(circuit)


def _fmt_block(block) -> str:
    name = _BLOCK_NAMES.get(block)
    if name is not None:
        return name
    return "(" + ";".join(f"{v.real:.6g}{v.imag:+.6g}j" for row in block for v in row) + ")"


def dump_circuit(circuit: CompiledCircuit) -> str:
    """Line-per-gate text form for inspection and fixtures."""
    lines = [
        "qubits: %d  %s"
        % (
            circuit.num_qubits,
            "  ".join(
                f"{r.name}=" + (f"q{r.start}..q{r.start + r.size - 1}" if r.size else "-")
                for r in circuit.registers
            ),
        )
    ]
    for gate in circuit.gates:
        if gate.kind in ("h", "x"):
            line = f"{gate.kind} q{gate.target}"
        elif gate.kind == "ry":
            line = f"ry q{gate.target} {gate.params[0]!r}"
        elif gate.kind == "u":
            line = f"u q{gate.target} {_fmt_block(gate.params[0])}"
        elif gate.kind == "swap":
            line = f"swap q{gate.qubits[0]} q{gate.qubits[1]}"
        elif gate.kind == "ucg":
            sel = ",".join(f"q{q}" for q in gate.selects)
            line = f"ucg selects={sel} target=q{gate.target} blocks=" + ",".join(
                _fmt_block(b) for b in gate.params[0]
            )
        else:
            sel = ",".join(f"q{q}" for q in gate.selects)
            line = f"ucr selects={sel} target=q{gate.target} angles=" + ",".join(
                repr(a) for a in gate.params[0]
            )
        if gate.controls:
            line += " ctrl " + " ".join(f"q{q}={v}" for q, v in gate.controls)
        lines.append(line)
    return "\n".join(lines) + "\n"
