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
outcome array is built (one lookup per walk level per application of the
operator); the circuit itself only branches on node indices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates as g
from .exceptions import DegenerateRangeError, UnsupportedForestError
from .model import InputObject, RandomForest, branch_outcomes


def _label_range(forest: RandomForest) -> tuple[float, float]:
    lo, hi = forest.y_min, forest.y_max
    if hi <= lo:
        raise DegenerateRangeError("all leaf labels equal; rotation angles undefined")
    return lo, hi


def leaf_angles(forest: RandomForest) -> np.ndarray:
    """``(n, 2^h)`` phi rotation half-angles, slot ``j`` for leaf ``2^h + j``;
    all in [0, pi/2]."""
    lo, hi = _label_range(forest)
    roots = np.sqrt(np.clip((forest.leaf - lo) / (hi - lo), 0.0, 1.0))
    # math.asin per leaf: np.arcsin can differ by 1 ulp, which would change
    # the ucr angles and dump_circuit.  np.sqrt is correctly rounded, as
    # math.sqrt is, so it may run in bulk.
    return np.array(list(map(math.asin, roots.ravel().tolist()))).reshape(roots.shape)


@dataclass(frozen=True)
class Register:
    """Named contiguous qubit range (lambda, psi, phi, phase)."""

    name: str
    start: int
    size: int

    def __post_init__(self):
        if self.start < 0 or self.size < 0:
            raise ValueError("register range must be non-negative")

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.start + self.size))


@dataclass(frozen=True)
class CompiledCircuit:
    """Immutable gate list over the lambda/psi/phi layout."""

    registers: tuple[Register, ...]
    gates: tuple[g.Gate, ...]
    num_qubits: int
    height: int

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


def compile_plus1(level: int, outcomes: np.ndarray, lam: Register, psi: Register) -> g.Gate:
    """One walk stage's conditional +1: ucg over (lambda, high psi qubits)
    flipping psi's low qubit where the parent outcome is true.  ``outcomes``
    is the ``(trees, 2^h)`` array of ``model.branch_outcomes`` for the trees
    under lambda."""
    flips = np.zeros(outcomes.shape, dtype=bool)
    flips[:, 1 << level : 2 << level] = outcomes[:, 1 << level : 2 << level]
    blocks = np.where(flips.reshape(-1, 1, 1), g._X, g._ID)
    return g.ucg(lam.qubits + psi.qubits[:-1], psi.qubits[-1], blocks)


def _leaf_rotation_gate(angles: np.ndarray, lam: Register, psi: Register, phi: Register) -> g.Gate:
    rows = np.concatenate([np.zeros(angles.shape), 2.0 * angles], axis=1)
    return g.ucr(lam.qubits + psi.qubits, phi.qubits[0], rows.ravel())


def check_compilable(forest: RandomForest, x: InputObject) -> int:
    """The checks ``compile_forest_op`` makes before it builds anything, in
    its order; returns the circuit's width ``ceil(log2 n) + h + 2``."""
    x.validate_against(forest.schema)
    n = forest.n
    if n & (n - 1):
        raise UnsupportedForestError(f"tree count must be a power of two, got {n}")
    _label_range(forest)
    return (n - 1).bit_length() + forest.height + 2


def compile_forest_op(forest: RandomForest, x: InputObject) -> CompiledCircuit:
    """The full forecasting operator: from |0...0> it prepares a uniform
    superposition of trees, each walked to its leaf, with phi carrying the
    normalized leaf label in its |1> amplitude."""
    num_qubits = check_compilable(forest, x)
    n, h = forest.n, forest.height
    outcomes = branch_outcomes(forest, x)
    angles = leaf_angles(forest)
    lam, psi, phi = registers_for(n, h)
    seq: list[g.Gate] = [g.h(q) for q in lam.qubits]
    seq.append(g.x(psi.qubits[-1]))
    for level in range(h):
        seq.extend(compile_times2(psi))
        seq.append(compile_plus1(level, outcomes, lam, psi))
    seq.append(_leaf_rotation_gate(angles, lam, psi, phi))
    return CompiledCircuit(
        registers=(lam, psi, phi),
        gates=tuple(seq),
        num_qubits=num_qubits,
        height=h,
    )


def _fmt_blocks(blocks: np.ndarray) -> str:
    """The blocks, comma-separated, each named X or I: the only blocks
    ``compile_plus1`` builds.  Any other block raises ``ValueError``."""
    is_x = (blocks == g._X).all(axis=(1, 2))
    if not (is_x | (blocks == g._ID).all(axis=(1, 2))).all():
        raise ValueError("dump_circuit prints only X and I blocks")
    return ",".join(np.where(is_x, "X", "I").tolist())


def dump_circuit(circuit: CompiledCircuit) -> str:
    """Line-per-gate text form for inspection and fixtures; blocks print as X or I."""
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
        elif gate.kind == "swap":
            line = f"swap q{gate.qubits[0]} q{gate.qubits[1]}"
        elif gate.kind == "ucg":
            sel = ",".join(f"q{q}" for q in gate.selects)
            line = f"ucg selects={sel} target=q{gate.target} blocks=" + _fmt_blocks(gate.params[0])
        else:
            sel = ",".join(f"q{q}" for q in gate.selects)
            line = f"ucr selects={sel} target=q{gate.target} angles=" + ",".join(
                repr(a) for a in gate.params[0].tolist()
            )
        lines.append(line)
    return "\n".join(lines) + "\n"
