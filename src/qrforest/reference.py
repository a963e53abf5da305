"""Built-in reference experiment instance.

A hand-built two-tree forest of height 2 over three binary attributes whose
exact normalized forecast for the reference input is 0.1596 (raw forecast
0.5596 on leaf labels spanning [0.4, 1.4]).  At grid size t = 32 the nearest
estimate on the sin^2(pi k / 32) grid is sin^2(pi/8) ~= 0.14645, which a
single run returns with high probability, so repeated runs reproduce the
expected classical/quantum pair (0.1596, 0.14645).
"""
from __future__ import annotations

from .model import EQUALS, Attribute, InputObject, RandomForest

REFERENCE_T = 32
REFERENCE_RUNS = 10


def reference_forest() -> RandomForest:
    # Every node tests equals; slot j is heap node j (slot 0 unused) and leaf
    # slot j is leaf 4 + j.
    return RandomForest(
        schema=(Attribute("discrete", 2),) * 3,
        kind=[[EQUALS] * 4] * 2,
        attribute=[[1, 1, 2, 3], [1, 3, 2, 1]],
        threshold=[[0.0, 2.0, 2.0, 1.0], [0.0, 1.0, 1.0, 1.0]],
        leaf=[[0.5, 1.4, 0.4, 0.9], [0.4, 1.4, 0.7, 0.6192]],
    )


def reference_input() -> InputObject:
    return InputObject.of(1, 1, 1)
