"""Central numeric policy: simulator and forest limits, RNG.

Randomness policy: every seeded code path builds a ``numpy.random.Generator``
over PCG64 via ``default_rng(seed)`` (sub-streams via ``SeedSequence.spawn``),
and all discrete sampling is inverse-CDF on ``Generator.random()``.  That
keeps sampled streams reproducible across platforms for a fixed seed.
``model.generate_random_forest`` reads its generator's raw words and replays
``Generator.integers`` and ``Generator.random`` on them.
"""

# Hard cap on simulated width; 2^22 complex amplitudes is 64 MiB.
MAX_SIM_QUBITS = 22

# Largest forest accepted, in slots: a forest of n trees of height h is four
# (n, 2^h) arrays (21 bytes a slot), allocated before any simulator width
# check, so n * 2^h is checked before anything is allocated or drawn.
MAX_FOREST_SLOTS = 2**20

# Longest inputs read: a forest document in bytes (a canonical one takes about
# 158 a slot, at most 190), an --input file, a --pairs line (characters) and
# --pairs file (lines, blank or not, so that no file is read for long; a pair
# is held as two float64 column entries, and metrics peaks at about 41 MiB
# traced over 2^20 pairs).
MAX_FOREST_BYTES = 256 * MAX_FOREST_SLOTS
MAX_INPUT_BYTES = 2**20
MAX_PAIRS_LINE = 2**12
MAX_PAIRS = 2**20

# Largest category count of a discrete attribute: thresholds and input values
# are float64, which hold every integer up to 2^53 exactly and no longer tell
# 2^53 + 1 from 2^53.
MAX_CATEGORIES = 2**53
