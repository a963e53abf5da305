"""Quantum amplitude-estimation forecasting for random-forest regression,
validated step by step against exact classical evaluation on a dense
state-vector simulator."""

from .compiler import (
    CompiledCircuit,
    Register,
    compile_forest_op,
    compile_plus1,
    compile_times2,
    dump_circuit,
    leaf_angles,
)
from .exceptions import (
    DegenerateRangeError,
    ForestFormatError,
    QrfError,
    ResourceLimitError,
    SchemaMismatchError,
    UnsupportedForestError,
)
from .forest_io import load_forest, save_forest
from .gates import Gate
from .model import (
    Attribute,
    InputObject,
    METRIC_NAMES,
    RandomForest,
    beta_classical,
    beta_to_R,
    branch_outcomes,
    error_metrics,
    forecast_classical,
    generate_random_forest,
    walk_forest,
)
from .qae import (
    EstimationResult,
    PhaseEstimation,
    QaeConfig,
    error_bound,
    estimate_of,
    query_count,
    repetitions_for_delta,
    run_forecast,
    sample_outcomes,
)
from .statevector import StateVector

__version__ = "0.1.0"
