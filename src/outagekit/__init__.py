"""Outage detection, error evaluation and sensor placement on radial feeders."""

from .network import (
    Branch,
    BranchGraph,
    CumulativeStats,
    FeederFormatError,
    Tree,
    branch_decompose,
    build_tree,
    cumulative_stats,
    dump_feeder,
    load_feeder,
)
from .hypotheses import (
    EnumerationCapError,
    enumerate_unique,
    hypothesis_sort_key,
    pattern_groups,
)
from .detector import (
    Area,
    AreaDecision,
    Detection,
    DetectionError,
    DetectorPlan,
    InconsistentObservationError,
    Observation,
    ObservationFormatError,
    build_area,
    build_areas,
    detect,
    hypothesis_stats,
    observation_from_json,
    plan_for,
)
from .errors import (
    IndistinguishableHypothesesError,
    ScalarHypothesisSet,
    all_missed_detection,
    area_errors,
    area_max_error,
    missed_detection,
    pattern_hypothesis_sets,
)
from .placement import (
    Placement,
    PlacementConfig,
    PlacementError,
    evaluate_areas,
    generate_edge_order,
    solve_budget,
    solve_feasibility,
)
from .sim import (
    ForecastModel,
    SweepConfig,
    SweepResult,
    SweepRow,
    empirical_detection_rate,
    kappa_of_load,
    random_tree,
    simulate_outage,
    sweep,
)

__version__ = "0.1.0"
