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
    branch_products,
    conserve_check,
    enumerate_unique,
    hypothesis_sort_key,
    label_branches,
    local_hypotheses,
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
    detect_centralized_oracle,
    effective_measurement,
    hypothesis_stats,
    observation_from_json,
    plan_for,
)
from .errors import (
    AcceptanceRegion,
    IndistinguishableHypothesesError,
    ScalarHypothesisSet,
    acceptance_regions,
    all_missed_detection,
    area_errors,
    area_max_error,
    area_min_correct,
    max_missed_detection,
    missed_detection,
    monte_carlo_error,
    pattern_hypothesis_sets,
)
from .placement import (
    OracleResult,
    Placement,
    PlacementConfig,
    PlacementError,
    brute_force_placement_oracle,
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
