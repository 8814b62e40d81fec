"""Exact simulation and analysis of quantized consensus on directed graphs.

Agents with scalar continuous-time dynamics exchange quantized state values
over a (possibly time-varying) weighted directed graph.  The discontinuous
right-hand side is integrated exactly as an event-driven hybrid system with
sliding-mode resolution on the quantizer thresholds, and the analysis layer
measures convergence times, checks conservation laws, and evaluates
worst-case bounds.
"""

from .analysis import (
    ConvergenceReport,
    EnvelopeAudit,
    LimitCheck,
    UnsupportedQuantizerError,
    audit_trajectory,
    average_conservation,
    consensus_level,
    consensus_level_set,
    convergence_report,
    convergence_time,
    envelopes,
    limit_value_check,
    log_tcon_bound,
    tcon_bound,
)
from .dynamics import (
    ContractViolation,
    FixedAlpha,
    NoSlidingSelection,
    RegularizationUnstable,
    RegularizedRun,
    Resolution,
    SelectionPolicy,
    SequentialSlow,
    SimulationLimitError,
    Sliding,
    Trajectory,
    TrajectoryEvent,
    policy_from_json,
    resolve_sliding,
    selection_velocity,
    simulate,
    simulate_regularized,
)
from .graphs import (
    GraphSchedule,
    WeightedDigraph,
    has_globally_reachable_node,
    is_weight_balanced,
    laplacian,
    schedule_from_json,
)
from .quantizers import (
    GeneralQuantizer,
    InputError,
    KernelError,
    Quantizer,
    UniformQuantizer,
    kq_envelope,
    quantizer_from_json,
)
from .scenarios import (
    ExpectedOutcome,
    ScenarioConfig,
    SplitMix64,
    example1_line,
    example2_sliding,
    line_graph,
    random_connected,
    scenario_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "ConvergenceReport",
    "EnvelopeAudit",
    "ExpectedOutcome",
    "FixedAlpha",
    "GeneralQuantizer",
    "GraphSchedule",
    "InputError",
    "KernelError",
    "LimitCheck",
    "NoSlidingSelection",
    "Quantizer",
    "RegularizationUnstable",
    "RegularizedRun",
    "Resolution",
    "ScenarioConfig",
    "SelectionPolicy",
    "SequentialSlow",
    "SimulationLimitError",
    "Sliding",
    "SplitMix64",
    "Trajectory",
    "TrajectoryEvent",
    "UniformQuantizer",
    "UnsupportedQuantizerError",
    "WeightedDigraph",
    "audit_trajectory",
    "average_conservation",
    "consensus_level",
    "consensus_level_set",
    "convergence_report",
    "convergence_time",
    "envelopes",
    "example1_line",
    "example2_sliding",
    "has_globally_reachable_node",
    "is_weight_balanced",
    "kq_envelope",
    "laplacian",
    "line_graph",
    "log_tcon_bound",
    "policy_from_json",
    "quantizer_from_json",
    "random_connected",
    "resolve_sliding",
    "scenario_from_json",
    "schedule_from_json",
    "selection_velocity",
    "simulate",
    "simulate_regularized",
    "tcon_bound",
]
