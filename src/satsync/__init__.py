"""Scale-free synchronization protocols for saturated multi-agent systems.

Synthesizes observer-based coupling controllers from a single agent
model -- never from the network -- simulates the resulting closed loop
over arbitrary directed graphs with a well-connected root set, and
judges convergence numerically.
"""

from .agents import (
    AgentModel,
    Classification,
    EigenCluster,
    MixedDecomposition,
    ModelClass,
    classify,
    mixed_decompose,
    saturate,
)
from .analysis import (
    RunRecord,
    SyncReport,
    export_report,
    parse_report,
    rho_cases,
    run_case,
    run_cases,
    size_cases,
    sync_metrics,
)
from .errors import IntegrationError, SynthesisError, ValidationError
from .gains import (
    GainCheck,
    GainReport,
    GainSet,
    design_F,
    design_K_double,
    design_K_mixed,
    solve_P_neutral,
    synthesize_gains,
    verify_gains,
)
from .graphs import (
    CommGraph,
    check_rootset,
    generate_graph,
    laplacian,
    load_graph,
    parse_graph,
    serialize_graph,
)
from .presets import preset_names, preset_scenario
from .protocols import (
    KINDS,
    ProtocolRealization,
    build_protocol,
    compatible_classes,
)
from .scenario import build_scenario, parse_scenario_doc, scenario_echo
from .simulation import Scenario, TrajectoryRecord, export_trajectory

__version__ = "0.1.0"

__all__ = [
    "AgentModel",
    "Classification",
    "CommGraph",
    "EigenCluster",
    "GainCheck",
    "GainReport",
    "GainSet",
    "IntegrationError",
    "KINDS",
    "MixedDecomposition",
    "ModelClass",
    "ProtocolRealization",
    "RunRecord",
    "Scenario",
    "SyncReport",
    "SynthesisError",
    "TrajectoryRecord",
    "ValidationError",
    "build_protocol",
    "build_scenario",
    "check_rootset",
    "classify",
    "compatible_classes",
    "design_F",
    "design_K_double",
    "design_K_mixed",
    "export_report",
    "export_trajectory",
    "generate_graph",
    "laplacian",
    "load_graph",
    "mixed_decompose",
    "parse_graph",
    "parse_report",
    "parse_scenario_doc",
    "preset_names",
    "preset_scenario",
    "rho_cases",
    "run_case",
    "run_cases",
    "saturate",
    "size_cases",
    "scenario_echo",
    "serialize_graph",
    "solve_P_neutral",
    "synthesize_gains",
    "sync_metrics",
    "verify_gains",
]
