"""Simulation and analysis of second-order consensus among non-identical
agents under nonlinear velocity/coupling protocols, with optional leader
tracking."""

from .analysis import (ConsensusReport, Prediction, conservation_drift, conserved_series,
                       default_tracking_weight, detect_consensus, leader_closed_form_for,
                       lyapunov_series, predict_consensus, tracking_gain_lower_bound)
from .dynamics import (IntegratorSettings, LeaderState, Mode, Scenario,
                       ScenarioValidation, StateDerivative, SystemState, Trajectory, rhs,
                       rk4_step, scenario_fingerprint, simulate, validate_scenario)
from .errors import (ConsensimError, DuplicateEdge, HypothesisViolated,
                     IndexOutOfRange, InvalidBounds, MalformedEntry, NonFiniteState,
                     NonPositiveWeight, ParseError, SelfLoop, TopologyError,
                     ValidationFailed)
from .graph import (Topology, build_topology, is_connected, laplacian,
                    leader_reaches_all)
from .protocols import (AssumptionReport, CouplingKind, CouplingShape, GainKind,
                        GainProfile, ProtocolSpec, VelocityKind, VelocityShape,
                        sector_constants, validate_assumptions)
from .scenario_io import (bundled_scenario_path, list_bundled, parse_scenario,
                          parse_scenario_dict, scenario_to_dict, write_scenario)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "ConsensimError", "ConsensusReport",
    "CouplingKind", "CouplingShape", "DuplicateEdge", "GainKind", "GainProfile",
    "HypothesisViolated", "IndexOutOfRange", "IntegratorSettings", "InvalidBounds",
    "LeaderState", "MalformedEntry", "Mode", "NonFiniteState", "NonPositiveWeight",
    "ParseError", "Prediction", "ProtocolSpec", "Scenario", "ScenarioValidation",
    "SelfLoop", "StateDerivative", "SystemState", "Topology", "TopologyError",
    "Trajectory", "ValidationFailed", "VelocityKind", "VelocityShape",
    "build_topology", "bundled_scenario_path", "conservation_drift", "conserved_series",
    "default_tracking_weight", "detect_consensus", "is_connected", "laplacian",
    "leader_closed_form_for", "leader_reaches_all",
    "list_bundled", "lyapunov_series", "parse_scenario", "parse_scenario_dict",
    "predict_consensus", "rhs", "rk4_step", "scenario_fingerprint",
    "scenario_to_dict", "sector_constants", "simulate",
    "tracking_gain_lower_bound", "validate_assumptions", "validate_scenario",
    "write_scenario",
]
