"""Fluid-model network simulator for multiplicative end-to-end rate control,
with a fixed-rate optimum solver and a per-run auditor."""

from .model import (
    AdversarialFairLoss,
    CapacityTimeline,
    ConnectionSpec,
    LossPolicy,
    ProportionalLoss,
    ResourceSpec,
    RoundWindow,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    Violation,
    emit_scenario,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)
from .protocol import ProtocolError, loss_fraction, update_rate
from .kernel import (
    KernelError,
    PathRecord,
    ResourceLedger,
    RunTrace,
    allocate_loss,
    export_trace,
    run,
)
from .optimum import (
    OptimumError,
    OptimumSolution,
    UnboundedOptimumError,
    export_solution,
    solution_to_dict,
    solve_opt,
)
from .audit import (
    AuditReport,
    competitive_ratio,
    export_report,
    measure_fairness,
    report_to_dict,
    summary_line,
    theorem_parameters,
)

__version__ = "0.1.0"
