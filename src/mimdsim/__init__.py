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
    pre_delay,
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
    path_csv,
    resource_csv,
    run,
)
from .optimum import (
    OptimumError,
    OptimumSolution,
    UnboundedOptimumError,
    brute_force_opt,
    export_solution,
    solution_to_dict,
    solve_opt,
)
from .audit import (
    AuditError,
    AuditReport,
    check_lemma1,
    check_lemma3,
    competitive_ratio,
    export_report,
    max_received,
    measure_fairness,
    report_to_dict,
    sent_ceiling_slack,
    summary_line,
    theorem_parameters,
    weighted_throughput,
)

__version__ = "0.1.0"
