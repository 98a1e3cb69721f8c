"""Command-line front door: run scenarios, sweeps, audits, and exports.

Thin shell over the library: every file this module writes can be
reproduced with direct library calls. Exit codes are stable: 0 success,
2 scenario/usage problems, 3 runtime failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import audit, kernel, optimum
from .audit import AuditError, theorem_parameters
from .kernel import KernelError
from .model import (
    AdversarialFairLoss,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    parse_scenario,
    require_valid,
)
from .optimum import OptimumError, UnboundedOptimumError
from .protocol import ProtocolError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class UsageError(ValueError):
    """Bad flags or a scenario that does not fit the requested mode."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimdsim",
        description="Fluid-model simulator for multiplicative end-to-end rate control.",
    )
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--mode",
        choices=["simulate", "bwtest", "audit", "opt"],
        default="simulate",
        help="what to run (default: simulate)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the adversarial loss policy seed")
    parser.add_argument("--sweep-epsilon", default=None,
                        help="comma-separated eps values (simulate mode only)")
    parser.add_argument("--sweep-duration", default=None,
                        help="comma-separated duration multipliers (simulate mode only)")
    return parser


def _parse_list(text: str | None, flag: str) -> list[float] | None:
    if not text:
        return None
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc
    if not values:
        raise UsageError(f"{flag} must list at least one value")
    return values


def load_scenario(path: str | Path, seed: int | None = None) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read scenario file: {exc}") from exc
    scenario = parse_scenario(text)
    if seed is not None and isinstance(scenario.loss_policy, AdversarialFairLoss):
        scenario = replace(scenario, loss_policy=replace(scenario.loss_policy, seed=seed))
    require_valid(scenario)
    return scenario


def _solve_or_none(scenario: Scenario) -> tuple[optimum.OptimumSolution | None, str | None]:
    try:
        return optimum.solve_opt(scenario), None
    except UnboundedOptimumError as exc:
        return None, str(exc)


def _write_run_outputs(scenario: Scenario, outdir: Path) -> audit.AuditReport:
    trace = kernel.run(scenario)
    kernel.export_trace(trace, outdir)
    solution, opt_note = _solve_or_none(scenario)
    if solution is not None:
        optimum.export_solution(solution, outdir / "optimum.json")
    else:
        print(f"warning: optimum not computed: {opt_note}", file=sys.stderr)
    report = audit.competitive_ratio(trace, solution)
    audit.export_report(report, outdir / "audit.json")
    return report


def _sweep_variant(scenario: Scenario, eps: float | None, duration: float) -> Scenario:
    connections = []
    for c in scenario.connections:
        length = max(1, math.ceil(c.duration * duration))
        alpha, beta = c.alpha, c.beta
        if eps is not None:
            alpha, beta = theorem_parameters(eps, c.value)
        connections.append(replace(c, end=c.start + length - 1, alpha=alpha, beta=beta))
    return replace(
        scenario,
        connections=tuple(connections),
        epsilon=scenario.epsilon if eps is None else eps,
    )


def cmd_simulate(scenario: Scenario, outdir: Path,
                 sweep_epsilon: list[float] | None,
                 sweep_duration: list[float] | None) -> int:
    report = _write_run_outputs(scenario, outdir)
    print(audit.summary_line(report))

    if sweep_epsilon is None and sweep_duration is None:
        return EXIT_OK
    eps_values: list[float | None] = list(sweep_epsilon) if sweep_epsilon else [None]
    durations = list(sweep_duration) if sweep_duration else [1.0]
    rows = []
    for eps in eps_values:
        for dur in durations:
            variant = _sweep_variant(scenario, eps, dur)
            sub = outdir / f"eps{variant.epsilon:g}_dur{dur:g}"
            entry_report = _write_run_outputs(variant, sub)
            rows.append((variant.epsilon, dur, entry_report.competitive_ratio,
                         entry_report.measured_epsilon_hat))
    rows.sort(key=lambda row: (row[0], row[1]))
    lines = ["epsilon,duration,ratio,eps_hat"]
    for eps, dur, ratio, eps_hat in rows:
        ratio_s = "" if ratio is None else repr(ratio)
        lines.append(f"{eps!r},{dur!r},{ratio_s},{eps_hat!r}")
    (outdir / "sweep_summary.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_audit(scenario: Scenario, outdir: Path) -> int:
    trace = kernel.run(scenario)
    solution, opt_note = _solve_or_none(scenario)
    if solution is None:
        print(f"warning: optimum not computed: {opt_note}", file=sys.stderr)
    report = audit.competitive_ratio(trace, solution)
    audit.export_report(report, outdir / "audit.json")
    print(audit.summary_line(report))
    return EXIT_OK


def cmd_opt(scenario: Scenario, outdir: Path) -> int:
    solution = optimum.solve_opt(scenario)
    optimum.export_solution(solution, outdir / "optimum.json")
    print(f"opt_value={solution.opt_value!r}")
    return EXIT_OK


def bandwidth_test(scenario: Scenario) -> dict:
    """Run to the horizon and report the converged aggregate received rate.

    Requires every connection to share one active interval; values are
    forced to 1 so the estimate weighs all paths equally. Convergence is
    declared once the trailing-window mean moves by less than 0.5% across
    one window, the window being max over paths of (1+delay)/(beta*eps).
    """
    if not scenario.connections:
        return {"estimate": 0.0, "opt_rate": 0.0, "opt_value": 0.0,
                "window": 0, "converged_at_round": None}
    intervals = {(c.start, c.end) for c in scenario.connections}
    if len(intervals) != 1:
        raise UsageError("bandwidth test needs all connections on one active interval")
    equalized = replace(
        scenario,
        connections=tuple(replace(c, value=1.0) for c in scenario.connections),
    )
    require_valid(equalized)
    trace = kernel.run(equalized)
    start, end = next(iter(intervals))

    window = max(
        math.ceil((1 + c.total_delay) / (c.beta * equalized.epsilon))
        for c in equalized.connections
    )
    window = max(1, window)
    agg = [0.0] * (trace.horizon + 1)
    for c in equalized.connections:
        rec = trace.paths[c.id]
        for t in c.shifted_window().rounds():
            agg[t] += rec.rcvd[t]

    def window_mean(upto: int) -> float:
        lo = max(0, upto - window + 1)
        return math.fsum(agg[lo: upto + 1]) / (upto - lo + 1)

    converged_at = None
    scan_last = min(end, trace.horizon)
    for t in range(start + 2 * window - 1, scan_last + 1):
        current = window_mean(t)
        previous = window_mean(t - window)
        if abs(current - previous) < 0.005 * max(current, 1e-12):
            converged_at = t
            break
    estimate = window_mean(converged_at if converged_at is not None else scan_last)
    solution, _ = _solve_or_none(equalized)
    # the comparable optimum is the best aggregate per-round rate, not the
    # whole-window objective
    opt_rate = None if solution is None else math.fsum(solution.rates.values())
    return {
        "estimate": estimate,
        "opt_rate": opt_rate,
        "opt_value": None if solution is None else solution.opt_value,
        "window": window,
        "converged_at_round": converged_at,
    }


def cmd_bandwidth_test(scenario: Scenario, outdir: Path) -> int:
    result = bandwidth_test(scenario)
    (outdir / "bandwidth_test.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    opt_s = "n/a" if result["opt_rate"] is None else f"{result['opt_rate']:.6g}"
    print(f"bandwidth_estimate={result['estimate']:.6g} opt={opt_s}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sweep_eps = _parse_list(args.sweep_epsilon, "--sweep-epsilon")
        sweep_dur = _parse_list(args.sweep_duration, "--sweep-duration")
        if args.mode != "simulate" and (sweep_eps or sweep_dur):
            raise UsageError("sweeps are only available in simulate mode")
        for eps in sweep_eps or ():
            if not 0.0 < eps < 1.0:
                raise UsageError(f"--sweep-epsilon: {eps!r} is not in (0, 1)")
        for dur in sweep_dur or ():
            if not (math.isfinite(dur) and dur > 0.0):
                raise UsageError(f"--sweep-duration: {dur!r} is not a finite value > 0")
        scenario = load_scenario(args.scenario, args.seed)
        zero = [c.id for c in scenario.connections if c.value <= 0]
        if sweep_eps and zero:
            raise UsageError(
                f"connection {zero[0]!r} has value 0; epsilon sweeps need positive values"
            )
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"output directory is not writable: {exc}") from exc
        with optimum.lp_worker():
            if args.mode == "simulate":
                return cmd_simulate(scenario, out_dir, sweep_eps, sweep_dur)
            if args.mode == "audit":
                return cmd_audit(scenario, out_dir)
            if args.mode == "opt":
                return cmd_opt(scenario, out_dir)
            return cmd_bandwidth_test(scenario, out_dir)
    except (ScenarioParseError, ScenarioValidationError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KernelError, OptimumError, AuditError, ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())
