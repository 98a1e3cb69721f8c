"""Post-run verification and measurement over immutable traces.

Two per-path inequalities are checked as numeric slacks (LHS minus RHS, so
negative means violated):

* throughput floor: total received must cover (beta/alpha - 1) times the
  total lost, minus a warm-up allowance of (delay + 1) * start_rate / alpha;
* loss floor: the summed per-round loss fractions must reach a rate-derived
  bound built from the duration, the delay, and the log of the peak
  received rate over the start rate.

The loss floor's derivation assumes the start rate is no larger than
beta * U / (beta - alpha) where U is the peak per-round received amount
(a run that starts absurdly above capacity can legitimately dip below the
stated bound); the randomized suites keep starts feasible so both slacks
must be non-negative up to float tolerance.

``competitive_ratio`` fills both slacks, the peak U, the per-path
constants b and c, the duration threshold terms and the weighted throughput
in one pass over the connections, reading each path's arrival window once.

Fairness is measured as the smallest eps for which each path's cumulative
loss fraction is within (1 + eps) of the summed per-resource loss ratios it
traversed. The final report pairs the protocol's weighted throughput with
the fixed-rate optimum.
"""

from __future__ import annotations

import math
from operator import truediv
from pathlib import Path
from typing import NamedTuple

from . import kernel, optimum
from .kernel import ResourceLedger, RunTrace, loss_totals
from .model import Scenario, crossings, write_json
from .optimum import OptimumSolution, UnboundedOptimumError


class BandwidthTestError(ValueError):
    """The scenario does not fit the bandwidth test."""


class AuditReport(NamedTuple):
    """Everything the auditor measures for one run."""

    weighted_throughput: float
    total_lost_paths: float
    total_lost_resources: float
    lemma1_slack: dict[str, float]
    lemma3_slack: dict[str, float | None]   # None marks a degenerate path (never received)
    measured_epsilon_hat: float
    U: dict[str, float]
    b: float | None
    c: float | None
    per_path_b: dict[str, float]
    per_path_c: dict[str, float | None]
    duration_threshold: float | None
    opt_value: float | None
    competitive_ratio: float | None


def measure_fairness(trace: RunTrace) -> float:
    """Smallest eps making the fair-loss condition hold, maximized over paths.

    A path's cumulative loss fraction is compared with the loss ratios of
    each hop summed over the rounds its cohorts crossed it. Convention: a
    path with no loss and no traversed loss contributes 0; a path losing
    packets while its resources report no loss ratio yields inf
    (unreachable for kernel-produced traces).
    """
    scenario = trace.scenario
    if not scenario.connections:
        return 0.0
    ledgers = [trace.resources[r.id] for r in scenario.resources]
    hops: list[list[tuple[ResourceLedger, int, int]]] = [[] for _ in scenario.connections]
    for k, i, _, first, last in crossings(scenario):
        hops[k].append((ledgers[i], first, last + 1))
    # max over paths; can be negative when every path is under par
    values = []
    for c, path_hops in zip(scenario.connections, hops):
        rec = trace.paths[c.id]
        lhs = math.fsum(map(truediv, rec.lost[c.shifted_window().as_slice()],
                            rec.sent[c.active_window().as_slice()]))
        rhs = math.fsum(
            lost / into
            for led, lo, hi in path_hops
            for lost, into in zip(led.lost[lo:hi], led.into[lo:hi])
            if into > 0.0
        )
        if rhs == 0.0:
            values.append(0.0 if lhs == 0.0 else math.inf)
        else:
            values.append(lhs / rhs - 1.0)
    return max(values)


def theorem_parameters(epsilon: float, val: float) -> tuple[float, float]:
    """Protocol parameters for a target eps: beta = eps and
    alpha = eps * beta * val, which makes alpha < beta automatic."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if not 0.0 < val <= 1.0:
        raise ValueError(f"val must lie in (0,1], got {val}")
    beta = epsilon
    alpha = epsilon * beta * val
    return alpha, beta


def competitive_ratio(trace: RunTrace, opt: OptimumSolution | None) -> AuditReport:
    """Assemble the full report, rated against ``opt`` by ``rated``; opt may
    be None when it was unbounded, or not solved yet. One pass over the
    connections reads each path's record and arrival window once and fills
    every per-path field."""
    scenario = trace.scenario
    throughput_terms = []
    lemma1: dict[str, float] = {}
    lemma3: dict[str, float | None] = {}
    peaks: dict[str, float] = {}
    per_path_b: dict[str, float] = {}
    per_path_c: dict[str, float | None] = {}
    threshold_terms = []
    for c in scenario.connections:
        rec = trace.paths[c.id]
        window = c.shifted_window().as_slice()
        rcvd = rec.rcvd[window]
        total_rcvd = math.fsum(rcvd)
        throughput_terms.append(c.value * total_rcvd)
        total_lost = math.fsum(rec.lost[window])
        rhs = (c.beta / c.alpha - 1.0) * total_lost - (c.total_delay + 1) * c.start_rate / c.alpha
        lemma1[c.id] = total_rcvd - rhs
        peak = peaks[c.id] = max(rcvd, default=0.0)
        per_path_b[c.id] = (c.beta / c.alpha - 1.0) * c.value
        if peak <= 0.0:
            lemma3[c.id] = per_path_c[c.id] = None
            continue
        log_term = math.log(c.beta * peak / ((c.beta - c.alpha) * c.start_rate))
        total_lsr = math.fsum(rec.lsr[window])
        growth = (
            c.alpha * (1.0 - c.beta) / (c.beta * (1.0 + c.alpha))
            * (c.duration - 1 - c.total_delay)
        )
        loss_log = (1.0 - c.beta) / c.beta * (1 + c.total_delay) * log_term
        lemma3[c.id] = total_lsr - (growth - loss_log)
        if c.value <= 0.0:
            per_path_c[c.id] = None
            continue
        frac = (1 + c.total_delay) / c.duration
        per_path_c[c.id] = (
            c.alpha * (1.0 - c.beta) / (c.beta * (1.0 + c.alpha) * c.value) * (1.0 - frac)
            - (1.0 - c.beta) / (c.beta * c.value) * frac * log_term
        )
        if peak > c.start_rate:
            threshold_terms.append(
                (1 + c.total_delay) * math.log(peak / c.start_rate)
                / (scenario.epsilon ** 2 * c.beta * c.value)
            )

    total_lost_paths, total_lost_resources = loss_totals(trace)
    finite_c = [v for v in per_path_c.values() if v is not None]
    return rated(AuditReport(
        weighted_throughput=math.fsum(throughput_terms),
        total_lost_paths=total_lost_paths,
        total_lost_resources=total_lost_resources,
        lemma1_slack=lemma1,
        lemma3_slack=lemma3,
        measured_epsilon_hat=measure_fairness(trace),
        U=peaks,
        b=min(per_path_b.values()) if per_path_b else None,
        c=min(finite_c) if finite_c else None,
        per_path_b=per_path_b,
        per_path_c=per_path_c,
        duration_threshold=max(threshold_terms) if threshold_terms else None,
        opt_value=None,
        competitive_ratio=None,
    ), opt)


def rated(report: AuditReport, opt: OptimumSolution | None) -> AuditReport:
    """``report`` with ``opt_value`` and ``competitive_ratio`` taken from
    ``opt``, or both None when ``opt`` is None (an unbounded optimum).
    Against an ``opt_value`` of 0 the ratio is 0.0 for a zero throughput
    and None for a positive one: a fixed rate must be 0 across a
    capacity-0 round, which the protocol can send around."""
    throughput, ratio = report.weighted_throughput, None
    if opt is not None:
        if opt.opt_value > 0.0:
            ratio = throughput / opt.opt_value
        elif throughput == 0.0:
            ratio = 0.0
    return report._replace(opt_value=None if opt is None else opt.opt_value,
                           competitive_ratio=ratio)


def solve_or_none(scenario: Scenario) -> tuple[OptimumSolution | None, str | None]:
    """``(solve_opt(scenario), None)``, or ``(None, reason)`` when the optimum
    is unbounded."""
    try:
        return optimum.solve_opt(scenario), None
    except UnboundedOptimumError as exc:
        return None, str(exc)


def bandwidth_test(scenario: Scenario) -> dict:
    """Run to the horizon and report the converged aggregate received rate.

    Requires every connection to share one active interval (else
    BandwidthTestError); values are forced to 1 so the estimate weighs
    all paths equally. Convergence is declared once the trailing-window
    mean moves by at most 0.5% of its value across one window, the window
    being max over paths of (1+delay)/(beta*eps). The test is relative
    only, so it holds at every scale of the rates; two all-zero windows
    count as converged. The scan starts at round ``start + 2 * window - 1``,
    the first round whose earlier window starts no sooner than ``start``.
    The LP is solved only once the trace, reduced to these sums, is
    released.
    """
    if not scenario.connections:
        return {"estimate": 0.0, "opt_rate": 0.0, "opt_value": 0.0,
                "window": 0, "converged_at_round": None}
    intervals = {(c.start, c.end) for c in scenario.connections}
    if len(intervals) != 1:
        raise BandwidthTestError("bandwidth test needs all connections on one active interval")
    scenario = scenario._replace(connections=tuple(c._replace(value=1.0)
                                                 for c in scenario.connections))
    trace = kernel.run(scenario)
    start, end = next(iter(intervals))

    window = max(
        math.ceil((1 + c.total_delay) / (c.beta * scenario.epsilon))
        for c in scenario.connections
    )
    window = max(1, window)
    agg = [0.0] * (trace.horizon + 1)
    for c in scenario.connections:
        rec = trace.paths[c.id]
        for t in c.shifted_window().rounds():
            agg[t] += rec.rcvd[t]
    del trace, rec   # the LP below does not read the trace

    def window_mean(upto: int) -> float:
        lo = max(0, upto - window + 1)
        return math.fsum(agg[lo: upto + 1]) / (upto - lo + 1)

    converged_at = None
    scan_last = min(end, scenario.horizon)
    for t in range(start + 2 * window - 1, scan_last + 1):
        current = window_mean(t)
        previous = window_mean(t - window)
        if abs(current - previous) <= 0.005 * current:
            converged_at = t
            break
    estimate = window_mean(converged_at if converged_at is not None else scan_last)
    solution, _ = solve_or_none(scenario)
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


def _fmt(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def summary_line(report: AuditReport) -> str:
    lemma1_min = min(report.lemma1_slack.values(), default=None)
    lemma3_values = [v for v in report.lemma3_slack.values() if v is not None]
    lemma3_min = min(lemma3_values) if lemma3_values else None
    return (
        f"ratio={_fmt(report.competitive_ratio)} "
        f"eps_hat={_fmt(report.measured_epsilon_hat)} "
        f"lemma1_min_slack={_fmt(lemma1_min)} "
        f"lemma3_min_slack={_fmt(lemma3_min)}"
    )


def report_to_dict(report: AuditReport) -> dict:
    return report._asdict()


def export_report(report: AuditReport, path: str | Path) -> Path:
    return write_json(report_to_dict(report), path)
