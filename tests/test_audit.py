"""Auditor checks: lemma slacks, fairness, constants, the ratio report."""

from __future__ import annotations

import math
import random

import pytest

from conftest import (
    constant_resource,
    path_csv,
    random_scenario,
    sent_ceiling_slack,
    simple_conn,
    single_link_scenario,
)
from mimdsim import audit
from mimdsim.audit import (
    competitive_ratio,
    measure_fairness,
    summary_line,
    theorem_parameters,
)
from mimdsim.kernel import run
from mimdsim.model import AdversarialFairLoss, ProportionalLoss, Scenario
from mimdsim.optimum import OptimumSolution, solve_opt
from oracle_audit import reference_fields


def _slacks(trace) -> tuple[float, float | None]:
    """p0's lemma 1 and lemma 3 slacks from the trace-only report."""
    report = competitive_ratio(trace, None)
    return report.lemma1_slack["p0"], report.lemma3_slack["p0"]


def test_lemma1_lossless_equals_throughput_plus_warmup_allowance():
    sc = single_link_scenario(cap=1e9, duration=40, start_rate=2.0, alpha=0.02, beta=0.2)
    trace = run(sc)
    c = sc.connections[0]
    total_rcvd = math.fsum(trace.paths["p0"].rcvd[t] for t in c.shifted_window().rounds())
    slack, _ = _slacks(trace)
    assert slack == pytest.approx(total_rcvd + (c.total_delay + 1) * c.start_rate / c.alpha)
    assert slack > 0


def test_lemma1_holds_on_the_overloaded_single_link():
    sc = single_link_scenario(cap=10.0, duration=60, start_rate=20.0)
    trace = run(sc)
    c = sc.connections[0]
    rec = trace.paths["p0"]
    rounds = list(c.shifted_window().rounds())
    lhs = math.fsum(rec.rcvd[t] for t in rounds)
    rhs = (c.beta / c.alpha - 1.0) * math.fsum(rec.lost[t] for t in rounds) \
        - (c.total_delay + 1) * c.start_rate / c.alpha
    assert _slacks(trace)[0] == pytest.approx(lhs - rhs, rel=1e-12)
    assert lhs - rhs >= -1e-6 * (lhs + 1.0)


def test_lemma3_lossless_run_has_nonnegative_slack():
    sc = single_link_scenario(cap=1e9, duration=50, start_rate=0.5, delay=2)
    trace = run(sc)
    _, slack = _slacks(trace)
    assert slack is not None and slack >= 0.0


def test_lemma3_fixed_point_run_dominated_by_loss_ratio_sum():
    sc = single_link_scenario(cap=100.0, duration=2000)
    trace = run(sc)
    _, slack = _slacks(trace)
    c = sc.connections[0]
    # steady state contributes about alpha/beta per round against the
    # growth term scaled by (1-beta)/(1+alpha); the gap grows linearly
    per_round_gap = (0.01 / 0.1) * (1 - (1 - c.beta) / (1 + c.alpha))
    assert slack is not None
    assert slack > 0.5 * per_round_gap * c.duration


def test_lemma3_warmup_only_duration_reduces_to_log_term():
    sc = single_link_scenario(cap=1e6, duration=3, delay=2, start_rate=4.0)
    trace = run(sc)
    c = sc.connections[0]
    _, slack = _slacks(trace)
    expected = (1 - c.beta) / c.beta * (1 + c.total_delay) * math.log(c.beta / (c.beta - c.alpha))
    assert slack == pytest.approx(expected, rel=1e-9)
    assert slack >= 0.0


def test_warmup_only_path_still_gets_a_ratio():
    # nothing beyond warm-up: ratio is just warm-up throughput over opt
    sc = single_link_scenario(cap=1e6, duration=3, delay=2, start_rate=4.0)
    trace = run(sc)
    report = competitive_ratio(trace, solve_opt(sc))
    assert report.weighted_throughput == pytest.approx(12.0)
    assert report.competitive_ratio == pytest.approx(12.0 / report.opt_value)


def test_lemma3_degenerate_when_nothing_received():
    sc = single_link_scenario(cap=0.0, duration=10)
    trace = run(sc)
    report = competitive_ratio(trace, None)
    assert report.lemma3_slack["p0"] is None
    assert "lemma3_min_slack=n/a" in summary_line(report)


def test_sent_ceiling_holds_on_random_runs():
    rng = random.Random(61)
    for _ in range(15):
        sc = random_scenario(rng)
        trace = run(sc)
        for c in sc.connections:
            assert sent_ceiling_slack(trace, c) >= 0.0


def _edge_scenarios() -> list[Scenario]:
    """Paths the random suite never builds: nothing received, value 0,
    warm-up only, no connections at all."""
    with_idle_path = Scenario(
        resources=(constant_resource("link", 30.0),),
        connections=(
            simple_conn("p0", ("link",), end=99, start_rate=5.0),
            simple_conn("idle", ("link",), value=0.0, end=49, delay=1, hop_delays=(1,)),
        ),
        epsilon=0.1,
    )
    return [
        single_link_scenario(cap=0.0, duration=10),
        single_link_scenario(cap=1e6, duration=3, delay=2, start_rate=4.0),
        single_link_scenario(cap=50.0, duration=800,
                             policy=AdversarialFairLoss(target_path="p0")),
        with_idle_path,
        Scenario(resources=(constant_resource("link", 5.0),), connections=(), epsilon=0.1),
    ]


def test_one_pass_report_equals_the_per_path_formulas(acceptance_suite):
    """Every per-path field, and b, c, the threshold and the weighted
    throughput built from them, equal the helper-by-helper formulas of
    ``oracle_audit`` bit for bit, under both policies."""
    policies = {ProportionalLoss: 0, AdversarialFairLoss: 0}
    edges = [run(sc) for sc in _edge_scenarios()]
    for trace in [trace for _, trace in acceptance_suite] + edges:
        policies[type(trace.scenario.loss_policy)] += 1
        report = competitive_ratio(trace, None)
        for field, expected in reference_fields(trace).items():
            assert getattr(report, field) == expected, field
    assert policies[ProportionalLoss] > 0 and policies[AdversarialFairLoss] > 0
    # the edges are reached: a degenerate path, and a value-0 path that
    # has a loss-floor slack but no per-path c
    assert competitive_ratio(edges[0], None).lemma3_slack["p0"] is None
    idle = competitive_ratio(edges[3], None)
    assert idle.per_path_c["idle"] is None and idle.lemma3_slack["idle"] is not None
    assert idle.per_path_c["p0"] is not None


def test_fairness_zero_for_lossless_and_bounded_for_proportional():
    lossless = run(single_link_scenario(cap=1e9, duration=30))
    assert measure_fairness(lossless) == 0.0
    rng = random.Random(313)
    seen = 0
    while seen < 10:
        sc = random_scenario(rng)
        if not isinstance(sc.loss_policy, ProportionalLoss):
            continue
        seen += 1
        assert measure_fairness(run(sc)) <= 1e-9


def test_fairness_infinite_when_loss_has_no_resource_ratio():
    # unreachable for kernel-produced traces; pin the convention by tampering
    trace = run(single_link_scenario(cap=100.0, duration=1))
    trace.paths["p0"].lost[0] = 0.5
    assert measure_fairness(trace) == math.inf


def test_fairness_respects_adversarial_budget():
    rng = random.Random(727)
    seen = 0
    while seen < 10:
        sc = random_scenario(rng)
        if not isinstance(sc.loss_policy, AdversarialFairLoss):
            continue
        seen += 1
        assert measure_fairness(run(sc)) <= sc.epsilon + 1e-9


def test_theorem_parameters_examples_and_validation():
    alpha, beta = theorem_parameters(0.1, 1.0)
    assert (alpha, beta) == (pytest.approx(0.01), pytest.approx(0.1))
    alpha, beta = theorem_parameters(0.1, 0.5)
    assert (alpha, beta) == (pytest.approx(0.005), pytest.approx(0.1))
    assert alpha < beta
    for bad in ((0.0, 1.0), (0.1, 0.0), (0.1, 1.5)):
        with pytest.raises(ValueError):
            theorem_parameters(*bad)


def test_report_assembles_constants_and_threshold():
    sc = single_link_scenario(cap=50.0, duration=800)
    trace = run(sc)
    report = competitive_ratio(trace, solve_opt(sc))
    c = sc.connections[0]
    assert report.per_path_b["p0"] == pytest.approx((c.beta / c.alpha - 1.0) * c.value)
    assert report.b == report.per_path_b["p0"]
    peak = report.U["p0"]
    assert peak == pytest.approx(50.0, rel=1e-9)
    log_term = math.log(c.beta * peak / ((c.beta - c.alpha) * c.start_rate))
    frac = (1 + c.total_delay) / c.duration
    expected_c = (
        c.alpha * (1 - c.beta) / (c.beta * (1 + c.alpha) * c.value) * (1 - frac)
        - (1 - c.beta) / (c.beta * c.value) * frac * log_term
    )
    assert report.per_path_c["p0"] == pytest.approx(expected_c, rel=1e-12)
    assert report.c == report.per_path_c["p0"]
    assert report.duration_threshold == pytest.approx(
        (1 + c.total_delay) * math.log(peak / c.start_rate)
        / (sc.epsilon ** 2 * c.beta * c.value)
    )
    assert 0.0 <= report.competitive_ratio <= 1.0 + 1e-9


def test_ratio_conventions_against_zero_and_unbounded_optima():
    dead = run(single_link_scenario(cap=0.0, duration=10))
    report = competitive_ratio(dead, OptimumSolution({"p0": 0.0}, 0.0, ()))
    assert report.competitive_ratio == 0.0

    # a positive throughput beats a zero optimum by an unbounded factor
    live = run(single_link_scenario(cap=100.0, duration=10))
    beaten = competitive_ratio(live, OptimumSolution({"p0": 0.0}, 0.0, ()))
    assert beaten.opt_value == 0.0 and beaten.competitive_ratio is None

    partial = competitive_ratio(live, None)
    assert partial.opt_value is None and partial.competitive_ratio is None
    assert "ratio=n/a" in summary_line(partial)


def test_ratio_trend_non_decreasing_with_duration():
    alpha, beta = theorem_parameters(0.2, 1.0)
    ratios = []
    for mult in (1, 2, 4, 8):
        sc = single_link_scenario(
            cap=30.0, duration=150 * mult, start_rate=1.0,
            alpha=alpha, beta=beta, epsilon=0.2,
        )
        trace = run(sc)
        report = competitive_ratio(trace, solve_opt(sc))
        assert 0.0 <= report.competitive_ratio <= 1.0 + 1e-9
        ratios.append(report.competitive_ratio)
    for earlier, later in zip(ratios, ratios[1:]):
        assert later >= earlier - 0.02
    assert ratios[-1] >= 1 - 3 * 0.2


def test_weighted_throughput_matches_csv_export():
    rng = random.Random(2)
    sc = random_scenario(rng)
    trace = run(sc)
    report = competitive_ratio(trace, None)
    recomputed = []
    for c in sc.connections:
        text = path_csv(trace, c.id)
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        recomputed.append(c.value * math.fsum(float(row[2]) for row in rows))
    total = math.fsum(recomputed)
    assert abs(total - report.weighted_throughput) <= 1e-9 * max(1.0, total)


def test_summary_line_shape():
    sc = single_link_scenario(cap=40.0, duration=100)
    report = competitive_ratio(run(sc), solve_opt(sc))
    line = summary_line(report)
    assert line.startswith("ratio=")
    assert " eps_hat=" in line and " lemma1_min_slack=" in line and " lemma3_min_slack=" in line


def test_report_json_round_trips_through_dict():
    import json

    sc = single_link_scenario(cap=25.0, duration=60)
    report = competitive_ratio(run(sc), solve_opt(sc))
    doc = json.loads(json.dumps(audit.report_to_dict(report)))
    assert doc["weighted_throughput"] == report.weighted_throughput
    assert doc["competitive_ratio"] == report.competitive_ratio
    assert doc["lemma1_slack"]["p0"] == report.lemma1_slack["p0"]
