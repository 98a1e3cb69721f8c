"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured constants.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from brute_force import brute_force_opt
from conftest import (
    constant_resource,
    grid_resolution,
    lp_instance,
    path_csv,
    resource_csv,
    scenario_suite,
    sent_ceiling_slack,
    simple_conn,
    single_link_scenario,
)
from mimdsim import audit
from mimdsim.audit import competitive_ratio, theorem_parameters
from mimdsim.audit import bandwidth_test
from mimdsim.kernel import run
from mimdsim.model import (
    AdversarialFairLoss,
    CapacityTimeline,
    ProportionalLoss,
    ResourceSpec,
    Scenario,
)
from mimdsim.optimum import solve_opt

SUITE_SEED = 0xC0FFEE


def _report(line: str) -> None:
    print(f"\n{line}")


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_conservation_suite():
    """200 randomized scenarios: per-round and global conservation at 1e-9."""
    started = time.perf_counter()
    scenarios = scenario_suite(200, seed=SUITE_SEED)
    policies = {ProportionalLoss: 0, AdversarialFairLoss: 0}
    for sc in scenarios:
        policies[type(sc.loss_policy)] += 1
        trace = run(sc)
        for c in sc.connections:
            rec = trace.paths[c.id]
            for t in c.shifted_window().rounds():
                sent = rec.sent[t - c.total_delay]
                assert abs(sent - (rec.rcvd[t] + rec.lost[t])) <= 1e-9 * max(1.0, sent)
        path_lost = math.fsum(
            math.fsum(trace.paths[c.id].lost[t] for t in c.shifted_window().rounds())
            for c in sc.connections
        )
        res_lost = math.fsum(math.fsum(led.lost) for led in trace.resources.values())
        assert abs(path_lost - res_lost) <= 1e-9 * max(1.0, path_lost, res_lost)
    elapsed = time.perf_counter() - started
    assert policies[ProportionalLoss] > 0 and policies[AdversarialFairLoss] > 0
    assert elapsed < 60.0
    _report(
        f"[criterion 1] PASS conservation on 200 scenarios "
        f"({policies[ProportionalLoss]} proportional / "
        f"{policies[AdversarialFairLoss]} adversarial) in {elapsed:.2f}s"
    )


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_lemma_suite(acceptance_suite):
    """Both lemma slacks >= -1e-6 * scale and the sent-rate ceiling, all paths."""
    violations = 0
    paths = 0
    for sc, trace in acceptance_suite:
        report = competitive_ratio(trace, None)
        for c in sc.connections:
            paths += 1
            rec = trace.paths[c.id]
            throughput = math.fsum(rec.rcvd[t] for t in c.shifted_window().rounds())
            slack1 = report.lemma1_slack[c.id]
            if slack1 < -1e-6 * (throughput + 1.0):
                violations += 1
            # the loss-floor bound assumes a feasible start; the generator
            # guarantees it, so no degenerate markers are tolerated here
            peak = report.U[c.id]
            assert peak >= c.start_rate * (c.beta - c.alpha) / c.beta * (1 - 1e-9)
            slack3 = report.lemma3_slack[c.id]
            if slack3 is None or slack3 < -1e-6 * (c.duration + 1):
                violations += 1
            if sent_ceiling_slack(trace, c) < 0.0:
                violations += 1
    assert violations == 0
    _report(f"[criterion 2] PASS lemma slacks and sent ceiling on {paths} paths, 0 violations")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_fixed_point():
    """Single link C=100: sent -> 100/(1-0.1), lsr -> 0.1, 1% on last quarter."""
    alpha, beta = theorem_parameters(0.1, 1.0)
    assert alpha == pytest.approx(0.01) and beta == pytest.approx(0.1)
    sc = single_link_scenario(
        cap=100.0, duration=2000, start_rate=1.0, alpha=alpha, beta=beta, epsilon=0.1,
    )
    trace = run(sc)
    rec = trace.paths["p0"]
    target = 100.0 / (1.0 - 0.1)
    for t in range(1500, 2000):
        assert abs(rec.sent[t] - target) <= 0.01 * target
        assert abs(rec.lsr[t] - 0.1) <= 0.01 * 0.1
    _report(
        f"[criterion 3] PASS fixed point: sent[1999]={rec.sent[1999]:.4f} "
        f"(target {target:.4f}), lsr[1999]={rec.lsr[1999]:.6f}"
    )


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_fairness_audit(acceptance_suite):
    """Proportional eps_hat <= 1e-9; adversarial eps_hat <= eps + 1e-9."""
    worst_prop = -math.inf
    worst_adv_margin = -math.inf
    for sc, trace in acceptance_suite:
        eps_hat = audit.measure_fairness(trace)
        if isinstance(sc.loss_policy, ProportionalLoss):
            assert eps_hat <= 1e-9
            worst_prop = max(worst_prop, eps_hat)
        else:
            assert eps_hat <= sc.epsilon + 1e-9
            worst_adv_margin = max(worst_adv_margin, eps_hat - sc.epsilon)
    _report(
        f"[criterion 4] PASS fairness: max proportional eps_hat={worst_prop:.3g}, "
        f"max adversarial (eps_hat - eps)={worst_adv_margin:.3g}"
    )


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_optimum_oracle_equivalence():
    """LP vs grid oracle on 50 instances, plus exact capacity scaling."""
    rng = random.Random(424242)
    for _ in range(50):
        sc = lp_instance(rng)
        resolution = grid_resolution(sc)
        lp = solve_opt(sc)
        grid = brute_force_opt(sc, resolution)
        weight = sum(c.value * c.duration for c in sc.connections)
        assert lp.opt_value >= grid.opt_value - 1e-9
        assert lp.opt_value - grid.opt_value <= resolution * weight + 1e-9
        for k in (3.0, 0.25):
            scaled = Scenario(
                resources=tuple(
                    ResourceSpec(r.id, CapacityTimeline(
                        tuple((fr, v * k) for fr, v in r.capacity.steps)))
                    for r in sc.resources
                ),
                connections=sc.connections,
                epsilon=sc.epsilon,
            )
            assert solve_opt(scaled).opt_value == pytest.approx(
                k * lp.opt_value, rel=1e-9, abs=1e-12,
            )
    _report("[criterion 5] PASS LP/oracle agreement on 50 instances + scaling homogeneity")


# -- criterion 6 -------------------------------------------------------------

def _trend_scenario(epsilon: float, duration: int) -> Scenario:
    alpha, beta = theorem_parameters(epsilon, 1.0)
    end = duration - 1
    mk = lambda cid, route, delay, hops, f0: simple_conn(
        cid, route, end=end, delay=delay, hop_delays=hops,
        start_rate=f0, alpha=alpha, beta=beta,
    )
    return Scenario(
        resources=(
            constant_resource("r1", 60.0),
            constant_resource("r2", 40.0),
            constant_resource("r3", 50.0),
        ),
        connections=(
            mk("pa", ("r1",), 0, (0,), 15.0),
            mk("pb", ("r2",), 1, (1,), 15.0),
            mk("pc", ("r3",), 0, (0,), 15.0),
            mk("pd", ("r1", "r3"), 1, (1, 0), 5.0),
        ),
        epsilon=epsilon,
    )


def test_criterion_6_convergence_rate_trend():
    """Ratio non-decreasing in duration (0.02 tol) and >= 1 - 3 eps at 8x."""
    lines = []
    for epsilon in (0.2, 0.1, 0.05):
        pilot = run(_trend_scenario(epsilon, 3000))
        pilot_report = competitive_ratio(pilot, None)
        threshold = pilot_report.duration_threshold
        assert threshold is not None and threshold > 0
        ratios = []
        last_report = None
        for k in (1, 2, 4, 8):
            duration = max(50, math.ceil(k * threshold))
            sc = _trend_scenario(epsilon, duration)
            trace = run(sc)
            last_report = competitive_ratio(trace, solve_opt(sc))
            assert 0.0 <= last_report.competitive_ratio <= 1.0 + 1e-9
            ratios.append(last_report.competitive_ratio)
        for earlier, later in zip(ratios, ratios[1:]):
            assert later >= earlier - 0.02
        assert ratios[-1] >= 1.0 - 3.0 * epsilon
        lines.append(
            f"eps={epsilon}: threshold={threshold:.0f} ratios="
            + "/".join(f"{r:.4f}" for r in ratios)
            + f" b={last_report.b:.4g} c={last_report.c:.4g}"
        )
    _report("[criterion 6] PASS convergence trend; " + " | ".join(lines))


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_bandwidth_test_mode():
    """Two disjoint links 60/40: estimate within 5% of the best rate 100."""
    alpha, beta = theorem_parameters(0.1, 1.0)
    sc = Scenario(
        resources=(constant_resource("wide", 60.0), constant_resource("narrow", 40.0)),
        connections=(
            simple_conn("a", ("wide",), end=1499, start_rate=2.0, alpha=alpha, beta=beta),
            simple_conn("b", ("narrow",), end=1499, delay=1, hop_delays=(0,),
                        start_rate=2.0, alpha=alpha, beta=beta),
        ),
        epsilon=0.1,
    )
    result = bandwidth_test(sc)
    assert result["opt_rate"] == pytest.approx(100.0, rel=1e-9)
    assert abs(result["estimate"] - 100.0) <= 0.05 * 100.0
    _report(
        f"[criterion 7] PASS bandwidth test: estimate={result['estimate']:.3f} "
        f"(opt rate 100, converged at round {result['converged_at_round']})"
    )


# -- criterion 8 -------------------------------------------------------------

def _perf_scenario() -> Scenario:
    caps = [55.0, 40.0, 70.0, 30.0, 65.0]
    resources = tuple(constant_resource(f"r{i}", caps[i]) for i in range(5))
    conns = []
    for i in range(10):
        first = i % 4
        if i < 5:
            route = (f"r{i}",)
            hops = (first,)
        else:
            a = i % 4
            route = (f"r{a}", f"r{a + 1}")
            hops = (first, 0)
        value = 0.5 + 0.05 * i
        alpha, beta = theorem_parameters(0.1, value)
        conns.append(simple_conn(
            f"p{i}", route, value=value, end=9999, delay=first,
            hop_delays=hops, start_rate=0.5, alpha=alpha, beta=beta,
        ))
    return Scenario(
        resources=resources,
        connections=tuple(conns),
        epsilon=0.1,
        loss_policy=AdversarialFairLoss(target_path="p0"),
    )


def test_criterion_8_performance_and_determinism():
    """10 paths x 10,000 rounds x 5 resources in < 10 s; byte-identical reruns."""
    sc = _perf_scenario()
    started = time.perf_counter()
    first = run(sc)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    second = run(sc)
    for c in sc.connections:
        assert path_csv(first, c.id) == path_csv(second, c.id)
    for r in sc.resources:
        assert resource_csv(first, r.id) == resource_csv(second, r.id)
    _report(f"[criterion 8] PASS 10x10000x5 run in {elapsed:.2f}s; reruns byte-identical")
