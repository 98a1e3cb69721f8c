"""The fluid model has no packet unit: scaling every capacity and start rate
by a power of two scales every rate, receipt and loss by exactly that factor.

The kernel keeps this bit for bit, and its conservation checks are relative
to the load the losses are taken from, so they neither trip on a valid run
nor forgive a breach at any scale. So does the exact LP route (at most
``EXACT_MAX_COLUMNS`` weighted paths, which covers every ``random_scenario``
draw). The HiGHS route keeps it up to HiGHS's absolute tolerances, and on
both routes the feasibility check must not depend on the unit: a valid
large-scale scenario is never rejected for a float artefact, and a
small-scale answer above the optimum is never accepted. The bandwidth
test's convergence rule is relative, so it stops at the same round at any
scale and its estimate scales exactly.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lp_instance, random_scenario
from mimdsim import kernel, optimum
from mimdsim.audit import bandwidth_test
from mimdsim.kernel import KernelError, loss_totals, run
from mimdsim.model import (
    AdversarialFairLoss,
    CapacityTimeline,
    ProportionalLoss,
    Scenario,
    parse_scenario,
)
from mimdsim.optimum import OptimumError, UnboundedOptimumError, solve_opt

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def scaled(scenario: Scenario, factor: float) -> Scenario:
    """Every capacity and start rate of ``scenario`` times ``factor``."""
    return scenario._replace(
        resources=tuple(
            r._replace(capacity=CapacityTimeline(tuple((fr, v * factor)
                                                       for fr, v in r.capacity.steps)))
            for r in scenario.resources
        ),
        connections=tuple(c._replace(start_rate=c.start_rate * factor)
                          for c in scenario.connections),
    )


@PROPERTY
@given(seed=SEEDS, k=st.integers(-40, 40))
def test_kernel_traces_scale_exactly_under_both_policies(seed, k):
    base = random_scenario(random.Random(seed))
    factor = 2.0**k
    for policy in (ProportionalLoss(), AdversarialFairLoss(base.connections[0].id)):
        sc = base._replace(loss_policy=policy)
        want, got = run(sc), run(scaled(sc, factor))
        for pid, rec in want.paths.items():
            for column in ("sent", "rcvd", "lost"):
                assert list(getattr(got.paths[pid], column)) == [
                    v * factor for v in getattr(rec, column)], (pid, column)
            assert got.paths[pid].lsr == rec.lsr, pid
        for rid, led in want.resources.items():
            for column in ("into", "lost", "cap"):
                assert list(getattr(got.resources[rid], column)) == [
                    v * factor for v in getattr(led, column)], (rid, column)


@PROPERTY
@given(seed=SEEDS, k=st.integers(-40, 40))
def test_no_valid_run_at_any_scale_comes_near_a_conservation_check(seed, k):
    # either check raises KernelError; the paths' and the resources' loss
    # totals agree to rounding, far inside the run check's relative bound
    base = scaled(random_scenario(random.Random(seed)), 2.0**k)
    for policy in (ProportionalLoss(), AdversarialFairLoss(base.connections[0].id)):
        trace = run(base._replace(loss_policy=policy))
        path_lost, res_lost = loss_totals(trace)
        carried = sum(sum(led.into) for led in trace.resources.values())
        assert abs(path_lost - res_lost) <= 1e-3 * kernel.CONSERVATION_RTOL * carried


def test_an_event_short_of_a_tiny_excess_trips_the_event_check(monkeypatch):
    # at 2**-37 every excess is below 1e-9, which an absolute floor forgave
    base = random_scenario(random.Random(306))
    sc = scaled(base._replace(loss_policy=AdversarialFairLoss(base.connections[0].id)), 2.0**-37)
    run(sc)
    split = kernel.allocate_loss
    monkeypatch.setattr(kernel, "allocate_loss",
                        lambda *args: [0.41 * loss for loss in split(*args)])
    with pytest.raises(KernelError, match=r"^loss event at 'r\d+' round \d+ dropped"):
        run(sc)


@PROPERTY
@given(seed=SEEDS, k=st.integers(0, 40))
@example(seed=45, k=30)   # a load 1 ULP over its capacity, rejected by an absolute slack
def test_a_scaled_up_lp_solves_whenever_the_unscaled_one_does(seed, k):
    sc = random_scenario(random.Random(seed))
    try:
        solve_opt(sc)
    except OptimumError:
        return
    solve_opt(scaled(sc, 2.0**k))


@PROPERTY
@given(seed=SEEDS, k=st.integers(-40, 40))
@example(seed=0, k=-40)     # 5.9x the optimum, accepted by an absolute slack
@example(seed=230, k=-40)   # 0.13% below the optimum within HiGHS's tolerance
def test_lp_rates_scale_exactly_by_any_power_of_two(seed, k):
    sc = random_scenario(random.Random(seed))
    assert optimum._exact_route(sc)
    factor = 2.0**k
    try:
        want = solve_opt(sc)
    except UnboundedOptimumError:
        with pytest.raises(UnboundedOptimumError):
            solve_opt(scaled(sc, factor))
        return
    got = solve_opt(scaled(sc, factor))
    assert got.rates == {pid: rate * factor for pid, rate in want.rates.items()}
    assert got.opt_value == want.opt_value * factor
    assert got.tight_constraints == want.tight_constraints


def test_lps_that_highs_overshot_at_2_to_the_minus_20_solve_to_the_rescaled_optimum():
    # HiGHS's absolute 1e-7 feasibility tolerance put these answers 1.6-5.4%
    # over a capacity, and the run exited 3
    rng = random.Random(11)
    draws = [random_scenario(rng) for _ in range(120)]
    for i in (17, 27, 37, 40, 42, 74, 119):
        want = solve_opt(draws[i])
        got = solve_opt(scaled(draws[i], 2.0**-20))
        assert got.rates == {pid: rate * 2.0**-20 for pid, rate in want.rates.items()}, i


@pytest.mark.parametrize("k", [-20, 0, 20, 40])
def test_loads_a_few_ulps_over_pass_and_1e_11_over_fail_at_any_scale(k, monkeypatch):
    # each route through the function that solve_opt calls for it
    exact = scaled(random_scenario(random.Random(3)), 2.0**k)
    highs = scaled(lp_instance(random.Random(3), n_paths=9), 2.0**k)
    for sc, route in ((exact, "_exact"), (highs, "_highs")):
        assert optimum._exact_route(sc) == (route == "_exact")
        assert solve_opt(sc).tight_constraints
        real = getattr(optimum, route)

        def overshoot(factor):
            def solve(*args):
                status, message, x = real(*args)
                return status, message, [v * factor for v in x]
            return solve

        monkeypatch.setattr(optimum, route, overshoot(1 + 2**-52))
        solve_opt(sc)
        monkeypatch.setattr(optimum, route, overshoot(1 + 1e-11))
        with pytest.raises(OptimumError, match="infeasible LP answer"):
            solve_opt(sc)
        monkeypatch.undo()


def test_the_bandwidth_test_converges_at_the_same_round_at_any_scale():
    # at 2**-60 and below the window means are far under 1e-12, so any
    # absolute floor in the test would stop the scan early
    base = parse_scenario((Path(__file__).resolve().parent.parent / "scenarios"
                           / "bwtest_pair.json").read_text())
    want = bandwidth_test(base)
    assert want["converged_at_round"] == 971 and want["estimate"] == 100.0
    for k in (20, -20, -40, -60, -80):
        got = bandwidth_test(scaled(base, 2.0**k))
        assert got["converged_at_round"] == want["converged_at_round"], k
        assert got["window"] == want["window"], k
        assert got["estimate"] == want["estimate"] * 2.0**k, k
