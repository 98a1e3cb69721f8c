"""Engine semantics: timing, pooled loss events, conservation, determinism."""

from __future__ import annotations

import math
import random

import pytest

from conftest import (
    constant_resource,
    random_scenario,
    simple_conn,
    single_link_scenario,
    step_resource,
)
from mimdsim import kernel
from mimdsim.kernel import (
    KernelError,
    allocate_loss,
    path_csv,
    resource_csv,
    run,
)
from mimdsim.model import (
    AdversarialFairLoss,
    ProportionalLoss,
    Scenario,
    ScenarioValidationError,
)


def test_lossless_geometric_growth():
    sc = Scenario(
        resources=(constant_resource("r", math.inf),),
        connections=(simple_conn("p", ("r",), end=2, start_rate=1.0, alpha=0.1, beta=0.5),),
        epsilon=0.1,
    )
    trace = run(sc)
    rec = trace.paths["p"]
    assert list(rec.sent) == pytest.approx([1.0, 1.1, 1.21])
    assert list(rec.rcvd) == pytest.approx([1.0, 1.1, 1.21])
    assert list(rec.lost) == [0.0, 0.0, 0.0]


def test_excess_only_discard_on_overload():
    sc = single_link_scenario(cap=10.0, duration=5, start_rate=20.0)
    trace = run(sc)
    led = trace.resources["link"]
    rec = trace.paths["p0"]
    assert led.into[0] == 20.0
    assert led.lost[0] == 10.0
    assert rec.rcvd[0] == 10.0
    assert rec.lsr[0] == 0.5


def test_two_paths_share_proportionally():
    sc = Scenario(
        resources=(constant_resource("r", 120.0),),
        connections=(
            simple_conn("A", ("r",), end=0, start_rate=100.0),
            simple_conn("B", ("r",), end=0, start_rate=50.0),
        ),
        epsilon=0.1,
    )
    trace = run(sc)
    assert trace.resources["r"].into[0] == 150.0
    assert trace.resources["r"].lost[0] == pytest.approx(30.0, rel=1e-12)
    assert trace.paths["A"].lost[0] == pytest.approx(20.0, rel=1e-12)
    assert trace.paths["B"].lost[0] == pytest.approx(10.0, rel=1e-12)
    assert trace.paths["A"].rcvd[0] == pytest.approx(80.0, rel=1e-12)
    assert trace.paths["B"].rcvd[0] == pytest.approx(40.0, rel=1e-12)


def test_allocate_loss_basic_contracts():
    assert allocate_loss({"A": 100.0, "B": 50.0}, 150.0, ProportionalLoss(), 0) == {
        "A": 0.0, "B": 0.0,
    }
    losses = allocate_loss({"A": 100.0, "B": 50.0}, 120.0, ProportionalLoss(), 0)
    assert losses["A"] == pytest.approx(20.0) and losses["B"] == pytest.approx(10.0)
    with pytest.raises(KernelError):
        allocate_loss({"A": -1.0}, 10.0, ProportionalLoss(), 0)


def test_allocate_loss_adversarial_with_fresh_budget():
    # excess 30, ratio 0.2; with eps = 0.6 the fresh budget for A is
    # (1 + 0.6) * 0.2 * 100 = 32, so the full excess lands on the target.
    policy = AdversarialFairLoss(seed=5, target_path="A")
    losses = allocate_loss({"A": 100.0, "B": 50.0}, 120.0, policy, 0, {"A": 32.0, "B": 16.0})
    assert losses == {"A": 30.0, "B": 0.0}


def test_allocate_loss_adversarial_respects_budget_cap():
    policy = AdversarialFairLoss(seed=5, target_path="A")
    losses = allocate_loss({"A": 100.0, "B": 50.0}, 120.0, policy, 0, {"A": 12.0, "B": 100.0})
    assert losses["A"] == 12.0
    assert losses["B"] == pytest.approx(18.0)
    assert math.fsum(losses.values()) == pytest.approx(30.0, rel=1e-12)


def test_allocate_loss_budget_shortfall_is_rejected(monkeypatch):
    # budgets of 5 + 5 cannot cover an excess of 30: the allocator stays
    # within them instead of moving the rest onto contributions ...
    policy = AdversarialFairLoss(seed=5, target_path="A")
    losses = allocate_loss({"A": 100.0, "B": 50.0}, 120.0, policy, 0, {"A": 5.0, "B": 5.0})
    assert losses == {"A": 5.0, "B": 5.0}

    # ... and run refuses the shortfall through its per-event conservation check
    real = kernel.allocate_loss

    def starved(contributions, cap, policy, round_idx, max_loss=None):
        return real(contributions, cap, policy, round_idx, dict.fromkeys(contributions, 0.0))

    monkeypatch.setattr(kernel, "allocate_loss", starved)
    sc = Scenario(
        resources=(constant_resource("r", 120.0),),
        connections=(
            simple_conn("A", ("r",), end=0, start_rate=100.0),
            simple_conn("B", ("r",), end=0, start_rate=50.0),
        ),
        epsilon=0.6,
        loss_policy=policy,
    )
    with pytest.raises(KernelError, match="excess was 30.0"):
        run(sc)


def test_adversarial_run_biases_target_within_fairness():
    from mimdsim import audit

    sc = Scenario(
        resources=(constant_resource("r", 120.0),),
        connections=(
            simple_conn("A", ("r",), end=0, start_rate=100.0),
            simple_conn("B", ("r",), end=0, start_rate=50.0),
        ),
        epsilon=0.6,
        loss_policy=AdversarialFairLoss(seed=9, target_path="A"),
    )
    trace = run(sc)
    assert trace.paths["A"].lost[0] == 30.0
    assert trace.paths["B"].lost[0] == 0.0
    # cumulative check from the trace: A lost 0.3 of its cohort against a
    # traversed loss ratio of 0.2 -> smallest workable eps is 0.5 <= 0.6
    assert audit.measure_fairness(trace) == pytest.approx(0.5, rel=1e-12)
    assert audit.measure_fairness(trace) <= sc.epsilon + 1e-9


def test_multi_hop_delay_timing():
    # delay 3, hop delays (2, 0): transit r1 at s+1, r2 at s+3, arrive s+3
    sc = Scenario(
        resources=(constant_resource("r1", math.inf), constant_resource("r2", math.inf)),
        connections=(
            simple_conn("p", ("r1", "r2"), start=0, end=0, delay=3,
                        hop_delays=(2, 0), start_rate=7.0),
        ),
        epsilon=0.1,
    )
    trace = run(sc)
    assert list(trace.resources["r1"].into) == [0.0, 7.0, 0.0, 0.0]
    assert list(trace.resources["r2"].into) == [0.0, 0.0, 0.0, 7.0]
    rec = trace.paths["p"]
    assert rec.rcvd[3] == 7.0
    assert rec.lsr[3] == 0.0


def test_same_round_hops_attenuate_in_route_order():
    sc = Scenario(
        resources=(constant_resource("r1", 6.0), constant_resource("r2", 3.0)),
        connections=(
            simple_conn("p", ("r1", "r2"), start=0, end=0, hop_delays=(0, 0),
                        start_rate=12.0),
        ),
        epsilon=0.1,
    )
    trace = run(sc)
    assert trace.resources["r1"].into[0] == 12.0
    assert trace.resources["r1"].lost[0] == 6.0
    assert trace.resources["r2"].into[0] == 6.0     # survivors of r1 only
    assert trace.resources["r2"].lost[0] == 3.0
    assert trace.paths["p"].rcvd[0] == 3.0
    assert trace.paths["p"].lsr[0] == 0.75


def test_run_requires_valid_scenario():
    bad = single_link_scenario()
    bad = Scenario(bad.resources, (simple_conn("p0", ("link",), alpha=0.5, beta=0.2),), 0.1)
    with pytest.raises(ScenarioValidationError):
        run(bad)


def test_congested_only_discard_property():
    rng = random.Random(2024)
    for _ in range(15):
        trace = run(random_scenario(rng))
        for led in trace.resources.values():
            for t in range(trace.horizon + 1):
                if led.lost[t] > 0:
                    assert led.into[t] > led.cap[t]


def test_per_round_and_global_conservation_on_random_runs():
    rng = random.Random(4)
    for _ in range(25):
        sc = random_scenario(rng)
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


def test_proportional_policy_satisfies_exact_product_form():
    rng = random.Random(11)
    checked = 0
    while checked < 12:
        sc = random_scenario(rng)
        if not isinstance(sc.loss_policy, ProportionalLoss):
            continue
        checked += 1
        trace = run(sc)
        for c in sc.connections:
            rec = trace.paths[c.id]
            for t in c.shifted_window().rounds():
                sent = rec.sent[t - c.total_delay]
                expected = sent
                for hop, rid in enumerate(c.route):
                    u = t - c.hop_delays[hop]
                    led = trace.resources[rid]
                    if led.into[u] > 0:
                        expected *= 1.0 - led.lost[u] / led.into[u]
                assert abs(rec.rcvd[t] - expected) <= 1e-9 * max(1.0, sent)


def test_event_losses_match_aggregate_ledger():
    # every loss event splits exactly the excess, never more than a path put
    # in, and never more than a budget that covers the excess allows ...
    rng = random.Random(31)
    for _ in range(500):
        pids = [f"p{j}" for j in range(rng.randint(1, 6))]
        contributions = {pid: 0.0 if j and rng.random() < 0.2 else rng.uniform(0.1, 10.0)
                         for j, pid in enumerate(pids)}
        into = math.fsum(contributions.values())
        cap = rng.uniform(0.0, into)
        excess = into - cap
        if rng.random() < 0.5:
            policy, max_loss = ProportionalLoss(), None
        else:
            policy = AdversarialFairLoss(seed=rng.randrange(2**32), target_path=rng.choice(pids))
            # at least the proportional share, so the budgets cover the excess
            max_loss = {pid: c * excess / into * rng.uniform(1.0, 3.0)
                        for pid, c in contributions.items()}
        losses = allocate_loss(contributions, cap, policy, rng.randrange(100), max_loss)
        assert math.fsum(losses.values()) == pytest.approx(excess, rel=1e-12, abs=1e-12)
        for pid, loss in losses.items():
            assert 0.0 <= loss <= contributions[pid]
            if max_loss is not None:
                assert loss <= max_loss[pid] * (1 + 1e-12)

    # ... and the aggregate ledger records exactly that excess
    for _ in range(10):
        trace = run(random_scenario(rng))
        for led in trace.resources.values():
            for t in range(trace.horizon + 1):
                excess = max(0.0, led.into[t] - led.cap[t])
                assert led.lost[t] == pytest.approx(excess, rel=1e-12, abs=1e-12)


def test_deterministic_traces_byte_identical():
    rng = random.Random(55)
    for _ in range(6):
        sc = random_scenario(rng)
        t1, t2 = run(sc), run(sc)
        for c in sc.connections:
            assert path_csv(t1, c.id) == path_csv(t2, c.id)
        for r in sc.resources:
            assert resource_csv(t1, r.id) == resource_csv(t2, r.id)


def test_single_link_fixed_point_and_mixing_time():
    sc = single_link_scenario(cap=50.0, duration=1200, start_rate=1.0, alpha=0.01, beta=0.1)
    trace = run(sc)
    rec = trace.paths["p0"]
    target_sent = 50.0 / (1.0 - 0.01 / 0.1)
    mixing = next(
        t for t in range(1200) if abs(rec.sent[t] - target_sent) <= 0.01 * target_sent
    )
    for t in range(mixing, 1200):
        assert abs(rec.sent[t] - target_sent) <= 0.01 * target_sent
        if t >= mixing + 1:
            assert abs(rec.lsr[t] - 0.1) <= 0.01


def test_empty_route_delivers_everything():
    sc = Scenario(
        resources=(constant_resource("r", 5.0),),
        connections=(simple_conn("p", (), delay=2, hop_delays=(), start_rate=9.0, end=4),),
        epsilon=0.1,
    )
    trace = run(sc)
    rec = trace.paths["p"]
    assert rec.rcvd[2] == 9.0 and rec.lost[2] == 0.0


def test_quiet_rounds_and_outside_windows_stay_zero():
    sc = Scenario(
        resources=(constant_resource("r", 100.0),),
        connections=(simple_conn("p", ("r",), start=4, end=6, delay=1,
                                 hop_delays=(0,), start_rate=2.0),),
        epsilon=0.1,
    )
    trace = run(sc)
    rec = trace.paths["p"]
    assert all(rec.sent[t] == 0.0 for t in (0, 1, 2, 3, 7))
    assert all(rec.rcvd[t] == 0.0 for t in (0, 1, 2, 3, 4))
    assert trace.horizon == 7
    led = trace.resources["r"]
    assert all(led.into[t] == 0.0 for t in (0, 1, 2, 3))


def test_active_window_shorter_than_warmup_sends_start_rate_throughout():
    # the window ends before the first feedback could be used; every round
    # sends the start rate and the run drains normally
    sc = Scenario(
        resources=(constant_resource("r", 100.0),),
        connections=(simple_conn("p", ("r",), start=0, end=2, delay=4,
                                 hop_delays=(4,), start_rate=3.0),),
        epsilon=0.1,
    )
    trace = run(sc)
    rec = trace.paths["p"]
    assert [rec.sent[t] for t in range(3)] == [3.0, 3.0, 3.0]
    assert rec.rcvd[4] == 3.0 and rec.rcvd[6] == 3.0
    assert trace.horizon == 6


def _reference_run(sc):
    """Structurally independent proportional-policy simulator.

    Tracks cohorts in a flat (path, send round) map and recomputes each
    resource's arrivals per round by searching every route, instead of the
    kernel's precomputed schedule. Valid only when no two hops share a
    transit round, so resources can be processed in declaration order.
    """
    horizon = sc.horizon
    caps = {r.id: r.capacity.values_until(horizon) for r in sc.resources}
    sent = {c.id: {} for c in sc.connections}
    rcvd = {c.id: {} for c in sc.connections}
    lsr = {c.id: {} for c in sc.connections}
    into_led = {r.id: [0.0] * (horizon + 1) for r in sc.resources}
    lost_led = {r.id: [0.0] * (horizon + 1) for r in sc.resources}
    remaining = {}
    for t in range(horizon + 1):
        for c in sc.connections:
            if c.start <= t <= c.end:
                if t <= c.start + c.total_delay:
                    rate = c.start_rate
                else:
                    rate = sent[c.id][t - 1 - c.total_delay] * (
                        1.0 + c.alpha - c.beta * lsr[c.id][t - 1]
                    )
                sent[c.id][t] = rate
                remaining[(c.id, t)] = rate
        for r in sc.resources:
            arrivals = []
            for c in sc.connections:
                if r.id not in c.route:
                    continue
                s = t - (c.total_delay - c.hop_delays[c.route.index(r.id)])
                if c.start <= s <= c.end and (c.id, s) in remaining:
                    arrivals.append((c.id, s))
            if not arrivals:
                continue
            into = math.fsum(remaining[key] for key in arrivals)
            into_led[r.id][t] = into
            cap = caps[r.id][t]
            if into > cap:
                ratio = (into - cap) / into
                losses = [remaining[key] * ratio for key in arrivals]
                lost_led[r.id][t] = math.fsum(losses)
                for key, loss in zip(arrivals, losses):
                    remaining[key] = max(0.0, remaining[key] - loss)
        for c in sc.connections:
            s = t - c.total_delay
            if c.start <= s <= c.end:
                got = remaining.pop((c.id, s))
                rcvd[c.id][t] = got
                lsr[c.id][t] = (sent[c.id][s] - got) / sent[c.id][s]
    assert not remaining
    return sent, rcvd, lsr, into_led, lost_led


def test_kernel_agrees_with_independent_reference_simulator():
    sc = Scenario(
        resources=(
            step_resource("r0", [(0, 50.0), (8, 1.2)]),
            step_resource("r1", [(0, 40.0), (10, 0.9)]),
        ),
        connections=(
            simple_conn("pA", ("r0",), start=0, end=29, delay=0, hop_delays=(0,),
                        start_rate=1.0, alpha=0.02, beta=0.2),
            simple_conn("pB", ("r0", "r1"), start=2, end=27, delay=3, hop_delays=(2, 0),
                        start_rate=0.8, alpha=0.01, beta=0.15),
            simple_conn("pC", ("r1",), start=1, end=25, delay=2, hop_delays=(1,),
                        start_rate=1.2, alpha=0.03, beta=0.25),
        ),
        epsilon=0.1,
    )
    trace = run(sc)
    sent, rcvd, lsr, into_led, lost_led = _reference_run(sc)

    congested = 0
    for c in sc.connections:
        rec = trace.paths[c.id]
        for t in c.active_window().rounds():
            assert rec.sent[t] == sent[c.id][t], (c.id, t)
        for t in c.shifted_window().rounds():
            assert rec.rcvd[t] == rcvd[c.id][t], (c.id, t)
            assert rec.lsr[t] == lsr[c.id][t], (c.id, t)
    for r in sc.resources:
        led = trace.resources[r.id]
        for t in range(trace.horizon + 1):
            assert led.into[t] == into_led[r.id][t], (r.id, t)
            assert led.lost[t] == lost_led[r.id][t], (r.id, t)
            congested += led.lost[t] > 0
    assert congested > 10   # the dips must actually bite for this to mean much


def test_capacity_step_applies_at_the_stated_round():
    sc = Scenario(
        resources=(step_resource("r", [(0, 100.0), (2, 1.0)]),),
        connections=(simple_conn("p", ("r",), end=3, start_rate=10.0, delay=0),),
        epsilon=0.1,
    )
    trace = run(sc)
    led = trace.resources["r"]
    assert led.lost[0] == 0.0 and led.lost[1] == 0.0
    assert led.lost[2] > 0.0 and led.cap[2] == 1.0
