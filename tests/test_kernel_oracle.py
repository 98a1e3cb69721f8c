"""Differential check: the static-schedule kernel against the cohort-queue oracle."""

from __future__ import annotations

import math
import random

import oracle_kernel
from conftest import (
    constant_resource,
    path_csv,
    random_scenario,
    resource_csv,
    simple_conn,
    step_resource,
)
from mimdsim.kernel import CONSERVATION_RTOL, allocate_loss, loss_totals, run
from mimdsim.model import AdversarialFairLoss, ProportionalLoss, Scenario


def assert_identical_exports(sc: Scenario) -> None:
    got, want = run(sc), oracle_kernel.run(sc)
    for c in sc.connections:
        assert path_csv(got, c.id) == path_csv(want, c.id), c.id
    for r in sc.resources:
        assert resource_csv(got, r.id) == resource_csv(want, r.id), r.id


def test_random_scenarios_export_identically_under_both_policies():
    rng = random.Random(0x5EED)
    policies = {ProportionalLoss: 0, AdversarialFairLoss: 0}
    for _ in range(160):
        sc = random_scenario(rng)
        policies[type(sc.loss_policy)] += 1
        assert_identical_exports(sc)
    assert min(policies.values()) >= 50


def test_random_scenarios_with_shuffled_resource_declarations_export_identically():
    # random_scenario routes follow resource index order, so declaration order
    # is always a valid same-round order there; shuffling the declarations
    # makes the schedule's topological sort matter
    rng = random.Random(0x5EED)
    shuffle_rng = random.Random(0xD1CE)
    for _ in range(160):
        sc = random_scenario(rng)
        resources = list(sc.resources)
        shuffle_rng.shuffle(resources)
        assert_identical_exports(sc._replace(resources=tuple(resources)))


def test_same_round_chain_exports_identically():
    # p0 crosses r2 -> r0 -> r1 within one round, so the schedule must run r2
    # before the lower-indexed r0; p1 (r0 -> r1, also same-round) and p2 share
    # those resources, starting one and two rounds later.
    sc = Scenario(
        resources=(
            constant_resource("r0", 9.0),
            step_resource("r1", [(0, 7.0), (6, 2.5)]),
            constant_resource("r2", 8.0),
        ),
        connections=(
            simple_conn("p0", ("r2", "r0", "r1"), end=19, delay=2, hop_delays=(1, 1, 1),
                        start_rate=6.0, alpha=0.02, beta=0.2),
            simple_conn("p1", ("r0", "r1"), start=1, end=17, delay=1, hop_delays=(0, 0),
                        start_rate=5.0, alpha=0.03, beta=0.25),
            simple_conn("p2", ("r2", "r1"), start=2, end=15, delay=3, hop_delays=(3, 0),
                        start_rate=4.0, alpha=0.01, beta=0.15),
        ),
        epsilon=0.3,
    )
    trace = run(sc)
    assert all(max(led.lost) > 0 for led in trace.resources.values())
    assert_identical_exports(sc)
    adversarial = Scenario(sc.resources, sc.connections, sc.epsilon,
                           AdversarialFairLoss(target_path="p1"))
    assert_identical_exports(adversarial)


def test_allocate_loss_splits_as_the_oracle_does_under_covering_budgets():
    # both clamp the other paths in position order, so even a pass that
    # clamps several paths leaves the same float residue
    rng = random.Random(0xA110C)
    names = [f"p{j}" for j in range(8)]
    checked = clamped = multi_clamped = 0
    while checked < 600:
        pids = rng.sample(names, rng.randint(1, 6))
        sizes = [0.0 if rng.random() < 0.15 else rng.uniform(0.01, 50.0) for _ in pids]
        into = math.fsum(sizes)
        if into <= 0:
            continue
        cap = rng.uniform(0.0, into)
        excess = into - cap
        # the target is sometimes not in the event
        target = rng.choice(names)
        # from none to four times the proportional share, so that some paths
        # clamp; only budgets that cover the excess are kept
        max_loss = [c * excess / into * rng.choice([0.0, rng.uniform(0.2, 1.0),
                                                    rng.uniform(1.0, 4.0)]) for c in sizes]
        if math.fsum(map(min, sizes, max_loss)) < excess * (1 + 1e-9):
            continue
        checked += 1
        position = pids.index(target) if target in pids else None
        got = allocate_loss(sizes, into, excess, position, max_loss)
        ctx = oracle_kernel.AdversarialContext(target, dict(zip(pids, max_loss)))
        want = oracle_kernel.allocate_loss(dict(zip(pids, sizes)), cap,
                                           AdversarialFairLoss(target), ctx)
        assert got == [want[pid] for pid in pids]
        at_cap = [j for j, (c, b, loss) in enumerate(zip(sizes, max_loss, got))
                  if 0 < loss == min(c, b)]
        clamped += bool(at_cap)
        multi_clamped += len(set(at_cap) - {position}) >= 2
    assert clamped >= 100
    assert multi_clamped >= 50


def _capacity_0_stretch() -> Scenario:
    """Four paths on r0, which carries nothing in rounds 6-8; p3 reaches it
    by a same-round hop behind r1, and p1 is the adversarial target."""
    return Scenario(
        resources=(
            step_resource("r0", [(0, 9.0), (6, 0.0), (9, 9.0)]),
            constant_resource("r1", 5.0),
        ),
        connections=(
            simple_conn("p0", ("r0",), end=19, start_rate=3.0, alpha=0.02, beta=0.2),
            simple_conn("p1", ("r0",), end=17, delay=1, hop_delays=(1,),
                        start_rate=2.5, alpha=0.03, beta=0.25),
            simple_conn("p2", ("r0",), start=2, end=15, delay=2, hop_delays=(0,),
                        start_rate=4.0, alpha=0.01, beta=0.15),
            simple_conn("p3", ("r1", "r0"), start=1, end=18, hop_delays=(0, 0),
                        start_rate=2.0, alpha=0.02, beta=0.3),
        ),
        epsilon=0.2,
        loss_policy=AdversarialFairLoss(target_path="p1"),
    )


def test_a_capacity_0_stretch_loses_all_it_carries_as_the_oracle_does():
    # run splits no loss event at r0 in rounds 6-8, where nothing passes;
    # allocate_loss's several clamps in one pass are checked directly above
    sc = _capacity_0_stretch()
    trace = run(sc)
    ledger = trace.resources["r0"]
    for t in (6, 7, 8):
        assert ledger.into[t] > 0 and ledger.lost[t] == ledger.into[t]
    path_lost, res_lost = loss_totals(trace)
    assert abs(path_lost - res_lost) <= CONSERVATION_RTOL * max(path_lost, res_lost)
    assert_identical_exports(sc)


def test_every_cohort_crossing_a_capacity_0_resource_is_lost_whole():
    sc = _capacity_0_stretch()
    trace = run(sc)
    for c in sc.connections:
        pre = c.total_delay - c.hop_delays[-1]
        for s in c.active_window().rounds():
            if 6 <= s + pre <= 8:
                assert trace.paths[c.id].rcvd[s + c.total_delay] == 0.0, (c.id, s)
