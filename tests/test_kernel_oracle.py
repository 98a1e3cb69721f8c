"""Differential check: the static-schedule kernel against the cohort-queue oracle."""

from __future__ import annotations

import math
import random
import string
from dataclasses import replace

import oracle_kernel
from conftest import (
    constant_resource,
    path_csv,
    random_scenario,
    resource_csv,
    simple_conn,
    step_resource,
)
from mimdsim.kernel import _tiebreak_order, allocate_loss, run
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
        assert_identical_exports(replace(sc, resources=tuple(resources)))


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
                           AdversarialFairLoss(seed=3, target_path="p1"))
    assert_identical_exports(adversarial)


def test_chained_tiebreak_order_equals_the_whole_key_crc_order():
    rng = random.Random(0xC2C)
    alphabet = string.ascii_letters + string.digits + "_-.é"
    for _ in range(300):
        seed = rng.choice([0, 1, 7, rng.randrange(2**31), -rng.randrange(2**31)])
        round_idx = rng.randrange(200_000)
        pids = list({"".join(rng.choices(alphabet, k=rng.randint(1, 12)))
                     for _ in range(rng.randint(1, 30))})
        want = sorted(range(len(pids)),
                      key=lambda j: (oracle_kernel._tiebreak_key(seed, round_idx, pids[j]), pids[j]))
        assert _tiebreak_order(seed, round_idx, pids) == want


def test_allocate_loss_splits_as_the_oracle_does_under_covering_budgets():
    rng = random.Random(0xA110C)
    names = [f"p{j}" for j in range(8)]
    checked = clamped = 0
    while checked < 600:
        pids = rng.sample(names, rng.randint(1, 6))
        sizes = [0.0 if rng.random() < 0.15 else rng.uniform(0.01, 50.0) for _ in pids]
        into = math.fsum(sizes)
        if into <= 0:
            continue
        cap = rng.uniform(0.0, into)
        excess = into - cap
        # the target is sometimes not in the event
        policy = AdversarialFairLoss(seed=rng.randrange(2**32), target_path=rng.choice(names))
        # from none to four times the proportional share, so that some paths
        # clamp; only budgets that cover the excess are kept
        max_loss = [c * excess / into * rng.choice([0.0, rng.uniform(0.2, 1.0),
                                                    rng.uniform(1.0, 4.0)]) for c in sizes]
        if math.fsum(map(min, sizes, max_loss)) < excess * (1 + 1e-9):
            continue
        checked += 1
        round_idx = rng.randrange(10_000)
        got = allocate_loss(sizes, into, excess, policy, round_idx, pids, max_loss)
        ctx = oracle_kernel.AdversarialContext(policy.target_path, dict(zip(pids, max_loss)),
                                               policy.seed)
        want = oracle_kernel.allocate_loss(dict(zip(pids, sizes)), cap, policy, round_idx, ctx)
        assert got == [want[pid] for pid in pids]
        clamped += any(0 < loss == min(c, b) for c, b, loss in zip(sizes, max_loss, got))
    assert clamped >= 100
