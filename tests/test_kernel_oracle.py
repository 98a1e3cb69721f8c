"""Differential check: the static-schedule kernel against the cohort-queue oracle."""

from __future__ import annotations

import random

import oracle_kernel
from conftest import constant_resource, random_scenario, simple_conn, step_resource
from mimdsim.kernel import path_csv, resource_csv, run
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
