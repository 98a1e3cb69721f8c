"""Scenario types, validation rules, and the JSON schema round-trip."""

from __future__ import annotations

import math

import pytest

from conftest import constant_resource, simple_conn, single_link_scenario, step_resource
from mimdsim.model import (
    AdversarialFairLoss,
    CapacityTimeline,
    ProportionalLoss,
    Scenario,
    ScenarioParseError,
    emit_scenario,
    parse_scenario,
    pre_delay,
    topo_order,
    validate,
)


def scenario_with(conn_kwargs=None, cap: float = 10.0) -> Scenario:
    conn = simple_conn("p0", ("r0",), **(conn_kwargs or {}))
    return Scenario(resources=(constant_resource("r0", cap),), connections=(conn,), epsilon=0.1)


def test_valid_single_link_passes():
    assert validate(scenario_with()) == []


def test_alpha_equal_beta_is_violation():
    bad = scenario_with({"alpha": 0.1, "beta": 0.1})
    messages = [str(v) for v in validate(bad)]
    assert any("alpha must be < beta" in m for m in messages)
    assert any("p0" in m for m in messages)


def test_hop_delay_exceeding_total_delay_is_violation():
    bad = scenario_with({"delay": 2, "hop_delays": (3,)})
    assert any("delay bound" in v.message for v in validate(bad))


def test_pre_delay_endpoints_and_monotonicity():
    conn = simple_conn("p0", ("a", "b", "c"), delay=4, hop_delays=(4, 2, 0))
    assert pre_delay(conn, "a") == 0
    assert pre_delay(conn, "b") == 2
    assert pre_delay(conn, "c") == 4
    with pytest.raises(KeyError):
        pre_delay(conn, "zzz")


def test_pre_delay_bounds_on_valid_scenarios():
    conn = simple_conn("p0", ("a", "b"), delay=5, hop_delays=(3, 1))
    for rid in conn.route:
        assert 0 <= pre_delay(conn, rid) <= conn.total_delay


def test_hop_delays_must_be_non_increasing():
    bad = Scenario(
        resources=(constant_resource("a", 10), constant_resource("b", 10)),
        connections=(simple_conn("p0", ("a", "b"), delay=4, hop_delays=(1, 3)),),
        epsilon=0.1,
    )
    assert any("non-decreasing" in v.message for v in validate(bad))


def test_route_must_reference_known_unique_resources():
    sc = Scenario(
        resources=(constant_resource("a", 10),),
        connections=(simple_conn("p0", ("a", "ghost"), hop_delays=(0, 0)),),
        epsilon=0.1,
    )
    assert any("unknown resource" in v.message for v in validate(sc))
    sc2 = Scenario(
        resources=(constant_resource("a", 10),),
        connections=(simple_conn("p0", ("a", "a"), hop_delays=(0, 0)),),
        epsilon=0.1,
    )
    assert any("repeat" in v.message for v in validate(sc2))


def test_epsilon_and_policy_target_are_checked():
    sc = scenario_with()
    assert any("epsilon" in v.message for v in validate(
        Scenario(sc.resources, sc.connections, epsilon=1.5)))
    bad_policy = Scenario(
        sc.resources, sc.connections, epsilon=0.2,
        loss_policy=AdversarialFairLoss(seed=1, target_path="nope"),
    )
    assert any("target_path" in v.message for v in validate(bad_policy))


def test_cyclic_same_round_transits_rejected():
    resources = (constant_resource("a", 10), constant_resource("b", 10))
    sc = Scenario(
        resources=resources,
        connections=(
            simple_conn("p0", ("a", "b"), hop_delays=(0, 0)),
            simple_conn("p1", ("b", "a"), hop_delays=(0, 0)),
        ),
        epsilon=0.1,
    )
    assert any("cyclic" in v.message for v in validate(sc))


def test_topo_order_takes_the_lowest_ready_index_and_flags_cycles():
    nodes = ["a", "b", "c", "d", "e"]
    assert topo_order(nodes, set()) == [0, 1, 2, 3, 4]
    # d -> a and e -> b hold a and b back; c is ready before either
    assert topo_order(nodes, {("d", "a"), ("e", "b")}) == [2, 3, 0, 4, 1]
    assert topo_order(nodes, {("c", "a"), ("a", "c")}) is None


def test_validate_is_idempotent_and_pure():
    bad = scenario_with({"alpha": 0.5, "beta": 0.2})
    assert validate(bad) == validate(bad)


def test_shifted_window_preserves_length():
    conn = simple_conn("p0", ("a",), start=3, end=9, delay=4, hop_delays=(2,))
    assert len(conn.shifted_window()) == len(conn.active_window()) == 7
    assert conn.shifted_window().start == 7
    assert conn.shifted_window().end == 13


def test_capacity_timeline_steps_and_tail():
    cap = CapacityTimeline(steps=((0, 5.0), (3, 1.0), (6, 8.0)))
    assert [cap.at(t) for t in range(8)] == [5, 5, 5, 1, 1, 1, 8, 8]
    assert cap.at(1000) == 8.0
    assert cap.values_until(7) == [5, 5, 5, 1, 1, 1, 8, 8]


def test_capacity_must_start_at_round_zero_and_increase():
    sc = Scenario(
        resources=(step_resource("a", [(2, 5.0)]),),
        connections=(simple_conn("p0", ("a",)),),
        epsilon=0.1,
    )
    assert any("start at round 0" in v.message for v in validate(sc))
    sc2 = Scenario(
        resources=(step_resource("a", [(0, 5.0), (4, 2.0), (4, 3.0)]),),
        connections=(simple_conn("p0", ("a",)),),
        epsilon=0.1,
    )
    assert any("strictly increasing" in v.message for v in validate(sc2))


def test_json_round_trip_is_structural_identity():
    sc = Scenario(
        resources=(
            step_resource("r0", [(0, 12.5), (30, 3.25)]),
            constant_resource("r1", math.inf),
        ),
        connections=(
            simple_conn("p0", ("r0", "r1"), delay=3, hop_delays=(2, 0),
                        start=2, end=40, value=0.75, start_rate=0.5),
            simple_conn("p1", ("r1",), delay=1, hop_delays=(1,), alpha=0.004, beta=0.08),
        ),
        epsilon=0.25,
        loss_policy=AdversarialFairLoss(seed=42, target_path="p0"),
    )
    assert parse_scenario(emit_scenario(sc)) == sc


def test_json_round_trip_proportional():
    sc = single_link_scenario()
    assert parse_scenario(emit_scenario(sc)) == sc
    assert isinstance(parse_scenario(emit_scenario(sc)).loss_policy, ProportionalLoss)


def test_parse_reports_line_and_column_for_bad_json():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario('{"resources": [,]}')
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda d: d.pop("epsilon"), "epsilon"),
        (lambda d: d["connections"][0].pop("route"), "route"),
        (lambda d: d["connections"][0].update(bogus=1), "bogus"),
        (lambda d: d["resources"][0]["capacity"][0].update(value="ten"), "value"),
        (lambda d: d["connections"][0].update(active=[1]), "active"),
    ],
)
def test_parse_names_the_offending_field(mutate, needle):
    import json

    doc = json.loads(emit_scenario(single_link_scenario()))
    mutate(doc)
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(json.dumps(doc))
    assert needle in str(exc.value)


def test_infinite_capacity_round_trips_as_string():
    sc = Scenario(
        resources=(constant_resource("r0", math.inf),),
        connections=(simple_conn("p0", ("r0",)),),
        epsilon=0.1,
    )
    text = emit_scenario(sc)
    assert '"inf"' in text
    assert parse_scenario(text).resources[0].capacity.at(0) == math.inf


def test_horizon_is_max_end_plus_delay():
    sc = Scenario(
        resources=(constant_resource("r0", 10),),
        connections=(
            simple_conn("p0", ("r0",), start=0, end=10, delay=2, hop_delays=(1,)),
            simple_conn("p1", ("r0",), start=5, end=8, delay=5, hop_delays=(0,)),
        ),
        epsilon=0.1,
    )
    assert sc.horizon == 13
    assert Scenario((), (), 0.1).horizon == -1
