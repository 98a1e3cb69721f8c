"""Engine semantics: timing, pooled loss events, conservation, determinism."""

from __future__ import annotations

import math
import os
import random
import re
import time
from pathlib import Path

import pytest

from conftest import (
    assert_no_child_processes,
    chunks_of,
    constant_resource,
    path_csv,
    random_scenario,
    record_forks,
    resource_csv,
    simple_conn,
    single_link_scenario,
    step_resource,
)
from mimdsim import kernel, protocol
from mimdsim.cli import main
from mimdsim.kernel import KernelError, RunTrace, allocate_loss, run
from mimdsim.model import (
    AdversarialFairLoss,
    ProportionalLoss,
    Scenario,
    ScenarioValidationError,
    parse_scenario,
)
from mimdsim.protocol import ProtocolError


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


def _two_paths(cap: float, policy=None, *, b_start: int = 0, b_rate: float = 50.0,
               epsilon: float = 0.1, a_rate: float = 100.0) -> Scenario:
    return Scenario(
        resources=(constant_resource("r", cap),),
        connections=(
            simple_conn("A", ("r",), end=b_start, start_rate=a_rate),
            simple_conn("B", ("r",), start=b_start, end=b_start, start_rate=b_rate),
        ),
        epsilon=epsilon,
        loss_policy=policy or ProportionalLoss(),
    )


def test_allocate_loss_basic_contracts(monkeypatch):
    # an event within capacity loses nothing; a proportional excess is split
    # by size ...
    for cap, want in ((150.0, (0.0, 0.0)), (120.0, (20.0, 10.0))):
        trace = run(_two_paths(cap))
        assert (trace.paths["A"].lost[0], trace.paths["B"].lost[0]) == pytest.approx(want)

    # ... and a negative contribution to a congested event is a kernel fault
    # under either policy: past validation, A starts at -1 and B adds 200
    monkeypatch.setattr(kernel, "require_valid", lambda scenario: None)
    for policy in (ProportionalLoss(), AdversarialFairLoss(target_path="B")):
        with pytest.raises(KernelError, match="negative contribution -1.0 from 'A'"):
            run(_two_paths(120.0, policy, a_rate=-1.0, b_rate=200.0))


def test_allocate_loss_adversarial_with_fresh_budget():
    # excess 30, ratio 0.2; with eps = 0.6 the fresh budget for A is
    # (1 + 0.6) * 0.2 * 100 = 32, so the full excess lands on the target.
    losses = allocate_loss([100.0, 50.0], 150.0, 30.0, 0, [32.0, 16.0])
    assert losses == [30.0, 0.0]


def test_allocate_loss_adversarial_respects_budget_cap():
    losses = allocate_loss([100.0, 50.0], 150.0, 30.0, 0, [12.0, 100.0])
    assert losses[0] == 12.0
    assert losses[1] == pytest.approx(18.0)
    assert math.fsum(losses) == pytest.approx(30.0, rel=1e-12)


def test_allocate_loss_budget_shortfall_is_rejected(monkeypatch):
    # budgets of 5 + 5 cannot cover an excess of 30: the allocator stays
    # within them instead of moving the rest onto contributions ...
    losses = allocate_loss([100.0, 50.0], 150.0, 30.0, 0, [5.0, 5.0])
    assert losses == [5.0, 5.0]

    # ... and run refuses the shortfall through its per-event conservation check
    real = kernel.allocate_loss

    def starved(sizes, into, excess, target, max_loss):
        return real(sizes, into, excess, target, [0.0] * len(sizes))

    monkeypatch.setattr(kernel, "allocate_loss", starved)
    with pytest.raises(KernelError, match="excess was 30.0"):
        run(_two_paths(120.0, AdversarialFairLoss(target_path="A"), epsilon=0.6))


def test_adversarial_run_biases_target_within_fairness():
    from mimdsim import audit

    sc = Scenario(
        resources=(constant_resource("r", 120.0),),
        connections=(
            simple_conn("A", ("r",), end=0, start_rate=100.0),
            simple_conn("B", ("r",), end=0, start_rate=50.0),
        ),
        epsilon=0.6,
        loss_policy=AdversarialFairLoss(target_path="A"),
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


def test_rate_underflow_error_names_the_path_and_round():
    # capacity 0 drops everything, so each update multiplies by 1 + 0.001 - 0.99
    # until the rate underflows to 0.0 in round 166
    sc = single_link_scenario(cap=0.0, duration=400, alpha=0.001, beta=0.99, start_rate=1.0)
    with pytest.raises(ProtocolError, match=r"path 'p0' round 166: non-positive send rate"):
        run(sc)


def test_rate_overflow_error_names_the_path_and_round():
    # infinite capacity drops nothing, so each update multiplies by 1.5 until
    # the rate overflows to inf in round 1751
    sc = single_link_scenario(cap=math.inf, duration=2000, alpha=0.5, beta=0.9, start_rate=1.0)
    with pytest.raises(ProtocolError, match=r"^path 'p0' round 1751: send rate overflowed to inf$"):
        run(sc)


def test_a_load_past_the_largest_float_names_the_resource_and_round():
    sc = Scenario(
        (constant_resource("link", 1.0),),
        (simple_conn("a", ("link",), start_rate=1e308),
         simple_conn("b", ("link",), start_rate=1e308)),
        0.1,
    )
    with pytest.raises(ProtocolError, match=r"^resource 'link' round 0: load overflowed to inf$"):
        run(sc)


def test_a_total_loss_past_the_largest_float_ends_the_run():
    # each round's loss is finite, their sum is not
    sc = single_link_scenario(cap=0.0, duration=2, start_rate=1.7e308, alpha=0.25, beta=0.5)
    with pytest.raises(ProtocolError, match=r"^total loss overflowed to inf$"):
        run(sc)


def _two_paths_one_link(scale: float) -> Scenario:
    return Scenario(
        (constant_resource("link", scale),),
        (simple_conn("a", ("link",), start_rate=scale),
         simple_conn("b", ("link",), start_rate=scale)),
        0.1,
        AdversarialFairLoss(target_path="a"),
    )


def test_adversarial_split_survives_products_past_the_float_range():
    # at 1e160, need * size overflows before the division by the total weight
    small, big = run(_two_paths_one_link(1.0)), run(_two_paths_one_link(1e160))
    assert big.resources["link"].lost[0] == 1e160
    for pid in ("a", "b"):
        for want, got in zip(small.paths[pid].lost, big.paths[pid].lost):
            assert math.isclose(got, want * 1e160, rel_tol=1e-12)


def test_adversarial_split_survives_products_below_the_normal_floats():
    # at 1e-160, need * size falls below the normal floats before the division
    small, tiny = run(_two_paths_one_link(1.0)), run(_two_paths_one_link(1e-160))
    assert tiny.resources["link"].lost[0] == 1e-160
    for pid in ("a", "b"):
        for want, got in zip(small.paths[pid].lost, tiny.paths[pid].lost):
            assert math.isclose(got, want * 1e-160, rel_tol=1e-12)


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
        sizes = [0.0 if j and rng.random() < 0.2 else rng.uniform(0.1, 10.0)
                 for j in range(len(pids))]
        into = math.fsum(sizes)
        excess = into - rng.uniform(0.0, into)
        rng.randrange(2**32)   # unused, like the draw below, but kept so the stream,
                               # and so the scenarios further down, stay the same
        target = pids.index(rng.choice(pids))
        # at least the proportional share, so the budgets cover the excess
        max_loss = [c * excess / into * rng.uniform(1.0, 3.0) for c in sizes]
        rng.randrange(100)
        losses = allocate_loss(sizes, into, excess, target, max_loss)
        assert math.fsum(losses) == pytest.approx(excess, rel=1e-12, abs=1e-12)
        for c, budget, loss in zip(sizes, max_loss, losses):
            assert 0.0 <= loss <= c
            assert loss <= budget * (1 + 1e-12)

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


def test_export_trace_files_equal_the_csv_strings_across_chunks(tmp_path):
    chunk = kernel._CSV_CHUNK_VALUES // 7   # one path and one resource: 4 + 3 columns
    sc = single_link_scenario(cap=50.0, duration=2 * chunk + 123)
    trace = run(sc)
    assert kernel._chunk_rows(kernel._csv_files(trace, tmp_path)) == chunk
    written = kernel.export_trace(trace, tmp_path)
    assert [p.name for p in written] == ["path_p0.csv", "resource_link.csv"]
    assert written[0].read_bytes() == path_csv(trace, "p0").encode()
    assert written[1].read_bytes() == resource_csv(trace, "link").encode()
    assert len(written[0].read_text().splitlines()) == 1 + trace.horizon + 1


def _per_row_csv(columns: tuple[str, ...], arrays: list, n_rows: int) -> str:
    """The CSV text of a plain per-row ``%r`` formatter."""
    row = ",".join(["%r"] * (1 + len(columns))) + "\n"
    return (",".join(("round",) + columns) + "\n"
            + "".join(row % ((t,) + tuple(a[t] for a in arrays)) for t in range(n_rows)))


@pytest.mark.parametrize("n_rows", [1, 7, 29])
def test_one_value_chunks_are_written_as_a_per_row_repr_writes_them(tmp_path, monkeypatch,
                                                                     n_rows):
    # chunks of 7 rows; 29 rows end in a chunk of one
    sc = Scenario((constant_resource("r", math.inf),),
                  (simple_conn("p", ("r",), end=n_rows - 1),), 0.1)
    chunks_of(monkeypatch, 7, sc)
    trace = run(sc)
    assert trace.horizon + 1 == n_rows
    rng = random.Random(n_rows)
    rec, led = trace.paths["p"], trace.resources["r"]
    for t in range(n_rows):
        rec.sent[t] = 0.0
        rec.rcvd[t] = -0.0
        rec.lost[t] = (0.0, -0.0)[t % 2]
        rec.lsr[t] = 0.5 if t % 7 == 6 else 0.25   # only a chunk's last row differs
        led.into[t] = rng.uniform(0.0, 10.0)
        led.lost[t] = 1e-300
    assert set(led.cap) == {math.inf}
    kernel.export_trace(trace, tmp_path)
    assert (tmp_path / "path_p.csv").read_text() == _per_row_csv(
        kernel._PATH_COLUMNS, [rec.sent, rec.rcvd, rec.lost, rec.lsr], n_rows)
    assert (tmp_path / "resource_r.csv").read_text() == _per_row_csv(
        kernel._RESOURCE_COLUMNS, [led.into, led.lost, led.cap], n_rows)


def test_the_inline_rule_equals_protocol_bit_for_bit_on_random_runs():
    # both policies, capacity dips and loss fractions of 0 and 1 included
    rng = random.Random(2024)
    fractions = set()
    for _ in range(40):
        sc = random_scenario(rng)
        trace = run(sc)
        for c in sc.connections:
            rec, d = trace.paths[c.id], c.total_delay
            for t in range(c.start + d + 1, c.end + 1):
                want = protocol.update_rate(rec.sent[t - 1 - d], rec.lsr[t - 1], c.alpha, c.beta)
                assert rec.sent[t].hex() == want.hex(), (c.id, t)
            for t in range(c.start + d, c.end + d + 1):
                want = protocol.loss_fraction(rec.sent[t - d], rec.rcvd[t])
                assert rec.lsr[t].hex() == want.hex(), (c.id, t)
                fractions.add(rec.lsr[t])
    assert {0.0, 1.0} <= fractions and len(fractions) > 1000


def test_the_inline_rule_equals_protocol_bit_for_bit_on_random_feedback():
    # after each round the hook checks the round's rate, then feeds the next
    # update a random rate and a random loss fraction, the ends included
    rng = random.Random(7)
    for _ in range(20):
        beta = rng.uniform(0.01, 0.99)
        alpha = beta * rng.uniform(0.01, 0.99)
        sc = Scenario((), (simple_conn("p", (), end=199, alpha=alpha, beta=beta),), 0.1)
        fed = {}

        def feed(trace, t):
            rec = trace.paths["p"]
            if t - 1 in fed:
                want = protocol.update_rate(*fed[t - 1], alpha, beta)
                assert rec.sent[t].hex() == want.hex(), t
            prev = 10.0 ** rng.uniform(-300, 300)
            lsr = rng.choice((0.0, 1.0, rng.random()))
            rec.sent[t], rec.lsr[t] = prev, lsr
            fed[t] = (prev, lsr)

        run(sc, on_round=feed)
        assert len(fed) == 200


def _feedback_run(row: str, t: int, value) -> RunTrace:
    """A one-path run over an unbounded link with delay 1, in which round
    ``t`` receives a corrupted ``rcvd[t]`` (``row == "rcvd"``) or updates
    from a corrupted ``lsr[t - 1]`` (``row == "lsr"``): once round ``t - 1``
    has ended, a hook sets it to ``value(sent[t - 1])``."""
    sc = Scenario((constant_resource("r", math.inf),),
                  (simple_conn("p", ("r",), end=9, delay=1, hop_delays=(1,)),), 0.1)

    def corrupt(trace, u):
        if u == t - 1:
            rec = trace.paths["p"]
            getattr(rec, row)[t if row == "rcvd" else u] = value(rec.sent[u])

    return run(sc, on_round=corrupt)


@pytest.mark.parametrize("row,value,message", [
    ("lsr", lambda sent: 1.5, "loss fraction 1.5 outside [0,1]"),
    ("lsr", lambda sent: -0.5, "loss fraction -0.5 outside [0,1]"),
    ("lsr", lambda sent: math.nan, "loss fraction nan outside [0,1]"),
    ("rcvd", lambda sent: -1.0, "negative rcvd -1.0"),
    # (sent - rcvd) / sent rounds to 1.0 here: only the sign of rcvd is out
    ("rcvd", lambda sent: -5e-324, "negative rcvd -5e-324"),
    ("rcvd", lambda sent: 2.0 * sent, "rcvd 2.02 exceeds sent 1.01 beyond tolerance"),
], ids=["lsr-above-1", "lsr-below-0", "lsr-nan", "negative-rcvd", "negative-rcvd-tiny",
        "rcvd-above-sent"])
def test_feedback_outside_the_domain_raises_protocol_s_message_naming_path_and_round(
        row, value, message):
    # round 4 updates from lsr[3] and receives rcvd[4], the cohort sent in round 3
    with pytest.raises(ProtocolError, match="^" + re.escape(f"path 'p' round 4: {message}") + "$"):
        _feedback_run(row, 4, value)


def test_a_loss_fraction_within_tolerance_below_0_is_clamped_to_0():
    trace = _feedback_run("rcvd", 4, lambda sent: sent * (1.0 + 1e-14))
    rec = trace.paths["p"]
    assert rec.lost[4] < 0.0
    assert rec.lsr[4].hex() == (0.0).hex()


def _expected_csvs(trace) -> dict[str, bytes]:
    want = {f"path_{c.id}.csv": path_csv(trace, c.id).encode()
            for c in trace.scenario.connections}
    want.update((f"resource_{r.id}.csv", resource_csv(trace, r.id).encode())
                for r in trace.scenario.resources)
    return want


def _streamed_run(scenario, outdir: Path, on_round=None):
    """Run ``scenario`` with a CsvStream into ``outdir`` and finish the
    export; ``on_round(stream, trace, t)``, if given, replaces the hook."""
    with kernel.CsvStream(outdir) as stream:
        hook = stream if on_round is None else lambda trace, t: on_round(stream, trace, t)
        trace = run(scenario, on_round=hook)
        written = kernel.export_trace(trace, outdir)
    return trace, written


def test_streamed_csvs_equal_the_export_of_the_finished_trace(tmp_path, monkeypatch):
    forks = record_forks(monkeypatch)
    rng = random.Random(808)
    # 21 rows end on a chunk boundary; the last trace has one file
    scenarios = [random_scenario(rng) for _ in range(8)]
    scenarios += [single_link_scenario(duration=21, delay=2),
                  Scenario(resources=(), epsilon=0.1,
                           connections=(simple_conn("p", (), start_rate=3.0, end=30),))]
    assert all(any(c.total_delay > 0 for c in sc.connections) for sc in scenarios[:9])
    for i, sc in enumerate(scenarios):
        chunks_of(monkeypatch, 7, sc)   # in both exports
        out = tmp_path / f"streamed{i}"
        trace, written = _streamed_run(sc, out)
        assert trace.horizon + 1 > 2 * 7
        want = _expected_csvs(trace)
        assert [p.name for p in written] == list(want)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == want
        finished = tmp_path / f"finished{i}"
        kernel.export_trace(run(sc), finished)
        assert {p.name: p.read_bytes() for p in finished.iterdir()} == want
    assert len(forks) == len(scenarios)


def test_a_trace_wider_than_the_budget_goes_out_a_row_at_a_time(tmp_path, monkeypatch):
    sc = single_link_scenario(duration=20, delay=2)
    monkeypatch.setattr(kernel, "_CSV_CHUNK_VALUES", 6)   # a row holds 4 + 3 values
    log = tmp_path / "rows.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    append = kernel._append_rows

    def append_and_log(files, lo, hi):
        os.write(fd, f"{os.getpid()} {lo} {hi}\n".encode())
        append(files, lo, hi)

    monkeypatch.setattr(kernel, "_append_rows", append_and_log)
    try:
        trace, _ = _streamed_run(sc, tmp_path / "streamed")
        kernel.export_trace(run(sc), tmp_path / "finished")
    finally:
        os.close(fd)
    n_rounds = trace.horizon + 1
    calls = [line.split() for line in log.read_text().splitlines()]
    # the child's calls and the in-process export's, one a row each
    assert len(calls) == 2 * n_rounds and len({pid for pid, _, _ in calls}) == 2
    assert {(int(lo), int(hi)) for _, lo, hi in calls} == {(t, t + 1) for t in range(n_rounds)}
    want = _expected_csvs(trace)
    for name in ("streamed", "finished"):
        assert {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()} == want


def test_a_one_file_trace_forks_nothing(tmp_path, monkeypatch):
    forks = record_forks(monkeypatch)
    sc = Scenario(
        resources=(),
        connections=(simple_conn("p", (), start_rate=3.0, end=4),),
        epsilon=0.1,
    )
    trace = run(sc)
    assert [p.name for p in kernel.export_trace(trace, tmp_path)] == ["path_p.csv"]
    assert (tmp_path / "path_p.csv").read_bytes() == path_csv(trace, "p").encode()
    assert forks == []


def test_the_export_child_is_reaped_after_success(tmp_path, monkeypatch):
    forks = record_forks(monkeypatch)
    _streamed_run(single_link_scenario(duration=300), tmp_path)
    assert len(forks) == 1 and forks[0] > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)
    assert_no_child_processes()


def _in_children_only(monkeypatch, act) -> None:
    """Make ``_append_rows`` call ``act()`` in any process but this one."""
    parent, append = os.getpid(), kernel._append_rows

    def append_rows(files, lo, hi):
        if os.getpid() != parent:
            act()
        append(files, lo, hi)

    monkeypatch.setattr(kernel, "_append_rows", append_rows)


def _no_space():
    raise OSError(28, "No space left on device")


def test_a_child_write_failure_raises_and_names_it(tmp_path, monkeypatch):
    # the child fails on its first chunk; the rounds published after it has
    # exited meet a closed pipe, and that is not the error reported
    sc = single_link_scenario(duration=50)
    chunks_of(monkeypatch, 7, sc)
    forks = record_forks(monkeypatch)
    _in_children_only(monkeypatch, _no_space)
    rounds_run = []

    def wait_for_the_childs_exit(stream, trace, t):
        deadline = time.monotonic() + 30
        while t == 7 and not os.waitid(os.P_PID, forks[0],
                                       os.WEXITED | os.WNOHANG | os.WNOWAIT):
            assert time.monotonic() < deadline, "the export child has not exited"
            time.sleep(0.001)
        stream(trace, t)
        rounds_run.append(t)

    with pytest.raises(OSError, match=r"^trace export child failed: OSError: \[Errno 28\] No space"):
        _streamed_run(sc, tmp_path, wait_for_the_childs_exit)
    assert max(rounds_run) == 49
    assert list(tmp_path.iterdir()) == []
    assert_no_child_processes()


def test_a_child_that_exits_without_a_message_is_reported_by_exit_code(tmp_path, monkeypatch):
    sc = single_link_scenario(duration=50)
    chunks_of(monkeypatch, 7, sc)
    _in_children_only(monkeypatch, lambda: os._exit(4))
    with pytest.raises(OSError, match=r"^trace export child failed: exit code 4$"):
        _streamed_run(sc, tmp_path)
    assert list(tmp_path.iterdir()) == []
    assert_no_child_processes()


def test_a_child_write_failure_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch):
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "single_link.json"
    chunks_of(monkeypatch, 7, parse_scenario(scenario.read_text()))
    out = tmp_path / "out"
    out.mkdir()
    (out / ".part").write_text("")   # a file where the stage goes: no run removes it
    assert main(["--scenario", str(scenario), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: trace export child failed: FileExistsError")
    assert str(out / ".part") in err and len(err.splitlines()) == 1
    assert [p.name for p in out.iterdir()] == [".part"]
    assert_no_child_processes()


def test_a_parent_share_failure_kills_and_reaps_the_child(tmp_path, monkeypatch):
    # the kernel, this process's share, fails at round 166 while the child
    # stalls on its first chunk
    sc = single_link_scenario(cap=0.0, duration=300, alpha=0.001, beta=0.99)
    chunks_of(monkeypatch, 7, sc)
    _in_children_only(monkeypatch, lambda: time.sleep(30))   # only a kill ends it early
    started = time.monotonic()
    with pytest.raises(ProtocolError, match="round 166") as info:
        _streamed_run(sc, tmp_path)
    assert "child" not in str(info.value)
    assert time.monotonic() - started < 15
    assert list(tmp_path.iterdir()) == []
    assert_no_child_processes()


def test_a_failed_end_of_run_check_publishes_none_of_the_rows_the_child_wrote(
        tmp_path, monkeypatch):
    # the hook has had the last round, so the child writes every row into
    # the stage; the check fails after that, and the stage goes whole
    sc = single_link_scenario(duration=50)
    chunks_of(monkeypatch, 7, sc)
    log = tmp_path / "rows.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    append = kernel._append_rows

    def append_and_log(files, lo, hi):
        append(files, lo, hi)
        os.write(fd, f"{hi}\n".encode())

    def breach_once_every_row_is_staged(trace):
        deadline = time.monotonic() + 30
        while "50" not in log.read_text().split():
            assert time.monotonic() < deadline, "the export child has not written row 49"
            time.sleep(0.001)
        return 1.0, 0.0

    monkeypatch.setattr(kernel, "_append_rows", append_and_log)
    monkeypatch.setattr(kernel, "loss_totals", breach_once_every_row_is_staged)
    out = tmp_path / "out"
    out.mkdir()
    (out / "path_p0.csv").write_text("from an earlier run\n")
    try:
        with pytest.raises(KernelError, match="conservation breach"):
            _streamed_run(sc, out)
    finally:
        os.close(fd)
    assert {p.name: p.read_text() for p in out.iterdir()} == {
        "path_p0.csv": "from an earlier run\n"}
    assert_no_child_processes()


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
