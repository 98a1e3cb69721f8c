"""Shared builders: hand scenarios and the seeded random scenario generator."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from mimdsim import kernel
from mimdsim.cli import main
from mimdsim.kernel import _PATH_COLUMNS, _RESOURCE_COLUMNS, RunTrace, _csv_header, _csv_rows
from mimdsim.model import (
    AdversarialFairLoss,
    CapacityTimeline,
    ConnectionSpec,
    ProportionalLoss,
    ResourceSpec,
    Scenario,
)


def assert_no_child_processes() -> None:
    # waitpid(-1) fails only when no child exists, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail the test that leaves a child process behind, running or unreaped."""
    yield
    assert_no_child_processes()


def record_forks(monkeypatch) -> list[int]:
    """Make ``os.fork`` append each pid it returns in this process."""
    pids: list[int] = []
    fork = os.fork

    def recording_fork() -> int:
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def chunks_of(monkeypatch, rows: int, scenario: Scenario) -> None:
    """Set the export's value budget so that its one rule cuts a trace of
    ``scenario`` into chunks of ``rows`` rows, streamed or not."""
    width = sum(len(columns) for _, columns in kernel.csv_files(scenario, Path()))
    monkeypatch.setattr(kernel, "_CSV_CHUNK_VALUES", rows * width)


def tree(root: Path) -> dict[str, bytes | None]:
    """Every file's bytes and every directory (as ``None``) under ``root``."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def with_and_without_fork(tmp_path, monkeypatch, capsys, flags) -> list[tuple]:
    """(exit code, stdout, stderr, output tree) of one CLI run with
    ``os.fork`` and one without it."""
    runs = []
    for name in ("forked", "unforked"):
        if name == "unforked":
            monkeypatch.delattr(os, "fork")
        out = tmp_path / name
        code = main(["--out", str(out), *flags])
        printed = capsys.readouterr()
        runs.append((code, printed.out, printed.err, tree(out)))
    return runs


def path_csv(trace: RunTrace, path_id: str) -> str:
    """The text ``export_trace`` writes to ``path_<path_id>.csv``, formatted
    in one piece."""
    return _csv_header(_PATH_COLUMNS) + _csv_rows(trace.paths[path_id], _PATH_COLUMNS,
                                                  0, trace.horizon + 1)


def resource_csv(trace: RunTrace, resource_id: str) -> str:
    """The text ``export_trace`` writes to ``resource_<resource_id>.csv``,
    formatted in one piece."""
    return _csv_header(_RESOURCE_COLUMNS) + _csv_rows(trace.resources[resource_id],
                                                      _RESOURCE_COLUMNS, 0, trace.horizon + 1)


def constant_resource(rid: str, cap: float) -> ResourceSpec:
    return ResourceSpec(rid, CapacityTimeline.constant(cap))


def step_resource(rid: str, steps: list[tuple[int, float]]) -> ResourceSpec:
    return ResourceSpec(rid, CapacityTimeline(steps=tuple(steps)))


def simple_conn(
    cid: str,
    route: tuple[str, ...],
    *,
    value: float = 1.0,
    start: int = 0,
    end: int = 9,
    delay: int = 0,
    hop_delays: tuple[int, ...] | None = None,
    start_rate: float = 1.0,
    alpha: float = 0.01,
    beta: float = 0.1,
) -> ConnectionSpec:
    if hop_delays is None:
        hop_delays = tuple(0 for _ in route)
    return ConnectionSpec(
        id=cid, route=route, value=value, start=start, end=end,
        total_delay=delay, hop_delays=hop_delays,
        start_rate=start_rate, alpha=alpha, beta=beta,
    )


def single_link_scenario(
    *,
    cap: float = 100.0,
    duration: int = 200,
    start_rate: float = 1.0,
    alpha: float = 0.01,
    beta: float = 0.1,
    delay: int = 0,
    epsilon: float = 0.1,
    policy=None,
) -> Scenario:
    conn = simple_conn(
        "p0", ("link",), end=duration - 1, delay=delay,
        hop_delays=(0,) if delay == 0 else (delay,),
        start_rate=start_rate, alpha=alpha, beta=beta,
    )
    return Scenario(
        resources=(constant_resource("link", cap),),
        connections=(conn,),
        epsilon=epsilon,
        loss_policy=policy or ProportionalLoss(),
    )


def sent_ceiling_slack(trace: RunTrace, c: ConnectionSpec) -> float:
    """max allowed send minus actual max send; >= 0 up to 1e-9 relative.

    The ceiling is max(start_rate, peak_received * beta / (beta - alpha)).
    """
    rec = trace.paths[c.id]
    peak_sent = max(rec.sent[c.active_window().as_slice()], default=0.0)
    peak_rcvd = max(rec.rcvd[c.shifted_window().as_slice()], default=0.0)
    ceiling = max(c.start_rate, peak_rcvd * c.beta / (c.beta - c.alpha))
    return ceiling * (1.0 + 1e-9) - peak_sent


def random_scenario(rng: random.Random) -> Scenario:
    """One randomized instance: <=6 resources, <=8 paths, delays <=5, step caps.

    Capacities hold a high baseline until every warm-up cohort has cleared,
    then may dip hard; this keeps every start feasible (no path loses its
    first cohorts), which the loss-floor bound assumes, while still forcing
    heavy mid-run congestion.
    """
    n_res = rng.randint(1, 6)
    n_paths = rng.randint(1, 8)
    res_ids = [f"r{i}" for i in range(n_res)]

    epsilon = rng.uniform(0.05, 0.4)
    guard = 0
    max_alpha = 0.0
    protos = []
    for j in range(n_paths):
        route_len = rng.randint(1, min(3, n_res))
        hops = sorted(rng.sample(range(n_res), route_len))
        first = rng.randint(0, 4)
        hop_delays = [first]
        for _ in range(route_len - 1):
            hop_delays.append(rng.randint(0, hop_delays[-1]))
        delay = min(5, first + rng.randint(0, 1))
        start = rng.randint(0, 8)
        duration = rng.randint(max(14, 3 * (delay + 1)), 48)
        value = round(rng.uniform(0.2, 1.0), 3)
        beta = rng.uniform(0.1, 0.3)
        alpha = epsilon * beta * value * rng.uniform(0.5, 1.0)
        start_rate = rng.uniform(0.3, 1.2)
        max_alpha = max(max_alpha, alpha)
        guard = max(guard, start + 2 * delay + 1)
        protos.append((j, [res_ids[h] for h in hops], value, start, duration,
                       delay, hop_delays, start_rate, alpha, beta))

    total_f0 = sum(p[7] for p in protos)
    growth_bound = total_f0 * (1.0 + max_alpha) ** (guard + 1)
    max_end = max(p[3] + p[4] - 1 for p in protos)

    resources = []
    for rid in res_ids:
        baseline = growth_bound * rng.uniform(1.2, 2.0)
        steps = [(0, baseline)]
        dip_from = guard + 1 + rng.randint(0, 3)
        if dip_from < max_end - 4 and rng.random() < 0.85:
            dip = total_f0 * rng.uniform(0.3, 0.9)
            steps.append((dip_from, dip))
            if rng.random() < 0.5:
                recover = rng.randint(dip_from + 3, max(dip_from + 4, max_end))
                steps.append((recover, baseline * rng.uniform(0.5, 1.0)))
        resources.append(step_resource(rid, steps))

    connections = tuple(
        ConnectionSpec(
            id=f"p{j}", route=tuple(route), value=value,
            start=start, end=start + duration - 1,
            total_delay=delay, hop_delays=tuple(hop_delays),
            start_rate=start_rate, alpha=alpha, beta=beta,
        )
        for j, route, value, start, duration, delay, hop_delays, start_rate, alpha, beta in protos
    )

    if rng.random() < 0.5:
        policy = ProportionalLoss()
    else:
        target = connections[rng.randrange(len(connections))].id
        rng.randrange(2**32)   # unused, but drawn so every suite keeps its scenarios
        policy = AdversarialFairLoss(target)
    return Scenario(
        resources=tuple(resources),
        connections=connections,
        epsilon=epsilon,
        loss_policy=policy,
    )


def scenario_suite(count: int, seed: int) -> list[Scenario]:
    rng = random.Random(seed)
    return [random_scenario(rng) for _ in range(count)]


def grid_resolution(scenario: Scenario, points_per_axis: int = 40) -> float:
    """A brute-force resolution keeping the grid around points_per_axis^n cells."""
    finite = [
        v
        for r in scenario.resources
        for _, v in r.capacity.steps
        if v != float("inf")
    ]
    largest = max(finite, default=1.0)
    return max(0.25, largest / points_per_axis)


def lp_instance(rng: random.Random, *, n_paths: int | None = None) -> Scenario:
    """Small random instance for LP/oracle agreement (caps are small rationals)."""
    n_res = rng.randint(1, 3)
    n_paths = n_paths if n_paths is not None else rng.randint(1, 4)
    resources = []
    for i in range(n_res):
        steps = [(0, rng.randint(2, 40) / 2.0)]
        if rng.random() < 0.5:
            steps.append((rng.randint(3, 12), rng.randint(2, 40) / 2.0))
        resources.append(step_resource(f"r{i}", steps))
    conns = []
    for j in range(n_paths):
        route_len = rng.randint(1, n_res)
        hops = sorted(rng.sample(range(n_res), route_len))
        first = rng.randint(0, 3)
        hop_delays = [first]
        for _ in range(route_len - 1):
            hop_delays.append(rng.randint(0, hop_delays[-1]))
        start = rng.randint(0, 5)
        conns.append(simple_conn(
            f"p{j}",
            tuple(f"r{h}" for h in hops),
            value=rng.randint(1, 4) / 4.0,
            start=start,
            end=start + rng.randint(3, 20),
            delay=min(5, first + rng.randint(0, 1)),
            hop_delays=tuple(hop_delays),
        ))
    return Scenario(tuple(resources), tuple(conns), epsilon=0.1)


@pytest.fixture(scope="session")
def acceptance_suite():
    """The 200 randomized scenarios plus their traces, shared across criteria."""
    from mimdsim.kernel import run

    scenarios = scenario_suite(200, seed=0xC0FFEE)
    return [(sc, run(sc)) for sc in scenarios]
