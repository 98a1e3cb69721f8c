"""Round-stepped fluid simulation engine.

Before the first round the kernel builds one static schedule: every
resource, in a topological order of the same-round precedence relation
(validated acyclic), with the (path, pre-delay) pairs crossing it. Each
round then works over flat per-path arrays: (1) active sources emit using
only information from earlier rounds; (2) each scheduled resource pools the
surviving cohorts its members sent at ``t - pre_delay`` and discards exactly
the excess over capacity per the loss policy; (3) cohorts reaching their
destination are recorded and fed back to the source.

Survivors are kept per path and send round and updated in place, so a
cohort crossing several zero-latency hops sees each pooled loss event in
route order. Runs are single-threaded and bit-for-bit deterministic; traces
are immutable once returned.
"""

from __future__ import annotations

import math
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path

from . import protocol
from .model import (
    AdversarialFairLoss,
    LossPolicy,
    ProportionalLoss,
    Scenario,
    intra_round_edges,
    require_valid,
    topo_order,
)

CONSERVATION_RTOL = 1e-9


class KernelError(RuntimeError):
    """Internal conservation failure: a kernel bug, not bad input."""


@dataclass
class ResourceLedger:
    """Dense per-round accounting for one resource."""

    resource_id: str
    into: array
    lost: array
    cap: array


@dataclass
class PathRecord:
    """Dense per-round accounting for one path (zeros outside its windows)."""

    path_id: str
    sent: array
    rcvd: array
    lost: array
    lsr: array


@dataclass
class RunTrace:
    """Complete record of one simulation run."""

    scenario: Scenario
    horizon: int
    paths: dict[str, PathRecord]
    resources: dict[str, ResourceLedger]


def _tiebreak_key(seed: int, round_idx: int, pid: str) -> int:
    return zlib.crc32(f"{seed}:{round_idx}:{pid}".encode())


def allocate_loss(
    contributions: dict[str, float],
    cap: float,
    policy: LossPolicy,
    round_idx: int,
    max_loss: dict[str, float] | None = None,
) -> dict[str, float]:
    """Split the excess over capacity among contributors.

    Returns per-path losses with 0 <= loss_p <= contribution_p summing to
    max(0, sum(contributions) - cap). Proportional: every path loses the
    same fraction. Adversarial: the target absorbs as much as its fairness
    budget allows, the rest is spread proportionally over the others within
    their own budgets. ``max_loss[p]`` is the largest absolute loss path p
    may absorb in this event (unlimited when absent); budgets too small for
    the excess leave the shortfall unallocated, which ``run`` rejects as a
    conservation breach.
    """
    for pid, c in contributions.items():
        if c < 0:
            raise KernelError(f"negative contribution {c} from {pid!r}")
    losses = {pid: 0.0 for pid in contributions}
    into = math.fsum(contributions.values())
    excess = into - cap
    if excess <= 0 or into <= 0:
        return losses

    if isinstance(policy, ProportionalLoss):
        ratio = excess / into
        for pid, c in contributions.items():
            losses[pid] = c * ratio
        return losses

    if not isinstance(policy, AdversarialFairLoss):
        raise KernelError(f"unknown loss policy {policy!r}")

    budgets = max_loss or {}
    need = excess
    target = policy.target_path
    if target in contributions:
        take = min(contributions[target], budgets.get(target, math.inf), need)
        if take > 0:
            losses[target] = take
            need -= take

    others = sorted(
        (pid for pid in contributions if pid != target),
        key=lambda pid: (_tiebreak_key(policy.seed, round_idx, pid), pid),
    )
    caps = {pid: min(contributions[pid], budgets.get(pid, math.inf)) for pid in others}
    active = [pid for pid in others if caps[pid] > 0]
    tol = 1e-15 * max(into, 1.0)
    while need > tol and active:
        total_w = math.fsum(contributions[pid] for pid in active)
        if total_w <= 0:
            break
        clamped = []
        for pid in active:
            share = need * contributions[pid] / total_w
            if share >= caps[pid] - losses[pid]:
                clamped.append(pid)
        if clamped:
            for pid in clamped:
                need -= caps[pid] - losses[pid]
                losses[pid] = caps[pid]
                active.remove(pid)
            continue
        assigned = 0.0
        for pid in active:
            share = need * contributions[pid] / total_w
            losses[pid] += share
            assigned += share
        need -= assigned
        break
    return losses


def run(scenario: Scenario) -> RunTrace:
    """Execute the scenario through its horizon and return the full trace.

    Deterministic given the scenario (including any policy seed).
    """
    require_valid(scenario)
    conns = scenario.connections
    ids = [c.id for c in conns]
    horizon = scenario.horizon
    n_rounds = horizon + 1

    def zeros() -> array:
        return array("d", bytes(8 * n_rounds))

    ledgers = [
        ResourceLedger(r.id, zeros(), zeros(), array("d", r.capacity.values_until(horizon)))
        for r in scenario.resources
    ]
    records = [PathRecord(c.id, zeros(), zeros(), zeros(), zeros()) for c in conns]
    # survivors[k][s]: what is left of path k's cohort sent at round s
    survivors = [zeros() for _ in conns]

    # The static schedule: each resource in same-round precedence order with
    # its members (path, pre-delay, first and last transit round).
    res_index = {r.id: i for i, r in enumerate(scenario.resources)}
    members: list[list[tuple[int, int, int, int]]] = [[] for _ in ledgers]
    for k, c in enumerate(conns):
        for hop, rid in enumerate(c.route):
            pre = c.pre_delay_at(hop)
            members[res_index[rid]].append((k, pre, c.start + pre, c.end + pre))
    order = topo_order([r.id for r in scenario.resources], intra_round_edges(scenario))
    schedule = [(ledgers[i], members[i]) for i in order if members[i]]

    policy = scenario.loss_policy
    adversarial = isinstance(policy, AdversarialFairLoss)
    budget_scale = 1.0 + scenario.epsilon
    frac_lost = [0.0] * len(conns)   # running sum of per-hop loss / cohort size
    frac_seen = [0.0] * len(conns)   # running sum of traversed resource loss ratios

    for t in range(n_rounds):
        # Sources emit, using only feedback with timestamp <= t-1.
        for k, c in enumerate(conns):
            if not (c.start <= t <= c.end):
                continue
            rec = records[k]
            if t <= c.start + c.total_delay:
                rate = c.start_rate
            else:
                prev = rec.sent[t - 1 - c.total_delay]
                rate = protocol.update_rate(prev, rec.lsr[t - 1], c.alpha, c.beta)
            rec.sent[t] = rate
            survivors[k][t] = rate

        # Each scheduled resource pools its active cohorts and discards the excess.
        for ledger, group in schedule:
            cohorts = [(k, t - pre) for k, pre, lo, hi in group if lo <= t <= hi]
            if not cohorts:
                continue
            contributions = {ids[k]: survivors[k][s] for k, s in cohorts}
            into = math.fsum(contributions.values())
            ledger.into[t] = into
            excess = into - ledger.cap[t]
            if not (excess > 0 and into > 0):
                continue
            max_loss = None
            if adversarial:
                # the most each path may lose here while its cumulative loss
                # fraction stays within (1 + epsilon) times the loss ratios it
                # traversed, this event included
                rho = excess / into
                max_loss = {
                    ids[k]: max(0.0, (budget_scale * (frac_seen[k] + rho) - frac_lost[k])
                                * records[k].sent[s])
                    for k, s in cohorts
                }
            losses = allocate_loss(contributions, ledger.cap[t], policy, t, max_loss)
            lost_total = math.fsum(losses.values())
            if abs(lost_total - excess) > CONSERVATION_RTOL * max(into, 1.0):
                raise KernelError(
                    f"loss event at {ledger.resource_id!r} round {t} dropped {lost_total}, "
                    f"excess was {excess}"
                )
            ledger.lost[t] = lost_total
            ratio = lost_total / into
            for k, s in cohorts:
                loss = losses[ids[k]]
                if loss > 0.0:
                    survivors[k][s] = max(0.0, survivors[k][s] - loss)
                if adversarial:
                    frac_lost[k] += loss / records[k].sent[s]
                    frac_seen[k] += ratio

        # Arrivals: record and feed back.
        for k, c in enumerate(conns):
            s = t - c.total_delay
            if not (c.start <= s <= c.end):
                continue
            rec = records[k]
            got = survivors[k][s]
            rec.rcvd[t] = got
            rec.lost[t] = rec.sent[s] - got
            rec.lsr[t] = protocol.loss_fraction(rec.sent[s], got)

    trace = RunTrace(
        scenario=scenario,
        horizon=horizon,
        paths={rec.path_id: rec for rec in records},
        resources={led.resource_id: led for led in ledgers},
    )
    _check_global_conservation(trace)
    return trace


def _check_global_conservation(trace: RunTrace) -> None:
    """Every packet dropped at a resource must surface as an end-to-end loss."""
    path_lost = math.fsum(
        math.fsum(trace.paths[c.id].lost[t] for t in c.shifted_window().rounds())
        for c in trace.scenario.connections
    )
    res_lost = math.fsum(math.fsum(led.lost) for led in trace.resources.values())
    if abs(path_lost - res_lost) > CONSERVATION_RTOL * max(1.0, path_lost, res_lost):
        raise KernelError(
            f"conservation breach: paths lost {path_lost}, resources lost {res_lost}"
        )


# ---------------------------------------------------------------------------
# Trace export: per-path CSV `round,sent,rcvd,lost,lsr` and per-resource CSV
# `round,into,lost,cap`, column order fixed.
# ---------------------------------------------------------------------------


def path_csv(trace: RunTrace, path_id: str) -> str:
    rec = trace.paths[path_id]
    lines = ["round,sent,rcvd,lost,lsr"]
    for t in range(trace.horizon + 1):
        lines.append(f"{t},{rec.sent[t]!r},{rec.rcvd[t]!r},{rec.lost[t]!r},{rec.lsr[t]!r}")
    return "\n".join(lines) + "\n"


def resource_csv(trace: RunTrace, resource_id: str) -> str:
    led = trace.resources[resource_id]
    lines = ["round,into,lost,cap"]
    for t in range(trace.horizon + 1):
        lines.append(f"{t},{led.into[t]!r},{led.lost[t]!r},{led.cap[t]!r}")
    return "\n".join(lines) + "\n"


def export_trace(trace: RunTrace, outdir: str | Path) -> list[Path]:
    """Write all per-path and per-resource CSVs; returns the paths written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for c in trace.scenario.connections:
        p = outdir / f"path_{c.id}.csv"
        p.write_text(path_csv(trace, c.id))
        written.append(p)
    for r in trace.scenario.resources:
        p = outdir / f"resource_{r.id}.csv"
        p.write_text(resource_csv(trace, r.id))
        written.append(p)
    return written
