"""Round-stepped fluid simulation engine.

Before the first round the kernel builds one static schedule: every
resource, in a topological order of the same-round precedence relation
(validated acyclic), with the (path, pre-delay) pairs crossing it, taken
from ``model.crossings``, the table the LP and the fairness audit read too.
Each round then works over flat per-path arrays: (1) active sources emit using
only information from earlier rounds; (2) each scheduled resource sums, once,
the surviving cohorts its members sent at ``t - pre_delay`` and discards
exactly the excess over capacity: proportional loss is split inline, every
cohort losing the same fraction, and adversarial loss goes through
``allocate_loss``; (3) cohorts reaching their destination are recorded and
fed back to the source.

Each cohort is stored once, in ``rcvd[s + total_delay]`` from its send round
``s`` on, and cut there in place by each loss event, so a cohort crossing
zero-latency hops sees their pooled losses in route order and arrives with no
copy. Runs are single-threaded and bit-for-bit deterministic; traces are
immutable once returned.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from . import protocol
from ._fork import forked
from .model import (
    AdversarialFairLoss,
    Scenario,
    crossings,
    intra_round_edges,
    require_valid,
    topo_order,
)

CONSERVATION_RTOL = 1e-9
_NORMAL_MIN = sys.float_info.min
_QUANTUM = math.ulp(0.0)   # the spacing of the subnormal floats


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


def allocate_loss(
    sizes: list[float],
    into: float,
    excess: float,
    target: int | None,
    max_loss: list[float],
) -> list[float]:
    """Split an adversarial loss event's ``excess > 0`` among its cohorts.

    ``sizes[j]`` is what the ``j``-th cohort put into the event, ``into``
    their sum, ``max_loss[j]`` the largest absolute loss its path may absorb
    here and ``target`` the target path's position (``None`` when it is not
    in the event). Returns the losses by position, with 0 <= loss_j <=
    sizes[j]: the target absorbs as much as its budget allows, the rest is
    spread proportionally over the others within their own budgets, clamping
    them in position order. Budgets too small for the excess leave the
    shortfall unallocated, which ``run`` rejects as a conservation breach.
    """
    losses = [0.0] * len(sizes)
    need = excess
    if target is not None:
        take = min(sizes[target], max_loss[target], need)
        if take > 0:
            losses[target] = take
            need -= take

    caps = [min(c, b) for c, b in zip(sizes, max_loss)]
    active = [j for j, cap in enumerate(caps) if j != target and cap > 0]
    tol = 1e-15 * into
    while need > tol and active:
        total_w = math.fsum(sizes[j] for j in active)
        if total_w <= 0:
            break
        # need * size leaves the normal floats past about 1e154 and below
        # about 1e-154; only there divide first
        shares = [part / total_w if _NORMAL_MIN <= (part := need * sizes[j]) < math.inf
                  else need * (sizes[j] / total_w) for j in active]
        clamped = [j for j, share in zip(active, shares) if share >= caps[j] - losses[j]]
        if clamped:
            for j in clamped:
                need -= caps[j] - losses[j]
                losses[j] = caps[j]
                active.remove(j)
            continue
        for j, share in zip(active, shares):
            losses[j] += share
        break
    return losses


def run(scenario: Scenario) -> RunTrace:
    """Execute the scenario through its horizon and return the full trace.

    Deterministic given the scenario.
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
    # inflight[k][s]: what is left of path k's cohort sent at round s, kept
    # from the send on in rcvd[s + total_delay], where it arrives
    inflight = [memoryview(rec.rcvd)[c.total_delay:] for rec, c in zip(records, conns)]

    # The static schedule: each resource in same-round precedence order with
    # its members (path, pre-delay, first and last transit round).
    members: list[list[tuple[int, int, int, int]]] = [[] for _ in ledgers]
    for k, i, pre, first, last in crossings(scenario):
        members[i].append((k, pre, first, last))
    order = topo_order([r.id for r in scenario.resources], intra_round_edges(scenario))
    schedule = [(ledgers[i], members[i]) for i in order if members[i]]

    policy = scenario.loss_policy
    adversarial = isinstance(policy, AdversarialFairLoss)
    target_k = ids.index(policy.target_path) if adversarial else -1
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
                try:
                    rate = protocol.update_rate(prev, rec.lsr[t - 1], c.alpha, c.beta)
                except protocol.ProtocolError as exc:
                    raise protocol.ProtocolError(f"path {c.id!r} round {t}: {exc}") from exc
            rec.sent[t] = rate
            inflight[k][t] = rate

        # Each scheduled resource pools its active cohorts and discards the excess.
        for ledger, group in schedule:
            cohorts = [(k, t - pre) for k, pre, lo, hi in group if lo <= t <= hi]
            if not cohorts:
                continue
            sizes = [inflight[k][s] for k, s in cohorts]
            try:
                into = math.fsum(sizes)
            except OverflowError:
                raise protocol.ProtocolError(
                    f"resource {ledger.resource_id!r} round {t}: load overflowed to inf") from None
            ledger.into[t] = into
            excess = into - ledger.cap[t]
            if not (excess > 0 and into > 0):
                continue
            low = min(sizes)
            if low < 0:
                k = cohorts[sizes.index(low)][0]
                raise KernelError(f"negative contribution {low} from {ids[k]!r}")
            rho = excess / into
            if adversarial:
                # the most each path may lose here while its cumulative loss
                # fraction stays within (1 + epsilon) times the loss ratios it
                # traversed, this event included
                max_loss = [max(0.0, (budget_scale * (frac_seen[k] + rho) - frac_lost[k])
                                * records[k].sent[s])
                            for k, s in cohorts]
                target = next((j for j, (k, _) in enumerate(cohorts) if k == target_k), None)
                losses = allocate_loss(sizes, into, excess, target, max_loss)
            else:
                losses = [c * rho for c in sizes]
            lost_total = math.fsum(losses)
            # each share may round away up to half a quantum of the excess
            if abs(lost_total - excess) > CONSERVATION_RTOL * into + _QUANTUM * len(sizes):
                raise KernelError(
                    f"loss event at {ledger.resource_id!r} round {t} dropped {lost_total}, "
                    f"excess was {excess}"
                )
            ledger.lost[t] = lost_total
            ratio = lost_total / into
            for (k, s), c, loss in zip(cohorts, sizes, losses):
                if loss > 0.0:
                    inflight[k][s] = max(0.0, c - loss)
                if adversarial:
                    frac_lost[k] += loss / records[k].sent[s]
                    frac_seen[k] += ratio

        # Arrivals: what is left in rcvd[t] is received; record and feed back.
        for k, c in enumerate(conns):
            s = t - c.total_delay
            if not (c.start <= s <= c.end):
                continue
            rec = records[k]
            got = rec.rcvd[t]
            rec.lost[t] = rec.sent[s] - got
            try:
                rec.lsr[t] = protocol.loss_fraction(rec.sent[s], got)
            except protocol.ProtocolError as exc:
                raise protocol.ProtocolError(f"path {c.id!r} round {t}: {exc}") from exc

    trace = RunTrace(
        scenario=scenario,
        horizon=horizon,
        paths=dict(zip(ids, records)),
        resources=dict(zip((r.id for r in scenario.resources), ledgers)),
    )
    # every packet dropped at a resource must surface as an end-to-end loss,
    # up to rounding relative to the load the losses were taken from (not to
    # the loss totals: a tiny loss is a difference of two large rates)
    try:
        path_lost, res_lost = loss_totals(trace)
    except OverflowError:
        raise protocol.ProtocolError("total loss overflowed to inf") from None
    carried = sum(sum(led.into) for led in ledgers)   # inf past the largest float
    if abs(path_lost - res_lost) > CONSERVATION_RTOL * carried:
        raise KernelError(
            f"conservation breach: paths lost {path_lost}, resources lost {res_lost}"
        )
    return trace


def loss_totals(trace: RunTrace) -> tuple[float, float]:
    """(total lost seen by the paths over their arrival windows, total
    dropped at the resources)."""
    path_lost = math.fsum(
        math.fsum(trace.paths[c.id].lost[c.shifted_window().as_slice()])
        for c in trace.scenario.connections
    )
    res_lost = math.fsum(math.fsum(led.lost) for led in trace.resources.values())
    return path_lost, res_lost


# ---------------------------------------------------------------------------
# Trace export: per-path CSV `round,sent,rcvd,lost,lsr` and per-resource CSV
# `round,into,lost,cap`, column order fixed. Files are written in chunks of
# at most _CSV_CHUNK_ROWS rows, so export memory does not grow with the horizon.
# The export is almost all float repr, so export_trace can split the files
# between the calling process and one forked child, which reads the trace
# through the fork's copy-on-write pages: nothing is pickled or piped, and
# each file's bytes do not depend on which process writes it.
# ---------------------------------------------------------------------------

_CSV_CHUNK_ROWS = 4096
_PATH_COLUMNS = ("sent", "rcvd", "lost", "lsr")
_RESOURCE_COLUMNS = ("into", "lost", "cap")

_CsvFile = tuple[Path, PathRecord | ResourceLedger, tuple[str, ...]]


def csv_files(scenario: Scenario, outdir: Path) -> list[tuple[Path, tuple[str, ...]]]:
    """(file, value columns) of every CSV ``export_trace`` writes for a run of
    ``scenario`` into ``outdir``, paths in declaration order, then resources.
    Every file has ``scenario.horizon + 1`` rows."""
    return ([(outdir / f"path_{c.id}.csv", _PATH_COLUMNS) for c in scenario.connections]
            + [(outdir / f"resource_{r.id}.csv", _RESOURCE_COLUMNS)
               for r in scenario.resources])


def _csv_chunks(record: PathRecord | ResourceLedger, columns: tuple[str, ...],
                n_rounds: int) -> Iterator[str]:
    """The CSV text of one record: the header line, then chunks of rows."""
    yield ",".join(("round",) + columns) + "\n"
    row = ",".join(["%r"] * (1 + len(columns))) + "\n"
    arrays = [getattr(record, name) for name in columns]
    for lo in range(0, n_rounds, _CSV_CHUNK_ROWS):
        hi = min(lo + _CSV_CHUNK_ROWS, n_rounds)
        yield "".join([row % r for r in zip(range(lo, hi), *(a[lo:hi] for a in arrays))])


def _write_csvs(files: list[_CsvFile], n_rounds: int) -> None:
    for p, record, columns in files:
        with p.open("w") as f:
            f.writelines(_csv_chunks(record, columns, n_rounds))


def _split_shares(files: list[_CsvFile]) -> tuple[list[_CsvFile], list[_CsvFile]]:
    """The most even two-way split, a file's size being its column count (all
    have the same rows); the first share is the larger or equal one.

    Exact subset sum over the small column counts: bit ``s`` of
    ``reach[i]`` says some of the first ``i`` files sum to ``s``.
    """
    sizes = [len(columns) for _, _, columns in files]
    reach = [1]
    for size in sizes:
        reach.append(reach[-1] | reach[-1] << size)
    target = sum(sizes) // 2
    while not reach[-1] >> target & 1:
        target -= 1
    smaller = [False] * len(files)
    for i in range(len(files), 0, -1):
        if not reach[i - 1] >> target & 1:
            smaller[i - 1] = True
            target -= sizes[i - 1]
    return ([e for e, s in zip(files, smaller) if not s],
            [e for e, s in zip(files, smaller) if s])


def export_trace(trace: RunTrace, outdir: str | Path, split: bool = True) -> list[Path]:
    """Write all per-path and per-resource CSVs (``csv_files``); returns the
    paths written, in that order.

    With ``split`` and two files or more, one child forked through
    ``_fork.forked`` writes about half of them while this process writes the
    rest, and the child is reaped before this returns, on every path: if
    this process's share raises, the child is killed first; if the child's
    share fails, this raises ``OSError`` naming the child's exception.
    Without ``split``, or where the platform has no ``fork``, every file is
    written here. Call it with ``split`` only in a process that runs no
    other thread, since the fork copies just the calling one.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n_rounds = trace.horizon + 1
    records = [trace.paths[c.id] for c in trace.scenario.connections]
    records += [trace.resources[r.id] for r in trace.scenario.resources]
    files: list[_CsvFile] = [(p, record, columns) for (p, columns), record
                             in zip(csv_files(trace.scenario, outdir), records)]
    if split and len(files) > 1 and hasattr(os, "fork"):
        mine, theirs = _split_shares(files)
        with forked(lambda: _write_csvs(theirs, n_rounds), "trace export child"):
            _write_csvs(mine, n_rounds)
    else:
        _write_csvs(files, n_rounds)
    return [p for p, _, _ in files]
