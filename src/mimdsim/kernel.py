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
``allocate_loss``, except where nothing passes and every cohort is lost
whole under either policy; (3) cohorts reaching their destination are
recorded and fed back to the source.

Each cohort is stored once, in ``rcvd[s + total_delay]`` from its send round
``s`` on, and cut there in place by each loss event, so a cohort crossing
zero-latency hops sees their pooled losses in route order and arrives with no
copy. The per-round arrays are slices of one anonymous shared mapping, so a
process forked during the run (``CsvStream``) reads each row as it is
written. Runs are single-threaded and bit-for-bit deterministic; traces are
immutable once returned.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections.abc import Callable, Iterator
from contextlib import ExitStack, suppress
from pathlib import Path
from typing import BinaryIO, NamedTuple

from . import protocol
from ._fork import discard, forked, staged
from .model import (
    AdversarialFairLoss,
    Scenario,
    crossings,
    require_valid,
    transit_order,
)

CONSERVATION_RTOL = 1e-9
_NORMAL_MIN = sys.float_info.min
_QUANTUM = math.ulp(0.0)   # the spacing of the subnormal floats


class KernelError(RuntimeError):
    """Internal conservation failure: a kernel bug, not bad input."""


class ResourceLedger(NamedTuple):
    """Dense per-round accounting for one resource."""

    resource_id: str
    into: memoryview
    lost: memoryview
    cap: array


class PathRecord(NamedTuple):
    """Dense per-round accounting for one path (zeros outside its windows)."""

    path_id: str
    sent: memoryview
    rcvd: memoryview
    lost: memoryview
    lsr: memoryview


class RunTrace:
    """Complete record of one simulation run."""

    def __init__(self, scenario: Scenario, horizon: int, paths: dict[str, PathRecord],
                 resources: dict[str, ResourceLedger]) -> None:
        self.scenario, self.horizon = scenario, horizon
        self.paths, self.resources = paths, resources
        # the CsvStream writing this trace's CSVs, from its first round
        # until export_trace finishes it
        self.stream: CsvStream | None = None


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
    # an active cohort has lost nothing yet, and its size is at least its cap > 0
    while need > tol and active:
        total_w = math.fsum(sizes[j] for j in active)
        # need * size leaves the normal floats past about 1e154 and below
        # about 1e-154; only there divide first
        shares = [part / total_w if _NORMAL_MIN <= (part := need * sizes[j]) < math.inf
                  else need * (sizes[j] / total_w) for j in active]
        clamped = [j for j, share in zip(active, shares) if share >= caps[j]]
        if clamped:
            for j in clamped:
                need -= caps[j]
                losses[j] = caps[j]
                active.remove(j)
            continue
        for j, share in zip(active, shares):
            losses[j] = share
        break
    return losses


def _shared_zeros(count: int, n_rounds: int) -> Iterator[memoryview]:
    """``count`` zeroed float arrays of ``n_rounds``, in one anonymous shared
    mapping."""
    import mmap

    whole = memoryview(mmap.mmap(-1, 8 * max(1, count * n_rounds))).cast("d")
    return (whole[i * n_rounds:(i + 1) * n_rounds] for i in range(count))


def _at(path_id: str, t: int, rule: Callable[..., float], *args: float) -> float:
    """``rule(*args)``, with ``path '<path_id>' round <t>: `` before the
    message of any ``ProtocolError`` it raises."""
    try:
        return rule(*args)
    except protocol.ProtocolError as exc:
        raise protocol.ProtocolError(f"path {path_id!r} round {t}: {exc}") from exc


def run(scenario: Scenario,
        on_round: Callable[[RunTrace, int], None] | None = None) -> RunTrace:
    """Execute the scenario through its horizon and return the full trace.

    Deterministic given the scenario. ``on_round(trace, t)``, if given, is
    called once after each round ``t`` with the trace being filled, and
    rows ``0..t`` are final when it is called: round ``t`` writes no row
    before ``t``, since a cohort is cut only while it is in flight, in the
    row it arrives in. The end-of-run checks come after the last call, so
    a hook must not take that call for a run's success. A run of no round
    (no connection) makes no call.
    """
    require_valid(scenario)
    conns = scenario.connections
    ids = [c.id for c in conns]
    horizon = scenario.horizon
    n_rounds = horizon + 1

    zeros = _shared_zeros(4 * len(conns) + 2 * len(scenario.resources), n_rounds)
    ledgers = [
        ResourceLedger(r.id, next(zeros), next(zeros),
                       array("d", r.capacity.values_until(horizon)))
        for r in scenario.resources
    ]
    records = [PathRecord(c.id, next(zeros), next(zeros), next(zeros), next(zeros))
               for c in conns]
    # inflight[k][s]: what is left of path k's cohort sent at round s, kept
    # from the send on in rcvd[s + total_delay], where it arrives
    inflight = [rec.rcvd[c.total_delay:] for rec, c in zip(records, conns)]

    # The static schedule: each resource in same-round precedence order with
    # its arrays and members (path, in-flight view, pre-delay, first and last
    # transit round).
    members: list[list[tuple[int, memoryview, int, int, int]]] = [[] for _ in ledgers]
    for k, i, pre, first, last in crossings(scenario):
        members[i].append((k, inflight[k], pre, first, last))
    schedule = [(ledgers[i].resource_id, ledgers[i].into, ledgers[i].lost, ledgers[i].cap,
                 members[i]) for i in transit_order(scenario) if members[i]]
    # Per path, built once: the send window, the last warm-up round, the
    # feedback lag and the rule's constants (1 + alpha, evaluated as the
    # rule does); and the arrival window, shifted by the total delay.
    emitters = [(c, c.start, c.end, c.start + c.total_delay, 1 + c.total_delay, c.start_rate,
                 1.0 + c.alpha, c.beta, rec.sent, rec.lsr, view)
                for c, rec, view in zip(conns, records, inflight)]
    arrivals = [(c, c.start + c.total_delay, c.end + c.total_delay, c.total_delay,
                 rec.sent, rec.rcvd, rec.lost, rec.lsr)
                for c, rec in zip(conns, records)]
    inf = math.inf

    policy = scenario.loss_policy
    adversarial = isinstance(policy, AdversarialFairLoss)
    target_k = ids.index(policy.target_path) if adversarial else -1
    budget_scale = 1.0 + scenario.epsilon
    frac_lost = [0.0] * len(conns)   # running sum of per-hop loss / cohort size
    frac_seen = [0.0] * len(conns)   # running sum of traversed resource loss ratios
    trace = RunTrace(
        scenario=scenario,
        horizon=horizon,
        paths=dict(zip(ids, records)),
        resources=dict(zip((r.id for r in scenario.resources), ledgers)),
    )

    # The rate rule and the loss fraction are computed inline, with
    # protocol's arithmetic; protocol is called only for a value outside its
    # domain, so its checks raise (or clamp) exactly as a call would.
    for t in range(n_rounds):
        # Sources emit, using only feedback with timestamp <= t-1.
        for c, start, end, warm_end, lag, start_rate, grow, beta, sent, lsr, view in emitters:
            if not start <= t <= end:
                continue
            if t <= warm_end:
                rate = start_rate
            else:
                prev, fed_back = sent[t - lag], lsr[t - 1]
                rate = prev * (grow - beta * fed_back)
                if not (0.0 < rate < inf and 0.0 <= fed_back <= 1.0):
                    rate = _at(c.id, t, protocol.update_rate, prev, fed_back, c.alpha, beta)
            sent[t] = rate
            view[t] = rate

        # Each scheduled resource pools its active cohorts and discards the excess.
        for resource_id, into_at, lost_at, cap, group in schedule:
            cohorts = [(k, view, t - pre) for k, view, pre, lo, hi in group if lo <= t <= hi]
            if not cohorts:
                continue
            sizes = [view[s] for _, view, s in cohorts]
            try:
                into = math.fsum(sizes)
            except OverflowError:
                raise protocol.ProtocolError(
                    f"resource {resource_id!r} round {t}: load overflowed to inf") from None
            into_at[t] = into
            excess = into - cap[t]
            if not (excess > 0 and into > 0):
                continue
            low = min(sizes)
            if low < 0:
                k = cohorts[sizes.index(low)][0]
                raise KernelError(f"negative contribution {low} from {ids[k]!r}")
            rho = excess / into
            # where nothing passes, every cohort is lost whole under either policy
            if adversarial and excess < into:
                # the most each path may lose here while its cumulative loss
                # fraction stays within (1 + epsilon) times the loss ratios it
                # traversed, this event included
                max_loss = [max(0.0, (budget_scale * (frac_seen[k] + rho) - frac_lost[k])
                                * records[k].sent[s])
                            for k, _, s in cohorts]
                target = next((j for j, (k, _, _) in enumerate(cohorts) if k == target_k), None)
                losses = allocate_loss(sizes, into, excess, target, max_loss)
            else:
                losses = [c * rho for c in sizes]
            lost_total = math.fsum(losses)
            # each share may round away up to half a quantum of the excess
            if abs(lost_total - excess) > CONSERVATION_RTOL * into + _QUANTUM * len(sizes):
                raise KernelError(
                    f"loss event at {resource_id!r} round {t} dropped {lost_total}, "
                    f"excess was {excess}"
                )
            lost_at[t] = lost_total
            ratio = lost_total / into
            for (k, view, s), c, loss in zip(cohorts, sizes, losses):
                if loss > 0.0:
                    view[s] = max(0.0, c - loss)
                if adversarial:
                    frac_lost[k] += loss / records[k].sent[s]
                    frac_seen[k] += ratio

        # Arrivals: what is left in rcvd[t] is received; record and feed back.
        for c, first, last, delay, sent, rcvd, lost, lsr in arrivals:
            if not first <= t <= last:
                continue
            out, got = sent[t - delay], rcvd[t]
            lost[t] = gone = out - got
            fraction = gone / out
            if got < 0.0 or not 0.0 <= fraction <= 1.0:
                fraction = _at(c.id, t, protocol.loss_fraction, out, got)
            lsr[t] = fraction
        if on_round is not None:
            on_round(trace, t)

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
# `round,into,lost,cap`, column order fixed, written a chunk of rows at a
# time (``_chunk_rows``). A chunk holds at most _CSV_CHUNK_VALUES values over
# all of a run's files (one row, if a row holds more), so the text of one
# file's chunk is bounded by that budget, not by the horizon, and a wide,
# short trace is cut into as many chunks as a narrow, long one of as many
# values, which lets it stream too. The export is almost all float repr, so
# a column that holds one value over a chunk (equal bytes, so 0.0 and -0.0
# are two values) has it formatted once, into the chunk's row template: the
# bytes are those of a repr per row. A finished trace is written in the
# calling process; a CsvStream writes it behind the kernel instead, in one
# forked child. The kernel's arrays live in one anonymous shared mapping, so
# the child reads every row the kernel stores after the fork, and row t is
# final once round t has ended. Only round counts cross the pipe, and its
# syscalls order the child's reads after the kernel's stores. The child
# writes the files into the output directory's stage (``_fork.staged``).
# ---------------------------------------------------------------------------

_CSV_CHUNK_VALUES = 1 << 16
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


def _csv_files(trace: RunTrace, outdir: Path) -> list[_CsvFile]:
    records = [trace.paths[c.id] for c in trace.scenario.connections]
    records += [trace.resources[r.id] for r in trace.scenario.resources]
    return [(p, record, columns) for (p, columns), record
            in zip(csv_files(trace.scenario, outdir), records)]


def _chunk_rows(files: list[_CsvFile]) -> int:
    """Rows per export chunk of ``files``: as many as hold _CSV_CHUNK_VALUES
    values over all their value columns, and at least one."""
    width = sum(len(columns) for _, _, columns in files)
    return max(1, _CSV_CHUNK_VALUES // max(1, width))


def _csv_header(columns: tuple[str, ...]) -> str:
    return ",".join(("round",) + columns) + "\n"


def _csv_rows(record: PathRecord | ResourceLedger, columns: tuple[str, ...],
              lo: int, hi: int) -> str:
    """The CSV text of rows ``lo..hi-1`` of one record."""
    fields, arrays = ["%r"], []
    for name in columns:
        values = getattr(record, name)[lo:hi]
        raw = values.tobytes()
        if raw[8:] == raw[:-8]:   # one value, bit for bit: format it once
            fields.append(repr(values[0]))   # a float's repr holds no "%"
        else:
            fields.append("%r")
            arrays.append(values)
    row = ",".join(fields) + "\n"
    return "".join([row % r for r in zip(range(lo, hi), *arrays)])


def _append_rows(files: list[_CsvFile], lo: int, hi: int) -> None:
    """Append rows ``lo..hi-1`` to every file, which holds rows ``0..lo-1``;
    at ``lo == 0``, create it with the header."""
    for p, record, columns in files:
        with p.open("a" if lo else "w") as f:
            if not lo:
                f.write(_csv_header(columns))
            if lo < hi:
                f.write(_csv_rows(record, columns, lo, hi))


class CsvStream:
    """Writes a run's CSVs behind its kernel, in one forked child.

    Enter it, pass it to ``run`` as ``on_round`` inside the block, and end
    the block with ``export_trace``, which finishes it. Entering it discards
    what a killed run left in the output directory's stage. After round 0
    it forks the child through ``_fork.forked``, which owns the stage;
    rows ``0..t`` are final when ``run`` calls it for round ``t``, so each
    time a chunk's rows (``_chunk_rows``) are final, and at the last round,
    it sends the child the count of final rows, and the child appends them
    to every file in the stage. Since a chunk is sized by values, a wide
    trace streams even when its horizon is short. ``export_trace`` ends
    the ``forked`` block; if this block raises first (a failed end-of-run
    check included), the child is killed. A run of no round forks
    nothing, and ``export_trace`` writes its headers here.
    """

    def __init__(self, outdir: str | Path) -> None:
        self.outdir = Path(outdir)
        self._stage = staged(self.outdir)
        self._files: list[_CsvFile] = []       # in the stage, once forked
        self._chunk = 1                        # rows per chunk, once forked
        self._rows_to: BinaryIO | None = None  # the pipe's write end, once forked
        self._child = ExitStack()

    def __enter__(self) -> CsvStream:
        discard(self._stage)
        return self

    def __exit__(self, *exc_info) -> None:
        self._child.__exit__(*exc_info)   # kills the child if the block raised

    def __call__(self, trace: RunTrace, t: int) -> None:
        if self._rows_to is None:
            self._fork(trace)
        if (t + 1) % self._chunk == 0 or t == trace.horizon:
            # a child that died early is reported once it is reaped
            with suppress(BrokenPipeError):
                self._rows_to.write((t + 1).to_bytes(8, "little"))

    def _fork(self, trace: RunTrace) -> None:
        trace.stream = self
        self._files = _csv_files(trace, self._stage)
        self._chunk = _chunk_rows(self._files)
        read_fd, write_fd = os.pipe()
        try:
            self._child.enter_context(forked(
                lambda: self._write(trace.horizon + 1, read_fd, write_fd),
                "trace export child", self._stage))
        except BaseException:
            os.close(write_fd)
            raise
        finally:
            os.close(read_fd)
        # closed before the reap
        self._rows_to = self._child.enter_context(open(write_fd, "wb", buffering=0))

    def _write(self, n_rounds: int, read_fd: int, write_fd: int) -> None:
        """The child: append each chunk of rows to the files in the stage
        once it is final."""
        os.close(write_fd)
        self._stage.mkdir(parents=True, exist_ok=True)
        done = 0
        with open(read_fd, "rb") as published:
            while done < n_rounds:
                count = published.read(8)
                if len(count) < 8:
                    raise EOFError(f"rows {done} to {n_rounds - 1} were never published")
                final = int.from_bytes(count, "little")
                _append_rows(self._files, done, final)
                done = final

    def finish(self) -> list[Path]:
        """Close the pipe, then leave the ``forked`` block; returns the
        final paths."""
        self._child.close()
        return [self.outdir / p.name for p, _, _ in self._files]


def export_trace(trace: RunTrace, outdir: str | Path) -> list[Path]:
    """Write all per-path and per-resource CSVs (``csv_files``); returns the
    paths written, in that order, once every file is complete. A trace of
    no round gets each file's header alone.

    A finished trace is written here. A trace that a ``CsvStream`` is
    writing is finished by it (``CsvStream.finish``) into the directory it
    was given, and a child that failed raises ``OSError`` naming its
    exception, leaving no CSV.
    """
    stream, trace.stream = trace.stream, None
    if stream is not None:
        return stream.finish()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = _csv_files(trace, outdir)
    n_rounds, chunk = trace.horizon + 1, _chunk_rows(files)
    for lo in range(0, max(n_rounds, 1), chunk):
        _append_rows(files, lo, min(lo + chunk, n_rounds))
    return [p for p, _, _ in files]
