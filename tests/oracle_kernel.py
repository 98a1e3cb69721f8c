"""The kernel as it was before the static-schedule rewrite, kept as a test oracle.

This is the cohort-queue engine: ``PathState`` histories with sequencing
guards, ``Cohort`` objects moving through nested ``pending``/``arrivals``
queues, an O(R^2) topological sort, per-event ``LossEvent`` retention and
the old ``allocate_loss`` with its budget-overflow branch. Its code is kept
as it was, except that the adversarial split clamps the other paths in the
order of ``contributions``, which ``run`` fills in declaration order, as the
kernel clamps in position order, and that its topological sort builds
its same-round edges from ``model.crossings`` itself, not from the
kernel's ``transit_order``; so ``mimdsim.kernel.run`` can be checked
against it differentially. Its traces export with
``conftest.path_csv``/``resource_csv``.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field

from mimdsim.kernel import CONSERVATION_RTOL, KernelError
from mimdsim.model import (
    AdversarialFairLoss,
    ConnectionSpec,
    LossPolicy,
    ProportionalLoss,
    Scenario,
    crossings,
    require_valid,
)
from mimdsim.protocol import LSR_CLAMP_TOLERANCE, ProtocolError

# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


@dataclass
class PathState:
    """Per-connection view of what the source has sent and observed.

    Histories are dense per-round arrays; a value is *defined* only for the
    rounds the sequencing counters have reached, and reads outside that
    domain raise ProtocolError.
    """

    conn: ConnectionSpec
    _sent: array
    _lsr: array
    _last_sent: int = field(default=0)
    _last_feedback: int = field(default=0)

    @classmethod
    def for_run(cls, conn: ConnectionSpec, horizon: int | None = None) -> "PathState":
        if horizon is None:
            horizon = conn.end + conn.total_delay
        zeros = bytes(8 * (horizon + 1))
        return cls(
            conn=conn,
            _sent=array("d", zeros),
            _lsr=array("d", zeros),
            _last_sent=conn.start - 1,
            _last_feedback=conn.start + conn.total_delay - 1,
        )

    def sent_at(self, t: int) -> float:
        if not (self.conn.start <= t <= self._last_sent):
            raise ProtocolError(f"{self.conn.id}: sent({t}) is not defined")
        return self._sent[t]

    def lsr_at(self, t: int) -> float:
        if not (self.conn.start + self.conn.total_delay <= t <= self._last_feedback):
            raise ProtocolError(f"{self.conn.id}: lsr({t}) is not defined")
        return self._lsr[t]

    def record_sent(self, t: int, rate: float) -> None:
        if t != self._last_sent + 1 or not (self.conn.start <= t <= self.conn.end):
            raise ProtocolError(f"{self.conn.id}: send recorded out of sequence at {t}")
        if not rate > 0:
            raise ProtocolError(f"{self.conn.id}: non-positive send rate {rate} at {t}")
        self._sent[t] = rate
        self._last_sent = t


def initial_rate(state: PathState, t: int) -> float:
    """Warm-up rate: the configured start rate, valid until feedback exists."""
    conn = state.conn
    if not (conn.start <= t <= conn.start + conn.total_delay):
        raise ProtocolError(f"{conn.id}: round {t} is outside the warm-up window")
    return conn.start_rate


def update_rate(state: PathState, t: int) -> float:
    """Multiplicative update from the rate one feedback cycle ago."""
    conn = state.conn
    if not (conn.start + 1 + conn.total_delay <= t <= conn.end):
        raise ProtocolError(f"{conn.id}: round {t} is outside the update window")
    prev = state.sent_at(t - 1 - conn.total_delay)
    lsr = state.lsr_at(t - 1)
    if not 0.0 <= lsr <= 1.0:
        raise ProtocolError(f"{conn.id}: loss fraction {lsr} outside [0,1] at {t - 1}")
    return prev * (1.0 + conn.alpha - conn.beta * lsr)


def record_feedback(state: PathState, t: int, rcvd: float) -> float:
    """Record the observed loss fraction for the cohort arriving at round t.

    Tiny negative fractions from float residue are clamped to 0; anything
    beyond LSR_CLAMP_TOLERANCE means conservation was broken upstream.
    """
    conn = state.conn
    if t != state._last_feedback + 1 or t > conn.end + conn.total_delay:
        raise ProtocolError(f"{conn.id}: feedback recorded out of sequence at {t}")
    sent = state.sent_at(t - conn.total_delay)
    if rcvd < 0:
        raise ProtocolError(f"{conn.id}: negative rcvd {rcvd} at {t}")
    if not sent > 0:
        raise ProtocolError(f"{conn.id}: feedback against non-positive sent at {t}")
    lsr = (sent - rcvd) / sent
    if lsr < 0.0:
        if lsr < -LSR_CLAMP_TOLERANCE:
            raise ProtocolError(
                f"{conn.id}: rcvd {rcvd} exceeds sent {sent} at {t} beyond tolerance"
            )
        lsr = 0.0
    elif lsr > 1.0:
        lsr = 1.0
    state._lsr[t] = lsr
    state._last_feedback = t
    return lsr


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


@dataclass
class LossEvent:
    """Per-path breakdown of one congested resource-round."""

    contributions: dict[str, float]
    losses: dict[str, float]


@dataclass
class ResourceLedger:
    """Dense per-round accounting for one resource."""

    resource_id: str
    into: array
    lost: array
    cap: array
    events: dict[int, LossEvent] = field(default_factory=dict)


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


class Cohort:
    """In-flight ledger entry: what survives of one (path, send round) so far."""

    __slots__ = ("conn", "send_round", "remaining", "next_hop")

    def __init__(self, conn: int, send_round: int, remaining: float):
        self.conn = conn
        self.send_round = send_round
        self.remaining = remaining
        self.next_hop = 0


@dataclass
class AdversarialContext:
    """Per-event inputs for the budget-capped adversarial allocator.

    ``max_loss[p]`` is the largest absolute loss path p may absorb in this
    event without its cumulative loss fraction exceeding (1 + epsilon) times
    the per-resource loss ratios it has traversed (this event included).
    """

    target: str
    max_loss: dict[str, float]


def _share(need: float, contribution: float, total: float) -> float:
    """need * contribution / total, dividing first where the product would
    leave the normal floats, as the kernel does."""
    part = need * contribution
    if sys.float_info.min <= part < math.inf:
        return part / total
    return need * (contribution / total)


def allocate_loss(
    contributions: dict[str, float],
    cap: float,
    policy: LossPolicy,
    ctx: AdversarialContext | None = None,
) -> dict[str, float]:
    """Split the excess over capacity among contributors.

    Returns per-path losses with 0 <= loss_p <= contribution_p summing to
    max(0, sum(contributions) - cap). Proportional: every path loses the
    same fraction. Adversarial: the target absorbs as much as its fairness
    budget allows, the rest is spread proportionally over the others within
    their own budgets. Where nothing passes, every path loses all it put in
    under either policy.
    """
    for pid, c in contributions.items():
        if c < 0:
            raise KernelError(f"negative contribution {c} from {pid!r}")
    losses = {pid: 0.0 for pid in contributions}
    into = math.fsum(contributions.values())
    excess = into - cap
    if excess <= 0 or into <= 0:
        return losses

    # where nothing passes, every path loses its whole contribution
    if isinstance(policy, ProportionalLoss) or excess >= into:
        ratio = excess / into
        for pid, c in contributions.items():
            losses[pid] = c * ratio
        return losses

    if not isinstance(policy, AdversarialFairLoss):
        raise KernelError(f"unknown loss policy {policy!r}")

    def budget(pid: str) -> float:
        if ctx is None:
            return math.inf
        return ctx.max_loss.get(pid, math.inf)

    need = excess
    target = policy.target_path
    if target in contributions:
        take = min(contributions[target], budget(target), need)
        if take > 0:
            losses[target] = take
            need -= take

    others = [pid for pid in contributions if pid != target]
    caps = {pid: min(contributions[pid], budget(pid)) for pid in others}
    active = [pid for pid in others if caps[pid] > 0]
    tol = 1e-15 * into
    while need > tol and active:
        total_w = math.fsum(contributions[pid] for pid in active)
        if total_w <= 0:
            break
        clamped = []
        for pid in active:
            share = _share(need, contributions[pid], total_w)
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
            share = _share(need, contributions[pid], total_w)
            losses[pid] += share
            assigned += share
        need -= assigned
        break
    if need > 1e-9 * max(into, 1.0):
        # Budgets cannot absorb the excess (possible only for hand-built
        # contexts); overflow onto contributions so loss stays conserved.
        for pid in contributions:
            room = contributions[pid] - losses[pid]
            take = min(room, need)
            if take > 0:
                losses[pid] += take
                need -= take
            if need <= tol:
                break
    return losses


def _topo_order(scenario: Scenario) -> list[int]:
    """Resource indices ordered so every same-round hop pair is respected."""
    ids = [r.id for r in scenario.resources]
    # consecutive hops of one path with equal pre-delay share a round
    table = crossings(scenario)
    edges = {(a[1], b[1]) for a, b in zip(table, table[1:]) if a[0] == b[0] and a[2] == b[2]}
    succ: dict[int, list[int]] = {i: [] for i in range(len(ids))}
    indeg = [0] * len(ids)
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    order: list[int] = []
    remaining = list(range(len(ids)))
    while remaining:
        pick = next(i for i in remaining if indeg[i] == 0)
        remaining.remove(pick)
        order.append(pick)
        for j in succ[pick]:
            indeg[j] -= 1
    return order


def run(scenario: Scenario, *, keep_loss_events: bool = True) -> RunTrace:
    """Execute the scenario through its horizon and return the full trace.

    Deterministic given the scenario. Set
    ``keep_loss_events=False`` to skip storing per-event path breakdowns on
    very long runs; aggregate ledgers are always kept.
    """
    require_valid(scenario)
    conns = scenario.connections
    horizon = scenario.horizon
    n_rounds = horizon + 1

    res_ids = [r.id for r in scenario.resources]
    res_index = {rid: i for i, rid in enumerate(res_ids)}
    caps = [array("d", r.capacity.values_until(horizon)) for r in scenario.resources]
    topo = _topo_order(scenario)

    ledgers = {
        rid: ResourceLedger(
            resource_id=rid,
            into=array("d", bytes(8 * n_rounds)),
            lost=array("d", bytes(8 * n_rounds)),
            cap=caps[i],
        )
        for i, rid in enumerate(res_ids)
    }
    records = {
        c.id: PathRecord(
            path_id=c.id,
            sent=array("d", bytes(8 * n_rounds)),
            rcvd=array("d", bytes(8 * n_rounds)),
            lost=array("d", bytes(8 * n_rounds)),
            lsr=array("d", bytes(8 * n_rounds)),
        )
        for c in conns
    }
    states = [PathState.for_run(c, horizon) for c in conns]

    route_idx = [[res_index[rid] for rid in c.route] for c in conns]
    offsets = [[c.pre_delay_at(i) for i in range(len(c.route))] for c in conns]

    policy = scenario.loss_policy
    adversarial = isinstance(policy, AdversarialFairLoss)
    budget_scale = 1.0 + scenario.epsilon
    frac_lost = {c.id: 0.0 for c in conns}   # running sum of per-hop loss / cohort size
    frac_seen = {c.id: 0.0 for c in conns}   # running sum of traversed resource loss ratios

    pending: dict[int, dict[int, list[Cohort]]] = {}
    arrivals: dict[int, list[Cohort]] = {}

    for t in range(n_rounds):
        # Sources emit, using only feedback with timestamp <= t-1.
        for k, c in enumerate(conns):
            if not (c.start <= t <= c.end):
                continue
            if t <= c.start + c.total_delay:
                rate = initial_rate(states[k], t)
            else:
                rate = update_rate(states[k], t)
            states[k].record_sent(t, rate)
            records[c.id].sent[t] = rate
            cohort = Cohort(k, t, rate)
            if route_idx[k]:
                transit = t + offsets[k][0]
                pending.setdefault(transit, {}).setdefault(route_idx[k][0], []).append(cohort)
            else:
                arrivals.setdefault(t + c.total_delay, []).append(cohort)

        # Resources pool arrivals and discard the excess.
        current = pending.pop(t, None)
        if current:
            for ri in topo:
                cohorts = current.pop(ri, None)
                if not cohorts:
                    continue
                contributions: dict[str, float] = {}
                by_path: dict[str, Cohort] = {}
                # in declaration order, the kernel's position order
                for co in sorted(cohorts, key=lambda co: co.conn):
                    pid = conns[co.conn].id
                    if pid in contributions:
                        raise KernelError(f"two cohorts of {pid!r} at {res_ids[ri]!r} round {t}")
                    contributions[pid] = co.remaining
                    by_path[pid] = co
                into = math.fsum(contributions.values())
                cap = caps[ri][t]
                ledger = ledgers[res_ids[ri]]
                ledger.into[t] = into
                excess = into - cap
                if excess > 0 and into > 0:
                    ctx = None
                    if adversarial:
                        rho = excess / into
                        max_loss = {}
                        for pid, co in by_path.items():
                            size = records[pid].sent[co.send_round]
                            room = budget_scale * (frac_seen[pid] + rho) - frac_lost[pid]
                            max_loss[pid] = max(0.0, room * size)
                        ctx = AdversarialContext(policy.target_path, max_loss)
                    losses = allocate_loss(contributions, cap, policy, ctx)
                    lost_total = math.fsum(losses.values())
                    if abs(lost_total - excess) > CONSERVATION_RTOL * max(into, 1.0):
                        raise KernelError(
                            f"loss event at {res_ids[ri]!r} round {t} dropped {lost_total}, "
                            f"excess was {excess}"
                        )
                    ledger.lost[t] = lost_total
                    if keep_loss_events:
                        ledger.events[t] = LossEvent(dict(contributions), losses)
                    ratio = lost_total / into
                    for pid, co in by_path.items():
                        loss = losses[pid]
                        if loss > 0.0:
                            co.remaining = max(0.0, co.remaining - loss)
                        frac_lost[pid] += loss / records[pid].sent[co.send_round]
                        frac_seen[pid] += ratio
                for co in cohorts:
                    k = co.conn
                    co.next_hop += 1
                    if co.next_hop == len(route_idx[k]):
                        arrive = co.send_round + conns[k].total_delay
                        arrivals.setdefault(arrive, []).append(co)
                    else:
                        transit = co.send_round + offsets[k][co.next_hop]
                        nxt = route_idx[k][co.next_hop]
                        if transit == t:
                            current.setdefault(nxt, []).append(co)
                        else:
                            pending.setdefault(transit, {}).setdefault(nxt, []).append(co)
            if current:
                raise KernelError(f"round {t}: cohorts left behind the resource sweep")

        # Arrivals: record and feed back.
        for co in arrivals.pop(t, []):
            c = conns[co.conn]
            rec = records[c.id]
            rec.rcvd[t] = co.remaining
            rec.lost[t] = rec.sent[co.send_round] - co.remaining
            rec.lsr[t] = record_feedback(states[co.conn], t, co.remaining)

    if pending or arrivals:
        raise KernelError("cohorts still in flight past the horizon")

    trace = RunTrace(scenario=scenario, horizon=horizon, paths=records, resources=ledgers)
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
