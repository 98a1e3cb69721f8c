"""Domain model: resources, connections, scenarios, validation, JSON schema.

Everything here is immutable after construction and safe to share across
concurrent simulation runs. Quantities are real-valued throughout (fluid
packet model): there is no integrality of sends, receives, or losses.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field


ID_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")


class ScenarioParseError(ValueError):
    """A scenario document could not be decoded into model types.

    ``location`` names the offending field (dotted path) or the line/column
    for JSON syntax errors.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ScenarioValidationError(ValueError):
    """Raised by consumers that require a valid scenario."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"invalid scenario: {lines}")


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by :func:`validate` (data, not a failure)."""

    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


@dataclass(frozen=True)
class CapacityTimeline:
    """Piecewise-constant per-round capacity.

    ``steps`` is a tuple of ``(from_round, value)`` pairs with strictly
    increasing rounds starting at 0; the last value persists for all later
    rounds (the default tail). ``math.inf`` means unconstrained.
    """

    steps: tuple[tuple[int, float], ...]

    def at(self, t: int) -> float:
        rounds = [s[0] for s in self.steps]
        i = bisect_right(rounds, t) - 1
        if i < 0:
            return self.steps[0][1]
        return self.steps[i][1]

    def values_until(self, horizon: int) -> list[float]:
        """Dense capacity values for rounds 0..horizon inclusive."""
        out = []
        i = 0
        cur = self.steps[0][1] if self.steps else math.inf
        for t in range(horizon + 1):
            while i < len(self.steps) and self.steps[i][0] <= t:
                cur = self.steps[i][1]
                i += 1
            out.append(cur)
        return out

    @staticmethod
    def constant(value: float) -> CapacityTimeline:
        return CapacityTimeline(steps=((0, value),))


@dataclass(frozen=True)
class ResourceSpec:
    """A capacity-constrained network element (link, switch, router)."""

    id: str
    capacity: CapacityTimeline


@dataclass(frozen=True)
class RoundWindow:
    """A contiguous inclusive range of rounds."""

    start: int
    end: int

    def __len__(self) -> int:
        return max(0, self.end - self.start + 1)

    def __contains__(self, t: int) -> bool:
        return self.start <= t <= self.end

    def rounds(self) -> range:
        return range(self.start, self.end + 1)


@dataclass(frozen=True)
class ConnectionSpec:
    """One end-to-end connection pinned to a fixed route.

    ``hop_delays[i]`` is the number of rounds a packet still needs to reach
    the destination after transiting ``route[i]``; ``total_delay`` is the
    full source-to-destination delay. A packet sent at round ``s`` therefore
    transits ``route[i]`` at round ``s + total_delay - hop_delays[i]`` and
    arrives at ``s + total_delay``.
    """

    id: str
    route: tuple[str, ...]
    value: float
    start: int
    end: int
    total_delay: int
    hop_delays: tuple[int, ...]
    start_rate: float
    alpha: float
    beta: float

    @property
    def duration(self) -> int:
        return self.end - self.start + 1

    def active_window(self) -> RoundWindow:
        return RoundWindow(self.start, self.end)

    def shifted_window(self) -> RoundWindow:
        """Arrival-side window: the active window shifted by the total delay."""
        return RoundWindow(self.start + self.total_delay, self.end + self.total_delay)

    def pre_delay_at(self, hop: int) -> int:
        """Rounds from the source to ``route[hop]``."""
        return self.total_delay - self.hop_delays[hop]


def pre_delay(conn: ConnectionSpec, resource_id: str) -> int:
    """Rounds a packet travels before transiting ``resource_id`` on this route."""
    try:
        hop = conn.route.index(resource_id)
    except ValueError:
        raise KeyError(f"resource {resource_id!r} is not on the route of {conn.id!r}") from None
    return conn.pre_delay_at(hop)


@dataclass(frozen=True)
class ProportionalLoss:
    """Each contributor loses the same fraction of what it put in."""

    kind: str = field(default="proportional", init=False)


@dataclass(frozen=True)
class AdversarialFairLoss:
    """Greedy loss shifting toward one path, capped by the fairness budget.

    The allocator biases discard toward ``target_path`` only while the
    path's cumulative loss fraction stays within (1 + epsilon) times the sum
    of per-resource loss ratios it traversed; ``seed`` drives tie-breaking.
    """

    seed: int
    target_path: str
    kind: str = field(default="adversarial_fair", init=False)


LossPolicy = ProportionalLoss | AdversarialFairLoss


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one simulation input."""

    resources: tuple[ResourceSpec, ...]
    connections: tuple[ConnectionSpec, ...]
    epsilon: float
    loss_policy: LossPolicy = ProportionalLoss()

    @property
    def horizon(self) -> int:
        """Last round of interest: every in-flight cohort resolves by here."""
        if not self.connections:
            return -1
        return max(c.end + c.total_delay for c in self.connections)

    def resource(self, rid: str) -> ResourceSpec:
        for r in self.resources:
            if r.id == rid:
                return r
        raise KeyError(rid)

    def connection(self, cid: str) -> ConnectionSpec:
        for c in self.connections:
            if c.id == cid:
                return c
        raise KeyError(cid)


def intra_round_edges(scenario: Scenario) -> set[tuple[str, str]]:
    """Directed resource pairs transited back-to-back within a single round.

    Consecutive hops with equal pre-delay are crossed in the same round, in
    route order. The union of these pairs over all connections must be
    acyclic for single-pass round semantics to exist.
    """
    edges: set[tuple[str, str]] = set()
    for c in scenario.connections:
        for i in range(len(c.route) - 1):
            if c.pre_delay_at(i) == c.pre_delay_at(i + 1):
                edges.add((c.route[i], c.route[i + 1]))
    return edges


def topo_order(nodes: list[str], edges: set[tuple[str, str]]) -> list[int] | None:
    """Indices of ``nodes`` ordered so every edge ``(a, b)`` puts ``a`` before ``b``.

    Kahn's pass, always taking the lowest declared index among the ready
    nodes, so the order is deterministic. ``None`` means the edges form a cycle.
    """
    index = {n: i for i, n in enumerate(nodes)}
    succ: list[list[int]] = [[] for _ in nodes]
    indeg = [0] * len(nodes)
    for a, b in edges:
        succ[index[a]].append(index[b])
        indeg[index[b]] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    return order if len(order) == len(nodes) else None


def validate(scenario: Scenario) -> list[Violation]:
    """Collect every invariant violation in the scenario (empty when valid).

    Side-effect free and idempotent; violations are data, not exceptions.
    """
    out: list[Violation] = []
    seen_res: set[str] = set()
    for r in scenario.resources:
        where = f"resource {r.id!r}"
        if not isinstance(r.id, str) or not ID_PATTERN.match(r.id or ""):
            out.append(Violation(where, "id must match [A-Za-z0-9_.-]+"))
        if r.id in seen_res:
            out.append(Violation(where, "duplicate resource id"))
        seen_res.add(r.id)
        if not r.capacity.steps:
            out.append(Violation(where, "capacity timeline needs at least one step"))
            continue
        if r.capacity.steps[0][0] != 0:
            out.append(Violation(where, "capacity timeline must start at round 0"))
        prev = None
        for from_round, value in r.capacity.steps:
            if prev is not None and from_round <= prev:
                out.append(Violation(where, "capacity step rounds must be strictly increasing"))
            prev = from_round
            if math.isnan(value) or value < 0:
                out.append(Violation(where, f"capacity must be >= 0, got {value}"))

    seen_conn: set[str] = set()
    for c in scenario.connections:
        where = f"connection {c.id!r}"
        if not isinstance(c.id, str) or not ID_PATTERN.match(c.id or ""):
            out.append(Violation(where, "id must match [A-Za-z0-9_.-]+"))
        if c.id in seen_conn:
            out.append(Violation(where, "duplicate connection id"))
        seen_conn.add(c.id)
        for rid in c.route:
            if rid not in seen_res:
                out.append(Violation(where, f"route references unknown resource {rid!r}"))
        if len(set(c.route)) != len(c.route):
            out.append(Violation(where, "route must not repeat a resource"))
        if not 0.0 <= c.value <= 1.0:
            out.append(Violation(where, f"value must lie in [0,1], got {c.value}"))
        if len(c.hop_delays) != len(c.route):
            out.append(Violation(where, "hop_delays must align with route"))
        if c.total_delay < 0 or any(h < 0 for h in c.hop_delays):
            out.append(Violation(where, "delays must be non-negative"))
        if c.hop_delays and c.total_delay < max(c.hop_delays):
            out.append(Violation(where, "delay bound: total_delay must be >= every hop delay"))
        elif any(
            c.hop_delays[i] < c.hop_delays[i + 1] for i in range(len(c.hop_delays) - 1)
        ):
            out.append(Violation(where, "pre-delay must be non-decreasing along the route"))
        if c.start < 0:
            out.append(Violation(where, "active window must start at round >= 0"))
        if c.end < c.start:
            out.append(Violation(where, "active window must contain at least one round"))
        if not (c.start_rate > 0 and math.isfinite(c.start_rate)):
            out.append(Violation(where, f"start_rate must be positive, got {c.start_rate}"))
        if not (c.alpha > 0 and math.isfinite(c.alpha)):
            out.append(Violation(where, f"alpha must be positive, got {c.alpha}"))
        if not 0.0 < c.beta < 1.0:
            out.append(Violation(where, f"beta must lie in (0,1), got {c.beta}"))
        if not c.alpha < c.beta:
            out.append(Violation(where, "alpha must be < beta"))

    if not 0.0 < scenario.epsilon < 1.0:
        out.append(Violation("scenario", f"epsilon must lie in (0,1), got {scenario.epsilon}"))
    policy = scenario.loss_policy
    if isinstance(policy, AdversarialFairLoss):
        if policy.target_path not in seen_conn:
            out.append(
                Violation("loss_policy", f"target_path {policy.target_path!r} is not a connection")
            )
    elif not isinstance(policy, ProportionalLoss):
        out.append(Violation("loss_policy", f"unknown policy {policy!r}"))

    # Same-round transit order must admit a single consistent pass.
    if not out:
        nodes = [r.id for r in scenario.resources]
        if topo_order(nodes, intra_round_edges(scenario)) is None:
            out.append(Violation("scenario", "intra-round transit order is cyclic"))
    return out


def require_valid(scenario: Scenario) -> None:
    violations = validate(scenario)
    if violations:
        raise ScenarioValidationError(violations)


# ---------------------------------------------------------------------------
# JSON schema (documented in README): top-level keys `resources`,
# `connections`, `epsilon`, `loss_policy`; capacities as step lists.
# ---------------------------------------------------------------------------


def _num(value, location: str, allow_inf: bool = False) -> float:
    if value == "inf" and allow_inf:
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"expected a number, got {value!r}", location)
    v = float(value)
    if math.isnan(v):
        raise ScenarioParseError("NaN is not allowed", location)
    if math.isinf(v) and not allow_inf:
        raise ScenarioParseError("infinite value not allowed here", location)
    return v


def _int(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"expected an integer, got {value!r}", location)
    return value


def _str(value, location: str) -> str:
    if not isinstance(value, str):
        raise ScenarioParseError(f"expected a string, got {value!r}", location)
    return value


def _obj(value, location: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(value, dict):
        raise ScenarioParseError(f"expected an object, got {value!r}", location)
    for key in required:
        if key not in value:
            raise ScenarioParseError(f"missing required key {key!r}", location)
    for key in value:
        if key not in required and key not in optional:
            raise ScenarioParseError(f"unknown key {key!r}", location)
    return value


def _capacity_from_json(data, location: str) -> CapacityTimeline:
    if not isinstance(data, list) or not data:
        raise ScenarioParseError("capacity must be a non-empty list of steps", location)
    steps = []
    for i, step in enumerate(data):
        loc = f"{location}[{i}]"
        step = _obj(step, loc, ("from_round", "value"))
        steps.append((_int(step["from_round"], f"{loc}.from_round"),
                      _num(step["value"], f"{loc}.value", allow_inf=True)))
    return CapacityTimeline(steps=tuple(steps))


def _policy_from_json(data, location: str) -> LossPolicy:
    data = _obj(data, location, ("kind",), ("seed", "target_path"))
    kind = _str(data["kind"], f"{location}.kind")
    if kind == "proportional":
        return ProportionalLoss()
    if kind == "adversarial_fair":
        if "seed" not in data or "target_path" not in data:
            raise ScenarioParseError("adversarial_fair needs seed and target_path", location)
        return AdversarialFairLoss(
            seed=_int(data["seed"], f"{location}.seed"),
            target_path=_str(data["target_path"], f"{location}.target_path"),
        )
    raise ScenarioParseError(f"unknown loss policy kind {kind!r}", f"{location}.kind")


def scenario_from_dict(data: dict) -> Scenario:
    data = _obj(data, "scenario", ("resources", "connections", "epsilon"), ("loss_policy",))
    if not isinstance(data["resources"], list):
        raise ScenarioParseError("expected a list", "resources")
    if not isinstance(data["connections"], list):
        raise ScenarioParseError("expected a list", "connections")

    resources = []
    for i, r in enumerate(data["resources"]):
        loc = f"resources[{i}]"
        r = _obj(r, loc, ("id", "capacity"))
        resources.append(ResourceSpec(
            id=_str(r["id"], f"{loc}.id"),
            capacity=_capacity_from_json(r["capacity"], f"{loc}.capacity"),
        ))

    connections = []
    for i, c in enumerate(data["connections"]):
        loc = f"connections[{i}]"
        c = _obj(c, loc, ("id", "route", "value", "active", "total_delay",
                          "hop_delays", "start_rate", "alpha", "beta"))
        active = c["active"]
        if not (isinstance(active, list) and len(active) == 2):
            raise ScenarioParseError("active must be [start, end]", f"{loc}.active")
        route = c["route"]
        if not isinstance(route, list):
            raise ScenarioParseError("route must be a list", f"{loc}.route")
        hops = c["hop_delays"]
        if not isinstance(hops, list):
            raise ScenarioParseError("hop_delays must be a list", f"{loc}.hop_delays")
        connections.append(ConnectionSpec(
            id=_str(c["id"], f"{loc}.id"),
            route=tuple(_str(r, f"{loc}.route[{j}]") for j, r in enumerate(route)),
            value=_num(c["value"], f"{loc}.value"),
            start=_int(active[0], f"{loc}.active[0]"),
            end=_int(active[1], f"{loc}.active[1]"),
            total_delay=_int(c["total_delay"], f"{loc}.total_delay"),
            hop_delays=tuple(_int(h, f"{loc}.hop_delays[{j}]") for j, h in enumerate(hops)),
            start_rate=_num(c["start_rate"], f"{loc}.start_rate"),
            alpha=_num(c["alpha"], f"{loc}.alpha"),
            beta=_num(c["beta"], f"{loc}.beta"),
        ))

    policy = _policy_from_json(data.get("loss_policy", {"kind": "proportional"}), "loss_policy")
    return Scenario(
        resources=tuple(resources),
        connections=tuple(connections),
        epsilon=_num(data["epsilon"], "epsilon"),
        loss_policy=policy,
    )


def parse_scenario(text: str) -> Scenario:
    """Decode a scenario JSON document; raises ScenarioParseError with location."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(exc.msg, f"line {exc.lineno} column {exc.colno}") from exc
    return scenario_from_dict(data)


def _cap_value_to_json(v: float):
    return "inf" if math.isinf(v) else v


def scenario_to_dict(scenario: Scenario) -> dict:
    policy = scenario.loss_policy
    if isinstance(policy, AdversarialFairLoss):
        policy_doc = {"kind": "adversarial_fair", "seed": policy.seed,
                      "target_path": policy.target_path}
    else:
        policy_doc = {"kind": "proportional"}
    return {
        "resources": [
            {
                "id": r.id,
                "capacity": [
                    {"from_round": fr, "value": _cap_value_to_json(v)}
                    for fr, v in r.capacity.steps
                ],
            }
            for r in scenario.resources
        ],
        "connections": [
            {
                "id": c.id,
                "route": list(c.route),
                "value": c.value,
                "active": [c.start, c.end],
                "total_delay": c.total_delay,
                "hop_delays": list(c.hop_delays),
                "start_rate": c.start_rate,
                "alpha": c.alpha,
                "beta": c.beta,
            }
            for c in scenario.connections
        ],
        "epsilon": scenario.epsilon,
        "loss_policy": policy_doc,
    }


def emit_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
