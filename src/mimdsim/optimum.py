"""Best fixed-rate-per-path throughput, as an explicit linear program.

The yardstick assignment gives every path one constant rate over its active
window; a path active during rounds [s, e] loads each resource on its route
during [s + pre_delay, e + pre_delay], the transit rounds that the kernel's
schedule reads from the same ``model.crossings`` table. Constraint rows
exist only for (resource, round) pairs where some path is present, and
rounds with an identical active set collapse to the binding
(minimum-capacity) row, which keeps the LP tiny regardless of horizon
length.

An LP of at most ``EXACT_MAX_COLUMNS`` weighted paths goes to ``_exact``,
an exact simplex that checks its own certificate, and a larger one to
HiGHS as a sparse 0/1 matrix. ``solve_opt`` sums each segment's load under
the answer once. Those sums are checked against the capacities, with a
slack relative to each, and give the binding constraints: inclusive round
ranges per resource, one per run of binding segments, so their size does
not grow with the horizon.

Only ``_highs``, the one call into HiGHS, loads scipy's HiGHS extension
(``_highs_core``), importing neither scipy nor numpy. Only ``_exact``
imports fractions. Every LP is solved in the process that calls
``solve_opt``, which forks nothing. A fork copies only the calling thread.
``_highs`` holds HiGHS to one thread, so it starts none, as tests pin
(by default it would start (CPUs + 1) // 2 - 1), and a process that forks
(``_fork.forked``) still does so before its first HiGHS solve, so that no
fork rests on it: the CLI solves each entry's LP after its trace export
child is reaped, and a sweep forks before any entry runs.

The LP reads only the scenario, never a trace, so the CLI solves it once
the entry's trace is released, and HiGHS's memory does not add to the
trace's.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

from .model import Scenario, crossings, require_valid, write_json

EXACT_MAX_COLUMNS = 8   # above this many weighted paths, HiGHS solves the LP


class OptimumError(RuntimeError):
    """The solver could not produce a solution."""


class UnboundedOptimumError(OptimumError):
    """A positively valued path meets no finite capacity: opt is unbounded."""


class OptimumSolution(NamedTuple):
    """Fixed per-path rates plus the achieved weighted throughput."""

    rates: dict[str, float]
    opt_value: float
    tight_constraints: tuple[tuple[str, int, int], ...]   # (resource, first, last round)


@cache
def _highs_core():
    """scipy's HiGHS extension, loaded once under its own name without
    importing scipy; OptimumError, naming what it looked for, if absent."""
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
    from importlib.util import find_spec, module_from_spec, spec_from_loader

    name = "scipy.optimize._highspy._core"
    scipy = find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise OptimumError(f"cannot load {name}: scipy is not installed")
    where = Path(scipy.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in EXTENSION_SUFFIXES:
        path = where / f"_core{suffix}"
        if path.is_file():
            loader = ExtensionFileLoader(name, str(path))
            module = module_from_spec(spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
    raise OptimumError(f"cannot load {name}: no {where / '_core'}"
                       f"{{{','.join(EXTENSION_SUFFIXES)}}}")


def _highs(
    c_obj: list[float], rows: list[tuple[int, ...]], b_ub: list[float], n: int
) -> tuple[int, str, list[float] | None]:
    """Minimize c_obj.x subject to sum(x[j] for j in rows[i]) <= b_ub[i], x >= 0.

    HiGHS gets the LP ``scipy.optimize.linprog(..., method="highs")``
    passes (there column-wise, here row-wise as ``_lp`` builds it; ``n``
    goes unused): x in [0, inf), row i in (-inf, b_ub[i]], presolve on and
    the dual simplex. Returns linprog's status (0 optimal, 3 unbounded,
    else 4 with HiGHS's status string), a message and x.
    """
    h = _highs_core()
    options = h.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    options.simplex_strategy = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.threads = 1   # else run() starts (CPUs + 1) // 2 - 1 worker threads
    highs = h._Highs()
    # the quiet options go first, or HiGHS prints its banner to fd 1; the
    # binding's col_cost_ setter imports numpy, so HiGHS builds the costs and
    # the column bounds [0, inf) one column at a time and hands back the LP
    built = [highs.passOptions(options), highs.passModel(h.HighsLp())]
    for j, cost in enumerate(c_obj):
        built += highs.addVar(0.0, h.kHighsInf), highs.changeColCost(j, cost)
    lp = highs.getLp()

    lp.num_row_ = lp.a_matrix_.num_row_ = len(rows)
    lp.a_matrix_.format_ = h.MatrixFormat.kRowwise
    start = [0, *accumulate(map(len, rows))]
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = [j for members in rows for j in members]
    lp.a_matrix_.value_ = [1.0] * start[-1]
    lp.row_lower_, lp.row_upper_ = [-h.kHighsInf] * len(rows), b_ub
    if h.HighsStatus.kError in (*built, highs.passModel(lp)):
        status = h.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    if status == h.HighsModelStatus.kOptimal:
        return 0, "optimal", list(highs.getSolution().col_value)
    if status == h.HighsModelStatus.kUnbounded:
        return 3, "unbounded", None
    return 4, highs.modelStatusToString(status), None


def _exact(
    c_obj: list[float], rows: list[tuple[int, ...]], b_ub: list[float], n: int
) -> tuple[int, str, list[float] | None]:
    """``_highs``'s problem and return shape, solved exactly in Fractions.

    A simplex on the condensed m x n tableau (no slack columns) under Bland's
    rule, which cannot cycle; the origin is feasible since no capacity is
    negative. Before rounding, the certificate is checked exactly: every
    row's load is at most its capacity, and the duals satisfy y >= 0,
    A^T y >= w and b.y == w.x. Each rate is the correctly rounded float of
    the exact optimum. Raises OptimumError if the certificate fails.
    """
    from fractions import Fraction

    m = len(rows)
    w = [-Fraction(c) for c in c_obj]
    b = [Fraction(v) for v in b_ub]
    # the tableau's last row holds the reduced costs, its last column the
    # basic values; variable j < n is x_j, and n + i is row i's slack
    t = [[Fraction(j in members) for j in range(n)] + [b[i]] for i, members in enumerate(rows)]
    t.append([-v for v in w] + [Fraction(0)])
    basic, nonbasic = list(range(n, n + m)), list(range(n))
    while True:
        entering = [j for j in range(n) if t[m][j] < 0]
        if not entering:
            break
        c = min(entering, key=nonbasic.__getitem__)
        leaving = [i for i in range(m) if t[i][c] > 0]
        if not leaving:
            return 3, "unbounded", None
        r = min(leaving, key=lambda i: (t[i][n] / t[i][c], basic[i]))
        p = t[r][c]
        pivot = [v / p for v in t[r]]
        pivot[c] = 1 / p
        for i, row in enumerate(t):
            f = row[c]
            if i != r and f:
                for j in range(n + 1):
                    row[j] -= f * pivot[j]
                row[c] = -f / p
        t[r] = pivot
        basic[r], nonbasic[c] = nonbasic[c], basic[r]

    value = {v: row[n] for v, row in zip(basic, t)}
    cost = dict(zip(nonbasic, t[m]))   # reduced costs; a slack's is its row's dual
    x = [value.get(j, Fraction(0)) for j in range(n)]
    y = [cost.get(n + i, Fraction(0)) for i in range(m)]
    priced = [sum(yi for members, yi in zip(rows, y) if j in members) for j in range(n)]
    if not (min(x) >= 0 and min(y) >= 0
            and all(sum(x[j] for j in members) <= cap for members, cap in zip(rows, b))
            and all(pj >= wj for pj, wj in zip(priced, w))
            and sum(bi * yi for bi, yi in zip(b, y)) == sum(wj * xj for wj, xj in zip(w, x))):
        raise OptimumError("exact LP certificate failed")
    return 0, "optimal", [float(v) for v in x]


class _Segment(NamedTuple):
    """Rounds [lo, hi) of one resource with a constant active set and capacity."""

    resource_id: str
    lo: int
    hi: int
    cap: float
    active: tuple[int, ...]   # connection indices loading the resource here


def _segments(scenario: Scenario) -> list[_Segment]:
    # per resource, the half-open rounds [a, b) in which each path loads it
    spans_of: list[list[tuple[int, int, int]]] = [[] for _ in scenario.resources]
    for k, i, _, first, last in crossings(scenario):
        spans_of[i].append((k, first, last + 1))
    out: list[_Segment] = []
    for r, spans in zip(scenario.resources, spans_of):
        if not spans:
            continue
        # the active set and capacity change only at these rounds
        cuts = {fr for fr, _ in r.capacity.steps}
        for _, a, b in spans:
            cuts.update((a, b))
        bounds = sorted(cuts)
        for lo, hi in zip(bounds, bounds[1:]):
            active = tuple(k for k, a, b in spans if a <= lo and hi <= b)
            if active:
                out.append(_Segment(r.id, lo, hi, r.capacity.at(lo), active))
    return out


def _weights(scenario: Scenario) -> list[float]:
    return [c.value * c.duration for c in scenario.connections]


def _exact_route(scenario: Scenario) -> bool:
    """``_exact`` solves LPs of at most EXACT_MAX_COLUMNS weighted paths."""
    return sum(w > 0 for w in _weights(scenario)) <= EXACT_MAX_COLUMNS


def _tight_ranges(
    segments: list[_Segment], loads: list[float]
) -> tuple[tuple[str, int, int], ...]:
    """Inclusive (resource, first, last) round ranges where ``loads`` meet capacity.

    A load binds within 1e-7 of its capacity, relative to it, so the ranges
    do not depend on the unit. Adjacent binding segments of one resource
    merge into one range.
    """
    ranges: list[tuple[str, int, int]] = []
    for seg, load in zip(segments, loads):
        if math.isinf(seg.cap):
            continue
        if not load >= seg.cap - 1e-7 * seg.cap:
            continue
        if ranges and ranges[-1][0] == seg.resource_id and ranges[-1][2] == seg.lo - 1:
            ranges[-1] = (seg.resource_id, ranges[-1][1], seg.hi - 1)
        else:
            ranges.append((seg.resource_id, seg.lo, seg.hi - 1))
    return tuple(ranges)


def _lp(scenario: Scenario) -> tuple[list[_Segment], list[int], tuple]:
    """``scenario``'s segments, the connection of each LP column (every
    positively weighted path) and the arguments that ``_exact`` and
    ``_highs`` take. Raises UnboundedOptimumError when a column meets no
    finite capacity."""
    weights = _weights(scenario)
    segments = _segments(scenario)
    var_of = [k for k, w in enumerate(weights) if w > 0]
    col = {k: j for j, k in enumerate(var_of)}
    rows: dict[tuple[int, ...], float] = {}
    for seg in segments:
        if math.isinf(seg.cap):
            continue
        members = tuple(sorted(col[k] for k in seg.active if k in col))
        if not members:
            continue
        if members not in rows or seg.cap < rows[members]:
            rows[members] = seg.cap

    constrained = set()
    for members in rows:
        constrained.update(members)
    for k in var_of:
        if col[k] not in constrained:
            raise UnboundedOptimumError(
                f"unbounded: path {scenario.connections[k].id!r} meets no finite capacity"
            )

    ordered = sorted(rows.items())
    return segments, var_of, ([-weights[k] for k in var_of],
                              [members for members, _ in ordered],
                              [cap for _, cap in ordered],
                              len(var_of))


def solve_opt(scenario: Scenario) -> OptimumSolution:
    """Maximize total weighted throughput over fixed per-path rates.

    The LP goes to ``_exact`` or to HiGHS (``_highs``) as ``_exact_route``
    decides, in this process; OptimumError when HiGHS cannot be loaded.
    Raises UnboundedOptimumError when a positively weighted path traverses
    no finite capacity. Paths with zero weight are assigned rate 0 (any
    capacity they would use is better spent elsewhere).
    """
    require_valid(scenario)
    conns = scenario.connections
    segments, var_of, args = _lp(scenario)
    rates = {c.id: 0.0 for c in conns}
    if not var_of:
        return OptimumSolution(rates, 0.0, _tight_ranges(segments, [0.0] * len(segments)))

    if _exact_route(scenario):
        status, message, x = _exact(*args)
    else:
        status, message, x = _highs(*args)
    if status == 3:
        raise UnboundedOptimumError("unbounded")
    if status != 0:
        raise OptimumError(f"LP solve failed with status {status}: {message}")

    for j, k in enumerate(var_of):
        rates[conns[k].id] = max(0.0, x[j])
    loads = [math.fsum(rates[conns[k].id] for k in seg.active) for seg in segments]
    for seg, load in zip(segments, loads):
        # rounding may overshoot a capacity by a few ULPs, so the slack is
        # relative to the capacity and the check does not depend on its unit
        if load - seg.cap > max(4 * math.ulp(seg.cap), 1e-12 * seg.cap):
            raise OptimumError(
                f"infeasible LP answer at {seg.resource_id!r} rounds "
                f"[{seg.lo},{seg.hi}): load {load} > cap {seg.cap}"
            )
    value = math.fsum(w * rates[c.id] for w, c in zip(_weights(scenario), conns))
    return OptimumSolution(rates, value, _tight_ranges(segments, loads))


def solution_to_dict(solution: OptimumSolution) -> dict:
    return solution._asdict()


def export_solution(solution: OptimumSolution, path: str | Path) -> Path:
    return write_json(solution_to_dict(solution), path)
