"""Exhaustive grid oracle for the fixed-rate optimum, for cross-checking small LPs.

Only the tests use it, so it lives under ``tests/``. It shares
the constraint segments with the solver but none of the LP route.
"""

from __future__ import annotations

import math

import numpy as np

from mimdsim.model import Scenario, require_valid
from mimdsim.optimum import (
    OptimumSolution,
    UnboundedOptimumError,
    _segments,
    _tight_ranges,
    _weights,
)


def brute_force_opt(scenario: Scenario, resolution: float) -> OptimumSolution:
    """Exhaustive grid search over per-path rate vectors.

    Enumerates multiples of ``resolution`` per path up to the path's single
    tightest capacity and returns the best feasible vector; independent of
    the LP route.
    """
    require_valid(scenario)
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    conns = scenario.connections
    if len(conns) > 4:
        raise ValueError("too many paths for brute force (max 4)")
    weights = _weights(scenario)
    segments = _segments(scenario)
    rates = {c.id: 0.0 for c in conns}
    if not conns:
        return OptimumSolution(rates, 0.0, ())

    ubs = []
    for k, c in enumerate(conns):
        caps = [seg.cap for seg in segments if k in seg.active and not math.isinf(seg.cap)]
        if not caps:
            if weights[k] > 0:
                raise UnboundedOptimumError(
                    f"unbounded: path {c.id!r} meets no finite capacity"
                )
            ubs.append(0.0)
        else:
            ubs.append(min(caps))

    axes = []
    cells = 1
    for ub in ubs:
        count = int(math.floor(ub / resolution + 1e-9)) + 1
        axes.append(resolution * np.arange(count))
        cells *= count
    if cells > 20_000_000:
        raise ValueError(f"grid too large ({cells} cells); coarsen the resolution")

    n = len(conns)
    shaped = [ax.reshape([-1 if i == k else 1 for i in range(n)]) for k, ax in enumerate(axes)]
    objective = sum(weights[k] * shaped[k] for k in range(n)) + np.zeros([len(a) for a in axes])
    for seg in segments:
        if math.isinf(seg.cap):
            continue
        load = sum(shaped[k] for k in seg.active) + np.zeros(objective.shape)
        objective[load > seg.cap + 1e-9] = -np.inf

    best_flat = int(np.argmax(objective))
    best_idx = np.unravel_index(best_flat, objective.shape)
    for k, c in enumerate(conns):
        rates[c.id] = float(axes[k][best_idx[k]])
    value = math.fsum(weights[k] * rates[conns[k].id] for k in range(n))
    loads = [math.fsum(rates[conns[k].id] for k in seg.active) for seg in segments]
    return OptimumSolution(rates, value, _tight_ranges(segments, loads))
