"""The auditor's per-path formulas as separate helpers, kept as a test oracle.

Before ``audit.competitive_ratio`` became one pass over the connections, each
per-path field came from its own helper, which looked the connection up by
id and re-sliced the arrival window. The formulas below are kept as they
were, so the one-pass report can be checked against them with ``==``.
"""

from __future__ import annotations

import math

from mimdsim.kernel import RunTrace
from mimdsim.model import ConnectionSpec


def _connection(trace: RunTrace, path_id: str) -> ConnectionSpec:
    return next(c for c in trace.scenario.connections if c.id == path_id)


def max_received(trace: RunTrace, path_id: str) -> float:
    """Peak per-round amount received on the path over its arrival window."""
    c = _connection(trace, path_id)
    return max(trace.paths[path_id].rcvd[c.shifted_window().as_slice()], default=0.0)


def check_lemma1(trace: RunTrace, path_id: str) -> float:
    """Slack of the throughput floor."""
    c = _connection(trace, path_id)
    rec = trace.paths[path_id]
    window = c.shifted_window().as_slice()
    total_rcvd = math.fsum(rec.rcvd[window])
    total_lost = math.fsum(rec.lost[window])
    rhs = (c.beta / c.alpha - 1.0) * total_lost - (c.total_delay + 1) * c.start_rate / c.alpha
    return total_rcvd - rhs


def check_lemma3(trace: RunTrace, path_id: str) -> float | None:
    """Slack of the loss floor, or None when the path never received anything."""
    c = _connection(trace, path_id)
    rec = trace.paths[path_id]
    peak = max_received(trace, path_id)
    if peak <= 0.0:
        return None
    total_lsr = math.fsum(rec.lsr[c.shifted_window().as_slice()])
    growth = (
        c.alpha * (1.0 - c.beta) / (c.beta * (1.0 + c.alpha))
        * (c.duration - 1 - c.total_delay)
    )
    log_term = (
        (1.0 - c.beta) / c.beta
        * (1 + c.total_delay)
        * math.log(c.beta * peak / ((c.beta - c.alpha) * c.start_rate))
    )
    return total_lsr - (growth - log_term)


def weighted_throughput(trace: RunTrace) -> float:
    return math.fsum(
        c.value * math.fsum(trace.paths[c.id].rcvd[c.shifted_window().as_slice()])
        for c in trace.scenario.connections
    )


def reference_fields(trace: RunTrace) -> dict:
    """Every per-path field of the trace-only report, and the fields built
    from them, computed helper by helper."""
    scenario = trace.scenario
    peaks = {c.id: max_received(trace, c.id) for c in scenario.connections}
    per_path_b = {c.id: (c.beta / c.alpha - 1.0) * c.value for c in scenario.connections}
    per_path_c: dict[str, float | None] = {}
    threshold_terms = []
    for c in scenario.connections:
        peak = peaks[c.id]
        if peak <= 0.0 or c.value <= 0.0:
            per_path_c[c.id] = None
            continue
        log_term = math.log(c.beta * peak / ((c.beta - c.alpha) * c.start_rate))
        frac = (1 + c.total_delay) / c.duration
        per_path_c[c.id] = (
            c.alpha * (1.0 - c.beta) / (c.beta * (1.0 + c.alpha) * c.value) * (1.0 - frac)
            - (1.0 - c.beta) / (c.beta * c.value) * frac * log_term
        )
        if peak > c.start_rate:
            threshold_terms.append(
                (1 + c.total_delay) * math.log(peak / c.start_rate)
                / (scenario.epsilon ** 2 * c.beta * c.value)
            )
    finite_c = [v for v in per_path_c.values() if v is not None]
    return {
        "weighted_throughput": weighted_throughput(trace),
        "lemma1_slack": {c.id: check_lemma1(trace, c.id) for c in scenario.connections},
        "lemma3_slack": {c.id: check_lemma3(trace, c.id) for c in scenario.connections},
        "U": peaks,
        "b": min(per_path_b.values()) if per_path_b else None,
        "c": min(finite_c) if finite_c else None,
        "per_path_b": per_path_b,
        "per_path_c": per_path_c,
        "duration_threshold": max(threshold_terms) if threshold_terms else None,
    }
