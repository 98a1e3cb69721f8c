"""Traced CLI run: ``cli.main`` in this process with a span around each layer call.

The layer functions that ``mimdsim.cli`` calls through their modules are
rebound here to wrappers that record a span (name, start, end, parent,
thread id) and keep the call's result. Spans stay in memory until
``cli.main`` returns; counters are then computed from the kept results and
everything is written as one JSON report.

    python3 bench/traced.py --report report.json -- <cli flags>
"""

from __future__ import annotations

import argparse
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span store. Spans opened on a pool thread with no open
    span of their own are children of the root span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: list[tuple[str, tuple, object]] = []
        self.root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        if root:
            self.root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                               "parent": parent, "thread": threading.get_ident()})

    def wrap(self, module, attr: str, name: str) -> None:
        """Rebind ``module.attr`` to a wrapper that records a span and the call."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            self.calls.append((name, args, result))
            return result

        setattr(module, attr, traced)


def _congested(ledger) -> int:
    return sum(1 for into, cap in zip(ledger.into, ledger.cap) if into - cap > 0 and into > 0)


def counters(calls: list[tuple[str, tuple, object]]) -> dict[str, int]:
    """Exact work counts, from the arguments and results of the traced calls."""
    out = dict.fromkeys((
        "protocol.updates", "kernel.path_rounds", "kernel.cohort_hops",
        "kernel.congested_resource_rounds", "kernel.loss_events_kept",
        "kernel.export_bytes", "optimum.lp_cols", "optimum.tight_pairs",
        "optimum.export_bytes", "audit.export_bytes", "cli.entries",
    ), 0)
    for name, args, result in calls:
        if name == "kernel.run":
            conns = args[0].connections
            out["cli.entries"] += 1
            out["protocol.updates"] += sum(max(0, c.duration - c.total_delay - 1) for c in conns)
            out["kernel.path_rounds"] += sum(c.duration for c in conns)
            out["kernel.cohort_hops"] += sum(c.duration * len(c.route) for c in conns)
            ledgers = result.resources.values()
            out["kernel.congested_resource_rounds"] += sum(_congested(led) for led in ledgers)
            # events may become opt-in or go away; count what the trace keeps
            out["kernel.loss_events_kept"] += sum(len(getattr(led, "events", ()))
                                                  for led in ledgers)
        elif name == "kernel.export":
            out["kernel.export_bytes"] += sum(p.stat().st_size for p in result)
        elif name == "optimum.solve":
            conns = args[0].connections
            out["optimum.lp_cols"] += sum(1 for c in conns if c.value * c.duration > 0)
            out["optimum.tight_pairs"] += len(result.tight_constraints)
        elif name == "optimum.export":
            out["optimum.export_bytes"] += result.stat().st_size
        elif name == "audit.export":
            out["audit.export_bytes"] += result.stat().st_size
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    with tracer.span("cli.import"):
        from mimdsim import audit, cli, kernel, optimum
    for module, attr, name in (
        (cli, "parse_scenario", "model.parse"),
        (cli, "require_valid", "model.validate"),
        (kernel, "run", "kernel.run"),
        (kernel, "export_trace", "kernel.export"),
        (optimum, "solve_opt", "optimum.solve"),
        (optimum, "export_solution", "optimum.export"),
        (audit, "competitive_ratio", "audit.report"),
        (audit, "export_report", "audit.export"),
    ):
        tracer.wrap(module, attr, name)
    with tracer.span("cli.main", root=True):
        rc = cli.main(cli_args)

    report = {"exit": rc, "spans": tracer.spans, "counters": counters(tracer.calls)}
    args.report.write_text(json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
