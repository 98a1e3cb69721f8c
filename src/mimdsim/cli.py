"""Command-line front door: run scenarios, sweeps, audits, and exports.

Thin shell over the library: every file this module writes can be
reproduced with direct library calls. Exit codes are stable: 0 success,
2 scenario/usage problems, 3 runtime failures.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from contextlib import nullcontext, redirect_stderr
from itertools import accumulate
from pathlib import Path

from . import audit, kernel, optimum
from ._fork import discard, forked, staged
from .audit import BandwidthTestError, theorem_parameters
from .kernel import KernelError
from .model import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    parse_scenario,
    require_valid,
    write_json,
)
from .optimum import OptimumError
from .protocol import ProtocolError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class UsageError(ValueError):
    """Bad flags or a scenario that does not fit the requested mode."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimdsim",
        description="Fluid-model simulator for multiplicative end-to-end rate control.",
    )
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--mode",
        choices=["simulate", "bwtest", "audit", "opt"],
        default="simulate",
        help="what to run (default: simulate)",
    )
    parser.add_argument("--sweep-epsilon", default=None,
                        help="comma-separated eps values (simulate mode only)")
    parser.add_argument("--sweep-duration", default=None,
                        help="comma-separated duration multipliers (simulate mode only)")
    return parser


def _parse_list(text: str | None, flag: str) -> list[float] | None:
    if not text:
        return None
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc
    if not values:
        raise UsageError(f"{flag} must list at least one value")
    return values


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read scenario file: {exc}") from exc
    scenario = parse_scenario(text)
    require_valid(scenario)
    return scenario


def _run_entry(scenario: Scenario, outdir: Path, stream: bool) -> audit.AuditReport:
    """Run one entry whole: its kernel, audit and trace CSVs
    (``_unrated_report``), then, with the trace released, its LP, which
    does not read it, then ``optimum.json`` (or the unbounded warning) and
    ``audit.json``. So the trace and the solver never share one peak."""
    report = _unrated_report(scenario, outdir, stream)
    solution, opt_note = audit.solve_or_none(scenario)
    report = audit.rated(report, solution)
    if solution is not None:
        optimum.export_solution(solution, outdir / "optimum.json")
    else:
        print(f"warning: optimum not computed: {opt_note}", file=sys.stderr)
    _warn_if_unrated(report)
    audit.export_report(report, outdir / "audit.json")
    return report


def _unrated_report(scenario: Scenario, outdir: Path, stream: bool) -> audit.AuditReport:
    """Run the kernel, audit its trace with no optimum and write its CSVs,
    streamed by a ``kernel.CsvStream`` child with ``stream``; the trace and
    the stream die with this frame."""
    with kernel.CsvStream(outdir) if stream else nullcontext() as on_round:
        trace = kernel.run(scenario, on_round=on_round)
        try:
            return audit.competitive_ratio(trace, None)
        finally:
            kernel.export_trace(trace, outdir)


def _warn_if_unrated(report: audit.AuditReport) -> None:
    """Warn on stderr when a zero optimum left the ratio null."""
    if report.opt_value == 0.0 and report.competitive_ratio is None:
        print("warning: competitive ratio not computed: positive throughput "
              f"{report.weighted_throughput!r} against opt_value 0", file=sys.stderr)


def _sweep_variant(scenario: Scenario, eps: float | None, duration: float) -> Scenario:
    connections = []
    for c in scenario.connections:
        length = max(1, math.ceil(c.duration * duration))
        alpha, beta = c.alpha, c.beta
        if eps is not None:
            alpha, beta = theorem_parameters(eps, c.value)
        connections.append(c._replace(end=c.start + length - 1, alpha=alpha, beta=beta))
    return scenario._replace(
        connections=tuple(connections),
        epsilon=scenario.epsilon if eps is None else eps,
    )


def _sweep_dir(scenario: Scenario, eps: float | None, duration: float) -> str:
    """The subdirectory of one sweep entry; ``eps=None`` keeps the scenario's."""
    return f"eps{scenario.epsilon if eps is None else eps:g}_dur{duration:g}"


_Entry = tuple[Scenario, Path, float]


def _simulate_entries(scenario: Scenario, outdir: Path,
                      sweep_epsilon: list[float] | None,
                      sweep_duration: list[float] | None) -> list[_Entry]:
    """(scenario, output directory, duration multiplier) per run, in run order:
    the base run, then one entry per sweep pair. UsageError when a duration
    overflows a connection's window or two entries would share a directory,
    and ScenarioValidationError when a variant is invalid, so no entry runs."""
    entries: list[_Entry] = [(scenario, outdir, 1.0)]
    if sweep_epsilon is None and sweep_duration is None:
        return entries
    seen: dict[str, str] = {}
    for eps in sweep_epsilon or [None]:
        for dur in sweep_duration or [1.0]:
            try:
                variant = _sweep_variant(scenario, eps, dur)
            except OverflowError:
                raise UsageError(
                    f"--sweep-duration: {dur!r} overflows a connection's window") from None
            require_valid(variant)
            name = _sweep_dir(scenario, eps, dur)
            entry = f"(epsilon {variant.epsilon!r}, duration {dur!r})"
            if name in seen:
                raise UsageError(f"sweep entries {seen[name]} and {entry} would both write {name}/")
            seen[name] = entry
            entries.append((variant, outdir / name, dur))
    return entries


def _run_in_order(entries: list[_Entry], reports: list[audit.AuditReport],
                  stream: bool) -> None:
    """Run ``entries`` whole, in order, here, appending each report to
    ``reports``; the base summary line is printed right after entry 0."""
    for variant, sub, _ in entries:
        reports.append(_run_entry(variant, sub, stream))
        if len(reports) == 1:
            print(audit.summary_line(reports[0]))


def _run_in_two(entries: list[_Entry], reports: list[audit.AuditReport]) -> None:
    """A sweep, in this process and one child forked through
    ``_fork.forked``, appending each entry's report to ``reports`` in entry
    order.

    The entries are cut where the running sum of their sizes (rows times
    CSV columns) first reaches half, leaving the child at least one; this
    process runs the head, the child the tail, each entry whole. The child
    writes each entry's files into its own directory within the base
    directory's stage (``<base>/.part/<entry>/``) and returns its reports,
    its stderr text and the exception of its first failing entry, where it
    stops, so it stages exactly the entries a one-process run reaches.
    Once the head has succeeded, the text is written and the exception
    raised.
    """
    sizes = [(variant.horizon + 1) * sum(len(columns) for _, columns
                                         in kernel.csv_files(variant, sub))
             for variant, sub, _ in entries]
    total = sum(sizes)
    cut = min(next(i for i, so_far in enumerate(accumulate(sizes), 1) if 2 * so_far >= total),
              len(entries) - 1)
    head, tail = entries[:cut], entries[cut:]
    stage = staged(entries[0][1])

    def run_tail() -> tuple[list[audit.AuditReport], str, Exception | None]:
        done: list[audit.AuditReport] = []
        failure = None
        with redirect_stderr(io.StringIO()) as text:
            try:
                for variant, sub, _ in tail:
                    done.append(_run_entry(variant, stage / sub.name, False))
            except Exception as exc:
                failure = exc
        return done, text.getvalue(), failure

    with forked(run_tail, "sweep child", stage) as result:
        _run_in_order(head, reports, False)
        done, text, failure = result()
    reports += done
    sys.stderr.write(text)
    if failure is not None:
        raise failure


def cmd_simulate(entries: list[_Entry]) -> int:
    """Run every entry of ``_simulate_entries`` whole (``_run_entry``), in
    entry order; a sweep's summary goes into the base entry's directory.

    Where the platform has ``fork``, a sweep is split over this process and
    one forked child (``_run_in_two``), and a one-entry run streams its
    CSVs from a child (``kernel.CsvStream``); otherwise every entry runs
    here. Each fork comes before any LP is solved (see ``optimum``).
    Either way stdout, stderr, the exit code and the files left are those
    of running each entry in turn. First it discards the stage of every
    entry's directory, which a killed run can leave behind (see ``_fork``).
    """
    for _, sub, _ in entries:
        discard(staged(sub))
    reports: list[audit.AuditReport] = []
    forking = hasattr(os, "fork")
    if len(entries) > 1 and forking:
        _run_in_two(entries, reports)
    else:
        _run_in_order(entries, reports, forking)

    if len(entries) == 1:
        return EXIT_OK
    rows = [(variant.epsilon, dur, report.competitive_ratio, report.measured_epsilon_hat)
            for (variant, _, dur), report in zip(entries[1:], reports[1:])]
    rows.sort(key=lambda row: (row[0], row[1]))
    lines = ["epsilon,duration,ratio,eps_hat"]
    for eps, dur, ratio, eps_hat in rows:
        ratio_s = "" if ratio is None else repr(ratio)
        lines.append(f"{eps!r},{dur!r},{ratio_s},{eps_hat!r}")
    (entries[0][1] / "sweep_summary.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_audit(scenario: Scenario, outdir: Path) -> int:
    """Run the kernel and audit its trace, then, with the trace dropped,
    solve the LP and write the rated ``audit.json``."""
    report = audit.competitive_ratio(kernel.run(scenario), None)
    solution, opt_note = audit.solve_or_none(scenario)
    if solution is None:
        print(f"warning: optimum not computed: {opt_note}", file=sys.stderr)
    report = audit.rated(report, solution)
    _warn_if_unrated(report)
    audit.export_report(report, outdir / "audit.json")
    print(audit.summary_line(report))
    return EXIT_OK


def cmd_opt(scenario: Scenario, outdir: Path) -> int:
    solution = optimum.solve_opt(scenario)
    optimum.export_solution(solution, outdir / "optimum.json")
    print(f"opt_value={solution.opt_value!r}")
    return EXIT_OK


def cmd_bandwidth_test(scenario: Scenario, outdir: Path) -> int:
    result = audit.bandwidth_test(scenario)
    write_json(result, outdir / "bandwidth_test.json")
    opt_s = "n/a" if result["opt_rate"] is None else f"{result['opt_rate']:.6g}"
    print(f"bandwidth_estimate={result['estimate']:.6g} opt={opt_s}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sweep_eps = _parse_list(args.sweep_epsilon, "--sweep-epsilon")
        sweep_dur = _parse_list(args.sweep_duration, "--sweep-duration")
        if args.mode != "simulate" and (sweep_eps or sweep_dur):
            raise UsageError("sweeps are only available in simulate mode")
        for eps in sweep_eps or ():
            if not 0.0 < eps < 1.0:
                raise UsageError(f"--sweep-epsilon: {eps!r} is not in (0, 1)")
        for dur in sweep_dur or ():
            if not (math.isfinite(dur) and dur > 0.0):
                raise UsageError(f"--sweep-duration: {dur!r} is not a finite value > 0")
        scenario = load_scenario(args.scenario)
        zero = [c.id for c in scenario.connections if c.value <= 0]
        if sweep_eps and zero:
            raise UsageError(
                f"connection {zero[0]!r} has value 0; epsilon sweeps need positive values"
            )
        out_dir = Path(args.out)
        entries = _simulate_entries(scenario, out_dir, sweep_eps, sweep_dur)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"output directory is not writable: {exc}") from exc
        if args.mode == "simulate":
            return cmd_simulate(entries)
        if args.mode == "audit":
            return cmd_audit(scenario, out_dir)
        if args.mode == "opt":
            return cmd_opt(scenario, out_dir)
        return cmd_bandwidth_test(scenario, out_dir)
    except (ScenarioParseError, ScenarioValidationError, UsageError,
            BandwidthTestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KernelError, OptimumError, ProtocolError, OSError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())
