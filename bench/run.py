"""mimdsim benchmark: one workload through the real CLI, with a correctness gate.

    python3 bench/run.py --workload long_haul --seed 0 --seconds 40 --trace 0

The workload's scenario is generated from ``--seed`` (see workloads.py) and
given to ``python -m mimdsim`` with ``src`` on ``PYTHONPATH``, in a fresh
process per invocation and a fresh, empty output directory each time.
Every invocation's outputs go through gate.py; a nonzero exit or a failed
check counts as a failed operation.

``--trace 0`` reports the end-to-end metrics: the medians of ``wall_s``,
``cpu_s`` and ``peak_rss_mb`` over the CLI invocations made in
``--seconds`` seconds (at least three), and of ``setup_s`` over several
fresh interpreters that import ``mimdsim.cli`` and load the scenario. The
set-up probes are due at even intervals inside the same window, so both
series sample the whole run; an invocation that would likely end after
the window is not started.

``--trace 1`` starts the window with two traced runs (traced.py) and a
memory probe, fills the rest with untraced runs and reports the per-layer
metrics: span times, exact counters, which must repeat across the two
traced runs, the kernel's peak memory and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. All files go to
``.bench_work/`` in the checkout. Exit code 2 means the checkout has no
``src/mimdsim`` to run; 1 means some output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
from workloads import SIZES, WORKLOADS, Workload, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 150.0
MB = 2**20

SETUP_PROBE = "import sys; from mimdsim import cli; cli.load_scenario(sys.argv[1])"
# Peak RSS growth of one kernel.run in a fresh process. tracemalloc would
# be exact, but it slows this kernel 16-20x (34 s on long_haul on two cores,
# where the plain call takes 1.2-2 s), too slow for a traced run's time limit.
MEMORY_PROBE = (
    "import resource, sys; from mimdsim import cli, kernel\n"
    "scenario = cli.load_scenario(sys.argv[1])\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "kernel.run(scenario)\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)"
)
TIMED_SPANS = ("model.parse", "model.validate", "kernel.run", "kernel.export",
               "optimum.solve", "optimum.export", "audit.report", "audit.export")


@dataclass
class Sample:
    """One child process, timed from spawn to exit."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, failures: list[str]) -> None:
        """Count one operation, failed when it has any failure."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)


def spawn(argv: list[str], log: Path) -> Sample:
    """Run ``argv`` with ``src`` importable; resource use comes from wait4."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / MB,
                  proc.returncode)


class Runner:
    """Invokes the CLI (plain or traced) on one workload and gates each output."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.scenario = workload.write(work / "scenario.json")
        self.references = gate.load_references()
        self.tally = Tally()
        self._n = 0

    def cli_flags(self, out: Path) -> list[str]:
        return ["--scenario", str(self.scenario), "--out", str(out), *self.workload.flags]

    def invoke(self, prefix: list[str]) -> tuple[Sample, list[str]]:
        """One CLI run into a fresh directory; returns its sample and failed checks."""
        self._n += 1
        out = self.work / f"out{self._n}"
        log = self.work / f"out{self._n}.log"
        sample = spawn([*prefix, *self.cli_flags(out)], log)
        if sample.exit != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            failures = [f"exit {sample.exit}: {' '.join(tail)}"]
        else:
            failures = gate.check(out, self.workload, self.references)
        shutil.rmtree(out, ignore_errors=True)
        return sample, failures

    def untraced(self, deadline: float,
                 setup_repeats: int = 0) -> tuple[list[Sample], list[float]]:
        """CLI runs until the next one would likely end after ``deadline``
        (at least MIN_INVOCATIONS), with ``setup_repeats`` set-up probes due at
        even intervals until then. Returns the runs and the probes' wall times."""
        start = time.perf_counter()
        interval = (deadline - start) / max(setup_repeats, 1)
        samples: list[Sample] = []
        setup: list[float] = []
        while True:
            now = time.perf_counter()
            if len(setup) < setup_repeats and now >= start + len(setup) * interval:
                setup.append(self.setup_probe(len(setup)))
                continue
            typical = statistics.median(s.wall_s for s in samples) if samples else 0.0
            if len(samples) >= MIN_INVOCATIONS and now + typical > deadline:
                break
            sample, failures = self.invoke([sys.executable, "-m", "mimdsim"])
            self.tally.record(failures)
            samples.append(sample)
        while len(setup) < setup_repeats:
            setup.append(self.setup_probe(len(setup)))
        return samples, setup

    def traced(self, counters: dict | None = None) -> tuple[Sample, dict]:
        """One traced run; its counters must equal ``counters`` when given."""
        report_path = self.work / f"traced{2 if counters else 1}.json"
        prefix = [sys.executable, str(BENCH / "traced.py"), "--report", str(report_path)]
        sample, failures = self.invoke([*prefix, "--"])
        if sample.exit != 0:
            raise SystemExit(f"traced run failed: {failures}")
        report = json.loads(report_path.read_text())
        if counters is not None and report["counters"] != counters:
            failures.append(f"counters differ between traced runs: {report['counters']} "
                            f"vs {counters}")
        self.tally.record(failures)
        return sample, report

    def probe(self, code: str, log: Path) -> Sample:
        sample = spawn([sys.executable, "-c", code, str(self.scenario)], log)
        if sample.exit != 0:
            raise SystemExit(f"probe failed with exit {sample.exit}: {log}")
        return sample

    def setup_probe(self, i: int) -> float:
        """Wall time of a fresh interpreter that imports the CLI and loads the scenario."""
        return self.probe(SETUP_PROBE, self.work / f"setup{i}.log").wall_s

    def kernel_peak_mb(self) -> float:
        log = self.work / "memory.log"
        self.probe(MEMORY_PROBE, log)
        return int(log.read_text().split()[-1]) * 1024 / MB


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def span_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: count, total duration and self time. Self time is the
    duration minus the union of the child spans' intervals, because pool
    threads make children overlap."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                           "child_s": 0.0})
        kids = children.get(s["id"], [])
        row["count"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += s["end"] - s["start"] - union_length(kids)
        row["child_s"] += sum(hi - lo for lo, hi in kids)
    return table


def layer_metrics(report: dict) -> dict[str, float]:
    table = span_table(report["spans"])
    counts = report["counters"]
    main = table["cli.main"]
    out = {"cli.import_s": table["cli.import"]["total_s"]}
    for name in TIMED_SPANS:
        out[name + "_s"] = table[name]["total_s"]
    out["kernel.path_rounds_per_s"] = counts["kernel.path_rounds"] / out["kernel.run_s"]
    out["cli.main_s"] = main["total_s"]
    out["cli.self_s"] = main["self_s"]
    out["cli.overlap"] = main["child_s"] / main["total_s"]
    return out


def report_traced(untraced: list[Sample], first: Sample, rep_a: dict, rep_b: dict,
                  kernel_peak_mb: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: span times are the median of the two traced runs,
    counters and sizes come from the first, and the overhead compares the
    first with the untraced runs."""
    per_run = [layer_metrics(rep_a), layer_metrics(rep_b)]
    metrics = {name: (statistics.median(r[name] for r in per_run),
                      "1/s" if name.endswith("per_s") else
                      "ratio" if name == "cli.overlap" else "s")
               for name in per_run[0]}
    counts = rep_a["counters"]
    for name in ("protocol.updates", "kernel.cohort_hops", "kernel.congested_resource_rounds",
                 "kernel.loss_events_kept", "optimum.lp_cols", "optimum.tight_pairs",
                 "cli.entries"):
        metrics[name] = (counts[name], "count")
    for layer in ("kernel", "optimum", "audit"):
        metrics[f"{layer}.export_mb"] = (counts[f"{layer}.export_bytes"] / MB, "MB")
    metrics["kernel.peak_mb"] = (kernel_peak_mb, "MB")
    metrics["bench.tracing_overhead_s"] = (
        first.wall_s - statistics.median(s.wall_s for s in untraced), "s")

    for name, row in sorted(span_table(rep_a["spans"]).items()):
        print(f"span {name:15s} count={row['count']:3d} total={row['total_s']:.4f}s "
              f"self={row['self_s']:.4f}s")
    return metrics


def describe(name: str, values: list[float], unit: str) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{name}: median={statistics.median(values):.6g} {unit} "
            f"q1={q1:.6g} q3={q3:.6g} n={len(values)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' shrinks every workload for smoke tests")
    args = parser.parse_args()

    if not (SRC / "mimdsim" / "__init__.py").is_file():
        print(f"error: no mimdsim package under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(generate(args.workload, args.seed, args.size), work)

    # One untimed probe first, so bytecode caches are written before timing.
    runner.probe(SETUP_PROBE, work / "warmup.log")
    deadline = time.perf_counter() + args.seconds

    if args.trace == 0:
        untraced, setup = runner.untraced(deadline, SETUP_REPEATS)
        series = {
            "wall_s": ([s.wall_s for s in untraced], "s"),
            "cpu_s": ([s.cpu_s for s in untraced], "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": ([s.peak_rss_mb for s in untraced], "MB"),
        }
        for name, (values, unit) in series.items():
            print(describe(name, values, unit))
        metrics = {name: (statistics.median(values), unit)
                   for name, (values, unit) in series.items()}
    else:
        first, rep_a = runner.traced()
        _, rep_b = runner.traced(counters=rep_a["counters"])
        kernel_peak_mb = runner.kernel_peak_mb()
        untraced, _ = runner.untraced(deadline)
        metrics = report_traced(untraced, first, rep_a, rep_b, kernel_peak_mb)

    tally = runner.tally
    print(f"error_rate: {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} invocations failed)")
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
