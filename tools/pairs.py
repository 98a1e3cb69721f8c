"""Alternating pairs of the benchmark on a parent and a change, kept in
``BENCH_<pr>.json``.

    python3 tools/pairs.py --pr 26 --base <parent rev> [--change HEAD] \\
        [--pairs 10] [--seconds 10] [--seed 900]

Each revision's committed files are exported (``git archive``) into its
own directory under ``.bench_work/pairs/`` and their bytecode written
(``compileall``): the benchmark's own warm-up writes none when
``PYTHONDONTWRITEBYTECODE`` is set. Then, for pair ``i`` and each workload
of the change's ``BENCHMARK.json``, the benchmark command runs once on
each side with ``--trace 0``, the same ``--seconds`` and seed
``seed + i``, the parent first in even pairs and the change first in odd
ones.

The file holds every pair's two final JSON lines, and per workload and
end-to-end metric each side's median and quartiles, the share of pairs
the change won (ties count for neither), its relative change of the
median and the parent's own spread (quartile distance over median), both
as fractions of the parent's median to set beside the metric's bound.
A metric whose spread exceeds its bound is marked unresolved unless every
run of the change beat every run of the parent. It gates nothing: the
exit code is 0 whenever every run printed its JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "pairs"
SIDES = ("base", "change")


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles, by the benchmark's own rule (exclusive)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs (``base[i]`` and ``change[i]`` are pair
    ``i``): both sides' quartiles, the share of pairs the change won, its
    relative change of the median, positive when worse, the parent's
    relative spread, and a verdict against ``bound``."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b, c = quartiles(base), quartiles(change)
    worse_by = sign * (c["median"] - b["median"]) / b["median"]
    spread = (b["q3"] - b["q1"]) / b["median"]
    if worse_by > bound:
        verdict = "worse"
    elif spread > bound and not all(sign * (x - y) > 0 for x in base for y in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"base": b, "change": c, "change_won": won / len(base),
            "worse_by": worse_by, "base_spread": spread, "bound": bound, "verdict": verdict}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str) -> Path:
    """The committed files of ``rev``, in a fresh directory, bytecode written."""
    tree = WORK / rev
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=tree,
                   check=True)
    return tree


def bench_once(tree: Path, command: list[str], workload: str, seed: int,
               seconds: float) -> dict:
    """One benchmark run in ``tree``: its final JSON line, or the tail of
    its output when it printed none."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {(proc.stdout + proc.stderr)[-500:]}"}


def machine() -> dict:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), **versions,
            "loadavg_at_start": os.getloadavg()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True)
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=900)
    args = parser.parse_args()

    revs = {side: _git("rev-parse", rev) for side, rev in (("base", args.base),
                                                            ("change", args.change))}
    trees = {side: export(rev) for side, rev in revs.items()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    record = {"pr": args.pr, "revisions": revs, "pairs": args.pairs,
              "seconds": args.seconds, "seeds": [args.seed, args.seed + args.pairs - 1],
              "command": spec["command"], "machine": machine(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "runs": {w: [] for w in workloads}}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            pair = {"seed": args.seed + i, "first": order[0]}
            for side in order:
                pair[side] = bench_once(trees[side], spec["command"], w, args.seed + i,
                                        args.seconds)
            record["runs"][w].append(pair)
            print(f"pair {i} {w}: " + " ".join(
                f"{side} wall_s={pair[side].get('metrics', {}).get('wall_s', {}).get('value')}"
                for side in SIDES), flush=True)
    record["machine"]["loadavg_at_end"] = os.getloadavg()

    complete = all("metrics" in pair[side] for pairs in record["runs"].values()
                   for pair in pairs for side in SIDES)
    record["failed"] = {side: sum(pair[side].get("failed", 1)
                                  for pairs in record["runs"].values() for pair in pairs)
                        for side in SIDES}
    if complete:
        def values(w: str, side: str, name: str) -> list[float]:
            return [pair[side]["metrics"][name]["value"] for pair in record["runs"][w]]

        record["summary"] = {
            w: {m["name"]: compare(values(w, "base", m["name"]), values(w, "change", m["name"]),
                                   m["better"], m["bound"])
                for m in spec["end_to_end"]}
            for w in workloads}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for w, metrics in record.get("summary", {}).items():
        for name, row in metrics.items():
            print(f"{w} {name}: {row['base']['median']:.4g} -> {row['change']['median']:.4g} "
                  f"won {row['change_won']:.0%} worse_by {row['worse_by']:+.1%} "
                  f"spread {row['base_spread']:.1%} {row['verdict']}")
    print(f"wrote {out}")
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
