"""Smoke test of the benchmark itself: python3 bench/smoke.py

* every workload runs at its tiny size through the full command, with
  tracing off and on, and prints exactly the metrics BENCHMARK.json lists;
* the correctness gate rejects a changed output byte and a broken invariant;
* in a directory that holds only BENCHMARK.json and the benchmark, the
  command fails without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import gate
from run import ROOT, WORK, Runner, spawn
from workloads import WORKLOADS, generate

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_command(cwd, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *flags], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def check_workload(name: str, trace: int) -> list[str]:
    proc = run_command(ROOT, "--workload", name, "--seed", "0", "--seconds", "0.1",
                       "--trace", str(trace), "--size", "tiny")
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stdout[-500:]} {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"gate failed: {proc.stdout[-1000:]}")
    if got != wanted:
        problems.append(f"metrics {got} != {wanted}")
    return problems


def check_gate_rejects() -> list[str]:
    """Corrupt the outputs of a recorded seed and expect the gate to object."""
    work = WORK / "smoke-gate"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = generate("long_haul", 0, "tiny")
    runner = Runner(workload, work)
    out = work / "out"
    spawn([sys.executable, "-m", "mimdsim", *runner.cli_flags(out)], work / "cli.log")
    problems = [f"clean output rejected: {f}" for f in gate.check(out, workload,
                                                                   runner.references)]
    csv = out / "path_pa.csv"
    text = csv.read_text()
    csv.write_text(text[:-2] + ("1" if text[-2] != "1" else "2") + "\n")
    if not any("digest" in f for f in gate.check(out, workload, runner.references)):
        problems.append("a changed path CSV passed the digest check")
    audit = out / "audit.json"
    doc = json.loads(audit.read_text())
    doc["measured_epsilon_hat"] = 0.01
    audit.write_text(json.dumps(doc))
    if not any("measured_epsilon_hat" in f for f in gate.check(out, workload, {})):
        problems.append("eps_hat above the proportional limit passed")
    shutil.rmtree(work)
    return problems


def check_fails_without_program() -> list[str]:
    bare = WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(bare, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                       "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without src the command gave exit {proc.returncode}: {proc.stdout}"]
    return []


def main() -> int:
    checks = [(f"{name} --trace {trace}", lambda n=name, t=trace: check_workload(n, t))
              for name in WORKLOADS for trace in (0, 1)]
    checks += [("gate rejects bad outputs", check_gate_rejects),
               ("fails without the program", check_fails_without_program)]
    failed = 0
    for label, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
