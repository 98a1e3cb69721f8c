"""Correctness gate for one CLI output directory.

Three checks, every one of which must pass for the invocation to count as
correct:

* the directory holds exactly the files the workload's flags ask for;
* a SHA-256 digest over the deterministic outputs (``path_*.csv``,
  ``resource_*.csv``, ``audit.json``, ``sweep_summary.csv``, and the
  ``rates`` and ``opt_value`` of each ``optimum.json``) equals the digest
  recorded in ``references.json``, for the seeds that have one;
* seed-independent invariants read from every ``audit.json``.

The ``tight_constraints`` list of ``optimum.json`` is left out of the digest
on purpose, so that its encoding may change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import Workload

REFERENCES = Path(__file__).resolve().with_name("references.json")
LOST_RTOL = 1e-9
EPS_ATOL = 1e-9


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def sweep_entries(workload: Workload) -> list[tuple[float, float]]:
    """(epsilon, duration multiplier) per sweep entry, as the CLI expands them."""
    flags = dict(zip(workload.flags[::2], workload.flags[1::2]))
    if not flags:
        return []
    eps = [float(v) for v in flags.get("--sweep-epsilon", str(workload.epsilon)).split(",")]
    durs = [float(v) for v in flags.get("--sweep-duration", "1").split(",")]
    return [(e, d) for e in eps for d in durs]


def _run_files(scenario: dict) -> list[str]:
    return ([f"path_{c['id']}.csv" for c in scenario["connections"]]
            + [f"resource_{r['id']}.csv" for r in scenario["resources"]]
            + ["optimum.json", "audit.json"])


def expected_files(workload: Workload) -> dict[str, float]:
    """Relative path of every output file, mapped to the epsilon of its run."""
    files = {name: workload.epsilon for name in _run_files(workload.scenario)}
    entries = sweep_entries(workload)
    for eps, dur in entries:
        for name in _run_files(workload.scenario):
            files[f"eps{eps:g}_dur{dur:g}/{name}"] = eps
    if entries:
        files["sweep_summary.csv"] = workload.epsilon
    return files


def _file_digest(path: Path) -> str:
    if path.name == "optimum.json":
        doc = json.loads(path.read_text())
        data = json.dumps({"rates": doc["rates"], "opt_value": doc["opt_value"]},
                          sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def digest(outdir: Path, names: list[str]) -> str:
    """SHA-256 over the sorted ``name sha256`` manifest of the outputs."""
    manifest = "".join(f"{name} {_file_digest(outdir / name)}\n" for name in sorted(names))
    return hashlib.sha256(manifest.encode()).hexdigest()


def _audit_failures(name: str, doc: dict, eps: float, policy_kind: str) -> list[str]:
    out = []
    paths, resources = doc["total_lost_paths"], doc["total_lost_resources"]
    if abs(paths - resources) > LOST_RTOL * max(abs(paths), abs(resources)):
        out.append(f"{name}: total_lost_paths {paths!r} != total_lost_resources {resources!r}")
    limit = EPS_ATOL if policy_kind == "proportional" else eps + EPS_ATOL
    eps_hat = doc["measured_epsilon_hat"]
    if not eps_hat <= limit:
        out.append(f"{name}: measured_epsilon_hat {eps_hat!r} > {limit!r}")
    if doc["competitive_ratio"] is None:
        out.append(f"{name}: competitive_ratio is null")
    return out


def check(outdir: Path, workload: Workload, references: dict) -> list[str]:
    """Every failed check for one output directory; empty when all pass."""
    expected = expected_files(workload)
    present = {p.relative_to(outdir).as_posix() for p in outdir.rglob("*") if p.is_file()}
    failures = [f"missing output {n}" for n in sorted(expected.keys() - present)]
    failures += [f"unexpected output {n}" for n in sorted(present - expected.keys())]
    if failures:
        return failures

    for name, eps in expected.items():
        if name.endswith("audit.json"):
            doc = json.loads((outdir / name).read_text())
            failures += _audit_failures(name, doc, eps, workload.policy_kind)
    if "sweep_summary.csv" in expected:
        rows = (outdir / "sweep_summary.csv").read_text().splitlines()
        if len(rows) != 1 + len(sweep_entries(workload)):
            failures.append(f"sweep_summary.csv has {len(rows) - 1} rows")

    want = references.get(workload.size, {}).get(workload.name, {}).get(str(workload.seed))
    if want is not None:
        got = digest(outdir, list(expected))
        if got != want:
            failures.append(f"output digest {got} != reference {want}")
    return failures
