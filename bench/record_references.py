"""Record the output digests that gate.py compares against.

    python3 bench/record_references.py --seeds 0-19 --size full

Runs the CLI once per workload and seed, checks the outputs' invariants,
and stores the digest in references.json (other entries are kept). Re-run
it only when a change alters the deterministic outputs on purpose.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import gate
from run import WORK, Runner, spawn
from workloads import SIZES, WORKLOADS, generate


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-19")
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--workload", choices=WORKLOADS, nargs="*", default=WORKLOADS)
    args = parser.parse_args()

    references = gate.load_references()
    work = WORK / "record"
    for name in args.workload:
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            workload = generate(name, seed, args.size)
            out = work / "out"
            runner = Runner(workload, work)
            sample = spawn([sys.executable, "-m", "mimdsim", *runner.cli_flags(out)],
                           work / "cli.log")
            failures = ([f"exit {sample.exit}"] if sample.exit
                        else gate.check(out, workload, {}))
            if failures:
                print(f"{name} seed {seed}: {failures}", file=sys.stderr)
                return 1
            value = gate.digest(out, list(gate.expected_files(workload)))
            references.setdefault(args.size, {}).setdefault(name, {})[str(seed)] = value
            print(f"{args.size} {name} seed {seed}: {value}")
    shutil.rmtree(work, ignore_errors=True)
    gate.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
