"""Seeded scenario generator for the benchmark workloads.

Each workload is a scenario JSON document plus the CLI flags it is run
with. The generator depends only on its seed and size, never on the
mimdsim package, so a change to the program cannot change its inputs.

    python3 bench/workloads.py --workload wide_mesh --seed 3 --out /tmp/wide.json
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

# long_haul: criterion 6's trend scenario at eps = 0.05 run for 2 x the
# auditor's duration_threshold of the unperturbed scenario (15,693.5
# rounds), pinned here so no pilot run is needed per invocation. Criterion 6
# itself goes up to 8 x; 2 x keeps one CLI run near 3 s on two cores.
LONG_HAUL_EPS = 0.05
LONG_HAUL_ROUNDS = {"full": 31_387, "tiny": 600}

# wide_mesh: (paths, resources, window span in rounds)
WIDE_MESH_SHAPE = {"full": (300, 50, 500), "tiny": (24, 6, 160)}
WIDE_MESH_EPS = 0.1

# cli_sweep: the README's sweep over the two_path_shared scenario.
CLI_SWEEP_FLAGS = {
    "full": ["--sweep-epsilon", "0.2,0.1,0.05", "--sweep-duration", "1,2,4,8"],
    "tiny": ["--sweep-epsilon", "0.2,0.1", "--sweep-duration", "1"],
}

WORKLOADS = ("long_haul", "wide_mesh", "cli_sweep")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    """One generated input: the scenario document and the CLI flags."""

    name: str
    seed: int
    size: str
    scenario: dict
    flags: list[str]

    @property
    def policy_kind(self) -> str:
        return self.scenario["loss_policy"]["kind"]

    @property
    def epsilon(self) -> float:
        return self.scenario["epsilon"]

    def write(self, path: Path) -> Path:
        path.write_text(json.dumps(self.scenario, indent=2, sort_keys=True) + "\n")
        return path


def _params(epsilon: float, value: float) -> tuple[float, float]:
    # Same arithmetic as mimdsim.audit.theorem_parameters(epsilon, value).
    beta = 1.0 * epsilon
    return epsilon * beta * value, beta


def _const(rid: str, cap: float) -> dict:
    return {"id": rid, "capacity": [{"from_round": 0, "value": cap}]}


def _conn(cid, route, hop_delays, total_delay, value, start, end, start_rate,
          alpha, beta) -> dict:
    return {
        "id": cid, "route": list(route), "value": value, "active": [start, end],
        "total_delay": total_delay, "hop_delays": list(hop_delays),
        "start_rate": start_rate, "alpha": alpha, "beta": beta,
    }


def long_haul(rng: random.Random, size: str) -> tuple[dict, list[str]]:
    """Four paths over three resources, proportional loss, very many rounds.

    The seed scales each capacity and start rate by up to +-10%; the
    topology and delays are criterion 6's.
    """
    alpha, beta = _params(LONG_HAUL_EPS, 1.0)
    end = LONG_HAUL_ROUNDS[size] - 1

    def jitter(x: float) -> float:
        return round(x * rng.uniform(0.9, 1.1), 3)

    resources = [_const(rid, jitter(cap)) for rid, cap in
                 (("r1", 60.0), ("r2", 40.0), ("r3", 50.0))]
    connections = [
        _conn(cid, route, hops, delay, 1.0, 0, end, jitter(f0), alpha, beta)
        for cid, route, delay, hops, f0 in (
            ("pa", ("r1",), 0, (0,), 15.0),
            ("pb", ("r2",), 1, (1,), 15.0),
            ("pc", ("r3",), 0, (0,), 15.0),
            ("pd", ("r1", "r3"), 1, (1, 0), 5.0),
        )
    ]
    scenario = {"resources": resources, "connections": connections,
                "epsilon": LONG_HAUL_EPS, "loss_policy": {"kind": "proportional"}}
    return scenario, []


def wide_mesh(rng: random.Random, size: str) -> tuple[dict, list[str]]:
    """Many multi-hop paths sharing few resources, adversarial loss.

    Routes take 1-4 resources in one global random order, so same-round
    chains (consecutive hops with equal hop delay) can never form a cycle.
    Windows are staggered inside the span, capacities get 0-3 extra steps.
    Route lengths and window lengths depend on the path index only, so the
    path-rounds and cohort-hops are the same for every seed.
    """
    n_paths, n_res, span = WIDE_MESH_SHAPE[size]
    res_ids = [f"r{i:02d}" for i in range(n_res)]
    rank = {rid: i for i, rid in enumerate(rng.sample(res_ids, n_res))}

    resources = []
    for rid in res_ids:
        base = rng.uniform(4.0, 16.0)
        steps = [{"from_round": 0, "value": round(base, 3)}]
        for from_round in sorted(rng.sample(range(1, span), rng.randint(0, 3))):
            steps.append({"from_round": from_round,
                          "value": round(base * rng.uniform(0.5, 1.5), 3)})
        resources.append({"id": rid, "capacity": steps})

    connections = []
    for k in range(n_paths):
        route = sorted(rng.sample(res_ids, 1 + k % 4), key=rank.__getitem__)
        hops = [rng.randint(0, 1)]
        for _ in route[1:]:
            # 0 keeps the next hop in the same round as this one
            hops.append(hops[-1] + rng.choice((0, 0, 1, 2)))
        hops.reverse()
        total_delay = hops[0] + rng.randint(0, 2)
        length = span // 2 + k * (span // 2) // n_paths
        start = rng.randint(0, span - length)
        value = round(rng.uniform(0.2, 1.0), 3)
        alpha, beta = _params(WIDE_MESH_EPS, value)
        connections.append(_conn(
            f"p{k:03d}", route, hops, total_delay, value, start, start + length - 1,
            round(rng.uniform(0.5, 2.0), 3), alpha, beta,
        ))

    policy = {"kind": "adversarial_fair", "seed": rng.randrange(2**31),
              "target_path": rng.choice(connections)["id"]}
    scenario = {"resources": resources, "connections": connections,
                "epsilon": WIDE_MESH_EPS, "loss_policy": policy}
    return scenario, []


def cli_sweep(rng: random.Random, size: str) -> tuple[dict, list[str]]:
    """The README's two_path_shared sweep; the seed scales capacities +-10%
    and picks the adversarial policy seed."""

    def jitter(x: float) -> float:
        return round(x * rng.uniform(0.9, 1.1), 3)

    uplink_hi, uplink_lo, core = jitter(40.0), jitter(15.0), jitter(60.0)
    scenario = {
        "resources": [
            {"id": "uplink", "capacity": [{"from_round": 0, "value": uplink_hi},
                                          {"from_round": 120, "value": uplink_lo}]},
            _const("core", core),
        ],
        "connections": [
            _conn("web", ("uplink", "core"), (1, 0), 2, 1.0, 0, 399, 1.0,
                  *_params(0.2, 1.0)),
            _conn("sync", ("uplink",), (1,), 1, 0.5, 0, 399, 1.0, *_params(0.2, 0.5)),
        ],
        "epsilon": 0.2,
        "loss_policy": {"kind": "adversarial_fair", "seed": rng.randrange(2**31),
                        "target_path": "web"},
    }
    return scenario, list(CLI_SWEEP_FLAGS[size])


GENERATORS = {"long_haul": long_haul, "wide_mesh": wide_mesh, "cli_sweep": cli_sweep}


def generate(name: str, seed: int, size: str = "full") -> Workload:
    """Build workload ``name`` deterministically from ``seed``."""
    rng = random.Random(f"{name}:{size}:{seed}")
    scenario, flags = GENERATORS[name](rng, size)
    return Workload(name, seed, size, scenario, flags)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workload = generate(args.workload, args.seed, args.size)
    workload.write(args.out)
    print(" ".join(["--scenario", str(args.out), *workload.flags]))


if __name__ == "__main__":
    main()
