"""The HiGHS route, solved in the process that runs its entry.

``optimum._highs`` calls the HiGHS extension that scipy ships, without
importing scipy, with the model and options that ``scipy.optimize.linprog(...,
method="highs")`` passes it; linprog stays here as the reference. Only LPs
of more than ``EXACT_MAX_COLUMNS`` weighted paths take this route, so these
tests draw 9-12 paths, and 100-300 at the scale of the widest benchmark.
"""

from __future__ import annotations

import json
import os
import random
import types
from functools import cache
from importlib.machinery import ModuleSpec
from pathlib import Path

import pytest

from conftest import (
    lp_instance,
    random_scenario,
    simple_conn,
    step_resource,
    with_and_without_fork,
)
from mimdsim import optimum
from mimdsim.cli import main
from mimdsim.model import Scenario, emit_scenario, parse_scenario, require_valid
from mimdsim.optimum import OptimumError, solve_opt
from test_unit_free import scaled

REPO = Path(__file__).resolve().parent.parent
SINGLE = REPO / "scenarios" / "single_link.json"


def _wide(rng):
    """An ``lp_instance`` that HiGHS solves: 9-12 weighted paths."""
    return lp_instance(rng, n_paths=rng.randint(9, 12))


def _mesh(rng) -> Scenario:
    """100-300 paths over 50 resources with 0-3 capacity steps each, routes
    of 1-4 hops (same-round chains among them), windows within 500 rounds."""
    resources = []
    for i in range(50):
        rounds = [0, *sorted(rng.sample(range(1, 500), rng.randint(0, 3)))]
        resources.append(step_resource(f"r{i}", [(t, rng.randint(2, 80) / 2.0) for t in rounds]))
    conns = []
    for j in range(rng.randint(100, 300)):
        hops = sorted(rng.sample(range(50), rng.randint(1, 4)))   # keeps transit acyclic
        hop_delays = [rng.randint(0, 3)]
        for _ in hops[1:]:
            hop_delays.append(rng.randint(0, hop_delays[-1]))
        start = rng.randint(0, 400)
        conns.append(simple_conn(
            f"p{j}", tuple(f"r{h}" for h in hops), value=rng.randint(1, 4) / 4.0,
            start=start, end=start + rng.randint(20, 90),
            delay=hop_delays[0] + rng.randint(0, 1), hop_delays=tuple(hop_delays)))
    scenario = Scenario(tuple(resources), tuple(conns), epsilon=0.1)
    require_valid(scenario)
    return scenario


def _wide_file(tmp_path) -> Path:
    path = tmp_path / "wide.json"
    path.write_text(emit_scenario(_wide(random.Random(3))))
    return path


def _nine_flows(tmp_path) -> Path:
    """``single_link.json`` with its connection copied to 9 paths."""
    doc = json.loads(SINGLE.read_text())
    doc["connections"] = [{**doc["connections"][0], "id": f"flow{i}"} for i in range(9)]
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(doc))
    assert not optimum._exact_route(parse_scenario(path.read_text()))
    return path


def _linprog(c_obj, rows, b_ub, n):
    """linprog's status and x for ``_highs``'s problem."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    indices = [j for members in rows for j in members]
    indptr = np.cumsum([0] + [len(members) for members in rows])
    a_ub = csr_array((np.ones(len(indices)), indices, indptr), shape=(len(rows), n))
    res = linprog(np.array(c_obj), A_ub=a_ub, b_ub=np.array(b_ub, dtype=float),
                  bounds=[(0, None)] * n, method="highs")
    return int(res.status), None if res.x is None else res.x.tolist()


def _bits(answer):
    """A status and x, each float by its bits, so 0.0 and -0.0 differ."""
    status, x = answer
    return status, None if x is None else [v.hex() for v in x]


def _assert_highs_matches_linprog(lps) -> None:
    for args in lps:
        status, _, x = optimum._highs(*args)
        assert _bits((status, x)) == _bits(_linprog(*args)), args


def test_highs_answers_equal_linprog_s_bit_for_bit():
    rng = random.Random(0x1F0)
    _assert_highs_matches_linprog([optimum._lp(_wide(rng))[2] for _ in range(100)])


def test_lps_of_100_to_300_columns_over_50_resources_match_linprog_bit_for_bit():
    rng = random.Random(0x3E5)
    lps = [optimum._lp(_mesh(rng))[2] for _ in range(6)]
    assert all(100 <= n <= 300 for *_, n in lps)
    _assert_highs_matches_linprog(lps)


def test_a_wide_solve_writes_nothing_to_stdout_or_stderr(capfd):
    # HiGHS prints its banner to fd 1 when given a model before the quiet options
    solve_opt(_mesh(random.Random(5)))
    assert capfd.readouterr() == ("", "")


def test_highs_runs_with_one_thread_whatever_the_host_s_cpu_count(monkeypatch):
    # at its default of 0 threads HiGHS starts (CPUs + 1) // 2 - 1 worker
    # threads, none on a 2-CPU host, so a thread count alone cannot tell
    core, seen = optimum._highs_core(), []

    class Noting(core._Highs):
        def run(self):
            seen.append(self.getOptions().threads)
            return super().run()

    noting = types.SimpleNamespace(**vars(core))
    noting._Highs = Noting
    monkeypatch.setattr(optimum, "_highs_core", lambda: noting)
    assert optimum._highs(*optimum._lp(_wide(random.Random(1)))[2])[0] == 0
    assert seen == [1]


def test_an_unbounded_lp_has_linprog_s_status():
    # column 1 meets no row
    lp = ([-1.0, -1.0], [(0,)], [1.0], 2)
    assert optimum._highs(*lp) == (3, "unbounded", None)
    _assert_highs_matches_linprog([lp])


def test_lps_scaled_by_2_to_the_minus_20_match_linprog_bit_for_bit():
    # the draws HiGHS once overshot at this scale, and a 9-path instance
    rng = random.Random(11)
    draws = [random_scenario(rng) for _ in range(120)]
    scenarios = [draws[i] for i in (17, 27, 37, 40, 42, 74, 119)]
    scenarios.append(lp_instance(random.Random(3), n_paths=9))
    _assert_highs_matches_linprog([optimum._lp(scaled(sc, 2.0**-20))[2] for sc in scenarios])


def _find_scipy_in(monkeypatch, spec) -> None:
    """Point ``_highs_core``, uncached, at ``spec`` for scipy."""
    import importlib.util

    monkeypatch.setattr(optimum, "_highs_core", cache(optimum._highs_core.__wrapped__))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)


def test_a_missing_highs_extension_is_named_and_exits_3(monkeypatch, tmp_path, capsys):
    empty = tmp_path / "scipy"
    empty.mkdir()
    spec = ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(empty)]
    _find_scipy_in(monkeypatch, spec)
    sc = _wide(random.Random(3))
    with pytest.raises(OptimumError, match=r"cannot load scipy\.optimize\._highspy\._core: "
                       r"no .*/scipy/optimize/_highspy/_core\{"):
        solve_opt(sc)

    assert main(["--scenario", str(_wide_file(tmp_path)), "--mode", "opt",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load scipy.optimize._highspy._core: no ")
    assert err.count("\n") == 1

    _find_scipy_in(monkeypatch, None)
    with pytest.raises(OptimumError, match="scipy is not installed"):
        solve_opt(sc)


def test_a_solve_that_highs_does_not_finish_exits_3_with_one_error_line(
        monkeypatch, tmp_path, capsys):
    core = optimum._highs_core()

    class Limited(core._Highs):
        def run(self):
            self.setOptionValue("presolve", "off")
            self.setOptionValue("simplex_iteration_limit", 0)
            return super().run()

    limited = types.SimpleNamespace(**vars(core))
    limited._Highs = Limited
    monkeypatch.setattr(optimum, "_highs_core", lambda: limited)
    assert main(["--scenario", str(_wide_file(tmp_path)), "--mode", "opt",
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "error: LP solve failed with status 4: Iteration limit reached\n")


def test_a_sweep_of_wide_lps_matches_an_unforked_one(monkeypatch, tmp_path, capsys):
    forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys, [
        "--scenario", str(_nine_flows(tmp_path)), "--sweep-duration", "0.05,0.1,0.2"])
    # 4 entries of 10 CSVs and 2 JSON files, 3 subdirectories, the summary
    assert forked[0] == 0 and len(forked[3]) == 4 * 12 + 3 + 1
    assert forked == unforked


@pytest.mark.parametrize("sweep, solves", [([], 1), (["--sweep-duration", "1"], 2)],
                         ids=["one entry", "sweep of one"])
def test_no_process_forks_after_its_first_highs_call(monkeypatch, tmp_path, sweep, solves):
    # a fork copies only the calling thread; HiGHS starts none with optimum's
    # one-thread option (pinned above, and test_cli checks a solving process
    # runs one thread), and no fork rests on that
    log = tmp_path / "calls"
    fork, highs = os.fork, optimum._highs

    def note(event: str) -> None:
        with log.open("a") as f:
            f.write(f"{os.getpid()} {event}\n")

    def noting_fork() -> int:
        note("fork")
        return fork()

    def noting_highs(*args):
        note("highs")
        return highs(*args)

    monkeypatch.setattr(os, "fork", noting_fork)
    monkeypatch.setattr(optimum, "_highs", noting_highs)
    assert main(["--scenario", str(_nine_flows(tmp_path)), "--out", str(tmp_path / "o"),
                 *sweep]) == 0
    events: dict[str, list[str]] = {}
    for line in log.read_text().splitlines():
        pid, event = line.split()
        events.setdefault(pid, []).append(event)
    # this process forks once, for its export child or its sweep child, and
    # each entry's LP is solved where the entry runs
    assert events[str(os.getpid())].count("fork") == 1
    assert sum(seen.count("highs") for seen in events.values()) == solves
    for pid, seen in events.items():
        if "highs" in seen:
            assert "fork" not in seen[seen.index("highs"):], pid
