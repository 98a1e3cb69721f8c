"""The forked LP worker: same answers as in-process, reaped on every path,
and a failure in it ends a CLI run with one ``error: LP worker failed``
line. It solves only LPs of more than ``EXACT_MAX_COLUMNS`` weighted paths,
so these tests draw 9-12 paths; below that no worker is forked at all."""

from __future__ import annotations

import json
import math
import os
import random
import re
import signal
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    assert_no_child_processes,
    constant_resource,
    lp_instance,
    with_and_without_fork,
)
from mimdsim import optimum
from mimdsim.cli import main
from mimdsim.model import emit_scenario, parse_scenario
from mimdsim.optimum import OptimumError, lp_worker, solve_opt

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SINGLE = SCENARIOS / "single_link.json"
SHARED = SCENARIOS / "two_path_shared.json"


def _failing_highs(*args):
    raise RuntimeError(f"highs failed in pid {os.getpid()}")


def _dying_highs(*args):
    os._exit(7)


def _dying_solve_all(scenarios):
    os.kill(os.getpid(), signal.SIGKILL)


def _wide(rng):
    """An ``lp_instance`` that HiGHS solves: 9-12 weighted paths."""
    return lp_instance(rng, n_paths=rng.randint(9, 12))


def _wide_file(tmp_path, sc=None):
    path = tmp_path / "wide.json"
    path.write_text(emit_scenario(sc or _wide(random.Random(3))))
    return path


def _nine_flows(**fields):
    """``single_link.json``'s document with its connection copied to 9 paths."""
    doc = json.loads(SINGLE.read_text())
    flow = {**doc["connections"][0], **fields}
    doc["connections"] = [{**flow, "id": f"flow{i}"} for i in range(9)]
    return doc


def _outcome(sc):
    try:
        sol = solve_opt(sc)
    except OptimumError as exc:
        return type(exc), str(exc)
    return sol.rates, sol.opt_value, sol.tight_constraints


def test_worker_solutions_equal_in_process_solutions_exactly():
    rng = random.Random(0x1F0)
    scenarios = [_wide(rng) for _ in range(80)]
    assert not any(map(optimum._exact_route, scenarios))
    want = [_outcome(sc) for sc in scenarios]
    with lp_worker(scenarios):
        assert optimum._solved is not None
        got = [_outcome(sc) for sc in scenarios]
    assert got == want
    assert sum(1 for o in want if len(o) == 3) >= 60


def test_worker_is_reaped_after_a_normal_run(tmp_path):
    assert main(["--scenario", str(_wide_file(tmp_path)), "--out", str(tmp_path / "o")]) == 0
    assert_no_child_processes()


def _mark_worker_starts(monkeypatch, marker: Path) -> None:
    """Make every LP worker write ``marker`` as it starts."""
    solve_all = optimum._solve_all

    def marking_solve_all(scenarios):
        marker.write_text("LP worker started")
        return solve_all(scenarios)

    monkeypatch.setattr(optimum, "_solve_all", marking_solve_all)


def test_no_worker_is_forked_when_every_lp_is_solved_exactly(monkeypatch, tmp_path):
    marker = tmp_path / "forked"
    _mark_worker_starts(monkeypatch, marker)
    assert main(["--scenario", str(SHARED), "--out", str(tmp_path / "o")]) == 0
    assert main(["--scenario", str(SHARED), "--out", str(tmp_path / "s"),
                 "--sweep-duration", "1,2"]) == 0
    assert not marker.exists()
    assert main(["--scenario", str(_wide_file(tmp_path)), "--out", str(tmp_path / "w")]) == 0
    assert marker.exists()


def test_a_sweep_of_wide_lps_forks_no_worker_and_matches_an_unforked_one(
        monkeypatch, tmp_path, capsys):
    # each entry's LP goes to HiGHS in the process that runs the entry
    marker = tmp_path / "worker_started"
    _mark_worker_starts(monkeypatch, marker)
    sc = tmp_path / "nine.json"
    sc.write_text(json.dumps(_nine_flows()))
    assert not optimum._exact_route(parse_scenario(sc.read_text()))
    forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys, [
        "--scenario", str(sc), "--sweep-duration", "0.05,0.1,0.2"])
    # 4 entries of 10 CSVs and 2 JSON files, 3 subdirectories, the summary
    assert forked[0] == 0 and len(forked[3]) == 4 * 12 + 3 + 1
    assert not marker.exists()
    assert forked == unforked


def test_worker_is_reaped_after_a_runtime_failure(tmp_path, capsys):
    doc = _nine_flows(alpha=0.001, beta=0.99, start_rate=1.0)
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": 0.0}]
    sc = tmp_path / "underflow.json"
    sc.write_text(json.dumps(doc))
    assert main(["--scenario", str(sc), "--out", str(tmp_path / "o")]) == 3
    assert "non-positive send rate" in capsys.readouterr().err
    assert_no_child_processes()


def test_worker_is_reaped_after_a_validation_failure(tmp_path, capsys):
    doc = _nine_flows()
    doc["connections"][0]["alpha"] = doc["connections"][0]["beta"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "alpha must be < beta" in capsys.readouterr().err
    assert_no_child_processes()


def test_a_solver_error_in_the_worker_is_named_and_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(optimum, "_highs", _failing_highs)
    sc = _wide(random.Random(3))
    with pytest.raises(OSError, match="^LP worker failed: RuntimeError: highs failed in pid"):
        with lp_worker([sc]):
            with pytest.raises(OSError, match="highs failed in pid") as info:
                solve_opt(sc)
    assert int(re.search(r"pid (\d+)", str(info.value)).group(1)) != os.getpid()

    wide = str(_wide_file(tmp_path, sc))
    assert main(["--scenario", wide, "--mode", "opt", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: LP worker failed: RuntimeError: highs failed in pid \d+\n", err)
    assert_no_child_processes()


def test_a_worker_that_dies_while_awaited_exits_3_with_one_error_line(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(optimum, "_highs", _dying_highs)
    assert main(["--scenario", str(_wide_file(tmp_path)), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: LP worker failed: exit code 7\n"
    assert_no_child_processes()


def test_a_worker_that_dies_idle_under_a_clean_block_exits_3(monkeypatch, tmp_path, capsys):
    # with no finite capacity the 9-path LP is unbounded before any solve,
    # so the run never waits for the worker's answers and its death shows
    # only in its exit status
    sc = _wide(random.Random(3))
    sc = replace(sc, resources=tuple(constant_resource(r.id, math.inf) for r in sc.resources))
    monkeypatch.setattr(optimum, "_solve_all", _dying_solve_all)
    assert main(["--scenario", str(_wide_file(tmp_path, sc)), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "warning: optimum not computed: unbounded: path 'p0' meets no finite capacity\n"
        "error: LP worker failed: exit code -9\n")
    assert_no_child_processes()
