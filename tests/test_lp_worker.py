"""The forked LP worker: same answers as in-process, reaped on every path,
and solver failures in it surface as OptimumError."""

from __future__ import annotations

import json
import os
import random
import re
import signal
from pathlib import Path

import pytest

from conftest import assert_no_child_processes, lp_instance, random_scenario
from mimdsim import optimum
from mimdsim.cli import main
from mimdsim.optimum import OptimumError, lp_worker, solve_opt

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SINGLE = SCENARIOS / "single_link.json"
SHARED = SCENARIOS / "two_path_shared.json"


def _failing_highs(*args):
    raise RuntimeError(f"highs failed in pid {os.getpid()}")


def _dying_highs(*args):
    os._exit(7)


def _dying_serve(requests, results):
    os.kill(os.getpid(), signal.SIGKILL)


def _outcome(sc):
    try:
        sol = solve_opt(sc)
    except OptimumError as exc:
        return type(exc), str(exc)
    return sol.rates, sol.opt_value, sol.tight_constraints


def test_worker_solutions_equal_in_process_solutions_exactly():
    rng = random.Random(0x1F0)
    scenarios = [lp_instance(rng) for _ in range(40)] + [random_scenario(rng) for _ in range(40)]
    want = [_outcome(sc) for sc in scenarios]
    with lp_worker():
        got = [_outcome(sc) for sc in scenarios]
    assert got == want
    assert sum(1 for o in want if len(o) == 3) >= 60


def test_worker_is_reaped_after_a_normal_run(tmp_path):
    assert main(["--scenario", str(SHARED), "--out", str(tmp_path / "o")]) == 0
    assert_no_child_processes()


def test_worker_is_reaped_after_a_runtime_failure(tmp_path, capsys):
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": 0.0}]
    doc["connections"][0].update(alpha=0.001, beta=0.99, start_rate=1.0)
    sc = tmp_path / "underflow.json"
    sc.write_text(json.dumps(doc))
    assert main(["--scenario", str(sc), "--out", str(tmp_path / "o")]) == 3
    assert "non-positive send rate" in capsys.readouterr().err
    assert_no_child_processes()


def test_worker_is_reaped_after_a_validation_failure(tmp_path, capsys):
    doc = json.loads(SINGLE.read_text())
    doc["connections"][0]["alpha"] = doc["connections"][0]["beta"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "alpha must be < beta" in capsys.readouterr().err
    assert_no_child_processes()


def test_a_solver_error_in_the_worker_is_an_optimum_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(optimum, "_highs", _failing_highs)
    sc = lp_instance(random.Random(3))
    with lp_worker():
        with pytest.raises(OptimumError, match="highs failed in pid") as info:
            solve_opt(sc)
    assert int(re.search(r"pid (\d+)", str(info.value)).group(1)) != os.getpid()

    assert main(["--scenario", str(SINGLE), "--mode", "opt", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: LP worker failed") and "Traceback" not in err
    assert_no_child_processes()


def test_a_worker_that_dies_is_an_optimum_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(optimum, "_highs", _dying_highs)
    assert main(["--scenario", str(SINGLE), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("error: LP worker died")
    assert_no_child_processes()


def test_a_worker_that_dies_idle_under_a_clean_block_exits_3(monkeypatch, tmp_path, capsys):
    # with every value 0 the run sends the worker no request, so its death
    # shows only in its exit status
    doc = json.loads(SINGLE.read_text())
    doc["connections"][0]["value"] = 0.0
    sc = tmp_path / "zero.json"
    sc.write_text(json.dumps(doc))
    monkeypatch.setattr(optimum, "_serve", _dying_serve)
    assert main(["--scenario", str(sc), "--mode", "opt", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: LP worker failed: exit code -9\n"
    assert_no_child_processes()
