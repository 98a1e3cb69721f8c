"""The CLI is a thin shell: outputs must match direct library calls byte-for-byte."""

from __future__ import annotations

import ast
import inspect
import json
import math
import os
import pickle
import random
import runpy
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from conftest import (
    chunks_of,
    constant_resource,
    random_scenario,
    record_forks,
    simple_conn,
    step_resource,
    tree,
    with_and_without_fork,
)
from mimdsim import audit, kernel, optimum
from mimdsim.audit import BandwidthTestError
from mimdsim.cli import UsageError, _sweep_variant, main
from mimdsim.kernel import KernelError
from mimdsim.model import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    Violation,
    emit_scenario,
    parse_scenario,
)
from mimdsim.optimum import OptimumError, UnboundedOptimumError
from mimdsim.protocol import ProtocolError
from test_highs import _nine_flows

REPO = Path(__file__).resolve().parent.parent
SINGLE = REPO / "scenarios" / "single_link.json"
SHARED = REPO / "scenarios" / "two_path_shared.json"
BWPAIR = REPO / "scenarios" / "bwtest_pair.json"


def test_simulate_outputs_match_library_byte_for_byte(tmp_path):
    cli_dir = tmp_path / "cli"
    lib_dir = tmp_path / "lib"
    assert main(["--scenario", str(SHARED), "--out", str(cli_dir)]) == 0

    scenario = parse_scenario(SHARED.read_text())
    trace = kernel.run(scenario)
    kernel.export_trace(trace, lib_dir)
    solution = optimum.solve_opt(scenario)
    optimum.export_solution(solution, lib_dir / "optimum.json")
    audit.export_report(audit.competitive_ratio(trace, solution), lib_dir / "audit.json")

    cli_files = sorted(p.name for p in cli_dir.iterdir())
    lib_files = sorted(p.name for p in lib_dir.iterdir())
    assert cli_files == lib_files
    for name in cli_files:
        assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes(), name


def test_exit_zero_and_expected_files_on_happy_path(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", str(SINGLE), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"path_flow.csv", "resource_link.csv", "optimum.json", "audit.json"}


def test_validation_failure_exits_2_and_names_the_connection(tmp_path, capsys):
    doc = json.loads(SINGLE.read_text())
    doc["connections"][0]["alpha"] = doc["connections"][0]["beta"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha must be < beta" in err and "flow" in err


@pytest.mark.parametrize("start_rate,alpha,beta", [
    (5e-324, 0.25, 0.5),   # (1 + alpha) * start_rate rounds back to start_rate
    (2e-323, 0.5, 0.6),    # (beta - alpha) * start_rate rounds to 0
], ids=["cannot-grow", "log-term-underflows"])
def test_a_start_rate_too_small_for_the_rate_rule_exits_2_with_one_error_line(
        tmp_path, capsys, start_rate, alpha, beta):
    doc = {"resources": [], "epsilon": 0.1, "loss_policy": {"kind": "proportional"},
           "connections": [{"id": "flow", "route": [], "hop_delays": [], "total_delay": 0,
                            "active": [0, 0], "value": 1.0, "start_rate": start_rate,
                            "alpha": alpha, "beta": beta}]}
    sc = tmp_path / "tiny.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--scenario", str(sc), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: invalid scenario: connection 'flow': start_rate {start_rate!r} is too small: "
        "(1 + alpha) * start_rate must exceed it and (beta - alpha) * start_rate must not "
        "round to 0\n"))
    assert not out.exists()


@pytest.mark.parametrize("value", [
    5e-324,   # beta * value rounds to 0
    1e-322,   # only epsilon ** 2 * beta * value rounds to 0
], ids=["per-path-c-underflows", "threshold-underflows"])
def test_a_value_too_small_for_the_audit_exits_2_with_one_error_line(tmp_path, capsys, value):
    # the path grows past its start rate, so the audit reaches both divisions
    doc = {"resources": [], "epsilon": 0.1, "loss_policy": {"kind": "proportional"},
           "connections": [{"id": "flow", "route": [], "hop_delays": [], "total_delay": 0,
                            "active": [0, 3], "value": value, "start_rate": 1.0,
                            "alpha": 0.25, "beta": 0.5}]}
    sc = tmp_path / "tiny.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--scenario", str(sc), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: invalid scenario: connection 'flow': value {value!r} is too small: "
        "beta * value and epsilon ** 2 * beta * value must not round to 0\n"))
    assert not out.exists()


def test_parse_failure_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"resources": [}')
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"\xff{}",
    b"[" * 200_000,
    SINGLE.read_bytes().replace(b'"epsilon": 0.1', b'"epsilon": ' + b"1" * 5000),
    SINGLE.read_bytes().replace(b'"start_rate": 1.0', b'"start_rate": 1' + b"0" * 400),
], ids=["not_utf8", "deep", "long_int", "huge_int"])
def test_a_malformed_scenario_file_exits_2_with_one_error_line(tmp_path, capsys, content):
    bad, out = tmp_path / "bad.json", tmp_path / "o"
    bad.write_bytes(content)
    assert main(["--scenario", str(bad), "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert not out.exists()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def test_opt_mode_writes_solution(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", str(SINGLE), "--mode", "opt", "--out", str(out)]) == 0
    doc = json.loads((out / "optimum.json").read_text())
    assert doc["opt_value"] == pytest.approx(100.0 * 2000)
    assert doc["rates"]["flow"] == pytest.approx(100.0)


def test_opt_mode_unbounded_exits_3(tmp_path, capsys):
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": "inf"}]
    sc = tmp_path / "unbounded.json"
    sc.write_text(json.dumps(doc))
    assert main(["--scenario", str(sc), "--mode", "opt", "--out", str(tmp_path / "o")]) == 3
    assert "unbounded" in capsys.readouterr().err


def test_opt_mode_solves_a_finite_capacity_of_1e21(tmp_path, capsys):
    # HiGHS reads bounds at or above 1e20 as infinite; the exact route has
    # no such cut-off
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": 1e21}]
    sc = tmp_path / "huge.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["--scenario", str(sc), "--mode", "opt", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "optimum.json").read_text())
    assert doc["rates"] == {"flow": 1e21}
    assert doc["opt_value"] == 1e21 * 2000


def test_rate_underflow_exits_3_and_names_the_path(tmp_path, capsys):
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": 0.0}]
    doc["connections"][0].update(alpha=0.001, beta=0.99, start_rate=1.0)
    sc = tmp_path / "underflow.json"
    sc.write_text(json.dumps(doc))
    assert main(["--scenario", str(sc), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "path 'flow' round 166" in err and "non-positive send rate" in err


def test_rate_overflow_exits_3_and_names_the_path(tmp_path, capsys):
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": "inf"}]
    doc["connections"][0].update(alpha=0.5, beta=0.9, start_rate=1.0, active=[0, 1999])
    sc = tmp_path / "overflow.json"
    sc.write_text(json.dumps(doc))
    assert main(["--scenario", str(sc), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr() == (
        "", "error: path 'flow' round 1751: send rate overflowed to inf\n"
    )


def test_adversarial_split_past_1e154_exits_0_and_conserves_loss(tmp_path):
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": 1e160}]
    flow = doc["connections"][0]
    flow["start_rate"] = 1e160
    doc["connections"].append({**flow, "id": "other"})
    doc["loss_policy"] = {"kind": "adversarial_fair", "target_path": "flow"}
    sc = tmp_path / "huge.json"
    sc.write_text(json.dumps(doc))
    assert main(["--scenario", str(sc), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "audit.json").read_text())
    assert report["total_lost_paths"] > 0
    assert math.isclose(report["total_lost_paths"], report["total_lost_resources"], rel_tol=1e-9)


def test_an_id_with_a_trailing_newline_exits_2_before_anything_is_written(tmp_path, capsys):
    doc = json.loads(SINGLE.read_text())
    doc["connections"][0]["id"] = "flow\n"
    sc = tmp_path / "newline.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--scenario", str(sc), "--out", str(out)]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "connection 'flow\\n': id must match [A-Za-z0-9_.-]+" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["simulate", "audit", "opt", "bwtest"])
def test_a_horizon_too_long_to_allocate_exits_2_before_anything_is_written(
        tmp_path, capsys, mode):
    doc = json.loads(SINGLE.read_text())
    doc["connections"][0]["active"] = [0, 10**400]
    sc = tmp_path / "long.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--scenario", str(sc), "--out", str(out), "--mode", mode]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: invalid scenario: connection 'flow': end + total_delay "
                          "must not pass round ") and len(err.splitlines()) == 1
    assert not out.exists()


def _dipping_link(tmp_path: Path) -> Path:
    """A link of capacity 1e-300 for rounds 0-4 and unlimited after it, and
    one path over rounds 3-9 at start rate 1e300: a fixed rate must fit the
    dip, so the optimum is about 7e-300 and the competitive ratio is inf."""
    doc = {"resources": [{"id": "r", "capacity": [{"from_round": 0, "value": 1e-300},
                                                  {"from_round": 5, "value": "inf"}]}],
           "connections": [{"id": "p", "route": ["r"], "value": 1.0, "active": [3, 9],
                            "total_delay": 0, "hop_delays": [0], "start_rate": 1e300,
                            "alpha": 0.05, "beta": 0.5}],
           "epsilon": 0.5, "loss_policy": {"kind": "proportional"}}
    sc = tmp_path / "dip.json"
    sc.write_text(json.dumps(doc))
    return sc


@pytest.mark.parametrize("mode", ["simulate", "audit"])
def test_an_infinite_competitive_ratio_exits_3_and_writes_no_audit_json(
        tmp_path, capsys, mode):
    out = tmp_path / "out"
    assert main(["--scenario", str(_dipping_link(tmp_path)), "--out", str(out),
                 "--mode", mode]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == (f"error: cannot write {out / 'audit.json'}: "
                                    "Out of range float values are not JSON compliant: inf\n")
    assert not (out / "audit.json").exists()
    if mode == "simulate":   # the optimum itself is finite, and written first
        assert json.loads((out / "optimum.json").read_text())["opt_value"] > 0.0


@pytest.mark.parametrize("mode,name", [("opt", "optimum.json"),
                                       ("bwtest", "bandwidth_test.json")])
def test_a_non_finite_number_in_any_json_output_exits_3_and_writes_no_file(
        tmp_path, monkeypatch, capsys, mode, name):
    monkeypatch.setattr(optimum, "solve_opt",
                        lambda sc: optimum.OptimumSolution({"link": math.inf}, math.inf, ()))
    monkeypatch.setattr(audit, "bandwidth_test",
                        lambda sc: {"estimate": math.nan, "opt_rate": None})
    out = tmp_path / "out"
    assert main(["--scenario", str(SINGLE), "--out", str(out), "--mode", mode]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / name}: ") and len(err.splitlines()) == 1
    assert not (out / name).exists()


def test_simulate_still_runs_when_opt_is_unbounded(tmp_path, capsys):
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": "inf"}]
    sc = tmp_path / "unbounded.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--scenario", str(sc), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "unbounded" in captured.err
    report = json.loads((out / "audit.json").read_text())
    assert report["opt_value"] is None and report["competitive_ratio"] is None
    assert (out / "path_flow.csv").exists()
    assert not (out / "optimum.json").exists()


def test_audit_mode_prints_summary(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--scenario", str(SINGLE), "--mode", "audit", "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"audit.json"}
    assert capsys.readouterr().out.startswith("ratio=")


def test_sweep_writes_subdirectories_and_summary(tmp_path):
    out = tmp_path / "out"
    code = main([
        "--scenario", str(SHARED), "--out", str(out),
        "--sweep-epsilon", "0.2,0.1", "--sweep-duration", "0.25,0.5",
    ])
    assert code == 0
    subdirs = {p.name for p in out.iterdir() if p.is_dir()}
    assert subdirs == {"eps0.2_dur0.25", "eps0.2_dur0.5", "eps0.1_dur0.25", "eps0.1_dur0.5"}
    for sub in subdirs:
        assert (out / sub / "audit.json").exists()
    lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,duration,ratio,eps_hat"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert [(float(r[0]), float(r[1])) for r in rows] == [
        (0.1, 0.25), (0.1, 0.5), (0.2, 0.25), (0.2, 0.5),
    ]
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0 + 1e-9


SWEEP_2X2 = ["--sweep-epsilon", "0.2,0.1", "--sweep-duration", "0.25,0.5"]


def _appending_log(path: Path) -> int:
    """A descriptor that the CLI process and its forked sweep child both
    append whole lines to."""
    return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)


def test_each_sweep_entry_runs_its_kernel_lp_and_export_in_one_process(tmp_path, monkeypatch):
    log = tmp_path / "calls.log"
    fd = _appending_log(log)
    for module, attr in ((kernel, "run"), (kernel, "export_trace"), (optimum, "solve_opt")):
        def recording(*args, _inner=getattr(module, attr), _name=attr, **kwargs):
            os.write(fd, f"{os.getpid()} {_name}\n".encode())
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, attr, recording)
    try:
        assert main(["--scenario", str(SHARED), "--out", str(tmp_path / "out")] + SWEEP_2X2) == 0
    finally:
        os.close(fd)
    per_process: dict[str, list[str]] = {}
    for pid, name in (line.split() for line in log.read_text().splitlines()):
        per_process.setdefault(pid, []).append(name)
    # both processes take part, each running an entry's kernel, export and
    # LP before the next entry's kernel
    assert len(per_process) == 2
    for names in per_process.values():
        assert names == ["run", "export_trace", "solve_opt"] * (len(names) // 3)
    assert sum(map(len, per_process.values())) == 3 * 5


def test_each_sweep_trace_is_dropped_before_the_next_kernel(tmp_path, monkeypatch):
    log = tmp_path / "alive.log"
    fd = _appending_log(log)
    refs: list[weakref.ref] = []
    inner = kernel.run

    def run_and_watch(scenario, **kwargs):
        os.write(fd, f"{os.getpid()} {sum(ref() is not None for ref in refs)}\n".encode())
        trace = inner(scenario, **kwargs)
        refs.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(kernel, "run", run_and_watch)
    try:
        assert main(["--scenario", str(SHARED), "--out", str(tmp_path / "out")] + SWEEP_2X2) == 0
    finally:
        os.close(fd)
    alive_at_start = [line.split() for line in log.read_text().splitlines()]
    assert [alive for _, alive in alive_at_start] == ["0"] * 5
    assert len({pid for pid, _ in alive_at_start}) == 2


@pytest.mark.parametrize("flags, forking, forks, solves", [
    ([], True, 1, 1),                                    # streamed by an export child
    ([], False, 0, 1),
    (SWEEP_2X2, True, 1, 5),                             # both processes of a sweep
    (["--mode", "audit"], True, 0, 1),
    (["--mode", "bwtest", "--scenario", str(BWPAIR)], True, 0, 1),
], ids=["streamed", "unforked", "sweep", "audit", "bwtest"])
def test_every_lp_is_solved_once_its_trace_and_mapping_are_released(
        tmp_path, monkeypatch, flags, forking, forks, solves):
    log = tmp_path / "alive.log"
    fd = _appending_log(log)
    refs: list[weakref.ref] = []
    run, solve = kernel.run, optimum.solve_opt

    def run_and_watch(scenario, **kwargs):
        trace = run(scenario, **kwargs)
        mapping = next(iter(trace.paths.values())).sent.obj
        refs.extend((weakref.ref(trace), weakref.ref(mapping)))
        return trace

    def solve_and_note(scenario):
        alive = sum(ref() is not None for ref in refs)
        os.write(fd, f"{os.getpid()} {len(refs)} {alive}\n".encode())
        return solve(scenario)

    monkeypatch.setattr(kernel, "run", run_and_watch)
    monkeypatch.setattr(optimum, "solve_opt", solve_and_note)
    if not forking:
        monkeypatch.delattr(os, "fork")
    pids = record_forks(monkeypatch) if forking else []
    try:
        assert main(["--scenario", str(SHARED), "--out", str(tmp_path / "out"), *flags]) == 0
    finally:
        os.close(fd)
    assert len(pids) == forks
    notes = [line.split() for line in log.read_text().splitlines()]
    assert len(notes) == solves
    assert len({pid for pid, _, _ in notes}) == (2 if solves > 1 else 1)
    # each solve comes after its entry's kernel, with no trace or mapping left
    for _, watched, alive in notes:
        assert int(watched) >= 2 and alive == "0"


def _failing_lp(monkeypatch, failing) -> str:
    """Make ``optimum.solve_opt`` raise ``OptimumError`` on each scenario
    for which ``failing(scenario)`` holds; returns the error line."""
    solve = optimum.solve_opt

    def solve_or_fail(scenario):
        if failing(scenario):
            raise OptimumError("injected LP failure")
        return solve(scenario)

    monkeypatch.setattr(optimum, "solve_opt", solve_or_fail)
    return "error: injected LP failure\n"


_SHARED_CSVS = ["path_sync.csv", "path_web.csv", "resource_core.csv", "resource_uplink.csv"]


def test_an_lp_failure_keeps_the_finished_kernels_csvs_alone(tmp_path, monkeypatch, capsys):
    error = _failing_lp(monkeypatch, lambda scenario: True)
    forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys,
                                             ["--scenario", str(SHARED)])
    assert forked[:3] == (3, "", error) and sorted(forked[3]) == _SHARED_CSVS
    assert forked == unforked


def test_an_lp_failure_mid_sweep_keeps_that_entrys_csvs_alone(tmp_path, monkeypatch, capsys):
    # the last entry, in the sweep child's share, fails its LP; the entries
    # before it are whole
    last = _sweep_variant(parse_scenario(SHARED.read_text()), 0.1, 0.5)
    error = _failing_lp(monkeypatch, lambda scenario: scenario == last)
    forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys,
                                             ["--scenario", str(SHARED), *SWEEP_2X2])
    code, out, err, files = forked
    assert code == 3 and out.startswith("ratio=") and out.count("\n") == 1 and err == error
    whole = [*_SHARED_CSVS, "audit.json", "optimum.json"]
    done = ["eps0.2_dur0.25", "eps0.2_dur0.5", "eps0.1_dur0.25"]
    assert set(files) == {*whole, *done, "eps0.1_dur0.5",
                          *(f"{entry}/{name}" for entry in done for name in whole),
                          *(f"eps0.1_dur0.5/{name}" for name in _SHARED_CSVS)}
    assert forked == unforked


def test_a_kernel_failure_mid_sweep_finishes_the_earlier_entries(tmp_path, capsys):
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": 0.0}]
    doc["connections"][0].update(alpha=0.001, beta=0.99, active=[0, 99])
    sc = tmp_path / "underflow.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    # 100 and 100 rounds finish; the 400-round entry underflows at round 166
    assert main(["--scenario", str(sc), "--out", str(out), "--sweep-duration", "1,4,2"]) == 3

    scenario = parse_scenario(sc.read_text())
    base = audit.competitive_ratio(kernel.run(scenario), optimum.solve_opt(scenario))
    assert capsys.readouterr() == (
        audit.summary_line(base) + "\n",
        "error: path 'flow' round 166: non-positive send rate 0.0\n",
    )
    run_files = {"path_flow.csv", "resource_link.csv", "optimum.json", "audit.json"}
    assert {p.name for p in out.iterdir()} - {"eps0.1_dur4"} == run_files | {"eps0.1_dur1"}
    assert {p.name for p in (out / "eps0.1_dur1").iterdir()} == run_files
    for name in run_files:
        assert (out / "eps0.1_dur1" / name).read_bytes() == (out / name).read_bytes(), name
    assert not (out / "eps0.1_dur4" / "audit.json").exists()


def _with_an_unbounded_probe(scenario):
    """Adds a path whose link is uncapped until round 20: the optimum is
    unbounded at duration multiplier 1 and bounded at 3."""
    return scenario._replace(
        resources=scenario.resources + (step_resource("open", [(0, float("inf")), (20, 5.0)]),),
        connections=scenario.connections + (simple_conn("probe", ("open",), value=0.5, end=9),),
    )


def _library_sweep(scenario, out: Path, eps_values, durations) -> tuple[str, str]:
    """A sweep from library calls, each entry written in full before the
    next starts; returns the stdout and stderr the CLI should print."""
    entries = [(scenario, out, None)]
    for eps in eps_values:
        for dur in durations:
            variant = _sweep_variant(scenario, eps, dur)
            entries.append((variant, out / f"eps{variant.epsilon:g}_dur{dur:g}", dur))
    stdout = stderr = ""
    rows = []
    for variant, sub, dur in entries:
        trace = kernel.run(variant)
        kernel.export_trace(trace, sub)
        try:
            solution = optimum.solve_opt(variant)
            optimum.export_solution(solution, sub / "optimum.json")
        except UnboundedOptimumError as exc:
            solution = None
            stderr += f"warning: optimum not computed: {exc}\n"
        report = audit.competitive_ratio(trace, solution)
        audit.export_report(report, sub / "audit.json")
        if dur is None:
            stdout += audit.summary_line(report) + "\n"
        else:
            ratio = "" if report.competitive_ratio is None else repr(report.competitive_ratio)
            rows.append((variant.epsilon, dur,
                         f"{variant.epsilon!r},{dur!r},{ratio},{report.measured_epsilon_hat!r}"))
    rows.sort(key=lambda row: (row[0], row[1]))
    (out / "sweep_summary.csv").write_text(
        "\n".join(["epsilon,duration,ratio,eps_hat"] + [row[2] for row in rows]) + "\n"
    )
    return stdout, stderr


def test_sweeps_write_what_per_entry_library_calls_write(tmp_path, capsys):
    rng = random.Random(1301)
    scenarios = [parse_scenario(SHARED.read_text())]
    scenarios += [random_scenario(rng) for _ in range(10)]
    unbounded_warnings = 0
    for i, base in enumerate(scenarios):
        sc = tmp_path / f"s{i}.json"
        sc.write_text(emit_scenario(_with_an_unbounded_probe(base)))
        scenario = parse_scenario(sc.read_text())
        cli_out, lib_out = tmp_path / f"cli{i}", tmp_path / f"lib{i}"
        code = main(["--scenario", str(sc), "--out", str(cli_out),
                     "--sweep-epsilon", "0.2,0.1", "--sweep-duration", "1,3"])
        printed = capsys.readouterr()
        assert code == 0, printed.err
        expected = _library_sweep(scenario, lib_out, [0.2, 0.1], [1.0, 3.0])
        assert printed == expected
        assert tree(cli_out) == tree(lib_out)
        unbounded_warnings += printed.err.count("warning: optimum not computed")
    # the base and both duration-1 entries of every sweep
    assert unbounded_warnings == 3 * len(scenarios)


def _underflowing_link(tmp_path: Path) -> Path:
    """single_link at capacity 0: a run of 166 rounds or more underflows and
    exits 3, a shorter one finishes."""
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": 0.0}]
    doc["connections"][0].update(alpha=0.001, beta=0.99, active=[0, 99])
    sc = tmp_path / "underflow.json"
    sc.write_text(json.dumps(doc))
    return sc


def test_a_forked_sweep_writes_and_prints_what_an_unforked_one_does(
        tmp_path, monkeypatch, capsys):
    # each entry's CSVs are written whole by the process that ran its kernel
    monkeypatch.setattr(kernel, "forked", None)
    forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys, [
        "--scenario", str(SHARED),
        "--sweep-epsilon", "0.2,0.1,0.05", "--sweep-duration", "1,2,4,8"])
    # 13 entries of 4 CSVs and 2 JSON files, 12 subdirectories, the summary
    assert forked[0] == 0 and len(forked[3]) == 13 * 6 + 12 + 1
    assert forked == unforked


def test_a_failure_in_the_childs_share_matches_an_unforked_sweep(
        tmp_path, monkeypatch, capsys):
    # the head is the base and durations 1.6-1.3; the child finishes 1.2 and
    # 1.1, and 2 underflows
    forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys, [
        "--scenario", str(_underflowing_link(tmp_path)),
        "--sweep-duration", "1.6,1.5,1.4,1.3,1.2,1.1,2"])
    code, _, err, files = forked
    assert code == 3 and err == "error: path 'flow' round 166: non-positive send rate 0.0\n"
    assert {"eps0.1_dur1.1/audit.json", "eps0.1_dur1.2/audit.json"} <= set(files)
    assert "eps0.1_dur2" not in files
    assert forked == unforked


def test_a_failure_in_the_childs_share_writes_its_earlier_warnings_first(
        tmp_path, monkeypatch, capsys):
    # the probe makes every entry warn; the child holds back the warnings of
    # 1.2 and 1.1 and returns them with the failure of 2
    sc = tmp_path / "probed.json"
    sc.write_text(emit_scenario(_with_an_unbounded_probe(
        parse_scenario(_underflowing_link(tmp_path).read_text()))))
    forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys, [
        "--scenario", str(sc), "--sweep-duration", "1.6,1.5,1.4,1.3,1.2,1.1,2"])
    warning = "warning: optimum not computed: unbounded: path 'probe' meets no finite capacity\n"
    assert forked[0] == 3 and forked[2] == (
        7 * warning + "error: path 'flow' round 166: non-positive send rate 0.0\n")
    assert forked == unforked


def _fail_the_head_after_the_childs_first_export(tmp_path, monkeypatch) -> list:
    """With ``--sweep-duration 2,1.5,1.4,1.3``, the head is the base,
    duration 2 (which underflows) and 1.5, and the child has 1.4 and 1.3;
    make duration 2 start only once the child has written 1.4's CSVs.
    Returns the list of runs that waited."""
    marks = tmp_path / "marks"
    marks.mkdir()
    export, run = kernel.export_trace, kernel.run
    waited = []

    def export_and_mark(trace, outdir):
        written = export(trace, outdir)
        (marks / str(trace.horizon)).touch()
        return written

    def run_after_the_mark(scenario, **kwargs):
        if scenario.horizon == 199 and hasattr(os, "fork"):
            for _ in range(1000):
                if (marks / "139").exists():
                    break
                time.sleep(0.01)
            assert (marks / "139").exists()
            waited.append(scenario)
        return run(scenario, **kwargs)

    monkeypatch.setattr(kernel, "export_trace", export_and_mark)
    monkeypatch.setattr(kernel, "run", run_after_the_mark)
    return waited


def test_a_failure_in_the_cli_processs_share_removes_the_childs_outputs(
        tmp_path, monkeypatch, capsys):
    waited = _fail_the_head_after_the_childs_first_export(tmp_path, monkeypatch)
    forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys, [
        "--scenario", str(_underflowing_link(tmp_path)), "--sweep-duration", "2,1.5,1.4,1.3"])
    assert len(waited) == 1 and forked[0] == 3
    assert sorted(forked[3]) == ["audit.json", "optimum.json", "path_flow.csv",
                                 "resource_link.csv"]
    assert forked == unforked


def test_a_failure_in_the_cli_processs_share_keeps_an_earlier_runs_files(
        tmp_path, monkeypatch, capsys):
    waited = _fail_the_head_after_the_childs_first_export(tmp_path, monkeypatch)
    for name in ("forked", "unforked"):
        earlier = tmp_path / name / "eps0.1_dur1.3" / "path_flow.csv"
        earlier.parent.mkdir(parents=True)
        earlier.write_text("from an earlier run\n")
    forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys, [
        "--scenario", str(_underflowing_link(tmp_path)), "--sweep-duration", "2,1.5,1.4,1.3"])
    assert len(waited) == 1 and forked[0] == 3
    assert forked[3]["eps0.1_dur1.3/path_flow.csv"] == b"from an earlier run\n"
    assert sorted(forked[3]) == ["audit.json", "eps0.1_dur1.3", "eps0.1_dur1.3/path_flow.csv",
                                 "optimum.json", "path_flow.csv", "resource_link.csv"]
    assert forked == unforked


def test_a_run_first_removes_what_a_killed_run_left_staged(tmp_path, monkeypatch, capsys):
    # each stage is discarded whole, names this run does not write included,
    # and nothing in it is moved into place
    stale = [".part/path_flow.csv", ".part/eps0.1_dur2/path_flow.csv",
             ".part/eps0.1_dur2/audit.json", ".part/path_gone.csv",
             ".part/eps0.1_dur2/path_gone.csv", ".part/eps9_dur9/audit.json"]
    sweep = ["--sweep-epsilon", "0.1", "--sweep-duration", "2"]
    # a sweep also discards the stage of each entry's directory
    for i, (flags, entry_stage) in enumerate([([], []),
                                              (sweep, ["eps0.1_dur2/.part/resource_link.csv"])]):
        for name in ("forked", "unforked"):
            for rel in [*stale, *entry_stage, ".unrelated"]:
                (tmp_path / str(i) / name / rel).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / str(i) / name / rel).write_text("from a killed run\n")
        with monkeypatch.context() as mp:
            forked, unforked = with_and_without_fork(tmp_path / str(i), mp, capsys,
                                                      ["--scenario", str(SINGLE), *flags])
        assert forked[0] == 0 and forked == unforked
        assert [rel for rel, data in forked[3].items()
                if data == b"from a killed run\n"] == [".unrelated"]
        assert not [rel for rel in forked[3] if ".part" in rel]


def test_a_link_at_the_stage_is_removed_not_followed(tmp_path, monkeypatch, capsys):
    # followed, the link would have the run empty its target and write into it
    victim = tmp_path / "victim"
    victim.mkdir()
    (victim / "precious.txt").write_text("keep\n")
    for i, flags in enumerate([[], SWEEP_2X2]):
        for name in ("forked", "unforked"):
            (tmp_path / str(i) / name).mkdir(parents=True)
            (tmp_path / str(i) / name / ".part").symlink_to(Path("..", "..", "victim"))
        with monkeypatch.context() as mp:
            forked, unforked = with_and_without_fork(tmp_path / str(i), mp, capsys,
                                                      ["--scenario", str(SHARED), *flags])
        assert forked[0] == 0 and forked == unforked
        assert not [rel for rel in forked[3] if ".part" in rel]
        assert tree(victim) == {"precious.txt": b"keep\n"}


def _equal_links(values: tuple[float, ...]) -> dict:
    """A path per value (``a``, then ``b``) on one link of capacity 10, over
    rounds 0-40."""
    return {"resources": [{"id": "link", "capacity": [{"from_round": 0, "value": 10}]}],
            "connections": [{"id": cid, "route": ["link"], "hop_delays": [0],
                             "total_delay": 0, "active": [0, 40], "start_rate": 1,
                             "alpha": 0.01, "beta": 0.1, "value": value}
                            for cid, value in zip("ab", values)],
            "epsilon": 0.1}


def test_an_invalid_entry_in_the_childs_share_exits_2_as_an_unforked_sweep_does(
        tmp_path, monkeypatch, capsys):
    # at epsilon 0.05, path b's value of 1e-14 gives a rate rule too small
    # for its start rate; the base and epsilon 0.2 are valid
    sc = tmp_path / "tiny.json"
    sc.write_text(json.dumps(_equal_links((1.0, 1e-14))))
    forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys, [
        "--scenario", str(sc), "--sweep-epsilon", "0.2,0.05", "--sweep-duration", "1,2"])
    assert forked[0] == 2 and forked[2] == (
        "error: invalid scenario: connection 'b': start_rate 1.0 is too small: "
        "(1 + alpha) * start_rate must exceed it and (beta - alpha) * start_rate "
        "must not round to 0\n")
    assert forked == unforked


def test_every_error_main_reports_unpickles_to_its_type_and_message():
    # a sweep child's failure comes back pickled; the handlers that return
    # an exit code each catch a tuple of classes
    handled = {name.id for node in ast.walk(ast.parse(inspect.getsource(main)))
               if isinstance(node, ast.ExceptHandler) and isinstance(node.body[-1], ast.Return)
               for name in node.type.elts}
    errors = [ScenarioParseError("not a number", "connections[0].value"),
              ScenarioValidationError([Violation("connection 'b'", "too small"),
                                       Violation("resource 'link'", "no capacity")]),
              UsageError("bad flag"), BandwidthTestError("no common interval"),
              KernelError("conservation breach"), OptimumError("no solution"),
              ProtocolError("path 'a' round 3: overflow"), OSError(28, "No space left"),
              OverflowError("too large")]
    assert {type(exc).__name__ for exc in errors} == handled
    for exc in errors:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)


def test_a_run_without_connections_writes_header_only_resource_csvs(
        tmp_path, monkeypatch, capsys):
    sc = tmp_path / "idle.json"
    sc.write_text(json.dumps(_equal_links(())))
    with monkeypatch.context() as mp:
        forks = record_forks(mp)
        forked, unforked = with_and_without_fork(tmp_path, mp, capsys, ["--scenario", str(sc)])
    assert forks == [] and forked[0] == 0 and forked == unforked
    assert sorted(forked[3]) == ["audit.json", "optimum.json", "resource_link.csv"]
    assert forked[3]["resource_link.csv"] == b"round,into,lost,cap\n"


def test_a_run_without_connections_or_resources_writes_only_its_json(
        tmp_path, monkeypatch, capsys):
    # horizon -1: no round and no CSV column, so the chunk rule sees a width of 0
    sc = tmp_path / "empty.json"
    sc.write_text(json.dumps({"resources": [], "connections": [], "epsilon": 0.1}))
    with monkeypatch.context() as mp:
        forks = record_forks(mp)
        forked, unforked = with_and_without_fork(tmp_path, mp, capsys, ["--scenario", str(sc)])
    assert forks == [] and forked[0] == 0 and forked == unforked
    assert sorted(forked[3]) == ["audit.json", "optimum.json"]


def test_a_sweep_child_that_dies_exits_3_with_one_error_line(tmp_path, monkeypatch, capsys):
    cli_pid, run = os.getpid(), kernel.run

    def run_or_die(scenario, **kwargs):
        if os.getpid() != cli_pid:
            os._exit(1)
        return run(scenario, **kwargs)

    monkeypatch.setattr(kernel, "run", run_or_die)
    out = tmp_path / "out"
    assert main(["--scenario", str(SHARED), "--out", str(out)] + SWEEP_2X2) == 3
    printed = capsys.readouterr()
    assert printed.out.startswith("ratio=")
    assert printed.err == "error: sweep child failed: exit code 1\n"


def test_a_streamed_run_writes_what_an_unforked_one_does(tmp_path, monkeypatch, capsys):
    rng = random.Random(1709)
    scenarios = [SHARED]
    for i in range(4):
        scenarios.append(tmp_path / f"s{i}.json")
        scenarios[-1].write_text(emit_scenario(random_scenario(rng)))
    for i, sc in enumerate(scenarios):
        scenario = parse_scenario(sc.read_text())
        assert any(c.total_delay > 0 for c in scenario.connections)
        with monkeypatch.context() as mp:
            chunks_of(mp, 7, scenario)
            forks = record_forks(mp)
            forked, unforked = with_and_without_fork(tmp_path / str(i), mp, capsys,
                                                      ["--scenario", str(sc)])
        assert len(forks) == 1 and forked[0] == 0
        assert forked == unforked


def test_a_kernel_failure_in_a_streamed_run_leaves_an_earlier_runs_files(
        tmp_path, monkeypatch, capsys):
    doc = json.loads(_underflowing_link(tmp_path).read_text())
    doc["connections"][0]["active"] = [0, 299]   # underflows at round 166
    sc = tmp_path / "underflow300.json"
    sc.write_text(json.dumps(doc))
    chunks_of(monkeypatch, 7, parse_scenario(sc.read_text()))
    log = tmp_path / "rows.log"
    fd = _appending_log(log)
    append = kernel._append_rows

    def append_and_log(files, lo, hi):
        os.write(fd, f"{os.getpid()} {hi}\n".encode())
        append(files, lo, hi)

    run = kernel.run

    def run_past_the_first_chunk(scenario, on_round=None):
        def hook(trace, t):
            on_round(trace, t)
            deadline = time.monotonic() + 30
            while t == 6 and not log.read_text() and time.monotonic() < deadline:
                time.sleep(0.001)   # until the child has written rows 0..6

        return run(scenario, on_round=on_round and hook)

    monkeypatch.setattr(kernel, "_append_rows", append_and_log)
    monkeypatch.setattr(kernel, "run", run_past_the_first_chunk)
    for name in ("forked", "unforked"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "path_flow.csv").write_text("from an earlier run\n")
    try:
        forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys,
                                                  ["--scenario", str(sc)])
    finally:
        os.close(fd)
    # only the forked run's child wrote rows, before the kernel failed
    writers = {line.split()[0] for line in log.read_text().splitlines()}
    assert len(writers) == 1 and str(os.getpid()) not in writers
    assert forked == (3, "", "error: path 'flow' round 166: non-positive send rate 0.0\n",
                      {"path_flow.csv": b"from an earlier run\n"})
    assert forked == unforked


def _wide_short(tmp_path: Path) -> Path:
    """120 paths over 4 links for 250 rounds: 492 CSV columns, so a chunk
    of the value budget holds far fewer rows than the trace."""
    doc = {"resources": [{"id": f"l{j}", "capacity": [{"from_round": 0, "value": 40}]}
                         for j in range(4)],
           "connections": [{"id": f"p{i}", "route": [f"l{i % 4}"], "hop_delays": [0],
                            "total_delay": 0, "active": [i % 7, 249 - i % 5],
                            "start_rate": 1, "alpha": 0.01, "beta": 0.1, "value": 1.0}
                           for i in range(120)],
           "epsilon": 0.1}
    sc = tmp_path / "wide.json"
    sc.write_text(json.dumps(doc))
    return sc


def test_a_wide_short_run_streams_rows_before_its_kernels_last_round(
        tmp_path, monkeypatch, capsys):
    sc = _wide_short(tmp_path)
    horizon = parse_scenario(sc.read_text()).horizon
    chunk = kernel._CSV_CHUNK_VALUES // (4 * 120 + 3 * 4)
    assert horizon == 249 and 2 * chunk > horizon + 1 > chunk
    log = tmp_path / "rows.log"
    fd = _appending_log(log)
    append, run = kernel._append_rows, kernel.run
    before_last: list[str] = []

    def append_and_log(files, lo, hi):
        os.write(fd, f"{os.getpid()} {hi}\n".encode())
        append(files, lo, hi)

    def run_and_look_before_the_last_round(scenario, on_round=None):
        def hook(trace, t):
            on_round(trace, t)
            if t == horizon - 1:
                deadline = time.monotonic() + 30
                while not log.read_text() and time.monotonic() < deadline:
                    time.sleep(0.001)   # until the child has taken the first chunk
                before_last.append(log.read_text())

        return run(scenario, on_round=on_round and hook)

    monkeypatch.setattr(kernel, "_append_rows", append_and_log)
    monkeypatch.setattr(kernel, "run", run_and_look_before_the_last_round)
    try:
        forked, unforked = with_and_without_fork(tmp_path, monkeypatch, capsys,
                                                  ["--scenario", str(sc)])
    finally:
        os.close(fd)
    # only the export child had appended, and only the first chunk's rows
    assert len(before_last) == 1
    calls = [line.split() for line in before_last[0].splitlines()]
    assert calls and {hi for _, hi in calls} == {str(chunk)}
    assert str(os.getpid()) not in {pid for pid, _ in calls}
    assert forked[0] == 0 and len(forked[3]) == 120 + 4 + 2
    assert forked == unforked


def _running(pid: int) -> bool:
    """Whether ``pid`` runs; an orphan that has exited stays a zombie until
    whoever adopted it reaps it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_a_cli_process_killed_mid_kernel_leaves_no_export_child_running(tmp_path):
    doc = json.loads(SINGLE.read_text())
    doc["connections"][0]["active"] = [0, 299_999]
    sc = tmp_path / "long.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    # the CLI process prints the pid of each process it forks
    script = ("import os, sys\n"
              "from mimdsim import cli\n"
              "fork = os.fork\n"
              "def announce():\n"
              "    pid = fork()\n"
              "    if pid:\n"
              "        print(pid, flush=True)\n"
              "    return pid\n"
              "os.fork = announce\n"
              "cli.main(sys.argv[1:])\n")
    proc = subprocess.Popen([sys.executable, "-c", script, "--scenario", str(sc), "--out", str(out)],
                            stdout=subprocess.PIPE, text=True, env=_src_env())
    try:
        child = int(proc.stdout.readline())
        deadline = time.monotonic() + 60
        while not (out / ".part" / "path_flow.csv").exists():   # the first chunk is staged
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert not (out / "path_flow.csv").exists()
    deadline = time.monotonic() + 60
    while _running(child):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert list(out.iterdir()) == []   # the child removed what it had staged


# The CLI process prints the pid of each process it forks, and only it.
_ANNOUNCING_FORKS = ("import os, signal, sys, time\n"
                     "from mimdsim import cli, kernel\n"
                     "cli_pid, fork = os.getpid(), os.fork\n"
                     "def announce():\n"
                     "    pid = fork()\n"
                     "    if pid and os.getpid() == cli_pid:\n"
                     "        print(pid, flush=True)\n"
                     "    return pid\n"
                     "os.fork = announce\n"
                     "def wait_to_be_orphaned():\n"
                     "    while os.getppid() == cli_pid:\n"
                     "        time.sleep(0.001)\n")


def _orphan_a_child(script: str, flags: list[str]) -> int:
    """Run the CLI with ``flags`` in a process that kills itself once it
    has forked; returns the pid of its first child."""
    proc = subprocess.Popen([sys.executable, "-c", _ANNOUNCING_FORKS + script, *flags],
                            stdout=subprocess.PIPE, text=True, env=_src_env())
    try:
        child = int(proc.stdout.readline())
        assert proc.wait(timeout=60) == -signal.SIGKILL
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 60
    while _running(child):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return child


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_an_export_child_orphaned_after_the_last_rows_discards_its_stage(tmp_path):
    # the CLI process dies once it has sent the final row count; the child
    # writes every row only then, and nobody is left to publish them
    script = ("append, call = kernel._append_rows, kernel.CsvStream.__call__\n"
              "def append_once_orphaned(files, lo, hi):\n"
              "    wait_to_be_orphaned()\n"
              "    append(files, lo, hi)\n"
              "def call_then_die(stream, trace, t):\n"
              "    call(stream, trace, t)\n"
              "    if t == trace.horizon:\n"
              "        os.kill(cli_pid, signal.SIGKILL)\n"
              "kernel._append_rows = append_once_orphaned\n"
              "kernel.CsvStream.__call__ = call_then_die\n"
              "cli.main(sys.argv[1:])\n")
    out = tmp_path / "out"
    _orphan_a_child(script, ["--scenario", str(SINGLE), "--out", str(out)])
    assert list(out.iterdir()) == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_a_sweep_child_orphaned_before_it_returns_discards_the_stage(tmp_path):
    # the CLI process dies as its head starts; the child runs the tail alone
    script = ("run = kernel.run\n"
              "def run_once_orphaned(scenario, **kwargs):\n"
              "    if os.getpid() == cli_pid:\n"
              "        os.kill(cli_pid, signal.SIGKILL)\n"
              "    wait_to_be_orphaned()\n"
              "    return run(scenario, **kwargs)\n"
              "kernel.run = run_once_orphaned\n"
              "cli.main(sys.argv[1:])\n")
    out = tmp_path / "out"
    _orphan_a_child(script, ["--scenario", str(SHARED), "--out", str(out)] + SWEEP_2X2)
    assert list(out.iterdir()) == []


def test_sweep_rejected_outside_simulate_mode(tmp_path, capsys):
    code = main([
        "--scenario", str(SINGLE), "--mode", "opt", "--out", str(tmp_path / "o"),
        "--sweep-epsilon", "0.1",
    ])
    assert code == 2


@pytest.mark.parametrize("flag,value", [
    ("--sweep-epsilon", "0"),
    ("--sweep-epsilon", "0.1,-0.2"),
    ("--sweep-epsilon", "1"),
    ("--sweep-epsilon", "nan"),
    ("--sweep-duration", "nan"),
    ("--sweep-duration", "inf"),
    ("--sweep-duration", "1,-1"),
    ("--sweep-duration", "0"),
])
def test_sweep_values_out_of_range_exit_2_before_anything_is_written(
        tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--scenario", str(SHARED), "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and len(err.splitlines()) == 1
    assert list(out.iterdir()) == []


def test_a_zero_value_epsilon_sweep_exits_2_before_anything_is_written(tmp_path, capsys):
    doc = json.loads(SHARED.read_text())
    next(c for c in doc["connections"] if c["id"] == "sync")["value"] = 0
    sc = tmp_path / "zero.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--scenario", str(sc), "--out", str(out), "--sweep-epsilon", "0.1"]) == 2
    assert capsys.readouterr() == (
        "", "error: connection 'sync' has value 0; epsilon sweeps need positive values\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flags,message", [
    (["--sweep-duration", "0.5,0.5000001"],
     "(epsilon 0.1, duration 0.5) and (epsilon 0.1, duration 0.5000001) would both write "
     "eps0.1_dur0.5/"),
    (["--sweep-duration", "1,1"],
     "(epsilon 0.1, duration 1.0) and (epsilon 0.1, duration 1.0) would both write eps0.1_dur1/"),
    (["--sweep-epsilon", "0.2,0.20000001", "--sweep-duration", "2,3"],
     "(epsilon 0.2, duration 2.0) and (epsilon 0.20000001, duration 2.0) would both write "
     "eps0.2_dur2/"),
], ids=["near-equal-durations", "repeated-duration", "near-equal-epsilons"])
def test_sweep_entries_sharing_a_directory_exit_2_before_anything_is_written(
        tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["--scenario", str(SINGLE), "--out", str(out), *flags]) == 2
    assert capsys.readouterr() == ("", f"error: sweep entries {message}\n")
    assert not out.exists()


def test_an_invalid_sweep_variant_exits_2_before_any_entry_runs(tmp_path, capsys):
    # the base and eps0.1_dur1 entries are valid; at 1e7 the horizon passes
    # validate's bound
    out = tmp_path / "out"
    assert main(["--scenario", str(SINGLE), "--out", str(out), "--sweep-duration", "1,1e7"]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and len(err.splitlines()) == 1
    assert err.startswith("error: invalid scenario: connection 'flow': end + total_delay "
                          "must not pass round ")
    assert not out.exists()


def test_an_overflowing_sweep_duration_exits_2_before_anything_is_written(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--scenario", str(SHARED), "--out", str(out), "--sweep-duration", "2,1e308"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: --sweep-duration: 1e+308 overflows a connection's window\n"
    )
    assert not out.exists()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_a_wide_solve_loads_neither_numpy_nor_scipy_and_starts_no_thread(tmp_path):
    sc = _nine_flows(tmp_path)
    probe = f"""
import os, sys
from mimdsim import optimum
from mimdsim.cli import load_scenario, main

def seen():
    print(optimum._highs_core.cache_info().currsize, len(os.listdir("/proc/self/task")),
          [m for m in ("numpy", "scipy", "scipy.optimize") if m in sys.modules])

optimum.solve_opt(load_scenario({str(sc)!r}))
seen()
main(["--scenario", {str(sc)!r}, "--mode", "opt", "--out", {str(tmp_path / "out")!r}])
seen()
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_src_env(), check=True)
    solved, printed, ran = proc.stdout.splitlines()
    assert solved == ran == "1 1 []" and printed.startswith("opt_value=")


def test_a_one_entry_run_loads_neither_dataclasses_nor_inspect_nor_pickle(tmp_path):
    # the records are named tuples, and the export child's reply is never read
    probe = ("import sys; from mimdsim.cli import main; "
             f"code = main(['--scenario', {str(SINGLE)!r}, '--out', {str(tmp_path / 'out')!r}]); "
             "print(code, [m for m in ('dataclasses', 'inspect', 'pickle') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_src_env(), check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_bwtest_two_disjoint_links(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--scenario", str(BWPAIR), "--mode", "bwtest", "--out", str(out)]) == 0
    doc = json.loads((out / "bandwidth_test.json").read_text())
    assert doc["opt_rate"] == pytest.approx(100.0, rel=1e-9)
    assert abs(doc["estimate"] - 100.0) <= 5.0
    assert capsys.readouterr().out.startswith("bandwidth_estimate=")


def test_bwtest_solves_the_equalized_lp_in_process_without_scipy_optimize(tmp_path):
    # ten paths of value 1 once equalized (two before): the LP goes to HiGHS,
    # in the CLI process, whose extension loads without scipy.optimize
    doc = json.loads(BWPAIR.read_text())
    doc["connections"] += [{**doc["connections"][0], "id": f"copy{i}", "value": 0.0}
                           for i in range(8)]
    sc = tmp_path / "ten.json"
    sc.write_text(json.dumps(doc))
    probe = ("import os, sys; from mimdsim import optimum; from mimdsim.cli import main; "
             "del os.fork; "
             f"code = main(['--scenario', {str(sc)!r}, '--mode', 'bwtest', "
             f"'--out', {str(tmp_path / 'out')!r}]); "
             "print(code, optimum._highs_core.cache_info().currsize, "
             "'scipy' in sys.modules, 'scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_src_env(), check=True)
    assert proc.stdout.splitlines()[-1] == "0 1 False False"


def test_bwtest_requires_a_common_active_interval(tmp_path, capsys):
    doc = json.loads(BWPAIR.read_text())
    doc["connections"][0]["active"] = [0, 100]
    sc = tmp_path / "hetero.json"
    sc.write_text(json.dumps(doc))
    assert main(["--scenario", str(sc), "--mode", "bwtest", "--out", str(tmp_path / "o")]) == 2
    assert "active interval" in capsys.readouterr().err


def test_bwtest_single_link_estimate_reaches_capacity(tmp_path):
    # received saturates the capacity at the fixed point; only sent overshoots
    from conftest import single_link_scenario
    from mimdsim.audit import bandwidth_test

    result = bandwidth_test(single_link_scenario(cap=30.0, duration=1500))
    assert abs(result["estimate"] - 30.0) <= 0.05 * 30.0
    assert result["opt_rate"] == pytest.approx(30.0, rel=1e-9)


def test_bwtest_converges_at_the_first_round_it_scans_when_settled_from_the_start():
    # both paths start above the fixed point beta * cap / (beta - alpha) of
    # their summed rate, which then stays above the capacity, so the link
    # passes exactly 10 in every round from 7 on
    from mimdsim.audit import bandwidth_test

    sc = Scenario(resources=(constant_resource("link", 10.0),), connections=tuple(
        simple_conn(cid, ("link",), start=7, end=299, start_rate=20.0, alpha=0.05, beta=0.5)
        for cid in ("a", "b")), epsilon=0.1)
    window = math.ceil(1 / (0.5 * 0.1))
    assert bandwidth_test(sc) == {"estimate": 10.0, "opt_rate": 10.0, "opt_value": 2930.0,
                                  "window": window, "converged_at_round": 7 + 2 * window - 1}


def test_bwtest_empty_connections_reports_zero(tmp_path):
    doc = {"resources": [], "connections": [], "epsilon": 0.1,
           "loss_policy": {"kind": "proportional"}}
    sc = tmp_path / "empty.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--scenario", str(sc), "--mode", "bwtest", "--out", str(out)]) == 0
    assert json.loads((out / "bandwidth_test.json").read_text())["estimate"] == 0.0


def test_a_policy_seed_is_accepted_and_changes_nothing(tmp_path, capsys):
    doc = json.loads(SHARED.read_text())
    assert "seed" not in doc["loss_policy"]
    outputs = []
    for seed in (None, 7, 1):
        if seed is not None:
            doc["loss_policy"]["seed"] = seed
        sc = tmp_path / f"shared_{seed}.json"
        sc.write_text(json.dumps(doc))
        out = tmp_path / f"out_{seed}"
        assert main(["--scenario", str(sc), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "path_web.csv" in outputs[0] and "audit.json" in outputs[0]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    doc["loss_policy"]["seed"] = "7"
    sc = tmp_path / "string_seed.json"
    sc.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["--scenario", str(sc), "--out", str(tmp_path / "bad")]) == 2
    assert "loss_policy.seed" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("unit", [1.0, 2.0**-40])
def test_a_positive_throughput_against_a_zero_optimum_leaves_the_ratio_null(
        tmp_path, capsys, unit):
    # a fixed rate must be 0 across the capacity-0 round; the protocol sends
    # around it, at any unit
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": 10.0 * unit},
                                       {"from_round": 5, "value": 0.0},
                                       {"from_round": 6, "value": 10.0 * unit}]
    doc["connections"][0].update(active=[0, 19], start_rate=unit)
    sc = tmp_path / "dip.json"
    sc.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--scenario", str(sc), "--out", str(out)]) == 0
    report = json.loads((out / "audit.json").read_text())
    assert json.loads((out / "optimum.json").read_text())["opt_value"] == 0.0
    assert report["opt_value"] == 0.0 and report["competitive_ratio"] is None
    assert report["weighted_throughput"] > 0.0
    printed = capsys.readouterr()
    assert printed.out.startswith("ratio=n/a ")
    assert printed.err == ("warning: competitive ratio not computed: positive throughput "
                           f"{report['weighted_throughput']!r} against opt_value 0\n")

    assert main(["--scenario", str(sc), "--mode", "audit", "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == printed.err


def test_an_audit_total_past_the_largest_float_exits_3(tmp_path, capsys):
    # the run itself loses nothing, but two received 1e308s do not sum
    doc = json.loads(SINGLE.read_text())
    doc["resources"][0]["capacity"] = [{"from_round": 0, "value": "inf"}]
    doc["connections"][0].update(start_rate=1e308, active=[0, 1], alpha=0.001, beta=0.5)
    sc = tmp_path / "huge.json"
    sc.write_text(json.dumps(doc))
    assert main(["--scenario", str(sc), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: intermediate overflow in fsum\n"


def _src_env() -> dict[str, str]:
    # a child does not inherit pytest's pythonpath, so hand it src explicitly
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_module_entrypoint_runs_as_subprocess(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "mimdsim",
         "--scenario", str(SINGLE), "--mode", "audit", "--out", str(out)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ratio=")


def test_reimporting_the_main_module_does_not_run_the_cli(tmp_path, monkeypatch, capsys):
    # spawn and forkserver workers re-run the parent's main module under this name
    monkeypatch.chdir(tmp_path)
    runpy.run_module("mimdsim.__main__", run_name="__mp_main__")
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", "")


def test_importing_the_cli_loads_neither_numpy_nor_scipy():
    probe = ("import sys, mimdsim, mimdsim.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_src_env(), check=True)
    assert proc.stdout == "[]\n"
