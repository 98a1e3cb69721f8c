"""One owner per rule: one fork site, and one module that turns hop delays
into transit rounds."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mimdsim"


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_os_fork_is_called_only_in_the_fork_helper():
    sites = {}
    for name, tree in _modules().items():
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and (getattr(node.func, "attr", None) == "fork"
                      or getattr(node.func, "id", None) == "fork")]
        if calls:
            sites[name] = len(calls)
    assert sites == {"_fork.py": 1}


def test_only_the_model_reads_hop_delays_or_pre_delays():
    readers: dict[str, set[str]] = {"hop_delays": set(), "pre_delay_at": set()}
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                readers[node.attr].add(name)
    assert readers == {"hop_delays": {"model.py"}, "pre_delay_at": {"model.py"}}
