"""``tools/pairs.py``'s statistics: quartiles by the benchmark's own rule,
pairs won with ties counting for neither side, and a verdict against a
metric's bound that calls a spread wider than the bound unresolved."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_quartiles_follow_the_benchmarks_exclusive_rule():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"q1": 1.5, "median": 3.0, "q3": 4.5}
    assert pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_pairs_won_count_ties_for_neither_side():
    row = pairs.compare([1.0, 1.0, 1.0, 1.0], [0.9, 1.0, 1.1, 0.8], "lower", 0.25)
    assert row["change_won"] == 0.5
    row = pairs.compare([1.0, 1.0, 1.0, 1.0], [0.9, 1.0, 1.1, 0.8], "higher", 0.25)
    assert row["change_won"] == 0.25


@pytest.mark.parametrize("base,change,better,verdict,worse_by", [
    ([1.0] * 4, [1.2] * 4, "lower", "within bound", 0.2),
    ([1.0] * 4, [1.3] * 4, "lower", "worse", 0.3),
    ([1.0] * 4, [0.7] * 4, "higher", "worse", 0.3),
    # the parent's quartiles 0.7 and 1.3 are 0.6 apart: wider than the bound
    ([0.6, 0.9, 1.0, 1.1, 1.4], [1.0] * 5, "lower", "unresolved", 0.0),
    ([0.6, 0.9, 1.0, 1.1, 1.4], [0.5] * 5, "lower", "within bound", -0.5),
])
def test_a_verdict_sets_the_medians_and_the_parents_spread_against_the_bound(
        base, change, better, verdict, worse_by):
    row = pairs.compare(base, change, better, 0.25)
    assert row["verdict"] == verdict
    assert row["worse_by"] == pytest.approx(worse_by)
    assert row["base_spread"] == pytest.approx((row["base"]["q3"] - row["base"]["q1"])
                                               / row["base"]["median"])
