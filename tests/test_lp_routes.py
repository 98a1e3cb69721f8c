"""The two LP routes against each other: ``_exact`` and HiGHS on the same rows.

``solve_opt`` sends an LP of at most ``EXACT_MAX_COLUMNS`` weighted paths to
``_exact`` and a larger one to HiGHS. Here both solve every LP of about 200
draws, small and 9-12-path ones alike. ``_exact`` raises OptimumError unless
its own exact certificate holds, so every draw that solves has passed it.
"""

from __future__ import annotations

import math
import random

import pytest

from conftest import lp_instance, random_scenario
from mimdsim import optimum
from mimdsim.optimum import UnboundedOptimumError, solve_opt

# fixed before measuring: each rate, and the objective, agree within 16 ULPs
# of the LP's largest finite capacity
RATE_ULPS = 16


def _lps(scenarios):
    """The (c_obj, rows, b_ub, n) that ``solve_opt`` hands to either route."""
    lps = []

    def record(*args):
        lps.append(args)
        return 0, "recorded", [0.0] * args[3]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimum, "_exact", record)
        patch.setattr(optimum, "_highs", record)
        for sc in scenarios:
            try:
                solve_opt(sc)
            except UnboundedOptimumError:
                pass
    return lps


def test_exact_and_highs_answers_agree_within_16_ulps():
    rng = random.Random(0xE8AC7)
    scenarios = ([lp_instance(rng) for _ in range(60)]
                 + [random_scenario(rng) for _ in range(80)]
                 + [lp_instance(rng, n_paths=rng.randint(9, 12)) for _ in range(60)])
    lps = _lps(scenarios)
    assert len(lps) >= 190
    assert sum(n > optimum.EXACT_MAX_COLUMNS for *_, n in lps) == 60
    ties = 0
    for c_obj, rows, b_ub, n in lps:
        status, _, exact = optimum._exact(c_obj, rows, b_ub, n)
        highs_status, _, highs = optimum._highs(c_obj, rows, b_ub, n)
        assert status == highs_status == 0
        bound = RATE_ULPS * math.ulp(max(b_ub))

        def value(x):
            return -math.fsum(c * v for c, v in zip(c_obj, x))

        assert value(exact) >= value(highs) - bound
        if all(abs(e - h) <= bound for e, h in zip(exact, highs)):
            continue
        # Weights that tie leave several optimal vertices, and the routes may
        # pick different ones; HiGHS's must then be feasible and as good.
        ties += 1
        assert value(highs) >= value(exact) - bound
        for members, cap in zip(rows, b_ub):
            assert math.fsum(highs[j] for j in members) <= cap + bound
    assert ties <= 10
