"""Unit tests of the rate rule against hand traces."""

from __future__ import annotations

import math
import random

import pytest

from conftest import constant_resource, random_scenario, simple_conn
from mimdsim.kernel import run
from mimdsim.model import Scenario
from mimdsim.protocol import ProtocolError, loss_fraction, update_rate


def test_initial_rate_covers_exactly_the_warmup_window():
    # delay 2 starting at round 1: rounds 1..3 send the start rate, round 4
    # is the first update (lossless, so the multiplier is 1 + alpha)
    sc = Scenario(
        (constant_resource("r", math.inf),),
        (simple_conn("p", ("r",), start=1, end=6, delay=2, hop_delays=(2,),
                     start_rate=5.0, alpha=0.01, beta=0.1),),
        epsilon=0.1,
    )
    sent = run(sc).paths["p"].sent
    assert [sent[t] for t in range(5)] == [0.0, 5.0, 5.0, 5.0, 5.0 * 1.01]


def test_update_rate_examples():
    # lsr = 0 grows by 1 + alpha, lsr = 1 shrinks by 1 + alpha - beta
    assert update_rate(100.0, loss_fraction(100.0, 100.0), 0.01, 0.1) == pytest.approx(
        101.0, rel=1e-15
    )
    assert update_rate(100.0, loss_fraction(100.0, 0.0), 0.01, 0.1) == pytest.approx(
        91.0, rel=1e-15
    )


def test_update_fixed_point_multiplier_is_exactly_one():
    # alpha/beta = 0.5 and lsr = 0.5 make the multiplier exactly 1 in floats
    assert update_rate(64.0, loss_fraction(64.0, 32.0), 0.25, 0.5) == 64.0


def test_loss_fraction_examples_and_clamping():
    assert loss_fraction(100.0, 100.0) == 0.0
    assert loss_fraction(100.0, 70.0) == 0.3
    assert loss_fraction(100.0, 100.0 + 1e-13) == 0.0     # float residue is clamped
    with pytest.raises(ProtocolError):
        loss_fraction(100.0, 100.0 + 1e-6)                 # beyond the clamp tolerance
    with pytest.raises(ProtocolError):
        loss_fraction(100.0, -1.0)


def test_lsr_outside_unit_interval_rejected_by_update():
    with pytest.raises(ProtocolError):
        update_rate(10.0, 1.5, 0.01, 0.1)
    with pytest.raises(ProtocolError):
        update_rate(10.0, -0.1, 0.01, 0.1)


def test_update_rejects_a_rate_that_underflows_to_zero():
    with pytest.raises(ProtocolError, match="non-positive send rate"):
        update_rate(5e-324, 1.0, 0.001, 0.99)


def test_update_rejects_a_rate_that_overflows_to_inf():
    with pytest.raises(ProtocolError, match="send rate overflowed to inf"):
        update_rate(1.5e308, 0.0, 0.5, 0.9)
    assert update_rate(1e308, 0.0, 0.5, 0.9) == 1.5e308


def test_determinism_identical_history_identical_output():
    def build():
        return update_rate(3.0, loss_fraction(3.0, 2.1), 0.017, 0.23)

    assert build() == build()


def test_multiplier_bound_over_random_runs():
    rng = random.Random(7)
    for _ in range(10):
        sc = random_scenario(rng)
        trace = run(sc)
        for c in sc.connections:
            rec = trace.paths[c.id]
            lo, hi = 1.0 + c.alpha - c.beta, 1.0 + c.alpha
            for t in range(c.start + 1 + c.total_delay, c.end + 1):
                ratio = rec.sent[t] / rec.sent[t - 1 - c.total_delay]
                assert lo - 1e-12 <= ratio <= hi + 1e-12


def test_rates_stay_positive_under_total_loss():
    # cap 0 forces lsr = 1 every round; multiplier 1 + a - b stays > 0
    sc_conn = simple_conn("p", ("r",), end=30, start_rate=4.0, alpha=0.05, beta=0.6)
    sc = Scenario((constant_resource("r", 0.0),), (sc_conn,), epsilon=0.1)
    trace = run(sc)
    rec = trace.paths["p"]
    assert all(rec.sent[t] > 0 for t in range(31))
    assert rec.sent[30] == pytest.approx(4.0 * (1 + 0.05 - 0.6) ** 30, rel=1e-9)
