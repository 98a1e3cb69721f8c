"""Properties of every valid scenario, over generated ones that reach the edges:
capacities of 0 (including stretches of rounds) and ``inf``, zero-value
paths, empty routes, staggered windows, same-round chains declared out of
topological order, rates at the ends of the floats, and both loss policies.
"""

from __future__ import annotations

import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_kernel
from conftest import path_csv, resource_csv
from mimdsim.audit import competitive_ratio, measure_fairness
from mimdsim.kernel import CONSERVATION_RTOL, loss_totals, run
from mimdsim.model import (
    AdversarialFairLoss,
    CapacityTimeline,
    ConnectionSpec,
    ProportionalLoss,
    ResourceSpec,
    Scenario,
    validate,
)
from mimdsim.protocol import ProtocolError

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# the deliberate runtime failures of README "Model notes"
LEFT_THE_FLOATS = (r"^((path|resource) '\w+' round \d+: )?"
                   r"(non-positive send rate |(send rate|load|total loss) overflowed to inf$)")

EXTREMES = st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308])
CAPACITY = st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.5, 30.0), EXTREMES)
START_RATE = st.one_of(st.floats(0.1, 10.0), EXTREMES)


@st.composite
def scenarios(draw) -> Scenario:
    n_res = draw(st.integers(1, 4))
    resources = []
    for i in range(n_res):
        rounds = draw(st.lists(st.integers(1, 25), max_size=3, unique=True))
        values = draw(st.lists(CAPACITY, min_size=len(rounds) + 1, max_size=len(rounds) + 1))
        steps = tuple(zip([0] + sorted(rounds), values))
        resources.append(ResourceSpec(f"r{i}", CapacityTimeline(steps)))
    # every route follows one shuffled order of the resources, so same-round
    # chains stay acyclic but need not follow the declaration order
    rank = draw(st.permutations(range(n_res)))
    connections = []
    for j in range(draw(st.integers(1, 5))):
        hops = sorted(draw(st.lists(st.integers(0, n_res - 1), max_size=3, unique=True)),
                      key=rank.index)
        hop_delays = []
        for _ in hops:
            hop_delays.append(draw(st.integers(0, hop_delays[-1] if hop_delays else 3)))
        beta = draw(st.floats(0.01, 0.99))
        start = draw(st.integers(0, 10))
        connections.append(ConnectionSpec(
            id=f"p{j}",
            route=tuple(f"r{h}" for h in hops),
            value=draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))),
            start=start,
            end=start + draw(st.integers(0, 15)),
            total_delay=max(hop_delays, default=0) + draw(st.integers(0, 1)),
            hop_delays=tuple(hop_delays),
            start_rate=draw(START_RATE),
            alpha=beta * draw(st.floats(0.01, 0.99)),
            beta=beta,
        ))
    policy = draw(st.one_of(
        st.just(ProportionalLoss()),
        st.sampled_from(connections).map(lambda c: AdversarialFairLoss(c.id)),
    ))
    return Scenario(tuple(resources), tuple(connections), draw(st.floats(0.01, 0.99)), policy)


def run_or_rate_error(sc: Scenario):
    """The trace, or ``None`` when a start rate is too small for the rate
    rule or a value too small for the audit (README "Feasible starts"), or
    a send rate left the floats."""
    violations = validate(sc)
    for v in violations:
        c = next(c for c in sc.connections if v.where == f"connection {c.id!r}")
        assert v.message.startswith((f"start_rate {c.start_rate!r} is too small: ",
                                     f"value {c.value!r} is too small: ")), v
    if violations:
        return None
    try:
        return run(sc)
    except ProtocolError as exc:
        assert re.search(LEFT_THE_FLOATS, str(exc)), exc
        return None


@PROPERTY
@given(sc=scenarios())
def test_a_valid_scenario_runs_conserving_loss_within_its_fairness_budget(sc):
    trace = run_or_rate_error(sc)
    if trace is None:
        return
    path_lost, res_lost = loss_totals(trace)
    assert abs(path_lost - res_lost) <= CONSERVATION_RTOL * max(path_lost, res_lost)
    for rec in trace.paths.values():
        assert all(0.0 <= v <= 1.0 for v in rec.lsr)
    if isinstance(sc.loss_policy, AdversarialFairLoss):
        assert measure_fairness(trace) <= sc.epsilon + 1e-9


@PROPERTY
@given(sc=scenarios())
def test_traces_equal_the_oracle_with_its_tie_break_in_declaration_order(sc):
    got = run_or_rate_error(sc)
    if got is None:
        return
    want = oracle_kernel.run(sc)
    for c in sc.connections:
        assert path_csv(got, c.id) == path_csv(want, c.id), c.id
    for r in sc.resources:
        assert resource_csv(got, r.id) == resource_csv(want, r.id), r.id


# fixed before the first run: a slack may fall below 0 by at most 1e-9 of
# the sum of its terms' magnitudes
LEMMA_RTOL = 1e-9


@PROPERTY
@given(sc=scenarios())
def test_both_lemma_slacks_hold_on_every_path_with_a_feasible_start(sc):
    trace = run_or_rate_error(sc)
    if trace is None:
        return
    try:
        report = competitive_ratio(trace, None)
    except OverflowError as exc:   # README "Model notes": exit 3
        assert str(exc) == "intermediate overflow in fsum"
        return
    for c in sc.connections:
        peak = report.U[c.id]
        # the loss floor's derivation assumes this start (audit's docstring)
        if not c.start_rate <= c.beta * peak / (c.beta - c.alpha):
            continue
        rec = trace.paths[c.id]
        window = c.shifted_window().as_slice()
        terms1 = (math.fsum(rec.rcvd[window]),
                  (c.beta / c.alpha - 1.0) * math.fsum(rec.lost[window]),
                  (c.total_delay + 1) * c.start_rate / c.alpha)
        assert report.lemma1_slack[c.id] >= -LEMMA_RTOL * sum(terms1), c.id
        terms3 = (math.fsum(rec.lsr[window]),
                  c.alpha * (1.0 - c.beta) / (c.beta * (1.0 + c.alpha))
                  * (c.duration - 1 - c.total_delay),
                  (1.0 - c.beta) / c.beta * (1 + c.total_delay)
                  * math.log(c.beta * peak / ((c.beta - c.alpha) * c.start_rate)))
        assert report.lemma3_slack[c.id] >= -LEMMA_RTOL * sum(map(abs, terms3)), c.id
