"""The delayed multiplicative rate rule, isolated from the network.

A source warms up by sending its start rate for the first ``delay + 1``
rounds (no feedback can have arrived yet), then updates each round from the
rate one full feedback cycle earlier:

    rate(t) = rate(t - 1 - delay) * (1 + alpha - beta * loss_fraction(t - 1))

The loss fraction fed back for round ``t`` refers to the cohort sent at
``t - delay``. Both functions are pure, on plain floats, so they can be
unit-tested against hand traces.
"""

from __future__ import annotations

import math

# Relative slack forgiven when acknowledgment arithmetic leaves tiny
# negative loss fractions; anything larger is a conservation bug upstream.
LSR_CLAMP_TOLERANCE = 1e-12


class ProtocolError(RuntimeError):
    """A loss fraction or rate outside its domain, or feedback that breaks conservation."""


def update_rate(prev: float, lsr: float, alpha: float, beta: float) -> float:
    """Multiplicative update of ``prev``, the rate one feedback cycle ago."""
    if not 0.0 <= lsr <= 1.0:
        raise ProtocolError(f"loss fraction {lsr} outside [0,1]")
    rate = prev * (1.0 + alpha - beta * lsr)
    if not 0.0 < rate < math.inf:
        if rate > 0:
            raise ProtocolError(f"send rate overflowed to {rate}")
        raise ProtocolError(f"non-positive send rate {rate}")
    return rate


def loss_fraction(sent: float, rcvd: float) -> float:
    """Loss fraction observed for a cohort of size ``sent`` that delivered ``rcvd``.

    Tiny negative fractions from float residue are clamped to 0; anything
    beyond LSR_CLAMP_TOLERANCE means conservation was broken upstream.
    """
    if rcvd < 0:
        raise ProtocolError(f"negative rcvd {rcvd}")
    lsr = (sent - rcvd) / sent
    if lsr < 0.0:
        if lsr < -LSR_CLAMP_TOLERANCE:
            raise ProtocolError(f"rcvd {rcvd} exceeds sent {sent} beyond tolerance")
        return 0.0
    return min(lsr, 1.0)
