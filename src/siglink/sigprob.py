"""Closed-form posterior probability that a recurring candidate
signature is a true signature.

A candidate observed in k distinct deduplicated records is a signature
with probability 1/(1 + a^k * b). The parameter a > 1 is the ratio of
expected non-signature to signature recurrence and controls how fast
the probability decays with k; b > 0 encodes the prior odds against a
random candidate being a signature and controls the maximum. Both are
user-tuned; the recurrence cap ``K_CAP`` is fixed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_unit_interval

log = logging.getLogger(__name__)

# Defends against pathological (a, rho) combinations that would make
# the recurrence cap effectively unbounded.
K_CAP = 10_000


@dataclass(frozen=True)
class ProbabilityModel:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a > 1.0:
            raise ConfigError(f"model.a must be > 1 (got {self.a}); the recurrence cap is undefined otherwise")
        if not self.b > 0.0:
            raise ConfigError(f"model.b must be > 0 (got {self.b})")
        if self.b >= 1.0:
            log.warning("model.b = %g >= 1: even unique candidates get probability <= 0.5", self.b)


def signature_probability(model: ProbabilityModel, k: int) -> float:
    """P(candidate is a signature | observed in k records) = 1/(1+a^k b).

    Strictly decreasing in k. Requires k >= 1: a candidate present in an
    index has at least one posting. Underflows to 0.0 for extreme k.
    """
    if k < 1:
        raise ValueError(f"recurrence k must be >= 1 (got {k})")
    try:
        akb = model.a ** k * model.b
    except OverflowError:
        return 0.0
    return 1.0 / (1.0 + akb)


def max_recurrence(model: ProbabilityModel, rho: float, key: str = "rho") -> int:
    """Largest k >= 0 with signature_probability(k) > rho; a rho outside
    (0, 1) raises ``ConfigError`` naming it as the config ``key``.

    Returns 0 when even k = 1 fails the threshold. The result is capped
    at ``K_CAP``; hitting the cap is logged. By monotonicity this
    turns the probability filter p > rho into a posting-length filter,
    which is what lets index construction prune heavy keys early.
    """
    check_unit_interval(key, rho)
    # Analytic guess: a^k b < (1-rho)/rho  <=>  k < log(((1-rho)/rho)/b) / log(a),
    # then adjust locally so the result is exact in float arithmetic.
    ratio = (1.0 - rho) / (rho * model.b)
    if ratio <= 0:
        return 0
    guess = math.floor(math.log(ratio) / math.log(model.a)) if ratio > 1 else 0
    k = min(max(guess, 0), K_CAP)
    while k > 0 and signature_probability(model, k) <= rho:
        k -= 1
    while k < K_CAP and signature_probability(model, k + 1) > rho:
        k += 1
    if k == K_CAP:
        log.info("recurrence cap hit: k_max clamped to %d for rho=%g", K_CAP, rho)
    return k


def probability_by_length(model: ProbabilityModel, k_max: int, longest: int) -> np.ndarray:
    """A table indexed by posting length n, up to ``longest``: a key's
    ``signature_probability`` for 1 <= n <= ``k_max``, and 0.0 at n = 0
    (no key has no postings) and above ``k_max`` (pruned)."""
    return np.array([0.0] + [signature_probability(model, n) if n <= k_max else 0.0
                             for n in range(1, longest + 1)])
