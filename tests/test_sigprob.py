import math
from unittest.mock import patch

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from siglink import sigprob
from siglink.errors import ConfigError
from siglink.sigprob import ProbabilityModel, max_recurrence, signature_probability


def bayes_posterior(lam: float, mu: float, c: float, k: int) -> float:
    """Literal Poisson-likelihood + Bayes composition (test oracle)."""
    pois_sig = math.exp(-lam) * lam**k / math.factorial(k)
    pois_non = math.exp(-mu) * mu**k / math.factorial(k)
    joint_sig = pois_sig * c
    joint_non = pois_non * (1.0 - c)
    return joint_sig / (joint_sig + joint_non)


class TestSignatureProbability:
    def test_direct_substitution(self):
        m = ProbabilityModel(a=2, b=0.25)
        assert signature_probability(m, 1) == pytest.approx(1 / 1.5)

    def test_k_one_with_b_one(self):
        # 1/(1 + a*b) at a near 1, b = 1 approaches the k->0 limit 1/(1+b) = 0.5
        m = ProbabilityModel(a=1.0000001, b=1.0)
        assert signature_probability(m, 1) == pytest.approx(0.5, abs=1e-6)

    def test_decay_parameter_role(self):
        # a -> 1+ makes the probability flat in k at 1/(1+b)
        m = ProbabilityModel(a=1 + 1e-12, b=0.5)
        for k in (1, 5, 50):
            assert signature_probability(m, k) == pytest.approx(1 / 1.5, rel=1e-9)

    def test_k_zero_is_contract_violation(self):
        m = ProbabilityModel(a=2, b=0.25)
        with pytest.raises(ValueError):
            signature_probability(m, 0)

    def test_extreme_k_underflows_to_zero(self):
        m = ProbabilityModel(a=10, b=1e-3)
        assert signature_probability(m, 100_000) == 0.0

    @given(st.floats(1.01, 50), st.floats(1e-6, 10), st.integers(1, 200))
    def test_monotone_decreasing_and_bounded(self, a, b, k):
        # keep a^(k+1) b inside float range; beyond it p underflows to 0
        assume((k + 1) * math.log(a) + math.log(b) < 700)
        m = ProbabilityModel(a=a, b=b)
        p_k = signature_probability(m, k)
        p_next = signature_probability(m, k + 1)
        assert 0.0 < p_k < 1.0
        assert p_next < p_k

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            ProbabilityModel(a=1.0, b=0.5)
        with pytest.raises(ConfigError):
            ProbabilityModel(a=0.5, b=0.5)
        with pytest.raises(ConfigError):
            ProbabilityModel(a=2.0, b=0.0)


class TestMaxRecurrence:
    def test_boundary_excluded_by_strict_inequality(self):
        # k=1 -> 2/3 > 0.5; k=2 -> exactly 0.5, excluded
        m = ProbabilityModel(a=2, b=0.25)
        assert max_recurrence(m, 0.5) == 1

    def test_zero_when_even_k1_fails(self):
        m = ProbabilityModel(a=2, b=4)
        assert max_recurrence(m, 0.5) == 0  # k=1 gives 1/9

    def test_tiny_rho_hits_cap(self):
        m = ProbabilityModel(a=1.001, b=1e-6)
        with patch.object(sigprob, "K_CAP", 500):
            assert max_recurrence(m, 1e-9) == 500

    def test_rho_out_of_range(self):
        m = ProbabilityModel(a=2, b=0.25)
        for rho in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                max_recurrence(m, rho)

    @given(
        st.floats(0.01, 5.0),  # log(a)
        st.floats(-8.0, 2.0),  # log(b)
        st.floats(0.001, 0.999),
    )
    def test_consistency(self, log_a, log_b, rho):
        m = ProbabilityModel(a=math.exp(log_a), b=math.exp(log_b))
        k = max_recurrence(m, rho)
        if k > 0:
            assert signature_probability(m, k) > rho
        if k < sigprob.K_CAP:
            assert signature_probability(m, k + 1) <= rho


class TestClosedFormAgainstBayes:
    def test_identity_over_grid(self):
        worst = 0.0
        for lam in (0.2, 0.5, 1.0, 2.0, 3.0):
            for ratio in (1.5, 2.0, 5.0, 10.0):
                mu = lam * ratio
                for c in (0.1, 0.3, 0.5, 0.8, 0.95):
                    m = ProbabilityModel(a=mu / lam, b=math.exp(lam - mu) * (1 - c) / c)
                    for k in range(1, 31):
                        expected = bayes_posterior(lam, mu, c, k)
                        got = signature_probability(m, k)
                        worst = max(worst, abs(got - expected) / expected)
        assert worst <= 1e-12
