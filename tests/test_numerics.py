import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebsbm.numerics import digamma, log_beta, log_gamma

EULER = 0.5772156649015329


class TestLogGamma:
    def test_known_values(self):
        assert abs(log_gamma(1.0)) <= 1e-12
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-12)
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-12)

    def test_domain(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                log_gamma(bad)

    def test_vectorized(self):
        out = log_gamma(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [0.0, 0.0, math.log(2.0)], atol=1e-12)

    def test_precision_across_domain(self):
        # oracle: 40-digit arbitrary precision reference
        import mpmath

        with mpmath.workdps(40):
            for x in [1e-6, 1e-3, 0.5, 1.5, 20.0, 1e3, 1e6, 1e12]:
                want = float(mpmath.loggamma(mpmath.mpf(x)))
                assert log_gamma(x) == pytest.approx(want, rel=1e-12, abs=1e-13)


class TestLogBeta:
    def test_known_values(self):
        assert abs(log_beta(1.0, 1.0)) <= 1e-12
        assert log_beta(2.0, 2.0) == pytest.approx(math.log(1 / 6), rel=1e-12)
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-12)

    def test_matches_gamma_composition(self):
        for a, b in [(0.3, 4.2), (7.0, 7.0), (123.4, 0.02)]:
            direct = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
            assert log_beta(a, b) == pytest.approx(direct, abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.1, 1e4), st.floats(0.1, 1e4))
    def test_symmetry_exact(self, a, b):
        assert log_beta(a, b) == log_beta(b, a)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.1, 1e4), st.floats(0.1, 1e4))
    @example(9094.99685779002, 8931.337938070423)
    def test_recurrence(self, a, b):
        # the difference cancels two values near -1e4, each a few ulps off,
        # so the bound grows with |log_beta|
        lhs = log_beta(a + 1, b) - log_beta(a, b)
        tol = 1e-10 + 64 * np.finfo(float).eps * abs(log_beta(a, b))
        assert lhs == pytest.approx(math.log(a / (a + b)), abs=tol)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, -2.0)


class TestDigamma:
    def test_known_constants(self):
        assert digamma(1.0) == pytest.approx(-EULER, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-EULER - 2 * math.log(2), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 1e6))
    def test_recurrence(self, x):
        assert digamma(x + 1) - digamma(x) == pytest.approx(1 / x, rel=1e-9, abs=1e-12)

    def test_matches_finite_difference_of_log_gamma(self):
        # oracle: central differences of log_gamma, step 1e-5
        h = 1e-5
        for x in np.geomspace(0.5, 1e3, 40):
            fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
            assert digamma(x) == pytest.approx(fd, rel=1e-6)

    def test_precision_across_domain(self):
        # oracle: 40-digit arbitrary precision reference; at tiny x the
        # value magnitude makes one float64 ulp the attainable floor
        import mpmath

        with mpmath.workdps(40):
            for x in [1e-6, 1e-3, 0.5, 1.5, 20.0, 1e3, 1e6, 1e12]:
                want = float(mpmath.digamma(mpmath.mpf(x)))
                tol = max(1e-10, float(np.spacing(abs(want))))
                assert abs(digamma(x) - want) <= tol

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)
