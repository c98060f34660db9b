import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from ebsbm.numerics import Bounds, digamma, log_beta, log_gamma, maximize_box

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


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bounds(lower=np.array([0.0, 1.0]), upper=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Bounds(lower=np.array([0.0]), upper=np.array([np.inf]))

    def test_contains_and_clip(self):
        b = Bounds(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 2.0]))
        assert b.contains([0.5, 1.0], strict=True)
        assert not b.contains([0.0, 1.0], strict=True)
        assert np.array_equal(b.clip([-1.0, 5.0]), [0.0, 2.0])


def quad_obj(center, scale=1.0):
    def f(x):
        d = x - center
        return -scale * float(d @ d), -2 * scale * d
    return f


class TestMaximizeBox:
    def test_interior_quadratic(self):
        b = Bounds(lower=np.array([0.0]), upper=np.array([10.0]))
        res = maximize_box(quad_obj(np.array([3.0])), b, np.array([1.0]))
        assert res.argmax[0] == pytest.approx(3.0, abs=1e-6)
        assert res.converged

    def test_boundary_quadratic(self):
        b = Bounds(lower=np.array([0.0]), upper=np.array([2.0]))
        res = maximize_box(quad_obj(np.array([3.0])), b, np.array([1.0]))
        assert res.argmax[0] == pytest.approx(2.0, abs=1e-8)

    def test_2d_anisotropic(self):
        # oracle: the stationary point of -(x-1)^2 - 10(y-2)^2 is (1, 2)
        def f(x):
            v = -((x[0] - 1.0) ** 2) - 10.0 * (x[1] - 2.0) ** 2
            g = np.array([-2.0 * (x[0] - 1.0), -20.0 * (x[1] - 2.0)])
            return v, g

        b = Bounds(lower=np.zeros(2), upper=np.full(2, 5.0))
        res = maximize_box(f, b, np.array([0.5, 0.5]))
        assert np.allclose(res.argmax, [1.0, 2.0], atol=1e-6)
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_nonfinite_init_rejected(self):
        def f(x):
            return float("nan"), np.zeros(1)

        b = Bounds(lower=np.array([0.0]), upper=np.array([1.0]))
        with pytest.raises(ValueError):
            maximize_box(f, b, np.array([0.5]))

    @pytest.mark.parametrize("center", [3.0, 12.0])
    def test_objective_calls_equal_lbfgsb_evaluations(self, center):
        # the init check serves L-BFGS-B's first evaluation and the last
        # evaluation serves the returned value: no call outside the solver
        f = quad_obj(np.array([center]))
        calls = []

        def counted(x):
            calls.append(np.array(x))
            return f(x)

        b = Bounds(lower=np.array([0.0]), upper=np.array([10.0]))
        res = maximize_box(counted, b, np.array([1.0]))
        direct = minimize(lambda x: tuple(-v for v in f(x)), np.array([1.0]), jac=True,
                          method="L-BFGS-B", bounds=[(0.0, 10.0)],
                          options={"maxiter": 500, "gtol": 1e-6, "ftol": 1e-15})
        assert len(calls) == direct.nfev
        assert np.array_equal(res.argmax, direct.x)
        assert res.value == f(res.argmax)[0]

    def test_init_must_be_strictly_inside(self):
        b = Bounds(lower=np.array([0.0]), upper=np.array([1.0]))
        with pytest.raises(ValueError):
            maximize_box(quad_obj(np.array([0.5])), b, np.array([0.0]))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-5, 15), st.floats(0.05, 9.95))
    def test_stays_in_box_and_improves(self, center, start):
        b = Bounds(lower=np.array([0.0]), upper=np.array([10.0]))
        f = quad_obj(np.array([center]))
        res = maximize_box(f, b, np.array([start]))
        assert b.contains(res.argmax)
        assert res.value >= f(np.array([start]))[0] - 1e-12
