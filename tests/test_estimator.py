import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebsbm import estimator
from ebsbm.estimator import (
    _LOG_HI,
    _LOG_LO,
    HYPER_BOX_LOWER,
    HYPER_BOX_UPPER,
    BoxFit,
    HyperParams,
    eb_estimate,
    fit_hyperparams,
    fixed_prior_estimate,
    loglik_gradient,
    marginal_loglik,
    maximize_box,
    mle_estimate,
)
from ebsbm.experiment import run_testlik_protocol
from ebsbm.graph import BlockStats, Graph, Partition, block_stats
from ebsbm.io import bundled_data_path, ingest_network
from helpers import grid_search_max, quad_marginal_loglik


def stats_from(edge_counts, pair_counts):
    edge_counts = np.asarray(edge_counts)
    return BlockStats(K=edge_counts.shape[0], edge_counts=edge_counts,
                      pair_counts=np.asarray(pair_counts))


def random_stats(rng, K=None, n_max=50):
    K = K or int(rng.integers(2, 6))
    sizes = rng.integers(2, 9, size=K)
    pair = np.outer(sizes, sizes)
    np.fill_diagonal(pair, sizes * (sizes - 1) // 2)
    pair = np.minimum(pair, n_max)
    # heterogeneous block probabilities to exercise dispersion
    p = rng.beta(1.5, 3.0, size=(K, K))
    p = (p + p.T) / 2
    x = rng.binomial(pair, p)
    x = np.triu(x) + np.triu(x, 1).T
    return stats_from(x, pair)


class TestMle:
    def test_direct_ratio(self):
        s = stats_from([[3]], [[10]])
        assert mle_estimate(s).theta[0, 0] == pytest.approx(0.3)

    def test_zero_edges(self):
        s = stats_from([[0]], [[5]])
        assert mle_estimate(s).theta[0, 0] == 0.0

    def test_singleton_filled_with_global_density(self):
        # 4 nodes: cluster 1 = {0,1,2}, cluster 2 = {3}; 3 edges total
        g = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (1, 3)}))
        part = Partition.from_labels([1, 1, 1, 2])
        s = block_stats(g, part)
        est = mle_estimate(s)
        # oracle: |edges| / (n(n-1)/2) = 3/6
        assert est.theta[1, 1] == pytest.approx(0.5)
        assert any("global-density" in f for f in est.flags)
        assert est.method == "MLE"


class TestMarginalLoglik:
    def test_closed_form_single_block(self):
        s = stats_from([[1]], [[2]])
        got = marginal_loglik(s, 1.0, 1.0, "diagonal")
        assert got == pytest.approx(math.log(1 / 6), abs=1e-12)

    def test_empty_block_contributes_zero(self):
        s = stats_from([[1, 0], [0, 0]], [[2, 0], [0, 0]])
        with_empty = marginal_loglik(s, 1.3, 2.1, "diagonal")
        only = marginal_loglik(stats_from([[1]], [[2]]), 1.3, 2.1, "diagonal")
        assert with_empty == pytest.approx(only, abs=1e-14)

    def test_offdiagonal_selection(self):
        x = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]])
        m = np.array([[0, 4, 4], [4, 0, 4], [4, 4, 0]])
        s = stats_from(x, m)
        got = marginal_loglik(s, 2.0, 5.0, "offdiagonal")
        # oracle: adaptive quadrature per block
        want = quad_marginal_loglik([1, 0, 2], [4, 4, 4], 2.0, 5.0)
        assert got == pytest.approx(want, abs=1e-8)

    def test_quadrature_agreement_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_stats(rng)
            alpha, beta = rng.uniform(0.2, 5.0, size=2)
            for which, (xs, ms) in [
                ("diagonal", s.diagonal_counts()),
                ("offdiagonal", s.offdiagonal_counts()),
            ]:
                got = marginal_loglik(s, alpha, beta, which)
                want = quad_marginal_loglik(xs, ms, alpha, beta)
                assert got == pytest.approx(want, abs=1e-8)

    def test_domain_errors(self):
        s = stats_from([[1]], [[2]])
        with pytest.raises(ValueError):
            marginal_loglik(s, 0.0, 1.0, "diagonal")
        with pytest.raises(ValueError):
            marginal_loglik(s, 1.0, -1.0, "offdiagonal")
        with pytest.raises(ValueError):
            marginal_loglik(s, 1.0, 1.0, "sideways")


class TestGradient:
    def test_empty_counts_zero(self):
        s = stats_from([[0]], [[0]])
        assert loglik_gradient(s, 1.0, 2.0, "diagonal") == (0.0, 0.0)

    def test_symmetry(self):
        # X = n/2 in every block and alpha = beta: d/dalpha equals d/dbeta
        s = stats_from([[2, 3], [3, 2]], [[4, 6], [6, 4]])
        for which in ("diagonal", "offdiagonal"):
            da, db = loglik_gradient(s, 1.7, 1.7, which)
            assert da == pytest.approx(db, rel=1e-12)

    def test_matches_central_differences(self):
        # oracle: central finite differences of the marginal loglik
        rng = np.random.default_rng(3)
        cases = [stats_from([[1]], [[4]])] + [random_stats(rng) for _ in range(6)]
        h = 1e-5
        for s in cases:
            for which in ("diagonal", "offdiagonal"):
                for alpha, beta in [(1.0, 1.0), (0.7, 2.3), (4.0, 0.5)]:
                    da, db = loglik_gradient(s, alpha, beta, which)
                    fa = (marginal_loglik(s, alpha + h, beta, which)
                          - marginal_loglik(s, alpha - h, beta, which)) / (2 * h)
                    fb = (marginal_loglik(s, alpha, beta + h, which)
                          - marginal_loglik(s, alpha, beta - h, which)) / (2 * h)
                    assert da == pytest.approx(fa, rel=1e-4, abs=1e-8)
                    assert db == pytest.approx(fb, rel=1e-4, abs=1e-8)


class TestFitHyperparams:
    def test_identical_blocks_pool_fully(self):
        # every diagonal block has frequency 0.3: prior mean must match it
        # and the concentration sits at the box edge
        K = 6
        x = np.zeros((K, K), dtype=int)
        m = np.zeros((K, K), dtype=int)
        np.fill_diagonal(x, 30)
        np.fill_diagonal(m, 100)
        m[~np.eye(K, dtype=bool)] = 50
        x[~np.eye(K, dtype=bool)] = 10
        s = stats_from(x, m)
        hp = fit_hyperparams(s)
        # the complete-pooling limit, in closed form: the pooled mean 0.3
        # at the box edge, flagged, with no iteration
        assert hp.diag_pooled and hp.diag_converged
        assert hp.alpha0 / (hp.alpha0 + hp.beta0) == pytest.approx(0.3, rel=1e-12)
        assert max(hp.alpha0, hp.beta0) == HYPER_BOX_UPPER
        # oracle: log-spaced grid search cannot beat the optimizer
        def obj(a, b):
            return marginal_loglik(s, a, b, "diagonal")
        grid_best, _ = grid_search_max(obj, HYPER_BOX_LOWER, HYPER_BOX_UPPER, num=60)
        assert marginal_loglik(s, hp.alpha0, hp.beta0, "diagonal") >= grid_best - 1e-3

    def test_dispersed_blocks_heavy_tail(self):
        # half the diagonal blocks nearly full, half nearly empty
        K = 6
        x = np.zeros((K, K), dtype=int)
        m = np.zeros((K, K), dtype=int)
        np.fill_diagonal(m, 40)
        for k in range(K):
            x[k, k] = 39 if k % 2 == 0 else 1
        m[~np.eye(K, dtype=bool)] = 30
        x[~np.eye(K, dtype=bool)] = 10
        s = stats_from(x, m)
        hp = fit_hyperparams(s)
        assert hp.alpha0 + hp.beta0 < 1.0
        def obj(a, b):
            return marginal_loglik(s, a, b, "diagonal")
        grid_best, _ = grid_search_max(obj, HYPER_BOX_LOWER, HYPER_BOX_UPPER, num=60)
        assert marginal_loglik(s, hp.alpha0, hp.beta0, "diagonal") >= grid_best - 1e-3

    def test_k1_offdiagonal_defaulted(self):
        s = stats_from([[4]], [[10]])
        hp = fit_hyperparams(s)
        assert (hp.alpha1, hp.beta1) == (1.0, 1.0)
        assert not hp.offdiag_fitted

    def test_all_singletons_rejected(self):
        s = stats_from(np.zeros((2, 2), dtype=int),
                       [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            fit_hyperparams(s)

    def test_beats_moment_initializer(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = random_stats(rng)
            hp = fit_hyperparams(s)
            assert hp.diag_converged
            # MoM start is (1,1) at worst; fitted objective can't be below it
            got = marginal_loglik(s, hp.alpha0, hp.beta0, "diagonal")
            assert got >= marginal_loglik(s, 1.0, 1.0, "diagonal") - 1e-9

    def test_within_box(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            hp = fit_hyperparams(random_stats(rng))
            for v in (hp.alpha0, hp.beta0, hp.alpha1, hp.beta1):
                assert HYPER_BOX_LOWER * 0.999 <= v <= HYPER_BOX_UPPER * 1.001


def exact_c(xs, ms):
    """The 1/s coefficient C of the marginal at the pooled mean, exactly;
    0 when the family has no edge or no non-edge."""
    sx, sm = sum(xs), sum(ms)
    if sx in (0, sm):
        return Fraction(0)
    mu = Fraction(sx, sm)
    return sum(Fraction(x * (x - 1)) / (2 * mu) + Fraction((m - x) * (m - x - 1)) / (2 * (1 - mu))
               - Fraction(m * (m - 1), 2) for x, m in zip(xs, ms))


def diagonal_family(xs, ms):
    """BlockStats whose diagonal family is (xs, ms) and whose off-diagonal
    blocks have no pair."""
    return stats_from(np.diag(xs), np.diag(ms))


def binomial_limit(xs, ms):
    """The marginal's limit as s -> inf at the pooled mean."""
    sx, sm = sum(xs), sum(ms)
    return ((sx * math.log(sx / sm) if sx else 0.0)
            + ((sm - sx) * math.log(1 - sx / sm) if sm - sx else 0.0))


@st.composite
def families(draw):
    ms = draw(st.lists(st.integers(1, 30), min_size=1, max_size=8))
    xs = [draw(st.integers(0, m)) for m in ms]
    return xs, ms


class TestPooling:
    @settings(max_examples=80, deadline=None)
    @given(families())
    def test_pooled_only_when_c_nonpositive(self, fam):
        # C > 0: never pooled. C <= 0: pooled, unless the fit found a
        # marginal above the complete-pooling (Binomial) limit at mu
        xs, ms = fam
        s = diagonal_family(xs, ms)
        hp = fit_hyperparams(s)
        c = exact_c(xs, ms)
        if c > 0:
            assert not hp.diag_pooled
        elif not hp.diag_pooled:
            got = marginal_loglik(s, hp.alpha0, hp.beta0, "diagonal")
            assert got > binomial_limit(xs, ms)
        assert hp.diag_converged
        for v in (hp.alpha0, hp.beta0):
            assert HYPER_BOX_LOWER <= v <= HYPER_BOX_UPPER

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 12), st.lists(st.integers(1, 6), min_size=1,
                                                             max_size=8))
    def test_single_block_and_equal_frequency_pool(self, p, q, ks):
        # every block at frequency p / q (or a single block): C < 0 and no
        # Beta prior beats the point mass at the pooled mean
        p = min(p, q - 1)
        xs, ms = [p * k for k in ks], [q * k for k in ks]
        assert exact_c(xs, ms) < 0
        hp = fit_hyperparams(diagonal_family(xs, ms))
        assert hp.diag_pooled and hp.diag_converged
        assert max(hp.alpha0, hp.beta0) == HYPER_BOX_UPPER
        assert hp.alpha0 / (hp.alpha0 + hp.beta0) == pytest.approx(p / q, rel=1e-12)

    @pytest.mark.parametrize("full, want", [(False, (HYPER_BOX_LOWER, HYPER_BOX_UPPER)),
                                            (True, (HYPER_BOX_UPPER, HYPER_BOX_LOWER))])
    def test_empty_and_full_families(self, full, want):
        ms = [3, 10, 6]
        x, m = np.full((3, 3), 2), np.full((3, 3), 4)
        np.fill_diagonal(x, ms if full else 0)
        np.fill_diagonal(m, ms)
        hp = fit_hyperparams(stats_from(x, m))
        assert (hp.alpha0, hp.beta0) == want
        assert hp.diag_pooled and hp.diag_converged

    def test_local_pooling_loses_to_interior_maximum(self):
        # C < 0 (the large block sits at the pooled mean) but the small
        # blocks' spread gives an interior maximum 8.5 above the limit
        xs = [5, 0, 13, 0, 10, 18, 0, 140, 17, 25]
        ms = [5, 39, 42, 6, 195, 210, 30, 1638, 234, 252]
        assert exact_c(xs, ms) < 0
        s = diagonal_family(xs, ms)
        hp = fit_hyperparams(s)
        assert not hp.diag_pooled and hp.diag_converged
        assert hp.alpha0 + hp.beta0 < 10
        got = marginal_loglik(s, hp.alpha0, hp.beta0, "diagonal")
        assert got > binomial_limit(xs, ms) + 8

    def test_flags_serialized(self):
        hp = fit_hyperparams(stats_from(np.where(np.eye(3, dtype=bool), 10, 4),
                                        np.full((3, 3), 100)))
        blob = hp.to_json_dict()
        assert blob["diag_pooled"] is True and blob["offdiag_pooled"] is True
        assert HyperParams(1.0, 1.0, 1.0, 1.0).to_json_dict()["diag_pooled"] is False


LOG_LO = math.log(HYPER_BOX_LOWER)
LOG_HI = math.log(HYPER_BOX_UPPER)


def quad_obj(center, scale=1.0):
    """-scale * |u - center|^2 with its gradient and Hessian, in log space."""
    center = np.asarray(center, dtype=np.float64)

    def f(u):
        d = u - center
        return -scale * float(d @ d), -2 * scale * d, -2 * scale * np.eye(2)
    return f


class TestMaximizeBox:
    def test_interior_quadratic(self):
        res = maximize_box(quad_obj([3.0, -2.0]), np.zeros(2))
        assert np.allclose(res.argmax, [3.0, -2.0], atol=1e-6)
        assert res.converged

    def test_boundary_quadratic(self):
        # the optimum lies beyond log(HYPER_BOX_UPPER) in the first coordinate
        res = maximize_box(quad_obj([20.0, 1.0]), np.zeros(2))
        assert res.argmax[0] == pytest.approx(LOG_HI, abs=1e-8)
        assert res.argmax[1] == pytest.approx(1.0, abs=1e-6)
        assert res.converged

    def test_2d_anisotropic(self):
        # oracle: the stationary point of -(u-1)^2 - 10(v-2)^2 is (1, 2)
        def f(u):
            v = -((u[0] - 1.0) ** 2) - 10.0 * (u[1] - 2.0) ** 2
            g = np.array([-2.0 * (u[0] - 1.0), -20.0 * (u[1] - 2.0)])
            return v, g, np.diag([-2.0, -20.0])

        res = maximize_box(f, np.array([0.5, 0.5]))
        assert np.allclose(res.argmax, [1.0, 2.0], atol=1e-6)
        assert f(res.argmax)[0] == pytest.approx(0.0, abs=1e-10)

    def test_indefinite_hessian_start(self):
        # -(u^2 - 1)^2 - (v - 2)^2 has Hessian diag(4, -2) at u = 0: a plain
        # Newton step would climb down to the saddle; the flipped one ascends
        # to the maximum at (1, 2)
        def f(u):
            v = -((u[0] ** 2 - 1.0) ** 2) - (u[1] - 2.0) ** 2
            g = np.array([-4.0 * u[0] * (u[0] ** 2 - 1.0), -2.0 * (u[1] - 2.0)])
            return v, g, np.diag([4.0 - 12.0 * u[0] ** 2, -2.0])

        start = np.array([0.1, 0.0])
        assert np.linalg.eigvalsh(f(start)[2]).max() > 0
        res = maximize_box(f, start)
        assert res.converged
        assert np.allclose(res.argmax, [1.0, 2.0], atol=1e-6)

    def test_overshooting_step_is_halved(self):
        # -log cosh(u - c): from 2 away the Newton step, -sinh cosh, lands
        # 11.6 past the optimum, lower; the halved steps reach it
        def f(u):
            d = u - np.array([1.0, -1.0])
            return (-float(np.sum(np.log(np.cosh(d)))), -np.tanh(d),
                    np.diag(-1.0 / np.cosh(d) ** 2))

        calls = []
        res = maximize_box(lambda u: calls.append(1) or f(u), np.array([3.0, -3.0]))
        assert res.converged
        assert np.allclose(res.argmax, [1.0, -1.0], atol=1e-6)
        assert len(calls) > res.iterations + 1

    def test_never_below_init(self):
        # the one trial passes the gradient test 1e-11 below the value at
        # init, within rounding, so it is taken; the fit still returns init
        def f(u):
            at_init = np.array_equal(u, np.zeros(2))
            return (0.0 if at_init else -1e-11,
                    np.full(2, 1e-3) if at_init else np.zeros(2), -np.eye(2))

        res = maximize_box(f, np.zeros(2))
        assert np.array_equal(res.argmax, np.zeros(2)) and not res.converged

    def test_nonfinite_init_rejected(self):
        def f(u):
            return float("nan"), np.zeros(2), np.zeros((2, 2))

        with pytest.raises(ValueError, match="not finite at init"):
            maximize_box(f, np.zeros(2))

    @pytest.mark.parametrize("center, iterations", [(3.0, 1), (20.0, 2)])
    def test_objective_calls_are_init_then_trials(self, center, iterations):
        # one call at init, then one per line-search trial: on a quadratic
        # every step is taken whole (beyond the box, shortened to the bound,
        # then one with that coordinate held), and the value at the result
        # is not evaluated again
        f = quad_obj([center, 1.0])
        calls = []

        def counted(u):
            calls.append(np.array(u))
            return f(u)

        init = np.array([1.0, -1.0])
        res = maximize_box(counted, init)
        assert res.converged and res.iterations == iterations
        assert len(calls) == iterations + 1
        assert np.array_equal(calls[0], init)
        assert np.array_equal(calls[-1], res.argmax)

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(st.floats(-15, 20), st.floats(-15, 20)),
           st.tuples(st.floats(LOG_LO + 0.05, LOG_HI - 0.05),
                     st.floats(LOG_LO + 0.05, LOG_HI - 0.05)))
    def test_stays_in_box_and_improves(self, center, start):
        f = quad_obj(center)
        res = maximize_box(f, np.array(start))
        assert np.all(res.argmax >= LOG_LO) and np.all(res.argmax <= LOG_HI)
        assert f(res.argmax)[0] >= f(np.array(start))[0] - 1e-12
        assert res.converged


def _reference_maximize_box(objective, init) -> BoxFit:
    # the masked Newton step at every point, with no plain path: the
    # reference whose bytes maximize_box must give
    def newton(u, g, H):
        lo, hi = u <= _LOG_LO + 1e-9, u >= _LOG_HI - 1e-9
        free = ~((lo & (g < 0)) | (hi & (g > 0)))
        lam, vec = np.linalg.eigh(-H[np.ix_(free, free)])
        step = np.zeros(2)
        step[free] = vec @ (vec.T @ g[free] / np.maximum(np.abs(lam), 1e-12))
        # shortened, not clipped, to the box: it keeps its direction
        step[(lo & (step < 0)) | (hi & (step > 0))] = 0
        over = (u + step > _LOG_HI) | (u + step < _LOG_LO)
        step *= np.divide(np.where(step > 0, _LOG_HI, _LOG_LO) - u, step,
                          out=np.ones(2), where=over).min()
        return step, np.max(np.abs(g[free]), initial=0.0) < 1e-6 and g @ step < 2e-11

    u0 = u = np.asarray(init, dtype=np.float64)
    f, g, H = objective(u)
    if not (np.isfinite(f) and np.isfinite(g).all() and np.isfinite(H).all()):
        raise ValueError("objective is not finite at init")
    f0, (step, done), it = f, newton(u, g, H), 0
    while not done and it < 100:
        for _ in range(60):
            trial = np.clip(u + step, _LOG_LO, _LOG_HI)
            ft, gt, Ht = objective(trial)
            step_t, done = newton(trial, gt, Ht)
            if ft > f or (done and ft >= f - 1e-10 * (1 + abs(f))):
                break
            step /= 2
        else:
            done = False
            break
        u, f, step, it = trial, ft, step_t, it + 1
    if f < f0:
        return BoxFit(argmax=u0, converged=False, iterations=it)
    return BoxFit(argmax=u, converged=bool(done), iterations=it)


def fit_bits(fit):
    return [v.hex() for v in fit.argmax.tolist()], fit.converged, fit.iterations


def assert_as_reference(objective, init):
    """maximize_box's BoxFit and trial points, bit for bit the reference's."""
    def traced(points):
        def call(u):
            points.append([v.hex() for v in u.tolist()])
            return objective(u)
        return call

    got_points, want_points = [], []
    got = maximize_box(traced(got_points), init)
    want = _reference_maximize_box(traced(want_points), init)
    assert fit_bits(got) == fit_bits(want)
    assert got_points == want_points
    return got


def against_reference(fits):
    """A stand-in for maximize_box that checks each call against the
    reference and records the fit."""
    def both(objective, init):
        fits.append(assert_as_reference(objective, init))
        return fits[-1]
    return both


def coupled_quad(center, A=((2.0, 0.8), (0.8, 1.0))):
    """-(u - center) A (u - center) / 2 with a coupled Hessian -A."""
    center, A = np.asarray(center, dtype=np.float64), np.array(A)

    def f(u):
        d = u - center
        return -0.5 * float(d @ A @ d), -(A @ d), -A.copy()
    return f


class TestMaximizeBoxReference:
    """maximize_box gives the reference's BoxFit bit for bit (the same
    argmax floats, convergence flag and step count) through the same
    trial points."""

    def test_criterion_8_splits(self, monkeypatch):
        graph, part, _, _ = ingest_network(bundled_data_path("synthetic_edges.txt"),
                                           bundled_data_path("synthetic_labels.txt"))
        fits = []
        monkeypatch.setattr(estimator, "maximize_box", against_reference(fits))
        run_testlik_protocol(graph, part, n_splits=100, fraction=0.7, base_seed=0)
        assert len(fits) > 50  # the rest of the 200 families pool

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=10), st.data())
    def test_random_families(self, ms, data):
        xs = [data.draw(st.integers(0, m)) for m in ms]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "maximize_box", against_reference([]))
            fit_hyperparams(diagonal_family(xs, ms))

    @pytest.mark.parametrize("coord", [0, 1])
    @pytest.mark.parametrize("bound, beyond", [(LOG_LO, -20.0), (LOG_HI, 20.0)])
    def test_start_on_bound_gradient_out(self, coord, bound, beyond):
        # the coordinate on the bound is held; the other one moves
        init, center = np.array([0.5, -0.5]), np.array([1.0, -1.0])
        init[coord], center[coord] = bound, beyond
        f = coupled_quad(center)
        assert f(init)[1][coord] * np.sign(beyond) > 0
        fit = assert_as_reference(f, init)
        assert fit.argmax[coord] == bound and fit.converged

    @pytest.mark.parametrize("coord", [0, 1])
    @pytest.mark.parametrize("bound", [LOG_LO, LOG_HI])
    def test_start_on_bound_gradient_in(self, coord, bound):
        init = np.array([0.5, -0.5])
        init[coord] = bound
        assert assert_as_reference(coupled_quad([1.0, -1.0]), init).converged

    def test_step_over_the_box_is_shortened(self):
        # from the interior, the first step lands at 20 > log(1e6)
        f = coupled_quad([20.0, 1.0])
        fit = assert_as_reference(f, np.zeros(2))
        assert fit.argmax[0] == LOG_HI and fit.iterations >= 2

    def test_objective_never_rises(self):
        # every trial is lower: 60 halvings, then the fit stops at init
        calls = []

        def f(u):
            calls.append(1)
            return (0.0 if np.array_equal(u, np.zeros(2)) else -1.0,
                    np.ones(2), -np.eye(2))

        fit = assert_as_reference(f, np.zeros(2))
        assert not fit.converged and fit.iterations == 0
        assert len(calls) == 2 * (1 + 60)  # init and 60 trials, on each side

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.floats(-25, 25), st.floats(-25, 25)),
           st.tuples(*[st.sampled_from([LOG_LO, LOG_HI]) | st.floats(LOG_LO, LOG_HI)] * 2),
           st.floats(-0.9, 0.9))
    def test_random_quadratics(self, center, start, corr):
        assert_as_reference(coupled_quad(center, ((1.0, corr), (corr, 1.0))), np.array(start))


class TestPinnedValues:
    """Exact floats of the fit and of the marginal kernel at fixed inputs.

    Any reordering of the kernel's arithmetic or change to the optimizer's
    path moves the last bits, so these compare with ==, not approx.
    """

    INTERIOR = ([[12, 3, 10], [3, 30, 1], [10, 1, 5]],
                [[45, 90, 99], [90, 66, 60], [99, 60, 28]])

    def test_fit_interior_optimum(self):
        hp = fit_hyperparams(stats_from(*self.INTERIOR))
        assert (hp.alpha0, hp.beta0) == (7.755235536115216, 16.950560374180245)
        assert (hp.alpha1, hp.beta1) == (3.502159811331931, 62.46854850776447)
        assert hp.offdiag_fitted and hp.diag_converged and hp.offdiag_converged
        assert not hp.diag_pooled and not hp.offdiag_pooled

    def test_fit_ends_at_box_edge(self):
        s = stats_from(np.where(np.eye(3, dtype=bool), 10, 4), np.full((3, 3), 100))
        hp = fit_hyperparams(s)
        assert (hp.alpha0, hp.beta0) == (111111.11111111111, 1000000.0)
        assert (hp.alpha1, hp.beta1) == (41666.666666666664, 1000000.0)
        assert hp.diag_converged and hp.offdiag_converged
        assert hp.diag_pooled and hp.offdiag_pooled

    def test_fit_k1_offdiagonal_unfitted(self):
        hp = fit_hyperparams(stats_from([[7]], [[21]]))
        assert (hp.alpha0, hp.beta0) == (500000.0, 1000000.0)
        assert (hp.alpha1, hp.beta1) == (1.0, 1.0)
        assert not hp.offdiag_fitted and hp.diag_converged
        assert hp.diag_pooled and not hp.offdiag_pooled

    @pytest.mark.parametrize("alpha, beta, which, value, grad", [
        (0.7, 2.5, "diagonal", -89.65866556166714,
         (2.697365677344693, -0.22002828554868814)),
        (0.7, 2.5, "offdiagonal", -55.81278520295707,
         (-2.934700412416941, 0.7076612825514472)),
        (13.25, 101.0, "diagonal", -101.44447385949219,
         (1.1924924893241622, -0.21475976327382895)),
        (13.25, 101.0, "offdiagonal", -56.98676497395958,
         (-0.7670625535466211, 0.08711674283706472)),
    ])
    def test_marginal_and_gradient(self, alpha, beta, which, value, grad):
        s = stats_from(*self.INTERIOR)
        assert marginal_loglik(s, alpha, beta, which) == value
        assert loglik_gradient(s, alpha, beta, which) == grad

    def test_fit_skips_checked_wrappers(self, monkeypatch):
        # inputs are validated at the API boundary; the optimizer loop
        # must not go through the contract-checked special functions
        import ebsbm.numerics as numerics

        def forbidden(x, name):
            raise AssertionError(f"{name} checked inside the fit")

        monkeypatch.setattr(numerics, "_check_positive", forbidden)
        fit_hyperparams(stats_from(*self.INTERIOR))


class TestEbEstimate:
    def test_posterior_mean_formula(self):
        s = stats_from([[3]], [[10]])
        hp = HyperParams(1.0, 1.0, 1.0, 1.0)
        est = eb_estimate(s, hp)
        assert est.theta[0, 0] == pytest.approx(4 / 12)
        assert est.method == "EB"

    def test_shrinkage_factor(self):
        s = stats_from([[3]], [[8]])
        hp = HyperParams(1.0, 1.0, 1.0, 1.0)
        est = eb_estimate(s, hp)
        assert est.shrinkage[0, 0] == pytest.approx(0.2)

    def test_empty_block_prior_mean(self):
        x = [[2, 0], [0, 0]]
        m = [[6, 0], [0, 0]]
        hp = HyperParams(2.0, 6.0, 1.0, 3.0)
        est = eb_estimate(stats_from(x, m), hp)
        assert est.theta[1, 1] == pytest.approx(2.0 / 8.0)
        assert est.shrinkage[1, 1] == pytest.approx(1.0)
        assert est.theta[0, 1] == pytest.approx(1.0 / 4.0)

    def test_convex_combination_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = random_stats(rng)
            hp = HyperParams(*rng.uniform(0.2, 8.0, size=4))
            est = eb_estimate(s, hp)
            mle = mle_estimate(s)
            d_mask = np.eye(s.K, dtype=bool)
            prior_mean = np.where(d_mask, hp.alpha0 / (hp.alpha0 + hp.beta0),
                                  hp.alpha1 / (hp.alpha1 + hp.beta1))
            ok = s.pair_counts > 0
            lhs = est.theta[ok]
            rhs = (est.shrinkage * prior_mean + (1 - est.shrinkage) * mle.theta)[ok]
            assert np.allclose(lhs, rhs, atol=1e-12, rtol=0)

    def test_shrinkage_limits(self):
        rng = np.random.default_rng(22)
        s = random_stats(rng)
        mle = mle_estimate(s)
        ok = s.pair_counts > 0
        # vanishing prior mass: EB collapses onto the MLE
        tiny = HyperParams(1e-12, 1e-12, 1e-12, 1e-12)
        est = eb_estimate(s, tiny)
        assert np.max(np.abs(est.theta[ok] - mle.theta[ok])) < 1e-6
        # huge prior mass at fixed ratio: every entry goes to the prior mean
        big = HyperParams(0.4e12, 0.6e12, 0.3e12, 0.7e12)
        est2 = eb_estimate(s, big)
        d_mask = np.eye(s.K, dtype=bool)
        want = np.where(d_mask, 0.4, 0.3)
        assert np.max(np.abs(est2.theta - want)) < 1e-6


class TestFixedPrior:
    def test_prior_mean_no_data(self):
        est = fixed_prior_estimate(stats_from([[0]], [[0]]), 0.5, 0.5)
        assert est.theta[0, 0] == pytest.approx(0.5)
        assert est.method == "fixed-prior"

    def test_uniform_prior(self):
        est = fixed_prior_estimate(stats_from([[3]], [[10]]), 1.0, 1.0)
        assert est.theta[0, 0] == pytest.approx(1 / 3)

    def test_jeffreys(self):
        est = fixed_prior_estimate(stats_from([[10]], [[10]]), 0.5, 0.5)
        assert est.theta[0, 0] == pytest.approx(10.5 / 11)

    def test_domain(self):
        # the rule of marginal_loglik: an infinite a0 once warned and then
        # raised "theta must be symmetric", a string raised TypeError, a
        # list raised numpy's "truth value ... is ambiguous" and a
        # one-element array passed
        stats = stats_from([[1]], [[2]])
        for a0, b0 in ((0.0, 1.0), (1.0, -2.0), (np.inf, 0.5), (0.5, np.nan), ("0.5", 0.5),
                       (0.5, None), ([1, 2], 0.5), (np.array([1.5]), 0.5), (0.5, np.array(1.5))):
            with pytest.raises(ValueError, match="hyperparameters must be positive finite"):
                fixed_prior_estimate(stats, a0, b0)
            with pytest.raises(ValueError, match="hyperparameters must be positive finite"):
                marginal_loglik(stats, a0, b0, "diagonal")


class TestSerialization:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(30)
        s = random_stats(rng)
        hp = fit_hyperparams(s)
        est = eb_estimate(s, hp)
        # estimate.json holds the row-major matrices, and floats survive
        # the trip through JSON text bit for bit
        blob = json.loads(json.dumps(est.to_json_dict()))
        assert blob["method"] == est.method and blob["K"] == est.K
        assert np.array_equal(np.reshape(blob["theta"], (est.K, est.K)), est.theta)
        assert np.array_equal(np.reshape(blob["shrinkage"], (est.K, est.K)), est.shrinkage)
        assert blob["hyper"] == est.hyper.to_json_dict()

    def test_hyperparams_must_be_positive(self):
        with pytest.raises(ValueError):
            HyperParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            HyperParams(1.0, 1.0, float("inf"), 1.0)
