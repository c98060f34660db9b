import numpy as np
import pytest

from ebsbm.estimator import ConnectivityEstimate
from ebsbm.graph import Partition
from ebsbm.graphon import (
    StepGraphon,
    bin_index,
    build_step_graphon,
    mse_graphon,
    reorder_identifiable,
)
from ebsbm.samplers import GraphonSpec, powerlaw_graphon
from helpers import midpoint_grid_mse, step_values


def step(boundaries, theta):
    return StepGraphon(boundaries=np.asarray(boundaries, float),
                       theta=np.asarray(theta, float))


class TestStepGraphon:
    def test_validation(self):
        with pytest.raises(ValueError):
            step([0.0, 0.5, 0.9], [[0.1, 0.2], [0.2, 0.3]])  # last != 1
        with pytest.raises(ValueError):
            step([0.0, 0.6, 0.5, 1.0], np.full((3, 3), 0.2))  # not increasing
        with pytest.raises(ValueError):
            step([0.0, 1.0], [[1.5]])  # theta out of range

    def test_gaps(self):
        g = step([0.0, 0.3, 1.0], [[0.1, 0.2], [0.2, 0.3]])
        assert np.allclose(g.gaps, [0.3, 0.7])


class TestBuild:
    def test_single_cluster(self):
        part = Partition.from_labels([1, 1, 1])
        est = ConnectivityEstimate(theta=np.array([[0.4]]), method="MLE")
        g = build_step_graphon(part, est)
        assert np.allclose(g.boundaries, [0.0, 1.0])

    def test_equal_halves(self):
        part = Partition.from_labels([1] * 50 + [2] * 50)
        est = ConnectivityEstimate(theta=np.full((2, 2), 0.2), method="MLE")
        g = build_step_graphon(part, est)
        assert np.allclose(g.boundaries, [0.0, 0.5, 1.0])
        assert g.boundaries[-1] == 1.0

    def test_proportions(self):
        part = Partition.from_labels([1] * 30 + [2] * 70)
        est = ConnectivityEstimate(theta=np.full((2, 2), 0.2), method="MLE")
        g = build_step_graphon(part, est)
        assert np.allclose(g.boundaries, [0.0, 0.3, 1.0])

    def test_dimension_mismatch(self):
        part = Partition.from_labels([1, 2])
        est = ConnectivityEstimate(theta=np.array([[0.4]]), method="MLE")
        with pytest.raises(ValueError):
            build_step_graphon(part, est)


class TestBin:
    def test_first_cell(self):
        assert bin_index(0.3, [0.0, 0.5, 1.0]) == 1

    def test_left_closed(self):
        assert bin_index(0.5, [0.0, 0.5, 1.0]) == 2

    def test_indicator_sum_oracle(self):
        boundaries = [0.0, 0.2, 0.7, 1.0]
        for x in (0.0, 0.1, 0.2, 0.34, 0.69, 0.7, 0.95):
            want = 1 + sum(1 for c in boundaries[1:-1] if c <= x)
            assert bin_index(x, boundaries) == want
        assert bin_index(0.69, boundaries) == 2

    def test_right_open_at_interior_boundaries(self):
        eps = 1e-9
        boundaries = [0.0, 0.25, 0.5, 1.0]
        for k, c in enumerate(boundaries[1:-1], start=1):
            assert bin_index(c - eps, boundaries) == k
            assert bin_index(c, boundaries) == k + 1

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                bin_index(bad, [0.0, 0.5, 1.0])

    def test_vectorized(self):
        out = bin_index(np.array([0.1, 0.6]), [0.0, 0.5, 1.0])
        assert list(out) == [1, 2]


class TestReorder:
    def test_swap_example(self):
        # oracle: g(1) = .5*.9 + .5*.1 = .5, g(2) = .5*.1 + .5*.5 = .3
        g = step([0.0, 0.5, 1.0], [[0.9, 0.1], [0.1, 0.5]])
        out, perm = reorder_identifiable(g)
        assert list(perm) == [1, 0]
        new_g = out.theta @ out.gaps
        assert np.allclose(new_g, [0.3, 0.5])
        assert np.all(np.diff(new_g) >= -1e-12)
        assert out.theta[1, 1] == 0.9  # old cluster 1 moved last

    def test_already_sorted_identity(self):
        g = step([0.0, 0.4, 1.0], [[0.1, 0.2], [0.2, 0.8]])
        out, perm = reorder_identifiable(g)
        assert list(perm) == [0, 1]
        assert np.array_equal(out.theta, g.theta)

    def test_single_cluster(self):
        g = step([0.0, 1.0], [[0.4]])
        _, perm = reorder_identifiable(g)
        assert list(perm) == [0]

    def test_stable_on_ties(self):
        g = step([0.0, 0.5, 1.0], [[0.3, 0.3], [0.3, 0.3]])
        _, perm = reorder_identifiable(g)
        assert list(perm) == [0, 1]

    def test_multisets_preserved(self):
        rng = np.random.default_rng(4)
        t = rng.random((4, 4))
        t = (t + t.T) / 2
        gaps = rng.dirichlet(np.ones(4))
        b = np.concatenate([[0.0], np.cumsum(gaps)])
        b[-1] = 1.0
        g = step(b, t)
        out, _ = reorder_identifiable(g)
        assert sorted(out.theta.ravel()) == pytest.approx(sorted(g.theta.ravel()))
        assert sorted(out.gaps) == pytest.approx(sorted(g.gaps))


class TestMse:
    def test_constant_match(self):
        g = step([0.0, 1.0], [[0.25]])
        assert mse_graphon(g, powerlaw_graphon(0.25, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vs_constant(self):
        g = step([0.0, 1.0], [[0.0]])
        assert mse_graphon(g, powerlaw_graphon(0.3, 1.0)) == pytest.approx(0.09, abs=1e-12)

    def test_closed_form_vs_quadrature_and_monte_carlo(self):
        truth = powerlaw_graphon(rho=0.1, lam=2.0)
        est = step([0.0, 0.2, 0.7, 1.0],
                   [[0.02, 0.05, 0.1], [0.05, 0.12, 0.2], [0.1, 0.2, 0.3]])
        exact = mse_graphon(est, truth)
        grid = midpoint_grid_mse(est, truth.w)
        assert exact == pytest.approx(grid, abs=1e-4)
        # Monte Carlo oracle: 1e6 uniform points, 3 standard errors
        rng = np.random.default_rng(99)
        xs, ys = rng.random(1_000_000), rng.random(1_000_000)
        sq = (truth.w(xs, ys) - step_values(est.boundaries, est.theta, xs, ys)) ** 2
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(exact - sq.mean()) <= 3 * se

    def test_total_square_integral_telescopes(self):
        # sum of cell integrals of W^2 equals rho^2 lam^4 / (2 lam - 1)^2
        truth = powerlaw_graphon(rho=0.05, lam=3.0)
        zero = step([0.0, 0.3, 0.55, 0.9, 1.0], np.zeros((4, 4)))
        want = 0.05**2 * 3.0**4 / (2 * 3.0 - 1) ** 2
        assert mse_graphon(zero, truth) == pytest.approx(want, rel=1e-12)

    def test_non_powerlaw_truth_rejected(self):
        truth = GraphonSpec(w=lambda x, y: 0.25 * (np.asarray(x) + np.asarray(y)))
        with pytest.raises(ValueError, match="power-law"):
            mse_graphon(step([0.0, 1.0], [[0.25]]), truth)
