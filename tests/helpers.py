"""Independent oracles shared across test modules.

Everything here deliberately avoids the library code paths it is used to
check: brute-force enumeration, quadrature, grid search and stdlib lgamma
arithmetic only.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment


def brute_force_block_counts(n, edges, labels):
    """Exhaustive pair enumeration: O(n^2) loop, 1-based labels."""
    K = max(labels)
    x = np.zeros((K, K), dtype=int)
    m = np.zeros((K, K), dtype=int)
    eset = {(min(i, j), max(i, j)) for i, j in edges}
    for i, j in itertools.combinations(range(n), 2):
        a, b = labels[i] - 1, labels[j] - 1
        m[a, b] += 1
        if a != b:
            m[b, a] += 1
        if (i, j) in eset:
            x[a, b] += 1
            if a != b:
                x[b, a] += 1
    return x, m


def quad_block_marginal(x, m, alpha, beta):
    """log of integral of t^x (1-t)^(m-x) under a Beta(alpha, beta) prior,
    by adaptive arbitrary-precision quadrature. Returns 0 for an empty block."""
    if m == 0:
        return 0.0
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        b = mpmath.mpf(beta)
        const = 1 / mpmath.beta(a, b)

        def integrand(t):
            return t ** (x + a - 1) * (1 - t) ** (m - x + b - 1)

        val = const * mpmath.quad(integrand, [0, mpmath.mpf(1) / 2, 1])
        return float(mpmath.log(val))


def quad_marginal_loglik(xs, ms, alpha, beta):
    return sum(quad_block_marginal(x, m, alpha, beta) for x, m in zip(xs, ms))


def log_dirichlet_marginal_lgamma(sizes, tau=0.5):
    """Direct stdlib-lgamma evaluation of the label-count marginal."""
    sizes = list(sizes)
    K = len(sizes)
    n = sum(sizes)
    return (
        math.lgamma(K * tau)
        + sum(math.lgamma(s + tau) for s in sizes)
        - math.lgamma(n + K * tau)
        - K * math.lgamma(tau)
    )


def grid_search_max(objective, lo, hi, num=100):
    """Best value of objective(a, b) over a num x num log-spaced grid."""
    grid = np.logspace(np.log10(lo), np.log10(hi), num)
    best = -np.inf
    best_ab = (grid[0], grid[0])
    for a in grid:
        vals = [objective(a, b) for b in grid]
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = vals[j]
            best_ab = (a, grid[j])
    return best, best_ab


def grid_search_max_marginal(xs, ms, lo, hi, num=100):
    """Vectorized log-spaced grid maximum of the blockwise Beta-Binomial
    marginal, written directly in betaln arithmetic."""
    from scipy.special import betaln

    xs = np.asarray(xs, dtype=float)
    ms = np.asarray(ms, dtype=float)
    keep = ms > 0
    xs, ms = xs[keep], ms[keep]
    grid = np.logspace(np.log10(lo), np.log10(hi), num)
    a = grid[:, None, None]
    b = grid[None, :, None]
    total = betaln(a + xs, b + (ms - xs)).sum(axis=-1) \
        - xs.size * betaln(grid[:, None], grid[None, :])
    i, j = np.unravel_index(np.argmax(total), total.shape)
    return float(total[i, j]), (float(grid[i]), float(grid[j]))


def step_values(boundaries, theta, x, y):
    """A step function's values at (x, y): cells are closed on the left,
    so a point's cell is the number of interior boundaries at or below it."""
    inner = np.asarray(boundaries, dtype=float)[1:-1]
    ix = np.searchsorted(inner, x, side="right")
    iy = np.searchsorted(inner, y, side="right")
    return np.asarray(theta, dtype=float)[ix, iy]


def step_vs_step_mse(a, b):
    """Exact integrated squared difference of two step graphons, summed
    over the rectangles cut by the union of their boundaries."""
    merged = np.union1d(a.boundaries, b.boundaries)
    mids = (merged[:-1] + merged[1:]) / 2
    widths = np.diff(merged)
    x, y = mids[:, None], mids[None, :]
    diff = step_values(a.boundaries, a.theta, x, y) - step_values(b.boundaries, b.theta, x, y)
    return float(np.sum(np.outer(widths, widths) * diff**2))


def midpoint_grid_mse(step, w, grid=2000):
    """Midpoint-rule integral over a grid x grid mesh of (w - step)^2."""
    mids = (np.arange(grid) + 0.5) / grid
    x, y = mids[:, None], mids[None, :]
    return float(np.mean((w(x, y) - step_values(step.boundaries, step.theta, x, y)) ** 2))


def hungarian_agreement(labels_a, labels_b):
    """Fraction of nodes matched after the best cluster-label assignment."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    ka, kb = a.max(), b.max()
    size = max(ka, kb)
    confusion = np.zeros((size, size), dtype=int)
    for la, lb in zip(a, b):
        confusion[la - 1, lb - 1] += 1
    rows, cols = linear_sum_assignment(-confusion)
    return confusion[rows, cols].sum() / a.size


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def two_cliques_graph(size=10):
    """Two disjoint cliques of the given size, nodes 0..2*size-1."""
    edges = set()
    for base in (0, size):
        for i in range(size):
            for j in range(i + 1, size):
                edges.add((base + i, base + j))
    labels = [1] * size + [2] * size
    return 2 * size, edges, labels
