"""Seeded random-graph generators for block models and graphons.

All sampling uses NumPy's PCG64 generator (``np.random.default_rng(seed)``),
so identical (spec, n, seed) inputs reproduce the same graph bit for bit.
Replicate r of an experiment draws from seed ``base_seed + r``.

A sampler first draws the n node labels (or latents), then one uniform per
pair i < j in ``np.triu_indices(n, 1)`` order: row by row, columns
ascending. The pairs are visited a block of rows at a time, so memory is
O(n + m + block) for m edges, never O(n^2); time is still O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition, compact_partition


@dataclass(frozen=True, eq=False)
class SbmSpec:
    """Block-model parameters: membership probabilities pi and a symmetric
    connectivity matrix theta with entries in [0, 1]."""

    pi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64).copy()
        theta = np.asarray(self.theta, dtype=np.float64).copy()
        if pi.ndim != 1 or pi.size == 0:
            raise ValueError("pi must be a nonempty vector")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("pi must be nonnegative and sum to 1")
        K = pi.size
        if theta.shape != (K, K):
            raise ValueError(f"theta must be {K}x{K}")
        if not np.allclose(theta, theta.T, atol=1e-12):
            raise ValueError("theta must be symmetric")
        if theta.min() < 0 or theta.max() > 1:
            raise ValueError("theta entries must lie in [0, 1]")
        pi.flags.writeable = False
        theta.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "theta", theta)

    @property
    def K(self) -> int:
        return self.pi.size


_PROBE = np.linspace(0.0, 1.0, 100)


@dataclass(frozen=True, eq=False)
class GraphonSpec:
    """A symmetric edge-probability function on the unit square.

    ``w`` must accept array arguments. ``rho`` and ``lam`` are set only for
    the power-law family, whose error :func:`ebsbm.graphon.mse_graphon`
    integrates in closed form.
    """

    w: object
    rho: float | None = None
    lam: float | None = None

    def __post_init__(self):
        gx, gy = np.meshgrid(_PROBE, _PROBE)
        vals = np.asarray(self.w(gx, gy), dtype=np.float64)
        if vals.shape != gx.shape:
            raise ValueError("w must broadcast over array inputs")
        if not np.all(np.isfinite(vals)) or vals.min() < -1e-12 or vals.max() > 1 + 1e-12:
            raise ValueError("w must map the probe grid into [0, 1]")
        if not np.allclose(vals, vals.T, atol=1e-12):
            raise ValueError("w must be symmetric on the probe grid")


class _PowerlawW:
    """w(x, y) = rho * lam^2 * (x y)^(lam - 1); picklable for worker pools."""

    def __init__(self, rho, lam):
        self.rho = rho
        self.lam = lam

    def __call__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return self.rho * self.lam**2 * (x * y) ** (self.lam - 1.0)


def powerlaw_graphon(rho: float, lam: float) -> GraphonSpec:
    """Sparsity/concentration family with expected edge density rho.

    Requires lam >= 1 (so the function stays bounded) and rho * lam^2 <= 1
    (so the peak value at (1, 1) is a probability).
    """
    if not (0 < rho <= 1):
        raise ValueError("rho must lie in (0, 1]")
    if lam < 1:
        raise ValueError("lam must be >= 1")
    if rho * lam * lam > 1 + 1e-12:
        raise ValueError("rho * lam^2 must not exceed 1")
    return GraphonSpec(w=_PowerlawW(rho, lam), rho=float(rho), lam=float(lam))


def affiliation_theta(K: int, lam: float, epsilon: float, rho: float) -> SbmSpec:
    """Assortative block model: within-cluster probability rho*lam,
    between-cluster probability rho*epsilon, uniform memberships 1/K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (0 <= epsilon < lam <= 1):
        raise ValueError("need 0 <= epsilon < lam <= 1")
    if not (0 < rho <= 1):
        raise ValueError("rho must lie in (0, 1]")
    theta = np.full((K, K), rho * epsilon)
    np.fill_diagonal(theta, rho * lam)
    return SbmSpec(pi=np.full(K, 1.0 / K), theta=theta)


# A block's tile spans at most this many (row, column) entries, or one
# row if that is longer: about 8 MB per float64 tile.
_BLOCK_PAIRS = 1 << 20


def _sample_pairs(rng, n, tile):
    """Edges i < j, each pair drawn once in ``np.triu_indices(n, 1)`` order.

    ``tile(r0, r1, upper)`` gives the edge probabilities of rows r0..r1-1
    against columns r0+1..n-1. Only the tile's upper triangle ``upper``
    (column > row) holds pairs: the draws fill it in row-major order, which
    is triu order, and nothing below it or on its diagonal can become an
    edge.
    """
    chunks = [np.empty((0, 2), dtype=np.int64)]
    r0 = 0
    while r0 < n - 1:
        width = n - 1 - r0
        r1 = min(n - 1, r0 + max(1, _BLOCK_PAIRS // width))
        upper = np.arange(width) >= np.arange(r1 - r0)[:, None]
        draws = np.empty(upper.shape)
        draws[upper] = rng.random(np.count_nonzero(upper))
        i, j = np.divmod(np.flatnonzero(upper & (draws < tile(r0, r1, upper))), width)
        chunks.append(np.column_stack((i + r0, j + r0 + 1)))
        r0 = r1
    return np.concatenate(chunks)


def _draw_sbm(spec: SbmSpec, n: int, seed: int) -> tuple[Graph, np.ndarray]:
    """The graph and its uncompacted 0-based labels z0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z0 = rng.choice(spec.K, size=n, p=spec.pi)
    edges = _sample_pairs(rng, n, lambda r0, r1, upper: spec.theta[z0[r0:r1]][:, z0[r0 + 1:]])
    return Graph(n=n, edges=edges), z0


def sample_sbm(spec: SbmSpec, n: int, seed: int) -> tuple[Graph, Partition]:
    """Draw labels from pi, then connect each pair independently.

    The returned partition is compacted: clusters that received no node
    are dropped and K reduced accordingly.
    """
    graph, z0 = _draw_sbm(spec, n, seed)
    return graph, compact_partition(z0 + 1)


def sample_graphon(spec: GraphonSpec, n: int, seed: int) -> tuple[Graph, np.ndarray]:
    """Draw uniform latents u_i, connect pair (i, j) with probability
    w(u_i, u_j). Returns the graph and the latent vector."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)

    def tile(r0, r1, upper):
        p = np.asarray(spec.w(u[r0:r1, None], u[None, r0 + 1:]), dtype=np.float64)
        if (upper & ~((p >= 0) & (p <= 1))).any():  # NaN fails both
            raise ValueError("graphon returned a value outside [0, 1] at a sampled point")
        return p

    edges = _sample_pairs(rng, n, tile)
    return Graph(n=n, edges=edges), u
