"""Seeded random-graph generators for block models and the power-law
graphon, the paper's one graphon model, given by its two parameters.

All sampling uses NumPy's PCG64 generator (``np.random.default_rng(seed)``),
so identical (spec, n, seed) inputs reproduce the same graph bit for bit.
Replicate r of an experiment draws from seed ``base_seed + r``.

A sampler first draws the n node labels (or latents), then one uniform per
pair i < j in ``np.triu_indices(n, 1)`` order: row by row, columns
ascending, a block of rows at a time. The block model draws a block's
pairs into one flat buffer of at most 2^16 entries (or one row) and reads
their probabilities from a K x n row table, ``theta[:, z0]``, so a row's
probabilities are one slice of it. The graphon computes its probabilities
as a dense tile of at most 2^16 (row, column) entries (or one row) per
block, so the two share no loop. Memory is O(n + m) for m edges, plus
the block model's O(K n) table and a few 0.5 MB float64 buffers or tiles,
never O(n^2); time is still O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition, check_connectivity, compact_partition


@dataclass(frozen=True, eq=False)
class SbmSpec:
    """Block-model parameters: membership probabilities pi and a symmetric
    connectivity matrix theta with entries in [0, 1]."""

    pi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64).copy()
        if pi.ndim != 1 or pi.size == 0:
            raise ValueError("pi must be a nonempty vector")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("pi must be nonnegative and sum to 1")
        theta = check_connectivity(self.theta, pi.size)
        pi.flags.writeable = False
        theta.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "theta", theta)

    @property
    def K(self) -> int:
        return self.pi.size


@dataclass(frozen=True)
class GraphonSpec:
    """The power-law graphon w(x, y) = rho lam^2 (x y)^(lam - 1), whose
    expected edge density is rho: the paper's one graphon model, given by
    its two parameters, from which :func:`ebsbm.graphon.mse_graphon`
    integrates the error in closed form.

    0 < rho <= 1, lam >= 1 (so w stays bounded) and rho lam^2 <= 1 (so
    the peak w(1, 1) is a probability) keep w in [0, 1] on the whole unit
    square, so the sampler checks no tile.
    """

    rho: float
    lam: float

    def __post_init__(self):
        if not 0 < self.rho <= 1:
            raise ValueError("rho must lie in (0, 1]")
        if not self.lam >= 1:
            raise ValueError("lam must be >= 1")
        if self.rho * self.lam * self.lam > 1 + 1e-12:
            raise ValueError("rho * lam^2 must not exceed 1")
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "lam", float(self.lam))

    def w(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return self.rho * self.lam**2 * (x * y) ** (self.lam - 1.0)


def powerlaw_graphon(rho: float, lam: float) -> GraphonSpec:
    """The power-law graphon of expected edge density rho; see
    :class:`GraphonSpec` for the parameter rules."""
    return GraphonSpec(rho, lam)


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


# A block spans at most this many pairs (block model) or (row, column)
# tile entries (graphon), or one row if that is longer: 0.5 MB per float64
# buffer. Smaller blocks cost more numpy calls per pair, larger ones more
# memory; at n = 4000 the block model draws no faster with larger blocks.
_BLOCK_PAIRS = 1 << 16


def _sample_pairs(rng, n, tile):
    """The graphon's edges i < j, each pair drawn once in
    ``np.triu_indices(n, 1)`` order.

    ``tile(r0, r1)`` gives the edge probabilities of rows r0..r1-1 against
    columns r0+1..n-1. Only the tile's upper triangle (column > row) holds
    pairs: the draws fill it in row-major order, which is triu order, and
    nothing below it or on its diagonal can become an edge.
    """
    chunks = [np.empty((0, 2), dtype=np.int64)]
    r0 = 0
    while r0 < n - 1:
        width = n - 1 - r0
        r1 = min(n - 1, r0 + max(1, _BLOCK_PAIRS // width))
        upper = np.arange(width) >= np.arange(r1 - r0)[:, None]
        draws = np.empty(upper.shape)
        draws[upper] = rng.random(np.count_nonzero(upper))
        i, j = np.divmod(np.flatnonzero(upper & (draws < tile(r0, r1))), width)
        chunks.append(np.column_stack((i + r0, j + r0 + 1)))
        r0 = r1
    return np.concatenate(chunks)


def _draw_sbm(spec: SbmSpec, n: int, seed: int) -> tuple[Graph, np.ndarray]:
    """The graph and its uncompacted 0-based labels z0.

    Row a's pairs (a, a+1..n-1) have the probabilities
    ``table[z0[a], a + 1:]`` of the row table ``theta[:, z0]``. A block of
    rows fills one flat buffer with its pairs' draws, in triu order, and
    another with those slices, so one comparison draws every pair; only
    the hits are mapped back to (i, j), by each row's first flat position.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z0 = rng.choice(spec.K, size=n, p=spec.pi)
    table = list(spec.theta[:, z0])  # its K rows
    labels = z0.tolist()
    rows = np.arange(n)
    first = rows * (n - 1) - rows * (rows - 1) // 2  # row a's first pair, in triu order
    size = min(max(_BLOCK_PAIRS, n - 1), int(first[-1]))
    draws, probs = np.empty(size), np.empty(size)
    chunks = [np.empty((0, 2), dtype=np.int64)]
    r0 = 0
    while r0 < n - 1:
        # the most rows from r0 whose pairs fit the buffers, one at least
        r1 = min(n - 1, int(np.searchsorted(first, first[r0] + size, "right")) - 1)
        offsets = first[r0:r1 + 1] - first[r0]
        bounds = offsets.tolist()
        for a, z, lo, hi in zip(range(r0, r1), labels[r0:r1], bounds, bounds[1:]):
            probs[lo:hi] = table[z][a + 1:]
        count = bounds[-1]
        rng.random(out=draws[:count])
        hits = np.flatnonzero(draws[:count] < probs[:count])
        i = np.searchsorted(offsets, hits, "right") - 1
        chunks.append(np.column_stack((i + r0, hits - offsets[i] + i + r0 + 1)))
        r0 = r1
    del draws, probs, table  # freed before the edges are joined and copied
    edges = np.concatenate(chunks)
    del chunks
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
    edges = _sample_pairs(rng, n, lambda r0, r1: spec.w(u[r0:r1, None], u[None, r0 + 1:]))
    return Graph(n=n, edges=edges), u
