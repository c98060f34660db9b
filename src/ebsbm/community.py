"""Partition providers: spectral clustering and a variational EM refiner.

The default pipeline embeds nodes with a regularized normalized-Laplacian
spectral map, clusters the embedding with k-means (ten k-means++ restarts,
seeded together, each drawing from its own stream exactly what
Generator.choice would, and iterated as one batched Lloyd loop), and
hands that partition to a mean-field variational EM for the Bernoulli
block model (Beta(1/2, 1/2) priors on block probabilities, Dirichlet(1/2)
on memberships). The EM's hard assignment is what downstream estimation
consumes; its per-block posterior means double as a variational baseline
estimate of the connectivity matrix.

The EM updates the nodes' assignments in blocks of consecutive nodes, each
block jointly (the fixed-point update of Daudin, Picard & Robin 2008); a
sweep that ends below the previous sweep's objective is redone one node at
a time, which is coordinate ascent (Latouche, Birmele & Ambroise 2012), so
the objective never decreases. The adjacency's row blocks are made once
per fit, as views that copy none of it, and the expected logs and KL
terms once per sweep.

This is the only module that puts the graph in matrix form: a sparse CSR
adjacency built from the sorted edge array (its upper triangle) and that
triangle's transpose, which the EM multiplies with and the spectral map
wraps in a matrix-free operator for a Lanczos eigensolve. k-means holds
its distances in chunks, so detection's scratch is O(n + m) at any n.
The top-K eigenspace lies inside the top-K_max one, so a K range needs
one eigensolve per graph: solved once at the largest K, its basis hands
every K its top K columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as _la
from scipy import sparse as _sparse
from scipy.sparse import linalg as _sla
from scipy.special import gammaln as _gammaln
from scipy.special import psi as _psi
from scipy.special import xlogy as _xlogy

from .errors import NumericalError
from .graph import Graph, Partition, compact_partition

_TAU = 0.5       # Dirichlet prior weight on memberships
_A0 = _B0 = 0.5  # Beta prior on block probabilities
_BLOCK = 64      # nodes per jointly updated block in a VEM sweep


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """A clustering plus provider diagnostics.

    responsibilities, when present, is an n x K soft assignment whose
    row-wise argmax reproduces the hard partition.
    """

    partition: Partition
    responsibilities: np.ndarray | None
    converged: bool
    iterations: int

    def __post_init__(self):
        r = self.responsibilities
        if r is None:
            return
        r = np.asarray(r, dtype=np.float64).copy()
        if r.shape != (self.partition.n, self.partition.K):
            raise ValueError("responsibilities must be n x K")
        if not np.allclose(r.sum(axis=1), 1.0, atol=1e-8):
            raise ValueError("responsibility rows must sum to 1")
        if not np.array_equal(np.argmax(r, axis=1) + 1, self.partition.labels):
            raise ValueError("partition must be the row-wise argmax of responsibilities")
        r.flags.writeable = False
        object.__setattr__(self, "responsibilities", r)


# Scratch entries per chunk, 0.5 MB in float64: k-means++ differences
# and Lloyd distances are held a chunk at a time, whatever n, d and the
# number of centres.
_CHUNK = 1 << 16


def _kmeans_pp(X, K, rngs):
    """k-means++ seeding (Arthur & Vassilvitskii 2007) of one restart per
    generator in `rngs`: (R, K, d) centres, each restart K rows of X, the
    first uniform, each next with probability proportional to its squared
    distance from the nearest centre so far.

    The restarts are seeded together on one (R, n) array of squared
    distances, and each draws from its own generator exactly what
    Generator.choice(n, p=d2 / total) would: the cumulative sum of p,
    normalised by its last entry, searched for one uniform draw. A
    restart's row of d2 is np.sum((X - c) ** 2, axis=1) for its centre c,
    computed for as many restarts at once as keep the differences within
    _CHUNK entries (at least one), so the (R, n, d) cube is never whole.
    """
    n, d = X.shape
    R = len(rngs)
    group = max(1, _CHUNK // (n * d))
    centers = np.empty((R, K, d))
    centers[:, 0] = X[[int(rng.integers(n)) for rng in rngs]]
    d2 = np.full((R, n), np.inf)

    def add_centre(k):  # d2 = min(d2, squared distance to centre k)
        for g in range(0, R, group):
            rows = d2[g:g + group]
            np.minimum(rows, np.sum((X - centers[g:g + group, k, None]) ** 2, axis=2), out=rows)

    add_centre(0)
    for k in range(1, K):
        total = d2.sum(axis=1)
        spread = total > 1e-12
        cdf = np.cumsum(d2[spread] / total[spread, None], axis=1)
        cdf /= cdf[:, -1:]
        idx = np.empty(R, dtype=np.int64)
        for r, row in zip(np.flatnonzero(spread), cdf):
            idx[r] = row.searchsorted(rngs[r].random(), side="right")
        for r in np.flatnonzero(~spread):  # every point sits on a centre
            idx[r] = rngs[r].integers(n)
        centers[:, k] = X[idx]
        add_centre(k)
    return centers


def _nearest_centres(X, x2, centers):
    """Nearest-centre labels (A, n), 0-based, and cluster sizes (A, K) for
    the (A, K, d) centres of A restarts; x2 holds the squared row norms.

    The squared distances are ||x||^2 - 2 x.c + ||c||^2, with the cross
    terms of all restarts from one einsum per chunk of rows. It sums over
    d in a fixed order; OpenBLAS's threaded GEMM does not once there are
    about 200 centres, so its last digits would depend on the BLAS thread
    count. A chunk holds at most _CHUNK distances (at least one row), so
    the (n, A K) distances are never whole. A restart left with an empty
    cluster is repaired from each point's own (nearest) distance, which
    the chunks then compute again: the same sums, so the same bytes.
    """
    A, K, d = centers.shape
    n = X.shape[0]
    flat = np.ascontiguousarray(centers.reshape(-1, d).T)
    c2 = np.sum(centers * centers, axis=2).ravel()
    step = max(1, _CHUNK // (A * K))

    def chunks():
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            dist = np.einsum("nd,dk->nk", X[rows], flat)
            dist *= -2.0
            dist += x2[rows, None]
            dist += c2
            yield rows, dist.reshape(-1, A, K)

    labels = np.empty((n, A), dtype=np.int64)
    for rows, dist in chunks():
        np.argmin(dist, axis=2, out=labels[rows])
    counts = np.bincount((labels + np.arange(A) * K).ravel(), minlength=A * K)
    counts = counts.reshape(A, K)
    empty = np.flatnonzero(np.any(counts == 0, axis=1))
    if empty.size:
        own = np.empty((n, A))
        for rows, dist in chunks():
            own[rows] = np.take_along_axis(dist, labels[rows, :, None], axis=2)[:, :, 0]
    labels = labels.T
    for a in empty:
        lab, cnt = labels[a], counts[a]
        for k in np.flatnonzero(cnt == 0):
            # the point farthest from its centre, taken from a cluster it
            # does not leave empty
            far = int(np.argmax(np.where(cnt[lab] > 1, own[:, a], -1.0)))
            cnt[lab[far]] -= 1
            cnt[k] = 1
            lab[far] = k
    return labels, counts


def _kmeans_once(X, K, rngs, max_iter=300):
    """Lloyd's k-means (Lloyd 1982), one restart per generator in `rngs`,
    all restarts iterated together.

    The restarts are seeded together by k-means++ (:func:`_kmeans_pp`),
    each from its own generator, so each draws exactly what it would draw
    alone. The Lloyd steps of the restarts still running then share one
    pass: the distances in row chunks (:func:`_nearest_centres`), then one
    bincount per column of X, weighted by that column repeated once per
    running restart, for the centre sums over the bins restart * K +
    label, which add rows in index order as X[labels == k].mean(axis=0)
    does. One (R, n) buffer holds the repeated column; no copy of X per
    restart is made. A restart drops out once its labels stop changing.

    Returns (labels, inertia, total_iters, iters, converged): per restart
    the (R, n) 0-based labels, the within-cluster sums of squares, the
    Lloyd iterations and the convergence flags, and as total_iters the
    Lloyd iterations summed over all restarts.
    """
    n, d = X.shape
    R = len(rngs)
    centers = _kmeans_pp(X, K, rngs)
    labels = np.full((R, n), -1, dtype=np.int64)
    iters = np.full(R, max_iter, dtype=np.int64)
    converged = np.zeros(R, dtype=bool)
    x2 = np.sum(X * X, axis=1)
    columns = np.ascontiguousarray(X.T)
    repeated = np.empty((R, n))
    active = np.arange(R)
    for it in range(1, max_iter + 1):
        new, counts = _nearest_centres(X, x2, centers[active])
        moved = np.any(new != labels[active], axis=1)
        iters[active[~moved]] = it
        converged[active[~moved]] = True
        active, new, counts = active[moved], new[moved], counts[moved]
        if active.size == 0:
            break
        labels[active] = new
        index = (new + np.arange(active.size)[:, None] * K).ravel()
        w = repeated[:active.size]
        sums = []
        for col in columns:
            w[:] = col
            sums.append(np.bincount(index, weights=w.ravel(), minlength=active.size * K))
        centers[active] = np.stack(sums, axis=1).reshape(active.size, K, d) / counts[:, :, None]
    inertia = np.array([np.sum((X - centers[r][labels[r]]) ** 2) for r in range(R)])
    return labels, inertia, int(iters.sum()), iters, converged


def _csr_adjacency(graph: Graph):
    """Symmetric 0/1 adjacency of the graph as a scipy CSR array.

    The sorted edge array is the upper triangle in CSR form as it stands:
    row i holds the j of its edges (i, j), in order. The lower triangle is
    that triangle's transpose, and the sum of the two interleaves them per
    row (the lower entries first), so every row's columns are sorted. The
    indices are int32 unless the 2m entries or n need int64, as scipy
    picks them.
    """
    n, m = graph.n, graph.edge_count
    index = np.int32 if max(2 * m, n) <= np.iinfo(np.int32).max else np.int64
    i, j = graph.edges.T
    indptr = np.searchsorted(i, np.arange(n + 1)).astype(index)
    upper = _sparse.csr_array((np.ones(m), j.astype(index), indptr), shape=(n, n))
    return upper + upper.T.tocsr()


def _top_eigvecs(graph: Graph, K: int) -> np.ndarray:
    """The top-K eigenvectors of the regularized normalized adjacency
    D^-1/2 (A + tau/n 11') D^-1/2, in ascending eigenvalue order.

    tau is the mean degree (Qin & Rohe 2013), which keeps isolated nodes
    well-defined. The rank-one shift is applied implicitly, so no n x n
    array is formed: ARPACK's Lanczos iteration (eigsh) runs on the
    operator, started from a fixed vector so reruns are identical. ARPACK
    needs K < n; for K = n the operator is applied to the identity and
    solved densely.
    """
    n = graph.n
    a = _csr_adjacency(graph)
    tau = max(2.0 * graph.edge_count / n, 1e-8)
    dinv = 1.0 / np.sqrt(a.sum(axis=1) + tau)

    def apply(x):
        y = dinv[:, None] * x.reshape(n, -1)
        return dinv[:, None] * (a @ y + (tau / n) * y.sum(axis=0))

    if K >= n:
        return _la.eigh(apply(np.eye(n)))[1]
    op = _sla.LinearOperator((n, n), matvec=apply, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    return _sla.eigsh(op, k=K, which="LA", tol=1e-10, v0=v0)[1]


def spectral_partition(graph: Graph, K: int, seed: int,
                       basis: np.ndarray | None = None) -> DetectionResult:
    """Cluster nodes via the top-K eigenvectors of the regularized
    normalized adjacency, row-normalized then k-means'd.

    Mean-degree/n is added to every adjacency entry before normalization
    so isolated nodes stay well-defined. k-means runs 10 restarts in one
    batched Lloyd loop, each seeded from its own stream spawned from the
    given seed; the lowest within-cluster sum of squares wins, ties going
    to the earliest restart, and the result reports the winner's Lloyd
    iterations and convergence flag.

    `basis`, when given, is a ``_top_eigvecs(graph, W)`` result for some
    W >= K: its last K columns are the top-K eigenvectors, so no
    eigensolve runs. One basis at the largest K thus serves a whole K
    range. Without it the top-K eigenvectors are solved for here.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > graph.n:
        raise ValueError(f"K={K} exceeds node count {graph.n}")
    if K == 1:
        part = Partition(labels=np.ones(graph.n, dtype=np.int64), K=1)
        return DetectionResult(partition=part, responsibilities=None,
                               converged=True, iterations=0)
    if basis is None:
        vecs = _top_eigvecs(graph, K)
    elif basis.ndim != 2 or basis.shape[0] != graph.n or basis.shape[1] < K:
        raise ValueError(f"basis of shape {basis.shape} does not hold {K} "
                         f"eigenvectors of {graph.n} nodes")
    else:
        vecs = basis[:, -K:]
    row_norm = np.linalg.norm(vecs, axis=1)
    emb = vecs / np.maximum(row_norm, 1e-12)[:, None]

    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(10)]
    labels, inertia, _, iters, conv = _kmeans_once(emb, K, rngs)
    best = int(np.argmin(inertia))
    part = compact_partition(labels[best] + 1)
    return DetectionResult(partition=part, responsibilities=None,
                           converged=bool(conv[best]), iterations=int(iters[best]))


def _expected_block_counts(R, X):
    """Expected edge and pair counts per unordered block under soft
    assignments R. Diagonal entries count i < j pairs once."""
    colsum = R.sum(axis=0)
    C = R.T @ (X @ R)
    Q = R.T @ R
    pairs = np.outer(colsum, colsum) - Q
    edges = C.copy()
    np.fill_diagonal(pairs, (colsum**2 - np.diag(Q)) / 2.0)
    np.fill_diagonal(edges, np.diag(C) / 2.0)
    return edges, pairs, colsum


def _beta_kl(zeta, xi, a0, b0):
    return (
        _gammaln(zeta + xi) - _gammaln(zeta) - _gammaln(xi)
        - _gammaln(a0 + b0) + _gammaln(a0) + _gammaln(b0)
        + (zeta - a0) * _psi(zeta) + (xi - b0) * _psi(xi)
        - (zeta + xi - a0 - b0) * _psi(zeta + xi)
    )


def _kl_terms(gamma, zeta, xi, elog_pi, iu):
    """KL divergences of the membership and block-probability posteriors
    from their priors. They depend on the posteriors alone, so a sweep
    computes them once and a redo reuses them."""
    K = gamma.size
    kl_pi = float(
        _gammaln(gamma.sum()) - np.sum(_gammaln(gamma))
        - _gammaln(K * _TAU) + K * _gammaln(_TAU)
        + np.sum((gamma - _TAU) * elog_pi)
    )
    kl_theta = float(np.sum(_beta_kl(zeta[iu], xi[iu], _A0, _B0)))
    return kl_pi, kl_theta


def _elbo(R, X, elog, kl, iu):
    """The objective, and the block counts of R it was computed from.

    elog holds the sweep's expected logs of pi, theta and 1 - theta, kl
    its two KL terms (:func:`_kl_terms`) and iu the upper-triangle
    indices of a K x K array."""
    counts = _expected_block_counts(R, X)
    edges, pairs, colsum = counts
    elog_pi, elog_t, elog_1mt = elog
    kl_pi, kl_theta = kl
    e_loglik = float(np.sum(edges[iu] * elog_t[iu] + (pairs - edges)[iu] * elog_1mt[iu]))
    e_logpz = float(colsum @ elog_pi)
    entropy = -float(np.sum(_xlogy(R, R)))
    return e_loglik + e_logpz + entropy - kl_pi - kl_theta, counts


def _row_blocks(X, size):
    """The rows of X in blocks of `size` consecutive nodes, as (row slice,
    CSR rows) pairs. Each block's CSR rows are views on slices of X's
    indices and data, so the blocks copy none of the adjacency. The views
    are assigned to an empty CSR array, because scipy's constructor copies
    a view that is less than half of its base."""
    n = X.shape[0]
    blocks = []
    for s in range(0, n, size):
        ptr = X.indptr[s:s + size + 1]
        lo, hi = ptr[0], ptr[-1]
        Xb = _sparse.csr_array((ptr.size - 1, n))
        Xb.indptr, Xb.indices, Xb.data = ptr - lo, X.indices[lo:hi], X.data[lo:hi]
        blocks.append((slice(s, s + size), Xb))
    return blocks


def _e_step(R, blocks, colsum, elog_pi, elog_t, elog_1mt):
    """Update the soft assignments in place, one block of `blocks`
    (:func:`_row_blocks`) at a time: each block's rows are set jointly
    from the rows of all other nodes as they stand, and `colsum` follows.
    One-node blocks are exact sequential coordinate ascent."""
    for b, Xb in blocks:
        S = Xb @ R
        T = np.maximum(colsum - R[b] - S, 0.0)
        L = elog_pi + S @ elog_t + T @ elog_1mt
        L -= L.max(axis=1, keepdims=True)
        P = np.exp(L)
        P /= P.sum(axis=1, keepdims=True)
        colsum += (P - R[b]).sum(axis=0)
        R[b] = P


def variational_em(graph: Graph, K: int, init: DetectionResult,
                   max_iter: int = 100, tol: float = 1e-3, trace=None):
    """Mean-field EM for the Bernoulli block model.

    Each sweep updates the membership posterior and the block-probability
    posteriors, then the nodes' soft assignments in blocks of consecutive
    nodes, each block jointly from the current rows of all others (the
    fixed-point update). If that sweep ends below the previous sweep's
    objective, it is redone from its start one node at a time, which is
    coordinate ascent, so the objective never decreases. Stops when the
    improvement falls below `tol` or after `max_iter` sweeps.

    The adjacency's row blocks (views, :func:`_row_blocks`) are made once
    per fit, the one-node blocks only when a sweep is first redone. The
    expected logs and the KL terms of the objective depend only on the
    posteriors set at the start of a sweep, so they are computed once per
    sweep and a redo reuses them.

    Returns (DetectionResult, theta_vb), where theta_vb holds the
    per-block posterior-mean connectivity for the compacted clusters. Pass
    a list as `trace` to capture the objective value of every sweep.
    """
    if init.partition.n != graph.n:
        raise ValueError("init partition does not cover this graph")
    if init.partition.K > K:
        raise ValueError(f"init has {init.partition.K} clusters but K={K}")
    n = graph.n
    X = _csr_adjacency(graph)
    blocks = _row_blocks(X, _BLOCK)
    nodes = None  # one-node blocks, made when a sweep is first redone
    iu = np.triu_indices(K)

    if init.responsibilities is not None and init.responsibilities.shape[1] == K:
        R = init.responsibilities.copy()
    else:
        R = np.zeros((n, K))
        R[np.arange(n), init.partition.labels - 1] = 1.0

    prev = -np.inf
    converged = False
    sweeps = 0
    counts = _expected_block_counts(R, X)
    for sweeps in range(1, max_iter + 1):
        edges, pairs, colsum = counts
        gamma = _TAU + colsum
        zeta = _A0 + edges
        xi = _B0 + np.maximum(pairs - edges, 0.0)
        psi_sum = _psi(zeta + xi)
        elog = (_psi(gamma) - _psi(gamma.sum()), _psi(zeta) - psi_sum, _psi(xi) - psi_sum)
        kl = _kl_terms(gamma, zeta, xi, elog[0], iu)

        start = R.copy(), colsum.copy()
        _e_step(R, blocks, colsum, *elog)
        value, counts = _elbo(R, X, elog, kl, iu)
        if value < prev:
            if nodes is None:
                nodes = _row_blocks(X, 1)
            R, colsum = start
            _e_step(R, nodes, colsum, *elog)
            value, counts = _elbo(R, X, elog, kl, iu)
        if not np.isfinite(value):
            raise NumericalError(f"objective became non-finite at sweep {sweeps}")
        if __debug__ and np.isfinite(prev):
            assert value >= prev - 1e-7 * (1 + abs(prev)), "objective decreased"
        if trace is not None:
            trace.append(value)
        if value - prev < tol and np.isfinite(prev):
            converged = True
            break
        prev = value

    labels0 = np.argmax(R, axis=1)
    used = np.unique(labels0)
    Rc = R[:, used]
    Rc /= Rc.sum(axis=1, keepdims=True)
    part = compact_partition(labels0 + 1)
    edges, pairs, _ = _expected_block_counts(Rc, X)
    theta_vb = (_A0 + edges) / (_A0 + _B0 + pairs)
    theta_vb = (theta_vb + theta_vb.T) / 2.0
    det = DetectionResult(partition=part, responsibilities=Rc,
                          converged=converged, iterations=sweeps)
    return det, theta_vb


def detect_pipeline(graph: Graph, K: int, seed: int, max_iter: int = 100,
                    tol: float = 1e-3, basis: np.ndarray | None = None):
    """Spectral initialization refined by variational EM; the default
    partition provider for estimation and selection runs.

    `basis` is handed to :func:`spectral_partition`: a top-W eigenbasis
    (W >= K) shared across a K range, or None to solve at K."""
    init = spectral_partition(graph, K, seed, basis=basis)
    return variational_em(graph, K, init, max_iter=max_iter, tol=tol)
