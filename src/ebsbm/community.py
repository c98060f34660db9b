"""Partition providers: spectral clustering and a variational EM refiner.

The default pipeline embeds nodes with a regularized normalized-Laplacian
spectral map, clusters the embedding with k-means (ten k-means++ restarts,
seeded together, each drawing from its own stream exactly what
Generator.choice would, and iterated as one batched Lloyd loop), and
hands that partition to a mean-field variational EM for the Bernoulli
block model (Beta(1/2, 1/2) priors on block probabilities, Dirichlet(1/2)
on memberships), which starts one-hot from it and runs at least one
sweep. The EM's hard assignment is what downstream estimation
consumes; its per-block posterior means double as a variational baseline
estimate of the connectivity matrix.

The EM updates the nodes' assignments in blocks of consecutive nodes, each
block jointly (the fixed-point update of Daudin, Picard & Robin 2008); a
sweep that ends below the previous sweep's objective is redone one node at
a time, which is coordinate ascent (Latouche, Birmele & Ambroise 2012), so
the objective never decreases. A fit stops at the first sweep whose gain
is below `tol` per node, tol * n on n nodes: the objective is a sum over
the n(n-1)/2 pairs and the n memberships, so a fixed gain in absolute
terms means ever less at larger n (the per-sample rule of scikit-learn's
GaussianMixture). The adjacency's row blocks are made once
per fit, as views that copy none of it, a redo's one-node blocks one at
a time, and the expected logs and KL terms once per sweep.

This is the only module that puts the graph in matrix form: a sparse CSR
adjacency built from the sorted edge array (its upper triangle) and that
triangle's transpose, which the EM multiplies with and the spectral map
wraps in a matrix-free operator for a Lanczos eigensolve. k-means takes
its squared distances as ||x||^2 - 2 x.c + ||c||^2, the cross terms from
GEMMs, and holds them in chunks, so detection's scratch is O(n + m) at
any n.

The eigensolve, k-means and the EM run with numpy's and scipy's bundled
OpenBLAS on one thread, the caller's count restored after: a GEMM's
bytes depend on the thread count, so at one thread every result is the
same whatever the machine's setting.

detect_range detects a whole K range. The top-K eigenspace lies inside
the top-K_max one, so one eigensolve at the largest K hands every K its
top K columns. The EMs of the range then run in lockstep: their
responsibilities sit side by side in one array, each row block takes one
sparse product for all of them, and the elementwise work of a block and
of a sweep runs once for all K. Every per-K sum (a block's row sums, the
objective's terms) is one np.add.reduceat over the K's segments, which
sums each segment as it sums that segment alone, and the entropy
-sum R log R is added up in the E-step from each block's log P. Only a
block's two small products with each K's expected logs and each K's Gram
products are per K, each in the order it would have alone, so every K's
result is the one it gets alone, to the byte. A K leaves the loop when
it stops, and only its partition, its flags and theta_vb leave the fit.
The range runs in groups of at most 2^20 responsibilities, which bound
the fit's working set.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import glob
import operator
import os
from dataclasses import dataclass

import numpy as np
import scipy
from scipy import linalg as _la
from scipy import sparse as _sparse
from scipy.sparse import linalg as _sla
from scipy.special import entr as _entr
from scipy.special import gammaln as _gammaln
from scipy.special import psi as _psi

from .errors import NumericalError
from .graph import Graph, Partition, _integer, compact_partition

_TAU = 0.5       # Dirichlet prior weight on memberships
_A0 = _B0 = 0.5  # Beta prior on block probabilities
# Nodes per jointly updated block in a VEM sweep: 96, 128 and 192 took 2.43,
# 2.32 and 2.44 s of lockstep VEM on the `sweep` benchmark's graphs (n = 400,
# K 5..15, seeds 1-4, best of 7); larger blocks take more sweeps.
_BLOCK = 128


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """A clustering plus provider diagnostics."""

    partition: Partition
    converged: bool
    iterations: int


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count calls of each OpenBLAS that numpy and
    scipy bundle in their wheels: numpy's ILP64 build in numpy.libs, whose
    calls end in 64_, and scipy's in scipy.libs, whose LAPACK ARPACK
    calls. Looked up on first use; empty for other builds."""
    calls = []
    for package in (np, scipy):
        libs = os.path.dirname(os.path.abspath(package.__file__)) + ".libs"
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("", "64_"):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    calls.append((get, set_))
    return calls


@contextlib.contextmanager
def _one_blas_thread():
    """Every bundled OpenBLAS (:func:`_openblas_threads`) at one thread,
    each caller's count restored on exit, also on an exception.

    A GEMM's bytes depend on OpenBLAS's thread count: at n = 1000 with
    K = 50, VEM's block counts differ in their last digits between one
    thread and two. At one thread they do not depend on the caller's
    setting. And at two threads, ARPACK's Ritz-vector step (dseupd) took
    about ten times as long in some processes, for their whole life
    (n = 400, K = 15, 2 vCPUs); at one it never did."""
    calls = _openblas_threads()
    before = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(calls, before):
            set_(count)


# Scratch entries per chunk, 0.5 MB in float64: k-means++ and Lloyd
# distances are held a chunk at a time, whatever n, d and the number of
# centres.
_CHUNK = 1 << 16


def _kmeans_pp(X, K, rngs, x2, columns):
    """k-means++ seeding (Arthur & Vassilvitskii 2007) of one restart per
    generator in `rngs`: (R, K, d) centres, each restart K rows of X, the
    first uniform, each next with probability proportional to its squared
    distance from the nearest centre so far.

    The restarts are seeded together on one (R, n) array of squared
    distances, and each draws from its own generator exactly what
    Generator.choice(n, p=d2 / total) would: the cumulative sum of p,
    normalised by its last entry, searched for one uniform draw. A new
    centre c's squared distances are ||x||^2 - 2 x.c + ||c||^2, clamped
    at 0, with c's own point at exactly 0; the cross terms come from one
    GEMM with X's columns for as many restarts at once as keep them
    within _CHUNK entries (at least one). x2 holds X's squared row norms
    and columns is X.T in C order.
    """
    n, d = X.shape
    R = len(rngs)
    group = max(1, _CHUNK // n)
    centers = np.empty((R, K, d))
    d2 = np.full((R, n), np.inf)

    def add_centre(k, idx):  # d2 = min(d2, squared distance to the points idx)
        centers[:, k] = X[idx]
        for g in range(0, R, group):
            at = idx[g:g + group]
            dist = (-2.0 * centers[g:g + group, k]) @ columns
            dist += x2
            dist += x2[at, None]
            np.maximum(dist, 0.0, out=dist)
            dist[np.arange(at.size), at] = 0.0
            np.minimum(d2[g:g + group], dist, out=d2[g:g + group])

    add_centre(0, np.array([int(rng.integers(n)) for rng in rngs], dtype=np.int64))
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
        add_centre(k, idx)
    return centers


def _nearest_centres(X, x2, centers):
    """Nearest-centre labels (A, n), 0-based, and cluster sizes (A, K) for
    the (A, K, d) centres of A restarts; x2 holds the squared row norms.

    The squared distances are ||x||^2 - 2 x.c + ||c||^2, with the cross
    terms of all restarts from one GEMM per chunk of rows, -2 folded into
    the centres (exact, a power of two). A chunk holds at most _CHUNK
    distances (at least one row), so the (n, A K) distances are never
    whole. A restart left with an empty cluster is repaired from each
    point's own (nearest) distance, which the chunks then compute again:
    the same products, so the same bytes.
    """
    A, K, d = centers.shape
    n = X.shape[0]
    flat = -2.0 * np.ascontiguousarray(centers.reshape(-1, d).T)
    c2 = np.sum(centers * centers, axis=2).ravel()
    step = max(1, _CHUNK // (A * K))

    def chunks():
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            dist = X[rows] @ flat
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


@_one_blas_thread()
def _kmeans_once(X, K, rngs, max_iter=300):
    """Lloyd's k-means (Lloyd 1982), one restart per generator in `rngs`,
    all restarts iterated together, with the bundled OpenBLAS on one
    thread (:func:`_one_blas_thread`), so that the distance GEMMs' bytes
    do not depend on the caller's thread count.

    The restarts are seeded together by k-means++ (:func:`_kmeans_pp`),
    each from its own generator, so each draws exactly what it would draw
    alone; the seeding shares X's squared row norms and its C-ordered
    columns with the Lloyd steps. The Lloyd steps of the restarts still
    running then share one pass: the distances in row chunks
    (:func:`_nearest_centres`), then one bincount per column of X,
    weighted by that column repeated once per running restart, for the
    centre sums over the bins restart * K + label, which add rows in index
    order as X[labels == k].mean(axis=0) does. One (R, n) buffer holds the
    repeated column; no copy of X per restart is made. A restart drops out
    once its labels stop changing.

    Returns (labels, inertia, total_iters, iters, converged): per restart
    the (R, n) 0-based labels, the within-cluster sums of squares, the
    Lloyd iterations and the convergence flags, and as total_iters the
    Lloyd iterations summed over all restarts.
    """
    n, d = X.shape
    R = len(rngs)
    x2 = np.sum(X * X, axis=1)
    columns = np.ascontiguousarray(X.T)
    centers = _kmeans_pp(X, K, rngs, x2, columns)
    labels = np.full((R, n), -1, dtype=np.int64)
    iters = np.full(R, max_iter, dtype=np.int64)
    converged = np.zeros(R, dtype=bool)
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
    operator, started from a fixed vector so reruns are identical, with
    scipy's BLAS on one thread (:func:`_one_blas_thread`). ARPACK needs
    K < n; for K = n the operator is applied to the identity and solved
    densely.
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
    with _one_blas_thread():
        return _sla.eigsh(op, k=K, which="LA", tol=1e-10, v0=v0)[1]


def _check_stopping(max_iter, tol):
    """The EM's stopping rule, checked before any work: (max_iter, tol)
    with max_iter an integer >= 1 and tol >= 0, which NaN is not."""
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    return _integer("max_iter", max_iter, 1), tol


def check_k_range(k_range, n=None) -> tuple:
    """k_range as a tuple of ints, the one K rule: raises unless it is
    nonempty and every K is an integer (Python or NumPy) >= 1, at most n
    unless n is None, that no other K repeats; the first bad K is named."""
    ks = []
    for k in k_range:
        try:
            k = operator.index(k)
        except TypeError:
            raise ValueError(f"k_range entries must be integers, got {k!r}") from None
        if k < 1:
            raise ValueError("K must be >= 1")
        if n is not None and k > n:
            raise ValueError(f"K={k} exceeds node count {n}")
        ks.append(k)
    if not ks:
        raise ValueError("k_range must be nonempty")
    if len(set(ks)) < len(ks):
        raise ValueError(f"k_range must not repeat a K, got {ks}")
    return tuple(ks)


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
    seed = _integer("seed", seed, 0)
    (K,) = check_k_range((K,), graph.n)
    if K == 1:
        part = Partition(labels=np.ones(graph.n, dtype=np.int64), K=1)
        return DetectionResult(partition=part, converged=True, iterations=0)
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
    return DetectionResult(partition=part, converged=bool(conv[best]),
                           iterations=int(iters[best]))


def _beta_kl(zeta, xi, psi_zeta, psi_xi, psi_sum, a0, b0):
    """KL divergence of Beta(zeta, xi) from Beta(a0, b0), given the
    digammas of zeta, xi and zeta + xi."""
    return (
        _gammaln(zeta + xi) - _gammaln(zeta) - _gammaln(xi)
        - _gammaln(a0 + b0) + _gammaln(a0) + _gammaln(b0)
        + (zeta - a0) * psi_zeta + (xi - b0) * psi_xi
        - (zeta + xi - a0 - b0) * psi_sum
    )


# Entries of a lockstep group's (n, sum of K) responsibilities, 8 MB in
# float64: a K range wider than this runs as several groups. A group's
# traced peak is about 3.9 times its responsibilities (R, its sweep-start
# copy, X @ R and the flat K x K arrays; 13.4 MB against 3.4 MB at
# n = 500, K 2..41, where the E-step's three 128-row buffers are 2.6 MB),
# so about 31 MB at this bound.
_WIDE = 1 << 20


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each K of a lockstep group sits. `cols` holds its columns of
    the responsibilities and its entries of the column sums, `starts` the
    first of them and `seg` each column's K. `mats` holds its K x K block
    of the blocks laid end to end, in which `iu` indexes the upper
    triangles (each K's from `tri_starts` on) and `diag` the diagonals;
    `row` and `col` give each entry's two column sums."""

    ks: np.ndarray
    cols: list
    starts: np.ndarray
    seg: np.ndarray
    mats: list
    tri_starts: np.ndarray
    iu: np.ndarray
    diag: np.ndarray
    row: np.ndarray
    col: np.ndarray


def _layout(ks) -> _Layout:
    def runs(sizes):
        ends = np.cumsum(sizes)
        return [slice(int(e - s), int(e)) for s, e in zip(sizes, ends)]

    ks = np.asarray(ks, dtype=np.int64)
    first = np.cumsum(ks) - ks
    tri = ks * (ks + 1) // 2
    # each entry of the K x K blocks laid end to end: its K, row and column
    which = np.repeat(np.arange(ks.size), ks * ks)
    entry = np.arange(which.size) - (np.cumsum(ks * ks) - ks * ks)[which]
    i, j = np.divmod(entry, ks[which])
    return _Layout(ks, runs(ks), first, np.repeat(np.arange(ks.size), ks), runs(ks * ks),
                   np.cumsum(tri) - tri, np.flatnonzero(i <= j), np.flatnonzero(i == j),
                   first[which] + i, first[which] + j)


def _block_counts(colsum, edges, gram, lay):
    """Expected edge and pair counts per unordered block of each K's soft
    assignments R, from its column sums, R'XR and R'R, each laid end to
    end (the K x K blocks flat at lay.mats). Diagonal entries count i < j
    pairs once. Returns (edges, pairs, colsum); edges is updated in
    place."""
    pairs = colsum[lay.row] * colsum[lay.col] - gram
    pairs[lay.diag] = (colsum**2 - gram[lay.diag]) / 2.0
    edges[lay.diag] /= 2.0
    return edges, pairs, colsum


def _group_counts(R, X, lay):
    """The block counts (:func:`_block_counts`) of every K of the group,
    with one sparse product and one column sum for all of them: a column's
    sum adds its rows in order whatever the width. Each K's Gram products
    run on views of its columns, which give the bytes of its own array:
    BLAS packs a strided block as it packs a contiguous one, and K = 1's
    column of ones sums exactly in any order."""
    XR = X @ R
    edges, gram = [], []
    for c in lay.cols:
        Rk = R[:, c]
        edges.append((Rk.T @ XR[:, c]).ravel())
        gram.append((Rk.T @ Rk).ravel())
    return _block_counts(R.sum(axis=0), np.concatenate(edges), np.concatenate(gram), lay)


def _sweep_terms(counts, lay):
    """The expected logs of pi, theta and 1 - theta and the two KL terms of
    the objective for every K of the group, from its block counts
    (:func:`_block_counts`), as flat arrays laid out as the counts. They
    depend only on the posteriors set at the start of a sweep, so a sweep
    computes them once and a redo reuses them."""
    edges, pairs, colsum = counts
    gamma = _TAU + colsum
    zeta = _A0 + edges
    xi = _B0 + np.maximum(pairs - edges, 0.0)
    psi_zeta, psi_xi, psi_sum = _psi(zeta), _psi(xi), _psi(zeta + xi)
    total = np.add.reduceat(gamma, lay.starts)
    elog_pi = _psi(gamma) - np.repeat(_psi(total), lay.ks)
    elog = (elog_pi, psi_zeta - psi_sum, psi_xi - psi_sum)
    kl_pi = (_gammaln(total) - np.add.reduceat(_gammaln(gamma), lay.starts)
             - _gammaln(lay.ks * _TAU) + lay.ks * _gammaln(_TAU)
             + np.add.reduceat((gamma - _TAU) * elog_pi, lay.starts))
    iu = lay.iu
    kl_theta = np.add.reduceat(_beta_kl(zeta[iu], xi[iu], psi_zeta[iu], psi_xi[iu],
                                        psi_sum[iu], _A0, _B0), lay.tri_starts)
    return elog, (kl_pi, kl_theta)


def _elbo(R, X, elog, kl, entropy, lay):
    """Each K's objective, and the block counts of R it was computed from.

    elog and kl are the sweep's expected logs and KL terms
    (:func:`_sweep_terms`), and entropy holds -sum R log R of each column
    of R."""
    elog_pi, elog_t, elog_1mt = elog
    kl_pi, kl_theta = kl
    counts = _group_counts(R, X, lay)
    edges, pairs, colsum = counts
    iu = lay.iu
    e_loglik = np.add.reduceat(edges[iu] * elog_t[iu] + (pairs - edges)[iu] * elog_1mt[iu],
                               lay.tri_starts)
    e_logpz = np.add.reduceat(colsum * elog_pi, lay.starts)
    return e_loglik + e_logpz + np.add.reduceat(entropy, lay.starts) - kl_pi - kl_theta, counts


class _row_blocks:
    """The rows of X in blocks of `size` consecutive nodes, as a sequence
    of (row slice, CSR rows) pairs that, like range, makes each when it is
    asked for: a pass over the one-node blocks of a redo holds one node's
    rows at a time, not a CSR array per node. Each block's CSR rows are
    views on slices of X's indices and data, so the blocks copy none of
    the adjacency. The views are assigned to a copy of an empty CSR array
    of the block's shape, because scipy's constructor copies a view that
    is less than half of its base, and takes ten times as long as the copy
    (37 against 3 us per block on a 2-vCPU VM)."""

    def __init__(self, X, size):
        self.X, self.size = X, size
        self.empty = _sparse.csr_array((size, X.shape[0]))

    def __len__(self):
        return -(-self.X.shape[0] // self.size)

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError(i)
        X, s = self.X, i * self.size
        ptr = X.indptr[s:s + self.size + 1]
        lo, hi = ptr[0], ptr[-1]
        full = ptr.size - 1 == self.size
        Xb = copy.copy(self.empty) if full else _sparse.csr_array((ptr.size - 1, X.shape[0]))
        Xb.indptr, Xb.indices, Xb.data = ptr - lo, X.indices[lo:hi], X.data[lo:hi]
        return slice(s, s + self.size), Xb


def _e_step(R, blocks, colsum, elog, lay, entropy=None):
    """Update the soft assignments of every K of the group in place, one
    block of `blocks` (:class:`_row_blocks`) at a time: each block's rows
    are set jointly from the rows of all other nodes as they stand, and
    `colsum` follows. One-node blocks are exact sequential coordinate
    ascent. Each block subtracts sum P log P of its new rows P, log P being
    (L - max) - log(row sum), from the per-column `entropy` when given.

    A block takes one sparse product for all K, and its elementwise steps
    and its row sums (one np.add.reduceat) run once on its full width, in
    three block-sized buffers. Only the products with each K's expected
    logs are per K."""
    elog_pi, elog_t, elog_1mt = elog
    Et = [elog_t[m].reshape(K, K) for K, m in zip(lay.ks, lay.mats)]
    E1 = [elog_1mt[m].reshape(K, K) for K, m in zip(lay.ks, lay.mats)]
    size = (blocks[0][1].shape[0], R.shape[1])
    L_, P_, T_ = np.empty(size), np.empty(size), np.empty(size)
    for b, Xb in blocks:
        S = Xb @ R
        L, P, T = L_[:S.shape[0]], P_[:S.shape[0]], T_[:S.shape[0]]
        for c, e in zip(lay.cols, Et):
            np.matmul(S[:, c], e, out=L[:, c])
        L += elog_pi
        np.subtract(colsum, R[b], out=T)
        T -= S
        np.maximum(T, 0.0, out=T)
        for c, e in zip(lay.cols, E1):
            np.matmul(T[:, c], e, out=P[:, c])
        L += P
        L -= np.maximum.reduceat(L, lay.starts, axis=1)[:, lay.seg]
        np.exp(L, out=P)
        sums = np.add.reduceat(P, lay.starts, axis=1)
        P /= sums[:, lay.seg]
        if entropy is not None:
            L -= np.log(sums)[:, lay.seg]
            entropy -= np.multiply(P, L, out=L).sum(axis=0)
        colsum += np.subtract(P, R[b], out=T).sum(axis=0)
        R[b] = P


def _finish(R, X, converged, sweeps):
    """One K's (DetectionResult, theta_vb) from its final (n, K)
    responsibilities."""
    labels0 = np.argmax(R, axis=1)
    used = np.unique(labels0)
    Rc = R[:, used]
    Rc /= Rc.sum(axis=1, keepdims=True)
    part = compact_partition(labels0 + 1)
    K = used.size
    edges, pairs, _ = _group_counts(Rc, X, _layout([K]))
    theta_vb = ((_A0 + edges) / (_A0 + _B0 + pairs)).reshape(K, K)
    theta_vb = (theta_vb + theta_vb.T) / 2.0
    return DetectionResult(partition=part, converged=converged, iterations=sweeps), theta_vb


@_one_blas_thread()
def _fit_group(X, ks, inits, max_iter, tol, traces):
    """Variational EM of every K in `ks` in lockstep (:func:`_fit_range`):
    one sweep loop over the (n, sum of K) responsibilities of the K still
    running. A K leaves when it converges, at the first sweep whose gain
    is below tol * n, or reaches `max_iter`, and its columns are dropped;
    every K of the group has the same n, so each stops at the sweep it
    stops at alone. The bundled OpenBLAS runs on one thread
    (:func:`_one_blas_thread`), so that the Gram products' bytes do not
    depend on the caller's thread count. The row blocks are made once;
    a redo makes its one-node blocks as it goes."""
    n = X.shape[0]
    lay = _layout(ks)
    R = np.zeros((n, int(lay.ks.sum())))
    for c, init in zip(lay.cols, inits):
        R[np.arange(n), c.start + init.partition.labels - 1] = 1.0
    blocks = list(_row_blocks(X, _BLOCK))
    live = list(range(len(ks)))
    results = [None] * len(ks)
    prev = np.full(len(ks), -np.inf)
    counts = _group_counts(R, X, lay)
    for sweeps in range(1, max_iter + 1):
        elog, kl = _sweep_terms(counts, lay)
        colsum = counts[2]
        start = R.copy(), colsum.copy()
        entropy = np.zeros(R.shape[1])
        _e_step(R, blocks, colsum, elog, lay, entropy)
        values, counts = _elbo(R, X, elog, kl, entropy, lay)
        for i in np.flatnonzero(values < prev):
            # redo this K's sweep from its start, one node at a time, and
            # take its entropy once from the result, not node by node
            c, m = lay.cols[i], lay.mats[i]
            one = _layout(lay.ks[i:i + 1])
            elog_k = (elog[0][c], elog[1][m], elog[2][m])
            kl_k = (kl[0][i:i + 1], kl[1][i:i + 1])
            Rk = np.ascontiguousarray(start[0][:, c])
            _e_step(Rk, _row_blocks(X, 1), start[1][c], elog_k, one)
            value, (edges, pairs, colsum) = _elbo(Rk, X, elog_k, kl_k, _entr(Rk).sum(axis=0),
                                                  one)
            values[i] = value[0]
            counts[0][m], counts[1][m], counts[2][c] = edges, pairs, colsum
            R[:, c] = Rk
        del start
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"objective became non-finite at sweep {sweeps}")
        known = np.isfinite(prev)
        if __debug__:
            assert np.all(values[known] >= prev[known] - 1e-7 * (1 + np.abs(prev[known]))), \
                "objective decreased"
        for i, value in zip(live, values):
            if traces[i] is not None:
                traces[i].append(float(value))
        converged = (values - prev < tol * n) & known
        leaving = converged | (sweeps == max_iter)
        for i in np.flatnonzero(leaving):
            results[live[i]] = _finish(R[:, lay.cols[i]], X, bool(converged[i]), sweeps)
        keep = np.flatnonzero(~leaving)
        if keep.size == 0:
            break
        if keep.size < len(live):
            R = np.concatenate([R[:, lay.cols[i]] for i in keep], axis=1)
            counts = tuple(np.concatenate([x[runs[i]] for i in keep])
                           for x, runs in zip(counts, (lay.mats, lay.mats, lay.cols)))
            live = [live[i] for i in keep]
            lay = _layout(lay.ks[keep])
        prev = values[keep]
    return results


def _fit_range(X, ks, inits, max_iter, tol, traces=None):
    """Variational EM of each K in `ks` from its start in `inits` (a
    DetectionResult, filled one-hot), on the CSR adjacency X; a list of
    (DetectionResult, theta_vb) per K, in order.

    Consecutive K run in lockstep groups (:func:`_fit_group`) whose n x
    (sum of K) responsibilities hold at most _WIDE entries, at least one K
    each, so the fit holds one group's responsibilities at a time. Every
    K's sweeps are those it would make alone, to the byte."""
    traces = traces or [None] * len(ks)
    groups, width = [[]], 0
    for i, K in enumerate(ks):
        if groups[-1] and X.shape[0] * (width + K) > _WIDE:
            groups.append([])
            width = 0
        groups[-1].append(i)
        width += K
    fits = []
    for group in groups:
        fits += _fit_group(X, [ks[i] for i in group], [inits[i] for i in group],
                           max_iter, tol, [traces[i] for i in group])
    return fits


def variational_em(graph: Graph, K: int, init, max_iter: int = 100, tol: float = 1e-3,
                   trace=None):
    """Mean-field EM for the Bernoulli block model.

    Each sweep updates the membership posterior and the block-probability
    posteriors, then the nodes' soft assignments in blocks of consecutive
    nodes, each block jointly from the current rows of all others (the
    fixed-point update). If that sweep ends below the previous sweep's
    objective, it is redone from its start one node at a time, which is
    coordinate ascent, so the objective never decreases. Stops at the
    first sweep whose gain is below `tol` per node, that is below tol * n
    on the graph's n nodes, or after `max_iter` sweeps. K takes the rule
    of :func:`check_k_range`, `max_iter` must be an integer >= 1 and `tol`
    >= 0, all checked before any work.

    `init` is a DetectionResult, whose partition (at most K clusters)
    starts the EM one-hot.

    This is the one-K call of the engine :func:`detect_range` runs a K
    range with. The adjacency's row blocks (views, :class:`_row_blocks`)
    are made once per fit, a redo's one-node blocks one at a time as it
    goes. The expected logs and the KL terms of the objective depend
    only on the posteriors set at the start of a sweep, so they are
    computed once per sweep and a redo reuses them.

    Returns (DetectionResult, theta_vb), where theta_vb holds the
    per-block posterior-mean connectivity for the compacted clusters. Pass
    a list as `trace` to capture the objective value of every sweep.
    """
    (K,) = check_k_range((K,), graph.n)
    max_iter, tol = _check_stopping(max_iter, tol)
    if init.partition.n != graph.n:
        raise ValueError("init partition does not cover this graph")
    if init.partition.K > K:
        raise ValueError(f"init has {init.partition.K} clusters but K={K}")
    return _fit_range(_csr_adjacency(graph), [K], [init], max_iter, tol, [trace])[0]


def detect_range(graph: Graph, k_range, seed: int, max_iter: int = 100, tol: float = 1e-3):
    """Spectral initialization refined by variational EM at every K of
    `k_range`: the one detection entry, for estimation and selection
    runs; one K is the range (K,). Returns a list of
    (DetectionResult, theta_vb) per K, in `k_range` order.

    The seed (an integer >= 0) is checked, the range once, against the
    graph's node count, by :func:`check_k_range`, and `max_iter` and `tol`
    as in :func:`variational_em`, all before any work. One eigensolve at
    the largest K serves every spectral start (:func:`spectral_partition`
    with `basis`); the basis is then dropped, and the EM runs the range
    in lockstep (:func:`_fit_range`), a group of K at a time. Each K stops
    at the first sweep whose gain is below `tol` per node (tol * n) or
    after `max_iter` sweeps, and its result is the one it gets alone.

    The CSR adjacency is built twice, for the eigensolve and for the EM,
    and is not held across the spectral starts: beside k-means' scratch
    it would raise detection's peak by its 12 bytes per entry (1.7 MB at
    n = 4000 with 71,752 edges).
    """
    seed = _integer("seed", seed, 0)
    ks = check_k_range(k_range, graph.n)
    max_iter, tol = _check_stopping(max_iter, tol)
    solved = [K for K in ks if K >= 2]
    basis = _top_eigvecs(graph, max(solved)) if solved else None
    inits = [spectral_partition(graph, K, seed, basis=basis) for K in ks]
    del basis
    return _fit_range(_csr_adjacency(graph), ks, inits, max_iter, tol)
