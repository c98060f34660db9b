"""Edge-list and label-file ingestion.

Format: UTF-8 text, one edge per line as two whitespace-separated node
tokens; lines starting with '#' (and blank lines) are ignored. Node
tokens may be arbitrary strings and are mapped to 0-based indices in
first-seen order; the mapping is returned so results can be reported in
the original ids. Duplicate edges (either orientation) and self-loops are
dropped silently but counted. Label files hold one "node label" pair per
line with the same token conventions; a node named only there is appended
to the ids as an isolated node. Each file is parsed in one pass.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .graph import Graph, Partition

__all__ = [
    "read_edge_list", "write_edge_list", "read_label_file", "write_label_file",
    "ingest_network", "canonical_order", "bundled_data_path",
]


def bundled_data_path(name: str) -> str:
    """Path to a data file shipped with the package."""
    from importlib import resources

    return str(resources.files("ebsbm").joinpath("data", name))


def _data_lines(path):
    try:
        # a byte that is not UTF-8 decodes to a lone surrogate, and strict
        # decoding of its line's bytes then names the byte on that line
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.isascii():
                    try:
                        raw.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise DataError(f"{path}: line {lineno}: {exc}") from exc
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                yield lineno, line
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_edge_list(path):
    """Parse an edge list. Returns (graph, node_ids, report) where report
    counts dropped self-loops and duplicates."""
    index = {}  # token -> node, in first-seen order
    pairs = []
    for lineno, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) != 2:
            raise DataError(f"{path}: line {lineno}: expected two node tokens, got {len(tokens)}")
        pairs.append([index.setdefault(tok, len(index)) for tok in tokens])
    if not index:
        raise DataError(f"{path}: no edges found")
    pairs = np.sort(np.array(pairs, dtype=np.int64), axis=1)
    loop = pairs[:, 0] == pairs[:, 1]
    graph = Graph(n=len(index), edges=pairs[~loop])
    report = {"n": graph.n, "edges": graph.edge_count, "self_loops_dropped": int(loop.sum()),
              "duplicates_dropped": int((~loop).sum()) - graph.edge_count}
    return graph, list(index), report


# Lines per formatted chunk: about 1 MB of Python values and text at once,
# whatever the number of lines written.
_CHUNK_ROWS = 1 << 13


def _write_rows(path, line, columns):
    """Write line k as ``line % (columns[0][k], columns[1][k], ...)`` for
    equal-length 1-D arrays ``columns``, as ASCII with '\\n' line ends.

    Each chunk of _CHUNK_ROWS lines is one ``%`` format over the chunk's
    values, written as bytes; no Python code runs per line.
    """
    width, rows = len(columns), len(columns[0])
    with open(path, "wb") as fh:
        for lo in range(0, rows, _CHUNK_ROWS):
            values = [None] * (width * min(_CHUNK_ROWS, rows - lo))
            for k, col in enumerate(columns):
                values[k::width] = col[lo:lo + _CHUNK_ROWS].tolist()
            fh.write((line * (len(values) // width) % tuple(values)).encode("ascii"))


def write_edge_list(graph: Graph, path):
    """Write one "i j" line per edge, in the graph's sorted (i, j) order,
    with '\\n' line ends on every platform; byte-deterministic."""
    _write_rows(path, "%d %d\n", graph.edges.T)


def read_label_file(path, node_ids):
    """Parse "node label" pairs labelling every node once; a node that
    node_ids lacks is appended to the ids, in first-seen order.

    Label tokens map to 1..K in first-seen order; returns (partition, ids).
    """
    index = {tok: pos for pos, tok in enumerate(node_ids)}  # keys: the ids, in order
    raw = {}
    label_index = {}  # token -> cluster 1..K, in first-seen order
    for lineno, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) != 2:
            raise DataError(f"{path}: line {lineno}: expected 'node label', got {len(tokens)} tokens")
        node_tok, label_tok = tokens
        node = index.setdefault(node_tok, len(index))
        if node in raw:
            raise DataError(f"{path}: line {lineno}: node {node_tok!r} is labelled twice")
        raw[node] = label_index.setdefault(label_tok, len(label_index) + 1)
    missing = len(index) - len(raw)
    if missing:
        raise DataError(f"{path}: {missing} node(s) have no label")
    labels = np.array([raw[i] for i in range(len(index))], dtype=np.int64)
    return Partition(labels=labels, K=len(label_index)), list(index)


def write_label_file(labels, path):
    """Write one "node label" line per node, in index order, with '\\n'
    line ends. labels is a Partition or a 1-D integer array of 1-based
    labels, which may leave labels unused; any other array raises
    ValueError rather than write or truncate a non-integer label."""
    if isinstance(labels, Partition):
        labels = labels.labels
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be a Partition or a 1-D integer array, "
                         f"got {labels.ndim}-D {labels.dtype}")
    _write_rows(path, "%d %d\n", (np.arange(labels.size), labels))


def ingest_network(edges_path, labels_path=None):
    """Load a network and optional annotation into canonical form.

    Nodes appearing only in the label file are appended as isolated
    nodes by :func:`read_label_file`, so annotated node counts survive
    sparse edge lists. Returns (graph, partition_or_None, node_ids, report).
    """
    graph, ids, report = read_edge_list(edges_path)
    part = None
    if labels_path is not None:
        part, ids = read_label_file(labels_path, ids)
        if len(ids) > graph.n:
            graph = Graph(n=len(ids), edges=graph.edges)
        report = dict(report, n=graph.n, k_labels=part.K)
    else:
        report = dict(report, k_labels=None)
    return graph, part, ids, report


def canonical_order(graph: Graph) -> np.ndarray:
    """Node order produced by writing the edge list and reading it back:
    first appearance over index-sorted edges. Isolated nodes do not appear
    in an edge list, so they are absent here too.

    Endpoint k of edge e is position 2e + k of that list. The edges are
    sorted by i, so a node's first edge as i is found by a search; its
    first as j is a minimum over its edges. Scratch beyond the edges is
    O(n) plus one O(m) position array.
    """
    n, m = graph.n, graph.edge_count
    i, j = graph.edges.T
    nodes = np.arange(n)
    lo, hi = np.searchsorted(i, nodes), np.searchsorted(i, nodes, side="right")
    first = np.where(hi > lo, 2 * lo, 2 * m)  # 2m: not (yet) seen
    np.minimum.at(first, j, np.arange(1, 2 * m, 2))
    seen = np.flatnonzero(first < 2 * m)
    return seen[np.argsort(first[seen])]
