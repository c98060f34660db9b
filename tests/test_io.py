import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebsbm import io
from ebsbm.errors import DataError
from ebsbm.experiment import _write_sidecars
from ebsbm.graph import Graph, Partition, compact_partition, relabel_nodes
from ebsbm.io import (
    canonical_order,
    ingest_network,
    read_edge_list,
    read_label_file,
    write_edge_list,
    write_label_file,
)
from ebsbm.samplers import affiliation_theta, sample_sbm
from helpers import random_pairs


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestReadEdgeList:
    def test_basic_first_seen_mapping(self, tmp_path):
        p = write(tmp_path, "e.txt", "a b\nb c\n")
        graph, ids, report = read_edge_list(p)
        assert ids == ["a", "b", "c"]
        assert graph.n == 3
        assert np.array_equal(graph.edges, [[0, 1], [1, 2]])
        assert report["self_loops_dropped"] == 0
        assert report["duplicates_dropped"] == 0

    def test_comments_and_blanks(self, tmp_path):
        p = write(tmp_path, "e.txt", "# header\n\n0 1\n# more\n1 2\n")
        graph, ids, _ = read_edge_list(p)
        assert graph.edge_count == 2

    def test_self_loops_and_duplicates_counted(self, tmp_path):
        p = write(tmp_path, "e.txt", "x x\nx y\ny x\nx y\n")
        graph, ids, report = read_edge_list(p)
        assert graph.edge_count == 1
        assert report["self_loops_dropped"] == 1
        assert report["duplicates_dropped"] == 2  # reversed + repeated

    def test_directed_symmetrized(self, tmp_path):
        # orientation is discarded: u->v and v->u collapse to one edge
        p = write(tmp_path, "e.txt", "0 1\n1 0\n2 0\n")
        graph, ids, _ = read_edge_list(p)
        assert graph.edge_count == 2

    def test_malformed_line_reports_number(self, tmp_path):
        p = write(tmp_path, "e.txt", "0 1\n0 1 2\n")
        with pytest.raises(DataError) as err:
            read_edge_list(p)
        assert "line 2" in str(err.value)

    def test_line_endings(self, tmp_path):
        # \n, \r\n and a lone \r each end a line
        p = tmp_path / "e.txt"
        p.write_bytes(b"0 1\r\n1 2\r2 3\n0 1 2\n")
        with pytest.raises(DataError, match="line 4"):
            read_edge_list(p)

    @pytest.mark.parametrize("bad", ["e.txt", "l.txt"])
    def test_non_utf8_byte_reports_file_and_line(self, tmp_path, bad):
        # once a bare codec error without the file or the line
        files = {"e.txt": b"a b\nb c\nc d\n", "l.txt": b"a 1\nb 1\nc 2\nd 2\n"}
        files[bad] = files[bad].replace(b"\nc ", b"\n\xff ")  # node c on line 3
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        with pytest.raises(DataError, match=f"{bad}: line 3: .*byte 0xff"):
            ingest_network(tmp_path / "e.txt", tmp_path / "l.txt")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_edge_list(tmp_path / "absent.txt")


class TestLabels:
    def test_read_labels(self, tmp_path):
        e = write(tmp_path, "e.txt", "a b\nb c\n")
        l = write(tmp_path, "l.txt", "a red\nb red\nc blue\n")
        graph, ids, _ = read_edge_list(e)
        part, got = read_label_file(l, ids)
        assert part.K == 2
        assert list(part.labels) == [1, 1, 2]
        assert got == ids == ["a", "b", "c"]

    def test_label_only_nodes_appended(self, tmp_path):
        # a node only the label file names once raised "unknown node"
        l = write(tmp_path, "l.txt", "a X\nz Y\nb X\ny Z\nc Y\n")
        ids = ["a", "b", "c"]
        part, got = read_label_file(l, ids)
        assert got == ["a", "b", "c", "z", "y"]
        assert ids == ["a", "b", "c"]  # the caller's list is not extended
        assert list(part.labels) == [1, 1, 2, 2, 3]

    def test_unlabeled_node_rejected(self, tmp_path):
        e = write(tmp_path, "e.txt", "a b\nb c\n")
        l = write(tmp_path, "l.txt", "a 1\nb 1\n")
        graph, ids, _ = read_edge_list(e)
        with pytest.raises(DataError):
            read_label_file(l, ids)

    @pytest.mark.parametrize("text, lineno, node", [
        ("a X\nb X\nc Y\nb Y\n", 4, "b"),  # once silently kept the last label
        ("a X\na Y\nb Y\nc Y\n", 2, "a"),  # once reported an empty cluster
    ])
    def test_node_labelled_twice_rejected(self, tmp_path, text, lineno, node):
        e = write(tmp_path, "e.txt", "a b\nb c\n")
        l = write(tmp_path, "l.txt", text)
        with pytest.raises(DataError, match=f"l.txt: line {lineno}: node '{node}' is labelled twice"):
            ingest_network(e, l)

    def test_write_raw_label_array(self, tmp_path):
        # a raw label array may leave a label unused, unlike a Partition
        path = tmp_path / "labels.txt"
        write_label_file(np.array([1, 3, 3, 1]), path)
        assert path.read_bytes() == b"0 1\n1 3\n2 3\n3 1\n"

    @pytest.mark.parametrize("labels", [
        np.array([1.0, 2.0]), np.array([1.5, 2.0]), np.array([True, False]),
        np.array(["1", "2"]), np.array([[1, 2], [2, 1]]),
    ], ids=["float", "fraction", "bool", "str", "2-d"])
    def test_write_rejects_non_integer_labels(self, tmp_path, labels):
        # a float label once wrote tokens such as 1.5; "%d" would truncate it
        with pytest.raises(ValueError, match="integer array"):
            write_label_file(labels, tmp_path / "labels.txt")

    def test_roundtrip(self, tmp_path):
        part = Partition.from_labels([1, 2, 1, 3])
        path = tmp_path / "labels.txt"
        write_label_file(part, path)
        back, _ = read_label_file(path, ["0", "1", "2", "3"])
        assert back == part


class TestIngest:
    def test_labels_can_extend_nodes(self, tmp_path):
        # an isolated node appears only in the label file
        e = write(tmp_path, "e.txt", "a b\n")
        l = write(tmp_path, "l.txt", "a 1\nb 2\nc 1\n")
        graph, part, ids, report = ingest_network(e, l)
        assert graph.n == 3
        assert ids == ["a", "b", "c"]
        assert part.K == 2
        assert report["n"] == 3 and report["edges"] == 1

    def test_ingest_bytes_pinned(self, tmp_path):
        # an edge list with a comment line and a label file that interleaves
        # two label-only nodes; the bytes were recorded when the label file
        # was still scanned twice
        from ebsbm.cli import main

        e = write(tmp_path, "e.txt", "# a comment\nb a\nc b\nd c\na c\n")
        l = write(tmp_path, "l.txt", "a X\nz Y\nb X\nc Y\ny Z\nd Y\n")
        out = tmp_path / "out"
        assert main(["ingest", "--graph", str(e), "--labels", str(l), "--out", str(out)]) == 0
        assert (out / "edges.txt").read_bytes() == b"0 1\n0 2\n1 2\n2 3\n"
        assert (out / "node_ids.json").read_bytes() == \
            b'{"ids": ["b", "a", "c", "d", "z", "y"]}\n'
        assert (out / "labels.txt").read_bytes() == b"0 1\n1 1\n2 2\n3 2\n4 2\n5 3\n"

    def test_each_file_parsed_once(self, tmp_path, monkeypatch):
        e = write(tmp_path, "e.txt", "a b\n")
        l = write(tmp_path, "l.txt", "a 1\nc 2\nb 2\n")
        passes = []
        real = io._data_lines

        def counted(path):
            passes.append(path)
            return real(path)

        monkeypatch.setattr(io, "_data_lines", counted)
        graph, part, ids, _ = ingest_network(e, l)
        assert passes == [e, l]
        assert (graph.n, ids, list(part.labels)) == (3, ["a", "b", "c"], [1, 2, 2])

    def test_malformed_label_line_before_bad_byte(self, tmp_path):
        # one pass meets the malformed line 2 before the byte on line 3
        e = write(tmp_path, "e.txt", "a b\n")
        l = tmp_path / "l.txt"
        l.write_bytes(b"a 1\nb 1 2\n\xff 2\n")
        with pytest.raises(DataError, match="l.txt: line 2: expected 'node label', got 3"):
            ingest_network(e, l)

    def test_without_labels(self, tmp_path):
        e = write(tmp_path, "e.txt", "1 2\n2 3\n")
        graph, part, ids, report = ingest_network(e, None)
        assert part is None
        assert report["k_labels"] is None


def test_edge_list_roundtrip(tmp_path):
    g = Graph(n=5, edges=frozenset({(0, 3), (1, 2), (2, 4)}))
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    back, ids, _ = read_edge_list(path)
    # map read indices through the token list to recover original ids
    edges = sorted((min(int(ids[a]), int(ids[b])), max(int(ids[a]), int(ids[b])))
                   for a, b in back.edges)
    assert np.array_equal(edges, g.edges)
    assert back.edge_count == g.edge_count


def test_write_edge_list_deterministic(tmp_path):
    g = Graph(n=4, edges=frozenset({(2, 3), (0, 1), (1, 3)}))
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_edge_list(g, p1)
    write_edge_list(g, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "0 1"


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
def test_canonical_relabel_matches_file_roundtrip(n, seed):
    # isolated nodes: only a random subset of nodes may carry edges
    rng = np.random.default_rng(seed)
    active = rng.random(n) < 0.7
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if active[i] and active[j] and rng.random() < 0.3]
    edges.append(tuple(sorted(rng.choice(n, size=2, replace=False).tolist())))
    g = Graph(n=n, edges=edges)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.txt"
        write_edge_list(g, path)
        back, ids, _ = read_edge_list(path)
    order = canonical_order(g)
    assert order.dtype == np.int64
    assert order.tolist() == [int(t) for t in ids]
    assert relabel_nodes(g, order) == back


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(1, 0, 0.5)    # one node
@example(6, 0, 0.0)    # no edges
@example(12, 3, 0.05)  # isolated nodes
def test_canonical_order_matches_first_index_over_endpoints(n, seed, density):
    # oracle: np.unique over all 2m endpoints, ordered by first index
    g = Graph(n=n, edges=random_pairs(n, seed, density))
    nodes, first = np.unique(g.edges.ravel(), return_index=True)
    want = nodes[np.argsort(first)]
    got = canonical_order(g)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_canonical_relabel_memory():
    # 72k edges (a 1.15 MB array): the first-appearance search holds one
    # m-sized position array (0.7 MB measured for canonical_order), and
    # the relabel its mapped pairs, the constructor's copy and one key
    # (3.1 MB measured). np.unique over the endpoints, a sorted copy of
    # the keys and column_stack peaked at 3.7 and 5.3 MB
    g, _ = sample_sbm(affiliation_theta(10, 0.9, 0.1, 0.05), n=4000, seed=1)
    tracemalloc.start()
    try:
        order = canonical_order(g)
        order_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        relabel_nodes(g, order)
        relabel_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert order_peak <= 1_500_000, f"canonical_order peak {order_peak / 1e6:.1f} MB"
    assert relabel_peak <= 4_000_000, f"relabel_nodes peak {relabel_peak / 1e6:.1f} MB"


def reference_edge_bytes(graph):
    return "".join(f"{i} {j}\n" for i, j in graph.edges.tolist()).encode()


def reference_label_bytes(labels):
    return "".join(f"{i} {lab}\n" for i, lab in enumerate(labels)).encode()


def reference_latent_bytes(latents):
    return "".join(f"{i} {float(u)!r}\n" for i, u in enumerate(latents)).encode()


def random_ids(rng, size, max_digits):
    """Node ids whose decimal widths vary from 1 to max_digits digits."""
    return rng.integers(0, 10 ** rng.integers(1, max_digits + 1, size=size), dtype=np.int64)


@st.composite
def chunked_edges(draw):
    """A writer chunk size and edges on either side of a chunk boundary
    (the real one too), their ids of varied decimal widths."""
    chunk = draw(st.sampled_from([1, 3, io._CHUNK_ROWS]), label="chunk")
    rows = draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1]), label="rows")
    digits = draw(st.integers(1, 9), label="id digits")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="id seed"))
    i = random_ids(rng, rows, digits)
    # distinct offsets j - i make the pairs distinct
    return chunk, np.column_stack((i, i + 1 + rng.permutation(rows)))


# each id at a digit-width boundary on either side of a pair
WIDTH_BOUNDARY_EDGES = np.array([
    [0, 9], [0, 10], [9, 10], [10, 99], [99, 100], [100, 999_999_999],
    [999_999_999, 1_000_000_000],
])


@settings(max_examples=60, deadline=None)
@given(layout=chunked_edges(), digits=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from(["int64", "int32", "uint8"]), head=st.lists(st.floats(), max_size=8))
@example(layout=(3, WIDTH_BOUNDARY_EDGES), digits=9, seed=0, dtype="int64", head=[])
@example(layout=(io._CHUNK_ROWS, WIDTH_BOUNDARY_EDGES), digits=9, seed=0, dtype="int64", head=[])
def test_writers_match_per_line_reference(layout, digits, seed, dtype, head):
    # the chunked writers give exactly the bytes of one f-string per line
    chunk, edges = layout
    rows = len(edges)
    rng = np.random.default_rng(seed)
    graph = Graph(n=int(edges.max(initial=0)) + 1, edges=edges)
    labels = rng.integers(1, min(10**digits, np.iinfo(dtype).max), size=rows,
                          endpoint=True).astype(dtype)
    head = head[:rows]
    latents = rng.random(rows)
    latents[:len(head)] = head
    with mock.patch.object(io, "_CHUNK_ROWS", chunk), tempfile.TemporaryDirectory() as d:
        d = Path(d)
        write_edge_list(graph, d / "g.txt")
        assert (d / "g.txt").read_bytes() == reference_edge_bytes(graph)
        write_label_file(labels, d / "labels.txt")
        assert (d / "labels.txt").read_bytes() == reference_label_bytes(labels)
        if rows:
            part = compact_partition(labels)
            write_label_file(part, d / "part.txt")
            assert (d / "part.txt").read_bytes() == reference_label_bytes(part.labels)
        _write_sidecars({"graph": graph, "latents": latents}, d, 0)
        assert (d / "replicates" / "r000" / "latents.txt").read_bytes() == \
            reference_latent_bytes(latents)


def test_write_edge_list_memory_is_one_chunk(tmp_path):
    # 10^5 edges written a line at a time from one tolist() of every edge
    # peaked near 13 MB; one chunk's values and text stay near 1 MB
    rng = np.random.default_rng(0)
    pairs = np.sort(rng.integers(0, 10**5, size=(110_000, 2)), axis=1)
    g = Graph(n=10**5, edges=pairs[pairs[:, 0] < pairs[:, 1]][:100_000])
    assert g.edge_count > 99_000
    tracemalloc.start()
    try:
        write_edge_list(g, tmp_path / "g.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, f"peak allocation {peak / 1e6:.1f} MB"
