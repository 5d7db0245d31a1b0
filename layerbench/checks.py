"""Correctness oracles for every value the benchmark's workloads compute.

BFS answers come straight from :mod:`repro.reference.golden`.  Three
golden oracles do not scale to the benchmark's graphs and request counts,
so this module carries equivalents that the self-tests check against the
originals on small graphs:

- ``golden.pagerank_fixpoint`` is a direct sparse LU solve, which fills
  in badly on R-MAT graphs; :func:`pagerank_fixpoint` iterates the same
  fixpoint equation in float64 until it stops moving.
- ``golden.ancestor_min_labels`` walks descendants of every vertex,
  O(V*E); :func:`ancestor_min_labels` visits vertices in increasing
  index order and labels each unlabeled descendant once, O(V+E).  The
  first root to reach a vertex is its smallest ancestor.
- ``golden.sssp_distances`` deduplicates parallel edges in a Python loop
  on every call; :class:`Oracle` builds the same min-weight adjacency once
  per graph with NumPy and runs the same Dijkstra on it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.reference import golden
from repro.vertexcentric.datatypes import UINT_INF

#: Program tolerance and comparison bound of PageRank cells, the pairing
#: ``tests/test_golden.py`` uses.
PR_TOLERANCE = 1e-6
PR_ATOL = 5e-4
#: The service builds programs with their default tolerance (1e-3); the
#: comparison bound keeps the same 500x ratio to it.
PR_ATOL_PER_TOLERANCE = PR_ATOL / PR_TOLERANCE

FIELDS = {"bfs": "level", "sssp": "dist", "cc": "cmpnent", "pr": "rank"}


def pagerank_fixpoint(graph, damping: float = 0.85) -> np.ndarray:
    """``r = (1 - d) + d * P r`` iterated in float64 to a 1e-12 fixpoint."""
    n = graph.num_vertices
    outdeg = graph.out_degrees().astype(np.float64)
    inv = np.zeros(n)
    nz = outdeg > 0
    inv[nz] = 1.0 / outdeg[nz]
    p = sp.csr_matrix((inv[graph.src], (graph.dst, graph.src)), shape=(n, n))
    r = np.full(n, 1.0 - damping)
    for _ in range(100_000):
        nxt = (1.0 - damping) + damping * (p @ r)
        if np.abs(nxt - r).max() < 1e-12:
            return nxt
        r = nxt
    raise RuntimeError("pagerank oracle did not converge")


def ancestor_min_labels(graph) -> np.ndarray:
    """Minimum index over each vertex and everything that reaches it."""
    n = graph.num_vertices
    order = np.argsort(graph.src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.src, minlength=n), out=indptr[1:])
    indptr = indptr.tolist()
    targets = graph.dst[order].tolist()
    labels = [-1] * n
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = root
        stack = [root]
        while stack:
            u = stack.pop()
            for v in targets[indptr[u]:indptr[u + 1]]:
                if labels[v] < 0:
                    labels[v] = root
                    stack.append(v)
    return np.asarray(labels, dtype=np.int64)


def min_weight_adjacency(graph) -> sp.csr_matrix:
    """``(n, n)`` CSR of edge weights, the lightest of parallel edges."""
    n = graph.num_vertices
    w = np.ones(graph.num_edges) if graph.weights is None else graph.weights
    order = np.lexsort((w, graph.dst, graph.src))
    s, d, w = graph.src[order], graph.dst[order], w[order]
    first = np.ones(len(s), dtype=bool)
    first[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
    return sp.csr_matrix((w[first], (s[first], d[first])), shape=(n, n))


def _as_float(values: np.ndarray) -> np.ndarray:
    out = values.astype(np.float64)
    if values.dtype == np.uint32:
        out[values == UINT_INF] = np.inf
    return out


class Oracle:
    """Expected answers, computed once per (graph, program, source)."""

    def __init__(self) -> None:
        self._memo: dict[tuple, tuple] = {}

    def expected(self, graph, program: str, source: int | None) -> np.ndarray:
        key = (id(graph), program, source)
        if key not in self._memo:
            if program == "bfs":
                value = golden.bfs_levels(graph, source)
            elif program == "sssp":
                adjacency = self._memo.get((id(graph), "adjacency"))
                if adjacency is None:
                    adjacency = (graph, min_weight_adjacency(graph))
                    self._memo[(id(graph), "adjacency")] = adjacency
                value = csgraph.dijkstra(adjacency[1], directed=True,
                                         indices=source)
            elif program == "cc":
                value = ancestor_min_labels(graph).astype(np.float64)
            elif program == "pr":
                value = pagerank_fixpoint(graph)
            else:
                raise ValueError(f"no oracle for {program!r}")
            self._memo[key] = (graph, value)  # pin graph: id() stays unique
        return self._memo[key][1]

    def check(self, graph, program: str, source: int | None, values,
              pr_tolerance: float = PR_TOLERANCE) -> bool:
        """Do ``values`` (a RunResult's struct array) match the oracle?"""
        got = _as_float(values[FIELDS[program]])
        want = self.expected(graph, program, source)
        if program == "pr":
            return bool(np.allclose(got, want, rtol=0.0,
                                    atol=PR_ATOL_PER_TOLERANCE * pr_tolerance))
        return bool(np.array_equal(got, want))


def same_run(a, b) -> bool:
    """Bit-exact equality of two RunResults: values and every exact count."""
    return (
        a.values.tobytes() == b.values.tobytes()
        and a.iterations == b.iterations
        and a.stats == b.stats
        and a.total_ms == b.total_ms
        and a.edges_processed == b.edges_processed
        and a.shards_skipped == b.shards_skipped
        and a.exchange_bytes == b.exchange_bytes
        and a.exchange_ms == b.exchange_ms
    )
