"""Independent CHL checker: one Dijkstra per sampled vertex, no engine code.

For a source ``v`` the Canonical Hub Labeling holds ``(h, d(v, h))`` exactly
when ``h`` is the highest-ranked vertex on every shortest v-h path. One
Dijkstra gives the shortest-path DAG; carrying, in settle order, the highest
rank seen on any shortest path from ``v`` (ties counted: every DAG
predecessor contributes) gives that maximum per vertex, so

    L(v) = {(h, d(v, h)) : top_rank(h) == rank(h)}.

Only the graph's CSR arrays, the ranking and the program's ``INF`` sentinel
are read, so a fault in any engine, kernel or label store cannot hide here.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.labels import INF


def single_source(g, rank: np.ndarray, v: int) -> tuple[np.ndarray, dict[int, int]]:
    """(distances from ``v`` with ``INF`` for unreachable, expected ``L(v)``)."""
    n = g.n
    indptr, indices, weights = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
    dist = [INF] * n
    dist[v] = 0
    settled: list[int] = []
    done = [False] * n
    pq = [(0, v)]
    while pq:
        d, u = heapq.heappop(pq)
        if done[u]:
            continue
        done[u] = True
        settled.append(u)
        for i in range(indptr[u], indptr[u + 1]):
            w = indices[i]
            nd = d + weights[i]
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(pq, (nd, w))
    # Weights are positive, so every DAG predecessor settles before its
    # successor and ``top[u]`` is final when ``u`` is reached in this pass.
    rk = rank.tolist()
    top = list(rk)
    for u in settled:
        du, tu = dist[u], top[u]
        for i in range(indptr[u], indptr[u + 1]):
            w = indices[i]
            if du + weights[i] == dist[w] and tu > top[w]:
                top[w] = tu
    labels = {h: dist[h] for h in settled if top[h] == rk[h]}
    return np.asarray(dist, dtype=np.int64), labels


class Reference:
    """Checker results for a seeded sample of sources, reused every round.

    ``sources`` are the first endpoints of the first ``k`` query pairs, so
    the same Dijkstras check both labels and query answers.
    """

    def __init__(self, g, rank: np.ndarray, pairs: np.ndarray, k: int):
        self.pairs = pairs[:k]
        self.sources = sorted({int(u) for u in self.pairs[:, 0]})
        self.dist: dict[int, np.ndarray] = {}
        self.labels: dict[int, dict[int, int]] = {}
        for s in self.sources:
            self.dist[s], self.labels[s] = single_source(g, rank, s)
        self.truth = np.array(
            [self.dist[int(u)][int(v)] for u, v in self.pairs], dtype=np.int64
        )

    def bad_vertices(self, store) -> list[int]:
        """Sampled vertices whose labels in ``store`` differ from ``L(v)``."""
        return [s for s in self.sources if store.hash_of(s) != self.labels[s]]

    def bad_answers(self, answers: np.ndarray) -> np.ndarray:
        """Mask over the sampled pairs whose answer differs from Dijkstra."""
        return np.asarray(answers[: len(self.truth)]) != self.truth
