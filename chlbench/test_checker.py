"""Self-test of the benchmark's independent checker, run from the repository root:

    python3 -m pytest chlbench/test_checker.py -q

The checker must reproduce ``repro.core.reference.brute_chl`` (labels) and
all-pairs Dijkstra (distances) on small graphs, including all-unit weights
and a disconnected graph, and must reject a labeling with one label dropped
or one distance changed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checker import Reference, single_source  # noqa: E402
from repro.core.labels import INF, LabelStore  # noqa: E402
from repro.core.reference import all_pairs_dist, brute_chl  # noqa: E402
from repro.graphs.csr import from_edges  # noqa: E402
from repro.graphs.generators import grid_road, random_graph, scale_free  # noqa: E402
from repro.graphs.ranking import degree_rank  # noqa: E402


def _unit_weights(n: int, seed: int):
    """Cycle plus chords, every weight 1: many equal-length paths."""
    rng = np.random.default_rng(seed)
    src = np.concatenate([np.arange(n), rng.integers(0, n, size=n)])
    dst = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n, size=n)])
    return from_edges(n, src, dst, np.ones(len(src), dtype=np.int64))


def _disconnected():
    """Two weighted components and one isolated vertex."""
    a = random_graph(12, 4.0, 5)
    b = scale_free(10, 3.0, 6)
    src = np.concatenate(
        [np.repeat(np.arange(12), np.diff(a.indptr)), 12 + np.repeat(np.arange(10), np.diff(b.indptr))]
    )
    dst = np.concatenate([a.indices, 12 + b.indices])
    w = np.concatenate([a.weights, b.weights])
    return from_edges(23, src, dst, w)


GRAPHS = {
    "road": lambda: grid_road(36, 2.46, 1),
    "scalefree": lambda: scale_free(40, 3.3, 2),
    "random": lambda: random_graph(40, 6.0, 3),
    "unit-weights": lambda: _unit_weights(30, 4),
    "disconnected": _disconnected,
}


def _ranks(g):
    yield degree_rank(g)
    yield np.random.default_rng(g.n).permutation(g.n).astype(np.int64)


def _all_sources(g, rank) -> Reference:
    pairs = np.stack([np.arange(g.n), (np.arange(g.n) * 7 + 3) % g.n], axis=1)
    return Reference(g, rank, pairs, g.n)


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_checker_reproduces_brute_chl(kind):
    g = GRAPHS[kind]()
    dist = all_pairs_dist(g)
    for rank in _ranks(g):
        brute = brute_chl(g, rank, dist)
        for v in range(g.n):
            d, labels = single_source(g, rank, v)
            assert np.array_equal(d, dist[v])
            assert labels == brute.hash_of(v)
        ref = _all_sources(g, rank)
        assert ref.bad_vertices(brute) == []
        assert not ref.bad_answers(ref.truth).any()
    if kind == "disconnected":
        assert (ref.truth == INF).any()


def _copy(store: LabelStore) -> LabelStore:
    return LabelStore(store.n, [list(h) for h in store.hubs], [list(d) for d in store.dists])


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_checker_rejects_corrupt_labeling(kind):
    g = GRAPHS[kind]()
    rank = degree_rank(g)
    brute = brute_chl(g, rank)
    ref = _all_sources(g, rank)
    v = max(range(g.n), key=lambda u: len(brute.hubs[u]))
    i = next(i for i, h in enumerate(brute.hubs[v]) if h != v)  # a non-self label

    dropped = _copy(brute)
    del dropped.hubs[v][i], dropped.dists[v][i]
    assert ref.bad_vertices(dropped) == [v]

    changed = _copy(brute)
    changed.dists[v][i] += 1
    assert ref.bad_vertices(changed) == [v]

    answers = ref.truth.copy()
    answers[3] += 1
    assert ref.bad_answers(answers).nonzero()[0].tolist() == [3]


def test_mismatches_count_as_failed_operations():
    import run

    g = GRAPHS["random"]()
    rank = degree_rank(g)
    brute = brute_chl(g, rank)
    ref = _all_sources(g, rank)
    dropped = _copy(brute)
    v = max(range(g.n), key=lambda u: len(brute.hubs[u]))
    del dropped.hubs[v][-1], dropped.dists[v][-1]
    wrong = ref.truth.copy()
    wrong[5] += 1
    answers = {"QLSN": ref.truth, "QFDL": ref.truth, "QDOL": wrong}
    r = {
        "stores": {"seq_pll": brute, "gll": dropped},
        "slices": [{"answers": answers, "latency_answers": ref.truth[np.arange(50) % g.n]}],
    }
    attempted, failed = run.check_round(r, ref, {})
    assert attempted == 2 + 3 * g.n + 50
    # The dropped label fails one call; the modes disagreeing on pair 5
    # fails that pair in all three modes.
    assert failed == 1 + 3


def test_benchmark_json_lists_the_printed_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
