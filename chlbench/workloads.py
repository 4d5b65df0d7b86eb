"""The benchmark's workloads: seeded inputs and one timed round of each.

A round makes, for each labeling call of the workload in turn, a fresh
set-up (graph generation + ranking), the call, and ``slices`` query
slices, each of them the three §6 query modes over the throughput stream,
then a closed-loop single-client latency stream on the QLSN index. The
three query indexes are built once per round, from the first call's store.
Every value is timed in-process around public calls.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.gll import gll
from repro.core.pll import seq_pll
from repro.core.query import QueryIndex
from repro.dist import query_modes as qm
from repro.dist.hybrid import hybrid
from repro.dist.plant_dist import plant_dist
from repro.graphs.generators import DATASETS, grid_road, random_graph, scale_free
from repro.graphs.ranking import rank_for

GENERATORS = {"road": grid_road, "scalefree": scale_free, "random": random_graph}
DIST_ENGINES = {"plant_dist": plant_dist, "hybrid": hybrid}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for why each was chosen)."""

    dataset: str  # Table-2 analogue in repro.graphs.generators.DATASETS
    scale: float  # vertex count = spec.n * scale, as build_dataset does
    spark: bool  # run the engines and query modes on a Spark session
    engines: tuple[str, ...]  # labeling calls of one round; the first is also the warm-up
    q: int  # simulated nodes: distributed engines and query modes
    n_pairs: int  # throughput stream of one query slice, per mode
    n_latency: int  # latency stream of one query slice, cycling over the pairs
    slices: int  # query slices after each labeling call
    graphs: int  # seeded graphs of a run; round i runs on graph i mod graphs


WORKLOADS = {
    "road-serve": Workload("CAL", 1.0, False, ("seq_pll",), 16, 2000, 10000, 4, 3),
    "weak-build": Workload(
        "POK", 0.3, False, ("seq_pll", "gll", "plant_dist"), 4, 2000, 16000, 1, 3
    ),
    "dist-scalefree": Workload(
        "SKIT", 1.0, True, ("gll", "plant_dist", "hybrid"), 4, 2000, 30000, 1, 1
    ),
}

#: Latency percentiles are taken per window of this many consecutive queries
#: (100 samples beyond p95) and reported as the mean over the run's windows.
LATENCY_WINDOW = 2000

#: Query pairs whose answers (and first endpoints' labels) the checker verifies.
CHECK_PAIRS = 24


def setup(w: Workload, seed: int, graph: int):
    """Generate and rank a run's graph ``graph``: ``(g, rank, generate_s, rank_s)``.

    Graph 0 of seed 0 is the Table-2 analogue; graph j of seed s shifts the
    dataset's own generator seed by ``s * w.graphs + j``. A run cycles over
    several graphs on the driver-only workloads because label sizes, and
    with them build and query times, move with the graph: over seeds 1-10
    the seqPLL ALS of one CAL graph spreads 3%, of one POK graph 8%.
    """
    spec = DATASETS[w.dataset]
    t0 = time.perf_counter()
    gen_seed = spec.seed + seed * w.graphs + graph
    g = GENERATORS[spec.kind](max(16, int(spec.n * w.scale)), spec.deg, gen_seed)
    t1 = time.perf_counter()
    rank = rank_for(g, spec.kind)
    return g, rank, t1 - t0, time.perf_counter() - t1


def query_pairs(n: int, w: Workload, seed: int) -> np.ndarray:
    """Uniform random (u, v) pairs, the same for every round of a run."""
    return np.random.default_rng([seed, 1]).integers(0, n, size=(w.n_pairs, 2))


def latency_pairs(w: Workload, pairs: np.ndarray) -> np.ndarray:
    """The latency stream: the throughput pairs, cycled to ``n_latency``."""
    return pairs[np.arange(w.n_latency) % len(pairs)]


def run_engine(name: str, spark, g, rank, q: int):
    """One labeling call: ``(store, stats)``."""
    if name == "seq_pll":
        return seq_pll(g, rank)
    if name == "gll":
        return gll(spark, g, rank)
    res = DIST_ENGINES[name](spark, g, rank, q)
    return res.store, res.stats


def query_slice(w: Workload, spark, index, pairs) -> dict:
    """The three modes over the throughput stream, then the latency stream."""
    full, shards, (zeta, nodes) = index
    answers, mode_s = {}, {}
    t0 = time.perf_counter()
    answers["QLSN"] = qm.answer_qlsn(spark, full, pairs)
    t1 = time.perf_counter()
    answers["QFDL"] = qm.answer_qfdl(spark, shards, pairs)
    t2 = time.perf_counter()
    answers["QDOL"], routing_s = qm.answer_qdol(spark, zeta, nodes, pairs)
    t3 = time.perf_counter()
    mode_s.update(QLSN=t1 - t0, QFDL=t2 - t1, QDOL=t3 - t2)

    lat_ns = np.empty(w.n_latency, dtype=np.int64)
    lat_ans = np.empty(w.n_latency, dtype=np.int64)
    clock = time.perf_counter_ns
    for i, (u, v) in enumerate(latency_pairs(w, pairs).tolist()):
        t0 = clock()
        lat_ans[i] = full.query(u, v)
        lat_ns[i] = clock() - t0
    return {
        "answers": answers,
        "mode_s": mode_s,
        "qdol_routing_s": routing_s,
        "latency_ns": lat_ns,
        "latency_answers": lat_ans,
    }


def run_round(w: Workload, seed: int, graph: int, spark, job_group) -> dict:
    """Run one round on graph ``graph``: its timings, outputs and engine stats.

    Each labeling call gets a fresh set-up and is followed by the query
    slices over the index built from the round's first store, so set-up,
    builds and queries are sampled across the whole round and a slow host
    phase hits every metric alike. ``job_group(name)`` tags the Spark jobs
    of the next call so the traced run can count them per engine.
    """
    r: dict = {"generate_s": [], "rank_s": [], "engine_s": {}, "stats": {}, "stores": {}}
    r["slices"], index = [], None
    for name in w.engines:
        g, rank, gen_s, rank_s = setup(w, seed, graph)
        r["generate_s"].append(gen_s)
        r["rank_s"].append(rank_s)
        job_group(name)
        t0 = time.perf_counter()
        store, stats = run_engine(name, spark, g, rank, w.q)
        r["engine_s"][name] = time.perf_counter() - t0
        r["stores"][name], r["stats"][name] = store, stats
        if index is None:
            t0 = time.perf_counter()
            index = (
                QueryIndex.from_store(store),
                qm.shard_by_hub_owner(store, rank, w.q),
                qm.qdol_indices(store, w.q),
            )
            r["index_build_s"] = time.perf_counter() - t0
            pairs = query_pairs(g.n, w, seed)
        job_group(f"query-{name}")
        for _ in range(w.slices):
            r["slices"].append(query_slice(w, spark, index, pairs))
    r["g"], r["pairs"] = g, pairs
    return r
