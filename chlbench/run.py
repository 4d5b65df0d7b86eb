"""Benchmark of the CHL build and query paths, run from the repository root:

    python3 chlbench/run.py --workload road-serve --seed 0 --seconds 20 --trace 0

A run sets up its inputs from ``--seed``, makes one untimed warm-up labeling
call, then repeats whole rounds (see workloads.py) until ``--seconds`` have
passed. Every round is checked against the independent checker. The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` operations (one labeling call or one query answered) and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``. The line before it carries the run's context (inputs, round
count, git sha, nproc, versions). README.md documents every metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("road-serve", "weak-build", "dist-scalefree")
ENGINES = ("seq_pll", "gll", "plant_dist", "hybrid")
MODES = ("QLSN", "QFDL", "QDOL")

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "query_qps": "1/s",
    "query_p50_us": "us",
    "query_p95_us": "us",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {
        "graphs.generate_s": "s",
        "graphs.rank_s": "s",
        "dijkstra.prune_trees": "count",
        "dijkstra.prune_s": "s",
        "dijkstra.prune_labels_per_s": "1/s",
        "plant.trees": "count",
        "plant.s": "s",
        "plant.settles_per_s": "1/s",
        "plant.psi": "ratio",
        "labels.commit_calls": "count",
        "labels.commit_s": "s",
        "labels.commit_labels_per_s": "1/s",
        "labels.delete_s": "s",
        "labels.deleted": "count",
        "clean.candidates": "count",
        "clean.dq_clean_s": "s",
        "clean.redundant_ratio": "ratio",
        "spark.start_s": "s",
        "spark.jobs": "count",
        "spark.tasks": "count",
    }
    for name in ENGINES + ("query",):
        units[f"spark.{name}_jobs"] = "count"
        units[f"spark.{name}_tasks"] = "count"
    units.update(
        {
            "cluster.supersteps": "count",
            "cluster.superstep_s": "s",
            "cluster.collect_store_s": "s",
            "parallel.build_trees_s": "s",
            "cluster.work_makespan_s": "s",
            "cluster.wall_over_makespan": "ratio",
            "cluster.comm_bytes": "bytes",
        }
    )
    for name in ENGINES:
        units[f"engine.{name}_s"] = "s"
        units[f"engine.{name}_als"] = "labels"
    units.update(
        {
            "query.index_build_s": "s",
            "query.qlsn_qps": "1/s",
            "query.qfdl_qps": "1/s",
            "query.qdol_qps": "1/s",
            "query.qdol_routing_s": "s",
            "query.latency_p99_us": "us",
            "trace.overhead_s": "s",
            "trace.overhead_share": "ratio",
        }
    )
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0, help="input seed, >= 0")
    p.add_argument("--seconds", type=float, default=20.0, help="timed rounds last this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def git_sha() -> str:
    """The checkout's commit from ``.git`` if there is one, else ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------------- #
# Spark session owned by the benchmark.
# --------------------------------------------------------------------- #
def start_spark(nproc: int, tmp: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{nproc}]")
        .appName("chlbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.memory", "2g")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # The default 3 s locality wait stalls task launch and made whole
        # DGLL runs swing by up to 1.8x; with 0 every slot is used at once.
        .config("spark.locality.wait", "0")
        .config("spark.local.dir", str(tmp))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp}")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on end of its standard input
        proc.wait(timeout=60)


def spark_counts(spark, groups: dict[str, str]) -> dict[str, tuple[int, int]]:
    """(jobs, tasks) launched under each engine's job group."""
    tracker = spark.sparkContext.statusTracker()
    out = {}
    for name, gid in groups.items():
        jobs = tracker.getJobIdsForGroup(gid)
        tasks = 0
        for j in jobs:
            info = tracker.getJobInfo(j)
            for sid in info.stageIds if info else ():
                stage = tracker.getStageInfo(sid)
                tasks += stage.numTasks if stage else 0
        out[name] = (len(jobs), tasks)
    return out


# --------------------------------------------------------------------- #
# Checks and per-round figures.
# --------------------------------------------------------------------- #
def label_digest(store) -> str:
    """SHA-256 of the sorted label triplets: the labeling's identity.

    Kept in place of the label set itself, so that the sets remembered for
    each graph do not make peak RSS depend on how many rounds a run makes.
    """
    triplets = np.array(sorted(store.triplets()), dtype=np.int64)
    return hashlib.sha256(triplets.tobytes()).hexdigest()


def check_round(r: dict, ref, state: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one round.

    A labeling call fails if a sampled vertex's labels differ from the
    checker's or its label set differs from the run's first correct one on
    the same graph (CHL is unique, so every engine and every round on that
    graph must agree). A query
    fails if it differs from the checker's Dijkstra distance on a sampled
    pair, or if the three modes disagree on its pair.
    """
    attempted = failed = 0
    for store in r["stores"].values():
        attempted += 1
        labels = label_digest(store)
        ok = not ref.bad_vertices(store)
        if ok and state.get("labels") is None:
            state["labels"] = labels
        failed += not (ok and labels == state.get("labels"))
    k = len(ref.truth)
    for sl in r["slices"]:
        a, lat = sl["answers"], sl["latency_answers"]
        disagree = (a["QLSN"] != a["QFDL"]) | (a["QLSN"] != a["QDOL"])
        lat_base = lat != a["QLSN"][np.arange(len(lat)) % len(a["QLSN"])]
        for ans, base in [(a[m], disagree) for m in MODES] + [(lat, lat_base)]:
            bad = base.copy()
            bad[:k] |= ref.bad_answers(ans)
            attempted += len(ans)
            failed += int(bad.sum())
    return attempted, failed


def window_percentiles(r: dict, pct: float) -> list[float]:
    """Each latency window's ``pct`` percentile over a round's slices, in us.

    Windows are ``LATENCY_WINDOW`` consecutive queries of one slice. Within
    a window the percentile ignores short stalls; the metrics then take the
    mean over windows, which weighs the host's fast and slow phases by their
    share of the run, where a median would jump from one phase's figure to
    the other's.
    """
    from workloads import LATENCY_WINDOW

    return [
        float(np.percentile(sl["latency_ns"][i : i + LATENCY_WINDOW], pct)) / 1000.0
        for sl in r["slices"]
        for i in range(0, len(sl["latency_ns"]), LATENCY_WINDOW)
    ]


def round_build_s(r: dict) -> float:
    return sum(r["engine_s"].values()) + r["index_build_s"]


def stream_size(r: dict) -> tuple[int, float]:
    """(queries answered, seconds taken) by the three modes over a round's slices."""
    answered = sum(len(a) for sl in r["slices"] for a in sl["answers"].values())
    return answered, sum(t for sl in r["slices"] for t in sl["mode_s"].values())


def layer_figures(r: dict, tr, counts: dict, spark_start_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    calls, secs, cnt = tr.calls, tr.seconds, tr.counts
    stats, engine_s = r["stats"], r["engine_s"]
    m = {
        "graphs.generate_s": statistics.median(r["generate_s"]),
        "graphs.rank_s": statistics.median(r["rank_s"]),
        "dijkstra.prune_trees": calls["dijkstra"],
        "dijkstra.prune_s": secs["dijkstra"],
        "dijkstra.prune_labels_per_s": ratio(cnt["dijkstra.labels"], secs["dijkstra"]),
    }
    if counts and "plant_dist" in stats:
        # Executor-side trees: figures from the engine's own stats.
        st = stats["plant_dist"]
        trees, plant_s = r["g"].n, st["work_total_s"]
        settles, labels = st["explored_total"], st["labels_total"]
    else:
        trees, plant_s = calls["plant"], secs["plant"]
        settles, labels = cnt["plant.settles"], cnt["plant.labels"]
    m.update(
        {
            "plant.trees": trees,
            "plant.s": plant_s,
            "plant.settles_per_s": ratio(settles, plant_s),
            "plant.psi": ratio(settles, labels),
            "labels.commit_calls": calls["commit"],
            "labels.commit_s": secs["commit"],
            "labels.commit_labels_per_s": ratio(cnt["commit.labels"], secs["commit"]),
            "labels.delete_s": secs["delete"],
            "labels.deleted": cnt["delete.labels"],
            "clean.candidates": calls["clean"],
            "clean.dq_clean_s": secs["clean"],
            "clean.redundant_ratio": ratio(cnt["clean.redundant"], calls["clean"]),
            "spark.start_s": spark_start_s,
            "spark.jobs": sum(j for j, _ in counts.values()),
            "spark.tasks": sum(t for _, t in counts.values()),
        }
    )
    for name in ENGINES + ("query",):
        jobs = sum(j for g, (j, _) in counts.items() if g.split("-")[0] == name)
        tasks = sum(t for g, (_, t) in counts.items() if g.split("-")[0] == name)
        m[f"spark.{name}_jobs"], m[f"spark.{name}_tasks"] = jobs, tasks
    dist = [n for n in ("plant_dist", "hybrid") if n in stats]
    makespan = sum(stats[n]["work_makespan_s"] for n in dist)
    m.update(
        {
            "cluster.supersteps": calls["superstep"],
            "cluster.superstep_s": secs["superstep"],
            "cluster.collect_store_s": secs["collect_store"],
            "parallel.build_trees_s": secs["build_trees"],
            "cluster.work_makespan_s": makespan,
            "cluster.wall_over_makespan": ratio(sum(engine_s[n] for n in dist), makespan),
            "cluster.comm_bytes": sum(stats[n]["comm"]["total_bytes"] for n in dist),
        }
    )
    for name in ENGINES:
        m[f"engine.{name}_s"] = engine_s.get(name, 0.0)
        m[f"engine.{name}_als"] = stats[name]["als"] if name in stats else 0.0

    def per_slice(fn):
        return statistics.median(fn(sl) for sl in r["slices"])

    n_pairs = len(r["pairs"])
    m.update(
        {
            "query.index_build_s": r["index_build_s"],
            "query.qlsn_qps": per_slice(lambda sl: n_pairs / sl["mode_s"]["QLSN"]),
            "query.qfdl_qps": per_slice(lambda sl: n_pairs / sl["mode_s"]["QFDL"]),
            "query.qdol_qps": per_slice(lambda sl: n_pairs / sl["mode_s"]["QDOL"]),
            "query.qdol_routing_s": per_slice(lambda sl: sl["qdol_routing_s"]),
            "query.latency_p99_us": statistics.fmean(window_percentiles(r, 99)),
        }
    )
    return m


# --------------------------------------------------------------------- #
# The run.
# --------------------------------------------------------------------- #
def measure(name: str, seed: int, seconds: float, trace: bool, spark, spark_start_s: float):
    import checker
    import workloads
    from tracer import Tracer

    w = workloads.WORKLOADS[name]
    graphs = [workloads.setup(w, seed, k) for k in range(w.graphs)]
    setup_samples = [gen_s + rank_s for _, _, gen_s, rank_s in graphs]
    g, rank = graphs[0][:2]
    pairs = workloads.query_pairs(g.n, w, seed)
    refs = [checker.Reference(gk, rk, pairs, workloads.CHECK_PAIRS) for gk, rk, _, _ in graphs]
    del graphs  # each round generates its graph afresh
    workloads.run_engine(w.engines[0], spark, g, rank, w.q)  # untimed warm-up

    states: list[dict] = [{} for _ in refs]  # per graph: its first correct labeling
    rounds = 0
    summaries: list[dict] = []  # per round: traced flag + figures
    groups: dict[str, str] = {}  # Spark job group of each call in this round

    def job_group(engine: str) -> None:
        if spark is not None:
            gid = f"r{len(summaries)}-{engine}"
            spark.sparkContext.setJobGroup(gid, engine)
            groups[engine] = gid

    attempted = failed = 0
    t_start = time.perf_counter()
    while not summaries or time.perf_counter() - t_start < seconds:
        k, rounds = rounds % w.graphs, rounds + 1
        for traced in (False, True) if trace else (False,):
            tr = Tracer() if traced else None
            groups.clear()
            if tr is not None:
                tr.install(spark is not None)
            try:
                r = workloads.run_round(w, seed, k, spark, job_group)
            finally:
                if tr is not None:
                    tr.restore()
            a, f = check_round(r, refs[k], states[k])
            attempted, failed = attempted + a, failed + f
            s = {"traced": traced, "build_s": round_build_s(r)}
            if traced:
                counts = spark_counts(spark, groups) if spark is not None else {}
                s["layers"] = layer_figures(r, tr, counts, spark_start_s)
            else:
                setup_samples += [x + y for x, y in zip(r["generate_s"], r["rank_s"])]
                s["queries"] = stream_size(r)
                s["p50"], s["p95"] = window_percentiles(r, 50), window_percentiles(r, 95)
            summaries.append(s)
            als = r["stats"][w.engines[0]]["als"]
            del r  # keep one round's stores alive at a time

    plain = [s for s in summaries if not s["traced"]]
    if trace:
        traced = [s for s in summaries if s["traced"]]
        keys = traced[0]["layers"]
        metrics = {k: statistics.median(s["layers"][k] for s in traced) for k in keys}
        base = statistics.median(s["build_s"] for s in plain)
        over = statistics.median(s["build_s"] for s in traced) - base
        metrics.update({"trace.overhead_s": over, "trace.overhead_share": over / base})
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            # A mean, so every graph the rounds cycle over counts alike.
            "build_s": statistics.fmean(s["build_s"] for s in plain),
            "query_qps": sum(s["queries"][0] for s in plain)
            / sum(s["queries"][1] for s in plain),
            "query_p50_us": statistics.fmean(x for s in plain for x in s["p50"]),
            "query_p95_us": statistics.fmean(x for s in plain for x in s["p95"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    info = {
        "workload": name,
        "seed": seed,
        "dataset": w.dataset,
        "scale": w.scale,
        "n": g.n,
        "m": g.m,
        "als": als,
        "graphs": w.graphs,
        "queries_per_round": len(w.engines) * w.slices * (3 * w.n_pairs + w.n_latency),
        "rounds": len(plain),
        "traced_rounds": len(summaries) - len(plain),
        "setup_samples": len(setup_samples),
        "latency_samples": len(plain) * len(w.engines) * w.slices * w.n_latency,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"chlbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Spark's Python workers import the program from the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # Spark, the JVM and pyspark write scratch files here, inside the checkout.
    tmp = ROOT / ".chlbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    tempfile.tempdir = str(tmp)

    import workloads

    nproc = len(os.sched_getaffinity(0))
    spark, spark_start_s = None, 0.0
    try:
        if workloads.WORKLOADS[args.workload].spark:
            t0 = time.perf_counter()
            spark = start_spark(nproc, tmp)
            spark_start_s = time.perf_counter() - t0
        info, result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), spark, spark_start_s
        )
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    import pyspark

    info.update(
        git_sha=git_sha(),
        nproc=nproc,
        python=platform.python_version(),
        numpy=np.__version__,
        pyspark=pyspark.__version__,
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
