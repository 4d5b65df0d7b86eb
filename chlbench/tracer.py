"""Layer tracing from outside the program: wrap named public functions.

``Tracer.install`` replaces module or class attributes with wrappers that
add the call's wall time and count under a layer key, and ``restore`` puts
the originals back. Only the driver process is traced: Spark executors
import their own, unwrapped copies of every module, which is why the
distributed workload wraps driver-side calls only (``SPARK_SAFE``) and
takes executor-side kernel figures from each engine's returned stats.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute path, layer key, what to count from (args, result)).
# A kernel is wrapped under every name its callers import it by.
KERNELS = [
    ("repro.core.pll", "prune_dij_rq", "dijkstra", lambda a, r: {"labels": len(r)}),
    ("repro.core.parallel", "prune_dij_rq", "dijkstra", lambda a, r: {"labels": len(r)}),
    ("repro.dist.engine", "prune_dij_rq", "dijkstra", lambda a, r: {"labels": len(r)}),
    (
        "repro.dist.engine",
        "plant_dijkstra",
        "plant",
        lambda a, r: {"labels": len(r[0]), "settles": r[1]},
    ),
    ("repro.core.parallel", "dq_clean", "clean", lambda a, r: {"redundant": int(r)}),
    ("repro.dist.engine", "dq_clean", "clean", lambda a, r: {"redundant": int(r)}),
]
SPARK_SAFE = [
    ("repro.core.labels", "LabelStore.commit", "commit", lambda a, r: {"labels": len(a[1])}),
    ("repro.core.labels", "LabelStore.delete", "delete", lambda a, r: {"labels": r}),
    ("repro.dist.cluster", "SimCluster.superstep", "superstep", None),
    ("repro.dist.plant_dist", "collect_store", "collect_store", None),
    ("repro.dist.hybrid", "collect_store", "collect_store", None),
    ("repro.core.gll", "build_trees", "build_trees", None),
]


class Tracer:
    """Per-key call counts, seconds and extra counters for one round."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list = []

    def install(self, spark: bool) -> None:
        for mod, path, key, count in SPARK_SAFE + ([] if spark else KERNELS):
            owner = importlib.import_module(mod)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, key, count))
            self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, orig, key: str, count):
        calls, seconds, counts = self.calls, self.seconds, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            out = orig(*args, **kwargs)
            seconds[key] += clock() - t0
            calls[key] += 1
            if count is not None:
                for k, v in count(args, out).items():
                    counts[f"{key}.{k}"] += v
            return out

        return traced
