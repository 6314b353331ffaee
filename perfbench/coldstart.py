"""One cold set-up: the calls ``tibsp run --gofs DIR`` makes before its job.

``import repro.cli`` → ``paper_datasets`` → ``partition_graph`` →
``GoFS.write_collection``, each timed from outside.  ``run.py`` calls
:func:`cold_setup` in its own fresh interpreter for the set-up its jobs use,
and runs this file as a script for further set-up samples::

    python3 perfbench/coldstart.py --workload tdsp-carn-serial --seed 1 --root DIR

which prints the timings as one JSON line and deletes ``DIR`` afterwards.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from workloads import INSTANCES, SCALE, WORKLOADS, Workload

SRC = Path(__file__).resolve().parents[1] / "src"


def _store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def cold_setup(w: Workload, seed: int, root: Path, scale: int = SCALE) -> tuple[dict, dict]:
    """Run and time one set-up; return ``(timings, objects)``.

    Only meaningful as the first ``repro`` import of the interpreter: the
    import time is the cold one only then.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the import users pay on every run)

    t1 = time.perf_counter()
    from repro.generators import paper_datasets
    from repro.partition import MetisLikePartitioner, compute_stats, partition_graph
    from repro.storage import GoFS

    data = paper_datasets(scale, INSTANCES, seed=seed)[w.graph]
    template, collection = data["template"], data[w.collection]
    t2 = time.perf_counter()
    pg = partition_graph(template, w.partitions, MetisLikePartitioner(seed=seed))
    t3 = time.perf_counter()
    GoFS.write_collection(root, pg, collection)
    t4 = time.perf_counter()
    timings = {
        "setup_s": t4 - t0,
        "cli.import_s": t1 - t0,
        "generators.build_s": t2 - t1,
        "partition.partition_s": t3 - t2,
        "storage.write_s": t4 - t3,
        "storage.bytes_written": _store_bytes(root),
        "partition.edge_cut_pct": compute_stats(pg).edge_cut_percent,
    }
    objects = {"template": template, "collection": collection, "pg": pg}
    return timings, objects


def repartition(w: Workload, objects: dict, seed: int, i: int, root: Path):
    """The run's ``i``-th further partitioning, written to ``root`` (not timed).

    Its partitioner seed is drawn from ``(seed, i)``; partitioning 0 is the
    one :func:`cold_setup` made with ``seed`` itself, as ``tibsp run`` would.
    """
    import numpy as np
    from repro.partition import MetisLikePartitioner, partition_graph
    from repro.storage import GoFS

    part_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
    pg = partition_graph(objects["template"], w.partitions, MetisLikePartitioner(seed=part_seed))
    GoFS.write_collection(root, pg, objects["collection"])
    return pg


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True, help="store directory (deleted on exit)")
    ap.add_argument("--scale", type=int, default=SCALE)
    args = ap.parse_args(argv)
    root = Path(args.root)
    try:
        timings, _objects = cold_setup(WORKLOADS[args.workload], args.seed, root, args.scale)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    sys.exit(main())
