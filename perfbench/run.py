"""End-to-end, real-wall benchmark of the TI-BSP engine, with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tdsp-carn-serial --seed 1 --seconds 10 --trace 0

A closed loop with one client: each run makes a cold set-up in this fresh
interpreter (the calls ``tibsp run --gofs DIR`` makes), repeats the set-up in
``SETUPS - 1`` more fresh interpreters for a median, computes the oracle
answer once, runs one warm-up job and then jobs back to back for
``--seconds``, split evenly over the workload's blocks (partitionings of
the graph times queries).  Every job's output is checked exactly against
the oracle.  With ``--trace 1`` it also runs ``TRACED_JOBS`` jobs of the
first block with the engine's spans on and folds them into per-layer self
times.

It prints every metric with its unit, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  It exits 1 when any
job raised, timed out or disagreed with the oracle.  See README.md for the
workloads and for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

from coldstart import cold_setup, repartition
from fold import collect_spans, fold
from probes import ROUNDS, JobRecord, Probe
from workloads import SCALE, WORKLOADS, Workload, job_output, make_computation, oracle, outputs_equal

HERE = Path(__file__).resolve().parent
#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 2
TRACED_JOBS = 2
#: A job slower than this counts as failed.
JOB_TIMEOUT_S = 60.0
#: No job starts after this many seconds of the run, so it ends within 180 s.
RUN_BUDGET_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "timestep_p50_ms": "ms",
    "timestep_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
LAYER_UNITS = {
    "cli.import_s": "s",
    "generators.build_s": "s",
    "partition.partition_s": "s",
    "partition.edge_cut_pct": "%",
    "storage.write_s": "s",
    "storage.bytes_written": "bytes",
    "runtime.spawn_s": "s",
    "runtime.shutdown_s": "s",
    "runtime.begin_s": "s",
    "runtime.superstep_s": "s",
    "runtime.eot_s": "s",
    "runtime.rounds": "count",
    "core.driver_s": "s",
    "storage.instance_s": "s",
    "core.supersteps": "count",
    "core.remote_messages": "count",
    "core.frames": "count",
    "core.bytes_sent": "bytes",
    "storage.pack_loads": "count",
    "runtime.resends": "count",
    "storage.load_s": "s",
    "algorithms.compute_s": "s",
    "algorithms.eot_s": "s",
    "core.send_flush_s": "s",
    "runtime.ship_s": "s",
    "runtime.barrier_s": "s",
    "runtime.round_overhead_us": "us",
    "runtime.busy_skew": "ratio",
    "trace.residual_pct": "%",
    "observability.trace_overhead_pct": "%",
}
SETUP_TIMES = ("cli.import_s", "generators.build_s", "partition.partition_s", "storage.write_s")
SETUP_COUNTS = ("partition.edge_cut_pct", "storage.bytes_written")
ROUND_METRICS = {
    "begin_timestep": "runtime.begin_s",
    "run_superstep": "runtime.superstep_s",
    "end_of_timestep": "runtime.eot_s",
}


@dataclass
class Job:
    wall_s: float
    ok: bool
    error: str | None
    block: int = 0  #: which of the run's blocks it belongs to
    counts: dict = field(default_factory=dict)
    record: JobRecord | None = None
    layers: dict = field(default_factory=dict)  #: folded span metrics, traced jobs only
    self_times: dict = field(default_factory=dict)  #: traced jobs only


def _setup_samples(w: Workload, seed: int, scale: int, tmp: Path) -> list[dict]:
    """``SETUPS - 1`` cold set-ups, each in a fresh interpreter."""
    samples = []
    for i in range(SETUPS - 1):
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "coldstart.py"),
                "--workload", w.name, "--seed", str(seed),
                "--root", str(tmp / f"setup-{i}"), "--scale", str(scale),
            ],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Bench:
    def __init__(self, w: Workload, objects: dict, store: Path, query: int, expected, block: int) -> None:
        self.w = w
        self.query = query
        self.block = block
        self.template = objects["template"]
        self.collection = objects["collection"]
        self.pg = objects["pg"]
        self.store = store
        self.expected = expected

    def job(self, probe, traced: bool) -> Job:
        from repro.core import EngineConfig, run_application
        from repro.storage import GoFS

        sources = GoFS.partition_views(self.store)
        comp = make_computation(self.w, self.query)
        config = EngineConfig(executor=self.w.executor, tracing=traced)
        record = probe.new_job()
        gc.collect()
        start = time.perf_counter_ns()
        try:
            result = run_application(comp, self.pg, self.collection, config=config, sources=sources)
        except Exception as exc:  # a failed job is a data point, not the end of the run
            end = time.perf_counter_ns()
            return Job((end - start) / 1e9, False, repr(exc), self.block, record=record)
        end = time.perf_counter_ns()
        for s in sources:
            s.close()
        wall = (end - start) / 1e9
        got = job_output(self.w, result, self.template.num_vertices)
        error = None
        if not outputs_equal(self.expected, got):
            error = "output differs from the oracle"
        elif wall > JOB_TIMEOUT_S:
            error = f"job took {wall:.1f} s, over the {JOB_TIMEOUT_S} s limit"
        summary = result.metrics.summary()
        counts = {
            "core.supersteps": summary["supersteps"],
            "core.remote_messages": summary["remote_messages"],
            "core.frames": summary["frames"],
            "core.bytes_sent": summary["bytes_sent"],
            "runtime.resends": result.protocol_stats.get("resends", 0),
            "runtime.rounds": sum(record.count(name) for name in ROUNDS),
        }
        job = Job(wall, error is None, error, self.block, counts, record)
        if traced:
            counts["storage.pack_loads"] = result.trace.counters.get("gofs.packs_loaded", 0)
            spans = collect_spans(result.trace, record, start, end)
            job.layers, job.self_times = fold(spans, serial=self.w.executor == "serial")
        return job


def _check_counts(jobs: list[Job]) -> None:
    """Every exact count must repeat identically from job to job of a block."""
    refs: dict = {}
    for j in jobs:
        if not j.ok:
            continue
        ref = refs.setdefault(j.block, {})
        for k, v in j.counts.items():
            ref.setdefault(k, v)
        if any(ref[k] != v for k, v in j.counts.items()):
            j.ok, j.error = False, f"counts {j.counts} differ from {ref}"


def _e2e(setups: list[dict], timed: list[Job], attempted: int, failed: int) -> dict:
    walls = [w for j in timed for w in j.record.timestep_walls()]
    return {
        "setup_s": median(s["setup_s"] for s in setups),
        "job_s": median(j.wall_s for j in timed),
        "timestep_p50_ms": 1e3 * median(walls),
        # Every 10th timestep loads a GoFS pack, so the p90 sits on the edge
        # between plain and pack-load timesteps and flips between them; the
        # p95 lies inside the pack-load group.
        "timestep_p95_ms": 1e3 * quantiles(walls, n=20)[18],
        "peak_rss_mb": max(max(j.record.driver_rss, j.record.worker_hwm) for j in timed) / 2**20,
        "success_rate": (attempted - failed) / attempted,
    }


def _layers(setups: list[dict], timed: list[Job], traced: list[Job]) -> dict:
    out = {k: median(s[k] for s in setups) for k in SETUP_TIMES}
    out.update((k, setups[0][k]) for k in SETUP_COUNTS)
    recs = [j.record for j in timed]
    for name, metric in ROUND_METRICS.items():
        out[metric] = median(r.total(name) for r in recs)
    out["runtime.spawn_s"] = median(r.total("__init__") for r in recs)
    out["runtime.shutdown_s"] = median(r.total("shutdown") for r in recs)
    out["core.driver_s"] = median(
        j.wall_s - sum(j.record.total(n) for n in ("__init__", "shutdown", *ROUNDS))
        for j in timed
    )
    out["storage.instance_s"] = median(r.instance_s for r in recs)
    out.update(traced[0].counts)
    for metric in traced[0].layers:
        out[metric] = median(j.layers[metric] for j in traced)
    # Traced jobs belong to the first block only; compare like with like.
    out["observability.trace_overhead_pct"] = 100.0 * (
        median(j.wall_s for j in traced)
        / median(j.wall_s for j in timed if j.block == traced[0].block)
        - 1.0
    )
    return out


def _print_self_times(traced: list[Job]) -> None:
    job = traced[-1]
    print(f"self times of the last traced job ({job.wall_s:.4f} s wall), all tracks folded:")
    for key, secs in sorted(job.self_times.items(), key=lambda kv: -kv[1]):
        print(f"  {key:34s} {secs:10.4f} s")


def _print_calibration(w: Workload, layers: dict) -> None:
    from repro.runtime.cost import CostModel

    cm = CostModel()
    print(
        f"calibration ({w.executor}): measured runtime.round_overhead_us = "
        f"{layers['runtime.round_overhead_us']:.1f} us per round; "
        f"modeled CostModel defaults (simulated, not measured): "
        f"barrier_s = {cm.barrier_s * 1e6:.0f} us, "
        f"remote_per_message_s = {cm.remote_per_message_s * 1e6:.0f} us"
    )


def run(w: Workload, seed: int, seconds: float, trace: bool, scale: int, tmp: Path) -> int:
    began = time.perf_counter()
    store = tmp / "store-0"
    timings, objects = cold_setup(w, seed, store, scale)
    setups = [timings, *_setup_samples(w, seed, scale, tmp)]
    expected = [oracle(w, objects["collection"], q) for q in range(w.queries)]
    blocks = w.partitionings * w.queries

    with Probe() as probe:
        jobs = [Bench(w, objects, store, 0, expected[0], 0).job(probe, traced=False)]  # warm-up
        timed: list[Job] = []
        traced: list[Job] = []
        # The blocks share --seconds.  A partitioning is set up (untimed) just
        # before its first block, so the driver holds one at a time, as
        # tibsp run does.
        measured = 0.0
        for block in range(blocks):
            part, query = divmod(block, w.queries)
            if part and not query:
                shutil.rmtree(store)
                store = tmp / f"store-{part}"
                objects["pg"] = repartition(w, objects, seed, part, store)
            bench = Bench(w, objects, store, query, expected[query], block)
            done: list[Job] = []
            measure_from = time.perf_counter()
            while not done or (
                measured + time.perf_counter() - measure_from < seconds * (block + 1) / blocks
                and time.perf_counter() - began < RUN_BUDGET_S
            ):
                done.append(bench.job(probe, traced=False))
            measured += time.perf_counter() - measure_from
            timed += done
            if trace and block == 0:
                traced = [bench.job(probe, traced=True) for _ in range(TRACED_JOBS)]
    jobs += timed + traced
    _check_counts(jobs)
    failed = sum(not j.ok for j in jobs)

    print(f"workload {w.name} (seed {seed}, scale {scale}, {w.partitions} partitions, "
          f"{w.executor} executor): {len(setups)} set-ups, {len(timed)} timed jobs in "
          f"{blocks} blocks ({w.partitionings} partitionings x {w.queries} queries), "
          f"{len(traced)} traced jobs")
    print("timed job walls (s): " + " ".join(f"{j.wall_s:.4f}" for j in timed))
    for j in jobs:
        if not j.ok:
            print(f"FAILED job ({j.wall_s:.3f} s): {j.error}")
    ok_timed = [j for j in timed if j.ok]
    ok_traced = [j for j in traced if j.ok]
    metrics: dict = {}
    if ok_timed and trace and ok_traced:
        metrics = _layers(setups, ok_timed, ok_traced)
        _print_self_times(ok_traced)
        _print_calibration(w, metrics)
    elif ok_timed and not trace:
        metrics = _e2e(setups, ok_timed, len(jobs), failed)
    units = LAYER_UNITS if trace else E2E_UNITS
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="dataset and partitioner seed")
    ap.add_argument("--seconds", type=float, required=True, help="how long the timed jobs run")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=int, default=SCALE, help="template vertices (smaller for quick checks)")
    args = ap.parse_args(argv)
    tmp = HERE.parent / ".perfbench_tmp" / f"run-{os.getpid()}"
    try:
        return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.scale, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
