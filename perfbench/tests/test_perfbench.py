"""Tests of the benchmark itself: the oracle gate, count checks and span folding.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fold  # noqa: E402
import run  # noqa: E402
from probes import Call, JobRecord  # noqa: E402

SMALL = ["--seed", "3", "--seconds", "0.5", "--scale", "3000"]


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_small_run_is_correct(workload, capsys):
    assert run.main(["--workload", workload, "--trace", "1", *SMALL]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.LAYER_UNITS)


def test_corrupted_output_fails_the_run(monkeypatch, capsys):
    real = run.job_output

    def corrupted(w, result, num_vertices):
        labels = real(w, result, num_vertices).copy()
        labels[0] += 1.0  # the source's label, 0 in every correct answer
        return labels

    monkeypatch.setattr(run, "job_output", corrupted)
    assert run.main(["--workload", "tdsp-carn-serial", "--trace", "0", *SMALL]) != 0
    result = _last_json(capsys.readouterr().out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_metrics_and_workloads_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_differing_counts_fail_the_job():
    jobs = [run.Job(1.0, True, None, counts={"core.frames": 5}) for _ in range(3)]
    jobs[2].counts["core.frames"] = 6
    run._check_counts(jobs)
    assert [j.ok for j in jobs] == [True, True, False]


def test_counts_are_compared_within_a_block():
    jobs = [run.Job(1.0, True, None, block, {"core.frames": 5 + block}) for block in (0, 1, 1)]
    run._check_counts(jobs)
    assert all(j.ok for j in jobs)


def test_timestep_walls_run_from_begin_to_begin_then_to_the_next_phase():
    rec = JobRecord(calls=[
        Call("__init__", 0, 10),
        Call("begin_timestep", 10, 20),
        Call("run_superstep", 20, 40),
        Call("end_of_timestep", 40, 50),
        Call("begin_timestep", 60, 70),
        Call("end_of_timestep", 70, 80),
        Call("run_merge_superstep", 90, 95),
        Call("shutdown", 100, 110),
    ])
    assert rec.timestep_walls() == [50e-9, 30e-9]


def _span(track, name, start, end):
    return fold.Interval(track, name, start, end)


def test_fold_self_times_residual_and_round_overhead():
    spans = [
        _span(0, "job", 0, 1000),
        _span(0, "cluster.run_superstep", 100, 600),
        _span(0, "barrier", 200, 600),
        _span(1, "compute", 150, 450),
        _span(2, "compute", 150, 350),
        _span(1, "send_flush", 450, 500),
        _span(0, "begin_timestep", 700, 800),  # the engine's span, not a round
        _span(0, "cluster.begin_timestep", 710, 790),
        _span(1, "load", 720, 780),
    ]
    out, self_times = fold.fold(spans, serial=False)
    assert self_times["driver:cluster.run_superstep"] == pytest.approx(100e-9)
    assert out["runtime.barrier_s"] == pytest.approx(400e-9)
    assert out["algorithms.compute_s"] == pytest.approx(500e-9)
    assert out["storage.load_s"] == pytest.approx(60e-9)
    # Only [100, 600) and [700, 800) are covered by spans.
    assert out["trace.residual_pct"] == pytest.approx(40.0)
    # Rounds of 500 ns and 80 ns; their busiest hosts are busy 350 ns and 60 ns.
    assert out["runtime.round_overhead_us"] == pytest.approx((150 + 20) / 2 / 1e3)
    assert out["runtime.busy_skew"] == pytest.approx(410 / 305)


def test_fold_serial_nests_host_spans_inside_the_driver_call():
    spans = [
        _span(0, "job", 0, 100),
        _span(0, "cluster.run_superstep", 0, 100),
        _span(1, "compute", 10, 40),
        _span(2, "compute", 50, 90),
    ]
    out, self_times = fold.fold(spans, serial=True)
    assert self_times["driver:cluster.run_superstep"] == pytest.approx(30e-9)
    # Serial hosts run one after the other, so the round waits for both.
    assert out["runtime.round_overhead_us"] == pytest.approx(0.030)
