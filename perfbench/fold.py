"""Fold one traced job's spans into per-layer self times.

Inputs are the engine's own spans (``RunTrace.spans``: the driver track and
one track per host) plus the probe's outside spans around every cluster call
and around the job itself, all on the ``perf_counter_ns`` clock.  A span's
self time is its duration minus the part its children cover.  Children are
found by time containment on the same track; on the serial executor the
hosts run inside the driver's thread, so all tracks share one timeline there.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from probes import ROUNDS, JobRecord

DRIVER = 0

#: (track kind, span name) -> per-layer metric.
LAYER_SPANS = {
    ("host", "load"): "storage.load_s",
    ("host", "compute"): "algorithms.compute_s",
    ("host", "end_of_timestep"): "algorithms.eot_s",
    ("host", "send_flush"): "core.send_flush_s",
    ("driver", "ship"): "runtime.ship_s",
    ("driver", "barrier"): "runtime.barrier_s",
}


@dataclass
class Interval:
    track: int  #: 0 is the driver, p + 1 is partition p's host
    name: str
    start: int
    end: int
    self_ns: int = 0

    @property
    def kind(self) -> str:
        return "driver" if self.track == DRIVER else "host"


def union_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _assign_self(spans: list[Interval]) -> None:
    """Set ``self_ns`` for spans that nest by time containment."""
    stack: list[Interval] = []
    for sp in sorted(spans, key=lambda x: (x.start, -x.end)):
        sp.self_ns = sp.end - sp.start
        while stack and stack[-1].end <= sp.start:
            stack.pop()
        if stack:
            parent = stack[-1]
            parent.self_ns -= min(sp.end, parent.end) - sp.start
        stack.append(sp)


def collect_spans(trace, job: JobRecord, job_start: int, job_end: int) -> list[Interval]:
    spans = [Interval(pid, sp.name, sp.ts_ns, sp.ts_ns + sp.dur_ns) for pid, sp in trace.spans]
    spans += [Interval(DRIVER, f"cluster.{c.name}", c.start_ns, c.end_ns) for c in job.calls]
    spans.append(Interval(DRIVER, "job", job_start, job_end))
    return spans


def fold(spans: list[Interval], serial: bool) -> tuple[dict, dict]:
    """A job's per-layer metrics (self times, residual, round overhead, busy
    skew) and the self time of every ``track kind:span name``."""
    if serial:
        _assign_self(spans)
    else:
        for track in {sp.track for sp in spans}:
            _assign_self([sp for sp in spans if sp.track == track])
    job = next(sp for sp in spans if sp.name == "job" and sp.track == DRIVER)
    wall = job.end - job.start

    self_times: dict[str, float] = {}
    for sp in spans:
        key = f"{sp.kind}:{sp.name}"
        self_times[key] = self_times.get(key, 0.0) + sp.self_ns / 1e9
    out = {metric: self_times.get(f"{kind}:{name}", 0.0) for (kind, name), metric in LAYER_SPANS.items()}

    covered = union_ns([(sp.start, sp.end) for sp in spans if sp is not job])
    out["trace.residual_pct"] = 100.0 * (wall - covered) / wall

    hosts = sorted({sp.track for sp in spans if sp.track != DRIVER})
    busy = {h: union_ns([(sp.start, sp.end) for sp in spans if sp.track == h]) for h in hosts}
    mean_busy = sum(busy.values()) / len(busy) if busy else 0.0
    out["runtime.busy_skew"] = max(busy.values()) / mean_busy if mean_busy else 0.0

    overheads = []
    round_names = {f"cluster.{name}" for name in ROUNDS}
    rounds = [sp for sp in spans if sp.track == DRIVER and sp.name in round_names]
    host_spans = sorted((sp for sp in spans if sp.track != DRIVER), key=lambda sp: sp.start)
    starts = [sp.start for sp in host_spans]
    for r in rounds:
        inside = host_spans[bisect_left(starts, r.start) : bisect_left(starts, r.end)]
        per_host = [
            union_ns([(sp.start, sp.end) for sp in inside if sp.track == h]) for h in hosts
        ]
        # Serial hosts run one after another; otherwise the busiest one gates the round.
        critical = sum(per_host) if serial else max(per_host, default=0)
        overheads.append(r.end - r.start - critical)
    out["runtime.round_overhead_us"] = sum(overheads) / len(overheads) / 1e3 if overheads else 0.0
    return out, self_times
