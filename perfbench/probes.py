"""Outside timers on the runtime and storage layers' public methods.

:class:`Probe` wraps every method of the ``Cluster`` interface on ``Cluster``
and each of its subclasses that exist when it is installed, plus
``GoFSPartitionView.instance``, so the benchmark times the layers without a
line of instrumentation inside ``src/``.  A transport refactor that renames
or merges cluster classes keeps the same metrics, because the wrapped set is
discovered, not listed.

Only the outermost call is recorded: a subclass method calling ``super()``
is one call.  The engine drives its cluster from one thread, so a plain
depth counter is enough.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from dataclasses import dataclass, field

#: Cluster methods that are one protocol round.
ROUNDS = ("begin_timestep", "run_superstep", "end_of_timestep", "run_merge_superstep")
#: Calls the engine makes inside a timestep, between two ``begin_timestep``.
IN_TIMESTEP = frozenset({"run_superstep", "end_of_timestep", "prefetch", "resident_bytes"})

_PAGE = os.sysconf("SC_PAGE_SIZE")


@dataclass
class Call:
    name: str  #: ``__init__`` is the cluster spawn
    start_ns: int
    end_ns: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class JobRecord:
    """What the probe saw during one job."""

    calls: list[Call] = field(default_factory=list)
    instance_s: float = 0.0  #: ``GoFSPartitionView.instance`` in this process
    driver_rss: int = 0  #: largest sampled driver RSS, bytes
    worker_hwm: int = 0  #: largest worker peak RSS, bytes

    def total(self, name: str) -> float:
        return sum(c.seconds for c in self.calls if c.name == name)

    def count(self, name: str) -> int:
        return sum(1 for c in self.calls if c.name == name)

    def timestep_walls(self) -> list[float]:
        """Seconds from each ``begin_timestep`` to the next timestep's, or to
        the first call after the last timestep (merge, states, shutdown)."""
        walls = []
        calls = sorted(self.calls, key=lambda c: c.start_ns)
        for i, c in enumerate(calls):
            if c.name != "begin_timestep":
                continue
            nxt = next((d for d in calls[i + 1 :] if d.name not in IN_TIMESTEP), None)
            if nxt is not None:
                walls.append((nxt.start_ns - c.start_ns) / 1e9)
        return walls


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


def _peak_rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _cluster_classes() -> list[type]:
    import repro.runtime  # noqa: F401  (defines every shipped subclass)
    from repro.runtime.cluster import Cluster

    found, todo = [], [Cluster]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Probe:
    """Install with ``with Probe() as probe:``; read ``probe.job`` per job."""

    def __init__(self) -> None:
        self.job = JobRecord()
        self._depth = 0
        self._saved: list[tuple[type, str, object]] = []

    def new_job(self) -> JobRecord:
        self.job = JobRecord()
        return self.job

    def __enter__(self) -> "Probe":
        from repro.runtime.cluster import Cluster
        from repro.storage.gofs import GoFSPartitionView

        methods = [n for n, v in vars(Cluster).items() if callable(v) and not n.startswith("_")]
        for cls in _cluster_classes():
            for name in ["__init__", *methods]:
                if name in vars(cls):
                    self._patch(cls, name, self._timed(name, vars(cls)[name]))
        self._patch(GoFSPartitionView, "instance", self._instance(GoFSPartitionView.instance))
        return self

    def __exit__(self, *exc: object) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()

    def _patch(self, cls: type, name: str, wrapper) -> None:
        self._saved.append((cls, name, vars(cls)[name]))
        setattr(cls, name, wrapper)

    def _timed(self, name: str, fn):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe._depth:
                return fn(*args, **kwargs)
            job = probe.job
            if name == "shutdown":
                for child in multiprocessing.active_children():
                    job.worker_hwm = max(job.worker_hwm, _peak_rss_bytes(child.pid))
            probe._depth += 1
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                probe._depth -= 1
                job.calls.append(Call(name, start, end))
                if name in ROUNDS:
                    job.driver_rss = max(job.driver_rss, _rss_bytes())

        return wrapper

    def _instance(self, fn):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.job.instance_s += time.perf_counter() - start

        return wrapper
