"""The benchmark's workloads: what each job runs and how its output is checked.

Nothing here imports ``repro`` at module level: ``run.py`` times the cold
``import repro.cli`` itself, so this module must not import it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Template vertices and graph instances of every workload.
SCALE = 200_000
INSTANCES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  #: ``paper_datasets`` key: CARN (road) or WIKI (small world)
    collection: str  #: ``road`` latencies or SIR ``tweets``
    algorithm: str  #: tdsp or meme, as ``tibsp run`` names them
    partitions: int
    executor: str
    #: A run measures ``partitionings`` METIS-like partitionings of the graph
    #: and, on each, queries 0 .. ``queries - 1`` (the TDSP source vertex or
    #: the tracked meme), in blocks that share ``--seconds``.  TDSP's superstep
    #: count swings by up to a fifth with the partitioner seed alone, and MEME's
    #: per-timestep work with the size of the one meme's SIR epidemic; with a
    #: single block per run, the spread between seeds is mostly which
    #: partitioning or epidemic the seed happened to draw.
    partitionings: int
    queries: int
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tdsp-carn-serial", "CARN", "road", "tdsp", 6, "serial", 3, 1,
            "sequentially dependent TDSP on a low-cut road graph, inline transport: "
            "storage, instance materialization and end-of-timestep dominate",
        ),
        Workload(
            "meme-wiki-socket", "WIKI", "tweets", "meme", 2, "socket", 1, 3,
            "meme BFS on a high-cut small-world graph over local TCP: "
            "remote frames, scatter/gather rounds and barriers dominate",
        ),
    )
}


def make_computation(w: Workload, query: int) -> Any:
    """The computation ``tibsp run <algorithm>`` builds, with its defaults
    but for the source vertex or meme."""
    from repro.algorithms import MemeTrackingComputation, TDSPComputation

    if w.algorithm == "tdsp":
        return TDSPComputation(source=query, halt_when_stalled=True)
    return MemeTrackingComputation(meme=query)


def oracle(w: Workload, collection, query: int) -> Any:
    """The centralized reference answer from ``repro.algorithms.reference``."""
    from repro.algorithms.reference import temporal_meme_bfs, time_expanded_dijkstra

    if w.algorithm == "tdsp":
        return time_expanded_dijkstra(collection, query)
    return temporal_meme_bfs(collection, query)


def job_output(w: Workload, result, num_vertices: int) -> Any:
    """The job's answer, in the oracle's shape."""
    from repro.algorithms import colored_timesteps_from_result, tdsp_labels_from_result

    if w.algorithm == "tdsp":
        return tdsp_labels_from_result(result, num_vertices)
    return colored_timesteps_from_result(result)


def outputs_equal(expected: Any, got: Any) -> bool:
    """Exact equality: same dtype, shape and bytes for arrays, ``==`` otherwise."""
    import numpy as np

    if isinstance(expected, np.ndarray):
        got = np.asarray(got)
        return (
            expected.dtype == got.dtype
            and expected.shape == got.shape
            and expected.tobytes() == got.tobytes()
        )
    return expected == got
