#!/usr/bin/env python
"""Quickstart: build a time-series graph, partition it, run TDSP.

Walks through the whole public API in ~40 lines of real code:

1. build a graph *template* (the time-invariant topology + attribute schema);
2. attach a *collection* of instances (time-variant attribute values);
3. partition the template into subgraphs (one partition per simulated host);
4. run the paper's Time-Dependent Shortest Path as a TI-BSP application;
5. read results and runtime metrics.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    GraphTemplateBuilder,
    TDSPComputation,
    build_collection,
    partition_graph,
    run_application,
)
from repro.algorithms import tdsp_labels_from_result


def main() -> None:
    # 1. A small road network: 12 intersections around two city blocks.
    builder = GraphTemplateBuilder(name="two-blocks").edge_attribute("latency", "float")
    for name in "ABCDEFGHIJKL":
        builder.add_vertex(name)
    roads = [
        "AB", "BC", "CD", "AE", "BF", "CG", "DH",
        "EF", "FG", "GH", "EI", "FJ", "GK", "HL", "IJ", "JK", "KL",
    ]
    for a, b in roads:
        builder.add_edge(a, b)
    template = builder.build()

    # 2. Six instances, 5 minutes apart: travel times vary with "traffic".
    def rush_hour(instance, timestep):
        rng = np.random.default_rng(100 + timestep)
        base = rng.uniform(1.0, 3.0, template.num_edges)
        congestion = 1.0 + 2.0 * np.sin(np.pi * timestep / 5)  # builds then eases
        instance.edge_table.set_column("latency", base * congestion)

    collection = build_collection(template, 6, rush_hour, delta=5.0)

    # 3. Partition into 3 hosts (METIS-like multilevel partitioner by default).
    pg = partition_graph(template, 3)
    print(f"partitioned {template.name!r} into {pg.num_partitions} partitions, "
          f"{pg.num_subgraphs} subgraphs")

    # 4. Earliest arrival everywhere, departing vertex A at t=0.
    source = builder.vertex_index("A")
    result = run_application(TDSPComputation(source), pg, collection)

    # 5. Results + metrics.
    labels = tdsp_labels_from_result(result, template.num_vertices)
    print("\nearliest arrival (minutes after departure):")
    for name in "ABCDEFGHIJKL":
        v = builder.vertex_index(name)
        arrival = f"{labels[v]:6.2f}" if np.isfinite(labels[v]) else "  unreachable"
        print(f"  {name}: {arrival}")
    print(f"\nexecuted {result.timesteps_executed} timesteps "
          f"({result.metrics.total_supersteps()} supersteps, "
          f"{result.metrics.total_messages()} messages, "
          f"simulated wall {result.total_wall_s:.4f}s)")


if __name__ == "__main__":
    main()
