"""Vertex-centric programming on the TI-BSP engine (paper Section VI).

    "While we have extended our GoFFish framework to support TI-BSP, these
    abstractions can be extended to other partition- and vertex-centric
    programming frameworks too."

:class:`VertexCentricAdapter` demonstrates that claim constructively: it
wraps any :class:`~repro.baselines.pregel.VertexComputation` into a
:class:`~repro.core.computation.TimeSeriesComputation`, so an unmodified
Pregel-style vertex program runs on the subgraph-centric TI-BSP runtime —
partitioning, GoFS storage, metrics and all.

Mapping:

* each TI-BSP superstep executes one *vertex* superstep: the adapter loops
  over the subgraph's local vertices, invoking the vertex ``compute``;
* vertex→vertex messages are routed by the adapter — local destinations are
  buffered in subgraph state, remote ones bundled per destination subgraph
  (so the adapter even gives the vertex program GoFFish's bulk-messaging
  savings for free);
* vertex halt votes aggregate to a subgraph halt vote once every local
  vertex is halted and no local messages are pending.

Fidelity note: semantics match Pregel with ``initial_active=all`` —
superstep 0 runs every vertex.  The adapter operates per instance
(independent pattern); wrap a range to analyze one instance, as the Fig 5b
baselines do.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, EndOfTimestepContext
from ..core.patterns import Pattern
from .pregel import VertexComputation

__all__ = ["VertexCentricAdapter", "AdaptedVertexContext", "vertex_values_from_result"]


class AdaptedVertexContext:
    """The per-vertex view handed to the wrapped ``VertexComputation``.

    Implements the same surface as :class:`~repro.baselines.pregel.VertexContext`
    but backed by a TI-BSP subgraph context.
    """

    __slots__ = ("_adapter", "_ctx", "_local", "vertex", "superstep", "messages", "_halt")

    def __init__(self, adapter, ctx: ComputeContext, local: int, messages) -> None:
        self._adapter = adapter
        self._ctx = ctx
        self._local = local
        self.vertex = int(ctx.subgraph.vertices[local])
        self.superstep = ctx.superstep
        self.messages = messages
        self._halt = False

    @property
    def value(self) -> Any:
        return self._ctx.state["values"][self._local]

    @value.setter
    def value(self, v: Any) -> None:
        self._ctx.state["values"][self._local] = v

    @property
    def num_vertices(self) -> int:
        return self._ctx.instance.template.num_vertices

    def out_neighbors(self) -> np.ndarray:
        return self._ctx.instance.template.out_neighbors(self.vertex)

    def out_edge_weights(self) -> np.ndarray:
        edges = self._ctx.instance.template.out_edges(self.vertex)
        if self._adapter.weight_attr is None:
            return np.ones(len(edges))
        ids, weights = self._ctx.state["edge_weights"]
        return weights[np.searchsorted(ids, edges)]

    def send(self, vertex: int, payload: Any) -> None:
        self._adapter._route(self._ctx, int(vertex), payload)

    def vote_to_halt(self) -> None:
        self._halt = True


class VertexCentricAdapter(TimeSeriesComputation):
    """Run a Pregel-style vertex program on the TI-BSP engine.

    Parameters
    ----------
    vertex_computation:
        The unmodified vertex program.
    vertex_subgraph:
        Global vertex → subgraph id array (``PartitionedGraph.vertex_subgraph``)
        for routing vertex messages.
    weight_attr:
        Optional edge attribute exposed through ``out_edge_weights``.
    """

    pattern = Pattern.INDEPENDENT

    def __init__(
        self,
        vertex_computation: VertexComputation,
        vertex_subgraph: np.ndarray,
        weight_attr: str | None = None,
    ) -> None:
        self.vertex_computation = vertex_computation
        self.vertex_subgraph = np.asarray(vertex_subgraph, dtype=np.int64)
        self.weight_attr = weight_attr

    # -- message routing -------------------------------------------------------------

    def _route(self, ctx: ComputeContext, vertex: int, payload: Any) -> None:
        dst_sg = int(self.vertex_subgraph[vertex])
        if dst_sg == ctx.subgraph.subgraph_id:
            ctx.state["local_inbox"].setdefault(vertex, []).append(payload)
        else:
            ctx.state["remote_outbox"].setdefault(dst_sg, []).append((vertex, payload))

    def _flush_remote(self, ctx: ComputeContext) -> None:
        for dst_sg, bundle in ctx.state["remote_outbox"].items():
            ctx.send_to_subgraph(dst_sg, bundle)
        ctx.state["remote_outbox"] = {}

    def _edge_weights(self, ctx: ComputeContext) -> tuple[np.ndarray, np.ndarray]:
        """(sorted template edge ids, weights) of every edge leaving the
        subgraph's vertices — local and remote — in the current instance."""
        sg = ctx.subgraph
        edges = np.concatenate([sg.edge_index, sg.remote.edge_index])
        weights = np.concatenate(
            [ctx.edge_values(self.weight_attr), ctx.remote_edge_values(self.weight_attr)]
        )
        ids, first = np.unique(edges, return_index=True)
        return ids, weights[first]

    # -- TI-BSP hooks ------------------------------------------------------------------

    def compute(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        if ctx.superstep == 0:
            st["values"] = [
                self.vertex_computation.initial_value(int(v)) for v in sg.vertices
            ]
            st["halted"] = np.zeros(sg.num_vertices, dtype=bool)
            st["local_inbox"] = {}
            st["remote_outbox"] = {}
            if self.weight_attr is not None:
                st["edge_weights"] = self._edge_weights(ctx)

        # Gather this vertex superstep's inbox: carried-over local messages
        # plus remote bundles delivered by the TI-BSP layer.
        inbox: dict[int, list] = st["local_inbox"]
        st["local_inbox"] = {}
        for msg in ctx.messages:
            for vertex, payload in msg.payload:
                inbox.setdefault(int(vertex), []).append(payload)

        halted = st["halted"]
        any_active = False
        for local in range(sg.num_vertices):
            gvertex = int(sg.vertices[local])
            msgs = inbox.get(gvertex, ())
            if ctx.superstep > 0 and halted[local] and not msgs:
                continue
            any_active = True
            vctx = AdaptedVertexContext(self, ctx, local, msgs)
            self.vertex_computation.compute(vctx)
            halted[local] = vctx._halt

        self._flush_remote(ctx)
        # The subgraph halts when all vertices halted and no local messages
        # wait; a locally-pending message forces another superstep.
        if st["local_inbox"]:
            return  # stay active: self-deliver next superstep
        if not any_active or halted.all():
            ctx.vote_to_halt()

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        st = ctx.state
        if "values" in st:
            ctx.output(
                (ctx.timestep, ctx.subgraph.vertices.copy(), list(st["values"]))
            )


def vertex_values_from_result(result, num_vertices: int, timestep: int = 0) -> list:
    """Assemble the global vertex-value list for one timestep."""
    values: list = [None] * num_vertices
    for _t, _sg, (t, vertices, chunk) in result.outputs:
        if t == timestep:
            for v, value in zip(vertices, chunk):
                values[int(v)] = value
    return values
