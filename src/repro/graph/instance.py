"""Graph instance: attribute values of the template at one timestamp.

Section II-A: the instance ``g^t = ⟨V^t, E^t, t⟩`` carries a value for every
template attribute on every vertex and edge, with ``|V^t| = |V̂|`` and
``|E^t| = |Ê|``.  Topology is *not* stored here — an instance holds only two
columnar :class:`~repro.graph.attributes.AttributeTable` objects plus its
timestamp, and a reference to the shared template.

A slow-changing topology is modelled with the ``is_exists`` convention: a
boolean vertex/edge attribute that simulates appearance and disappearance of
elements across instances (Section II-A, last paragraph).

Computations read an instance through :class:`InstanceView`: per-subgraph
accessors aligned with the subgraph's own arrays.  A :class:`GraphInstance`
answers them by gathering from its whole-graph columns; a GoFS partition
view (:mod:`repro.storage.gofs`) answers them from its partition's slice
rows without ever building a whole-graph column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from .attributes import AttributeTable
from .template import GraphTemplate

if TYPE_CHECKING:
    from .subgraph import Subgraph

__all__ = ["GraphInstance", "InstanceView", "IS_EXISTS"]

#: Conventional attribute name for soft topology changes.
IS_EXISTS = "is_exists"


class InstanceView(Protocol):
    """The read surface computations see as ``ctx.instance``.

    Each accessor returns one attribute's values for one subgraph, aligned
    with that subgraph's arrays: ``vertex_values`` with ``sg.vertices``,
    ``edge_values`` with the CSR slots ``sg.edge_index`` and
    ``remote_edge_values`` with the rows of ``sg.remote``.
    """

    template: GraphTemplate
    timestamp: float

    def vertex_values(self, sg: "Subgraph", name: str) -> np.ndarray: ...

    def edge_values(self, sg: "Subgraph", name: str) -> np.ndarray: ...

    def remote_edge_values(self, sg: "Subgraph", name: str) -> np.ndarray: ...


class GraphInstance:
    """Attribute values for one timestamp of a time-series graph.

    Parameters
    ----------
    template:
        The shared :class:`GraphTemplate`.
    timestamp:
        Absolute time of this instance (``t0 + k * delta`` for the k-th).
    vertex_table, edge_table:
        Optional pre-built attribute tables; fresh default-filled tables are
        allocated otherwise.
    """

    __slots__ = ("template", "timestamp", "vertex_table", "edge_table")

    def __init__(
        self,
        template: GraphTemplate,
        timestamp: float,
        vertex_table: AttributeTable | None = None,
        edge_table: AttributeTable | None = None,
    ) -> None:
        self.template = template
        self.timestamp = float(timestamp)
        self.vertex_table = vertex_table or template.vertex_schema.create_table(
            template.num_vertices
        )
        self.edge_table = edge_table or template.edge_schema.create_table(
            template.num_edges
        )
        if self.vertex_table.n != template.num_vertices:
            raise ValueError("vertex_table row count must equal template vertex count")
        if self.edge_table.n != template.num_edges:
            raise ValueError("edge_table row count must equal template edge count")

    # -- convenience accessors ------------------------------------------------

    def vertex(self, name: str, v: int) -> Any:
        """Value of vertex attribute ``name`` at vertex index ``v``."""
        return self.vertex_table.get(name, v)

    def edge(self, name: str, e: int) -> Any:
        """Value of edge attribute ``name`` at edge index ``e``."""
        return self.edge_table.get(name, e)

    def vertex_column(self, name: str) -> np.ndarray:
        """Whole vertex attribute column (length ``|V̂|``)."""
        return self.vertex_table.column(name)

    def edge_column(self, name: str) -> np.ndarray:
        """Whole edge attribute column (length ``|Ê|``)."""
        return self.edge_table.column(name)

    # -- subgraph-aligned accessors (InstanceView) ---------------------------------

    def vertex_values(self, sg: "Subgraph", name: str) -> np.ndarray:
        """``name`` on ``sg``'s vertices, aligned with ``sg.vertices``."""
        return self.vertex_table.column(name)[sg.vertices]

    def edge_values(self, sg: "Subgraph", name: str) -> np.ndarray:
        """``name`` on ``sg``'s local CSR slots, aligned with ``sg.edge_index``."""
        return self.edge_table.column(name)[sg.edge_index]

    def remote_edge_values(self, sg: "Subgraph", name: str) -> np.ndarray:
        """``name`` on ``sg``'s outgoing remote edges, aligned with ``sg.remote``."""
        return self.edge_table.column(name)[sg.remote.edge_index]

    # -- soft topology ---------------------------------------------------------

    def vertex_exists_mask(self) -> np.ndarray:
        """Boolean mask of existing vertices (all-true without ``is_exists``)."""
        if IS_EXISTS in self.template.vertex_schema:
            return self.vertex_column(IS_EXISTS).astype(bool)
        return np.ones(self.template.num_vertices, dtype=bool)

    def edge_exists_mask(self) -> np.ndarray:
        """Boolean mask of existing edges (all-true without ``is_exists``)."""
        if IS_EXISTS in self.template.edge_schema:
            return self.edge_column(IS_EXISTS).astype(bool)
        return np.ones(self.template.num_edges, dtype=bool)

    def copy(self) -> "GraphInstance":
        """Copy attribute values; the template stays shared."""
        return GraphInstance(
            self.template,
            self.timestamp,
            self.vertex_table.copy(),
            self.edge_table.copy(),
        )

    def equals(self, other: "GraphInstance") -> bool:
        """Value equality (same template object not required, same values)."""
        return (
            self.timestamp == other.timestamp
            and self.vertex_table.equals(other.vertex_table)
            and self.edge_table.equals(other.edge_table)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GraphInstance(t={self.timestamp}, template={self.template.name!r})"
