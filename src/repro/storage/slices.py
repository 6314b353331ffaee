"""Slice files: the GoFS on-disk unit (Section IV-A, [18]).

A slice bundles the instance attribute values of a *subgraph bin* (up to
``binning`` subgraphs of one partition, spatially grouped) across a
*temporal pack* (``packing`` consecutive timesteps, temporally grouped):

    slice(partition p, bin b, pack k)  ↦  values[attr][pack_len, rows]

where rows are the bin's vertices (for vertex attributes) or the edges
touched by the bin's subgraphs — local edges plus outgoing remote edges (for
edge attributes).  Grouping 10 instances × 5 subgraphs per file is what lets
GoFS amortize disk access and produces Fig 6's every-10th-timestep load
bumps.  Only attributes that some instance of the pack populated are
stored; a column absent from a slice reads back as its schema default.

Each slice is one ``.gsl`` file in the zero-copy GSL2 container
(:func:`repro.storage.serde.pack_arrays`): framed header plus contiguous
aligned raw buffers per attribute column, read back as ``np.frombuffer``
views so a pack load is near-memcpy.  Object columns (e.g. tweet lists)
ride a pickled side-channel inside the same file.  The earlier ``.npz``
slice format is retired: :meth:`repro.storage.gofs.GoFS.read_manifest`
rejects stores written in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..graph.instance import GraphInstance
from ..graph.subgraph import Subgraph
from .serde import pack_arrays, unpack_arrays

__all__ = [
    "SliceKey",
    "slice_filename",
    "bin_rows",
    "write_slice",
    "read_slice",
    "slice_nbytes",
]

@dataclass(frozen=True)
class SliceKey:
    """Identity of one slice file."""

    partition: int
    bin: int
    pack: int


def slice_filename(key: SliceKey) -> str:
    """Canonical file name for a slice."""
    return f"slice_p{key.partition:03d}_b{key.bin:04d}_k{key.pack:04d}.gsl"


def bin_rows(subgraphs: list[Subgraph]) -> tuple[np.ndarray, np.ndarray]:
    """(vertex rows, edge rows) covered by a subgraph bin.

    Vertex rows: the union of the bin's vertices.  Edge rows: every dense
    template edge index referenced by the bin's local adjacency or outgoing
    remote edges (deduplicated — undirected local edges appear twice in
    adjacency).
    """
    verts = (
        np.unique(np.concatenate([sg.vertices for sg in subgraphs]))
        if subgraphs
        else np.empty(0, dtype=np.int64)
    )
    edge_parts = [sg.edge_index for sg in subgraphs] + [sg.remote.edge_index for sg in subgraphs]
    edge_parts = [e for e in edge_parts if len(e)]
    edges = np.unique(np.concatenate(edge_parts)) if edge_parts else np.empty(0, dtype=np.int64)
    return verts, edges


def _populated_names(instances: list[GraphInstance]) -> tuple[list[str], list[str]]:
    """(vertex, edge) attribute names some instance of a pack populated:
    the union of :attr:`AttributeTable.materialized_names`, in schema order."""
    tpl = instances[0].template
    v_names = {n for inst in instances for n in inst.vertex_table.materialized_names}
    e_names = {n for inst in instances for n in inst.edge_table.materialized_names}
    return (
        [n for n in tpl.vertex_schema.names if n in v_names],
        [n for n in tpl.edge_schema.names if n in e_names],
    )


def _fill_matrix(schema, tables, name: str, rows: np.ndarray) -> np.ndarray:
    """One ``(pack_len, rows)`` matrix, filled row-by-row in place (no
    ``np.stack`` double-copy).  An instance that never populated ``name``
    contributes a row of the schema default."""
    spec = schema[name]
    mat = np.empty((len(tables), len(rows)), dtype=spec.dtype)
    for i, table in enumerate(tables):
        if name in table.materialized_names:
            np.take(table.column(name), rows, out=mat[i])
        else:
            mat[i].fill(spec.fill_value())
    return mat


def _pack_matrices(
    vertex_rows: np.ndarray,
    edge_rows: np.ndarray,
    instances: list[GraphInstance],
) -> dict[str, np.ndarray]:
    """Assemble slice arrays: one ``(pack_len, rows)`` matrix per populated
    attribute."""
    arrays: dict[str, np.ndarray] = {
        "vertex_rows": vertex_rows,
        "edge_rows": edge_rows,
        "timestamps": np.asarray([inst.timestamp for inst in instances]),
    }
    if not instances:
        return arrays
    tpl = instances[0].template
    v_names, e_names = _populated_names(instances)
    v_tables = [inst.vertex_table for inst in instances]
    e_tables = [inst.edge_table for inst in instances]
    for name in v_names:
        arrays[f"v__{name}"] = _fill_matrix(tpl.vertex_schema, v_tables, name, vertex_rows)
    for name in e_names:
        arrays[f"e__{name}"] = _fill_matrix(tpl.edge_schema, e_tables, name, edge_rows)
    return arrays


def write_slice(
    root: Path,
    key: SliceKey,
    vertex_rows: np.ndarray,
    edge_rows: np.ndarray,
    instances: list[GraphInstance],
) -> Path:
    """Write one slice: the given rows of every populated attribute × instances.

    Columns are packed into ``(pack_len, rows)`` matrices per attribute so a
    later read is one contiguous load per attribute.
    """
    path = Path(root) / slice_filename(key)
    path.write_bytes(pack_arrays(_pack_matrices(vertex_rows, edge_rows, instances)))
    return path


def read_slice(
    root: Path, key: SliceKey, *, allow_objects: bool | None = None
) -> dict[str, np.ndarray]:
    """Read a slice into a dict of arrays.

    Numeric columns come back as read-only zero-copy views over the file
    bytes.  ``allow_objects`` gates unpickling: ``False`` fails loudly if
    the slice holds object columns; ``True`` and ``None`` (default) permit
    them, and numeric-only schemas never unpickle either way.  A missing
    slice raises ``FileNotFoundError`` naming its ``.gsl`` path.
    """
    path = Path(root) / slice_filename(key)
    return unpack_arrays(path.read_bytes(), allow_objects=allow_objects)


def slice_nbytes(data: dict[str, np.ndarray]) -> int:
    """Approximate resident bytes of one loaded slice (GC-model input).

    Object columns count a flat 64 bytes per element: the arrays only hold
    pointers to variable-size Python objects the model cannot cheaply size.
    """
    total = 0
    for arr in data.values():
        total += 64 * arr.size if arr.dtype == object else arr.nbytes
    return total
