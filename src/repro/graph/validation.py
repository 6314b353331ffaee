"""Structural validation of templates, instances, and collections.

These checks enforce the data-model invariants of Section II-A:

* every instance has exactly one value row per template vertex and edge
  (``|V^t| = |V̂|``, ``|E^t| = |Ê|``);
* instances are ordered in time with the constant period δ;
* attribute columns conform to their declared schema dtype.

They are used by tests, by the storage layer after deserialization, and are
exposed publicly so applications can sanity-check ingested datasets.
"""

from __future__ import annotations

import numpy as np

from .collection import TimeSeriesGraphCollection
from .instance import GraphInstance
from .template import GraphTemplate

__all__ = [
    "ValidationError",
    "validate_template",
    "validate_instance",
    "validate_collection",
]


class ValidationError(ValueError):
    """Raised when a graph object violates a data-model invariant."""


def validate_template(template: GraphTemplate) -> None:
    """Check topology invariants of a template."""
    n, m = template.num_vertices, template.num_edges
    if len(template.edge_src) != m or len(template.edge_dst) != m:
        raise ValidationError("edge endpoint arrays disagree with num_edges")
    if m:
        lo = min(template.edge_src.min(), template.edge_dst.min())
        hi = max(template.edge_src.max(), template.edge_dst.max())
        if lo < 0 or hi >= n:
            raise ValidationError("edge endpoint out of vertex range")
    if len(np.unique(template.vertex_ids)) != n:
        raise ValidationError("vertex external ids are not unique")
    if len(np.unique(template.edge_ids)) != m:
        raise ValidationError("edge external ids are not unique")
    indptr, indices, edge_idx = template.adjacency
    if indptr[0] != 0 or indptr[-1] != len(indices) or np.any(np.diff(indptr) < 0):
        raise ValidationError("malformed CSR indptr")
    if len(indices) != len(edge_idx):
        raise ValidationError("CSR indices/edge_index length mismatch")
    expected = m if template.directed else 2 * m - int(np.sum(template.edge_src == template.edge_dst))
    if len(indices) != expected:
        raise ValidationError("CSR adjacency entry count inconsistent with edge count")


def validate_instance(instance: GraphInstance, template: GraphTemplate | None = None) -> None:
    """Check an instance's value tables against its (or a given) template."""
    tpl = template or instance.template
    if template is not None and instance.template is not tpl and not instance.template.equals(tpl):
        raise ValidationError("instance belongs to a different template")
    if instance.vertex_table.n != tpl.num_vertices:
        raise ValidationError(
            f"instance has {instance.vertex_table.n} vertex rows, template has {tpl.num_vertices}"
        )
    if instance.edge_table.n != tpl.num_edges:
        raise ValidationError(
            f"instance has {instance.edge_table.n} edge rows, template has {tpl.num_edges}"
        )
    for table, schema in (
        (instance.vertex_table, tpl.vertex_schema),
        (instance.edge_table, tpl.edge_schema),
    ):
        for name in table.materialized_names:
            if name not in schema:
                raise ValidationError(f"column {name!r} not in schema")
            col = table.column(name)
            if col.dtype != schema[name].dtype:
                raise ValidationError(
                    f"column {name!r} dtype {col.dtype} != schema dtype {schema[name].dtype}"
                )


def validate_collection(collection: TimeSeriesGraphCollection, *, deep: bool = True) -> None:
    """Check a collection: template, period, and (optionally) every instance.

    ``deep=False`` skips per-instance validation, which would force lazy
    providers to materialize every timestep.
    """
    validate_template(collection.template)
    if collection.delta <= 0:
        raise ValidationError("delta must be positive")
    if not deep:
        return
    for k in range(len(collection)):
        inst = collection.instance(k)
        validate_instance(inst, collection.template)
        expected_t = collection.timestamp_of(k)
        if not np.isclose(inst.timestamp, expected_t):
            raise ValidationError(
                f"instance {k} timestamp {inst.timestamp} != t0 + k*delta = {expected_t}"
            )
