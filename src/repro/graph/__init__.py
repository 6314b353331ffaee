"""Time-series graph data model (paper Section II-A).

A *time-series graph collection* Γ = ⟨Ĝ, G, t0, δ⟩ pairs a time-invariant
:class:`~repro.graph.template.GraphTemplate` with an ordered series of
:class:`~repro.graph.instance.GraphInstance` objects carrying the
time-variant attribute values.
"""

from .attributes import AttributeSchema, AttributeSpec, AttributeTable
from .builders import GraphTemplateBuilder, build_collection
from .collection import (
    CallableInstanceProvider,
    InstanceProvider,
    ListInstanceProvider,
    TimeSeriesGraphCollection,
)
from .instance import IS_EXISTS, GraphInstance, InstanceView
from .subgraph import RemoteEdges, Subgraph
from .template import GraphTemplate
from .validation import (
    ValidationError,
    validate_collection,
    validate_instance,
    validate_template,
)

__all__ = [
    "AttributeSchema",
    "AttributeSpec",
    "AttributeTable",
    "GraphTemplateBuilder",
    "build_collection",
    "CallableInstanceProvider",
    "InstanceProvider",
    "ListInstanceProvider",
    "TimeSeriesGraphCollection",
    "IS_EXISTS",
    "GraphInstance",
    "InstanceView",
    "RemoteEdges",
    "Subgraph",
    "GraphTemplate",
    "ValidationError",
    "validate_collection",
    "validate_instance",
    "validate_template",
]
