"""Unit tests for data-model validation."""

import numpy as np
import pytest

from repro.graph import (
    AttributeSchema,
    GraphInstance,
    GraphTemplate,
    TimeSeriesGraphCollection,
    ValidationError,
    build_collection,
    validate_collection,
    validate_instance,
    validate_template,
)


def good_template():
    return GraphTemplate(
        4,
        [0, 1, 2],
        [1, 2, 3],
        vertex_schema=AttributeSchema([("v", "float")]),
        edge_schema=AttributeSchema([("w", "float")]),
    )


class TestTemplateValidation:
    def test_good(self):
        validate_template(good_template())

    def test_duplicate_vertex_ids(self):
        tpl = GraphTemplate(3, [0], [1], vertex_ids=np.array([1, 1, 2]))
        with pytest.raises(ValidationError, match="vertex external ids"):
            validate_template(tpl)

    def test_duplicate_edge_ids(self):
        tpl = GraphTemplate(3, [0, 1], [1, 2], edge_ids=np.array([5, 5]))
        with pytest.raises(ValidationError, match="edge external ids"):
            validate_template(tpl)

    def test_tampered_endpoints(self):
        tpl = good_template()
        tpl.edge_dst = tpl.edge_dst.copy()
        tpl.edge_dst[0] = 99
        with pytest.raises(ValidationError, match="endpoint"):
            validate_template(tpl)

    def test_directed_adjacency_count(self):
        tpl = GraphTemplate(3, [0, 1], [1, 2], directed=True)
        validate_template(tpl)


class TestInstanceValidation:
    def test_good(self):
        tpl = good_template()
        validate_instance(GraphInstance(tpl, 0.0))

    def test_foreign_template(self):
        tpl, other = good_template(), GraphTemplate(5, [0], [1])
        inst = GraphInstance(other, 0.0)
        with pytest.raises(ValidationError):
            validate_instance(inst, tpl)

    def test_wrong_dtype_column(self):
        tpl = good_template()
        inst = GraphInstance(tpl, 0.0)
        # Bypass set_column's coercion to simulate a corrupt table.
        inst.vertex_table._columns["v"] = np.zeros(4, dtype=np.int32)
        with pytest.raises(ValidationError, match="dtype"):
            validate_instance(inst)

    def test_unknown_column(self):
        tpl = good_template()
        inst = GraphInstance(tpl, 0.0)
        inst.vertex_table._columns["ghost"] = np.zeros(4)
        with pytest.raises(ValidationError, match="not in schema"):
            validate_instance(inst)


class TestCollectionValidation:
    def test_good(self):
        tpl = good_template()
        coll = build_collection(tpl, 3, delta=2.0)
        validate_collection(coll)

    def test_bad_timestamp(self):
        tpl = good_template()
        instances = [GraphInstance(tpl, 0.0), GraphInstance(tpl, 5.0)]
        coll = TimeSeriesGraphCollection(tpl, instances, t0=0.0, delta=1.0)
        with pytest.raises(ValidationError, match="timestamp"):
            validate_collection(coll)

    def test_shallow_skips_instances(self):
        tpl = good_template()
        instances = [GraphInstance(tpl, 99.0)]  # wrong timestamp
        coll = TimeSeriesGraphCollection(tpl, instances, t0=0.0, delta=1.0)
        validate_collection(coll, deep=False)  # passes: template-only check
        with pytest.raises(ValidationError):
            validate_collection(coll, deep=True)
