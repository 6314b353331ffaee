"""Zero-copy GSL2 slice format: round-trips, pickle gating, retired formats."""

import json

import numpy as np
import pytest

from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from repro.storage import (
    GoFS,
    SliceKey,
    read_slice,
    slice_filename,
    write_slice,
)
from repro.storage.serde import GSL2_MAGIC, pack_arrays, unpack_arrays
from tests.conftest import make_grid_template, populate_random


def sample_arrays(with_objects=False):
    arrays = {
        "a": np.arange(12, dtype=np.int64).reshape(3, 4),
        "b": np.linspace(0, 1, 7),
        "c": np.asarray([True, False, True]),
        "empty": np.empty((0, 5), dtype=np.float32),
    }
    if with_objects:
        cells = np.empty(3, dtype=object)
        cells[:] = [(1, 2), None, ("x",)]
        arrays["tweets"] = cells
    return arrays


class TestPackArrays:
    @pytest.mark.parametrize("with_objects", [False, True])
    def test_roundtrip(self, with_objects):
        arrays = sample_arrays(with_objects)
        buf = pack_arrays(arrays)
        assert buf[:4] == GSL2_MAGIC
        out = unpack_arrays(buf)
        assert set(out) == set(arrays)
        for name, arr in arrays.items():
            got = out[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape
            if arr.dtype == object:
                assert got.tolist() == arr.tolist()
            else:
                assert got.tobytes() == arr.tobytes()

    def test_numeric_arrays_are_zero_copy_views(self):
        buf = pack_arrays(sample_arrays())
        out = unpack_arrays(buf)
        a = out["a"]
        assert not a.flags.writeable  # frombuffer view over the file bytes
        assert a.base is not None

    def test_payload_offsets_are_aligned(self):
        buf = pack_arrays(sample_arrays())
        hlen = int.from_bytes(buf[4:8], "little")
        header = json.loads(buf[8 : 8 + hlen])
        for entry in header["arrays"]:
            assert entry["offset"] % 64 == 0

    def test_allow_objects_false_rejects_pickled_columns(self):
        buf = pack_arrays(sample_arrays(with_objects=True))
        with pytest.raises(ValueError, match="tweets"):
            unpack_arrays(buf, allow_objects=False)
        # Numeric-only buffers pass the strict gate untouched.
        strict = unpack_arrays(pack_arrays(sample_arrays()), allow_objects=False)
        assert "a" in strict

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            unpack_arrays(b"NOPE" + b"\x00" * 16)

    def test_compressed_payload_rejected(self):
        """Compressed payloads from earlier writers fail loudly, not silently."""
        buf = pack_arrays(sample_arrays())
        hlen = int.from_bytes(buf[4:8], "little")
        header = json.loads(buf[8 : 8 + hlen])
        header["compression"] = "zlib"
        raw = json.dumps(header).encode("utf-8")
        forged = GSL2_MAGIC + len(raw).to_bytes(4, "little") + raw + buf[8 + hlen :]
        with pytest.raises(ValueError, match="zlib"):
            unpack_arrays(forged)


@pytest.fixture
def slice_case():
    tpl = make_grid_template(4, 5)
    coll = build_collection(tpl, 3, populate_random(7))
    pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
    sg = pg.partitions[0].subgraphs[0]
    verts = sg.vertices
    edges = np.unique(np.concatenate([sg.edge_index, sg.remote.edge_index]))
    instances = [coll.instance(t) for t in range(3)]
    return verts, edges, instances


class TestWriteReadSlice:
    def test_write_read_roundtrip(self, tmp_path, slice_case):
        verts, edges, instances = slice_case
        key = SliceKey(0, 0, 0)
        path = write_slice(tmp_path, key, verts, edges, instances)
        assert path == tmp_path / slice_filename(key)
        assert path.suffix == ".gsl"
        data = read_slice(tmp_path, key)
        assert np.array_equal(data["vertex_rows"], verts)
        assert np.array_equal(data["edge_rows"], edges)
        tweets = data["v__tweets"]
        assert tweets.shape == (3, len(verts))
        for i, inst in enumerate(instances):
            want = inst.vertex_table.column("tweets")[verts]
            assert tweets[i].tolist() == want.tolist()
            np.testing.assert_array_equal(
                data["e__latency"][i], inst.edge_table.column("latency")[edges]
            )

    def test_missing_slice_names_gsl_path(self, tmp_path):
        key = SliceKey(1, 2, 3)
        with pytest.raises(FileNotFoundError, match=r"slice_p001_b0002_k0003\.gsl"):
            read_slice(tmp_path, key)


class TestGoFSFormats:
    @pytest.fixture(scope="class")
    def case(self):
        tpl = make_grid_template(5, 6)
        coll = build_collection(tpl, 6, populate_random(11))
        pg = partition_graph(tpl, 2, HashPartitioner(seed=4))
        return tpl, coll, pg

    def test_instances_identical_to_collection(self, case, tmp_path):
        tpl, coll, pg = case
        GoFS.write_collection(tmp_path, pg, coll, packing=3, binning=2)
        for p in range(pg.num_partitions):
            view = GoFS.partition_view(tmp_path, p)
            for t in range(len(coll)):
                inst, want = view.instance(t), coll.instance(t)
                for sg in pg.partitions[p].subgraphs:
                    np.testing.assert_array_equal(
                        inst.vertex_values(sg, "traffic"), want.vertex_values(sg, "traffic")
                    )
                    assert (
                        inst.vertex_values(sg, "tweets").tolist()
                        == want.vertex_values(sg, "tweets").tolist()
                    )

    def test_retired_npz_store_rejected(self, case, tmp_path):
        """A store written in the retired .npz format names itself and the fix."""
        tpl, coll, pg = case
        GoFS.write_collection(tmp_path, pg, coll, packing=3, binning=2)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["slice_format"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as err:
            GoFS.read_manifest(tmp_path)
        message = str(err.value)
        assert str(tmp_path) in message
        assert "slice format 1" in message and "GoFS.write_collection" in message
