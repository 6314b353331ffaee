"""Tests for the GoFS store: slices, packing/binning, partition views."""

import pickle

import numpy as np
import pytest

from repro.generators import road_latency_collection
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from repro.storage import (
    GoFS,
    GoFSPartitionView,
    SliceKey,
    bin_rows,
    read_slice,
    slice_filename,
    slice_nbytes,
)
from tests.conftest import make_grid_template, populate_random

VERTEX_ATTRS = ("tweets", "traffic", "flag")  # ``flag`` is never populated


def _same(got, want):
    """Byte-exact for numeric columns, element-wise for object columns."""
    if want.dtype == object:
        return got.dtype == object and got.tolist() == want.tolist()
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def assert_serves(inst, want, subgraphs):
    """``inst`` answers every accessor exactly as the collection instance
    ``want`` does, for every attribute of every subgraph given."""
    assert inst.timestamp == want.timestamp
    for sg in subgraphs:
        for name in VERTEX_ATTRS:
            assert _same(inst.vertex_values(sg, name), want.vertex_values(sg, name)), (
                sg.subgraph_id,
                name,
            )
        assert not inst.vertex_values(sg, "flag").any()
        assert _same(inst.edge_values(sg, "latency"), want.edge_values(sg, "latency"))
        assert _same(
            inst.remote_edge_values(sg, "latency"), want.remote_edge_values(sg, "latency")
        )


@pytest.fixture
def store(tmp_path):
    tpl = make_grid_template(5, 6)
    coll = build_collection(tpl, 12, populate_random(5), delta=2.0, t0=1.0)
    pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
    manifest = GoFS.write_collection(tmp_path, pg, coll, packing=4, binning=2)
    return tmp_path, tpl, coll, pg, manifest


class TestWrite:
    def test_manifest(self, store):
        root, tpl, coll, pg, manifest = store
        assert manifest["num_timesteps"] == 12
        assert manifest["packing"] == 4 and manifest["binning"] == 2
        assert manifest["num_partitions"] == 3
        assert manifest["t0"] == 1.0 and manifest["delta"] == 2.0
        assert GoFS.read_manifest(root) == manifest

    def test_bins_cover_all_subgraphs(self, store):
        _, _, _, pg, manifest = store
        for p, bins in enumerate(manifest["bins"]):
            got = sorted(s for b in bins for s in b)
            want = sorted(sg.subgraph_id for sg in pg.partitions[p].subgraphs)
            assert got == want
            assert all(len(b) <= 2 for b in bins)

    def test_slice_files_exist(self, store):
        root, _, _, _, manifest = store
        for p, bins in enumerate(manifest["bins"]):
            for b in range(len(bins)):
                for k in range(3):  # 12 timesteps / packing 4
                    assert (root / slice_filename(SliceKey(p, b, k))).exists()

    def test_template_roundtrip(self, store):
        root, tpl, *_ = store
        assert GoFS.load_template(root).equals(tpl)

    def test_unpopulated_columns_not_stored(self, tmp_path):
        tpl = make_grid_template(5, 6)
        coll = road_latency_collection(tpl, 6, seed=3, delta=5.0)
        pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
        manifest = GoFS.write_collection(tmp_path, pg, coll, packing=4, binning=2)
        for p, bins in enumerate(manifest["bins"]):
            for b in range(len(bins)):
                for k in range(2):
                    data = read_slice(tmp_path, SliceKey(p, b, k))
                    assert set(data) == {"vertex_rows", "edge_rows", "timestamps", "e__latency"}
        inst = GoFS.partition_view(tmp_path, 0).instance(5)
        for sg in pg.partitions[0].subgraphs:
            assert inst.vertex_values(sg, "tweets").tolist() == [None] * sg.num_vertices
            assert not inst.vertex_values(sg, "traffic").any()

    def test_column_populated_on_some_timesteps_roundtrips(self, tmp_path):
        tpl = make_grid_template(5, 6)

        def sometimes(inst, t):
            rng = np.random.default_rng(t)
            inst.edge_table.set_column("latency", rng.uniform(0.5, 8.0, tpl.num_edges))
            if t % 3 == 1:  # only t = 1 and 4 populate traffic
                inst.vertex_table.set_column("traffic", rng.uniform(1, 100, tpl.num_vertices))

        coll = build_collection(tpl, 7, sometimes, delta=2.0)
        pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
        GoFS.write_collection(tmp_path, pg, coll, packing=3, binning=2)
        for p in range(3):
            view = GoFS.partition_view(tmp_path, p)
            for t in range(7):
                assert_serves(view.instance(t), coll.instance(t), pg.partitions[p].subgraphs)
        # The last pack (t=6) never populated traffic: no column in its slices.
        assert "v__traffic" not in read_slice(tmp_path, SliceKey(0, 0, 2))
        assert "v__traffic" in read_slice(tmp_path, SliceKey(0, 0, 0))

    def test_bad_packing(self, store, tmp_path):
        root, tpl, coll, pg, _ = store
        with pytest.raises(ValueError):
            GoFS.write_collection(tmp_path / "x", pg, coll, packing=0)


class TestPartitionView:
    def test_values_match_original_on_owned_rows(self, store):
        root, tpl, coll, pg, _ = store
        for p in range(3):
            view = GoFS.partition_view(root, p)
            for t in range(12):
                assert_serves(view.instance(t), coll.instance(t), pg.partitions[p].subgraphs)

    def test_foreign_subgraph_rejected(self, store):
        root, tpl, coll, pg, _ = store
        inst = GoFS.partition_view(root, 0).instance(0)
        foreign = pg.partitions[1].subgraphs[0]
        reads = [
            (inst.vertex_values, "traffic"),
            (inst.edge_values, "latency"),
            (inst.remote_edge_values, "latency"),
        ]
        for read, name in reads:
            with pytest.raises(ValueError, match=rf"subgraph {foreign.subgraph_id} .*partition 0"):
                read(foreign, name)

    def test_subgraph_from_other_partitioning_rejected(self, store):
        root, tpl, coll, pg, _ = store
        other = partition_graph(tpl, 3, HashPartitioner(seed=2))
        inst = GoFS.partition_view(root, 0).instance(0)
        own = {sg.subgraph_id for sg in pg.partitions[0].subgraphs}
        stranger = next(
            sg
            for sg in other.subgraphs
            if sg.subgraph_id in own
            and not np.array_equal(sg.vertices, pg.subgraphs[sg.subgraph_id].vertices)
        )
        with pytest.raises(ValueError, match=rf"subgraph {stranger.subgraph_id} does not match"):
            inst.vertex_values(stranger, "traffic")

    def test_load_events_at_pack_boundaries(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0)
        for t in range(12):
            view.instance(t)
        boundaries = [t for t, _s in view.load_events]
        assert boundaries == [0, 4, 8]

    def test_no_reload_within_pack(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0)
        view.instance(1)
        view.instance(2)
        view.instance(1)
        assert len(view.load_events) == 1

    def test_resident_bytes(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0)
        assert view.resident_bytes() == 0
        view.instance(0)
        assert view.resident_bytes() > 0

    def test_out_of_range(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0)
        with pytest.raises(IndexError):
            view.instance(12)

    def test_invalid_partition(self, store):
        root, *_ = store
        with pytest.raises(ValueError, match="partition"):
            GoFS.partition_view(root, 7)

    def test_pickle_roundtrip(self, store):
        root, tpl, coll, pg, _ = store
        view = GoFS.partition_view(root, 1)
        view.instance(0)  # populate the cache (must not be pickled)
        clone = pickle.loads(pickle.dumps(view))
        assert clone.partition_id == 1
        assert clone.resident_bytes() == 0  # cache not carried over
        for t in range(12):
            assert_serves(clone.instance(t), coll.instance(t), pg.partitions[1].subgraphs)

    def test_partition_views_helper(self, store):
        root, *_ = store
        views = GoFS.partition_views(root)
        assert [v.partition_id for v in views] == [0, 1, 2]


class TestBinRows:
    def test_rows_cover_bin(self, store):
        _, _, _, pg, _ = store
        subgraphs = pg.partitions[0].subgraphs[:2]
        verts, edges = bin_rows(subgraphs)
        want_verts = np.unique(np.concatenate([sg.vertices for sg in subgraphs]))
        assert np.array_equal(verts, want_verts)
        for sg in subgraphs:
            assert np.isin(sg.edge_index, edges).all()
            assert np.isin(sg.remote.edge_index, edges).all()

    def test_empty_bin(self):
        verts, edges = bin_rows([])
        assert len(verts) == 0 and len(edges) == 0


class TestPackCache:
    def test_lru_eviction(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, cache_packs=2)
        view.instance(0)   # pack 0
        view.instance(4)   # pack 1
        view.instance(8)   # pack 2 -> evicts pack 0
        assert len(view._cache) == 2
        assert set(view._cache) == {1, 2}
        view.instance(0)   # pack 0 reloads -> evicts pack 1 (least recent)
        assert set(view._cache) == {0, 2}
        assert len(view.load_events) == 4

    def test_refresh_on_hit(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, cache_packs=2)
        view.instance(0)   # pack 0
        view.instance(4)   # pack 1
        view.instance(1)   # pack 0 hit -> refresh
        view.instance(8)   # pack 2 -> evicts pack 1 (pack 0 was refreshed)
        assert set(view._cache) == {0, 2}

    def test_cache_avoids_reloads_on_revisit(self, store):
        root, *_ = store
        small = GoFS.partition_view(root, 0, cache_packs=1)
        big = GoFS.partition_view(root, 0, cache_packs=3)
        for t in (0, 4, 0, 4, 8, 0):
            small.instance(t)
            big.instance(t)
        assert len(small.load_events) == 6  # thrashes
        assert len(big.load_events) == 3    # each pack loaded once

    def test_resident_bytes_scales_with_cache(self, store):
        root, *_ = store
        small = GoFS.partition_view(root, 0, cache_packs=1)
        big = GoFS.partition_view(root, 0, cache_packs=3)
        for t in (0, 4, 8):
            small.instance(t)
            big.instance(t)
        assert big.resident_bytes() > small.resident_bytes()

    def test_invalid_cache_packs(self, store):
        root, *_ = store
        with pytest.raises(ValueError):
            GoFS.partition_view(root, 0, cache_packs=0)

    def test_pickle_preserves_setting(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 1, cache_packs=4)
        clone = pickle.loads(pickle.dumps(view))
        assert clone.cache_packs == 4


def _one_pack_nbytes(root):
    """Resident bytes of exactly one pack (all packs are the same shape)."""
    probe = GoFS.partition_view(root, 0)
    probe.instance(0)
    return probe.resident_bytes()


class TestByteBudget:
    def test_byte_budget_lifts_count_cap(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, cache_bytes=1 << 40)
        assert view.cache_packs is None
        for t in (0, 4, 8):
            view.instance(t)
        assert set(view._cache) == {0, 1, 2}
        assert len(view.load_events) == 3

    def test_evicts_oldest_when_over_budget(self, store):
        root, *_ = store
        one = _one_pack_nbytes(root)
        view = GoFS.partition_view(root, 0, cache_bytes=2 * one)
        view.instance(0)
        view.instance(4)
        assert set(view._cache) == {0, 1}
        view.instance(8)  # third pack busts the budget -> pack 0 evicted
        assert set(view._cache) == {1, 2}
        assert view.resident_bytes() <= 2 * one

    def test_resident_bytes_shrinks_after_eviction(self, store):
        root, *_ = store
        one = _one_pack_nbytes(root)
        view = GoFS.partition_view(root, 0, cache_bytes=2 * one)
        for t in (0, 4, 8):
            view.instance(t)
        want = sum(
            slice_nbytes(d) for data in view._cache.values() for d in data
        )
        assert view.resident_bytes() == want == 2 * one  # not 3 * one

    def test_newest_pack_kept_even_over_budget(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, cache_bytes=1)
        view.instance(0)
        assert set(view._cache) == {0}
        assert view.resident_bytes() > 1  # over budget, but never empty
        view.instance(4)
        assert set(view._cache) == {1}

    def test_count_and_byte_caps_compose(self, store):
        root, *_ = store
        one = _one_pack_nbytes(root)
        view = GoFS.partition_view(root, 0, cache_packs=2, cache_bytes=10 * one)
        for t in (0, 4, 8):
            view.instance(t)
        assert set(view._cache) == {1, 2}  # the count cap binds first

    def test_invalid_cache_bytes(self, store):
        root, *_ = store
        with pytest.raises(ValueError):
            GoFS.partition_view(root, 0, cache_bytes=0)

    def test_pickle_preserves_budget_and_prefetch(self, store):
        root, *_ = store
        view = GoFS.partition_view(
            root, 1, cache_bytes=123456, prefetch=True, prefetch_lead=3
        )
        clone = pickle.loads(pickle.dumps(view))
        assert clone.cache_bytes == 123456
        assert clone.cache_packs is None
        assert clone.prefetch_enabled is True
        assert clone.prefetch_lead == 3


class TestSharedManifest:
    def test_views_share_one_manifest_read(self, store, monkeypatch):
        root, *_ = store
        calls = {"manifest": 0, "template": 0}
        real_manifest, real_template = GoFS.read_manifest, GoFS.load_template

        def counting_manifest(r):
            calls["manifest"] += 1
            return real_manifest(r)

        def counting_template(r):
            calls["template"] += 1
            return real_template(r)

        monkeypatch.setattr(GoFS, "read_manifest", staticmethod(counting_manifest))
        monkeypatch.setattr(GoFS, "load_template", staticmethod(counting_template))
        views = GoFS.partition_views(root)
        assert calls == {"manifest": 1, "template": 1}
        assert views[0].manifest is views[1].manifest is views[2].manifest
        assert views[0].template is views[1].template is views[2].template

    def test_shared_views_still_read_correctly(self, store):
        root, tpl, coll, pg, _ = store
        views = GoFS.partition_views(root)
        for p, view in enumerate(views):
            assert_serves(view.instance(5), coll.instance(5), pg.partitions[p].subgraphs)

    def test_pickled_clone_rereads_independently(self, store):
        root, *_ = store
        views = GoFS.partition_views(root)
        clone = pickle.loads(pickle.dumps(views[0]))
        assert clone.manifest == views[0].manifest
        assert clone.manifest is not views[0].manifest
        assert clone.template is not views[0].template


class TestPrefetch:
    def test_disabled_returns_false(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0)
        assert view.prefetch(4) is False
        assert view.prefetch_started == 0

    def test_out_of_range_returns_false(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, prefetch=True)
        assert view.prefetch(12) is False
        assert view.prefetch(-1) is False

    def test_already_cached_returns_false(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, prefetch=True)
        view.instance(0)
        assert view.prefetch(1) is False

    def test_hit_records_hidden_seconds_at_boundary(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, prefetch=True, cache_packs=2)
        assert view.prefetch(4) is True
        view._inflight[1].result(timeout=30)  # settle: make the hit deterministic
        view.instance(4)
        assert view.prefetch_started == 1
        assert view.prefetch_hits == 1
        assert view.prefetch_misses == 0
        assert [t for t, _s in view.load_events] == [4]  # pack boundary
        assert view.drain_hidden_load() > 0.0
        assert view.drain_hidden_load() == 0.0  # drained

    def test_prefetched_instance_bit_identical(self, store):
        root, tpl, coll, pg, _ = store
        pre = GoFS.partition_view(root, 0, prefetch=True, cache_packs=3)
        for t in range(12):
            pre.prefetch(t + 1)
            assert_serves(pre.instance(t), coll.instance(t), pg.partitions[0].subgraphs)
        assert (pre.prefetch_hits, pre.prefetch_misses) == (3, 0)

    def test_auto_trigger_near_pack_boundary(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, prefetch=True, cache_packs=2)
        view.instance(0)  # row 0 of pack 0: too early to arm
        assert 1 not in view._inflight and 1 not in view._cache
        view.instance(2)  # row >= packing - lead: arms the pack-1 prefetch
        assert 1 in view._inflight or 1 in view._cache
        view.instance(4)
        assert view.prefetch_hits == 1
        assert view.prefetch_misses == 1  # only pack 0's cold load

    def test_sync_fallthrough_counts_miss(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, prefetch=True)
        view.instance(0)
        assert view.prefetch_misses == 1
        assert view.prefetch_hits == 0

    def test_invalidate_discards_inflight_accounting(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, prefetch=True)
        view.prefetch(4)
        view.invalidate_prefetch()
        assert view._inflight == {}
        assert view.drain_hidden_load() == 0.0
        view.instance(4)  # demand load records fresh evidence only
        assert [t for t, _s in view.load_events] == [4]

    def test_invalidate_surfaces_failed_background_read(self, store):
        """ISSUE 9: a failed in-flight read is discarded but not silenced —
        the teardown emits a ``teardown_error`` event instead of ``pass``."""
        import concurrent.futures

        root, *_ = store
        view = GoFS.partition_view(root, 0, prefetch=True)

        def boom(pack):
            raise OSError("slice mid-rewrite")

        view._read_pack = boom
        view.prefetch(4)
        concurrent.futures.wait(list(view._inflight.values()))

        events = []

        class _Tracer:
            def event(self, kind, **fields):
                events.append((kind, fields))

            def count(self, name, n=1):
                pass

        view.tracer = _Tracer()
        view.invalidate_prefetch()
        assert view._inflight == {}
        assert [k for k, _f in events] == ["teardown_error"]
        fields = events[0][1]
        assert fields["where"] == "prefetch_invalidate"
        assert "OSError" in fields["error"]

    def test_reload_instance_records_nothing(self, store):
        root, _tpl, coll, *_ = store
        view = GoFS.partition_view(root, 0, prefetch=True)
        inst = view.reload_instance(4)
        assert inst.timestamp == coll.instance(4).timestamp
        assert view.load_events == []
        assert view.prefetch_misses == 0
        assert view.drain_hidden_load() == 0.0

    def test_purge_load_events(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, cache_packs=3)
        for t in range(12):
            view.instance(t)
        assert [t for t, _s in view.load_events] == [0, 4, 8]
        assert view.purge_load_events(8, inclusive=False) == 0  # keeps t=8
        assert view.purge_load_events(8) == 1  # drops t=8 itself
        assert [t for t, _s in view.load_events] == [0, 4]

    def test_close_is_idempotent(self, store):
        root, *_ = store
        view = GoFS.partition_view(root, 0, prefetch=True)
        view.prefetch(4)
        view.close()
        view.close()
        assert view._inflight == {}

    def test_absorb_never_evicts_in_use_pack(self, store):
        """Regression: with the default single-pack cap, absorbing the
        prefetched pack k+1 used to evict pack k while compute was still
        reading it — the next intra-pack access re-read pack k (evicting
        k+1 in turn), doubling I/O instead of hiding it."""
        root, *_ = store
        view = GoFS.partition_view(root, 0, prefetch=True)  # cache_packs=1
        view.instance(0)  # pack 0 resident and in use
        view.prefetch(4)  # pack 1 in flight
        view._inflight[1].result(timeout=30)
        view.instance(1)  # absorb lands pack 1; pack 0 must survive
        assert set(view._cache) == {0, 1}
        view.instance(4)  # boundary crossing is a hit, not a re-read
        assert view.prefetch_hits == 1
        assert [t for t, _s in view.load_events] == [0, 4]

    def test_default_cache_prefetch_scan_matches_sync_loads(self, store):
        """A bare prefetch=True scan (the CLI's --prefetch with no cache
        knob) must do exactly the sync run's I/O — one load per pack."""
        root, *_ = store
        sync = GoFS.partition_view(root, 0)
        view = GoFS.partition_view(root, 0, prefetch=True)
        for t in range(12):
            sync.instance(t)
            view.instance(t)
            for fut in list(view._inflight.values()):
                fut.result(timeout=30)  # settle: absorb deterministically
        assert [t for t, _s in sync.load_events] == [0, 4, 8]
        assert [t for t, _s in view.load_events] == [0, 4, 8]
        assert view.prefetch_misses == 1  # only pack 0's cold start
        assert view.prefetch_hits == 2

    def test_small_byte_budget_prefetch_does_not_thrash(self, store):
        """Same hazard via cache_bytes: a budget below two packs must not
        let an absorbed prefetch evict the in-use pack."""
        root, *_ = store
        one = _one_pack_nbytes(root)
        view = GoFS.partition_view(root, 0, prefetch=True, cache_bytes=one)
        for t in range(12):
            view.instance(t)
            for fut in list(view._inflight.values()):
                fut.result(timeout=30)
        assert [t for t, _s in view.load_events] == [0, 4, 8]
        assert view.prefetch_misses == 1
