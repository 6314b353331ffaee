"""Kernel-plane algorithms checked against the centralized oracles.

SSSP/BFS, temporal reachability, PageRank and community evolution have one
implementation, the kernel plane; each is checked against its oracle in
``algorithms/reference.py`` (exact equality, except PageRank at
``atol=1e-12``).  TDSP, MEME and HASH still carry a scalar per-vertex branch
(``use_kernels=False``, the Fig 5a work profile), so their kernel runs must
also agree byte-identically with the scalar runs on outputs, merge outputs
and final subgraph states.  A final sweep repeats the oracle checks on the
serial, thread and process executor backends and requires their runs to
agree byte-for-byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    BFSComputation,
    CommunityEvolutionComputation,
    HashtagAggregationComputation,
    MemeTrackingComputation,
    PageRankComputation,
    SSSPComputation,
    TDSPComputation,
    TemporalReachabilityComputation,
    colored_timesteps_from_result,
    pagerank_from_result,
    reached_timesteps_from_result,
    sssp_labels_from_result,
    tdsp_labels_from_result,
)
from repro.algorithms import reference as ref
from repro.core import EngineConfig, run_application
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from repro.runtime import CollectionInstanceSource
from tests.algorithms.test_reachability_evolution import evolving_case
from tests.conftest import make_grid_template, make_random_template, populate_random
from tests.core.test_executor_equivalence import _canonical


def build_case(seed=0, n=40, m=90, T=2, k=3, directed=False):
    rng = np.random.default_rng(seed)
    tpl = make_random_template(n, m, rng, directed=directed)
    coll = build_collection(tpl, T, populate_random(seed), delta=6.0)
    pg = partition_graph(tpl, k, HashPartitioner(seed=seed))
    return tpl, coll, pg


def snapshot(comp, pg, coll, executor="serial", **run_kwargs):
    """Run ``comp``; return the result and its canonical outputs/merges/states."""
    res = run_application(
        comp, pg, coll, config=EngineConfig(executor=executor), **run_kwargs
    )
    return res, (_canonical(res.outputs), _canonical(res.merge_outputs), _canonical(res.states))


def assert_kernel_matches_scalar(make_comp, pg, coll, **run_kwargs):
    """Run kernel and scalar variants; assert byte-identical; return the kernel run."""
    res_k, snap_k = snapshot(make_comp(use_kernels=True), pg, coll, **run_kwargs)
    _res_s, snap_s = snapshot(make_comp(use_kernels=False), pg, coll, **run_kwargs)
    assert snap_k == snap_s
    return res_k


# -- oracle checks: (result, template, collection) -> None ------------------------------


def check_sssp(res, tpl, coll, weight_attr="latency"):
    weights = coll.instance(0).edge_column(weight_attr) if weight_attr else None
    got = sssp_labels_from_result(res, tpl.num_vertices)
    want = ref.single_source_shortest_paths(tpl, 0, weights)
    # Same least fixpoint reached through the same final float additions.
    assert got.tobytes() == want.tobytes()


def check_bfs(res, tpl, coll):
    check_sssp(res, tpl, coll, weight_attr=None)


def check_pagerank(res, tpl, coll):
    got = pagerank_from_result(res, tpl.num_vertices)
    np.testing.assert_allclose(got, ref.pagerank(tpl, iterations=15), atol=1e-12)


def check_reach(res, tpl, coll):
    assert reached_timesteps_from_result(res) == ref.temporal_reachability(coll, 0)


def check_evolve(res, tpl, coll):
    (_sg, summary), = res.merge_outputs
    for t in range(len(coll)):
        assert np.array_equal(summary.labels[t], ref.instance_communities(coll, t)), t


def check_tdsp(res, tpl, coll):
    got = tdsp_labels_from_result(res, tpl.num_vertices)
    assert got.tobytes() == ref.time_expanded_dijkstra(coll, 0).tobytes()


def check_meme(res, tpl, coll):
    assert colored_timesteps_from_result(res) == ref.temporal_meme_bfs(coll, 1)


class TestSSSP:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4), directed=st.booleans())
    def test_bit_identical_and_matches_reference(self, seed, k, directed):
        tpl, coll, pg = build_case(seed, k=k, directed=directed)
        res = run_application(SSSPComputation(0, "latency"), pg, coll, timestep_range=(0, 1))
        check_sssp(res, tpl, coll)


class TestTDSP:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4))
    def test_bit_identical_and_matches_reference(self, seed, k):
        tpl, coll, pg = build_case(seed, T=4, k=k)
        res_k = assert_kernel_matches_scalar(lambda **kw: TDSPComputation(0, **kw), pg, coll)
        check_tdsp(res_k, tpl, coll)

    def test_root_pruning_off_still_bit_identical(self):
        _tpl, coll, pg = build_case(7, T=3)
        assert_kernel_matches_scalar(
            lambda **kw: TDSPComputation(0, root_pruning=False, **kw), pg, coll
        )


class TestReachability:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), directed=st.booleans())
    def test_bit_identical_and_matches_reference(self, seed, directed):
        tpl, coll, pg = evolving_case(seed, directed=directed)
        check_reach(run_application(TemporalReachabilityComputation(0), pg, coll), tpl, coll)


class TestMeme:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_bit_identical_and_matches_reference(self, seed):
        tpl = make_grid_template(5, 6)
        coll = build_collection(tpl, 4, populate_random(seed))
        pg = partition_graph(tpl, 3, HashPartitioner(seed=seed))
        res_k = assert_kernel_matches_scalar(
            lambda **kw: MemeTrackingComputation(1, **kw), pg, coll
        )
        check_meme(res_k, tpl, coll)


class TestHashtag:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_bit_identical_and_matches_reference(self, seed):
        tpl = make_grid_template(5, 6)
        coll = build_collection(tpl, 4, populate_random(seed))
        pg = partition_graph(tpl, 3, HashPartitioner(seed=seed))
        res_k = assert_kernel_matches_scalar(
            lambda **kw: HashtagAggregationComputation.for_partitioned_graph(pg, 2, **kw),
            pg,
            coll,
        )
        [summary] = [rec[-1] for rec in res_k.merge_outputs]
        assert np.array_equal(summary.counts, ref.hashtag_count_series(coll, 2))


class TestPageRank:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_reference(self, directed):
        tpl, coll, pg = build_case(13, directed=directed)
        res = run_application(PageRankComputation(15), pg, coll, timestep_range=(0, 1))
        check_pagerank(res, tpl, coll)


class TestEvolution:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_bit_identical(self, seed):
        tpl, coll, pg = evolving_case(seed, T=5)
        res = run_application(CommunityEvolutionComputation(tpl.num_vertices), pg, coll)
        check_evolve(res, tpl, coll)


#: family -> (factory(template, **kw), oracle check).  Factories that take
#: ``use_kernels`` belong to the families that keep a scalar branch.
SWEEP = {
    "sssp": (lambda tpl: SSSPComputation(0, "latency"), check_sssp),
    "bfs": (lambda tpl: BFSComputation(0), check_bfs),
    "pagerank": (lambda tpl: PageRankComputation(15), check_pagerank),
    "reach": (lambda tpl: TemporalReachabilityComputation(0), check_reach),
    "evolve": (lambda tpl: CommunityEvolutionComputation(tpl.num_vertices), check_evolve),
    "tdsp": (lambda tpl, **kw: TDSPComputation(0, **kw), check_tdsp),
    "meme": (lambda tpl, **kw: MemeTrackingComputation(1, **kw), check_meme),
}
SCALAR_BASELINE = {"tdsp", "meme"}
ONE_TIMESTEP = {"sssp", "bfs", "pagerank"}
ON_EVOLVING_CASE = {"reach", "evolve"}


class TestExecutorSweep:
    """Every backend reproduces the serial run byte-for-byte and the oracle.

    The serial baseline is the scalar run for the families that keep one
    (TDSP, MEME) and the serial kernel run for the others.
    """

    @pytest.fixture(scope="class")
    def grid_case(self):
        tpl = make_grid_template(5, 6)
        coll = build_collection(tpl, 4, populate_random(23), delta=6.0)
        pg = partition_graph(tpl, 3, HashPartitioner(seed=3))
        return tpl, coll, pg

    @pytest.fixture(scope="class")
    def evolving(self):
        return evolving_case(5, T=5)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("name", list(SWEEP))
    def test_kernel_on_executor_matches_serial_and_reference(
        self, grid_case, evolving, name, executor
    ):
        tpl, coll, pg = evolving if name in ON_EVOLVING_CASE else grid_case
        make, check = SWEEP[name]
        kwargs = {"timestep_range": (0, 1)} if name in ONE_TIMESTEP else {}
        if executor == "process":
            kwargs["sources"] = [
                CollectionInstanceSource(coll) for _ in range(pg.num_partitions)
            ]
        baseline_comp = make(tpl, use_kernels=False) if name in SCALAR_BASELINE else make(tpl)
        _, baseline = snapshot(baseline_comp, pg, coll, "serial", **kwargs)
        res, got = snapshot(make(tpl), pg, coll, executor, **kwargs)
        assert got == baseline
        check(res, tpl, coll)
