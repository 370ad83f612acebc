"""Exact-search drivers on all layouts (the §6.5 competitors)."""
import numpy as np
import pytest

from _util import assert_same_topk

from repro import vecdata
from repro.core.layout import to_dsm
from repro.search.exact import (
    brute_force_dsm,
    brute_force_nary,
    build_exact_collection,
    pdx_bond_search,
)

NAMES = ["nytimes16", "glove50", "sift128", "msong420"]


@pytest.fixture(scope="module", params=NAMES)
def dataset(request):
    ds = vecdata.generate(request.param, sf=0.001, n_queries=10, seed=2)
    gt = vecdata.ground_truth(ds.data, ds.queries, 10)
    return ds, gt


def test_brute_force_nary_matches_gt(dataset):
    ds, (gt_ids, gt_d) = dataset
    for qi, q in enumerate(ds.queries):
        ids, dists = brute_force_nary(ds.data, q, 10)
        np.testing.assert_array_equal(ids, gt_ids[qi])
        np.testing.assert_allclose(dists, gt_d[qi], rtol=1e-3)


def test_brute_force_dsm_matches_gt(dataset):
    ds, (gt_ids, _) = dataset
    dm = to_dsm(ds.data)
    for qi, q in enumerate(ds.queries):
        ids, _ = brute_force_dsm(dm, q, 10)
        np.testing.assert_array_equal(ids, gt_ids[qi])


@pytest.mark.parametrize("order", ["means", "zones", "decreasing"])
def test_pdx_bond_exact(dataset, order):
    ds, (gt_ids, gt_d) = dataset
    coll = build_exact_collection(ds.data, block_size=500)
    for qi, q in enumerate(ds.queries):
        ids, dists = pdx_bond_search(coll, q, 10, order=order)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


def test_bond_timers(dataset):
    ds, _ = dataset
    coll = build_exact_collection(ds.data, block_size=500)
    timers = {}
    pdx_bond_search(coll, ds.queries[0], 10, timers=timers)
    assert timers["distance"] > 0


@pytest.mark.parametrize("metric", ["l1", "ip"])
def test_brute_force_other_metrics(metric):
    ds = vecdata.generate("nytimes16", sf=0.001, n_queries=5)
    gt_ids, gt_d = vecdata.ground_truth(ds.data, ds.queries, 5, metric=metric)
    for qi, q in enumerate(ds.queries):
        ids, dists = brute_force_nary(ds.data, q, 5, metric=metric)
        got = set(ids.tolist())
        want = set(gt_ids[qi].tolist())
        # allow tie permutations at the boundary; distances must agree
        np.testing.assert_allclose(np.sort(dists), np.sort(gt_d[qi]), rtol=1e-3)
        assert len(got & want) >= 4


def test_brute_force_ties_break_by_id():
    """Rows tied at the k-th distance: the lowest ids win, as in ground
    truth, on both layouts."""
    rng = np.random.default_rng(0)
    q = rng.standard_normal(8).astype(np.float32)
    data = np.tile(q, (200, 1))
    data[::3] += 1.0  # rows 0, 3, 6, ... differ; every other row equals q
    gt_ids, _ = vecdata.ground_truth(data, q[None], 10)
    np.testing.assert_array_equal(gt_ids[0], [1, 2, 4, 5, 7, 8, 10, 11, 13, 14])
    np.testing.assert_array_equal(brute_force_nary(data, q, 10)[0], gt_ids[0])
    np.testing.assert_array_equal(brute_force_dsm(to_dsm(data), q, 10)[0], gt_ids[0])


def test_topk_k_exceeds_n():
    ds = vecdata.generate("nytimes16", sf=0.001)
    ids, _ = brute_force_nary(ds.data[:7], ds.queries[0], 20)
    assert len(ids) == 7
