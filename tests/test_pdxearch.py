"""PDXearch framework: scheduling, exactness, recall preservation."""
import numpy as np
import pytest

from _util import assert_same_topk

from repro import vecdata
from repro.core.layout import build_pdx
from repro.core.pdxearch import dimension_steps, pdx_linear_scan, pdxearch
from repro.core.pruners import ADSampling, BSA, PDXBond, Pruner

SMALL = ["nytimes16", "glove50", "deep96", "sift128"]


@pytest.fixture(scope="module")
def glove():
    ds = vecdata.generate("glove50", sf=0.002, n_queries=25, seed=1)
    gt = vecdata.ground_truth(ds.data, ds.queries, 10)
    return ds, gt


# ------------------------------------------------------------------ schedule

def test_dimension_steps_adaptive_doubles():
    assert dimension_steps(30) == [2, 4, 8, 16]
    assert dimension_steps(2) == [2]
    assert sum(dimension_steps(1536)) == 1536


def test_dimension_steps_fixed():
    assert dimension_steps(128, fixed=32) == [32, 32, 32, 32]
    assert dimension_steps(50, fixed=32) == [32, 18]


@pytest.mark.parametrize("dim", [1, 7, 16, 50, 768, 1536])
def test_dimension_steps_cover_all_dims(dim):
    assert sum(dimension_steps(dim)) == dim
    assert sum(dimension_steps(dim, fixed=32)) == dim


# ----------------------------------------------------------------- exactness

@pytest.mark.parametrize("name", SMALL)
def test_linear_scan_equals_ground_truth(name):
    ds = vecdata.generate(name, sf=0.001, n_queries=10)
    gt_ids, gt_d = vecdata.ground_truth(ds.data, ds.queries, 10)
    coll = build_pdx(ds.data)
    for qi, q in enumerate(ds.queries):
        ids, dists = pdx_linear_scan(coll, q, 10)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


@pytest.mark.parametrize("order", ["sequential", "decreasing", "means", "zones"])
def test_bond_exact_all_orders(order, glove):
    ds, (gt_ids, gt_d) = glove
    coll = build_pdx(ds.data)
    bond = PDXBond(ds.dim, order=order)
    for qi, q in enumerate(ds.queries):
        ids, dists = pdxearch(coll, q, 10, bond)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


@pytest.mark.parametrize("name", SMALL)
def test_bond_exact_across_datasets(name):
    ds = vecdata.generate(name, sf=0.001, n_queries=8)
    gt_ids, gt_d = vecdata.ground_truth(ds.data, ds.queries, 10)
    coll = build_pdx(ds.data)
    bond = PDXBond(ds.dim, order="means")
    for qi, q in enumerate(ds.queries):
        ids, dists = pdxearch(coll, q, 10, bond)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


@pytest.mark.parametrize("frac", [0.05, 0.2, 0.5])
def test_bond_exact_any_selection_fraction(frac, glove):
    """The PRUNE-phase switch point is a performance knob, never a
    correctness knob (§6.6)."""
    ds, (gt_ids, gt_d) = glove
    coll = build_pdx(ds.data)
    bond = PDXBond(ds.dim, order="means")
    for qi, q in enumerate(ds.queries[:10]):
        ids, dists = pdxearch(coll, q, 10, bond, selection_fraction=frac)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


def test_bond_exact_large_blocks(glove):
    ds, (gt_ids, gt_d) = glove
    coll = build_pdx(ds.data, block_size=1000)  # exact-search partitioning
    bond = PDXBond(ds.dim, order="means")
    for qi, q in enumerate(ds.queries[:10]):
        ids, dists = pdxearch(coll, q, 10, bond)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


# -------------------------------------------------------------------- recall

@pytest.mark.parametrize("name", SMALL)
def test_adsampling_recall(name):
    ds = vecdata.generate(name, sf=0.001, n_queries=15)
    gt_ids, _ = vecdata.ground_truth(ds.data, ds.queries, 10)
    ads = ADSampling(ds.dim, seed=0)
    coll = build_pdx(ads.transform_data(ds.data))
    found = np.stack([pdxearch(coll, q, 10, ads)[0] for q in ds.queries])
    assert vecdata.recall_at_k(found, gt_ids) >= 0.95


@pytest.mark.parametrize("name", SMALL)
def test_bsa_recall(name):
    ds = vecdata.generate(name, sf=0.001, n_queries=15)
    gt_ids, _ = vecdata.ground_truth(ds.data, ds.queries, 10)
    bsa = BSA(ds.dim).fit(ds.data)
    coll = build_pdx(bsa.transform_data(ds.data))
    found = np.stack([pdxearch(coll, q, 10, bsa)[0] for q in ds.queries])
    assert vecdata.recall_at_k(found, gt_ids) >= 0.95


def test_adaptive_and_fixed_steps_same_recall(glove):
    """Adaptive steps change when the predicate runs, not its guarantees
    (§6.3 'Adaptive vs fixed steps')."""
    ds, (gt_ids, _) = glove
    ads = ADSampling(ds.dim, seed=0)
    coll = build_pdx(ads.transform_data(ds.data))
    adaptive = np.stack([pdxearch(coll, q, 10, ads)[0] for q in ds.queries])
    fixed = np.stack(
        [pdxearch(coll, q, 10, ads, fixed_step=32)[0] for q in ds.queries]
    )
    r_a = vecdata.recall_at_k(adaptive, gt_ids)
    r_f = vecdata.recall_at_k(fixed, gt_ids)
    assert r_a >= 0.95 and r_f >= 0.95


def test_linear_pruner_in_framework_is_exact(glove):
    ds, (gt_ids, gt_d) = glove
    coll = build_pdx(ds.data)
    lin = Pruner(ds.dim)
    for qi, q in enumerate(ds.queries[:10]):
        ids, dists = pdxearch(coll, q, 10, lin)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


# -------------------------------------------------------------------- timers

def test_timers_populated(glove):
    ds, _ = glove
    bond = PDXBond(ds.dim, order="means")
    coll = build_pdx(ds.data)
    timers = {}
    pdxearch(coll, ds.queries[0], 10, bond, timers=timers)
    assert timers["distance"] > 0
    assert "query_prep" in timers
    assert timers.get("bounds", 0.0) >= 0.0


def test_k_larger_than_collection(glove):
    ds, _ = glove
    coll = build_pdx(ds.data[:30])
    ids, dists = pdx_linear_scan(coll, ds.queries[0], 50)
    assert len(ids) == 30
    assert np.all(np.diff(dists) >= 0)


# ------------------------------------------------------------- bad queries

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_query(glove, bad):
    ds, _ = glove
    coll = build_pdx(ds.data)
    q = ds.queries[0].copy()
    q[3] = bad
    with pytest.raises(ValueError, match="finite"):
        pdxearch(coll, q, 10, PDXBond(ds.dim))
    with pytest.raises(ValueError, match="finite"):
        pdx_linear_scan(coll, q, 10)


def test_rejects_wrong_query_dimension(glove):
    ds, _ = glove
    coll = build_pdx(ds.data)
    q = ds.queries[0][:3]
    with pytest.raises(ValueError, match=f"query dimension 3 .*dimension {ds.dim}"):
        pdxearch(coll, q, 10, PDXBond(ds.dim))
    with pytest.raises(ValueError, match=f"query dimension 3 .*dimension {ds.dim}"):
        pdx_linear_scan(coll, q, 10)
