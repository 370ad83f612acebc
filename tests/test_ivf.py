"""IVF index substrate + per-algorithm searchers (§6.3 setup)."""
import numpy as np
import pytest

from _util import assert_same_topk

from repro import vecdata
from repro.core.pruners import ADSampling, BSA, PDXBond, Pruner
from repro.ivf.index import IVFNarySearcher, IVFPDXSearcher, build_ivf


@pytest.fixture(scope="module")
def setup():
    ds = vecdata.generate("deep96", sf=0.0005, n_queries=15, seed=4)
    gt = vecdata.ground_truth(ds.data, ds.queries, 10)
    index = build_ivf(ds.data, seed=0)
    return ds, gt, index


def test_buckets_partition_collection(setup):
    ds, _, index = setup
    all_ids = np.sort(np.concatenate(index.bucket_ids))
    np.testing.assert_array_equal(all_ids, np.arange(ds.n))


def test_default_nlist_sqrt_n(setup):
    ds, _, index = setup
    assert index.nlist == int(np.sqrt(ds.n))


def test_full_probe_exact_pruners_give_ground_truth(setup):
    ds, (gt_ids, gt_d), index = setup
    for pruner in [Pruner(ds.dim), PDXBond(ds.dim, order="zones")]:
        s = IVFPDXSearcher(index, ds.data, pruner)
        for qi, q in enumerate(ds.queries):
            ids, dists = s.search(q, 10, nprobe=index.nlist)
            assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


def test_full_probe_ads_bsa_high_recall(setup):
    ds, (gt_ids, _), index = setup
    for pruner in [ADSampling(ds.dim, seed=0), BSA(ds.dim).fit(ds.data)]:
        s = IVFPDXSearcher(index, ds.data, pruner)
        found = np.stack([s.search(q, 10, nprobe=index.nlist)[0] for q in ds.queries])
        assert vecdata.recall_at_k(found, gt_ids) >= 0.95


def test_recall_monotone_in_nprobe(setup):
    ds, (gt_ids, _), index = setup
    s = IVFPDXSearcher(index, ds.data, PDXBond(ds.dim, order="zones"))
    recalls = []
    for nprobe in (1, 4, 16, index.nlist):
        found = np.stack([s.search(q, 10, nprobe=nprobe)[0] for q in ds.queries])
        recalls.append(vecdata.recall_at_k(found, gt_ids))
    assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] == 1.0


def test_nary_linear_scan_full_probe_exact(setup):
    ds, (gt_ids, gt_d), index = setup
    s = IVFNarySearcher(index, ds.data, Pruner(ds.dim))
    for qi, q in enumerate(ds.queries):
        ids, dists = s.search(q, 10, nprobe=index.nlist, pruned=False)
        assert_same_topk(ids, dists, gt_ids[qi], gt_d[qi])


def test_nary_and_pdx_same_buckets_same_recall(setup):
    """Same pruning algorithm on the same buckets ⇒ same recall
    regardless of layout (the layout changes speed, not semantics)."""
    ds, (gt_ids, _), index = setup
    ads = ADSampling(ds.dim, seed=0)
    nprobe = 8
    pdx = IVFPDXSearcher(index, ds.data, ads)
    nary = IVFNarySearcher(index, ds.data, ads)
    f_pdx = np.stack([pdx.search(q, 10, nprobe=nprobe)[0] for q in ds.queries])
    f_nary = np.stack([nary.search(q, 10, nprobe=nprobe)[0] for q in ds.queries])
    r_pdx = vecdata.recall_at_k(f_pdx, gt_ids)
    r_nary = vecdata.recall_at_k(f_nary, gt_ids)
    assert abs(r_pdx - r_nary) <= 0.05


def test_search_timers(setup):
    ds, _, index = setup
    s = IVFPDXSearcher(index, ds.data, ADSampling(ds.dim, seed=0))
    timers = {}
    s.search(ds.queries[0], 10, nprobe=4, timers=timers)
    assert timers["query_prep"] > 0
    assert timers["find_buckets"] > 0
    assert timers["distance"] > 0


def test_fixed_step_search_works(setup):
    ds, (gt_ids, _), index = setup
    s = IVFPDXSearcher(index, ds.data, ADSampling(ds.dim, seed=0))
    found = np.stack(
        [s.search(q, 10, nprobe=index.nlist, fixed_step=32)[0] for q in ds.queries]
    )
    assert vecdata.recall_at_k(found, gt_ids) >= 0.95


def test_explicit_nlist():
    ds = vecdata.generate("nytimes16", sf=0.001)
    index = build_ivf(ds.data, nlist=7, seed=1)
    assert index.nlist == 7
    assert index.centroids.shape == (7, 16)


@pytest.mark.parametrize("searcher", [IVFPDXSearcher, IVFNarySearcher])
def test_search_rejects_bad_queries(setup, searcher):
    ds, _, index = setup
    s = searcher(index, ds.data, PDXBond(ds.dim))
    q = ds.queries[0].copy()
    q[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        s.search(q, 10, nprobe=2)
    with pytest.raises(ValueError, match=f"query dimension 3 .*dimension {ds.dim}"):
        s.search(ds.queries[0][:3], 10, nprobe=2)
