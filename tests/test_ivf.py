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


@pytest.fixture(scope="module")
def skewed():
    """2 000 openai1536-style skewed vectors + 20 queries, from the
    generator draw (seed 0) that perfbench's ivf-openai1536 collection
    also comes from. On it, scanning a bucket as 64-vector blocks lost
    ADSampling neighbours that a whole-bucket scan finds."""
    spec = vecdata.DATASETS["openai1536"]
    rows = vecdata._sample(spec, 2020, np.random.default_rng(0))
    ds = vecdata.VectorDataset(spec=spec, data=rows[:2000], queries=rows[2000:])
    gt = vecdata.ground_truth(ds.data, ds.queries, 10)
    return ds, gt, build_ivf(ds.data, seed=0)


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


def test_nary_and_pdx_same_buckets_same_recall(request):
    """Same pruning algorithm on the same buckets ⇒ same recall
    regardless of layout (the layout changes speed, not semantics), on
    normal and on skewed data."""
    for data, nprobe in (("setup", 8), ("skewed", 4)):
        ds, (gt_ids, _), index = request.getfixturevalue(data)
        ads = ADSampling(ds.dim, seed=0)
        pdx = IVFPDXSearcher(index, ds.data, ads)
        nary = IVFNarySearcher(index, ds.data, ads)
        f_pdx = np.stack([pdx.search(q, 10, nprobe=nprobe)[0] for q in ds.queries])
        f_nary = np.stack([nary.search(q, 10, nprobe=nprobe)[0] for q in ds.queries])
        r_pdx = vecdata.recall_at_k(f_pdx, gt_ids)
        r_nary = vecdata.recall_at_k(f_nary, gt_ids)
        assert abs(r_pdx - r_nary) <= 0.05, (data, r_pdx, r_nary)


@pytest.mark.parametrize(
    "make_pruner",
    [
        lambda x: ADSampling(x.shape[1], seed=0),
        lambda x: BSA(x.shape[1]).fit(x),
        lambda x: PDXBond(x.shape[1], order="zones"),
    ],
    ids=["ads", "bsa", "bond"],
)
def test_start_scans_nearest_bucket_whole(skewed, make_pruner):
    """A bucket is one PDX block and START scans the first block in
    full, so at nprobe=1 every pruner returns the exact top-10 of the
    nearest bucket."""
    ds, _, index = skewed
    s = IVFPDXSearcher(index, ds.data, make_pruner(ds.data))
    for q in ds.queries:
        ids = index.bucket_ids[np.argmin(((index.centroids - q) ** 2).sum(axis=1))]
        gt_ids, gt_d = vecdata.ground_truth(ds.data[ids], q[None], 10)
        found, dists = s.search(q, 10, nprobe=1)
        assert_same_topk(found, dists, ids[gt_ids[0]], gt_d[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("searcher", [IVFPDXSearcher, IVFNarySearcher])
def test_empty_buckets(searcher):
    """Duplicate-heavy data leaves k-means buckets empty; a full-probe
    PDX-BOND search still equals ground truth, and nothing warns."""
    pts = np.random.default_rng(0).normal(size=(3, 8)).astype(np.float32)
    data = np.repeat(pts, 20, axis=0)
    index = build_ivf(data, nlist=5, seed=0)
    assert sorted(len(b) for b in index.bucket_ids) == [0, 0, 20, 20, 20]
    queries = np.vstack([pts, pts + 0.1]).astype(np.float32)
    gt_ids, gt_d = vecdata.ground_truth(data, queries, 10)
    s = searcher(index, data, PDXBond(8))
    for qi, q in enumerate(queries):
        ids, dists = s.search(q, 10, nprobe=index.nlist)
        np.testing.assert_array_equal(ids, gt_ids[qi])
        np.testing.assert_allclose(dists, gt_d[qi], rtol=1e-5, atol=1e-6)


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
