"""Table 7 harness: phase-timed IVF query execution."""
import numpy as np
import pytest

from repro import vecdata
from repro.analysis.breakdown import PHASES, ivf_breakdown, tune_nprobe
from repro.core.pruners import PDXBond
from repro.ivf.index import IVFPDXSearcher, build_ivf


@pytest.fixture(scope="module")
def frame():
    return ivf_breakdown("glove200", sf=0.001, n_queries=8, target_recall=0.9)


def test_five_algorithms(frame):
    assert frame["algorithm"].tolist() == [
        "N-ary ADS",
        "PDX ADS",
        "N-ary BSA",
        "PDX BSA",
        "PDX BOND",
    ]


def test_phase_percentages_sum_to_100(frame):
    pct = frame[[f"{p}_pct" for p in PHASES]].sum(axis=1)
    np.testing.assert_allclose(pct, 100.0, atol=0.1)


def test_positive_query_times(frame):
    assert (frame["query_time_ms"] > 0).all()


def test_nprobe_recorded(frame):
    assert set(frame.attrs["nprobe"]) == {"ads", "bsa", "bond"}
    assert all(v >= 1 for v in frame.attrs["nprobe"].values())


def test_bond_query_prep_cheapest_at_high_dim():
    """PDX-BOND query preprocessing is 'almost free' (Table 7): an
    argsort of dimension gaps, vs a D×D projection for ADS/BSA. The gap
    shows at Table 7's dimensionality (D=1536), where the projection
    cost is quadratic in D."""
    import time

    from repro.core.pruners import ADSampling

    ds = vecdata.generate("openai1536", sf=0.0005, n_queries=1)
    ads = ADSampling(ds.dim, seed=0)
    bond = PDXBond(ds.dim, order="zones")
    index = build_ivf(ds.data, nlist=4, seed=0)
    s_ads = IVFPDXSearcher(index, ds.data, ads)
    s_bond = IVFPDXSearcher(index, ds.data, bond)
    q = ds.queries[0]

    def prep_time(searcher):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            searcher.pruner.prepare(q, searcher.dim_means)
            best = min(best, time.perf_counter() - t0)
        return best

    assert prep_time(s_bond) < prep_time(s_ads)


def test_tune_nprobe_reaches_target():
    ds = vecdata.generate("glove50", sf=0.001, n_queries=10, seed=1)
    gt_ids, _ = vecdata.ground_truth(ds.data, ds.queries, 10)
    index = build_ivf(ds.data, seed=0)
    s = IVFPDXSearcher(index, ds.data, PDXBond(ds.dim, order="zones"))
    nprobe = tune_nprobe(s, ds.queries, gt_ids, 10, 0.9, max_nprobe=index.nlist)
    found = np.stack([s.search(q, 10, nprobe=nprobe)[0] for q in ds.queries])
    assert vecdata.recall_at_k(found, gt_ids) >= 0.9


def test_tune_nprobe_with_buckets_smaller_than_k():
    """Few probed buckets can hold fewer than k vectors; those answers
    are short, and tuning must go on to a larger nprobe, not fail."""
    ds = vecdata.generate("nytimes16", sf=0.0002, n_queries=5, seed=0)
    gt_ids, _ = vecdata.ground_truth(ds.data, ds.queries, 10)
    index = build_ivf(ds.data, nlist=len(ds.data) // 3, seed=0)
    s = IVFPDXSearcher(index, ds.data, PDXBond(ds.dim))
    assert len(s.search(ds.queries[0], 10, nprobe=1)[0]) < 10
    nprobe = tune_nprobe(s, ds.queries, gt_ids, 10, 0.9, max_nprobe=index.nlist)
    assert 1 < nprobe <= index.nlist
