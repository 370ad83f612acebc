"""IVF search crossover (§6.3, Q2–Q3): who wins an IVF search on the
OpenAI/1536 stand-in — a plain N-ary bucket scan, the horizontal pruned
search, or PDXearch — in ms/query and recall@10, at two collection sizes.

All algorithms share one IVF index per size; searchers are built one at
a time so at most one copy of the transformed buckets is alive.

Run: ``python jobs/ivf_crossover.py [--queries 20]``
"""
import argparse
from time import perf_counter

import numpy as np
import pandas as pd

from repro import vecdata
from repro.core.pruners import ADSampling, BSA, PDXBond, Pruner
from repro.ivf.index import IVFNarySearcher, IVFPDXSearcher, build_ivf

#: (scale factor, nprobe): n = 9 990 and n = 39 960 vectors.
SCALES = [(0.01, 2), (0.04, 4)]


def run_scale(sf: float, nprobe: int, n_queries: int, k: int = 10) -> pd.DataFrame:
    ds = vecdata.generate("openai1536", sf=sf, n_queries=n_queries)
    x, dim = ds.data, ds.dim
    gt_ids, _ = vecdata.ground_truth(x, ds.queries, k)
    index = build_ivf(x)
    ads = ADSampling(dim)
    algorithms = {
        "FAISS-like IVF_FLAT (N-ary linear)": (
            lambda: IVFNarySearcher(index, x, Pruner(dim)),
            {"pruned": False},
        ),
        "SIMD-ADS (N-ary Δd=32 pruned)": (lambda: IVFNarySearcher(index, x, ads), {}),
        "PDX-ADS (PDXearch)": (lambda: IVFPDXSearcher(index, x, ads), {}),
        "PDX-BSA (PDXearch)": (lambda: IVFPDXSearcher(index, x, BSA(dim).fit(x)), {}),
        "PDX-BOND (PDXearch, zones)": (
            lambda: IVFPDXSearcher(index, x, PDXBond(dim, order="zones")),
            {},
        ),
        "PDX linear scan (no pruning)": (lambda: IVFPDXSearcher(index, x, Pruner(dim)), {}),
    }
    rows = {}
    for name, (make, kw) in algorithms.items():
        searcher = make()
        t0 = perf_counter()
        found = np.stack([searcher.search(q, k, nprobe=nprobe, **kw)[0] for q in ds.queries])
        ms = (perf_counter() - t0) / len(ds.queries) * 1e3
        rows[name] = {"ms/query": ms, "recall@10": vecdata.recall_at_k(found, gt_ids)}
        del searcher
    frame = pd.DataFrame(rows).T
    frame.attrs["n"] = ds.n
    return frame


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--queries", type=int, default=20)
    args = ap.parse_args()
    pd.set_option("display.width", 200)
    for sf, nprobe in SCALES:
        frame = run_scale(sf, nprobe, args.queries)
        n = frame.attrs["n"]
        print(f"\n=== IVF crossover: openai1536 stand-in, n={n}, nprobe={nprobe} ===")
        print(frame.round(3).to_string())


if __name__ == "__main__":
    main()
