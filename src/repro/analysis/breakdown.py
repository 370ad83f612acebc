"""IVF query runtime breakdown — the Table 7 harness (§6.4).

Runs the five competitors of Table 7 (N-ary ADS, PDX ADS, N-ary BSA,
PDX BSA, PDX BOND) over the same IVF index at a target recall, with the
per-phase timers threaded through the searchers:

- ``query_prep``   — pruner.prepare (query transform + dim ordering)
- ``find_buckets`` — centroid distances + ranking
- ``bounds``       — pruning-predicate evaluation
- ``distance``     — distance-kernel accumulation

``nprobe`` is tuned per algorithm by doubling until recall ≥ target
(the paper tunes recall with nprobe, §6.1); the N-ary variant of an
algorithm reuses its PDX twin's nprobe (identical pruning semantics on
identical buckets ⇒ identical recall).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import vecdata
from repro.core.pruners import ADSampling, BSA, PDXBond
from repro.ivf.index import IVFIndex, IVFNarySearcher, IVFPDXSearcher, build_ivf

PHASES = ["distance", "find_buckets", "bounds", "query_prep"]


def tune_nprobe(
    searcher,
    queries: np.ndarray,
    gt_ids: np.ndarray,
    k: int,
    target_recall: float,
    *,
    max_nprobe: int,
    **search_kw,
) -> int:
    """Smallest power-of-two nprobe reaching the target recall."""
    nprobe = 1
    while nprobe < max_nprobe:
        # -1 pads the answers of queries whose probed buckets hold < k vectors.
        found = np.full((len(queries), k), -1, dtype=np.int64)
        for i, q in enumerate(queries):
            ids = searcher.search(q, k, nprobe=nprobe, **search_kw)[0]
            found[i, : len(ids)] = ids
        if vecdata.recall_at_k(found, gt_ids) >= target_recall:
            return nprobe
        nprobe *= 2
    return max_nprobe


def _run_timed(searcher, queries: np.ndarray, k: int, nprobe: int, **kw):
    timers: dict[str, float] = {}
    for q in queries:
        searcher.search(q, k, nprobe=nprobe, timers=timers, **kw)
    return timers


def breakdown_row(name: str, timers: dict, n_queries: int) -> dict:
    total = sum(timers.get(p, 0.0) for p in PHASES)
    row = {"algorithm": name, "query_time_ms": total / n_queries * 1e3}
    for p in PHASES:
        row[f"{p}_pct"] = 100.0 * timers.get(p, 0.0) / total if total else 0.0
        row[f"{p}_ms"] = timers.get(p, 0.0) / n_queries * 1e3
    return row


def ivf_breakdown(
    dataset: str = "openai1536",
    *,
    sf: float = 0.004,
    n_queries: int = 20,
    k: int = 10,
    target_recall: float = 0.95,
    seed: int = 0,
    fixed_delta_d: int = 32,
) -> pd.DataFrame:
    """Run the Table 7 experiment end-to-end; returns one row per
    algorithm with total ms and per-phase shares."""
    ds = vecdata.generate(dataset, sf=sf, n_queries=n_queries, seed=seed)
    x, queries = ds.data, ds.queries
    dim = ds.dim
    gt_ids, _ = vecdata.ground_truth(x, queries, k)
    index: IVFIndex = build_ivf(x, seed=seed)

    ads = ADSampling(dim, seed=seed)
    bsa = BSA(dim).fit(x, seed=seed)
    bond = PDXBond(dim, order="zones")

    pdx_ads = IVFPDXSearcher(index, x, ads)
    pdx_bsa = IVFPDXSearcher(index, x, bsa)
    pdx_bond = IVFPDXSearcher(index, x, bond)
    nary_ads = IVFNarySearcher(index, x, ads)
    nary_bsa = IVFNarySearcher(index, x, bsa)

    max_np = index.nlist
    np_ads = tune_nprobe(pdx_ads, queries, gt_ids, k, target_recall, max_nprobe=max_np)
    np_bsa = tune_nprobe(pdx_bsa, queries, gt_ids, k, target_recall, max_nprobe=max_np)
    np_bond = tune_nprobe(pdx_bond, queries, gt_ids, k, target_recall, max_nprobe=max_np)

    rows = [
        breakdown_row(
            "N-ary ADS",
            _run_timed(nary_ads, queries, k, np_ads, delta_d=fixed_delta_d),
            len(queries),
        ),
        breakdown_row("PDX ADS", _run_timed(pdx_ads, queries, k, np_ads), len(queries)),
        breakdown_row(
            "N-ary BSA",
            _run_timed(nary_bsa, queries, k, np_bsa, delta_d=fixed_delta_d),
            len(queries),
        ),
        breakdown_row("PDX BSA", _run_timed(pdx_bsa, queries, k, np_bsa), len(queries)),
        breakdown_row(
            "PDX BOND", _run_timed(pdx_bond, queries, k, np_bond), len(queries)
        ),
    ]
    frame = pd.DataFrame(rows)
    frame.attrs["nprobe"] = {"ads": np_ads, "bsa": np_bsa, "bond": np_bond}
    return frame
