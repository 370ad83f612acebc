"""Δd=1 pruning-power traces — the Table 2 / Table 6 methodology (§2.4).

The paper measures, per query, the percentage of individual dimension
*values* that were never touched by a distance calculation when the
pruning predicate is evaluated at *every* dimension (Δd = 1), K = 10.
Simulating that literally is a dimension-at-a-time loop; instead we use
the closed form: with cumulative partial distances ``cum[d, i]`` (one
cumsum per block, ``repro.core.kernels.l2_cumulative``) and the
pruner's per-dimension bounds ``b[d]`` (``Pruner.prune_bounds``), a
vector is pruned at the first ``d`` with ``cum[d, i] > b[d]`` — the
exact Δd=1 search outcome at a fraction of the cost.

Bookkeeping mirrors the search: the first block (threshold still +inf)
is scanned fully; survivors of later blocks are scanned fully and
merged into the heap, tightening the threshold block-to-block.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.kernels import PDX_BLOCK_SIZE, l2_cumulative
from repro.core.layout import build_pdx
from repro.core.pruners import Pruner
from repro.core.topk import TopK


def pruning_power_trace(
    data: np.ndarray,
    queries: np.ndarray,
    pruner: Pruner,
    *,
    k: int = 10,
    block_size: int = PDX_BLOCK_SIZE,
) -> np.ndarray:
    """Per-query pruning power (fraction of dimension values avoided)."""
    tdata = pruner.transform_data(data)
    coll = build_pdx(tdata, block_size=block_size)
    n, dim = tdata.shape
    total_values = n * dim
    powers = np.empty(len(queries))
    for qi, q in enumerate(queries):
        ctx = pruner.prepare(q, coll.dim_means)
        heap = TopK(k)
        scanned = 0
        for block in coll.blocks:
            threshold = heap.threshold
            cum = l2_cumulative(block.data, ctx.query, ctx.dim_order)
            if not np.isfinite(threshold):
                scanned += block.dim * block.n
                heap.update(block.ids, cum[-1])
                continue
            bounds = pruner.prune_bounds(ctx, threshold)
            mask = cum > bounds[:, None]  # (D, n): predicate at every dim
            any_pruned = mask.any(axis=0)
            first = np.argmax(mask, axis=0)  # first pruning dim (0-based)
            dims_scanned = np.where(any_pruned, first + 1, block.dim)
            scanned += int(dims_scanned.sum())
            survivors = ~any_pruned
            heap.update(block.ids[survivors], cum[-1, survivors])
        powers[qi] = 1.0 - scanned / total_values
    return powers


def power_summary(powers: np.ndarray) -> dict[str, float]:
    """The paper's four summary rows: best, p50, p25, worst (in %)."""
    return {
        "best": float(np.max(powers) * 100),
        "p50": float(np.percentile(powers, 50) * 100),
        "p25": float(np.percentile(powers, 25) * 100),
        "worst": float(np.min(powers) * 100),
    }


def pruning_power_table(
    datasets: dict[str, tuple[np.ndarray, np.ndarray]],
    pruner_factory,
    *,
    k: int = 10,
    block_size: int = PDX_BLOCK_SIZE,
) -> pd.DataFrame:
    """Build a Table 2/6-shaped frame: rows best/p50/p25/worst, one
    column per dataset. ``pruner_factory(dim, data) -> Pruner``."""
    cols: dict[str, dict[str, float]] = {}
    for name, (data, queries) in datasets.items():
        pruner = pruner_factory(data.shape[1], data)
        powers = pruning_power_trace(
            data, queries, pruner, k=k, block_size=block_size
        )
        cols[name] = power_summary(powers)
    frame = pd.DataFrame(cols)
    return frame.loc[["best", "p50", "p25", "worst"]]
