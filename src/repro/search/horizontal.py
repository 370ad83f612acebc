"""Pruned search on the *horizontal* (N-ary) layout — the paper's
"SIMD-ADS" / "N-ary BSA" baselines (§6.3, Table 7).

The search is vector-at-a-time: for each vector, distance is accumulated
in Δd-dimension slices; after each slice the pruning predicate runs and
may break off the vector (the fixed-step schedule of the original
ADSampling/BSA implementations, Δd = 32). The per-vector predicate
interleaving — the branchy control flow the paper blames for the
horizontal layout losing to plain SIMD scans — is inherent to this code
shape.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.pdxearch import lap
from repro.core.pruners import Pruner
from repro.core.topk import TopK


def horizontal_pruned_search(
    data: np.ndarray,
    ids: np.ndarray,
    query_ctx,
    pruner: Pruner,
    heap: TopK,
    *,
    delta_d: int = 32,
    timers: dict | None = None,
) -> TopK:
    """Scan ``data`` (already in the pruner's transformed space, (N, D)
    row-major) vector-at-a-time with Δd-stepped pruning.

    ``query_ctx`` must come from ``pruner.prepare`` (transformed query).
    The heap is shared across calls so IVF can chain buckets.
    """
    q = query_ctx.query
    d = data.shape[1]
    steps = list(range(0, d, delta_d)) + [d]
    for i in range(len(data)):
        vec = data[i]
        threshold = heap.threshold
        partial = 0.0
        pruned = False
        t0 = perf_counter()
        for s in range(len(steps) - 1):
            d0, d1 = steps[s], steps[s + 1]
            diff = vec[d0:d1] - q[d0:d1]
            partial += float(diff @ diff)
            t0 = lap(timers, "distance", t0)
            if d1 >= d:
                break
            out = pruner.prune_mask(
                np.array([partial], dtype=np.float32), d1, threshold, query_ctx
            )[0]
            t0 = lap(timers, "bounds", t0)
            if out:
                pruned = True
                break
        if not pruned:
            heap.update(ids[i : i + 1], np.array([partial]))
    return heap
