"""PDXearch (§4): adaptive dimension-by-dimension pruned search.

The framework scans a sequence of PDX blocks with three phases:

- **START** — while the top-k heap holds fewer than k candidates (the
  pruning threshold is +inf), blocks are scanned fully; the first block
  seeds the threshold.
- **WARMUP** — dimensions are fetched at exponentially growing steps
  (2, 4, 8, …); partial distances are accumulated for *all* vectors of
  the block (no break-off — random access would cost more than it
  saves), and the pruning predicate runs in a separate vectorized pass.
- **PRUNE** — once the surviving fraction drops below
  ``selection_fraction`` (paper sweet spot: 20 %), only surviving
  positions are accumulated and tested.

At the last dimension survivors carry their full (exact-in-transformed-
space) distance and are merged into the heap, tightening the threshold
for subsequent blocks. The framework changes *scheduling only* — which
dimensions are looked at when — never the pruner's semantics, so an
exact pruner (PDX-BOND) yields exact results and an approximate one
(ADSampling/BSA) keeps its own recall guarantees.

``timers`` (optional dict) accumulates wall-clock seconds into the
Table 7 phases through :func:`lap`: ``"distance"`` (kernel
accumulation), ``"bounds"`` (predicate evaluation) and ``"query_prep"``
(``pruner.prepare``). Queries are checked by :func:`check_query` first:
a NaN/inf value or a wrong dimension raises ``ValueError``.
"""
from __future__ import annotations

from collections.abc import Iterable
from time import perf_counter

import numpy as np

from repro.core.kernels import l2_accumulate, l2_pdx
from repro.core.layout import PDXBlock, PDXCollection
from repro.core.pruners import Pruner, QueryContext
from repro.core.topk import TopK


def lap(timers: dict | None, key: str, t0: float) -> float:
    """Add the seconds since ``t0`` to ``timers[key]`` and return now,
    the start of the next phase. Without ``timers`` the clock is not
    read and 0.0 is returned: the untimed path pays one call per phase."""
    if timers is None:
        return 0.0
    now = perf_counter()
    timers[key] = timers.get(key, 0.0) + now - t0
    return now


def check_query(query: np.ndarray, dim: int) -> None:
    """Raise ``ValueError`` unless ``query`` is a finite vector of ``dim``
    values."""
    shape = np.shape(query)
    if shape != (dim,):
        got = shape[0] if len(shape) == 1 else shape
        raise ValueError(f"query dimension {got} != collection dimension {dim}")
    if not np.isfinite(query).all():
        raise ValueError("query must be finite (found NaN or inf)")


def dimension_steps(dim: int, *, fixed: int | None = None) -> list[int]:
    """Step sizes covering ``dim`` dimensions.

    Adaptive (default): 2, 4, 8, … doubling — Issue #1's fix. With
    ``fixed`` set, constant Δd chunks (the ADSampling/BSA original
    schedule, used for the adaptive-vs-fixed comparison).
    """
    steps: list[int] = []
    left = dim
    step = fixed if fixed is not None else 2
    while left > 0:
        s = min(step, left)
        steps.append(s)
        left -= s
        if fixed is None:
            step *= 2
    return steps


def _scan_block_full(
    block: PDXBlock, ctx: QueryContext, heap: TopK, timers: dict | None
) -> None:
    dists = np.zeros(block.n, dtype=np.float32)
    t0 = perf_counter()
    l2_accumulate(block.data, ctx.query, dists, ctx.dim_order)
    lap(timers, "distance", t0)
    heap.update(block.ids, dists)


def _scan_block_pruned(
    block: PDXBlock,
    ctx: QueryContext,
    pruner: Pruner,
    heap: TopK,
    *,
    selection_fraction: float,
    steps: list[int],
    timers: dict | None,
) -> None:
    threshold = heap.threshold
    dists = np.zeros(block.n, dtype=np.float32)
    alive = np.ones(block.n, dtype=bool)
    positions: np.ndarray | None = None  # None => WARMUP (no break-off)
    scanned = 0
    order = ctx.dim_order
    t0 = perf_counter()
    for step in steps:
        dims = order[scanned : scanned + step]
        scanned += len(dims)
        l2_accumulate(block.data, ctx.query, dists, dims, positions)
        t0 = lap(timers, "distance", t0)
        if scanned >= block.dim:
            break  # full distances reached; no point testing the predicate
        if positions is None:
            alive &= ~pruner.prune_mask(dists, scanned, threshold, ctx)
            # Also taken when every vector is pruned: positions is then empty.
            if int(alive.sum()) <= selection_fraction * block.n:
                positions = np.flatnonzero(alive)
        else:
            pruned = pruner.prune_mask(dists[positions], scanned, threshold, ctx)
            positions = positions[~pruned]
        t0 = lap(timers, "bounds", t0)
        if positions is not None and len(positions) == 0:
            return
    survivors = positions if positions is not None else np.flatnonzero(alive)
    heap.update(block.ids[survivors], dists[survivors])


def search_blocks(
    blocks: Iterable[PDXBlock],
    ctx: QueryContext,
    pruner: Pruner,
    heap: TopK,
    *,
    selection_fraction: float = 0.2,
    fixed_step: int | None = None,
    timers: dict | None = None,
) -> TopK:
    """Run PDXearch over a block stream, threshold propagating block to
    block through ``heap``. The stream may span multiple collections
    (IVF buckets in centroid-rank order)."""
    for block in blocks:
        if not np.isfinite(heap.threshold):
            _scan_block_full(block, ctx, heap, timers)  # START phase
            continue
        _scan_block_pruned(
            block,
            ctx,
            pruner,
            heap,
            selection_fraction=selection_fraction,
            steps=dimension_steps(block.dim, fixed=fixed_step),
            timers=timers,
        )
    return heap


def pdxearch(
    coll: PDXCollection,
    query: np.ndarray,
    k: int,
    pruner: Pruner,
    *,
    selection_fraction: float = 0.2,
    fixed_step: int | None = None,
    timers: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact/approximate KNN over one PDX collection (no index).

    Returns ``(ids, dists)`` ascending by distance. The query must be in
    the *original* space; the pruner transforms it (the collection must
    have been built over ``pruner.transform_data`` output).
    """
    check_query(query, coll.dim)
    t0 = perf_counter()
    ctx = pruner.prepare(query, coll.dim_means)
    lap(timers, "query_prep", t0)
    heap = TopK(k)
    search_blocks(
        coll.blocks,
        ctx,
        pruner,
        heap,
        selection_fraction=selection_fraction,
        fixed_step=fixed_step,
        timers=timers,
    )
    return heap.result()


def pdx_linear_scan(
    coll: PDXCollection, query: np.ndarray, k: int, *, timers: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact linear scan on the PDX layout (PDX-LINEAR-SCAN baseline).

    The full blocks live in one contiguous (k, D, B) buffer, so they are
    scanned with a single stacked-kernel call (Algorithm 1 over every
    block back-to-back); a ragged tail block is scanned separately.
    """
    check_query(query, coll.dim)
    q = np.ascontiguousarray(query, dtype=np.float32)
    heap = TopK(k)
    n_stacked = 0
    if coll.stacked is not None:
        t0 = perf_counter()
        dists = l2_pdx(coll.stacked, q)
        lap(timers, "distance", t0)
        heap.update(coll.stacked_ids, dists)
        n_stacked = len(coll.stacked)
    ctx = QueryContext(query=q, dim_order=np.arange(coll.dim))
    for block in coll.blocks[n_stacked:]:  # the stacked blocks come first
        _scan_block_full(block, ctx, heap, timers)
    return heap.result()
