"""IVF index substrate with PDX buckets (§2.1, Figure 2, §6.3).

:func:`build_ivf` clusters the collection once (Lloyd's k-means,
``nlist ≈ √n`` centroids by default — the FAISS/Milvus convention the
paper cites). All competitors then share the *same* bucket membership,
as in the paper's setup ("all competitors share the same IVF index").

Per-algorithm searchers wrap the shared index:

- :class:`IVFPDXSearcher` — buckets stored as PDX blocks over the
  pruner's transformed space; search streams nprobe buckets' blocks
  through PDXearch with one shared heap (threshold propagates across
  buckets). Centroids are stored as one PDX block, so "find nearest
  buckets" is one PDX-kernel call (Table 7's observation).
- :class:`IVFNarySearcher` — buckets stored row-major; either a plain
  linear scan per bucket (FAISS IVF_FLAT stand-in) or the Δd-stepped
  horizontal pruned search (SIMD-ADS / N-ary BSA stand-ins).

Both share one prologue: the pruner's transform of data and centroids,
the dimension means PDX-BOND orders by, and per query the input check,
``prepare`` and the bucket ranking, timed as ``query_prep`` and
``find_buckets``. Only the centroid-distance kernel differs.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.kernels import l2_nary, l2_pdx
from repro.core.layout import PDXCollection, build_pdx, stack_pdx
from repro.core.pdxearch import check_query, lap, search_blocks
from repro.core.pruners import Pruner, QueryContext
from repro.core.topk import TopK
from repro.ivf.kmeans import kmeans
from repro.search.horizontal import horizontal_pruned_search


@dataclass
class IVFIndex:
    """Shared clustering: raw-space centroids + per-bucket global ids."""

    centroids: np.ndarray  # (nlist, D) float32, raw space
    bucket_ids: list[np.ndarray]  # global vector ids per bucket

    @property
    def nlist(self) -> int:
        return len(self.bucket_ids)


def build_ivf(
    data: np.ndarray, *, nlist: int | None = None, iters: int = 8, seed: int = 0
) -> IVFIndex:
    n = len(data)
    if nlist is None:
        nlist = max(1, int(np.sqrt(n)))
    centroids, labels = kmeans(data, nlist, iters=iters, seed=seed)
    buckets = [np.flatnonzero(labels == c).astype(np.int64) for c in range(nlist)]
    return IVFIndex(centroids=centroids, bucket_ids=buckets)


class _IVFSearcher:
    """The prologue both searchers share (see the module docstring).

    Subclasses lay out the transformed buckets and centroids
    (``_store``) and compute query-to-centroid distances
    (``_centroid_distances``).
    """

    def __init__(self, index: IVFIndex, data: np.ndarray, pruner: Pruner):
        self.index = index
        self.pruner = pruner
        tdata = pruner.transform_data(data)
        # Collection-level means for query-aware ordering (PDX-BOND).
        self.dim_means = tdata.mean(axis=0).astype(np.float32)
        self._store(tdata, pruner.transform_data(index.centroids))

    def _store(self, tdata: np.ndarray, tcentroids: np.ndarray) -> None:
        raise NotImplementedError

    def _centroid_distances(self, query: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _prologue(
        self, query: np.ndarray, nprobe: int, timers: dict | None
    ) -> tuple[QueryContext, np.ndarray]:
        """Prepared query context and the ``nprobe`` nearest buckets."""
        check_query(query, len(self.dim_means))
        t0 = perf_counter()
        ctx = self.pruner.prepare(query, self.dim_means)
        t0 = lap(timers, "query_prep", t0)
        cdists = self._centroid_distances(ctx.query)
        probe = np.argsort(cdists, kind="stable")[:nprobe]
        lap(timers, "find_buckets", t0)
        return ctx, probe


class IVFPDXSearcher(_IVFSearcher):
    """PDXearch over IVF buckets stored in the PDX layout."""

    def _store(self, tdata: np.ndarray, tcentroids: np.ndarray) -> None:
        self.centroids = stack_pdx(tcentroids, len(tcentroids))  # one block
        self.buckets: list[PDXCollection] = [
            build_pdx(tdata[ids], ids=ids) for ids in self.index.bucket_ids
        ]

    def _centroid_distances(self, query: np.ndarray) -> np.ndarray:
        return l2_pdx(self.centroids, query)

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        nprobe: int,
        fixed_step: int | None = None,
        timers: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        ctx, probe = self._prologue(query, nprobe, timers)
        heap = TopK(k)
        blocks = (b for c in probe for b in self.buckets[c].blocks)
        search_blocks(blocks, ctx, self.pruner, heap, fixed_step=fixed_step, timers=timers)
        return heap.result()


class IVFNarySearcher(_IVFSearcher):
    """Horizontal-layout search over the same IVF buckets."""

    def _store(self, tdata: np.ndarray, tcentroids: np.ndarray) -> None:
        self.centroids = tcentroids
        self.buckets = [
            (np.ascontiguousarray(tdata[ids]), ids) for ids in self.index.bucket_ids
        ]

    def _centroid_distances(self, query: np.ndarray) -> np.ndarray:
        return l2_nary(self.centroids, query)

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        nprobe: int,
        pruned: bool = True,
        delta_d: int = 32,
        timers: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``pruned=True`` → Δd-stepped pruning (SIMD-ADS shape);
        ``pruned=False`` → plain linear bucket scans (FAISS IVF_FLAT)."""
        ctx, probe = self._prologue(query, nprobe, timers)
        heap = TopK(k)
        for c in probe:
            bdata, bids = self.buckets[c]
            if len(bids) == 0:
                continue
            if pruned and np.isfinite(heap.threshold):
                horizontal_pruned_search(
                    bdata, bids, ctx, self.pruner, heap, delta_d=delta_d, timers=timers
                )
            else:
                t0 = perf_counter()
                d = l2_nary(bdata, ctx.query)
                lap(timers, "distance", t0)
                heap.update(bids, d)
        return heap.result()
