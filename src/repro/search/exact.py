"""Exact KNN drivers on every layout (§6.5 competitors).

- :func:`brute_force_nary` — horizontal linear scan with the N-ary
  kernel: algorithmically what FAISS flat / USearch exact / Sklearn
  brute force do (SIMD kernel per vector + top-k).
- :func:`brute_force_dsm` — linear scan on the fully decomposed layout.
- :func:`pdx_linear_scan` (re-exported) — linear scan on PDX blocks.
- :func:`pdx_bond_search` — PDX-BOND exact pruned search via PDXearch.

All return ``(ids, dists)`` with squared-L2 distances ascending, ties
broken by id (the :class:`~repro.core.topk.TopK` order).
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import METRICS_NARY, l2_dsm
from repro.core.layout import PDXCollection, build_pdx
from repro.core.pdxearch import pdx_linear_scan, pdxearch
from repro.core.pruners import PDXBond
from repro.core.topk import TopK


def brute_force_nary(
    data: np.ndarray, query: np.ndarray, k: int, *, metric: str = "l2"
) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal linear scan (FAISS-flat style) over (N, D) row-major data."""
    dists = METRICS_NARY[metric](data, query)
    if metric == "ip":
        dists = -dists  # smaller-is-better convention
    heap = TopK(k)
    heap.update(np.arange(len(data)), dists)
    return heap.result()


def brute_force_dsm(
    data_dm: np.ndarray, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Linear scan on the DSM layout ((D, N) dimension-major, §7)."""
    dists = l2_dsm(data_dm, query)
    heap = TopK(k)
    heap.update(np.arange(data_dm.shape[1]), dists)
    return heap.result()


def pdx_bond_search(
    coll: PDXCollection,
    query: np.ndarray,
    k: int,
    *,
    order: str = "means",
    timers: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact PDX-BOND search over a PDX collection.

    For exact search the paper uses large horizontal partitions (≤10 k
    vectors per block) and the "distance to means" order; callers pick
    the block size when building ``coll``.
    """
    pruner = PDXBond(coll.dim, order=order)
    return pdxearch(coll, query, k, pruner, timers=timers)


def build_exact_collection(
    data: np.ndarray, ids: np.ndarray | None = None, *, block_size: int | None = None
) -> PDXCollection:
    """PDX collection for exact search: equally sized horizontal
    partitions of at most 10 k vectors (paper §6.5).

    The default scales with the collection so the first block — scanned
    fully by PDXearch's START phase to seed the threshold — stays "a
    small percentage of all data" (§4) even at reproduction scale: the
    paper's fixed 10 k is ~1 % of its 1M-vector collections. ``ids``
    default to positions in ``data``, as in :func:`build_pdx`.
    """
    if block_size is None:
        block_size = int(np.clip(len(data) // 16, 64, 10_000))
    return build_pdx(data, ids, block_size=block_size)
