"""The PDX block layout (§3): blocked vertical storage + block metadata.

A :class:`PDXBlock` stores up to ``block_size`` vectors dimension-major:
``data[d, i]`` is dimension ``d`` of the block's ``i``-th vector, and each
dimension's values are contiguous (the tight inner loop of Algorithm 1).
Blocks carry per-dimension means — the metadata PDX-BOND's query-aware
dimension ordering consumes (§3 "Metadata per block", §5).

A :class:`PDXCollection` is an ordered list of blocks over a collection
(an IVF bucket, or a horizontal partition for exact search) plus
collection-level dimension means.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import PDX_BLOCK_SIZE


@dataclass
class PDXBlock:
    """One PDX block: ``data`` is (D, n) float32 C-contiguous, n ≤ block_size."""

    data: np.ndarray
    ids: np.ndarray  # (n,) int64 — global vector ids of the block's slots
    means: np.ndarray  # (D,) float32 — per-dimension means of this block

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[0]


@dataclass
class PDXCollection:
    """An ordered sequence of PDX blocks over one vector collection.

    All full blocks share one contiguous (nblocks, D, B) buffer
    (``stacked``; each block's ``data`` is a view into it) — PDX storage
    is physically one dimension-major buffer per block laid out
    back-to-back, and the shared buffer lets full linear scans run as a
    single stacked-kernel call instead of one call per block.
    """

    blocks: list[PDXBlock]
    dim: int
    block_size: int
    dim_means: np.ndarray  # (D,) collection-level means (exact-search BOND)
    stacked: np.ndarray | None = None  # (k, D, B) view over the full blocks
    stacked_ids: np.ndarray | None = None  # ids of the stacked vectors

    @property
    def n(self) -> int:
        return sum(b.n for b in self.blocks)


def build_pdx(
    data: np.ndarray,
    ids: np.ndarray | None = None,
    *,
    block_size: int = PDX_BLOCK_SIZE,
) -> PDXCollection:
    """Partition ``data`` (N, D) row-major into PDX blocks.

    Vectors keep their input order; the last block may be ragged. ``ids``
    default to 0…N−1 (positions in ``data``).
    """
    n, d = data.shape
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != (n,):
        raise ValueError(f"ids shape {ids.shape} != ({n},)")
    blocks: list[PDXBlock] = []
    n_full = (n // block_size) * block_size
    stacked = stacked_ids = None
    if n_full:
        stacked = stack_pdx(data[:n_full], block_size)  # one shared buffer
        stacked_ids = ids[:n_full].copy()
        for i in range(n_full // block_size):
            dm = stacked[i]  # contiguous view into the shared buffer
            blocks.append(
                PDXBlock(
                    data=dm,
                    ids=stacked_ids[i * block_size : (i + 1) * block_size],
                    means=dm.mean(axis=1).astype(np.float32),
                )
            )
    if n_full < n:  # ragged tail block
        dm = np.ascontiguousarray(data[n_full:].T, dtype=np.float32)
        blocks.append(
            PDXBlock(
                data=dm,
                ids=ids[n_full:].copy(),
                means=dm.mean(axis=1).astype(np.float32),
            )
        )
    return PDXCollection(
        blocks=blocks,
        dim=d,
        block_size=block_size,
        dim_means=data.mean(axis=0).astype(np.float32),
        stacked=stacked,
        stacked_ids=stacked_ids,
    )


def to_nary(coll: PDXCollection) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`build_pdx`: returns ``(data (N, D), ids (N,))``."""
    rows = [np.ascontiguousarray(b.data.T) for b in coll.blocks]
    ids = np.concatenate([b.ids for b in coll.blocks])
    return np.vstack(rows).astype(np.float32), ids


def stack_pdx(data: np.ndarray, block_size: int = PDX_BLOCK_SIZE) -> np.ndarray:
    """Dense (nblocks, D, B) PDX representation for the kernel benchmarks.

    Requires N to be a multiple of ``block_size`` (the Table 4/5 harness
    generates such sizes); use :func:`build_pdx` for ragged collections.
    """
    n, d = data.shape
    if n % block_size:
        raise ValueError(f"n={n} not a multiple of block_size={block_size}")
    k = n // block_size
    # (k, B, D) row-major chunks, transposed per block to (k, D, B).
    return np.ascontiguousarray(
        data.reshape(k, block_size, d).transpose(0, 2, 1), dtype=np.float32
    )


def to_dsm(data: np.ndarray) -> np.ndarray:
    """Fully decomposed layout: (D, N) C-contiguous (§7 'PDX vs DSM')."""
    return np.ascontiguousarray(data.T, dtype=np.float32)
