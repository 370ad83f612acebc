"""Distance kernels on the three layouts the paper compares (§3, §6.2).

The paper's kernels are C++ scalar loops that LLVM auto-vectorizes. Here
NumPy ufunc/einsum loops play the role of the compiled SIMD loops; the
*layout-driven loop shape* — what the paper actually measures — is
preserved:

- **N-ary (horizontal)**: each vector's D values are contiguous; the
  kernel reduces along each vector (one reduction per vector, inner loop
  length = D). This is the FAISS/SimSIMD-style baseline.
- **PDX (blocked vertical)**: vectors are grouped in blocks of ``B``;
  within a block each dimension's ``B`` values are contiguous. The kernel
  accumulates dimension-by-dimension into a ``B``-wide distances array
  (inner loop length = B, independent of D, no per-vector reduction) —
  Algorithm 1 of the paper.
- **DSM (fully decomposed)**: one array per dimension over the *whole*
  collection; accumulation streams an N-wide distances array D times
  (the extra LOAD/STOREs the paper blames for DSM losing to PDX, §7).

All kernels take float32 C-contiguous inputs and return float (squared
L2, L1, or inner product — raw, not negated).
"""
from __future__ import annotations

import numpy as np

#: Paper default: 64 vectors per PDX block (§3, Table 5).
PDX_BLOCK_SIZE = 64


# --------------------------------------------------------------------------
# N-ary (horizontal) kernels — the "explicit SIMD on horizontal layout"
# baseline. One reduction per vector, along axis 1.
# --------------------------------------------------------------------------

def l2_nary(data: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of ``query`` to every row of ``data``."""
    diff = data - query
    return np.einsum("nd,nd->n", diff, diff)


def l1_nary(data: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Manhattan distance to every row of ``data``."""
    return np.abs(data - query).sum(axis=1)


def ip_nary(data: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Inner product of ``query`` with every row of ``data``."""
    return np.einsum("nd,d->n", data, query)


# --------------------------------------------------------------------------
# PDX kernels. A PDX-stacked collection is a (nblocks, D, B) C-contiguous
# array: block-major, then dimension-major inside the block (see
# repro.core.layout). The reduction runs over the middle (dimension) axis
# with a contiguous B-wide inner loop — Algorithm 1 vectorized over the
# block, with no per-vector reduction step.
# --------------------------------------------------------------------------

def l2_pdx(stacked: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared L2 over a PDX-stacked collection; returns (nblocks*B,)."""
    diff = stacked - query[None, :, None]
    return np.einsum("kdb,kdb->kb", diff, diff).ravel()


def l1_pdx(stacked: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = stacked - query[None, :, None]
    return np.abs(diff).sum(axis=1).ravel()


def ip_pdx(stacked: np.ndarray, query: np.ndarray) -> np.ndarray:
    return np.einsum("kdb,d->kb", stacked, query).ravel()


# --------------------------------------------------------------------------
# DSM kernel: data_dm is (D, N) C-contiguous (one full dimension per row).
# The accumulator is N-wide, re-streamed once per dimension.
# --------------------------------------------------------------------------

def l2_dsm(data_dm: np.ndarray, query: np.ndarray) -> np.ndarray:
    d, n = data_dm.shape
    acc = np.zeros(n, dtype=np.float32)
    for i in range(d):
        diff = data_dm[i] - query[i]
        acc += diff * diff
    return acc


# --------------------------------------------------------------------------
# Partial / resumable kernels — the PDXearch workhorses. They *accumulate*
# into a caller-owned distances array over a dimension range (WARMUP) or
# over an explicit positions array (PRUNE phase break-off).
# ``block`` is a single (D, B) C-contiguous PDX block.
# --------------------------------------------------------------------------

def l2_accumulate(
    block: np.ndarray,
    query: np.ndarray,
    dists: np.ndarray,
    dim_idx: np.ndarray,
    positions: np.ndarray | None = None,
) -> None:
    """Add the squared-L2 contribution of dimensions ``dim_idx``.

    ``dim_idx`` is an array of dimension indices (PDX-BOND visits them in
    query-aware order; ADSampling/BSA pass contiguous ranges). When
    ``positions`` is given, only those vector slots are updated (PRUNE
    phase); otherwise all B slots are (WARMUP phase — no break-off).
    """
    qsub = query[dim_idx]
    if positions is None:
        diff = block[dim_idx] - qsub[:, None]
        dists += np.einsum("db,db->b", diff, diff)
    else:
        # PRUNE phase: gather only (dims × positions) — never full rows.
        diff = block[np.ix_(dim_idx, positions)] - qsub[:, None]
        dists[positions] += np.einsum("db,db->b", diff, diff)


def l2_cumulative(block: np.ndarray, query: np.ndarray, dim_idx: np.ndarray) -> np.ndarray:
    """Prefix partial distances: out[j] = Σ_{i≤j} (v[dim_idx_i] − q[dim_idx_i])².

    Used by the Δd=1 pruning-power traces (Tables 2 and 6): one cumsum
    gives the partial distance of every vector after *every* dimension,
    so the first-pruned dimension can be found analytically instead of
    looping the search dimension-at-a-time.
    """
    diff = block[dim_idx] - query[dim_idx, None]
    return np.cumsum(diff * diff, axis=0)


METRICS_NARY = {"l2": l2_nary, "l1": l1_nary, "ip": ip_nary}
METRICS_PDX = {"l2": l2_pdx, "l1": l1_pdx, "ip": ip_pdx}
