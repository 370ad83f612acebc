"""Correctness gate, recall and latency summaries.

Every answer the benchmark gets back goes through :meth:`Gate.check`.
Exact answers (PDX-BOND on a whole collection, the PDX linear scan,
Spark ``knn`` with PDX-BOND) must match a float64 brute-force ground
truth: same ids, except that ids whose true distance lies within float32
rounding of the k-th distance may swap, and every returned distance must
equal the float64 distance of its id within float32 rounding.
Approximate answers (ADSampling, BSA, any IVF search) must be well
formed: k unique in-range ids, finite distances, ascending. A call that
raised counts as failed too. Nothing is dropped: ``failed`` counts every
answer that did not pass, and the first few reasons are kept.
"""
from __future__ import annotations

import numpy as np

U32 = 2.0**-24  # float32 unit roundoff


def ground_truth(data: np.ndarray, queries: np.ndarray, k: int):
    """Float64 brute force: ``(ids (q, k), dists (q, k))``, ties by id."""
    x = data.astype(np.float64)
    norms = (x * x).sum(axis=1)
    ids = np.empty((len(queries), k), dtype=np.int64)
    dists = np.empty((len(queries), k))
    for s in range(0, len(queries), 64):
        q = queries[s : s + 64].astype(np.float64)
        d2 = norms[None, :] - 2.0 * (q @ x.T) + (q * q).sum(axis=1)[:, None]
        # The norm expansion picks a few spare candidates; the direct
        # formula then ranks them without its cancellation error.
        m = min(k + 16, len(x))
        part = np.argpartition(d2, m - 1, axis=1)[:, :m]
        for j, cand in enumerate(part):
            exact = ((x[cand] - q[j]) ** 2).sum(axis=1)
            order = np.lexsort((cand, exact))[:k]
            ids[s + j], dists[s + j] = cand[order], exact[order]
    return ids, dists


class Gate:
    """Checks answers for one collection against its ground truth."""

    def __init__(self, data: np.ndarray, queries: np.ndarray, k: int):
        self.data, self.queries, self.k = data, queries, k
        self.gt_ids, self.gt_dists = ground_truth(data, queries, k)
        # |float32 distance - float64 distance| <= tol * distance: D
        # rounded products summed in float32, plus the subtraction.
        self.rtol = 2.0 * (data.shape[1] + 4) * U32
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def _fail(self, label: str, qi: int, why: str) -> None:
        self.failed += 1
        if len(self.reasons) < 8:
            self.reasons.append(f"{label} q{qi}: {why}")

    def error(self, label: str, qi: int, exc: BaseException) -> None:
        """Record a call that raised instead of answering."""
        self.attempted += 1
        self._fail(label, qi, f"raised {type(exc).__name__}: {exc}")

    def check(self, label: str, qi: int, ids, dists, *, exact: bool) -> float | None:
        """Check one answer to query ``qi``; returns its recall@k, or
        None when the answer failed."""
        self.attempted += 1
        k, n = self.k, len(self.data)
        ids = np.asarray(ids)
        dists = np.asarray(dists, dtype=np.float64)
        if ids.shape != (k,) or dists.shape != (k,):
            return self._fail(label, qi, f"shape {ids.shape}/{dists.shape} != ({k},)")
        if not np.issubdtype(ids.dtype, np.integer):
            return self._fail(label, qi, f"ids dtype {ids.dtype}")
        if len(np.unique(ids)) != k or ids.min() < 0 or ids.max() >= n:
            return self._fail(label, qi, "duplicate or out-of-range ids")
        if not np.isfinite(dists).all() or (np.diff(dists) < 0).any():
            return self._fail(label, qi, "distances not finite and ascending")
        if exact:
            why = self._exact_mismatch(qi, ids, dists)
            if why:
                return self._fail(label, qi, why)
        return len(set(ids.tolist()) & set(self.gt_ids[qi].tolist())) / k

    def _exact_mismatch(self, qi: int, ids: np.ndarray, dists: np.ndarray) -> str:
        q = self.queries[qi].astype(np.float64)
        true = ((self.data[ids].astype(np.float64) - q) ** 2).sum(axis=1)
        tol = self.rtol * np.maximum(true, 1e-30)
        if (np.abs(dists - true) > tol).any():
            i = int(np.argmax(np.abs(dists - true) - tol))
            return f"id {ids[i]} dist {dists[i]!r} != float64 {true[i]!r}"
        kth = self.gt_dists[qi, -1]
        band = self.rtol * max(kth, 1e-30)
        extra = np.setdiff1d(ids, self.gt_ids[qi])
        missing = np.setdiff1d(self.gt_ids[qi], ids)
        # A swap is allowed only between ids tied with the k-th distance
        # up to float32 rounding.
        if len(extra) and true[np.isin(ids, extra)].max() > kth + band:
            return f"ids {extra.tolist()} not in the true top-{self.k}"
        if len(missing) and self.gt_dists[qi][np.isin(self.gt_ids[qi], missing)].min() < kth - band:
            return f"true neighbours {missing.tolist()} missing"
        return ""


def summary(values_ms: list[float]) -> dict:
    """Median and p90 of per-call times with their sample counts."""
    a = np.asarray(values_ms, dtype=np.float64)
    return {
        "n": len(a),
        "p50": float(np.percentile(a, 50)),
        "p90": float(np.percentile(a, 90)),
        "above_p90": int((a > np.percentile(a, 90)).sum()),
    }


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))
