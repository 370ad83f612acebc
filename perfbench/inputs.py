"""Deterministic benchmark inputs.

The benchmark owns its generator instead of calling ``repro.vecdata``:
``vecdata.generate`` seeds its RNG with ``hash((name, seed))``, which
changes with ``PYTHONHASHSEED``, and a later change to the library's
generator must not silently change what the benchmark measures.

The model is the one ``vecdata._sample`` draws from (clustered low-rank
latent vectors, per-dimension scales, ``exp`` for the skewed class), and
the draw order is the same, so ``sample(name, n, default_rng(s))`` equals
``vecdata._sample(DATASETS[name], n, default_rng(s))`` bit for bit at the
commit this benchmark was written against (the self-test reports whether
that still holds).

A workload's *collection* is fixed: the first ``n`` rows of one draw with
``data_seed`` (0 unless a held-out collection is asked for), like the
fixed datasets of ANN benchmarks. ``--seed`` picks the *queries*: a
seed-dependent subset of the held-out rows of that same draw. Measured on
openai1536, the IVF latency of one pruner moves by ~2x between collection
draws, so a seed-dependent collection would hide any change behind
run-to-run spread.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# name -> (dim, distribution class); the two stand-ins the workloads use.
SPECS = {"glove50": (50, "normal"), "openai1536": (1536, "skewed")}


def sample(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` float32 vectors of stand-in ``name`` (see module docstring)."""
    d, distribution = SPECS[name]
    r = max(4, d // 16)
    n_clusters = 64
    w = rng.normal(0.0, 1.0, size=(r, d)) / np.sqrt(r)
    centers_latent = rng.normal(0.0, 2.0, size=(n_clusters, r))
    dim_scale = rng.uniform(0.5, 2.0, size=d)
    dim_shift = rng.normal(0.0, 1.0, size=d)
    c = rng.integers(0, n_clusters, size=n)
    z = centers_latent[c] + rng.normal(0.0, 1.4, size=(n, r))
    x = z @ w + rng.normal(0.0, 0.15, size=(n, d))
    if distribution == "skewed":
        x = np.exp(0.6 * x)
    x = x * dim_scale + (dim_shift if distribution == "normal" else 0.0)
    return np.ascontiguousarray(x, dtype=np.float32)


@dataclass(frozen=True)
class Inputs:
    name: str
    data: np.ndarray  # (n, D) float32 collection
    queries: np.ndarray  # (q, D) float32 held-out queries

    @property
    def digest(self) -> str:
        """sha256 over shapes and bytes of collection and queries."""
        h = hashlib.sha256()
        for a in (self.data, self.queries):
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()[:16]


def make_inputs(
    name: str, n: int, n_queries: int, *, seed: int, data_seed: int = 0, pool: int = 2048
) -> Inputs:
    """Collection of ``n`` rows plus ``n_queries`` held-out queries.

    Same ``(name, n, n_queries, seed, data_seed, pool)`` gives
    byte-identical arrays in every process.
    """
    if n_queries > pool:
        raise ValueError(f"n_queries={n_queries} > held-out pool={pool}")
    rows = sample(name, n + pool, np.random.default_rng(data_seed))
    pick = np.random.default_rng([data_seed, seed]).choice(pool, n_queries, replace=False)
    return Inputs(name, rows[:n], np.ascontiguousarray(rows[n + np.sort(pick)]))
