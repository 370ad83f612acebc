"""Tracing for the traced run, all of it outside the library.

Spans are recorded by the benchmark's own code around calls into
``repro`` and kept in memory; :meth:`Tracer.write` dumps them at the end.
Calls the library makes internally (PDXearch calling the kernel, the
pruner and the top-k) are reached by :func:`instrument`, which swaps the
module-level names those calls resolve through for counting wrappers and
puts the originals back on exit. Untraced runs never enter it.
"""
from __future__ import annotations

import contextlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from repro.core import pdxearch as pdxearch_mod
from repro.core.pruners import Pruner
from repro.core.topk import TopK
from repro.ivf import index as ivf_mod
from repro.search import exact as exact_mod


class Tracer:
    """Spans ``[name, start, end, parent, query id]`` plus counters.

    Counters are keyed by the current path label (``ads``, ``bond``, ...)
    so per-pruner ratios come out of one run.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.qid: int | None = None
        self.path = ""
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.qid])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    @contextlib.contextmanager
    def query(self, path: str, qid: int):
        """Root span of one query on one path."""
        self.path, self.qid = path, qid
        self.counts[(path, "queries")] += 1
        try:
            with self.span(f"query.{path}"):
                yield
        finally:
            self.qid = None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.path, key)] += n

    def per_query(self, path: str, key: str) -> float:
        q = self.counts[(path, "queries")]
        return self.counts[(path, key)] / q if q else 0.0

    def durations(self, name: str, path: str | None = None) -> list[float]:
        """Durations (s) of spans called ``name``, optionally only those
        under a ``query.<path>`` root."""
        out = []
        for i, (n, t0, t1, _, _) in enumerate(self.spans):
            if n == name and (path is None or self._root(i) == f"query.{path}"):
                out.append(t1 - t0)
        return out

    def _root(self, i: int) -> str:
        while self.spans[i][3] >= 0:
            i = self.spans[i][3]
        return self.spans[i][0]

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds per layer (span-name prefix) not covered by child
        spans, over the spans of queries (set-up spans are left out)."""
        child = defaultdict(float)
        for n, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (n, t0, t1, _, qid) in enumerate(self.spans):
            if qid is not None:
                out[n.split(".", 1)[0]] += (t1 - t0) - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "query"],
                    "spans": self.spans,
                    "counts": [[p, k, v] for (p, k), v in sorted(self.counts.items())],
                },
                f,
            )


class CountingPruner(Pruner):
    """Delegates to a real pruner; spans ``prepare`` and ``prune_mask`` and
    counts the predicate calls and the vectors they test."""

    def __init__(self, inner: Pruner, tracer: Tracer):
        super().__init__(inner.dim)
        self.inner, self.tracer = inner, tracer
        self.name, self.exact = inner.name, inner.exact

    def transform_data(self, data):
        return self.inner.transform_data(data)

    def prepare(self, query, coll=None):
        with self.tracer.span("pruners.prepare"):
            return self.inner.prepare(query, coll)

    def prune_mask(self, partial, nscanned, threshold, ctx):
        self.tracer.count("prune_mask_calls")
        self.tracer.count("prune_mask_vectors", len(partial))
        with self.tracer.span("pruners.prune_mask"):
            return self.inner.prune_mask(partial, nscanned, threshold, ctx)

    def prune_bounds(self, ctx, threshold):
        return self.inner.prune_bounds(ctx, threshold)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the library's internal calls through counting wrappers.

    - ``search_blocks`` (PDXearch over a block stream): a span, and a
      block iterator that counts blocks and vectors visited;
    - ``TopK``: a subclass whose ``update`` is spanned and counts calls
      and candidates merged;
    - ``l2_accumulate`` / ``l2_pdx``: spans, and the dimension values
      each call reads (the paper's pruning power, measured live);
    - ``build_pdx`` inside IVF searchers: a span;
    - ``PDXBond`` as built by ``pdx_bond_search``: a :class:`CountingPruner`.
    """
    real = {
        (pdxearch_mod, "search_blocks"): pdxearch_mod.search_blocks,
        (ivf_mod, "search_blocks"): ivf_mod.search_blocks,
        (pdxearch_mod, "TopK"): pdxearch_mod.TopK,
        (ivf_mod, "TopK"): ivf_mod.TopK,
        (pdxearch_mod, "l2_accumulate"): pdxearch_mod.l2_accumulate,
        (pdxearch_mod, "l2_pdx"): pdxearch_mod.l2_pdx,
        (ivf_mod, "build_pdx"): ivf_mod.build_pdx,
        (exact_mod, "PDXBond"): exact_mod.PDXBond,
    }

    def counted_blocks(blocks):
        for b in blocks:
            tracer.count("blocks")
            tracer.count("vectors_visited", b.n)
            yield b

    def search_blocks(blocks, ctx, pruner, heap, **kw):
        with tracer.span("pdxearch.search_blocks"):
            return real[(pdxearch_mod, "search_blocks")](counted_blocks(blocks), ctx, pruner, heap, **kw)

    class CountingTopK(TopK):
        def update(self, ids, dists):
            tracer.count("topk_updates")
            tracer.count("topk_candidates", len(ids))
            with tracer.span("topk.update"):
                super().update(ids, dists)

    def l2_accumulate(block, query, dists, dim_idx, positions=None):
        width = block.shape[1] if positions is None else len(positions)
        tracer.count("values_touched", len(dim_idx) * width)
        with tracer.span("kernels.l2_accumulate"):
            real[(pdxearch_mod, "l2_accumulate")](block, query, dists, dim_idx, positions)

    def l2_pdx(stacked, query):
        tracer.count("values_touched", stacked.size)
        with tracer.span("kernels.l2_pdx"):
            return real[(pdxearch_mod, "l2_pdx")](stacked, query)

    def build_pdx(*args, **kw):
        with tracer.span("layout.build_pdx"):
            return real[(ivf_mod, "build_pdx")](*args, **kw)

    def pdx_bond(*args, **kw):
        return CountingPruner(real[(exact_mod, "PDXBond")](*args, **kw), tracer)

    fakes = {
        "search_blocks": search_blocks,
        "TopK": CountingTopK,
        "l2_accumulate": l2_accumulate,
        "l2_pdx": l2_pdx,
        "build_pdx": build_pdx,
        "PDXBond": pdx_bond,
    }
    for (mod, name) in real:
        setattr(mod, name, fakes[name])
    try:
        yield
    finally:
        for (mod, name), fn in real.items():
            setattr(mod, name, fn)


def timers_per_query(timers_list: list[dict]) -> dict[str, float]:
    """Mean ms per query of each ``timers=`` phase over a list of
    per-query timer dicts."""
    keys = {k for t in timers_list for k in t}
    n = max(1, len(timers_list))
    return {k: 1e3 * sum(t.get(k, 0.0) for t in timers_list) / n for k in sorted(keys)}


def median_us(fn, reps: int) -> float:
    """Median wall time of ``fn()`` in microseconds."""
    out = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        out.append(perf_counter() - t0)
    return float(np.median(out) * 1e6)
