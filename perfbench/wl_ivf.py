"""ivf-openai1536: PDXearch over IVF buckets at D = 1536.

``build_ivf`` (nlist 100) is shared by three ``IVFPDXSearcher``s, one per
pruner: ADSampling, BSA and PDX-BOND with dimension zones. Every query
goes through the three in turn at a fixed nprobe of 8. At this D the
distance arithmetic and the D x D query transform in ``prepare`` do most
of the work, so kernel, pruner and IVF changes show here.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

from common import (
    K,
    NO_SPAN,
    Result,
    batch_ms_per_query,
    bond_layer_metrics,
    closed_loop,
    kernel_metrics,
    nbytes_distinct,
    overhead_metrics,
    path_layer_metrics,
    report_path,
    self_time_metrics,
)
from gate import Gate, median, summary
from inputs import make_inputs
from repro.core.pruners import BSA, ADSampling, PDXBond, Pruner
from repro.ivf.index import IVFNarySearcher, IVFPDXSearcher, build_ivf

SIZES = {
    "full": {"n": 10_000, "queries": 400, "pool": 1024, "nlist": 100},
    "tiny": {"n": 1_200, "queries": 12, "pool": 64, "nlist": 12},
}
NPROBE = 8
PATHS = ("ads", "bsa", "bond")
SETUP_REPS = 3


def build(data: np.ndarray, nlist: int, span=NO_SPAN):
    """Raw vectors in memory to searchers ready to query: the set-up."""
    d = data.shape[1]
    with span("ivf.build_ivf"):
        index = build_ivf(data, nlist=nlist)
    with span("pruners.init.ads"):
        ads = ADSampling(d)
    with span("pruners.fit.bsa"):
        bsa = BSA(d).fit(data)
    searchers = {}
    for label, pruner in (("ads", ads), ("bsa", bsa), ("bond", PDXBond(d, order="zones"))):
        with span(f"ivf.searcher.{label}"):
            searchers[label] = IVFPDXSearcher(index, data, pruner)
    return index, searchers


def _paths(searchers, queries, timers: dict | None = None, span=None):
    """``(label, answer, exact)`` per pruner; IVF answers are approximate.
    With ``timers`` each call gets a fresh ``timers=`` dict, kept per path."""

    def answer(label):
        s = searchers[label]

        def call(qi):
            if timers is None:
                return s.search(queries[qi], K, nprobe=NPROBE)
            t: dict = {}
            timers[label].append(t)
            with span("ivf.search"):
                return s.search(queries[qi], K, nprobe=NPROBE, timers=t)

        return call

    return [(label, answer(label), False) for label in PATHS]


def run(cfg) -> tuple[Result, Gate, object]:
    size = SIZES[cfg.size]
    inp = make_inputs(
        "openai1536", size["n"], size["queries"], seed=cfg.seed, data_seed=cfg.data_seed, pool=size["pool"]
    )
    data, queries = inp.data, inp.queries
    nq = len(queries)
    gate = Gate(data, queries, K)
    res = Result()
    if not cfg.trace:
        times = []
        for _ in range(SETUP_REPS):
            index = searchers = None  # hold one built index at a time
            t0 = perf_counter()
            index, searchers = build(data, size["nlist"])
            times.append(perf_counter() - t0)
        res.put(res.e2e, "setup_s", median(times), "s", f"(median of {len(times)} builds)")
        res.put(res.e2e, "index_mb", nbytes_distinct(index, searchers) / 1e6, "MB")
        stats = closed_loop(_paths(searchers, queries), nq, cfg.seconds, gate)
        for label in ("ads", "bsa"):
            report_path(res, {}, label, stats[label])
        report_path(res, res.e2e, "bond", stats["bond"])
        res.put(res.e2e, "bond.batch128_ms_per_query", batch_ms_per_query(stats["bond"].latencies_ms), "ms")
        return res, gate, inp

    from tracing import CountingPruner, Tracer, instrument, timers_per_query

    tracer = Tracer()
    t0 = perf_counter()
    with instrument(tracer):
        index, searchers = build(data, size["nlist"], tracer.span)
    res.lines.append(f"setup (traced, 1 build) = {perf_counter() - t0:.4g} s")
    res.put(res.layer, "ivf.build_s", sum(tracer.durations("ivf.build_ivf")), "s")
    res.put(res.layer, "layout.build_pdx_s", sum(tracer.durations("layout.build_pdx")), "s", "(all buckets, 3 searchers)")
    res.put(res.layer, "layout.mb", nbytes_distinct([s.buckets for s in searchers.values()]) / 1e6, "MB")

    half = cfg.seconds / 2
    untraced = closed_loop(_paths(searchers, queries), nq, half, gate)
    for label in PATHS:
        report_path(res, res.layer if label != "bond" else {}, label, untraced[label])

    timers = {label: [] for label in PATHS}
    real = {label: s.pruner for label, s in searchers.items()}
    try:
        for label, s in searchers.items():
            s.pruner = CountingPruner(real[label], tracer)
        with instrument(tracer):
            traced = closed_loop(
                _paths(searchers, queries, timers, tracer.span), nq, half, gate, around=tracer.query
            )
    finally:
        for label, s in searchers.items():
            s.pruner = real[label]
    for label in PATHS:
        traced[label].timers = timers[label]
        path_layer_metrics(res, tracer, label, traced[label], data.shape[1])
    bond_layer_metrics(res, tracer)
    res.put(res.layer, "ivf.find_buckets_ms", timers_per_query(timers["bond"]).get("find_buckets", 0.0), "ms", "(bond path)")
    res.put(res.layer, "ivf.vectors_probed_per_query", tracer.per_query("bond", "vectors_visited"), "count")
    overhead_metrics(res, untraced, traced)
    self_time_metrics(res, tracer, sum(len(st.latencies_ms) for st in traced.values()))

    # The paper's N-ary baselines over the same buckets, for reference.
    n_ref = min(nq, 40)
    nary = {
        "ivf.nary_ads": (IVFNarySearcher(index, data, searchers["ads"].pruner), True),
        "ivf.flat": (IVFNarySearcher(index, data, Pruner(data.shape[1])), False),
    }
    ref_paths = [
        (name, lambda qi, s=s, p=p: s.search(queries[qi], K, nprobe=NPROBE, pruned=p), False)
        for name, (s, p) in nary.items()
    ]
    ref = closed_loop(ref_paths, n_ref, 0.0, gate)
    for name, st in ref.items():
        res.put(
            res.layer,
            f"{name}.query_ms_p50",
            summary(st.latencies_ms)["p50"],
            "ms",
            f"(n={len(st.latencies_ms)}, recall@{K}={st.recall:.4f})",
        )
    kernel_metrics(res, data, queries[0], reps=10)
    res.tracer = tracer
    return res, gate, inp
