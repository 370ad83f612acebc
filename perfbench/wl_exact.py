"""exact-glove50: exact search on one machine at D = 50.

``pdx_bond_search`` over ``build_exact_collection`` (a few partition-sized
blocks) and ``pdx_linear_scan`` over 64-vector ``build_pdx`` blocks (one
stacked ``l2_pdx`` call). Little arithmetic per vector, so block
dispatch, ``TopK`` merges and the stacked kernel call dominate. Same
collection as spark-glove50 without Spark: a Spark-only change must
leave this workload unchanged.
"""
from __future__ import annotations

from time import perf_counter

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
from repro.core.layout import build_pdx, to_dsm
from repro.core.pdxearch import pdxearch
from repro.core.pruners import PDXBond
from repro.search.exact import (
    brute_force_dsm,
    brute_force_nary,
    build_exact_collection,
    pdx_bond_search,
    pdx_linear_scan,
)

# The glove50 collection is shared with spark-glove50: same n and pool.
SIZES = {
    "full": {"n": 24_000, "queries": 256, "pool": 2048},
    "tiny": {"n": 1_500, "queries": 16, "pool": 128},
}
SETUP_REPS = 25


def build(data, span=NO_SPAN):
    """Raw vectors in memory to both collections: the set-up."""
    with span("layout.build_exact_collection"):
        exact = build_exact_collection(data)
    with span("layout.build_pdx"):
        b64 = build_pdx(data)
    return exact, b64


def _paths(exact, b64, queries, timers: dict | None = None, span=None):
    def bond(qi):
        if timers is None:
            return pdx_bond_search(exact, queries[qi], K)
        timers["bond"].append(t := {})
        with span("search.pdx_bond_search"):
            return pdx_bond_search(exact, queries[qi], K, timers=t)

    def linear(qi):
        if timers is None:
            return pdx_linear_scan(b64, queries[qi], K)
        with span("pdxearch.pdx_linear_scan"):
            return pdx_linear_scan(b64, queries[qi], K)

    return [("bond", bond, True), ("linear", linear, True)]


def run(cfg) -> tuple[Result, Gate, object]:
    size = SIZES[cfg.size]
    inp = make_inputs("glove50", size["n"], size["queries"], seed=cfg.seed, data_seed=cfg.data_seed, pool=size["pool"])
    data, queries = inp.data, inp.queries
    nq = len(queries)
    gate = Gate(data, queries, K)
    res = Result()
    if not cfg.trace:
        times = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            exact, b64 = build(data)
            times.append(perf_counter() - t0)
        res.put(res.e2e, "setup_s", median(times), "s", f"(median of {len(times)} builds)")
        res.put(res.e2e, "index_mb", nbytes_distinct(exact, b64) / 1e6, "MB")
        stats = closed_loop(_paths(exact, b64, queries), nq, cfg.seconds, gate)
        report_path(res, res.e2e, "bond", stats["bond"])
        res.put(res.e2e, "bond.batch128_ms_per_query", batch_ms_per_query(stats["bond"].latencies_ms), "ms")
        report_path(res, {}, "linear", stats["linear"])
        return res, gate, inp

    from tracing import Tracer, instrument

    tracer = Tracer()
    exact, b64 = build(data, tracer.span)
    res.put(res.layer, "layout.build_pdx_s", sum(tracer.durations("layout.build_pdx")), "s", "(64-vector blocks)")
    res.put(res.layer, "layout.mb", nbytes_distinct(exact, b64) / 1e6, "MB")

    half = cfg.seconds / 2
    untraced = closed_loop(_paths(exact, b64, queries), nq, half, gate)
    report_path(res, {}, "bond", untraced["bond"])
    report_path(res, res.layer, "linear", untraced["linear"])

    timers = {"bond": []}
    with instrument(tracer):
        traced = closed_loop(_paths(exact, b64, queries, timers, tracer.span), nq, half, gate, around=tracer.query)
    traced["bond"].timers = timers["bond"]
    path_layer_metrics(res, tracer, "bond", traced["bond"], data.shape[1])
    bond_layer_metrics(res, tracer)
    overhead_metrics(res, untraced, traced)
    self_time_metrics(res, tracer, sum(len(st.latencies_ms) for st in traced.values()))

    # The paper's exact-search baselines, and PDXearch over 64-vector
    # blocks: the per-block path Spark executors run.
    dsm = to_dsm(data)
    bond = PDXBond(data.shape[1])
    ref_paths = [
        ("search.brute_force_nary", lambda qi: brute_force_nary(data, queries[qi], K), True),
        ("search.brute_force_dsm", lambda qi: brute_force_dsm(dsm, queries[qi], K), True),
        ("pdxearch.b64_bond", lambda qi: pdxearch(b64, queries[qi], K, bond), True),
    ]
    ref = closed_loop(ref_paths, min(nq, 32), 0.0, gate)
    for name, st in ref.items():
        metric = "pdxearch.b64_bond_query_ms" if name == "pdxearch.b64_bond" else f"{name}.query_ms_p50"
        res.put(res.layer, metric, summary(st.latencies_ms)["p50"], "ms", f"(n={len(st.latencies_ms)})")
    kernel_metrics(res, data, queries[0], reps=30)
    res.tracer = tracer
    return res, gate, inp
