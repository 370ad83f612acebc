"""Pieces shared by the workloads: the closed-loop client, the result
record and the index-size walk."""
from __future__ import annotations

import contextlib
import dataclasses
from collections.abc import Callable
from time import perf_counter

import numpy as np

from gate import Gate, median, summary

K = 10


def NO_SPAN(name: str):  # noqa: N802 - stands in for Tracer.span
    """Span recorder of untraced runs: records nothing."""
    return contextlib.nullcontext()


Answer = Callable[[int], tuple[np.ndarray, np.ndarray]]


@dataclasses.dataclass
class Result:
    """What one workload run reports."""

    e2e: dict = dataclasses.field(default_factory=dict)  # name -> (value, unit)
    layer: dict = dataclasses.field(default_factory=dict)  # name -> (value, unit)
    lines: list = dataclasses.field(default_factory=list)  # human-readable report
    tracer: object = None  # the traced run's Tracer

    def put(self, table: dict, name: str, value: float, unit: str, note: str = "") -> None:
        table[name] = (float(value), unit)
        self.lines.append(f"{name} = {value:.6g} {unit}{'  ' + note if note else ''}")


@dataclasses.dataclass
class PathStats:
    latencies_ms: list = dataclasses.field(default_factory=list)
    recalls: list = dataclasses.field(default_factory=list)  # first pass only
    timers: list = dataclasses.field(default_factory=list)

    @property
    def recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls else 0.0


def closed_loop(
    paths: list[tuple[str, Answer, bool]],
    n_queries: int,
    seconds: float,
    gate: Gate,
    *,
    around: Callable | None = None,
) -> dict[str, PathStats]:
    """One client, no think time: query ``qi`` goes through every path in
    turn, the next call starts when the previous one returned. Cycles the
    query set until ``seconds`` have passed, and always finishes one full
    pass so recall covers every query. ``paths`` are ``(label, answer,
    exact)``; ``around(label, qi)``, when given, returns a context manager
    entered around each timed call (the traced run's root span)."""
    stats = {label: PathStats() for label, _, _ in paths}
    deadline = perf_counter() + seconds
    i = 0
    while i < n_queries or perf_counter() < deadline:
        qi = i % n_queries
        for label, answer, exact in paths:
            ctx = around(label, qi) if around else contextlib.nullcontext()
            try:
                with ctx:
                    t0 = perf_counter()
                    ids, dists = answer(qi)
                    t1 = perf_counter()
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                gate.error(label, qi, exc)
                continue
            stats[label].latencies_ms.append((t1 - t0) * 1e3)
            r = gate.check(label, qi, ids, dists, exact=exact)
            if r is not None and i < n_queries:
                stats[label].recalls.append(r)
        i += 1
    return stats


def report_path(res: Result, table: dict, label: str, st: PathStats) -> None:
    """``<label>.query_ms_p50/p90`` with sample counts and recall beside."""
    s = summary(st.latencies_ms)
    recall = f"recall@{K}={st.recall:.4f}"
    res.put(table, f"{label}.query_ms_p50", s["p50"], "ms", f"(n={s['n']}, {recall})")
    res.put(table, f"{label}.query_ms_p90", s["p90"], "ms", f"(n={s['n']}, {s['above_p90']} above, {recall})")
    res.put(table, f"{label}.recall_at_10", st.recall, "1", f"(n={len(st.recalls)} distinct queries)")


def batch_ms_per_query(latencies_ms: list[float], batch: int = 128) -> float:
    """Median over consecutive 128-call batches of batch time / batch."""
    a = np.asarray(latencies_ms)
    nb = len(a) // batch
    if nb == 0:
        return float(a.mean())
    return median(a[: nb * batch].reshape(nb, batch).mean(axis=1))


def nbytes_distinct(*roots) -> int:
    """Bytes of every NumPy buffer reachable from ``roots`` (dataclasses,
    plain objects, lists, tuples, dicts), each underlying buffer counted
    once however many views point into it."""
    seen_obj: set[int] = set()
    bases: dict[int, int] = {}
    todo = list(roots)
    while todo:
        o = todo.pop()
        if id(o) in seen_obj:
            continue
        seen_obj.add(id(o))
        if isinstance(o, np.ndarray):
            base = o
            while isinstance(base.base, np.ndarray):
                base = base.base
            bases[id(base)] = base.nbytes
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        elif isinstance(o, dict):
            todo.extend(o.values())
        elif hasattr(o, "__dict__"):  # dataclasses, SimpleNamespace, objects
            todo.extend(vars(o).values())
    return sum(bases.values())


def path_layer_metrics(res: Result, tracer, path: str, st: PathStats, dim: int) -> None:
    """Per-pruner PDXearch metrics of one traced path."""
    from tracing import timers_per_query

    prep = tracer.durations("pruners.prepare", path)
    res.put(res.layer, f"pruners.prepare_us.{path}", median(prep) * 1e6 if prep else 0.0, "us")
    res.put(
        res.layer,
        f"pruners.prune_mask_calls_per_query.{path}",
        tracer.per_query(path, "prune_mask_calls"),
        "count",
    )
    visited = tracer.counts[(path, "vectors_visited")]
    touched = tracer.counts[(path, "values_touched")]
    res.put(res.layer, f"pruners.values_touched_frac.{path}", touched / max(1, visited * dim), "1")
    phases = timers_per_query(st.timers)
    for phase in ("distance", "bounds", "query_prep"):
        res.put(res.layer, f"pdxearch.{phase}_ms.{path}", phases.get(phase, 0.0), "ms")


def bond_layer_metrics(res: Result, tracer, path: str = "bond") -> None:
    """Block and top-k counts of the PDX-BOND path."""
    res.put(res.layer, "pdxearch.blocks_per_query", tracer.per_query(path, "blocks"), "count")
    res.put(res.layer, "topk.update_calls_per_query", tracer.per_query(path, "topk_updates"), "count")
    res.put(res.layer, "topk.candidates_per_query", tracer.per_query(path, "topk_candidates"), "count")
    upd = tracer.durations("topk.update", path)
    res.put(res.layer, "topk.update_us", median(upd) * 1e6 if upd else 0.0, "us")


def kernel_metrics(res: Result, data: np.ndarray, query: np.ndarray, reps: int) -> None:
    """Distance kernels on the workload's own data: one full-collection
    call on each layout, and one 64-vector block accumulated over every
    dimension for all slots (WARMUP) and for 20 % of them (PRUNE)."""
    from repro.core.kernels import l2_accumulate, l2_nary, l2_pdx
    from repro.core.layout import stack_pdx
    from tracing import median_us

    n_full = len(data) // 64 * 64
    stacked = stack_pdx(data[:n_full])
    nary = np.ascontiguousarray(data[:n_full])
    q = np.ascontiguousarray(query, dtype=np.float32)
    pdx_ms = median_us(lambda: l2_pdx(stacked, q), reps) / 1e3
    nary_ms = median_us(lambda: l2_nary(nary, q), reps) / 1e3
    res.put(res.layer, "kernels.l2_pdx_ms", pdx_ms, "ms", f"({n_full} vectors, D={data.shape[1]})")
    res.put(res.layer, "kernels.l2_nary_ms", nary_ms, "ms")
    res.put(res.layer, "kernels.pdx_over_nary", pdx_ms / nary_ms, "x", "(base: kernels.l2_nary_ms)")
    block = stacked[0]
    dims = np.arange(data.shape[1])
    dists = np.zeros(64, dtype=np.float32)
    positions = np.arange(0, 64, 5)[:13]  # 13 of 64 slots, the 20 % PRUNE switch
    res.put(
        res.layer,
        "kernels.l2_accumulate_us.warmup",
        median_us(lambda: l2_accumulate(block, q, dists, dims), 20 * reps),
        "us",
    )
    res.put(
        res.layer,
        "kernels.l2_accumulate_us.prune",
        median_us(lambda: l2_accumulate(block, q, dists, dims, positions), 20 * reps),
        "us",
    )


def overhead_metrics(res: Result, untraced: dict, traced: dict) -> None:
    """Tracing overhead: traced minus untraced mean time per call, over
    the paths both halves of the traced run measured."""
    u = sum(float(np.mean(untraced[p].latencies_ms)) for p in traced)
    t = sum(float(np.mean(traced[p].latencies_ms)) for p in traced)
    res.put(res.layer, "trace.overhead_ms_per_query", (t - u) / len(traced), "ms")
    res.put(res.layer, "trace.overhead_frac", t / u - 1.0, "1", "(base: untraced mean)")


LAYERS = ("query", "ivf", "search", "pdxearch", "pruners", "kernels", "topk", "spark")


def self_time_metrics(res: Result, tracer, n_queries: int) -> None:
    """Self time per layer per traced query, from the query spans only."""
    per = tracer.self_time_by_layer()
    for layer in LAYERS:
        res.put(res.layer, f"trace.self_ms_per_query.{layer}", 1e3 * per.get(layer, 0.0) / max(1, n_queries), "ms")
