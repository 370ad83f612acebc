"""Benchmark of the PDX reproduction: IVF, exact and Spark KNN.

Run from the repository root:

    python3 perfbench/run.py --workload ivf-openai1536 --seed 0 --seconds 15 --trace 0

Workloads, metric names and units come from ``BENCHMARK.json`` at the
root; ``perfbench/NOTES.md`` says why each workload and metric is there.
The program under test is imported from ``src/`` of the same checkout
and nowhere else. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, holding the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Everything before it is a human-readable report: the run's fingerprint,
each metric with its unit, sample count and the recall beside it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _pin_environment(workload: str) -> SimpleNamespace:
    """Thread counts and import path, set before NumPy or Spark load.

    At most 4 threads and never more than the cores this process may
    use. Local workloads give them to BLAS; the Spark workload gives them
    to Spark task slots and pins BLAS to 1 so the two do not multiply.
    Spark's Python workers inherit ``PYTHONPATH`` and so import ``repro``
    from this checkout.
    """
    threads = min(4, len(os.sched_getaffinity(0)))
    blas = 1 if workload.startswith("spark") else threads
    for var in BLAS_VARS:
        os.environ[var] = str(blas)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    return SimpleNamespace(threads=threads, blas=blas)


def _fingerprint(env, args, inp) -> list[str]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import pyspark

        spark_version = pyspark.__version__
    except ImportError:
        spark_version = "absent"
    master = f"local[{env.threads}]" if args.workload.startswith("spark") else "none"
    return [
        f"workload={args.workload} seed={args.seed} data_seed={args.data_seed} size={args.size} "
        f"seconds={args.seconds} trace={args.trace}",
        f"inputs: collection {inp.data.shape} queries {inp.queries.shape} sha256[:16]={inp.digest}",
        f"cpu={cpu!r} nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} pyspark={spark_version} blas_threads={env.blas} spark_master={master}",
    ]


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True, help="picks the held-out queries")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data-seed", type=int, default=0, help="draw of the collection (0 unless held out)")
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test inputs")
    args = ap.parse_args(argv)

    env = _pin_environment(args.workload)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import wl_exact
    import wl_ivf
    import wl_spark

    module = {"ivf-openai1536": wl_ivf, "exact-glove50": wl_exact, "spark-glove50": wl_spark}[args.workload]
    cfg = SimpleNamespace(
        seed=args.seed,
        data_seed=args.data_seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size=args.size,
        threads=env.threads,
        out_dir=OUT_DIR,
    )
    res, gate, inp = module.run(cfg)

    failed_frac = gate.failed / max(1, gate.attempted)
    res.lines.append(f"failed_frac = {failed_frac:.6g} 1  ({gate.failed} of {gate.attempted} answers)")
    res.lines.extend(f"  failure: {r}" for r in gate.reasons)
    if args.trace:
        res.layer["failed_frac"] = (failed_frac, "1")
        wanted, got = spec["per_layer"], res.layer
        path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
        res.tracer.write(path)
        res.lines.append(f"spans: {len(res.tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        wanted, got = spec["end_to_end"], res.e2e
    metrics = {}
    for m in wanted:
        # A per-layer metric of a layer this workload does not reach is 0.
        value, unit = got.get(m["name"], (0.0, m["unit"])) if args.trace else got[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit!r}, BENCHMARK.json says {m['unit']!r}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    if set(got) - set(metrics):
        raise ValueError(f"metrics missing from BENCHMARK.json: {sorted(set(got) - set(metrics))}")

    for line in _fingerprint(env, args, inp) + res.lines:
        print(line)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
