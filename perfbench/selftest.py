"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload of ``BENCHMARK.json``, untraced and traced, at tiny
   size: the last line is the contract's JSON with exactly the listed
   metrics and units, every answer passed, and the report names every
   end-to-end metric with its unit.
2. The correctness gate passes a brute-force answer and trips on each
   kind of wrong one.
3. Inputs are byte-identical across processes with different
   ``PYTHONHASHSEED``, and differ between seeds.
4. In a directory that holds only ``BENCHMARK.json`` and ``perfbench/``
   the benchmark exits non-zero without printing a result.

Exits 0 when every check passes; prints each failed check.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def workloads(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{w['name']} --trace {trace}"
            p = run_bench(ROOT, "--workload", w["name"], "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
            lines = p.stdout.strip().splitlines()
            check(p.returncode == 0 and bool(lines), f"{tag}: exits 0 with output")
            if p.returncode or not lines:
                print(p.stderr[-3000:])
                continue
            out = json.loads(lines[-1])
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, f"{tag}: every answer correct")
            check(
                {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in wanted},
                f"{tag}: exactly the listed metrics, with their units",
            )
            if not trace:
                report = "\n".join(lines[:-1])
                check(
                    all(f"{m['name']} = " in report and f" {m['unit']}" in report for m in wanted)
                    and "failed_frac = " in report,
                    f"{tag}: report names every end-to-end metric",
                )
                check(all(v["value"] != 0 for v in out["metrics"].values()), f"{tag}: no end-to-end metric is 0")


def gate() -> None:
    import numpy as np

    sys.path.insert(0, HERE)
    from gate import Gate

    rng = np.random.default_rng(0)
    data = rng.standard_normal((500, 16)).astype(np.float32)
    queries = rng.standard_normal((4, 16)).astype(np.float32)
    g = Gate(data, queries, 10)
    ids, dists = g.gt_ids[0].copy(), g.gt_dists[0].astype(np.float32).astype(np.float64)
    check(g.check("ok", 0, ids, dists, exact=True) == 1.0 and g.failed == 0, "gate: brute-force answer passes")
    d_all = ((data.astype(np.float64) - queries[0]) ** 2).sum(1)
    far = int(np.argmax(d_all))
    wrong = [
        ("a far id, with its true distance, in place of the k-th", np.r_[ids[:-1], far], np.r_[dists[:-1], d_all[far]]),
        ("a distance off by more than float32 rounding", ids, dists * np.r_[np.ones(9), 1.001]),
        ("distances not ascending", ids[::-1], dists[::-1]),
        ("k - 1 results", ids[:-1], dists[:-1]),
        ("a duplicate id", np.r_[ids[:-1], ids[0]], dists),
        ("a NaN distance", ids, np.r_[dists[:-1], np.nan]),
    ]
    for what, bad_ids, bad_dists in wrong:
        before = g.failed
        g.check("bad", 0, bad_ids, bad_dists, exact=True)
        check(g.failed == before + 1, f"gate trips on {what}")
    before = g.failed
    g.check("approx", 0, np.r_[ids[:-1], far], np.sort(np.r_[dists[:-1], dists[-1] * 2]), exact=False)
    check(g.failed == before, "gate: a well-formed approximate answer passes")
    g.error("raised", 1, RuntimeError("boom"))
    check(g.failed == before + 1 and g.attempted == 9, "gate counts a call that raised")


def inputs() -> None:
    snippet = (
        "import sys; sys.path.insert(0, 'perfbench'); from inputs import make_inputs; "
        "print(make_inputs('glove50', 3000, 16, seed=int(sys.argv[1]), pool=128).digest)"
    )
    digests = {}
    for hashseed, seed in (("1", "5"), ("2", "5"), ("3", "6")):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        p = subprocess.run([sys.executable, "-c", snippet, seed], cwd=ROOT, env=env, capture_output=True, text=True)
        digests[(hashseed, seed)] = p.stdout.strip()
    check(digests[("1", "5")] == digests[("2", "5")] != "", "inputs: same seed, other PYTHONHASHSEED, same bytes")
    check(digests[("1", "5")] != digests[("3", "6")], "inputs: another seed gives other queries")

    import numpy as np

    from inputs import sample
    from repro import vecdata

    same = np.array_equal(sample("glove50", 300, np.random.default_rng(0)), vecdata._sample(vecdata.DATASETS["glove50"], 300, np.random.default_rng(0)))
    print(f"info inputs.sample equals vecdata._sample at this commit: {same}")


def bare_directory() -> None:
    bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        p = run_bench(bare, "--workload", "exact-glove50", "--seed", "0", "--seconds", "1", "--trace", "0")
        printed = p.stdout.strip().splitlines()
        check(p.returncode != 0 and not (printed and printed[-1].startswith("{")), "bare directory: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    gate()
    inputs()
    bare_directory()
    workloads(spec)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)
