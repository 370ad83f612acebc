"""The benchmark's seams, checked in the test suite.

``perfbench/run.py`` reads the ``timers=`` phase keys the search core
fills in and swaps module-level names (``search_blocks``, ``TopK``,
``l2_accumulate``, ...) to count what the library does. A refactor that
renames a key or a swapped name makes those metrics read 0, which fails
here instead of passing as a silent change in the benchmark's numbers.
It only runs ``perfbench/``, at its tiny size, and never modifies it.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHARED = [
    "pdxearch.distance_ms.bond",
    "pdxearch.bounds_ms.bond",
    "pdxearch.query_prep_ms.bond",
    "pruners.values_touched_frac.bond",
    "pdxearch.blocks_per_query",
]


@pytest.mark.parametrize(
    "workload, positive",
    [("exact-glove50", SHARED), ("ivf-openai1536", SHARED + ["ivf.find_buckets_ms"])],
)
def test_traced_run_reads_the_library(workload, positive):
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--size", "tiny", "--seconds", "1", "--trace", "1", "--seed", "3",
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0 and out["attempted"] > 0
    zero = [m for m in positive if not out["metrics"][m]["value"] > 0]
    assert not zero, f"metrics read 0: {zero}"
