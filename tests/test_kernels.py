"""Kernel correctness: every layout's kernel must agree with a float64
NumPy reference on identical data (the paper's kernels are exact
rearrangements of the same arithmetic)."""
import numpy as np
import pytest

from repro.core import kernels
from repro.core.layout import build_pdx, stack_pdx, to_dsm
from repro.vecdata import random_collection

DIMS = [8, 16, 32, 64, 128, 1536]
SIZES = [64, 192, 1024]


def _ref(data, q, metric):
    x, qq = data.astype(np.float64), q.astype(np.float64)
    if metric == "l2":
        return ((x - qq) ** 2).sum(axis=1)
    if metric == "l1":
        return np.abs(x - qq).sum(axis=1)
    return x @ qq


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


@pytest.mark.parametrize("metric", ["l2", "l1", "ip"])
@pytest.mark.parametrize("dim", DIMS)
def test_nary_kernels_match_reference(metric, dim, rng):
    data = random_collection(256, dim, seed=dim)
    q = rng.standard_normal(dim).astype(np.float32)
    got = kernels.METRICS_NARY[metric](data, q)
    np.testing.assert_allclose(got, _ref(data, q, metric), rtol=2e-3, atol=1e-3)


@pytest.mark.parametrize("metric", ["l2", "l1", "ip"])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_pdx_kernels_match_nary(metric, dim, n, rng):
    data = random_collection(n, dim, seed=dim * 31 + n)
    q = rng.standard_normal(dim).astype(np.float32)
    stacked = stack_pdx(data, 64)
    got = kernels.METRICS_PDX[metric](stacked, q)
    want = kernels.METRICS_NARY[metric](data, q)
    np.testing.assert_allclose(got, want, rtol=2e-3, atol=1e-3)


@pytest.mark.parametrize("dim", [8, 50, 420])
def test_dsm_kernel_matches_reference(dim, rng):
    data = random_collection(300, dim, seed=dim)
    q = rng.standard_normal(dim).astype(np.float32)
    got = kernels.l2_dsm(to_dsm(data), q)
    np.testing.assert_allclose(got, _ref(data, q, "l2"), rtol=2e-3, atol=1e-3)


# ------------------------------------------------------- partial accumulation

@pytest.mark.parametrize("dim", [16, 96])
def test_l2_accumulate_full_range_equals_full_distance(dim, rng):
    data = random_collection(64, dim, seed=1)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    dists = np.zeros(64, dtype=np.float32)
    kernels.l2_accumulate(block.data, q, dists, np.arange(dim))
    np.testing.assert_allclose(dists, _ref(data, q, "l2"), rtol=2e-3, atol=1e-3)


def test_l2_accumulate_two_halves_sum_to_whole(rng):
    dim = 32
    data = random_collection(64, dim, seed=2)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    dists = np.zeros(64, dtype=np.float32)
    kernels.l2_accumulate(block.data, q, dists, np.arange(0, 16))
    kernels.l2_accumulate(block.data, q, dists, np.arange(16, 32))
    np.testing.assert_allclose(dists, _ref(data, q, "l2"), rtol=2e-3, atol=1e-3)


def test_l2_accumulate_permuted_order_invariant(rng):
    dim = 50
    data = random_collection(64, dim, seed=3)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    perm = rng.permutation(dim)
    dists = np.zeros(64, dtype=np.float32)
    kernels.l2_accumulate(block.data, q, dists, perm)
    np.testing.assert_allclose(dists, _ref(data, q, "l2"), rtol=2e-3, atol=1e-3)


def test_l2_accumulate_positions_only_touches_positions(rng):
    dim = 24
    data = random_collection(64, dim, seed=4)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    dists = np.zeros(64, dtype=np.float32)
    pos = np.array([3, 17, 42], dtype=np.int64)
    kernels.l2_accumulate(block.data, q, dists, np.arange(dim), pos)
    ref = _ref(data, q, "l2")
    np.testing.assert_allclose(dists[pos], ref[pos], rtol=2e-3, atol=1e-3)
    untouched = np.setdiff1d(np.arange(64), pos)
    assert np.all(dists[untouched] == 0)


def test_l2_cumulative_last_row_is_full_distance(rng):
    dim = 30
    data = random_collection(64, dim, seed=7)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    cum = kernels.l2_cumulative(block.data, q, np.arange(dim))
    assert cum.shape == (dim, 64)
    np.testing.assert_allclose(cum[-1], _ref(data, q, "l2"), rtol=2e-3, atol=1e-3)
    assert np.all(np.diff(cum, axis=0) >= -1e-5)  # monotone non-decreasing


def test_l2_cumulative_respects_dim_order(rng):
    dim = 20
    data = random_collection(64, dim, seed=8)
    block = build_pdx(data).blocks[0]
    q = rng.standard_normal(dim).astype(np.float32)
    order = rng.permutation(dim)
    cum = kernels.l2_cumulative(block.data, q, order)
    first = (block.data[order[0]] - q[order[0]]) ** 2
    np.testing.assert_allclose(cum[0], first, rtol=1e-5)


def test_pdx_block_size_constant():
    assert kernels.PDX_BLOCK_SIZE == 64  # paper default (Table 5)
