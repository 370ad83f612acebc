"""Property-based tests (Hypothesis) for the core invariants."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import vecdata
from repro.core import kernels, layout
from repro.core.pdxearch import dimension_steps
from repro.core.topk import TopK
from repro.search.exact import (
    brute_force_dsm,
    brute_force_nary,
    pdx_bond_search,
    pdx_linear_scan,
)

shapes = st.tuples(st.integers(1, 200), st.integers(1, 40))


@given(shapes, st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_layout_roundtrip_any_shape(shape, seed):
    n, d = shape
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d)).astype(np.float32)
    coll = layout.build_pdx(data, block_size=16)
    back, ids = layout.to_nary(coll)
    np.testing.assert_array_equal(back, data)
    np.testing.assert_array_equal(ids, np.arange(n))


@given(shapes, st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_pdx_kernel_equals_nary_any_shape(shape, seed):
    n, d = shape
    n = (max(n, 16) // 16) * 16  # stacked layout needs a multiple
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d)).astype(np.float32)
    q = rng.standard_normal(d).astype(np.float32)
    got = kernels.l2_pdx(layout.stack_pdx(data, 16), q)
    want = kernels.l2_nary(data, q)
    np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-3)


@given(
    st.integers(1, 20),
    st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=300),
)
@settings(max_examples=50, deadline=None)
def test_topk_always_matches_sort(k, values):
    dists = np.array(values)
    ids = np.arange(len(dists), dtype=np.int64)
    h = TopK(k)
    # feed in arbitrary chunks of 7
    for s in range(0, len(dists), 7):
        h.update(ids[s : s + 7], dists[s : s + 7])
    got_ids, got_d = h.result()
    order = np.lexsort((ids, dists))[:k]
    np.testing.assert_array_equal(got_ids, ids[order])
    np.testing.assert_allclose(got_d, dists[order])


@given(st.integers(1, 4096), st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_dimension_steps_partition_dims(dim, fixed):
    adaptive = dimension_steps(dim)
    assert sum(adaptive) == dim and all(s > 0 for s in adaptive)
    # doubling schedule except possibly the clipped last step
    for a, b in zip(adaptive, adaptive[1:-1]):
        assert b == 2 * a
    stepped = dimension_steps(dim, fixed=fixed)
    assert sum(stepped) == dim and max(stepped) <= fixed


@given(st.integers(2, 64), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_accumulate_order_invariance(d, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((32, d)).astype(np.float32)
    block = layout.build_pdx(data, block_size=32).blocks[0]
    q = rng.standard_normal(d).astype(np.float32)
    ref = np.zeros(32, dtype=np.float32)
    kernels.l2_accumulate(block.data, q, ref, np.arange(d))
    perm = rng.permutation(d)
    got = np.zeros(32, dtype=np.float32)
    kernels.l2_accumulate(block.data, q, got, perm)
    np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-3)


@given(
    st.integers(1, 40),  # n
    st.integers(1, 6),  # D
    st.integers(1, 50),  # k, often > n
    st.sampled_from([4, 64]),  # block size: several blocks, or n < B
    st.booleans(),  # every vector a duplicate of the first
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_exact_searches_equal_ground_truth_at_edges(n, d, k, block, dup, seed):
    """Small-integer coordinates keep every distance exact in float32 in
    any dimension order, so ties are true ties; every exact search must
    then return ground truth's ids, ties broken by id."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-2, 3, size=(n, d)).astype(np.float32)
    if dup:
        data[:] = data[0]
    q = rng.integers(-2, 3, size=d).astype(np.float32)
    gt_ids, gt_d = vecdata.ground_truth(data, q[None], k)
    coll = layout.build_pdx(data, block_size=block)
    for ids, dists in (
        pdx_bond_search(coll, q, k),
        pdx_linear_scan(coll, q, k),
        brute_force_nary(data, q, k),
        brute_force_dsm(layout.to_dsm(data), q, k),
    ):
        np.testing.assert_array_equal(ids, gt_ids[0])
        np.testing.assert_array_equal(dists, gt_d[0])
