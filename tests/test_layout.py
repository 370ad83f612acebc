"""PDX layout construction: round-trips, raggedness, metadata."""
import numpy as np
import pytest

from repro.core import layout
from repro.vecdata import random_collection


@pytest.mark.parametrize("n,block", [(64, 64), (130, 64), (1000, 64), (37, 16), (512, 128)])
def test_build_roundtrip(n, block):
    data = random_collection(n, 24, seed=n)
    coll = layout.build_pdx(data, block_size=block)
    back, ids = layout.to_nary(coll)
    np.testing.assert_array_equal(back, data)
    np.testing.assert_array_equal(ids, np.arange(n))
    assert coll.n == n


def test_block_shapes_and_contiguity():
    data = random_collection(130, 10, seed=0)
    coll = layout.build_pdx(data, block_size=64)
    assert [b.n for b in coll.blocks] == [64, 64, 2]
    for b in coll.blocks:
        assert b.data.shape[0] == 10
        assert b.data.flags.c_contiguous
        assert b.data.dtype == np.float32


def test_dimension_major_within_block():
    data = random_collection(64, 5, seed=1)
    b = layout.build_pdx(data).blocks[0]
    # data[d, i] must equal vector i's dimension d
    np.testing.assert_allclose(b.data[3], data[:, 3], rtol=1e-6)


def test_custom_ids_preserved():
    data = random_collection(70, 4, seed=2)
    ids = np.arange(1000, 1070)
    coll = layout.build_pdx(data, ids=ids)
    _, back_ids = layout.to_nary(coll)
    np.testing.assert_array_equal(back_ids, ids)


def test_bad_ids_rejected():
    data = random_collection(10, 4, seed=3)
    with pytest.raises(ValueError):
        layout.build_pdx(data, ids=np.arange(9))


def test_block_means_metadata():
    data = random_collection(64, 8, seed=4)
    b = layout.build_pdx(data).blocks[0]
    np.testing.assert_allclose(b.means, data.mean(axis=0), rtol=1e-4, atol=1e-5)


def test_collection_dim_means():
    data = random_collection(200, 8, seed=5)
    coll = layout.build_pdx(data)
    np.testing.assert_allclose(coll.dim_means, data.mean(axis=0), rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("block", [16, 64, 256])
def test_stack_unstack_roundtrip(block):
    data = random_collection(block * 4, 12, seed=6)
    st = layout.stack_pdx(data, block)
    assert st.shape == (4, 12, block)
    assert st.flags.c_contiguous
    np.testing.assert_array_equal(st.transpose(0, 2, 1).reshape(-1, 12), data)


def test_stack_rejects_ragged():
    data = random_collection(100, 12, seed=7)
    with pytest.raises(ValueError):
        layout.stack_pdx(data, 64)


def test_to_dsm():
    data = random_collection(50, 6, seed=8)
    dm = layout.to_dsm(data)
    assert dm.shape == (6, 50) and dm.flags.c_contiguous
    np.testing.assert_array_equal(dm.T, data)
