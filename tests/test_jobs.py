"""Every per-table job runs end-to-end at tiny scale and emits the
expected table shape."""
import numpy as np
import pytest


def test_table1_job():
    import table1_datasets

    frame = table1_datasets.run(sf=0.0005)
    assert len(frame) == 10
    assert {"dataset", "dim", "paper_size", "gen_size", "measured_class"} <= set(
        frame.columns
    )
    # distribution classes of the stand-ins must match the paper's
    assert (frame["paper_distribution"] == frame["measured_class"]).all()


def test_table2_job():
    import table2_pruning_power

    frame = table2_pruning_power.run(sf=0.0008, n_queries=5)
    assert frame.shape == (8, 8)
    measured = frame.xs("measured", level="source")
    assert ((measured >= 0) & (measured <= 100)).all().all()


def test_table4_job():
    import table4_kernels
    from repro.analysis import kernel_bench

    per, agg = table4_kernels.run(repeat=1, dims=[8, 16, 64], sizes=[1024])
    assert set(per["metric"]) == {"l2", "ip", "l1"}
    assert list(agg.columns) == ["D=8", "D=16,32", "D>32", "All"]
    assert np.isfinite(agg.to_numpy()).all()


def test_table5_job():
    import table5_blocksize

    frame = table5_blocksize.run(repeat=1, dims=[16, 64], sizes=[1024])
    assert "measured (this machine)" in frame.index
    assert list(frame.columns) == [16, 32, 64, 128, 256, 512]


def test_table6_job():
    import table6_bond_pruning

    frame = table6_bond_pruning.run(sf=0.0008, n_queries=5)
    assert frame.shape == (8, 8)


def test_table7_job():
    import table7_breakdown

    frame = table7_breakdown.run(sf=0.001, n_queries=5, target_recall=0.9)
    assert len(frame) == 5
    assert ("measured", "query_time_ms") in frame.columns
    assert (frame[("measured", "query_time_ms")] > 0).all()


def test_ivf_crossover_job():
    import ivf_crossover

    frame = ivf_crossover.run_scale(sf=0.0005, nprobe=4, n_queries=5)
    assert len(frame) == 6
    assert (frame["ms/query"] > 0).all()
    # the exact algorithms over the same buckets find the same neighbours
    exact = frame["recall@10"].iloc[[0, 4, 5]]
    assert (exact == exact.iloc[0]).all()


def test_spark_knn_job(spark):
    import spark_knn

    out, recall = spark_knn.run(spark, dataset="nytimes16", sf=0.001, k=5)
    assert recall == 1.0  # PDX-BOND is exact
    assert (out.groupby("qid").size() == 5).all()
