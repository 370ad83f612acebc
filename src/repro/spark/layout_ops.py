"""DataFrame-level PDX layout construction (the per-partition columnar
block format of the repro brief).

``vectors_to_blocks`` turns a DataFrame of ``(id: long, vec:
array<...>)`` rows into a DataFrame of PDX *block* rows::

    block_id: long, n: int, ids: array<long>,
    data: array<float>   -- D*n float32 values, dimension-major (d0 of
                            all n vectors, then d1, ...),
    means: array<float>  -- per-dimension means of the block

Block rows are float32 because every kernel runs in float32; that
halves the cached table against ``array<double>``.

Blocks are formed by ``id`` order (``row_number`` over id), so the
mapping is deterministic, round-trippable and the same as
:func:`repro.core.layout.build_pdx`. The rows are then range-partitioned
by ``block_id`` over the session's default parallelism (one partition
per block if there are fewer blocks), so the ``applyInPandas`` group
transform (each group becomes exactly one block row, transposed with
NumPy inside the executor) runs on every core. Each partition of the
result holds a contiguous run of blocks: it is the unit
``search_ops.knn`` scans, like a PAX row group.

``decode_blocks`` turns one partition's block rows back into a
row-major matrix plus ids in one pass.

``transform_vectors`` applies a pruner's collection preprocessing
(ADSampling rotation / BSA PCA) as a ``mapInPandas`` transformation so
ADS/BSA blocks can be built in the transformed space, mirroring the
paper's index-build pipeline.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.kernels import PDX_BLOCK_SIZE
from repro.core.layout import PDXBlock
from repro.core.pruners import Pruner

BLOCK_SCHEMA = (
    "block_id long, n int, ids array<long>, data array<float>, means array<float>"
)


def _vectors(col: pd.Series) -> np.ndarray:
    """(n, D) float32 matrix from a column of equal-length arrays."""
    return np.stack(col.to_numpy()).astype(np.float32, copy=False)


def vectors_to_blocks(
    df: DataFrame, *, block_size: int = PDX_BLOCK_SIZE
) -> DataFrame:
    """Group vectors into PDX block rows (dimension-major within block).

    Counts ``df`` once (a Spark job) to size the partitioning.
    """

    # No type hints: applyInPandas takes the function's arity, and partial
    # hints only make pyspark warn on every call.
    def make_block(key, pdf):
        pdf = pdf.sort_values("id")
        dm = _vectors(pdf["vec"]).T  # (D, n) dimension-major
        return pd.DataFrame(
            {
                "block_id": [int(key[0])],
                "n": [len(pdf)],
                "ids": [pdf["id"].to_numpy(dtype=np.int64)],
                "data": [dm.ravel()],
                "means": [dm.mean(axis=1)],
            }
        )

    w = Window.orderBy("id")
    with_block = df.withColumn(
        "block_id", ((F.row_number().over(w) - F.lit(1)) / F.lit(block_size)).cast("long")
    )
    nblocks = -(-df.count() // block_size)
    parts = max(1, min(df.sparkSession.sparkContext.defaultParallelism, nblocks))
    return (
        with_block.repartitionByRange(parts, "block_id")
        .groupBy("block_id")
        .applyInPandas(make_block, BLOCK_SCHEMA)
    )


def transform_vectors(df: DataFrame, pruner: Pruner) -> DataFrame:
    """Apply ``pruner.transform_data`` to every vector (mapInPandas)."""

    def apply(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if len(pdf) == 0:
                continue
            out = pruner.transform_data(_vectors(pdf["vec"]))
            yield pd.DataFrame(
                {"id": pdf["id"].to_numpy(), "vec": list(out.astype(np.float32, copy=False))}
            )

    return df.mapInPandas(apply, schema="id long, vec array<float>")


def decode_blocks(pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Block rows to ``(data (N, D) float32 row-major, ids (N,) int64)``.

    Rows are taken in ``block_id`` order, so vectors come back in id
    order whatever order the rows arrived in. ``pdf`` must not be empty.
    """
    pdf = pdf.sort_values("block_id")
    ns = pdf["n"].to_numpy(dtype=np.int64)
    flat = pdf["data"].to_numpy()
    dim = len(flat[0]) // ns[0]
    data = np.concatenate([np.reshape(d, (dim, n)).T for d, n in zip(flat, ns)])
    ids = np.concatenate(pdf["ids"].to_numpy())
    return data.astype(np.float32, copy=False), ids.astype(np.int64, copy=False)


def rows_to_pdx_blocks(pdf: pd.DataFrame) -> list[PDXBlock]:
    """Reconstruct executor-side :class:`PDXBlock`s from block rows, in
    ``block_id`` order."""
    pdf = pdf.sort_values("block_id")
    data, ids = decode_blocks(pdf)
    bounds = np.cumsum(pdf["n"].to_numpy())[:-1]
    return [
        PDXBlock(
            data=np.ascontiguousarray(rows.T),
            ids=block_ids,
            means=np.asarray(means, dtype=np.float32),
        )
        for rows, block_ids, means in zip(
            np.split(data, bounds), np.split(ids, bounds), pdf["means"].to_numpy()
        )
    ]
