"""PDX similarity search as a ``DataFrame → DataFrame`` operator.

The paper's contribution is a physical layout + scan operator, below
the relational layer — so per the layering rule it is expressed as a
``mapInPandas`` physical transformation rather than a Catalyst rule
(DESIGN.md §2). Each executor partition is the scan unit, like a PAX
row group: its float32 block rows are decoded into one row-major
matrix and rebuilt as one PDX collection with partition-sized blocks
(``build_exact_collection``, PAPER §6.5), which the *same* NumPy
PDXearch code used in ``repro.core`` scans once per query. BOND's
dimension order therefore comes from the means of the whole partition.
Per-partition candidates (a superset of the global top-k) are then
reduced with a Spark SQL window ``row_number() ... ORDER BY dist, id``
— Catalyst handles the relational part, the block scan stays columnar
inside the executor.

``knn`` is exact when the pruner is exact (linear / PDX-BOND) because a
partition-local threshold only ever prunes vectors that provably cannot
enter the partition's own top-k, a superset of the global one.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.pdxearch import pdx_linear_scan, pdxearch
from repro.core.pruners import Pruner
from repro.search.exact import build_exact_collection
from repro.spark.layout_ops import decode_blocks


def knn(
    blocks_df: DataFrame,
    queries: np.ndarray,
    k: int,
    pruner: Pruner | None = None,
) -> DataFrame:
    """Top-k nearest vectors for each query over a PDX block DataFrame.

    Returns ``(qid: long, id: long, dist: double)``, k rows per query
    (all rows when the table holds fewer), ascending by distance (ties
    by id). ``queries`` are raw-space; the pruner (default: exact linear
    scan) transforms them executor-side. The block table must have been
    built over ``pruner.transform_data`` output (see
    ``layout_ops.transform_vectors``).

    Raises ``ValueError`` on the driver for NaN/inf queries and for a
    query dimension other than ``pruner.dim``; the executors raise it
    (``check_query`` in the search core) for a dimension other than the
    table's.
    """
    q_arr = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.float32)
    dim = q_arr.shape[1]
    if not np.isfinite(q_arr).all():
        raise ValueError("queries must be finite (found NaN or inf)")
    if pruner is not None and dim != pruner.dim:
        raise ValueError(f"query dimension {dim} != pruner/table dimension {pruner.dim}")

    def search_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        frames = [pdf for pdf in batches if len(pdf)]
        if not frames or len(q_arr) == 0:
            return
        data, ids = decode_blocks(pd.concat(frames, ignore_index=True))
        coll = build_exact_collection(data, ids)
        found, dists = zip(
            *(
                pdx_linear_scan(coll, q, k)
                if pruner is None
                else pdxearch(coll, q, k, pruner)
                for q in q_arr
            )
        )
        yield pd.DataFrame(
            {
                "qid": np.repeat(np.arange(len(q_arr)), [len(f) for f in found]),
                "id": np.concatenate(found),
                "dist": np.concatenate(dists),
            }
        )

    candidates = blocks_df.mapInPandas(
        search_partition, schema="qid long, id long, dist double"
    )
    w = Window.partitionBy("qid").orderBy(F.col("dist").asc(), F.col("id").asc())
    return (
        candidates.withColumn("rank", F.row_number().over(w))
        .where(F.col("rank") <= k)
        .drop("rank")
    )
