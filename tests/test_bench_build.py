"""``bench.py``'s scaled-input builder writes only the replicated tables
that the selected queries' oracle SQL reads, and adds the others when a
later selection needs them."""

import os

import pyarrow as pa
import pyarrow.parquet as pq

import bench


def _rows(path: str) -> int:
    return pq.read_metadata(path).num_rows


def test_build_writes_only_the_tables_read(tmp_path):
    src = str(tmp_path / "src")
    os.makedirs(src)
    pq.write_table(pa.table({"doc_id": [1, 2, 3], "text": ["a b", "", None]}),
                   os.path.join(src, "documents.parquet"))
    pq.write_table(pa.table({"event_id": [1, 2], "user_id": [7, 8],
                             "value": [0.5, 1.5]}),
                   os.path.join(src, "events.parquet"))
    out = str(tmp_path / "out")
    tables = bench._tables_read(["doc_pagerank"])
    assert tables == ["documents"]
    bench._build_10x(src, out, factor=2, tables=tables)
    assert os.listdir(out) == ["documents.parquet"]
    assert _rows(os.path.join(out, "documents.parquet")) == \
        2 * _rows(os.path.join(src, "documents.parquet"))

    before = os.stat(os.path.join(out, "documents.parquet")).st_mtime_ns
    bench._build_10x(src, out, factor=2, tables=bench._tables_read(
        ["doc_pagerank", "value_quantiles_global"]))
    assert sorted(os.listdir(out)) == ["documents.parquet", "events.parquet"]
    assert os.stat(os.path.join(out, "documents.parquet")).st_mtime_ns \
        == before
    assert _rows(os.path.join(out, "events.parquet")) == \
        2 * _rows(os.path.join(src, "events.parquet"))


def test_query_without_oracle_builds_every_table():
    assert bench._tables_read(["no_such_query"]) == list(bench._10X_TABLES)
