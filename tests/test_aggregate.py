"""The two-phase grouped aggregate (``stages.joins.group_aggregate``)
against DuckDB ``GROUP BY`` on generated tables: int, string and
two-column keys with null keys, null and all-null value groups, mean,
empty input, more input blocks than buckets, and a 1-CPU session (a
child process, like ``test_one_cpu.py``). Also: the bucket exchanges log
no "different schema" warning for their empty partitions.

Run the child directly with ``python tests/test_aggregate.py``: it
prints one JSON object with the problems it found (empty when the
aggregate equals DuckDB's)."""

import json
import logging
import math
import os
import signal
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 240

AGGS = {
    "s": ("v", "sum"), "nv": ("v", "count"), "n": (None, "count_all"),
    "lo": ("v", "min"), "hi": ("v", "max"), "avg": ("v", "mean"),
    "fs": ("f", "sum"), "slo": ("w", "min"), "shi": ("w", "max"),
}
SQL_AGGS = ("SUM(v) AS s, COUNT(v) AS nv, COUNT(*) AS n, MIN(v) AS lo, "
            "MAX(v) AS hi, AVG(v) AS avg, SUM(f) AS fs, MIN(w) AS slo, "
            "MAX(w) AS shi")
SCHEMA = pa.schema([("ki", pa.int64()), ("ks", pa.string()),
                    ("v", pa.int64()), ("f", pa.float64()),
                    ("w", pa.string())])


def _problems(got: list, want: list, keys: list) -> list:
    """Row-set differences; floats may differ by summation order, so
    they compare to 1e-9 relative or 1e-6 absolute."""
    def order(r):
        return tuple((r[k] is None, r[k] or 0 if k == "ki" else r[k] or "")
                     for k in keys)

    got, want = sorted(got, key=order), sorted(want, key=order)
    if len(got) != len(want):
        return [f"{len(got)} groups vs {len(want)}"]
    out = []
    for g, w in zip(got, want):
        for c, wv in w.items():
            gv = g.get(c)
            if isinstance(wv, float) and gv is not None:
                ok = math.isclose(gv, wv, rel_tol=1e-9, abs_tol=1e-6)
            else:
                ok = gv == wv
            if not ok:
                out.append(f"{c}: {gv!r} vs {wv!r} in group "
                           f"{[w[k] for k in keys]}")
    return out


def _check(table: pa.Table, keys: list, n_blocks: int) -> list:
    """Problems of ``group_aggregate`` over ``table`` cut into
    ``n_blocks`` blocks, against DuckDB."""
    import duckdb
    import ray.data

    from spatula_ray.stages.joins import group_aggregate

    step = max(1, -(-table.num_rows // n_blocks))
    blocks = [table.slice(i, step) for i in range(0, table.num_rows, step)]
    ds = ray.data.from_arrow(blocks or [table])
    got = group_aggregate(ds, keys, AGGS).take_all()
    con = duckdb.connect()
    con.register("t", table)
    cols = ", ".join(keys)
    want = con.execute(f"SELECT {cols}, {SQL_AGGS} FROM t GROUP BY {cols}") \
        .fetch_arrow_table().to_pylist()
    for r in want:
        r["s"] = None if r["s"] is None else int(r["s"])   # HUGEINT
    return _problems(got, want, keys)


rows = st.lists(st.fixed_dictionaries({
    "ki": st.one_of(st.none(), st.integers(-3, 3)),
    "ks": st.one_of(st.none(), st.sampled_from(["a", "b", "ccc", ""])),
    "v": st.one_of(st.none(), st.integers(-2**40, 2**40)),
    "f": st.one_of(st.none(), st.floats(-1e6, 1e6)),
    "w": st.one_of(st.none(), st.text("xyz", max_size=3)),
}), max_size=60)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows, st.sampled_from([["ki"], ["ks"], ["ki", "ks"]]),
       st.integers(1, 12))
def test_matches_duckdb_group_by(ray_session, data, keys, n_blocks):
    table = pa.Table.from_pylist(data, schema=SCHEMA)
    assert _check(table, keys, n_blocks) == []


def test_all_null_group_and_more_blocks_than_buckets(ray_session):
    import ray

    data = ([{"ki": 1, "ks": "a", "v": None, "f": None, "w": None}] * 5
            + [{"ki": None, "ks": None, "v": 7, "f": 0.5, "w": "z"}] * 3
            + [{"ki": i % 3, "ks": "b", "v": i, "f": i / 4, "w": "y"}
               for i in range(40)])
    table = pa.Table.from_pylist(data, schema=SCHEMA)
    n_blocks = 5 * int(ray.cluster_resources()["CPU"])
    assert _check(table, ["ki"], n_blocks) == []
    assert _check(table, ["ki", "ks"], n_blocks) == []


def test_empty_input(ray_session):
    import ray.data

    from spatula_ray.stages.joins import group_aggregate

    ds = ray.data.from_arrow(SCHEMA.empty_table())
    assert group_aggregate(ds, ["ki", "ks"], AGGS).take_all() == []
    ds = ray.data.from_arrow(pa.Table.from_pylist(
        [{"ki": 1, "ks": "a", "v": 1, "f": 1.0, "w": "x"}], schema=SCHEMA))
    none = ds.filter(expr="ki > 5")
    assert group_aggregate(none, "ki", AGGS).take_all() == []


def test_rejects_bad_aggregates():
    from spatula_ray.stages.joins import group_aggregate

    with pytest.raises(ValueError, match="unknown aggregate"):
        group_aggregate(None, "k", {"x": ("v", "median")})
    with pytest.raises(ValueError, match="takes no column"):
        group_aggregate(None, "k", {"x": ("v", "count_all")})
    with pytest.raises(ValueError, match="takes a column"):
        group_aggregate(None, "k", {"x": (None, "sum")})


def test_null_int_key_bucket_ignores_block_nulls():
    """A key's bucket must not depend on whether its block also holds a
    null key, or its partials would land in two buckets."""
    from spatula_ray.stages.joins import _bucket_of

    with_null = pa.table({"k": pa.array([5, None, 9], type=pa.int64())})
    without = pa.table({"k": pa.array([5, 9], type=pa.int64())})
    a = _bucket_of(with_null, ["k"], 16).to_pylist()
    b = _bucket_of(without, ["k"], 16).to_pylist()
    assert [a[0], a[2]] == b


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def test_bucket_exchanges_log_no_schema_warning(ray_session):
    """More input blocks than buckets leave sort partitions empty; the
    aggregate, the hash join and the BSP load must not log Ray Data's
    "different schema" warning for them."""
    import ray
    import ray.data

    from spatula_ray.stages.graph import pagerank
    from spatula_ray.stages.joins import group_aggregate, hash_bucket_join

    cap = _Capture()
    logger = logging.getLogger("ray.data")
    logger.addHandler(cap)
    try:
        n_blocks = 5 * int(ray.cluster_resources()["CPU"])
        ds = ray.data.range(400, override_num_blocks=n_blocks) \
            .map_batches(lambda t: pa.table({"k": pc.bit_wise_and(
                t["id"], 3), "v": t["id"]}), batch_format="pyarrow")
        assert len(group_aggregate(ds, "k", {"n": (None, "count_all")})
                   .take_all()) == 4
        right = ray.data.from_arrow(pa.table({"k": [0, 1], "x": [1, 2]}))
        assert hash_bucket_join(ds, right, on=["k"]).count() == 200
        edges = ray.data.range(60, override_num_blocks=n_blocks) \
            .map_batches(lambda t: pa.table({
                "src": t["id"], "dst": pc.bit_wise_and(
                    pc.add(t["id"], 1), 63)}),
                batch_format="pyarrow")
        assert pagerank(edges, num_nodes=64, iters=2).count() == 64
    finally:
        logger.removeHandler(cap)
    assert [m for m in cap.messages if "different schema" in m] == []


def test_schema_filter_keeps_real_schema_changes():
    from spatula_ray.stages import _EmptyPartitionSchemaFilter

    def record(msg):
        return logging.LogRecord("ray.data", logging.WARNING, __file__, 1,
                                 msg, None, None)

    f = _EmptyPartitionSchemaFilter()
    head = ("Operator produced a RefBundle with a different schema than "
            "the previous one. Previous schema: k: int64")
    assert not f.filter(record(head + ", new schema: . This may lead to "
                                      "unexpected behavior."))
    assert f.filter(record(head + ", new schema: k: string. This may lead "
                                  "to unexpected behavior."))


def _child() -> dict:
    sys.path[:0] = [REPO]
    import random

    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    rng = random.Random(7)
    data = [{"ki": rng.choice([None, 0, 1, 2]),
             "ks": rng.choice([None, "a", "b"]),
             "v": rng.choice([None, rng.randint(-100, 100)]),
             "f": rng.choice([None, rng.random()]),
             "w": rng.choice([None, "p", "q"])} for _ in range(300)]
    table = pa.Table.from_pylist(data, schema=SCHEMA)
    report = {str(keys): _check(table, keys, 7)
              for keys in (["ki"], ["ks"], ["ki", "ks"])}
    ray.shutdown()
    return report


def test_matches_duckdb_in_one_cpu_session():
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=REPO, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"1-CPU aggregate did not finish in {TIMEOUT_S}s")
    assert proc.returncode == 0, err[-3000:]
    report = json.loads(out.strip().splitlines()[-1])
    assert report == {k: [] for k in report} and len(report) == 3


if __name__ == "__main__":
    print(json.dumps(_child()))
