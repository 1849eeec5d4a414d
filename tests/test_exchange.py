"""``joins.bucket_exchange``, the one keyed exchange every co-location
step of the suite rides: each key's rows reach exactly one call of the
per-bucket function, the bucket column never leaks, and empty input
gives empty output. Keys cover int, string, two-column and null
values; the input has more blocks than the session has CPUs, so
several blocks feed every bucket."""

import pyarrow as pa
import pytest

KEYS = {"int": ["ki"], "str": ["ks"], "int_str": ["ki", "ks"]}


def _table(n: int = 400) -> pa.Table:
    ki = [None if i % 11 == 0 else i % 7 for i in range(n)]
    ks = [None if i % 13 == 0 else "abc"[i % 3] for i in range(n)]
    return pa.table({"ki": pa.array(ki, type=pa.int64()),
                     "ks": pa.array(ks, type=pa.string()),
                     "v": pa.array(range(n), type=pa.int64())})


def _blocks(table: pa.Table):
    """A Dataset of 5 blocks per session CPU."""
    import ray
    import ray.data

    n_blocks = 5 * int(ray.cluster_resources()["CPU"])
    step = -(-table.num_rows // n_blocks)
    ds = ray.data.from_arrow([table.slice(i, step)
                              for i in range(0, table.num_rows, step)])
    assert ds.num_blocks() > int(ray.cluster_resources()["CPU"])
    return ds


def _tag_calls(batch_format: str):
    """A per-bucket function that stamps its rows with a call id and
    the column names it was given."""
    def fn(g):
        import uuid

        call = uuid.uuid4().hex
        if batch_format == "pyarrow":
            seen = ",".join(g.column_names)
            return (g.append_column("call", pa.array([call] * g.num_rows))
                    .append_column("seen", pa.array([seen] * g.num_rows)))
        return g.assign(call=call, seen=",".join(g.columns))
    return fn


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
@pytest.mark.parametrize("keys", list(KEYS.values()), ids=list(KEYS))
def test_each_key_reaches_one_call(keys, batch_format):
    from spatula_ray.stages.joins import bucket_exchange

    table = _table()
    out = bucket_exchange(_blocks(table), keys, _tag_calls(batch_format),
                          batch_format=batch_format).to_pandas()
    assert list(out.columns) == ["ki", "ks", "v", "call", "seen"]
    assert set(out["seen"]) == {"ki,ks,v"}
    assert sorted(out["v"]) == list(range(table.num_rows))
    # null keys form their own group and are co-located too
    calls = out.groupby(keys, dropna=False)["call"].nunique()
    assert (calls == 1).all()
    assert len(calls) == len(table.to_pandas()[keys].drop_duplicates())


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
def test_empty_input(batch_format):
    import ray.data

    from spatula_ray.stages.joins import bucket_exchange

    table = _table(20)
    fn = _tag_calls(batch_format)
    empty = ray.data.from_arrow(table.slice(0, 0))
    assert bucket_exchange(empty, ["ki"], fn,
                           batch_format=batch_format).take_all() == []
    filtered = _blocks(table).filter(expr="v > 1000")
    assert bucket_exchange(filtered, ["ks"], fn,
                           batch_format=batch_format).take_all() == []
