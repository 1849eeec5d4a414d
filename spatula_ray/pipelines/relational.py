"""Relational / events pipelines over the TPC-H-ish test tables —
demonstrations of the engine's general data-processing operators (filter,
vectorized projection, two-phase Arrow groupby aggregate, hash-bucket join,
broadcast lookup, top-k, windowed and sessionized event aggregation), each
with an exact DuckDB oracle in __ray_entry__.

Float policy for oracle parity: every compared float is snapped to a
decimal grid with floor(x*scale+0.5)/scale on BOTH sides (plain round()
differs by 1 ulp between engines). The grid is chosen so summation-order
error cannot cross a grid boundary: cents for ~1e7 sums, whole units for
~1e9 sums over 1e5+ addends, 1e-4 for means.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _read(sf_dir: str, table: str, columns=None):
    from ..ioutil import read_parquet_clean

    return read_parquet_clean(os.path.join(sf_dir, f"{table}.parquet"),
                              columns=columns)



def _grid(col, scale: float):
    """floor(x*scale + 0.5)/scale — decimal grid snap that is bit-identical
    between numpy/pyarrow and DuckDB (plain round() differs by 1 ulp on
    large doubles, which breaks exact value-hash comparison)."""
    return pc.divide(pc.floor(pc.add(pc.multiply(col, pa.scalar(scale)),
                                     pa.scalar(0.5))), pa.scalar(scale))

def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: filter -> vectorized revenue -> grouped aggregate,
    folded per block in Arrow and combined per key bucket
    (:func:`~spatula_ray.stages.joins.group_aggregate`)."""
    from ..stages.joins import group_aggregate

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate"])

    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), type=pa.timestamp("us"))

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        disc_price = pc.multiply(t["l_extendedprice"],
                                 pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("disc_price", disc_price)

    ds = ds.map_batches(prep, batch_format="pyarrow")
    out = group_aggregate(ds, ["l_returnflag", "l_linestatus"], {
        "sum_qty": ("l_quantity", "sum"),
        "sum_base_price": ("l_extendedprice", "sum"),
        "sum_disc_price": ("disc_price", "sum"),
        "avg_qty": ("l_quantity", "mean"),
        "avg_price": ("l_extendedprice", "mean"),
        "count_order": (None, "count_all"),
    })

    def rounder(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty": _grid(t["sum_qty"], 100.0),
            # unit grid: at sf>=0.1 these sums reach ~1e9 over 1e5+ addends,
            # where summation-order error exceeds a cent
            "sum_base_price": _grid(t["sum_base_price"], 1.0),
            "sum_disc_price": _grid(t["sum_disc_price"], 1.0),
            "avg_qty": _grid(t["avg_qty"], 10000.0),
            "avg_price": _grid(t["avg_price"], 10000.0),
            "count_order": t["count_order"],
        })

    return out.map_batches(rounder, batch_format="pyarrow")


def top_orders_by_revenue(sf_dir: str, k: int = 10):
    """lineitem x orders hash-bucket join -> per-order revenue -> top-k.
    Top-k is computed on the *rounded* revenue with an orderkey tiebreak so
    ranking is float-order independent."""
    from ..stages.joins import group_aggregate, hash_bucket_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def revenue(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"], "rev": rev})

    li = li.map_batches(revenue, batch_format="pyarrow")
    per_order = group_aggregate(li, "o_orderkey", {"revenue": ("rev", "sum")})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = hash_bucket_join(per_order, orders, on=["o_orderkey"],
                              num_buckets=16)

    def rounded(t: pa.Table) -> pa.Table:
        return t.set_column(t.schema.get_field_index("revenue"), "revenue",
                            _grid(t["revenue"], 100.0))

    joined = joined.map_batches(rounded, batch_format="pyarrow")
    # top-k without a global sort: per-batch local top-k, then one tiny
    # single-partition reduce (k << rows; same pattern as topk_cosine);
    # stays Arrow end-to-end — no pandas round-trip in the pipeline
    def local_topk(t: pa.Table) -> pa.Table:
        return t.sort_by([("revenue", "descending"),
                          ("o_orderkey", "ascending")]).slice(0, k)

    cand = joined.map_batches(local_topk, batch_format="pyarrow")
    top = cand.repartition(1).map_batches(local_topk, batch_format="pyarrow")
    return top.select_columns(["o_orderkey", "revenue", "o_orderpriority"])


def customer_nation_revenue(sf_dir: str):
    """orders x customer x nation, shaped for scale (round-1 fix #5):
    nation (25 rows, a true dimension) is broadcast into customer with no
    shuffle; customer — NOT small at scale — joins orders through the
    explicit hash-bucket exchange. No driver-side materialization of
    customer."""
    from ..stages.joins import (broadcast_lookup, group_aggregate,
                                hash_bucket_join)

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust = broadcast_lookup(
        cust, nation.rename(columns={"n_nationkey": "c_nationkey"}),
        on=["c_nationkey"])

    def dim(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t["c_custkey"], "n_name": t["n_name"]})

    cust = cust.map_batches(dim, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = hash_bucket_join(orders, cust, on=["o_custkey"], num_buckets=16)
    out = group_aggregate(joined, "n_name", {
        "total_revenue": ("o_totalprice", "sum"),
        "n_orders": (None, "count_all"),
    })

    def rounder(t: pa.Table) -> pa.Table:
        return pa.table({
            "n_name": t["n_name"],
            "total_revenue": _grid(t["total_revenue"], 100.0),
            "n_orders": t["n_orders"],
        })

    return out.map_batches(rounder, batch_format="pyarrow")


def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type: count + sum(value). Windows
    are computed vectorized per batch (epoch-hour int), then a grouped
    aggregate — the batch/streaming window pattern."""
    from ..stages.joins import group_aggregate

    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def win(t: pa.Table) -> pa.Table:
        epoch = pc.divide(pc.cast(t["ts"], pa.int64()), 1_000_000)
        hour = pc.multiply(pc.divide(epoch, 3600), 3600)
        return pa.table({
            "event_type": t["event_type"],
            "window_start": hour,
            "value": t["value"],
        })

    ds = ev.map_batches(win, batch_format="pyarrow")
    out = group_aggregate(ds, ["event_type", "window_start"], {
        "n_events": (None, "count_all"),
        "sum_value": ("value", "sum"),
    })

    def rounder(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "window_start": t["window_start"],
            "n_events": t["n_events"],
            "sum_value": _grid(t["sum_value"], 10000.0),
        })

    return out.map_batches(rounder, batch_format="pyarrow")


def user_sessions(sf_dir: str, gap_minutes: int = 30,
                  num_buckets: int = 32):
    """Sessionization: per-user sorted event stream split at >30-min gaps.

    Shuffle pattern (round-2 verdict fix #3 — the former per-user
    ``groupby(user_id).map_groups`` paid one Python call per user, the
    per-key anti-pattern at millions of users): coarse-bucket by
    ``hash(user_id) % B`` so each bucket holds MANY users, then ONE
    vectorized kernel per bucket — sort by (user, ts), np.diff gap flags,
    user-boundary flags, and a single C-path pandas groupby-agg."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    gap = np.timedelta64(gap_minutes * 60, "s")

    def bucketize(t: pa.Table) -> pa.Table:
        u = t["user_id"].combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        mixed = u * np.uint64(0x9E3779B97F4A7C15)
        mixed ^= mixed >> np.uint64(33)
        b = (mixed % np.uint64(num_buckets)).astype(np.int32)
        return t.append_column("__bucket", pa.array(b))

    ev = ev.map_batches(bucketize, batch_format="pyarrow")

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        if len(g) == 0:
            return pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                                 "n_sessions": pd.Series(dtype="int64"),
                                 "n_events": pd.Series(dtype="int64")})
        new_user = np.ones(len(g), dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        new_sess = new_user.copy()
        new_sess[1:] |= (ts[1:] - ts[:-1]) > gap
        out = (pd.DataFrame({"user_id": uid, "ns": new_sess})
               .groupby("user_id", sort=False)
               .agg(n_sessions=("ns", "sum"), n_events=("ns", "size"))
               .reset_index())
        out["n_sessions"] = out["n_sessions"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return ev.groupby("__bucket").map_groups(sessions, batch_format="pandas")


def supplier_part_join(sf_dir: str):
    """part x lineitem hash-bucket join -> per-brand quantity totals
    (two large-ish sides, explicit bucket key)."""
    from ..stages.joins import group_aggregate, hash_bucket_join

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])

    def key(t: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": t["l_partkey"], "qty": t["l_quantity"]})

    li = li.map_batches(key, batch_format="pyarrow")
    joined = hash_bucket_join(li, part, on=["p_partkey"], num_buckets=16)
    out = group_aggregate(joined, "p_brand", {
        "total_qty": ("qty", "sum"),
        "n_items": (None, "count_all"),
    })

    def rounder(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_brand": t["p_brand"],
            "total_qty": _grid(t["total_qty"], 100.0),
            "n_items": t["n_items"],
        })

    return out.map_batches(rounder, batch_format="pyarrow")


def purchase_attribution(sf_dir: str):
    """As-of join demo: every purchase event matched to the user's most
    recent click at-or-before it (marketing attribution / point-in-time
    correctness — the lookup every feature-store backfill needs). Inner
    semantics here so every compared column is null-free and keeps its
    exact non-nullable dtype; the operator's left path (typed nulls for
    never-clicked users) is unit-tested. Oracle: DuckDB ``ASOF JOIN``."""
    from ..stages.joins import asof_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def split(kind: str, rename: dict):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["event_type"], kind))
            t = t.drop_columns(["event_type"])
            return t.rename_columns([rename.get(c, c)
                                     for c in t.schema.names])
        return fn

    purchases = ev.map_batches(split("purchase", {}), batch_format="pyarrow")
    clicks = ev.map_batches(
        split("click", {"event_id": "click_event_id", "ts": "click_ts"}),
        batch_format="pyarrow")

    joined = asof_join(purchases, clicks, by="user_id",
                       left_on="ts", right_on="click_ts", how="inner")

    def gap(df: pd.DataFrame) -> pd.DataFrame:
        # exact integer microseconds — no float in the compared column
        td = (df["ts"].astype("datetime64[us]")
              - df["click_ts"].astype("datetime64[us]"))
        df["gap_us"] = td.to_numpy().view("int64")
        return df

    return joined.map_batches(gap, batch_format="pandas")


def purchase_followups(sf_dir: str):
    """Range-join demo: every purchase event joined to the same user's
    clicks in the hour AFTER it (post-conversion engagement — the windowed
    companion to :func:`purchase_attribution`'s point-in-time lookup),
    then aggregated per purchase. Window is ``click_ts ∈ (ts, ts + 1h]``
    exactly: ``lo = 1`` microsecond makes the left bound strict. Value
    sums snap to the 1e-4 grid (the suite's float policy). Oracle: plain
    SQL BETWEEN join + GROUP BY."""
    from ..stages.joins import group_aggregate, range_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type", "value"])

    def split(kind: str, keep: list, rename: dict):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["event_type"], kind)).select(keep)
            return t.rename_columns([rename.get(c, c)
                                     for c in t.schema.names])
        return fn

    purchases = ev.map_batches(
        split("purchase", ["event_id", "ts", "user_id"], {}),
        batch_format="pyarrow")
    clicks = ev.map_batches(
        split("click", ["ts", "user_id", "value"], {"ts": "click_ts"}),
        batch_format="pyarrow")

    hour_us = 3_600_000_000
    joined = range_join(purchases, clicks, left_on="ts",
                        right_on="click_ts", lo=1, hi=hour_us,
                        by="user_id")
    out = group_aggregate(joined, "event_id", {
        "n_clicks": (None, "count_all"), "click_value": ("value", "sum")})

    def rounder(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "n_clicks": t["n_clicks"],
            "click_value": _grid(t["click_value"], 10000.0),
        })

    return out.map_batches(rounder, batch_format="pyarrow")


def value_quantiles(sf_dir: str):
    """Exact per-type quantiles of the event value (p50/p90/p99, DuckDB
    ``quantile_disc`` convention: sorted element at ceil(q*n)-1 — an
    actual data element, so cross-engine equality is exact with no float
    grid).

    Partitioning assumption: the group key is a bounded enum (event
    types), so one group per key co-locates safely at any scale — the
    exact-selection shuffle is over (key, value) pairs only. For
    high-cardinality keys swap in the cap_per_key bucket pattern with a
    per-bucket multi-key kernel; for 100 TB single-key streams, exact
    selection needs a distributed k-th-element pass (or a t-digest if
    approximation is acceptable)."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def q(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["value"].to_numpy())
        n = len(v)

        def pick(quant: float) -> float:
            return float(v[max(int(np.ceil(quant * n)) - 1, 0)])

        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "n": np.array([n], dtype="int64"),
            "p50": [pick(0.5)], "p90": [pick(0.9)], "p99": [pick(0.99)],
        })

    return ev.groupby("event_type").map_groups(q, batch_format="pandas")


def value_quantiles_global(sf_dir: str):
    """Global (ungrouped) exact event-value quantiles via distributed
    histogram bisection (``stages/selection.py``) — the scale path the
    per-type :func:`value_quantiles` docstring promises: no group
    co-location assumption, counts-only passes, no column shuffle.
    ``gather_threshold=0`` forces the pure-bisection exit so the gate
    exercises the full protocol, not the small-data gather shortcut."""
    from ..stages.selection import exact_quantiles_table

    ev = _read(sf_dir, "events", ["value"])
    return exact_quantiles_table(ev, "value", [0.5, 0.9, 0.99],
                                 gather_threshold=0)


def events_3h_sliding(sf_dir: str):
    """Trailing 3-hour sliding window per event_type over the hourly
    aggregate — the windowed-aggregate operator Ray Data lacks, built as
    tumbling partials (one grouped aggregate, the wide step) + a tiny
    per-type vectorized rolling pass.

    Exactness: the hourly float sum is snapped to the 1e-4 grid and
    SCALED TO INT64, so the 3-hour sums are integer arithmetic — immune
    to float summation order — and the final division by 10^4 is a single
    identical IEEE op in both engines.

    Scale shape: the rolling pass groups by event_type only, but its
    input is the HOURLY table (rows = types x hours — time-range-bounded,
    not data-bounded), so one group per type is safe at any corpus size;
    the searchsorted + prefix-sum kernel is O(hours) C code."""
    from ..stages.joins import group_aggregate

    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def win(t: pa.Table) -> pa.Table:
        epoch = pc.divide(pc.cast(t["ts"], pa.int64()), 1_000_000)
        hour = pc.multiply(pc.divide(epoch, 3600), 3600)
        return pa.table({"event_type": t["event_type"],
                         "window_start": hour, "value": t["value"]})

    hourly = group_aggregate(ev.map_batches(win, batch_format="pyarrow"),
                             ["event_type", "window_start"],
                             {"n_events": (None, "count_all"),
                              "sum_value": ("value", "sum")})

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("window_start", kind="mergesort")
        ws = g["window_start"].to_numpy().astype(np.int64)
        n = g["n_events"].to_numpy().astype(np.int64)
        sv = np.floor(g["sum_value"].to_numpy() * 10000 + 0.5) \
            .astype(np.int64)
        lo = np.searchsorted(ws, ws - 7200, side="left")
        cn = np.concatenate([[0], np.cumsum(n)])
        cs = np.concatenate([[0], np.cumsum(sv)])
        idx = np.arange(len(g)) + 1
        return pd.DataFrame({
            "event_type": g["event_type"].to_numpy(),
            "window_start": ws,
            "n_events_3h": cn[idx] - cn[lo],
            "sum_value_3h": (cs[idx] - cs[lo]) / 10000.0,
        })

    return hourly.groupby("event_type").map_groups(roll,
                                                   batch_format="pandas")


def props_k_stats(sf_dir: str):
    """Semi-structured extraction: pull the integer ``k`` field out of the
    JSON ``props`` column (pyarrow ``extract_regex`` — an RE2 kernel over
    the Arrow string array, zero Python in the hot path) and aggregate
    per event_type. The regex path is the structural fast path for the
    fixture's flat ``{"k": int}`` payloads; a general nested-JSON decode
    would swap in a per-batch ``json.loads`` stage at the same seam.
    avg_k is one IEEE division of exact int64s — identical in SQL."""
    from ..stages.joins import group_aggregate

    ev = _read(sf_dir, "events", ["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"], pattern=r'"k":\s*(?P<k>\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({"event_type": t["event_type"], "k": k})

    agg = group_aggregate(ev.map_batches(extract, batch_format="pyarrow"),
                          "event_type", {"n": (None, "count_all"),
                                         "sum_k": ("k", "sum")})

    def finish(t: pa.Table) -> pa.Table:
        s = t["sum_k"].combine_chunks().to_numpy().astype(np.int64)
        n = t["n"].combine_chunks().to_numpy().astype(np.int64)
        return pa.table({"event_type": t["event_type"],
                         "n": pa.array(n), "sum_k": pa.array(s),
                         "avg_k": pa.array(s / n)})

    return agg.map_batches(finish, batch_format="pyarrow")


def _week_bucket(ts_i64_us):
    """Monday-aligned week index from epoch-us (integer-exact both
    engines: (days + 3) // 7 — 1970-01-01 was a Thursday)."""
    return (ts_i64_us // 86_400_000_000 + 3) // 7


def event_funnel(sf_dir: str):
    """Ordered-funnel analysis: users who signed up, then clicked AFTER
    their first signup, then purchased AFTER that first click (strict
    ordering, unbounded window). Returns ``(stage, users)`` — the
    canonical conversion readout. Pure relational plan: three
    groupby-mins chained through hash-bucket joins; every shuffle moves
    (user_id, int64) pairs only."""
    from ..stages.joins import group_aggregate, hash_bucket_join

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def prep(kind: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["event_type"], kind))
            return pa.table({
                "user_id": t["user_id"],
                "ts_us": pc.cast(t["ts"], pa.int64()),
            })
        return fn

    def stage_min(kind: str, alias: str):
        return group_aggregate(ev.map_batches(prep(kind),
                                              batch_format="pyarrow"),
                               "user_id", {alias: ("ts_us", "min")})

    s1 = stage_min("signup", "t1").materialize()

    def after(events_kind: str, prev, prev_col: str, alias: str):
        kinds = ev.map_batches(prep(events_kind), batch_format="pyarrow")
        j = hash_bucket_join(kinds, prev, on=["user_id"])

        def later(t: pa.Table) -> pa.Table:
            return t.filter(pc.greater(t["ts_us"], t[prev_col]))

        return group_aggregate(j.map_batches(later, batch_format="pyarrow"),
                               "user_id", {alias: ("ts_us", "min")})

    s2 = after("click", s1, "t1", "t2").materialize()
    s3 = after("purchase", s2, "t2", "t3").materialize()
    return pa.table({
        "stage": pa.array([1, 2, 3], type=pa.int64()),
        "users": pa.array([s1.count(), s2.count(), s3.count()],
                          type=pa.int64()),
    })


def retention_cohorts(sf_dir: str):
    """Weekly retention matrix: users cohorted by the week of their first
    signup; for every later week, how many of that cohort were active
    (any event). Returns ``(cohort_week, week, n_users)``. Shuffles move
    (user_id, week) pairs; the activity table is pre-deduplicated by the
    grouped aggregate, which folds each block before its exchange, ahead
    of the cohort join."""
    from ..stages.joins import group_aggregate, hash_bucket_join

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def weeks(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"],
            "week": pa.array(_week_bucket(ts), type=pa.int64()),
            "event_type": t["event_type"],
        })

    wk = ev.map_batches(weeks, batch_format="pyarrow").materialize()

    cohort = group_aggregate(wk.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "signup")),
        batch_format="pyarrow"), "user_id", {"cohort_week": ("week", "min")})
    # distinct (user, week) activity — each block folds its pairs first
    active = group_aggregate(wk, ["user_id", "week"],
                             {"__n": (None, "count_all")}) \
        .map_batches(lambda t: t.drop_columns(["__n"]),
                     batch_format="pyarrow")
    j = hash_bucket_join(active, cohort, on=["user_id"])

    def at_or_after(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["week"], t["cohort_week"]))

    return group_aggregate(j.map_batches(at_or_after, batch_format="pyarrow"),
                           ["cohort_week", "week"],
                           {"n_users": (None, "count_all")})
