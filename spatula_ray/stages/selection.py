"""Exact distributed selection (k-th element / quantiles) over a single
numeric column of arbitrary size — the 100 TB path that
``pipelines/relational.py::value_quantiles`` documents as its scale knob:
that operator assumes a bounded-enum group key so each group co-locates;
this one assumes nothing about cardinality or distribution.

Shape: iterative histogram bisection. Every pass is one ``map_batches``
over the (materialized, column-pruned) input emitting a tiny per-batch
count table; the driver folds B×R integers (B bins × R active ranks) and
narrows each rank's candidate interval to one bin. Values are bisected on
the ORDER-PRESERVING int64 view of float64 (sign-folded IEEE bits), so the
loop converges in ≤ ceil(64 / log2(bins)) passes regardless of value
distribution — with the default 4096 bins that is ≤ 6 scans — and the
interval arithmetic runs on Python ints (no float midpoints, no epsilon
termination, no int64 span overflow at the full domain). When an
interval's population drops under ``gather_threshold`` the loop stops
early and one filter pass gathers just those values for a final in-memory
exact pick — the common exit after 1-2 scans on real data.

Nothing but counts and the final ≤ threshold-sized gather ever reaches
the driver; no all-to-all shuffle at any point (compare ``ds.sort(col)``,
which moves the entire column). NaNs and nulls are excluded, mirroring
SQL aggregate semantics (DuckDB ``quantile_disc`` ignores NULLs).

Rank convention: ``quantile_disc`` — the sorted element at index
``ceil(q * n) - 1`` (an actual data element, so cross-engine equality is
exact with no float grid).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _f64_to_ordered_i64(x: np.ndarray) -> np.ndarray:
    """Monotone bijection IEEE float64 -> int64: non-negative floats keep
    their (already order-correct, non-negative) bit patterns; negative
    floats map to strictly negative ints with order preserved (the
    signed-space sign-fold: ``~bits ^ INT64_MIN``; e.g. -0.0 -> -1,
    -inf -> near INT64_MIN)."""
    bits = x.astype(np.float64).view(np.int64)
    return np.where(bits < 0, ~bits ^ np.int64(_I64_MIN), bits)


def _ordered_i64_to_f64(k: np.ndarray) -> np.ndarray:
    bits = np.where(k < 0, ~(k ^ np.int64(_I64_MIN)), k)
    return bits.view(np.float64)


def _clean_col(t: pa.Table, col: str) -> np.ndarray:
    a = t[col].combine_chunks()
    x = a.to_numpy(zero_copy_only=False).astype(np.float64)
    return x[~np.isnan(x)]       # nulls surface as NaN in the numpy view


def _clean_col_int(t: pa.Table, col: str) -> np.ndarray:
    a = t[col].combine_chunks()
    if a.null_count:
        a = a.drop_null()
    return a.to_numpy(zero_copy_only=False).astype(np.int64)


def _quantiles_impl(ds, col: str, qs: Sequence[float], bins: int,
                    gather_threshold: int) -> Tuple[Dict[float, float],
                                                    int, bool]:
    vals = ds.select_columns([col]).materialize()

    # Integer columns bisect in NATIVE int64 key space (round-3 advisor
    # fix: the float64 order-map is only a bijection below 2^53, so
    # |v| > 2^53 would silently snap to the nearest representable
    # double). Floats keep the sign-folded IEEE order-map. Both key
    # spaces are int64, so the bisection loop below is shared.
    from .joins import _dataset_types

    is_int = pa.types.is_integer(_dataset_types(vals)[col])
    if is_int:
        def keys_of(t: pa.Table) -> np.ndarray:
            return _clean_col_int(t, col)

        def val_of(k: int):
            return int(k)
    else:
        def keys_of(t: pa.Table) -> np.ndarray:
            return _f64_to_ordered_i64(_clean_col(t, col))

        def val_of(k: int):
            return float(_ordered_i64_to_f64(
                np.array([k], dtype=np.int64))[0])

    def count_batch(t: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([int(len(keys_of(t)))],
                                       type=pa.int64())})

    n = sum(r["n"] for r in
            vals.map_batches(count_batch, batch_format="pyarrow").take_all())
    if n == 0:
        return {float(q): float("nan") for q in qs}, 0, is_int

    ranks = sorted({max(int(np.ceil(q * n)) - 1, 0) for q in qs})
    # per-rank state: inclusive [lo, hi] interval (Python ints in
    # ordered-int64 space), elements strictly below lo, interval size
    state = {r: {"lo": _I64_MIN, "hi": _I64_MAX, "below": 0,
                 "count": n, "value": None} for r in ranks}

    max_passes = int(np.ceil(64 / np.log2(bins))) + 2
    for _ in range(max_passes):
        active = [r for r, s in state.items()
                  if s["value"] is None and s["count"] > gather_threshold]
        if not active:
            break
        edges: Dict[int, np.ndarray] = {}
        for r in active:
            s = state[r]
            span = s["hi"] - s["lo"] + 1            # exact (Python ints)
            step = max(span // bins, 1)
            e = [s["lo"] + i * step for i in range(1, bins)]
            edges[r] = np.array([v for v in e if v <= s["hi"]],
                                dtype=np.int64)

        iv = {r: (state[r]["lo"], state[r]["hi"]) for r in active}

        def hist_batch(t: pa.Table, _edges=edges, _iv=iv,
                       _active=tuple(active)) -> pa.Table:
            k = keys_of(t)
            out_r, out_b, out_c = [], [], []
            for r in _active:
                lo, hi = _iv[r]
                in_iv = k[(k >= lo) & (k <= hi)]
                if len(in_iv) == 0:
                    continue
                idx = np.searchsorted(_edges[r], in_iv, side="right")
                bc = np.bincount(idx, minlength=len(_edges[r]) + 1)
                nz = np.nonzero(bc)[0]
                out_r.extend([r] * len(nz))
                out_b.extend(nz.tolist())
                out_c.extend(bc[nz].tolist())
            return pa.table({"r": pa.array(out_r, type=pa.int64()),
                             "b": pa.array(out_b, type=pa.int64()),
                             "c": pa.array(out_c, type=pa.int64())})

        folded: Dict[int, np.ndarray] = {
            r: np.zeros(len(edges[r]) + 1, dtype=np.int64) for r in active}
        for row in vals.map_batches(hist_batch,
                                    batch_format="pyarrow").take_all():
            folded[row["r"]][row["b"]] += row["c"]

        for r in active:
            s = state[r]
            cum = np.cumsum(folded[r])
            local = r - s["below"]                  # 0-based within [lo,hi]
            b = int(np.searchsorted(cum, local, side="right"))
            e = edges[r]
            new_lo = s["lo"] if b == 0 else int(e[b - 1])
            new_hi = int(e[b]) - 1 if b < len(e) else s["hi"]
            if b > 0:
                s["below"] += int(cum[b - 1])
            s["count"] = int(folded[r][b])
            s["lo"], s["hi"] = new_lo, new_hi
            if s["lo"] == s["hi"]:
                s["value"] = val_of(s["lo"])

    pending = [r for r, s in state.items() if s["value"] is None]
    if pending:
        spans = [(state[r]["lo"], state[r]["hi"]) for r in pending]

        def gather_batch(t: pa.Table, _spans=tuple(spans)) -> pa.Table:
            k = keys_of(t)
            keep = np.zeros(len(k), dtype=bool)
            for lo, hi in _spans:
                keep |= (k >= lo) & (k <= hi)
            return pa.table({"k": pa.array(k[keep], type=pa.int64())})

        got = np.sort(np.array(
            [row["k"] for row in
             vals.map_batches(gather_batch,
                              batch_format="pyarrow").take_all()],
            dtype=np.int64))
        for r in pending:
            s = state[r]
            seg = got[(got >= s["lo"]) & (got <= s["hi"])]
            s["value"] = val_of(int(seg[r - s["below"]]))

    return ({float(q): state[max(int(np.ceil(q * n)) - 1, 0)]["value"]
             for q in qs}, n, is_int)


def exact_quantiles(ds, col: str, qs: Sequence[float], bins: int = 4096,
                    gather_threshold: int = 65536) -> Dict[float, float]:
    """Exact ``quantile_disc`` values of ``ds[col]`` for every q in
    ``qs``. Returns {q: value} — Python ints (exact at any magnitude) for
    integer columns, floats otherwise. See module docstring."""
    return _quantiles_impl(ds, col, qs, bins, gather_threshold)[0]


def exact_quantiles_table(ds, col: str, qs: List[float], bins: int = 4096,
                          gather_threshold: int = 65536) -> pa.Table:
    """One-row Arrow table ``(n, p{q}, ...)`` for pipeline use. The
    p-columns are int64 for integer inputs (exact beyond 2^53, matching
    DuckDB quantile_disc's type-preserving output), float64 otherwise."""
    res, n, is_int = _quantiles_impl(ds, col, qs, bins, gather_threshold)
    out_t = pa.int64() if is_int and n > 0 else pa.float64()
    cols = {"n": pa.array([n], type=pa.int64())}
    for q in qs:
        cols[f"p{int(round(q * 100))}"] = pa.array([res[q]], type=out_t)
    return pa.table(cols)


def table_profile(ds, columns):
    """Per-column data-quality profile over numeric columns — the
    validation pass a 100 TB ingest runs before anything downstream
    trusts the table (the Great-Expectations/Deequ shape): one row per
    column with ``(column, n_rows, n_nulls, min_val, max_val)``.
    ``min``/``max`` are exact selections (no accumulation-order float
    hazard — deliberately NO sum/mean, which would be block-order
    dependent in float64), so every value is bit-reproducible in SQL.

    ONE streaming ``map_batches`` emits a 5-field partial per column per
    block; ONE tiny groupby (rows = columns x blocks) folds them with
    Sum/Sum/Min/Max. Nothing but the per-block partials ever moves.
    """
    from .joins import group_aggregate

    def partial(t: pa.Table) -> pa.Table:
        names, nr, nn, mn, mx = [], [], [], [], []
        for c in columns:
            a = t[c]
            names.append(c)
            nr.append(t.num_rows)
            nn.append(a.null_count)
            if t.num_rows > a.null_count:
                s = pc.min_max(a)
                mn.append(float(s["min"].as_py()))
                mx.append(float(s["max"].as_py()))
            else:                         # all-null block
                mn.append(float("inf"))
                mx.append(float("-inf"))
        return pa.table({
            "column": pa.array(names, type=pa.string()),
            "n_rows": pa.array(nr, type=pa.int64()),
            "n_nulls": pa.array(nn, type=pa.int64()),
            "min_val": pa.array(mn, type=pa.float64()),
            "max_val": pa.array(mx, type=pa.float64()),
        })

    return group_aggregate(
        ds.select_columns(list(columns))
        .map_batches(partial, batch_format="pyarrow"), "column",
        {"n_rows": ("n_rows", "sum"), "n_nulls": ("n_nulls", "sum"),
         "min_val": ("min_val", "min"), "max_val": ("max_val", "max")})
