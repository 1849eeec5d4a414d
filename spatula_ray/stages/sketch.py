"""Distributed cardinality sketching (HyperLogLog) — the count-distinct
primitive a 100 TB corpus needs where an exact ``unique()`` would be an
all-to-all shuffle of every key: per-batch partial registers, a
registers-only reduce (m ints), nothing else moves. One pass, no shuffle.

Determinism / oracle story (the repo's usual trick, cf.
``similarity.HashSignLSH``): the item hash is the LOW 8 BYTES of md5
(little-endian), which DuckDB computes natively as
``md5_number_lower``; register index = top 12 bits (integer division),
rho = leading-zero count of the remaining 52 bits + 1, computed EXACTLY
via the float64 exponent (``np.frexp`` — every w < 2**52 is exactly
representable, so the exponent is floor(log2 w) with no ulp hazard; the
SQL mirror uses an integer power-of-two comparison join, also exact).
The indicator sum is kept in INTEGER space — ``sum(2**(64 - r))`` over
all m registers (Python ints / DuckDB HUGEINT) — so it is
order-independent and bit-exact, unlike the textbook float
``sum(2**-r)`` whose accumulation rounds. Only the final 2-3 IEEE ops
(alpha constant, one division, optionally one log for the
linear-counting branch) are floating point, identical single-op chains
on identical operands in both engines; the published estimate snaps to
the 1e-4 grid like every other float the gate compares.

Standard HLL bias handling at this size: linear counting below 2.5m
when empty registers exist; the 2**64 large-range correction is
irrelevant (registers cap at rho 53) and omitted on both sides.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List

import numpy as np
import pyarrow as pa

_P = 12                      # 2**12 = 4096 registers
_M = 1 << _P
_W_BITS = 64 - _P            # 52
_W_MASK = (1 << _W_BITS) - 1


def md5_number_lower(items) -> np.ndarray:
    """DuckDB's ``md5_number_lower`` of each string as a uint64 array: the
    low 8 bytes of its UTF-8 md5, read little-endian. Every hash whose
    bits reach an output goes through here, so a SQL oracle reproduces
    it exactly."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little")
         for s in items), dtype=np.uint64, count=len(items))


def _rho_of(w: np.ndarray) -> np.ndarray:
    """Leading-zero count of the 52-bit remainder, +1: rho = 52 - floor(
    log2 w) for w > 0 else 53. Exact: frexp's exponent on integers below
    2**52 (all exactly representable in float64)."""
    rho = np.full(len(w), _W_BITS + 1, dtype=np.int64)
    nz = w != 0
    if nz.any():
        exp = np.frexp(w[nz].astype(np.float64))[1]   # w in [2**(e-1), 2**e)
        rho[nz] = _W_BITS - (exp - 1)
    return rho


def register_batch(items: List[str]) -> pa.Table:
    """Partial HLL registers for one batch: ≤ m (bucket, rho-max) rows."""
    if not items:
        return pa.table({"b": pa.array([], type=pa.int64()),
                         "r": pa.array([], type=pa.int64())})
    h = md5_number_lower(items)
    b = (h >> np.uint64(_W_BITS)).astype(np.int64)
    rho = _rho_of((h & np.uint64(_W_MASK)).astype(np.int64))
    reg = np.zeros(_M, dtype=np.int64)
    np.maximum.at(reg, b, rho)
    nz = np.nonzero(reg)[0]
    return pa.table({"b": pa.array(nz, type=pa.int64()),
                     "r": pa.array(reg[nz], type=pa.int64())})


def estimate(reg: np.ndarray) -> float:
    """HLL estimate from the folded registers, integer-sum variant."""
    s = sum(1 << (64 - int(r)) for r in reg)              # exact, huge int
    v = int((reg == 0).sum())
    alpha = 0.7213 / (1.0 + 1.079 / _M)
    est = alpha * _M * _M * float(1 << 64) / float(s)
    if v > 0 and est <= 2.5 * _M:
        est = _M * float(np.log(_M / float(v)))
    return float(np.floor(est * 1e4 + 0.5) / 1e4)


def hll_distinct(ds, extract: Callable[[pa.Table], List[str]]) -> pa.Table:
    """Approximate distinct count of ``extract(batch)`` items across the
    dataset. The per-batch partial registers are reduced DISTRIBUTIVELY
    (a grouped max of ``r`` per ``b`` — at most m=4096 rows reach the
    driver, independent of block count; round-3 advisor fix: the former
    driver fold pulled blocks x m rows). Returns a one-row table
    ``(m, v_zero, est)``."""
    from .joins import group_aggregate

    def fn(t: pa.Table) -> pa.Table:
        return register_batch(extract(t))

    folded = group_aggregate(ds.map_batches(fn, batch_format="pyarrow"),
                             "b", {"r": ("r", "max")})
    reg = np.zeros(_M, dtype=np.int64)
    for row in folded.take_all():      # ≤ 4096 rows
        reg[row["b"]] = row["r"]
    return pa.table({
        "m": pa.array([_M], type=pa.int64()),
        "v_zero": pa.array([int((reg == 0).sum())], type=pa.int64()),
        "est": pa.array([estimate(reg)], type=pa.float64()),
    })


def shingle_extractor(text_col: str = "text", k: int = 3):
    """Word k-shingle extractor (space-joined, the ngram-jaccard
    convention) for :func:`hll_distinct`."""
    def extract(t: pa.Table) -> List[str]:
        out: List[str] = []
        for txt in t[text_col].to_pylist():
            ws = [w for w in (txt or "").split(" ") if w]
            out.extend(" ".join(ws[i:i + k])
                       for i in range(len(ws) - k + 1))
        return out

    return extract


def hll_distinct_by(ds, key_col: str,
                    extract: Callable[[pa.Table], List[str]]) -> "object":
    """Grouped HLL: approximate distinct ``extract`` items PER KEY.
    Returns a Dataset of ``(key, m, v_zero, est)`` rows.

    Fully distributed, unlike the global fold: per-batch partial
    registers per key -> grouped max of ``r`` per ``(key, b)`` (register
    rows only — at most |keys| * m rows cross the wire, independent of
    input size) -> per-key estimate. The per-key map_groups is one numpy fold over ≤ m
    rows; the bounded-enum-key assumption (and its high-cardinality
    escape hatch, the cap_per_key bucket pattern) is the same one
    ``value_quantiles`` documents."""
    from .joins import group_aggregate

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({key_col: pa.array([], type=t[key_col].type),
                             "b": pa.array([], type=pa.int64()),
                             "r": pa.array([], type=pa.int64())})
        keys = t[key_col].to_pylist()
        per_key: dict = {}
        # group batch rows by key, one register_batch per present key
        for i, k in enumerate(keys):
            per_key.setdefault(k, []).append(i)
        out_k, out_b, out_r = [], [], []
        for k, idxs in per_key.items():
            sub = t.take(pa.array(idxs, type=pa.int64()))
            part = register_batch(extract(sub))
            nb = part.num_rows
            out_k.extend([k] * nb)
            out_b.extend(part["b"].to_pylist())
            out_r.extend(part["r"].to_pylist())
        return pa.table({key_col: pa.array(out_k, type=t[key_col].type),
                         "b": pa.array(out_b, type=pa.int64()),
                         "r": pa.array(out_r, type=pa.int64())})

    folded = group_aggregate(ds.map_batches(partial, batch_format="pyarrow"),
                             [key_col, "b"], {"r": ("r", "max")})

    def finish(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        reg = np.zeros(_M, dtype=np.int64)
        b = g["b"].to_numpy(zero_copy_only=False)
        r = g["r"].to_numpy(zero_copy_only=False)
        np.maximum.at(reg, b, r)
        return pa.table({
            key_col: g[key_col].slice(0, 1),
            "m": pa.array([_M], type=pa.int64()),
            "v_zero": pa.array([int((reg == 0).sum())], type=pa.int64()),
            "est": pa.array([estimate(reg)], type=pa.float64()),
        })

    return folded.groupby(key_col).map_groups(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# count-min sketch heavy hitters
# ---------------------------------------------------------------------------

_CMS_W = 8192                 # buckets per row
_CMS_D = 4                    # hash rows


def _cms_bucket(terms, j: int, width: int = _CMS_W) -> np.ndarray:
    """Bucket index of each term under hash row ``j``: DuckDB's
    ``md5_number_lower(term || '#' || j) % width``. The Bloom-filter and
    DSIR stages of ``curate`` use the same salted family."""
    h = md5_number_lower([f"{t}#{j}" for t in terms])
    return (h % np.uint64(width)).astype(np.int64)


def cms_heavy_hitters(ds, extract: Callable[[pa.Table], List[str]], k: int = 50,
                      width: int = _CMS_W, depth: int = _CMS_D) -> pa.Table:
    """Top-k most frequent items by count-min-sketch estimate.

    The 100 TB shape: exact global term counts need a vocab-wide shuffle
    of (term, count) pairs; the sketch replaces that with a FIXED
    ``depth x width`` integer counter table (1 MB here) that reduces
    distributively — per-batch local counters -> ``groupby(jb).sum`` over
    at most depth*width rows, independent of corpus size. Estimates are
    then min-of-rows lookups against the broadcast counter table; only
    the DISTINCT term list (vocab-sized, corpus-independent) ever
    shuffles, and only once. Estimates are integer-exact and
    deterministic (the classic CMS >= truth overestimate), so the DuckDB
    mirror reproduces them bit-for-bit.

    Returns a k-row ``(term, est)`` pyarrow table, ordered by
    (est desc, term asc)."""
    import ray

    from .joins import group_aggregate

    def partial_counters(t: pa.Table) -> pa.Table:
        terms = extract(t)
        if not terms:
            return pa.table({"jb": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        uniq, counts = np.unique(np.asarray(terms, dtype=str),
                                 return_counts=True)
        acc = np.zeros(depth * width, dtype=np.int64)
        for j in range(depth):
            b = _cms_bucket(uniq, j, width)
            np.add.at(acc, j * width + b, counts)
        nz = np.nonzero(acc)[0]
        return pa.table({"jb": pa.array(nz, type=pa.int64()),
                         "c": pa.array(acc[nz], type=pa.int64())})

    folded = group_aggregate(
        ds.map_batches(partial_counters, batch_format="pyarrow"), "jb",
        {"c": ("c", "sum")})
    counters = np.zeros(depth * width, dtype=np.int64)
    for row in folded.take_all():        # <= depth*width rows
        counters[row["jb"]] = row["c"]
    counters_ref = ray.put(counters)

    def batch_distinct(t: pa.Table) -> pa.Table:
        terms = extract(t)
        return pa.table({"term": pa.array(
            np.unique(np.asarray(terms, dtype=str)) if terms else [],
            type=pa.string())})

    vocab = group_aggregate(
        ds.map_batches(batch_distinct, batch_format="pyarrow"), "term",
        {"_n": (None, "count_all")}).select_columns(["term"])

    def estimate_topk(t: pa.Table) -> pa.Table:
        cnt = ray.get(counters_ref)
        terms = t["term"].to_numpy(zero_copy_only=False).astype(str)
        if len(terms) == 0:
            return pa.table({"term": pa.array([], type=pa.string()),
                             "est": pa.array([], type=pa.int64())})
        est = np.full(len(terms), np.iinfo(np.int64).max, dtype=np.int64)
        for j in range(depth):
            b = _cms_bucket(terms, j, width)
            np.minimum(est, cnt[j * width + b], out=est)
        # local top-k candidates only (global winners must win locally)
        order = np.lexsort((terms, -est))[:k]
        return pa.table({"term": pa.array(terms[order], type=pa.string()),
                         "est": pa.array(est[order], type=pa.int64())})

    cand = vocab.map_batches(estimate_topk, batch_format="pyarrow").take_all()
    terms = np.asarray([r["term"] for r in cand], dtype=str)
    est = np.asarray([r["est"] for r in cand], dtype=np.int64)
    order = np.lexsort((terms, -est))[:k]
    return pa.table({"term": pa.array(terms[order], type=pa.string()),
                     "est": pa.array(est[order], type=pa.int64())})


def column_str_extractor(col: str):
    """Stringified-column extractor (``str(value)`` == SQL
    ``CAST(x AS VARCHAR)`` for integer columns) for the hll operators."""
    def extract(t: pa.Table) -> List[str]:
        return [str(v) for v in t[col].to_pylist()]

    return extract
