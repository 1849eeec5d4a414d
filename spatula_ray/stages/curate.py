"""Training-data curation stages beyond the reference's surface: the
operations a 100 TB LLM-data pipeline runs after the crawl — repetition
filtering, deterministic sampling, sequence packing, fuzzy-dedup cluster
assignment, and corpus-level term weighting.

Design rules (same as the rest of the repo):
  * every stage is a ``map_batches`` task transform (a stage class's
    constructor runs once per task, :func:`per_task`) over Arrow batches;
    no per-row Python in the
    hot path — flattened token arrays go through pandas' C groupby paths;
  * every wide step is an explicit ``groupby`` with a documented key, with
    partial aggregation pushed into the batches wherever semantics allow;
  * every float that reaches a compared column is snapped to a fixed grid
    so partial-aggregation order cannot flip a value hash, and every
    definition is exactly reproducible in ANSI SQL (DuckDB) — see
    ``__ray_entry__.oracle_sql``.

These have no counterpart in the reference (jamesturk/spatula stops at
scrape output); they are the curation layer the north-star pipeline feeds.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import per_task
from .joins import bucket_exchange
from .sketch import _cms_bucket, md5_number_lower


def _grid(arr, scale: float):
    """floor(x*scale + 0.5)/scale on a numpy array — the repo float policy."""
    a = np.asarray(arr, dtype=np.float64)
    return pa.array(np.floor(a * scale + 0.5) / scale)


def _flat_tokens(texts):
    """Split a batch of texts on single spaces (the repo-wide SQL-parity
    convention: ``string_split(text, ' ')``, empty text -> ['']) and return
    (doc_index_repeats, flat_token_array, tokens_per_doc)."""
    splits = [t.split(" ") if t else [""] for t in texts]
    lens = np.fromiter((len(s) for s in splits), dtype=np.int64,
                       count=len(splits))
    flat = np.fromiter(chain.from_iterable(splits), dtype=object,
                       count=int(lens.sum()))
    idx = np.repeat(np.arange(len(splits), dtype=np.int64), lens)
    return idx, flat, lens


class RepetitionStats:
    """Gopher-style repetition signals per document: the fraction of tokens
    accounted for by the single most frequent token, and the duplicate
    fraction of 2-grams / 3-grams.

    SQL-parity definitions (n = len(string_split(text, ' '))):
      top_token_frac = max per-token count / n
      dup_2gram_frac = n < 2 ? 0 : 1 - distinct_2grams / (n - 1)
      dup_3gram_frac = n < 3 ? 0 : 1 - distinct_3grams / (n - 2)
    all snapped to the 1e-6 grid.

    Vectorization: one flattened (doc, token) frame per batch; counts and
    distincts run through pandas' C groupby kernels, n-grams through
    ``Series.str.cat`` on shifted views — no per-document Python loops.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        idx, flat, lens = _flat_tokens(texts)
        n_docs = len(texts)

        # top token count per doc
        df = pd.DataFrame({"d": idx, "t": flat})
        per = df.groupby(["d", "t"], sort=False).size()
        top = per.groupby(level=0, sort=False).max()
        top_cnt = np.zeros(n_docs, dtype=np.int64)
        top_cnt[top.index.to_numpy()] = top.to_numpy()

        def dup_frac(k: int) -> np.ndarray:
            # k-grams: join k shifted views of the flat token array, valid
            # where all k positions fall inside the same document
            m = max(len(flat) - k + 1, 0)
            valid = idx[:m] == idx[k - 1: k - 1 + m]
            if not valid.any():
                return np.zeros(n_docs, dtype=np.float64)
            g = pd.Series(flat[:m][valid])
            for j in range(1, k):
                g = g.str.cat(pd.Series(flat[j: j + m][valid]), sep=" ")
            gd = pd.DataFrame({"d": idx[:m][valid], "g": g.to_numpy()})
            uniq = gd.groupby("d", sort=False)["g"].nunique()
            total = np.maximum(lens - (k - 1), 1)
            u = np.zeros(n_docs, dtype=np.int64)
            u[uniq.index.to_numpy()] = uniq.to_numpy()
            out = 1.0 - u / total
            out[lens < k] = 0.0
            return out

        return pa.table({
            "doc_id": batch["doc_id"],
            "top_token_frac": _grid(top_cnt / np.maximum(lens, 1), 1e6),
            "dup_2gram_frac": _grid(dup_frac(2), 1e6),
            "dup_3gram_frac": _grid(dup_frac(3), 1e6),
        })


# -- deterministic sampling --------------------------------------------------

_SAMPLE_MULT = 2654435761       # Knuth multiplicative constant
_SAMPLE_ADD = 40503
_SAMPLE_DOM = 2 ** 31           # key folded below 2^31 so key*MULT < 2^63
_SAMPLE_MOD = 2 ** 32


def hash_sample(ds, rate_permille: int = 100, key: str = "doc_id"):
    """Deterministic Bernoulli sample by key: keep rows where
    ``((key % 2^31) * 2654435761 + 40503) % 2^32 % 1000 < rate_permille``.

    Pure per-batch filter — no shuffle, no RNG, no driver state; the same
    row set survives at any parallelism, which is what makes a sample
    resumable and auditable at 100 TB. All arithmetic stays below 2^63 by
    folding the key into [0, 2^31) first, so the identical expression runs
    in int64 SQL without overflow."""
    def pick(t: pa.Table) -> pa.Table:
        k = t[key].combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
             + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
        bucket = (h % np.uint64(1000)).astype(np.int64)
        keep = bucket < rate_permille
        t = t.append_column("sample_key", pa.array(bucket))
        return t.filter(pa.array(keep))

    return ds.map_batches(pick, batch_format="pyarrow")


def weighted_hash_sample(ds, weight_permille_col: str,
                         key: str = "doc_id"):
    """Deterministic IMPORTANCE sampling: each row keeps with its OWN
    probability ``weight_permille / 1000`` (an int64 column the caller
    derives — e.g. from a quality score), via the same hash bucket as
    :func:`hash_sample`: keep iff ``hash_bucket(key) < weight_permille``.
    Integer-exact end to end (no float acceptance threshold, so no
    cross-engine boundary hazard), per-batch streaming filter, no
    shuffle, parallelism-invariant and resumable like the unweighted
    sampler. This is the quality-proportional downsampling step of a
    training-mix pipeline."""
    def pick(t: pa.Table) -> pa.Table:
        k = t[key].combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
             + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
        bucket = (h % np.uint64(1000)).astype(np.int64)
        w = t[weight_permille_col].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.append_column("sample_key", pa.array(bucket))
        return t.filter(pa.array(bucket < w))

    return ds.map_batches(pick, batch_format="pyarrow")


def temperature_mix(ds, source_col: str = "source", key: str = "doc_id",
                    temperature: float = 0.5):
    """Temperature-based source re-balancing (the XLM-R / mT5 mixture
    recipe): sample source ``s`` at a rate proportional to
    ``n_s^temperature / n_s`` so low-resource sources are up-weighted
    relative to their share, targeting ``total // 2`` output rows.

    Integer-exact end to end so the acceptance set is reproducible in
    SQL and across engines: per-source weight ``w_s = floor(sqrt(n_s) *
    1e6)`` (IEEE sqrt is correctly rounded, so numpy and DuckDB agree
    bit-for-bit), acceptance rate ``min(1e6, (T * w_s * 1e6) // (W *
    n_s))`` in arbitrary-precision ints (HUGEINT on the SQL side), and
    the per-row Knuth hash bucket of :func:`hash_sample` in
    per-million units. Only ``temperature=0.5`` is exposed — other
    exponents need ``pow``, which IEEE does NOT require to be
    correctly rounded, so they'd break cross-engine bit-parity.

    Scale shape: one small groupby for the per-source counts (driver
    sees #sources rows, not data), then a stateless per-batch filter —
    no shuffle of the corpus, parallelism-invariant, resumable."""
    import math

    import pandas as pd

    from .joins import group_aggregate

    if temperature != 0.5:
        raise ValueError("temperature_mix: only temperature=0.5 (sqrt) "
                         "is bit-exact across engines; got %r"
                         % (temperature,))
    counts = group_aggregate(ds.select_columns([source_col]), source_col,
                             {"ns": (None, "count_all")}).take_all()
    ns = {r[source_col]: int(r["ns"]) for r in counts}
    total = sum(ns.values())
    target = total // 2
    ws = {s: int(math.floor(math.sqrt(n) * 1e6)) for s, n in ns.items()}
    wsum = sum(ws.values())
    rates = {s: min(1_000_000,
                    (target * ws[s] * 1_000_000) // (wsum * ns[s]))
             for s in ns}

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        k = df[key].to_numpy(dtype=np.uint64)
        h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
             + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
        mix_key = (h % np.uint64(1_000_000)).astype(np.int64)
        rate = df[source_col].map(rates).to_numpy(dtype=np.int64)
        out = pd.DataFrame({key: df[key].to_numpy(dtype=np.int64),
                            source_col: df[source_col].astype("string"),
                            "rate_micro": rate,
                            "mix_key": mix_key})
        return out[mix_key < rate]

    return ds.select_columns([key, source_col]).map_batches(
        pick, batch_format="pandas")


# -- sequence packing --------------------------------------------------------

def pack_sequences(ds, budget: int = 512, bucket_span: int = 4096):
    """Assign each document (ordered by doc_id) to a training-sequence bin:
    ``bin = exclusive_prefix_sum(n_tokens) // budget`` — streaming
    chunk-packing with a global deterministic order.

    Distributed prefix sum in two passes over ONE partitioning key
    (``doc_id // bucket_span``):
      1. per-bucket token totals via groupby-sum — the per-bucket table is
         #docs/bucket_span rows, exclusively scanned on the driver (at
         1e9 docs and span 4096 that is ~250k rows of two ints; for more,
         make the scan hierarchical by re-bucketing the bucket table);
      2. per-bucket vectorized cumsum + the bucket's exclusive offset, one
         C kernel per multi-thousand-doc bucket via groupby.map_groups.

    Input ``ds`` must have columns (doc_id, text)."""
    def tokens(t: pa.Table) -> pa.Table:
        nt = pc.list_value_length(
            pc.split_pattern(t["text"], pattern=" ")).cast(pa.int64())
        # SQL-parity: string_split('', ' ') = [''] -> 1 token, matching
        # pyarrow split_pattern on '' (one empty element)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": nt,
            "__span": pc.divide(t["doc_id"], bucket_span),
        })

    toks = ds.map_batches(tokens, batch_format="pyarrow").materialize()
    return pack_by_cost(toks, budget, cost_col="n_tokens")


def pack_by_cost(costs, budget: int, cost_col: str = "cost"):
    """Cost-generic streaming sequence packing: assign each row (ordered
    by doc_id) to ``bin = exclusive_prefix_sum(cost) // budget``. Input
    must carry (doc_id, cost_col, __span) — the same two-pass
    distributed prefix sum :func:`pack_sequences` documents (per-bucket
    totals scanned once on the driver, vectorized per-bucket cumsum).
    The cost model is the caller's: token counts, interleaved
    text+media patch costs, byte sizes."""
    from .joins import group_aggregate

    per_bucket = group_aggregate(costs, "__span",
                                 {"tok": (cost_col, "sum")}).take_all()
    per_bucket.sort(key=lambda r: r["__span"])
    offsets: Dict[int, int] = {}
    run = 0
    for r in per_bucket:
        offsets[r["__span"]] = run
        run += r["tok"]

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        n = g[cost_col].to_numpy()
        base = offsets[int(g["__span"].iloc[0])]
        excl = base + np.cumsum(n) - n
        return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(),
                             cost_col: n,
                             "seq_bin": (excl // budget).astype(np.int64)})

    return costs.groupby("__span").map_groups(pack, batch_format="pandas")


def pack_interleaved(docs, budget: int = 1024, media_token_cost: int = 16,
                     bucket_span: int = 4096):
    """Multimodal sequence packing over the interleaved span profile (the
    docweb layout: title/lang/source/body text spans + one media span per
    doc): per-doc cost = total text tokens across the doc's text spans +
    ``media_token_cost`` per media span (the fixed patch-token budget a
    vision encoder charges per image), then the same deterministic
    streaming prefix-sum packing as :func:`pack_sequences`. Returns
    ``(doc_id, cost, seq_bin)``."""
    def cost(t: pa.Table) -> pa.Table:
        body = pc.list_value_length(
            pc.split_pattern(t["text"], pattern=" ")).cast(pa.int64())
        # title "Doc {id}" = 2 tokens, lang = 1, source = 1; one media
        # span at media_token_cost (mirrors the crawl_span_stats profile)
        fixed = 2 + 1 + 1 + media_token_cost
        return pa.table({
            "doc_id": t["doc_id"],
            "cost": pc.add(body, pa.scalar(fixed, type=pa.int64())),
            "__span": pc.divide(t["doc_id"], bucket_span),
        })

    costs = docs.map_batches(cost, batch_format="pyarrow").materialize()
    return pack_by_cost(costs, budget, cost_col="cost")


# -- context-window chunking ---------------------------------------------------

def chunk_documents(ds, size: int = 64, stride: int = 48):
    """Explode each document into sliding token windows — the chunking
    pass that turns curated documents into model-context-sized training /
    retrieval units. Chunk ``i`` covers whitespace tokens
    ``[i*stride, min(i*stride + size, n))``; the chunk count is
    ``1`` for docs with ``n <= size`` tokens, else
    ``ceil((n - size) / stride) + 1`` — every token is covered and the
    last window reaches the end exactly (no degenerate fully-contained
    tail chunk).

    Pure streaming map, no shuffle: one pyarrow ``split_pattern`` per
    batch, then the whole explode is numpy index arithmetic — chunk
    token indices are gathered from the flat token array with ONE
    ``take`` and re-joined with ONE ``binary_join``; no per-row Python.
    At 100 TB this stage is embarrassingly parallel and output-bounded
    (~size/stride x input tokens).

    Returns (doc_id, chunk_id, n_tokens, chunk_text); mirrored exactly by
    ``__ray_entry__.oracle_sql['chunk_documents']`` (1-based DuckDB list
    slices of the same token arrays)."""
    if stride <= 0 or size <= 0:
        raise ValueError("size and stride must be positive")

    def explode(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        lst = pc.split_pattern(t["text"].combine_chunks(), pattern=" ")
        doc_off = lst.offsets.to_numpy().astype(np.int64)
        lens = np.diff(doc_off)
        n_chunks = np.where(
            lens <= size, 1,
            (lens - size + stride - 1) // stride + 1).astype(np.int64)
        c_doc = np.repeat(np.arange(len(lens), dtype=np.int64), n_chunks)
        c_off = np.r_[0, np.cumsum(n_chunks)]
        chunk_id = (np.arange(int(c_off[-1]), dtype=np.int64)
                    - np.repeat(c_off[:-1], n_chunks))
        starts = chunk_id * stride
        ends = np.minimum(starts + size, lens[c_doc])
        c_lens = ends - starts
        out_off = np.r_[0, np.cumsum(c_lens)]
        tok_idx = (np.arange(int(out_off[-1]), dtype=np.int64)
                   - np.repeat(out_off[:-1], c_lens)
                   + np.repeat(doc_off[c_doc] + starts, c_lens))
        gathered = lst.values.take(pa.array(tok_idx))
        lists = pa.ListArray.from_arrays(
            pa.array(out_off, type=pa.int32()), gathered)
        return pa.table({
            "doc_id": pa.array(t["doc_id"].to_numpy()[c_doc]),
            "chunk_id": pa.array(chunk_id),
            "n_tokens": pa.array(c_lens),
            "chunk_text": pc.binary_join(lists, " "),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


# -- content-defined chunking (Rabin / FastCDC-style) ---------------------------

# 257^7 .. 257^0 mod 2^64 — the window polynomial, inlined on both sides
# (numpy uint64 wraparound == DuckDB HUGEINT % 2^64; parity verified in
# tests/test_oracles.py)
_CDC_POW = tuple(pow(257, 7 - i, 1 << 64) for i in range(8))
_CDC_WINDOW = 8


def cdc_chunks(docs, divisor: int = 64, max_len: int = 128):
    """Content-defined chunking: split each document at positions where
    the Rabin-style polynomial hash of the trailing 8-char window is
    ``0 mod divisor`` (expected chunk ~``divisor`` chars), then split any
    remaining segment longer than ``max_len`` at fixed offsets from the
    segment start. Unlike fixed-stride chunking (``chunk_documents``),
    CDC boundaries are a pure function of local content, so an insertion
    or deletion re-chunks only its neighborhood — downstream chunk-hash
    dedup aligns shared content across near-identical documents (the
    rsync / LBFS / FastCDC property). No minimum-size guard: the cut set
    stays a pure per-position function (sequential min-guards make the
    boundary depend on the previous cut), which is what makes an exact
    SQL mirror possible.

    Pure streaming map, no shuffle. The window hash is computed for the
    WHOLE batch in 8 fused numpy multiply-adds over the concatenated
    codepoint array (utf-32 decode, uint64 wraparound arithmetic);
    boundary extraction is masked ``nonzero``. Only the final chunk-text
    md5 is per chunk (not per char) — at 100 TB this stage is
    embarrassingly parallel and output-bounded (~n_chars/divisor rows).

    Returns ``(doc_id, chunk_seq, start, length, chunk_hash)`` with
    1-based ``start`` (DuckDB ``substring`` convention) and
    ``chunk_hash`` = md5 low-8-bytes little-endian of the chunk text
    (== ``md5_number_lower``). Mirrored exactly by
    ``__ray_entry__.oracle_sql['cdc_chunks']``."""
    if divisor <= 0 or max_len <= 0:
        raise ValueError("divisor and max_len must be positive")
    div = np.uint64(divisor)

    def explode(t: pa.Table) -> pa.Table:
        texts = [x or "" for x in t["text"].to_pylist()]
        enc = [x.encode("utf-32-le") for x in texts]
        lens = np.fromiter((len(e) >> 2 for e in enc), dtype=np.int64,
                           count=len(enc))
        doc_off = np.r_[0, np.cumsum(lens)]
        cp = np.frombuffer(b"".join(enc), dtype=np.uint32).astype(np.uint64)
        n_all = int(doc_off[-1])
        w = _CDC_WINDOW
        if n_all >= w:
            h = np.zeros(n_all - w + 1, dtype=np.uint64)
            for k, pw in enumerate(_CDC_POW):
                h += cp[k:n_all - w + 1 + k] * np.uint64(pw)
            p_glob = np.nonzero(h % div == np.uint64(0))[0]
            d_of = np.searchsorted(doc_off, p_glob, side="right") - 1
            ok = p_glob + w <= doc_off[d_of + 1]
            p_glob, d_of = p_glob[ok], d_of[ok]
            cut_local = p_glob + w - doc_off[d_of]
        else:
            d_of = np.zeros(0, dtype=np.int64)
            cut_local = np.zeros(0, dtype=np.int64)

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_doc, out_seq, out_start, out_len, chunks = [], [], [], [], []
        cut_splits = np.searchsorted(d_of, np.arange(len(texts) + 1))
        for i, txt in enumerate(texts):
            n = lens[i]
            if n == 0:
                continue
            bounds = np.unique(np.r_[0, cut_local[cut_splits[i]:
                                               cut_splits[i + 1]], n])
            seg_start, seg_len = bounds[:-1], np.diff(bounds)
            n_pieces = -(-seg_len // max_len)
            starts = (np.repeat(seg_start, n_pieces)
                      + (np.arange(int(n_pieces.sum()))
                         - np.repeat(np.r_[0, np.cumsum(n_pieces)][:-1],
                                     n_pieces)) * max_len)
            clens = np.minimum(
                max_len, np.repeat(seg_start + seg_len, n_pieces) - starts)
            for j, (s, ln) in enumerate(zip(starts.tolist(),
                                            clens.tolist())):
                out_doc.append(ids[i])
                out_seq.append(j)
                out_start.append(s + 1)
                out_len.append(ln)
                chunks.append(txt[s:s + ln])
        return pa.table({
            "doc_id": pa.array(out_doc, type=pa.int64()),
            "chunk_seq": pa.array(out_seq, type=pa.int64()),
            "start": pa.array(out_start, type=pa.int64()),
            "length": pa.array(out_len, type=pa.int64()),
            "chunk_hash": pa.array(md5_number_lower(chunks),
                                   type=pa.uint64()),
        })

    return docs.map_batches(explode, batch_format="pyarrow")


def cdc_dedup_stats(docs, divisor: int = 64, max_len: int = 128):
    """Chunk-level storage-dedup manifest over content-defined chunks:
    the text analogue of ``multimodal.media_asset_dedup`` — which chunks
    are shared, by how many references and documents, and which document
    owns the canonical copy (min doc_id). Because CDC boundaries realign
    across edits, near-duplicate documents share most of their chunk
    hashes, so this surfaces sub-document duplication that whole-doc
    exact dedup misses (the rsync/LBFS store-once economics).

    Chunk texts never shuffle: the first streaming map reduces each
    batch to compact ``(chunk_hash, length, doc_id, c)`` partials, then
    ONE chunk_hash-bucket exchange folds them (sum / min / nunique are
    bucket-local since the bucket key is the chunk hash). Output is
    bounded by true duplication (``n_refs >= 2`` rows only).

    Returns ``(chunk_hash, length, owner_doc, n_refs, n_docs)``;
    mirrored by ``__ray_entry__.oracle_sql['cdc_dedup_stats']`` (the
    cdc_chunks mirror wrapped in a GROUP BY)."""
    chunks = cdc_chunks(docs, divisor=divisor, max_len=max_len)

    def partial(t: pa.Table) -> pa.Table:
        per = (pd.DataFrame({
            "chunk_hash": t["chunk_hash"].to_numpy(zero_copy_only=False),
            "length": t["length"].to_numpy(zero_copy_only=False),
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)})
            .groupby(["chunk_hash", "length", "doc_id"], sort=False)
            .size().reset_index(name="c"))
        return pa.table({
            "chunk_hash": pa.array(per["chunk_hash"].to_numpy(),
                                   type=pa.uint64()),
            "length": pa.array(per["length"].to_numpy().astype(np.int64)),
            "doc_id": pa.array(per["doc_id"].to_numpy().astype(np.int64)),
            "c": pa.array(per["c"].to_numpy().astype(np.int64)),
        })

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["chunk_hash", "length"])
               .agg(owner_doc=("doc_id", "min"),
                    n_refs=("c", "sum"),
                    n_docs=("doc_id", "nunique"))
               .reset_index())
        out = out[out["n_refs"] >= 2]
        for c in ("length", "owner_doc", "n_refs", "n_docs"):
            out[c] = out[c].astype("int64")
        out["chunk_hash"] = out["chunk_hash"].astype("uint64")
        return out

    return bucket_exchange(chunks.map_batches(partial, batch_format="pyarrow"),
                           ["chunk_hash"], fold)


def cdc_delta_bytes(corpus_docs, new_docs, divisor: int = 64,
                    max_len: int = 128):
    """Incremental-ingest dedup accounting: for every NEW document, how
    many characters does it actually add beyond the existing corpus's
    CDC chunk index? This is the store-once economics question an
    incremental crawl/ingest pipeline answers before writing — CDC
    boundary realignment means a lightly-edited re-crawl of a known page
    contributes only its edited neighborhoods as new bytes.

    Fully distributed anti-join by chunk hash: both sides reduce to
    compact partials in streaming maps (corpus -> block-distinct
    ``(chunk_hash)``, new -> per-(chunk_hash, doc) char sums; chunk
    TEXTS never shuffle), then ONE chunk_hash-bucket exchange folds the
    membership test per bucket, and a per-doc-bucket fold sums the
    partials. No broadcast set, no driver state — per-bucket memory is
    O(index / cluster CPUs).

    Returns ``(doc_id, total_chars, new_chars, pct_new_micro)`` with
    ``pct_new_micro = new * 1e6 // total`` (integer micro-units, the
    corpus_report floor-division convention). Mirrored by
    ``__ray_entry__.oracle_sql['cdc_delta_bytes']``."""
    corp = cdc_chunks(corpus_docs, divisor=divisor, max_len=max_len)
    new = cdc_chunks(new_docs, divisor=divisor, max_len=max_len)

    def corp_partial(t: pa.Table) -> pa.Table:
        h = pd.unique(t["chunk_hash"].to_numpy(zero_copy_only=False))
        n = len(h)
        return pa.table({
            "chunk_hash": pa.array(h, type=pa.uint64()),
            "doc_id": pa.array(np.full(n, -1, dtype=np.int64)),
            "chars": pa.array(np.zeros(n, dtype=np.int64)),
            "side": pa.array(np.zeros(n, dtype=np.int8)),
        })

    def new_partial(t: pa.Table) -> pa.Table:
        per = (pd.DataFrame({
            "chunk_hash": t["chunk_hash"].to_numpy(zero_copy_only=False),
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
            "chars": t["length"].to_numpy(zero_copy_only=False)})
            .groupby(["chunk_hash", "doc_id"], sort=False)["chars"].sum()
            .reset_index())
        return pa.table({
            "chunk_hash": pa.array(per["chunk_hash"].to_numpy(),
                                   type=pa.uint64()),
            "doc_id": pa.array(per["doc_id"].to_numpy().astype(np.int64)),
            "chars": pa.array(per["chars"].to_numpy().astype(np.int64)),
            "side": pa.array(np.ones(len(per), dtype=np.int8)),
        })

    both = (corp.map_batches(corp_partial, batch_format="pyarrow")
            .union(new.map_batches(new_partial, batch_format="pyarrow")))

    def anti_fold(g: pd.DataFrame) -> pd.DataFrame:
        known = set(g.loc[g["side"] == 0, "chunk_hash"].to_numpy())
        nw = g[g["side"] == 1]
        novel = ~nw["chunk_hash"].isin(known)
        return (pd.DataFrame({
            "doc_id": nw["doc_id"].to_numpy(),
            "total_chars": nw["chars"].to_numpy(),
            "new_chars": np.where(novel, nw["chars"].to_numpy(), 0)})
            .groupby("doc_id", sort=False).sum().reset_index())

    def doc_fold(g: pd.DataFrame) -> pd.DataFrame:
        per = (g.groupby("doc_id", sort=False)[["total_chars", "new_chars"]]
               .sum().reset_index())
        return pd.DataFrame({
            "doc_id": per["doc_id"].to_numpy(dtype=np.int64),
            "total_chars": per["total_chars"].to_numpy(dtype=np.int64),
            "new_chars": per["new_chars"].to_numpy(dtype=np.int64),
            "pct_new_micro": (per["new_chars"].to_numpy(dtype=np.int64)
                              * 1_000_000
                              // per["total_chars"].to_numpy(
                                  dtype=np.int64)).astype(np.int64)})

    return bucket_exchange(bucket_exchange(both, ["chunk_hash"], anti_fold),
                           ["doc_id"], doc_fold)


# -- vocabulary coverage / OOV-rate scoring ------------------------------------

def corpus_vocab(docs, vocab_size: int = 200):
    """The ``vocab_size`` most frequent whitespace tokens of a corpus
    (ties broken on term ascending — a total deterministic order).

    Shuffle plan: per-batch partial token counts (pandas C groupby over
    ONE flattened array), a grouped sum on the term key, then the
    top_orders pattern — per-batch partial top-V +
    one single-partition reduce over <= V x blocks rows. Returns a small
    Dataset (term, cnt); collect with take_all only through
    :func:`vocab_coverage`, which bounds it by construction."""
    from .joins import group_aggregate

    def partial_counts(t: pa.Table) -> pa.Table:
        _, flat, _ = _flat_tokens(t["text"].to_pylist())
        vc = pd.DataFrame({"t": flat}).groupby("t", sort=False).size()
        return pa.table({
            "term": pa.array(vc.index.to_numpy(), type=pa.string()),
            "c": pa.array(vc.to_numpy().astype(np.int64)),
        })

    counts = group_aggregate(
        docs.map_batches(partial_counts, batch_format="pyarrow"), "term",
        {"cnt": ("c", "sum")})

    def local_top(t: pa.Table) -> pa.Table:
        return t.sort_by([("cnt", "descending"),
                          ("term", "ascending")]).slice(0, vocab_size)

    pruned = counts.map_batches(local_top, batch_format="pyarrow")
    return pruned.repartition(1).map_batches(local_top,
                                             batch_format="pyarrow")


class VocabCoverage:
    """Per-document vocabulary coverage against a broadcast top-V vocab:
    the data-quality signal that drops boilerplate/gibberish docs whose
    token mass falls outside the corpus head vocabulary.

    The vocab set ships once per task (constructor value); each batch
    flattens to one token array and membership-tests through pandas'
    vectorized ``isin`` — a pure streaming map over the 100 TB side,
    exactly the :class:`Decontaminate` shape. Emits (doc_id, n_tokens,
    n_invocab, coverage) with coverage on the 1e-6 grid."""

    def __init__(self, vocab):
        import ray

        if isinstance(vocab, ray.ObjectRef):
            vocab = ray.get(vocab)
        self._vocab = (vocab if isinstance(vocab, frozenset)
                       else frozenset(vocab))

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        idx, flat, lens = _flat_tokens(texts)
        hit = pd.Series(flat).isin(self._vocab).to_numpy()
        n_in = np.bincount(idx, weights=hit,
                           minlength=len(texts)).astype(np.int64)
        cov = n_in / np.maximum(lens, 1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(lens),
            "n_invocab": pa.array(n_in),
            "coverage": _grid(cov, 1e6),
        })


def vocab_coverage(docs, vocab_size: int = 200):
    """Two-pass vocabulary-coverage scoring: build the corpus top-V vocab
    (:func:`corpus_vocab` — one term-key shuffle), broadcast it, score
    every document with a streaming ``isin`` map. The corpus is scanned
    twice; pass a materialized projection when upstream is expensive.
    The driver holds only the V-row vocab (bounded by construction)."""
    vocab = frozenset(
        r["term"] for r in corpus_vocab(docs, vocab_size).take_all())
    return docs.map_batches(per_task(VocabCoverage, vocab=vocab),
                            batch_format="pyarrow")


# -- per-stratum deterministic sampling ----------------------------------------

def stratified_sample(ds, strata_col: str, rates_permille: Dict[str, int],
                      default_permille: int = 0, key: str = "doc_id"):
    """Deterministic per-stratum Bernoulli sample: row kept iff its
    :func:`hash_sample` bucket is below its stratum's permille rate —
    up-/down-weighting sources or languages without an RNG, stable at any
    parallelism and under resume (the mixing step of a data recipe).

    Pure per-batch filter, no shuffle; the rate table rides into the
    closure (tiny). Same int64-safe arithmetic as ``hash_sample``."""
    def pick(t: pa.Table) -> pa.Table:
        k = t[key].combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
             + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
        bucket = (h % np.uint64(1000)).astype(np.int64)
        strata = t[strata_col].to_pylist()
        rate = np.fromiter(
            (rates_permille.get(s, default_permille) for s in strata),
            dtype=np.int64, count=len(strata))
        t = t.append_column("sample_key", pa.array(bucket))
        return t.filter(pa.array(bucket < rate))

    return ds.map_batches(pick, batch_format="pyarrow")


# -- deterministic epoch shuffle -----------------------------------------------

def epoch_shuffle(ds, epoch: int, n_shards: int = 8, key: str = "doc_id"):
    """Deterministic global training-order shuffle for one epoch: every
    row gets a shard and a position inside that shard, both pure
    functions of (key, epoch) — a new order every epoch, identical at any
    parallelism, resumable mid-epoch by remembering (shard, pos). The
    alternative, ``ds.random_shuffle()``, is seed-per-run and cannot be
    replayed after a mid-epoch failure.

    ``h = ((key + epoch * 1000003) % 2^31) * 2654435761 + 40503) % 2^32``
    (the repo's int64-safe mix), ``shard = h % n_shards``, ``pos`` = rank
    within the shard by (h, key). Ranking co-locates each shard in one
    group (a groupby shuffle moving only (key, h) pairs + payload once)
    and ranks it with one vectorized sort — size ``n_shards`` so a shard
    fits one worker (at 100 TB use n_shards ~ corpus_bytes / 1 GiB; the
    rank is per-shard, so more shards = smaller groups, no global sort)."""
    def mix(t: pa.Table) -> pa.Table:
        k = t[key].combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = (((k + np.uint64(epoch) * np.uint64(1000003))
              % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
             + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
        return pa.table({
            key: t[key],
            "__h": pa.array(h.astype(np.int64)),
            "shard": pa.array((h % np.uint64(n_shards)).astype(np.int64)),
        })

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__h", key], kind="mergesort")
        return pd.DataFrame({
            key: g[key].to_numpy(),
            "shard": g["shard"].to_numpy(),
            "pos": np.arange(len(g), dtype=np.int64),
        })

    return (ds.map_batches(mix, batch_format="pyarrow")
            .groupby("shard").map_groups(rank, batch_format="pandas"))


# -- eval-set decontamination -------------------------------------------------

def _distinct_shingles(texts, k: int = 3):
    """Per-doc distinct k-gram shingles under the repo-wide tokenization
    (split on single spaces; docs shorter than k tokens contribute their
    whole text as one shingle — same rule as the MinHash shingler and the
    dup_clusters SQL oracle). Returns (doc_index_repeats, flat_shingles)."""
    idx_parts, sh_parts = [], []
    for i, t in enumerate(texts):
        ts = t.split(" ") if t else [""]
        if len(ts) < k:
            grams = {" ".join(ts)}
        else:
            grams = {" ".join(ts[j: j + k]) for j in range(len(ts) - k + 1)}
        idx_parts.append(np.full(len(grams), i, dtype=np.int64))
        sh_parts.append(np.fromiter(grams, dtype=object, count=len(grams)))
    return (np.concatenate(idx_parts) if idx_parts else np.empty(0, np.int64),
            np.concatenate(sh_parts) if sh_parts else np.empty(0, object))


def eval_shingle_set(eval_ds, k: int = 3) -> frozenset:
    """Collect the distinct shingles of an *eval/benchmark* corpus.

    Per-batch distinct pushdown, then a driver-side set union — bounded by
    the eval set, which is small by construction (benchmarks are 1e4-1e6
    docs, not the 100 TB training corpus). For an eval set too big for one
    driver set, swap the frozenset for a sharded-actor membership filter
    (the cuckoo URL-seen protocol in engine/cuckoo.py is exactly that
    shape)."""
    def batch_shingles(t: pa.Table) -> pa.Table:
        _, flat = _distinct_shingles(t["text"].to_pylist(), k)
        return pa.table({"g": pa.array(pd.unique(flat), type=pa.string())})

    parts = eval_ds.map_batches(
        batch_shingles, batch_format="pyarrow").take_all()
    return frozenset(r["g"] for r in parts)


class Decontaminate:
    """Flag training documents whose shingles overlap an eval set — the
    benchmark-decontamination pass every LLM training pipeline runs.

    The eval shingle set is broadcast once (``ray.put`` by the caller /
    Ray's implicit closure capture of by-value args) and read per task in
    ``__init__``; each batch flattens to one (doc, shingle) frame and
    membership-tests through pandas' vectorized ``isin`` — no per-row
    Python, no shuffle: a pure streaming map over the 100 TB side.

    Emits per doc: n_shingles, overlap (count of eval-hit shingles),
    overlap_frac on the 1e-6 grid, contaminated (int64 0/1 at
    ``threshold``)."""

    def __init__(self, eval_shingles, k: int = 3, threshold: float = 0.5):
        import ray

        if isinstance(eval_shingles, ray.ObjectRef):
            eval_shingles = ray.get(eval_shingles)
        self._set = (eval_shingles if isinstance(eval_shingles, frozenset)
                     else frozenset(eval_shingles))
        self._k = k
        self._thr = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        idx, flat = _distinct_shingles(texts, self._k)
        n_docs = len(texts)
        hit = pd.Series(flat).isin(self._set).to_numpy()
        n_sh = np.bincount(idx, minlength=n_docs).astype(np.int64)
        ov = np.bincount(idx, weights=hit, minlength=n_docs).astype(np.int64)
        frac = ov / np.maximum(n_sh, 1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_shingles": pa.array(n_sh),
            "overlap": pa.array(ov),
            "overlap_frac": _grid(frac, 1e6),
            "contaminated": pa.array((frac >= self._thr).astype(np.int64)),
        })


def build_membership_shards(eval_ds, k: int = 3, n_shards: int = 4):
    """Scale path for :func:`eval_shingle_set` (the docstring's promised
    swap, now real): the eval corpus's distinct shingles are routed by
    ``hash(shingle) % n_shards`` into exact-set membership ACTORS — no
    driver set, no broadcast; per-shard memory is O(eval / n_shards).
    Exact sets (not cuckoo) so the output is bit-identical to the
    broadcast :class:`Decontaminate` and shares its oracle. Returns the
    shard handles (zero-cpu actors, like the URL-seen shards)."""
    import ray

    shards = [_MembershipShard.options(num_cpus=0).remote()
              for _ in range(n_shards)]

    def feed(t: pa.Table) -> pa.Table:
        _, flat = _distinct_shingles(t["text"].to_pylist(), k)
        uniq = pd.unique(flat)
        if len(uniq):
            owner = (pd.util.hash_array(uniq.astype(object))
                     % np.uint64(n_shards)).astype(np.int64)
            ray.get([shards[s].add.remote([uniq[i] for i in idxs])
                     for s in np.unique(owner)
                     for idxs in [np.nonzero(owner == s)[0]]])
        return pa.table({"n": pa.array([len(uniq)], type=pa.int64())})

    eval_ds.map_batches(feed, batch_format="pyarrow").materialize()
    return shards


_BLOOM_M = 1 << 18              # bits (32 KB packed; fits any broadcast)
_BLOOM_K = 3                    # hash functions


def bloom_bits(eval_ds, k: int = 3, m: int = _BLOOM_M,
               n_hashes: int = _BLOOM_K) -> np.ndarray:
    """Distributed Bloom-filter build over an eval corpus's shingles.

    The third point on the decontamination memory/exactness curve
    (broadcast frozenset -> sharded exact actors -> Bloom): the filter is
    a FIXED m-bit array regardless of eval size, so it broadcasts to every
    worker for free where the exact set would not fit. Build is one
    streaming pass: per-batch distinct shingles -> bit positions ->
    ``groupby(pos)`` distinct (at most m rows cross the wire) -> one
    driver fold into a bool array. Positions are the salted
    ``md5_number_lower`` family of the count-min sketch
    (:func:`sketch._cms_bucket`), so the DuckDB oracle reproduces
    membership — including false positives — bit-for-bit."""

    def feed(t: pa.Table) -> pa.Table:
        _, flat = _distinct_shingles(t["text"].to_pylist(), k)
        uniq = pd.unique(flat)
        acc = np.zeros(m, dtype=bool)
        if len(uniq):
            u = np.asarray(uniq, dtype=str)
            for i in range(n_hashes):
                acc[_cms_bucket(u, i, m)] = True
        nz = np.nonzero(acc)[0]
        return pa.table({"pos": pa.array(nz, type=pa.int64())})

    from .joins import group_aggregate

    folded = group_aggregate(eval_ds.map_batches(feed, batch_format="pyarrow"),
                             "pos", {"_n": (None, "count_all")})
    bits = np.zeros(m, dtype=bool)
    for row in folded.take_all():          # <= m rows
        bits[row["pos"]] = True
    return bits


class BloomDecontaminate:
    """Decontaminate against a broadcast Bloom filter: a doc is flagged
    when ANY of its shingles is bloom-positive (all ``n_hashes`` bits
    set). Same streaming-map shape as :class:`Decontaminate`; memory per
    task is the m-bit array instead of the eval shingle set. Output is
    deterministic (false positives included) and SQL-mirrorable."""

    def __init__(self, bits, k: int = 3, m: int = _BLOOM_M,
                 n_hashes: int = _BLOOM_K):
        import ray

        if isinstance(bits, ray.ObjectRef):
            bits = ray.get(bits)
        self._bits = np.asarray(bits, dtype=bool)
        self._k = k
        self._m = m
        self._n_hashes = n_hashes

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        idx, flat = _distinct_shingles(texts, self._k)
        n_docs = len(texts)
        hit = np.ones(len(flat), dtype=bool)
        if len(flat):
            f = np.asarray(flat, dtype=str)
            for i in range(self._n_hashes):
                hit &= self._bits[_cms_bucket(f, i, self._m)]
        n_sh = np.bincount(idx, minlength=n_docs).astype(np.int64)
        bh = np.bincount(idx, weights=hit, minlength=n_docs).astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_shingles": pa.array(n_sh),
            "bloom_hits": pa.array(bh),
            "contaminated": pa.array((bh > 0).astype(np.int64)),
        })


def release_membership_shards(shards) -> None:
    """Kill the membership-shard actors (round-3 advisor fix: callers own
    actor lifetime — a long driver session that builds shards per query
    would otherwise accumulate zero-CPU actors pinning eval shingle sets).
    Call after the decontamination dataset is fully consumed."""
    import ray

    for s in shards:
        try:
            ray.kill(s)
        except Exception:
            pass


import ray as _ray


@_ray.remote
class _MembershipShard:
    """Exact membership shard: one Python set over this shard's slice of
    the eval shingle space."""

    def __init__(self):
        self._set = set()

    def add(self, items):
        self._set.update(items)

    def contains(self, items):
        return [x in self._set for x in items]


class DecontaminateSharded:
    """Sharded-membership decontamination — identical output to
    :class:`Decontaminate`, but the eval set lives in membership shard
    actors instead of a broadcast frozenset (SCALE.md knob #3, closed).
    Per batch: shingles dedupe once (``np.unique``), route to owning
    shards by the same hash as the build, ONE ``contains`` RPC per shard
    touched, then the per-doc aggregation is the broadcast class's exact
    numpy path. RPC volume is O(distinct shingles per batch), the same
    order as the URL-seen filter's offer traffic."""

    def __init__(self, shards, k: int = 3, threshold: float = 0.5):
        self._shards = shards
        self._n = len(shards)
        self._k = k
        self._thr = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        texts = batch["text"].to_pylist()
        idx, flat = _distinct_shingles(texts, self._k)
        n_docs = len(texts)
        uniq, inv = np.unique(np.asarray(flat, dtype=object),
                              return_inverse=True)
        hit_uniq = np.zeros(len(uniq), dtype=bool)
        if len(uniq):
            owner = (pd.util.hash_array(uniq)
                     % np.uint64(self._n)).astype(np.int64)
            futures, idx_lists = [], []
            for s in np.unique(owner):
                idxs = np.nonzero(owner == s)[0]
                futures.append(self._shards[int(s)].contains.remote(
                    [uniq[i] for i in idxs]))
                idx_lists.append(idxs)
            for idxs, verdicts in zip(idx_lists, ray.get(futures)):
                hit_uniq[idxs] = verdicts
        hit = hit_uniq[inv] if len(flat) else np.zeros(0, dtype=bool)
        n_sh = np.bincount(idx, minlength=n_docs).astype(np.int64)
        ov = np.bincount(idx, weights=hit, minlength=n_docs).astype(np.int64)
        frac = ov / np.maximum(n_sh, 1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_shingles": pa.array(n_sh),
            "overlap": pa.array(ov),
            "overlap_frac": _grid(frac, 1e6),
            "contaminated": pa.array((frac >= self._thr).astype(np.int64)),
        })


# -- deterministic weighted source interleaving -------------------------------

def weighted_mix_head(ds, weights: Dict[str, int], n: int,
                      default_weight: int = 1, key: str = "doc_id",
                      source_col: str = "source"):
    """The first ``n`` rows of a deterministic weighted interleave of
    sources — the data-mixing step that turns per-source corpora into one
    training stream at fixed ratios.

    Each row gets ``mix_pos = hash(key) * (LCM(weights) // weight(source))``:
    a source with weight w lands rows at 1/w the key density of a weight-1
    source, so a scan in mix_pos order consumes sources in ratio
    ``w_a : w_b`` in expectation, deterministically (no RNG — the same
    stream at any parallelism, resumable mid-epoch by remembering the last
    mix_pos). All arithmetic stays below 2^63 (hash < 2^32, multiplier
    small), so the identical expression runs in int64 SQL.

    No global sort: the head of the stream is a per-batch partial top-n
    plus one single-partition reduce (the top_orders_by_revenue pattern) —
    an O(n) reduce instead of an all-to-all sort shuffle. A full-epoch
    scan at scale would instead range-partition on mix_pos; this operator
    covers the common "draw the next n" consumption."""
    lcm = int(np.lcm.reduce([default_weight] + list(weights.values())))

    def pos(t: pa.Table) -> pa.Table:
        k = t[key].combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
             + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
        src = t[source_col].to_pylist()
        inv = np.fromiter((lcm // weights.get(s, default_weight)
                           for s in src), dtype=np.uint64, count=len(src))
        mix = (h * inv).astype(np.int64)
        return pa.table({key: t[key], source_col: t[source_col],
                         "mix_pos": pa.array(mix)})

    def local_head(t: pa.Table) -> pa.Table:
        return t.sort_by([("mix_pos", "ascending"),
                          (key, "ascending")]).slice(0, n)

    cand = (ds.map_batches(pos, batch_format="pyarrow")
              .map_batches(local_head, batch_format="pyarrow"))
    return cand.repartition(1).map_batches(local_head, batch_format="pyarrow")


# -- per-key quotas -----------------------------------------------------------

def cap_per_key(ds, key: str, n: int, order_key: str = "doc_id"):
    """Keep at most ``n`` rows per key (per-domain / per-source quotas),
    chosen in deterministic hash order of ``order_key`` — quota selection
    that is stable under resume and independent of parallelism.

    Two-level plan (the exact_dedup pattern): one
    :func:`bucket_exchange` on ``key`` co-locates all rows of a key, then ONE
    vectorized pandas rank per bucket (sort + groupby.cumcount — C
    kernels, no per-key Python ``map_groups``). The shuffle moves only
    (key, order hash, payload) rows once; skewed keys are capped at n by
    construction so no bucket output exceeds n x keys_in_bucket."""
    def tag(t: pa.Table) -> pa.Table:
        k = t[order_key].combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
             + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
        return t.append_column("__h", pa.array(h.astype(np.int64)))

    def rank_and_cap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, "__h", order_key], kind="mergesort")
        g["quota_rank"] = g.groupby(key, sort=False).cumcount() + 1
        g = g[g["quota_rank"] <= n]
        return g.drop(columns=["__h"])

    return bucket_exchange(ds.map_batches(tag, batch_format="pyarrow"),
                           [key], rank_and_cap)


# -- fuzzy-dedup cluster assignment ------------------------------------------

def _cc_fold_task(t: pa.Table) -> pa.Table:
    """Exact connected components over ONE edge table, fully vectorized:
    hash-min propagation (``np.minimum.at`` over both edge directions)
    alternating with pointer jumping (``lab = lab[lab]``), so convergence
    is O(log diameter) vectorized passes — no per-edge Python. Node ids
    map to dense indices via ``np.unique`` (sorted, so the min index IS
    the min node id). Runs inside a single Ray task on the active
    subgraph, never on the driver."""
    a = t["a"].combine_chunks().to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    b = t["b"].combine_chunks().to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    ids, flat = np.unique(np.concatenate([a, b]), return_inverse=True)
    ai, bi = flat[:len(a)], flat[len(a):]
    lab = np.arange(len(ids), dtype=np.int64)
    while True:
        prev = lab.copy()
        np.minimum.at(lab, ai, lab[bi])
        np.minimum.at(lab, bi, lab[ai])
        lab = lab[lab]          # pointer jump: halve tree depth
        if np.array_equal(lab, prev):
            break
    return pa.table({"node": pa.array(ids, type=pa.int64()),
                     "label": pa.array(ids[lab], type=pa.int64())})


def _nonempty_blocks(ds):
    """``ds`` materialized, as a Dataset over its non-empty blocks only.
    A sort exchange returns one block per input block, and all but at
    most one per bucket are empty."""
    import ray.data as rd

    return rd.from_arrow_refs(
        [ref for bundle in ds.materialize().iter_internal_ref_bundles()
         for ref, meta in bundle.blocks if meta.num_rows])


def connected_components(nodes, pairs, max_iters: int = 12,
                         single_task_edges: int = 2_000_000):
    """Label every node with the minimum node id reachable through the
    pair graph (hash-min label propagation) — the canonical fuzzy-dedup
    step: near-dup pairs from MinHash/SimHash/embedding blocking become
    clusters, and ``doc_id == cluster_id`` selects one canonical document
    per cluster.

    ``nodes``: Dataset with int64 column ``node`` (every doc id, including
    singletons). ``pairs``: Dataset with int64 columns ``a``, ``b``.

    The iteration runs over the ACTIVE subgraph only — the nodes that
    appear in at least one pair. Singletons (the overwhelming majority of
    a 100 TB corpus: pairs are the near-dup tail) never enter the loop;
    they join back ONCE at the end through a left join with
    ``coalesce(label, node)``. Round-2 shape iterated over every node
    every iteration, paying O(corpus) shuffles x diameter; this pays
    O(pairs) x diameter + O(corpus) x 1.

    Per iteration: ONE node-keyed :func:`bucket_exchange` fuses the edge
    x label hash join with a per-bucket partial min over the propagation
    target (edges are materialized keyed by the neighbor end ONCE,
    outside the loop), then a second exchange co-locates by target and
    folds the node's own previous label back in
    (``min(self, neighbors)``). Both shuffles move
    edge-/active-sized data; there is no global sort and no full-corpus
    groupby inside the loop. The loop stops when the label sum stops
    falling (near-dup clusters are near-cliques, so 2-3 iterations in
    practice; ``max_iters`` bounds pathological chains) — the driver sees
    one scalar per iteration, never the graph.

    Active subgraphs up to ``single_task_edges`` skip the loop entirely
    and fold in ONE Ray task (``_cc_fold_task``): each distributed
    iteration costs two sort-shuffles of fixed Ray overhead, while the
    vectorized numpy fold handles millions of edges in seconds on one
    core. At 100 TB the near-dup edge tail routinely fits (2M edges ≈
    32 MB); the loop remains the exact same-output fallback above the
    threshold."""
    from ray.data.aggregate import Sum

    from .joins import hash_bucket_join

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks().cast(pa.int64())
        b = t["b"].combine_chunks().cast(pa.int64())
        return pa.table({
            "x": pa.concat_arrays([a, b]),
            "node": pa.concat_arrays([b, a]),
            "label": pa.nulls(2 * len(a), type=pa.int64())})

    pairs_m = pairs.materialize()
    n_edges = pairs_m.count()

    def _label_rows(t: pa.Table) -> pa.Table:
        nulls = pa.nulls(t.num_rows, type=pa.int64())
        return pa.table({"x": nulls, "node": t["node"],
                         "label": t["label"]})

    def seed(g: pa.Table) -> pa.Table:
        # exact distinct endpoints per node-bucket -> initial label = self
        u = pc.unique(g["node"].combine_chunks())
        return pa.table({"node": u, "label": u})

    def prop(g: pa.Table) -> pa.Table:
        # fused hash join (edge.node == label.node) + partial min per
        # propagation target, all inside one bucket — pyarrow kernels
        g = g.combine_chunks()
        is_lab = pc.is_null(g["x"])
        lab = g.filter(is_lab).select(["node", "label"])
        edg = g.filter(pc.invert(is_lab)).select(["x", "node"])
        m = edg.join(lab, keys=["node"], join_type="inner")
        part = m.group_by("x").aggregate([("label", "min")])
        return pa.table({"node": part["x"], "label": part["label_min"]})

    def fold_min(g: pa.Table) -> pa.Table:
        # final min per target, previous self-label included via the union
        part = g.group_by("node").aggregate([("label", "min")])
        return pa.table({"node": part["node"], "label": part["label_min"]})

    if n_edges and n_edges <= single_task_edges:
        labels = (pairs_m.repartition(1)
                  .map_batches(_cc_fold_task, batch_format="pyarrow",
                               batch_size=None)
                  .materialize())
        full = hash_bucket_join(nodes, labels, on=["node"], how="left")
    elif n_edges:
        # Both edge directions, materialized ONCE and reused every
        # iteration. The label table keeps only its non-empty blocks (at
        # most one per bucket): Ray's sort-based groupby sizes its shuffle
        # by INPUT block count, and the per-iteration unions would
        # otherwise compound blocks geometrically (measured 147 -> 441 ->
        # 1029 -> 2205 blocks with materialize cost 40 s -> 101 s ->
        # 1115 s on 12k edge rows) — the loop must stay flat-cost per
        # iteration.
        edges = pairs_m.map_batches(both_dirs,
                                    batch_format="pyarrow").materialize()
        labels = _nonempty_blocks(
            bucket_exchange(edges, ["node"], seed, batch_format="pyarrow"))
        prev_sum: Optional[int] = None
        for _ in range(max_iters):
            nbr_min = bucket_exchange(
                edges.union(labels.map_batches(_label_rows,
                                               batch_format="pyarrow")),
                ["node"], prop, batch_format="pyarrow")
            labels = _nonempty_blocks(
                bucket_exchange(nbr_min.union(labels), ["node"], fold_min,
                                batch_format="pyarrow"))
            cur = labels.aggregate(Sum("label", alias_name="s"))["s"]
            if prev_sum is not None and cur == prev_sum:
                break
            prev_sum = cur
        # singletons rejoin once: left join + coalesce(label, node)
        full = hash_bucket_join(nodes, labels, on=["node"], how="left")
    else:
        full = nodes.map_batches(
            lambda t: t.append_column(
                "label", pa.nulls(t.num_rows, type=pa.int64())),
            batch_format="pyarrow")

    def finish(t: pa.Table) -> pa.Table:
        lbl = pc.coalesce(t["label"].combine_chunks().cast(pa.int64()),
                          t["node"].combine_chunks())
        return pa.table({"doc_id": t["node"], "cluster_id": lbl})

    return full.map_batches(finish, batch_format="pyarrow")


# -- corpus term weighting ---------------------------------------------------

def tfidf_top_terms(docs, n_docs: int, k: int = 10):
    """Per-language top-``k`` terms by smoothed reciprocal-df weight:
    ``score = tf * (N + 1) / (df + 1)`` where tf counts occurrences within
    the language and df counts documents (any language) containing the
    term. The weight is log-free on purpose: tf*(N+1) is an exact int64
    (< 2^53 documented bound) and the single IEEE division reproduces
    bit-for-bit in SQL, so ranking and values are cross-engine exact.

    Shuffle plan (round-3 verdict fix #7 — the former version
    materialized the exploded per-(doc, term) table to feed separate tf
    and df aggregates plus a join): ONE map over docs emits BOTH partial
    aggregates per block — (lang, term, tf-partial) rows and
    (term, df-partial) rows, tagged by a sentinel lang — then ONE
    bucketed shuffle on hash(term) co-locates every partial of a term,
    and a per-bucket pandas kernel finishes tf, df and the score. The
    token-scale exploded table never exists as a dataset; only
    per-block-distinct (lang, term) partials cross the exchange."""
    _DF = "\x00df"    # sentinel lang tag for df-partial rows

    def partials(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        idx, flat, _ = _flat_tokens(texts)
        langs = np.asarray(t["lang"].to_pylist(), dtype=object)
        per = (pd.DataFrame({"d": idx, "term": flat})
               .groupby(["d", "term"], sort=False).size().reset_index(name="c"))
        # tf partial: occurrences per (lang, term) within this block
        tfp = (per.assign(lang=langs[per["d"].to_numpy()])
               .groupby(["lang", "term"], sort=False)["c"].sum()
               .reset_index())
        # df partial: documents containing term within this block (per-
        # (doc, term) rows are distinct by construction, docs never span
        # blocks, so a row count is exact)
        dfp = (per.groupby("term", sort=False).size().reset_index(name="c")
               .assign(lang=_DF))
        both = pd.concat([tfp, dfp[["lang", "term", "c"]]],
                         ignore_index=True)
        out = pa.table({
            "lang": pa.array(both["lang"].to_numpy(), type=pa.string()),
            "term": pa.array(both["term"].to_numpy(), type=pa.string()),
            "c": pa.array(both["c"].to_numpy().astype(np.int64)),
        })
        return out

    dt = docs.map_batches(partials, batch_format="pyarrow")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        agg = (g.groupby(["lang", "term"], sort=False)["c"].sum()
               .reset_index())
        is_df = agg["lang"] == _DF
        dfm = agg[is_df].set_index("term")["c"]
        tf = agg[~is_df]
        dfv = dfm.reindex(tf["term"]).to_numpy()
        tfv = tf["c"].to_numpy()
        s = np.floor((tfv * (n_docs + 1)) / (dfv + 1) * 1e6 + 0.5) / 1e6
        return pd.DataFrame({"lang": tf["lang"], "term": tf["term"],
                             "tf": tfv, "df": dfv.astype(np.int64),
                             "score": s})

    scored = bucket_exchange(dt, ["term"], finish)

    def local_topk(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        g = (g.sort_values(["lang", "score", "term"],
                           ascending=[True, False, True], kind="mergesort")
             .groupby("lang", sort=False).head(k))
        # strip pandas metadata: an unhashable schema defeats Ray's
        # shuffle-side schema dedup (same reason ioutil.read_parquet_clean
        # exists)
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    pruned = scored.map_batches(local_topk, batch_format="pyarrow")
    return pruned.groupby("lang").map_groups(local_topk,
                                             batch_format="pyarrow")


def bm25_topk(docs, n_query_terms: int = 3, k: int = 20):
    """BM25 document ranking against the corpus's own top-``n`` most
    frequent terms (deterministic query: count desc, term asc — no
    external query set needed, so the operator is self-contained on any
    corpus).

    Integer-exact BM25 (k1 = 1.2, b = 0.75): multiplying the classic tf
    normalization ``tf*(k1+1) / (tf + k1*(1 - b + b*l/avgl))`` through
    by ``20 * total`` turns it into the pure-integer rational

        tfp_micro = 44*tf*total*1e6 // (20*tf*total + 6*total + 18*l*N)

    and the idf uses Lucene's always-positive form on the suite's
    micro-grid: ``idf_micro = floor(ln(1 + (N - df + .5)/(df + .5)) *
    1e6 + .5)`` (all-positive so ``//`` floor == truncate in both
    engines). Per-(doc, term) contribution ``(idf_micro * tfp_micro) //
    1e6`` sums in int64; a per-batch guard raises before any int64
    product can wrap (the SQL mirror runs the same expression in
    HUGEINT, so the guard marks where a SCALE rescale would be needed,
    the same convention as graph.pagerank's bound).

    Shuffle plan: one map for partial term counts -> small term groupby
    -> sort/limit for the query terms (driver sees n rows); ONE
    tokenization pass emits the compact per-doc ``(doc_id, l, tf_j,
    ind_j)`` int table, which is materialized (2 + 2n ints per doc —
    the corpus text never re-tokenizes and never re-reads) and feeds
    both the global aggregate (N, total, df_j — a counts-only reduce)
    and the streaming scoring map; final top-k is a distributed sort +
    limit on two int columns."""
    import math

    from ray.data.aggregate import Count, Sum

    from .joins import group_aggregate

    base = docs.select_columns(["doc_id", "text"])

    def term_partials(t: pa.Table) -> pa.Table:
        _, flat, _ = _flat_tokens(t["text"].to_pylist())
        vc = pd.Series(flat).value_counts()
        return pa.table({
            "term": pa.array(vc.index.to_numpy(), type=pa.string()),
            "c": pa.array(vc.to_numpy().astype(np.int64))})

    tc = group_aggregate(base.map_batches(term_partials,
                                          batch_format="pyarrow"),
                         "term", {"c": ("c", "sum")})
    qterms = [r["term"] for r in
              tc.sort(["c", "term"], descending=[True, False])
              .limit(n_query_terms).take_all()]

    def tf_batch(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        idx, flat, lens = _flat_tokens(texts)
        cols = {"doc_id": t["doc_id"], "l": pa.array(lens)}
        for j, q in enumerate(qterms):
            tfj = np.bincount(idx[flat == q],
                              minlength=len(texts)).astype(np.int64)
            cols["tf%d" % j] = pa.array(tfj)
            cols["d%d" % j] = pa.array((tfj > 0).astype(np.int64))
        return pa.table(cols)

    tft = base.map_batches(tf_batch, batch_format="pyarrow").materialize()
    agg = tft.aggregate(Count(alias_name="n"),
                        Sum("l", alias_name="total"),
                        *[Sum("d%d" % j, alias_name="df%d" % j)
                          for j in range(len(qterms))])
    n, total = int(agg["n"]), int(agg["total"])
    idf = [int(math.floor(
        math.log(1 + (n - int(agg["df%d" % j]) + 0.5)
                 / (int(agg["df%d" % j]) + 0.5)) * 1e6 + 0.5))
        for j in range(len(qterms))]

    def score_batch(t: pa.Table) -> pa.Table:
        l = t["l"].to_numpy(zero_copy_only=False)
        score = np.zeros(t.num_rows, dtype=np.int64)
        any_tf = np.zeros(t.num_rows, dtype=bool)
        for j in range(len(qterms)):
            tf = t["tf%d" % j].to_numpy(zero_copy_only=False)
            if t.num_rows and (44 * int(tf.max()) * total * 1_000_000
                               >= 2 ** 63
                               or 18 * int(l.max()) * n >= 2 ** 63):
                raise ValueError(
                    "bm25_topk: int64 would overflow at this corpus "
                    "size — rescale the 1e6 micro-unit (see docstring)")
            num = 44 * tf * total * 1_000_000
            den = 20 * tf * total + 6 * total + 18 * l * n
            tfp = num // den
            score += (idf[j] * tfp) // 1_000_000
            any_tf |= tf > 0
        out = pa.table({"doc_id": t["doc_id"],
                        "score": pa.array(score)})
        return out.filter(pa.array(any_tf))

    res = tft.map_batches(score_batch, batch_format="pyarrow")
    return res.sort(["score", "doc_id"], descending=[True, False]).limit(k)


def unigram_entropy(docs):
    """Per-language unigram (token) entropy in nats on the 1e-6
    micro-grid — the corpus-diversity diagnostic a data-mixing pass
    tracks per source/language (low entropy = templated/repetitive
    text; it drops under aggressive dedup mistakes).

    Exact-integer identity: ``H = ln(N) - (1/N) * sum_t c_t * ln(c_t)``
    computed as ``entropy_micro = lnN_micro - S // N`` where every
    ``ln`` snaps to ``floor(ln(x) * 1e6 + 0.5)`` (the zipf_fit
    convention — ln parity numpy<->DuckDB is safe under the grid) and
    ``S = sum c_t * lnc_micro`` is kept EXACT: per-bucket partial sums
    are emitted as (hi, lo) int64 halves of the 2^32 split so no int64
    accumulator can wrap even at 100 TB token counts (the SQL mirror
    just sums in HUGEINT), and the driver folds #buckets x #langs rows
    in arbitrary-precision Python ints.

    Shuffle plan (tfidf's): one map over docs emits per-block partial
    (lang, term, c) counts; one bucketed shuffle on hash(term)
    co-locates every partial of a term (so per-bucket term totals are
    GLOBAL totals); the per-bucket kernel reduces the token-scale term
    table to 2 rows x #langs of counter halves. The driver never sees
    terms, only counters."""
    import math

    def partials(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        idx, flat, _ = _flat_tokens(texts)
        langs = np.asarray(t["lang"].to_pylist(), dtype=object)
        per = (pd.DataFrame({"lang": langs[idx], "term": flat})
               .groupby(["lang", "term"], sort=False).size()
               .reset_index(name="c"))
        out = pa.table({
            "lang": pa.array(per["lang"].to_numpy(), type=pa.string()),
            "term": pa.array(per["term"].to_numpy(), type=pa.string()),
            "c": pa.array(per["c"].to_numpy().astype(np.int64))})
        return out

    bt = docs.select_columns(["lang", "text"]).map_batches(
        partials, batch_format="pyarrow")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        tot = (g.groupby(["lang", "term"], sort=False)["c"].sum()
               .reset_index())
        rows = []
        for lang, sub in tot.groupby("lang", sort=False):
            c = sub["c"].to_numpy(dtype=np.int64)
            lnc = np.floor(np.log(c.astype(np.float64)) * 1e6
                           + 0.5).astype(np.int64)
            if c.size and int(c.max()) * int(lnc.max() if lnc.max() > 0
                                             else 1) >= 2 ** 63:
                raise ValueError("unigram_entropy: per-term product "
                                 "would wrap int64 — rescale the grid")
            prod = c * lnc
            hi, lo = prod >> 32, prod & np.int64(0xFFFFFFFF)
            rows.append((lang, int(c.sum()), int(hi.sum()),
                         int(lo.sum())))
        return pd.DataFrame(rows, columns=["lang", "n", "s_hi", "s_lo"])

    parts = bucket_exchange(bt, ["term"], fold) \
        .take_all()   # #buckets x #langs counter rows only
    agg = {}
    for r in parts:
        n, shi, slo = agg.get(r["lang"], (0, 0, 0))
        agg[r["lang"]] = (n + int(r["n"]), shi + int(r["s_hi"]),
                          slo + int(r["s_lo"]))
    out = []
    for lang in sorted(agg):
        n, shi, slo = agg[lang]
        s = (shi << 32) + slo
        ln_n = int(math.floor(math.log(n) * 1e6 + 0.5))
        out.append((lang, n, ln_n - s // n))
    return pd.DataFrame(out, columns=["lang", "n_tokens",
                                      "entropy_micro"])


# -- paragraph-level exact dedup ---------------------------------------------


def _explode_units(t, sep: str, shift):
    """Vectorized doc -> (doc_id, pos, p, ord) explosion: one
    ``split_pattern`` + offset math per batch, empty units dropped,
    1-based positions (SQL ``unnest WITH ORDINALITY`` parity)."""
    t = t.combine_chunks()
    lst = pc.split_pattern(t["text"].combine_chunks(), pattern=sep)
    offs = lst.offsets.to_numpy()
    lens = np.diff(offs)
    ids = np.repeat(t["doc_id"].to_numpy(), lens)
    pos = (np.arange(int(offs[-1]), dtype=np.int64)
           - np.repeat(offs[:-1], lens) + 1)
    flat = lst.flatten()
    out = pa.table({
        "doc_id": pa.array(ids),
        "pos": pa.array(pos),
        "p": flat,
        "ord": pa.array(ids * shift + pos),
    }).filter(pc.not_equal(flat, ""))
    return out


def _rebuild_docs(g, sep: str, out_col: str):
    """Per-doc-bucket reassembly of kept (doc_id, pos, p) rows back into
    one string per doc: sort + segment offsets + ``binary_join`` — no
    per-doc Python."""
    df = g.to_pandas().sort_values(["doc_id", "pos"], kind="mergesort")
    ids = df["doc_id"].to_numpy()
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    counts = np.diff(np.r_[starts, len(ids)])
    offsets = np.r_[0, np.cumsum(counts)].astype(np.int32)
    lists = pa.ListArray.from_arrays(
        pa.array(offsets), pa.array(df["p"].to_numpy(), type=pa.string()))
    return pa.table({
        "doc_id": pa.array(ids[starts]),
        out_col: pc.binary_join(lists, sep),
        "n_kept": pa.array(counts.astype(np.int64)),
    })


def _unit_counts(t, sep: str, out_col: str):
    """Per-doc non-empty unit count, one vectorized pass."""
    t = t.combine_chunks()
    lst = pc.split_pattern(t["text"].combine_chunks(), pattern=sep)
    offs = lst.offsets.to_numpy()
    nonempty = pc.not_equal(lst.flatten(), "").to_numpy(
        zero_copy_only=False).astype(np.int64)
    cum = np.r_[0, np.cumsum(nonempty)]
    return pa.table({
        "doc_id": t["doc_id"],
        out_col: pa.array(cum[offs[1:]] - cum[offs[:-1]]),
    })


def dedup_paragraphs(docs, pos_bits: int = 20):
    """Corpus-level exact paragraph dedup — the CCNet / RefinedWeb
    boilerplate-removal pass: split each document on newline, keep only
    the globally FIRST occurrence of every distinct non-empty paragraph
    (first = smallest (doc_id, position)), and reassemble each document
    from its kept paragraphs in original order.

    Returns one row per input doc: ``(doc_id, clean_text, n_paras,
    n_kept)`` where ``n_paras`` counts the doc's non-empty paragraphs
    and ``clean_text`` is ``''`` when every paragraph was dropped.

    Shuffle plan — both all-to-alls move paragraph rows, never whole
    documents: (1) bucket exchange on the paragraph, vectorized per-bucket
    keep-first (arrow ``group_by`` min over the packed order key
    ``doc_id * 2**pos_bits + pos``, inner-joined back to the bucket's
    rows — the global min for a paragraph lands in one bucket because
    the bucket key IS the paragraph); (2) bucket exchange on doc_id,
    vectorized reassembly (per-bucket sort + segment offsets +
    ``binary_join``, no per-doc Python). Doc metadata ``(doc_id,
    n_paras)`` is a second cheap scan of the input projection (pass a
    materialized projection when upstream is expensive), bucket-left-
    joined back so fully-deduped docs still emit a row.

    Partitioning assumption: fewer than ``2**pos_bits`` paragraphs per
    document (the packed int64 order key); raise ``pos_bits`` for
    pathological inputs. Mirrors ``__ray_entry__.oracle_sql``'s
    ``dedup_paragraphs`` entry token for token."""
    from .joins import hash_bucket_join

    shift = np.int64(1) << pos_bits

    def explode(t: pa.Table) -> pa.Table:
        return _explode_units(t, "\n", shift)

    def keep_first(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        m = g.group_by("p").aggregate([("ord", "min")])
        j = g.select(["doc_id", "pos", "p", "ord"]).join(
            m, keys=["p"], join_type="inner")
        j = j.filter(pc.equal(j["ord"], j["ord_min"]))
        return j.select(["doc_id", "pos", "p"])

    def rebuild(g: pa.Table) -> pa.Table:
        return _rebuild_docs(g, "\n", "clean_text")

    kept = bucket_exchange(docs.map_batches(explode, batch_format="pyarrow"),
                           ["p"], keep_first, batch_format="pyarrow")
    rebuilt = bucket_exchange(kept, ["doc_id"], rebuild,
                              batch_format="pyarrow")

    def meta(t: pa.Table) -> pa.Table:
        return _unit_counts(t, "\n", "n_paras")

    joined = hash_bucket_join(docs.map_batches(meta, batch_format="pyarrow"),
                              rebuilt, on=["doc_id"], how="left")

    def finish(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        return pa.table({
            "doc_id": t["doc_id"],
            "clean_text": pc.fill_null(t["clean_text"], ""),
            "n_paras": t["n_paras"],
            "n_kept": pc.fill_null(t["n_kept"], 0).cast(pa.int64()),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def strip_frequent_units(docs, sep: str = "\n", max_df_permille: int = 500,
                         pos_bits: int = 20):
    """Document-frequency boilerplate scrub — the OTHER CCNet/RefinedWeb
    line filter (:func:`dedup_paragraphs` keeps the globally-first copy;
    this removes EVERY occurrence of units that are too common): split
    each document on ``sep``, drop every unit whose document frequency
    satisfies ``df * 1000 >= max_df_permille * n_docs`` (integer
    arithmetic — no float threshold), reassemble the survivors in
    original order. ``sep="\\n"`` scrubs boilerplate lines (nav bars,
    cookie banners); ``sep=" "`` is a corpus-driven stopword filter.

    Returns one row per input doc: ``(doc_id, clean_text, n_units,
    n_kept)``; ``clean_text`` is ``''`` when everything was dropped.

    Shuffle plan — all-to-alls move unit rows only, never whole docs:
    (1) bucket exchange on the unit; per bucket one arrow ``group_by(p)``
    with ``count_distinct(doc_id)`` gives exact df (all rows of a unit
    land in one bucket because the bucket key IS the unit), inner-join
    back, keep infrequent rows; (2) bucket exchange on doc_id, vectorized
    reassembly. ``n_docs`` is one metadata count. The frequent set never
    materializes anywhere — it exists only as a per-bucket join, so a
    pathological corpus where HALF the distinct units are frequent costs
    nothing extra (compare a broadcast-set design, which that corpus
    would kill).

    Partitioning assumption: fewer than ``2**pos_bits`` units per doc
    (packed order key, as in :func:`dedup_paragraphs`)."""
    from .joins import hash_bucket_join

    shift = np.int64(1) << pos_bits
    n_docs = docs.count()

    def explode(t: pa.Table) -> pa.Table:
        return _explode_units(t, sep, shift)

    def keep_rare(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        m = g.group_by("p").aggregate([("doc_id", "count_distinct")])
        j = g.select(["doc_id", "pos", "p"]).join(
            m, keys=["p"], join_type="inner")
        keep = pc.less(pc.multiply(j["doc_id_count_distinct"].cast(pa.int64()),
                                   pa.scalar(1000, type=pa.int64())),
                       pa.scalar(max_df_permille * n_docs, type=pa.int64()))
        return j.filter(keep).select(["doc_id", "pos", "p"])

    def rebuild(g: pa.Table) -> pa.Table:
        return _rebuild_docs(g, sep, "clean_text")

    kept = bucket_exchange(docs.map_batches(explode, batch_format="pyarrow"),
                           ["p"], keep_rare, batch_format="pyarrow")
    rebuilt = bucket_exchange(kept, ["doc_id"], rebuild,
                              batch_format="pyarrow")

    def meta(t: pa.Table) -> pa.Table:
        return _unit_counts(t, sep, "n_units")

    joined = hash_bucket_join(docs.map_batches(meta, batch_format="pyarrow"),
                              rebuilt, on=["doc_id"], how="left")

    def finish(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        return pa.table({
            "doc_id": t["doc_id"],
            "clean_text": pc.fill_null(t["clean_text"], ""),
            "n_units": t["n_units"],
            "n_kept": pc.fill_null(t["n_kept"], 0).cast(pa.int64()),
        })

    return joined.map_batches(finish, batch_format="pyarrow")



# -- cross-document exact substring-span removal -------------------------------


def _explode_grams(t, L: int):
    """Vectorized doc -> (gram, doc_id, pos) explosion over every L-token
    window (1-based pos, single-space join — the repo-wide
    ``string_split(text, ' ')`` SQL-parity convention). The join of L
    space-free tokens is bijective with the token tuple, so the gram
    string IS the window identity."""
    t = t.combine_chunks()
    lst = pc.split_pattern(t["text"].combine_chunks(), pattern=" ")
    offs = lst.offsets.to_numpy()
    lens = np.diff(offs)
    total = int(offs[-1])
    head = total - (L - 1)
    empty = pa.table({
        "gram": pa.array([], type=pa.string()),
        "doc_id": pa.array([], type=pa.int64()),
        "pos": pa.array([], type=pa.int64()),
    })
    if head <= 0:
        return empty
    flat = lst.flatten().to_numpy(zero_copy_only=False)
    ids = np.repeat(t["doc_id"].to_numpy(), lens)
    pos0 = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], lens)
    # elementwise str concat over object arrays — pandas/numpy C loop,
    # no per-row Python in this module's code
    gram = flat[:head] + " "
    for j in range(1, L - 1):
        gram = gram + flat[j:j + head] + " "
    gram = gram + flat[L - 1:L - 1 + head]
    valid = (np.repeat(lens, lens)[:head] - pos0[:head]) >= L
    if not valid.any():
        return empty
    return pa.table({
        "gram": pa.array(gram[valid], type=pa.string()),
        "doc_id": pa.array(ids[:head][valid]),
        "pos": pa.array(pos0[:head][valid] + 1),
    })


def dedup_spans(docs, L: int = 5):
    """Cross-document exact substring dedup (the Lee et al. 2022
    "Deduplicating Training Data Makes Language Models Better" span
    rule, at token granularity): any L-token window whose exact text
    also occurs in a LOWER-doc_id document is boilerplate — drop every
    token position it covers; the smallest-doc_id owner keeps its copy.
    Documents are reassembled from surviving tokens in original order.

    Returns one row per input doc: ``(doc_id, clean_text, n_tokens,
    n_kept)``; ``clean_text`` is ``''`` when every token was covered.

    Shuffle plan — all-to-alls move gram/token rows, never whole docs:
    (1) bucket exchange on the gram; per bucket one arrow ``group_by(gram)
    min(doc_id)`` + inner join back marks loser occurrences (a gram's
    global min lands in one bucket because the bucket key IS the gram);
    (2) losers expand to their L covered positions (numpy repeat/tile)
    and union with the token explosion, bucket exchange on doc_id; per
    bucket a packed-key ``isin`` drops covered tokens and the standard
    segment reassembly (:func:`_rebuild_docs`) emits clean docs. Doc
    metadata rides a third cheap scan, bucket-left-joined so fully
    covered docs still emit a row (same shape as
    :func:`dedup_paragraphs`).

    At 100 TB the gram shuffle key should be a 128-bit fingerprint of
    the gram rather than the string itself (swap ``gram`` for a hash
    column in ``_explode_grams``); the string key is the SQL-parity
    form. Mirrors ``__ray_entry__.oracle_sql``'s ``dedup_spans`` entry
    token for token."""
    from .joins import hash_bucket_join

    if L < 2:
        raise ValueError("dedup_spans needs L >= 2")

    def explode(t: pa.Table) -> pa.Table:
        return _explode_grams(t, L)

    def find_losers(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        m = g.group_by("gram").aggregate([("doc_id", "min")])
        j = g.select(["gram", "doc_id", "pos"]).join(
            m, keys=["gram"], join_type="inner")
        j = j.filter(pc.not_equal(j["doc_id"], j["doc_id_min"]))
        return j.select(["doc_id", "pos"])

    def cover(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        n = t.num_rows
        return pa.table({
            "doc_id": pa.array(np.repeat(t["doc_id"].to_numpy(), L)),
            "pos": pa.array(np.repeat(t["pos"].to_numpy(), L)
                            + np.tile(np.arange(L, dtype=np.int64), n)),
            "p": pa.array([""] * (n * L), type=pa.string()),
            "is_cov": pa.array(np.ones(n * L, dtype=np.int8)),
        })

    def explode_tokens(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        lst = pc.split_pattern(t["text"].combine_chunks(), pattern=" ")
        offs = lst.offsets.to_numpy()
        lens = np.diff(offs)
        total = int(offs[-1])
        return pa.table({
            "doc_id": pa.array(np.repeat(t["doc_id"].to_numpy(), lens)),
            "pos": pa.array(np.arange(total, dtype=np.int64)
                            - np.repeat(offs[:-1], lens) + 1),
            "p": lst.flatten(),
            "is_cov": pa.array(np.zeros(total, dtype=np.int8)),
        })

    losers = bucket_exchange(docs.map_batches(explode, batch_format="pyarrow"),
                             ["gram"], find_losers, batch_format="pyarrow")
    covered = losers.map_batches(cover, batch_format="pyarrow")
    tokens = docs.map_batches(explode_tokens, batch_format="pyarrow")

    shift = np.int64(1) << 40          # < 2**40 tokens per doc

    def rebuild(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        key = (g["doc_id"].to_numpy() * shift + g["pos"].to_numpy())
        cov = g["is_cov"].to_numpy().astype(bool)
        keep = ~cov & ~pd.Series(key).isin(key[cov]).to_numpy()
        kept = g.filter(pa.array(keep)).select(["doc_id", "pos", "p"])
        if kept.num_rows == 0:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "clean_text": pa.array([], type=pa.string()),
                "n_kept": pa.array([], type=pa.int64()),
            })
        return _rebuild_docs(kept, " ", "clean_text")

    rebuilt = bucket_exchange(tokens.union(covered), ["doc_id"], rebuild,
                              batch_format="pyarrow")

    def meta(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        lst = pc.split_pattern(t["text"].combine_chunks(), pattern=" ")
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(np.diff(lst.offsets.to_numpy())
                                 .astype(np.int64)),
        })

    joined = hash_bucket_join(docs.map_batches(meta, batch_format="pyarrow"),
                              rebuilt, on=["doc_id"], how="left")

    def finish(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        return pa.table({
            "doc_id": t["doc_id"],
            "clean_text": pc.fill_null(t["clean_text"], ""),
            "n_tokens": t["n_tokens"],
            "n_kept": pc.fill_null(t["n_kept"], 0).cast(pa.int64()),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


# -- bigram-LM quality scoring (CCNet-style perplexity filter) -----------------

_LM_UNK = "<unk>"


def bigram_lm_counts(docs, vocab_size: int = 200):
    """Train an add-k-ready bigram table over the corpus: tokens map to
    the top-``vocab_size`` corpus vocabulary (:func:`corpus_vocab`) or
    ``<unk>``; every document contributes one bigram per token with a
    BOS context for the first (so a doc of n tokens scores n events).

    Returns ``(vocab_sorted, counts)`` where ``counts`` is a dense
    ``(V+2, V+1)`` int64 matrix (rows = context ids: vocab, unk, BOS;
    cols = next-token ids: vocab, unk) — bounded by construction at
    ~(V+2)(V+1) cells, so broadcasting it is O(V^2), never O(corpus).

    Shuffle plan: per-batch dense ``np.bincount`` partials over packed
    (w1, w2) keys -> one groupby-sum on the packed int key (<= (V+2)(V+1)
    distinct keys reach the reduce) -> driver folds the bounded table."""
    from .joins import group_aggregate

    vocab = sorted(r["term"]
                   for r in corpus_vocab(docs, vocab_size).take_all())
    v1 = len(vocab) + 1                      # next-token space: vocab + unk
    unk_id, bos_id = len(vocab), len(vocab) + 1
    index = pd.Index(vocab)

    def partials(t: pa.Table) -> pa.Table:
        _, flat, lens = _flat_tokens(t["text"].to_pylist())
        w2 = index.get_indexer(flat)
        w2[w2 < 0] = unk_id
        w1 = np.empty_like(w2)
        w1[1:] = w2[:-1]
        starts = np.r_[0, np.cumsum(lens)[:-1]]
        w1[starts] = bos_id
        key = np.bincount(w1 * v1 + w2, minlength=(v1 + 1) * v1)
        nz = np.flatnonzero(key)
        return pa.table({"k": pa.array(nz.astype(np.int64)),
                         "c": pa.array(key[nz].astype(np.int64))})

    folded = group_aggregate(docs.map_batches(partials,
                                              batch_format="pyarrow"),
                             "k", {"c": ("c", "sum")})
    counts = np.zeros(((v1 + 1) * v1,), dtype=np.int64)
    for row in folded.take_all():            # <= (V+2)(V+1) rows
        counts[row["k"]] = row["c"]
    return vocab, counts.reshape(v1 + 1, v1)


class LMScore:
    """Per-batch scorer: per-document mean negative log-likelihood under
    the broadcast add-k bigram LM. One vectorized pass per batch: token
    -> id via ``pd.Index.get_indexer``, probability lookup via fancy
    indexing into the dense count matrix, per-doc segment sums via
    ``np.add.reduceat``. Emits ``(doc_id, n_tokens, nll)`` with ``nll``
    on the 1e-6 grid (high nll = gibberish / OOD text — the CCNet
    keep-middle / drop-tail quality signal)."""

    def __init__(self, vocab, counts, add_k: int = 1):
        self._index = pd.Index(vocab)
        self._v1 = len(vocab) + 1
        self._unk, self._bos = len(vocab), len(vocab) + 1
        self._counts = counts
        self._ctx = counts.sum(axis=1)
        self._add_k = add_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        _, flat, lens = _flat_tokens(batch["text"].to_pylist())
        w2 = self._index.get_indexer(flat)
        w2[w2 < 0] = self._unk
        w1 = np.empty_like(w2)
        w1[1:] = w2[:-1]
        starts = np.r_[0, np.cumsum(lens)[:-1]]
        w1[starts] = self._bos
        lp = np.log((self._counts[w1, w2] + self._add_k)
                    / (self._ctx[w1] + self._add_k * self._v1))
        nll = -np.add.reduceat(lp, starts) / lens
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(lens),
            "nll": pa.array(_grid(nll, 1e6)),
        })


def lm_nll(docs, vocab_size: int = 200, add_k: int = 1):
    """Bigram-LM perplexity quality score for every document (the CCNet
    / Wenzek et al. 2020 LM-filter shape, with the corpus itself as the
    LM training set): two bounded-output scans train the (V+2)x(V+1)
    count table, then a pure streaming task map scores 100 TB
    without any further shuffle. Pass a materialized narrow projection
    when upstream is expensive (scanned twice)."""
    vocab, counts = bigram_lm_counts(docs, vocab_size)
    return docs.map_batches(
        per_task(LMScore, vocab=vocab, counts=counts, add_k=add_k),
        batch_format="pyarrow")


# -- DSIR importance resampling (Xie et al. 2023) ------------------------------

_DSIR_B = 4096


def _dsir_feature_stream(texts):
    """DSIR's hashed-ngram feature space: word unigrams + word bigrams
    per document (space-split, the repo-wide SQL-parity tokenization;
    empty text contributes the single '' unigram, exactly
    ``string_split(text, ' ')``). Returns ``(feats, doc_idx)`` — a flat
    str array of every feature OCCURRENCE (multiplicity kept, as the
    multinomial model requires) and its owning document index."""
    idx, flat, _lens = _flat_tokens(texts)
    uni = flat.astype(str)
    if len(uni) > 1:
        same = idx[:-1] == idx[1:]
        bi = np.char.add(np.char.add(uni[:-1], " "), uni[1:])[same]
        bidx = idx[:-1][same]
        return np.concatenate([uni, bi]), np.concatenate([idx, bidx])
    return uni, idx


def dsir_bucket_totals(ds, n_buckets: int = _DSIR_B) -> np.ndarray:
    """Hashed-ngram bucket counts over a corpus — the sufficient
    statistic for one side of the DSIR importance ratio. Per-batch dense
    ``np.bincount`` partials -> one ``groupby('b').sum`` (at most
    ``n_buckets`` rows reach the reduce, independent of corpus size) ->
    driver folds the bounded vector. Buckets come from the salted
    ``md5_number_lower`` family of the count-min sketch
    (:func:`sketch._cms_bucket`, salt 0), so the DuckDB mirror reproduces
    them bit-for-bit."""
    from .joins import group_aggregate
    def partial(t: pa.Table) -> pa.Table:
        feats, _ = _dsir_feature_stream(t["text"].to_pylist())
        if not len(feats):
            return pa.table({"b": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        acc = np.bincount(_cms_bucket(feats, 0, n_buckets),
                          minlength=n_buckets)
        nz = np.flatnonzero(acc)
        return pa.table({"b": pa.array(nz.astype(np.int64)),
                         "c": pa.array(acc[nz].astype(np.int64))})

    folded = group_aggregate(ds.map_batches(partial, batch_format="pyarrow"),
                             "b", {"c": ("c", "sum")})
    counts = np.zeros(n_buckets, dtype=np.int64)
    for row in folded.take_all():            # <= n_buckets rows
        counts[row["b"]] = row["c"]
    return counts


def dsir_log_ratio_micro(target_counts: np.ndarray, raw_counts: np.ndarray,
                         add_k: int = 1) -> np.ndarray:
    """Per-bucket importance log-ratio lambda[b] = log p_target[b] -
    log p_raw[b] under add-k smoothing, snapped to integer micro-units
    (the repo's integer-exact parity convention: per-doc sums over int64
    lambdas are bit-identical in numpy and SQL — no float-accumulation
    order hazard). Operand order mirrors the SQL exactly:
    ``ln(ct+k) - ln(T+kB) - ln(cr+k) + ln(R+kB)``."""
    b = len(raw_counts)
    t_tot = int(target_counts.sum())
    r_tot = int(raw_counts.sum())
    k = float(add_k)
    lam = (np.log(target_counts + k) - np.log(float(t_tot) + k * b)
           - np.log(raw_counts + k) + np.log(float(r_tot) + k * b))
    return np.floor(lam * 1e6 + 0.5).astype(np.int64)


class DsirScore:
    """Per-batch scorer: per-document DSIR importance log-weight under
    the broadcast micro-unit lambda table (``n_buckets`` int64s — 32 KB
    at the default 4096, free to ship to every worker). One vectorized
    pass per batch: feature stream -> salted bucket -> lambda lookup ->
    per-doc ``np.bincount`` segment sums (exact: |sum| bounded well
    below 2^53). Emits ``(doc_id, n_feats, logw_micro)``."""

    def __init__(self, lam_micro, n_buckets: int = _DSIR_B):
        import ray

        if isinstance(lam_micro, ray.ObjectRef):
            lam_micro = ray.get(lam_micro)
        self._lam = np.asarray(lam_micro, dtype=np.int64)
        self._b = n_buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n_docs = len(texts)
        feats, fidx = _dsir_feature_stream(texts)
        buckets = _cms_bucket(feats, 0, self._b)
        w = self._lam[buckets].astype(np.float64)
        logw = np.bincount(fidx, weights=w, minlength=n_docs)
        n_feats = np.bincount(fidx, minlength=n_docs)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_feats": pa.array(n_feats.astype(np.int64)),
            "logw_micro": pa.array(logw.astype(np.int64)),
        })


def dsir_select(raw, target, n: int, n_buckets: int = _DSIR_B,
                add_k: int = 1) -> pa.Table:
    """Data Selection via Importance Resampling (Xie et al. 2023,
    deterministic rank-and-select variant): score every raw document by
    its hashed-ngram importance log-weight toward the target corpus and
    keep the top ``n`` by (logw desc, doc_id asc).

    100 TB shape: two bounded-output counting scans (each folds to a
    <= ``n_buckets``-row vector), one 32 KB lambda broadcast, one pure
    streaming scoring pass over raw, then per-batch partial top-n and a
    tiny driver fold — no all-to-all anywhere; the raw corpus is read
    twice (counts + scoring), so pass a materialized narrow projection
    when upstream is expensive. Integer micro-unit lambdas make the
    per-doc sums bit-exact across engines (see
    :func:`dsir_log_ratio_micro`)."""
    import ray

    lam = dsir_log_ratio_micro(
        dsir_bucket_totals(target, n_buckets),
        dsir_bucket_totals(raw, n_buckets), add_k)
    scored = raw.map_batches(
        per_task(DsirScore, lam_micro=ray.put(lam), n_buckets=n_buckets),
        batch_format="pyarrow")

    def local_top(t: pa.Table) -> pa.Table:
        lw = t["logw_micro"].combine_chunks().to_numpy(zero_copy_only=False)
        did = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        return t.take(np.lexsort((did, -lw))[:n])

    cand = scored.map_batches(local_top, batch_format="pyarrow").take_all()
    did = np.asarray([r["doc_id"] for r in cand], dtype=np.int64)
    nf = np.asarray([r["n_feats"] for r in cand], dtype=np.int64)
    lw = np.asarray([r["logw_micro"] for r in cand], dtype=np.int64)
    order = np.lexsort((did, -lw))[:n]
    return pa.table({"doc_id": pa.array(did[order]),
                     "n_feats": pa.array(nf[order]),
                     "logw_micro": pa.array(lw[order])})


# -- PMI co-occurrence (phrase mining) ------------------------------------------


def pmi_top_pairs(docs, k: int = 100, min_count: int = 5):
    """Top-k adjacent-token pairs by pointwise mutual information — the
    classic phrase-mining / collocation signal (Church & Hanks 1990).

    Shuffle plan (100 TB shape): per-batch partial (term, c) and
    (pair, c) counts -> vocab-bounded groupby-sums (corpus rows never
    shuffle, only distinct terms/pairs), ``min_count`` prunes the pair
    table BEFORE the two pair->unigram hash-bucket joins, then per-batch
    partial top-k folds a <= k*blocks candidate list on the driver.
    PMI is computed as a fixed-order sum of lns over exact integer
    operands and snapped to the 1e-6 grid, so the DuckDB mirror
    reproduces it bit-for-bit. Returns ``(w1, w2, pair_count, pmi)``
    ordered by (pmi desc, w1, w2). ``docs`` is scanned twice — pass a
    materialized narrow projection."""
    from ray.data.aggregate import Sum

    from .joins import group_aggregate, hash_bucket_join

    def uni_partial(t: pa.Table) -> pa.Table:
        _, flat, _ = _flat_tokens(t["text"].to_pylist())
        terms, counts = np.unique(flat.astype(str), return_counts=True)
        return pa.table({"term": pa.array(terms, type=pa.string()),
                         "c": pa.array(counts.astype(np.int64))})

    def bi_partial(t: pa.Table) -> pa.Table:
        idx, flat, _ = _flat_tokens(t["text"].to_pylist())
        uni = flat.astype(str)
        if len(uni) < 2:
            return pa.table({"p": pa.array([], type=pa.string()),
                             "c": pa.array([], type=pa.int64())})
        same = idx[:-1] == idx[1:]
        pairs = np.char.add(np.char.add(uni[:-1], " "), uni[1:])[same]
        ps, counts = np.unique(pairs, return_counts=True)
        return pa.table({"p": pa.array(ps, type=pa.string()),
                         "c": pa.array(counts.astype(np.int64))})

    uc = group_aggregate(docs.map_batches(uni_partial, batch_format="pyarrow"),
                         "term", {"c": ("c", "sum")}).materialize()
    bc = group_aggregate(docs.map_batches(bi_partial, batch_format="pyarrow"),
                         "p", {"c": ("c", "sum")}).materialize()
    n_uni = float(uc.aggregate(Sum("c", alias_name="s"))["s"])
    n_bi = float(bc.aggregate(Sum("c", alias_name="s"))["s"])

    def split_pair(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["c"], min_count)).combine_chunks()
        parts = pc.split_pattern(t["p"], " ")
        return pa.table({"w1": pc.list_element(parts, 0),
                         "w2": pc.list_element(parts, 1),
                         "pair_count": t["c"]})

    def rename_uni(col):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({col: t["term"], f"c_{col}": t["c"]})
        return fn

    j = hash_bucket_join(
        bc.map_batches(split_pair, batch_format="pyarrow"),
        uc.map_batches(rename_uni("w1"), batch_format="pyarrow"),
        on=["w1"])
    j = hash_bucket_join(
        j, uc.map_batches(rename_uni("w2"), batch_format="pyarrow"),
        on=["w2"])

    def score_top(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        c12 = t["pair_count"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        c1 = t["c_w1"].to_numpy(zero_copy_only=False).astype(np.float64)
        c2 = t["c_w2"].to_numpy(zero_copy_only=False).astype(np.float64)
        # fixed operand order, mirrored in the SQL oracle
        pmi = (np.log(c12) - np.log(n_bi) - np.log(c1) + np.log(n_uni)
               - np.log(c2) + np.log(n_uni))
        pmi = np.floor(pmi * 1e6 + 0.5) / 1e6
        w1 = t["w1"].to_numpy(zero_copy_only=False).astype(str)
        w2 = t["w2"].to_numpy(zero_copy_only=False).astype(str)
        order = np.lexsort((w2, w1, -pmi))[:k]
        return pa.table({
            "w1": pa.array(w1[order], type=pa.string()),
            "w2": pa.array(w2[order], type=pa.string()),
            "pair_count": pa.array(t["pair_count"].to_numpy(
                zero_copy_only=False)[order].astype(np.int64)),
            "pmi": pa.array(pmi[order], type=pa.float64()),
        })

    cand = j.map_batches(score_top, batch_format="pyarrow").take_all()
    w1 = np.asarray([r["w1"] for r in cand], dtype=str)
    w2 = np.asarray([r["w2"] for r in cand], dtype=str)
    pcnt = np.asarray([r["pair_count"] for r in cand], dtype=np.int64)
    pmi = np.asarray([r["pmi"] for r in cand], dtype=np.float64)
    order = np.lexsort((w2, w1, -pmi))[:k]
    return pa.table({"w1": pa.array(w1[order], type=pa.string()),
                     "w2": pa.array(w2[order], type=pa.string()),
                     "pair_count": pa.array(pcnt[order]),
                     "pmi": pa.array(pmi[order])})


def zipf_fit(docs, top_v: int = 100):
    """Zipf rank-frequency fit over the corpus head vocabulary: the
    least-squares slope of ln(count) vs ln(rank) across the ``top_v``
    most frequent whitespace tokens (rank 1 = most frequent; ties break
    on term ascending — the :func:`corpus_vocab` total order). A healthy
    natural-language corpus sits near slope -1 (Zipf's law); a corpus
    polluted by boilerplate or template spam flattens or steepens the
    head — the same diagnostic Gopher/CCNet-style audits run per dump.

    Integer-exact parity: each ln is snapped to an int64 micro-grid
    (floor(ln(x) * 1e6 + 0.5)); the normal-equation sums are exact big
    integers on both sides (Python int here, HUGEINT in the DuckDB
    mirror), so the single closing division divides identical integers —
    the slope reproduces bit-for-bit under the repo's 1e-6 grid.

    Distributed shape: the heavy work is :func:`corpus_vocab` (per-batch
    partial counts, one term groupby-sum, partial top-V reduce); the
    driver sees <= top_v (term, cnt) rows — bounded by construction, so
    the take_all is justified. Returns a one-row table
    (n_terms, zipf_slope)."""
    import math

    rows = corpus_vocab(docs, vocab_size=top_v).take_all()
    rows.sort(key=lambda r: (-r["cnt"], r["term"]))
    n = len(rows)
    li = [int(math.floor(math.log(i + 1) * 1e6 + 0.5)) for i in range(n)]
    ci = [int(math.floor(math.log(r["cnt"]) * 1e6 + 0.5)) for r in rows]
    sx, sy = sum(li), sum(ci)
    sxy = sum(a * b for a, b in zip(li, ci))
    sxx = sum(a * a for a in li)
    den = n * sxx - sx * sx
    if den == 0:
        slope = 0.0
    else:
        slope = float(n * sxy - sx * sy) / float(den)
        slope = math.floor(slope * 1e6 + 0.5) / 1e6
    return pa.table({
        "n_terms": pa.array([n], type=pa.int64()),
        "zipf_slope": pa.array([slope], type=pa.float64()),
    })


def vocab_growth(docs, n_checkpoints: int = 10):
    """Heaps'-law vocabulary-growth audit: cumulative token count and
    distinct-vocabulary size at ``n_checkpoints`` doc_id thresholds —
    the per-dump curve (V(n) ~ K * n^beta) that flags template spam
    (flat growth) or OCR noise (super-linear growth) in a crawl corpus.

    Checkpoint k (1-based) covers doc_id <= ((k * (max_id + 1)) //
    n_checkpoints) - 1, so the last checkpoint is the whole corpus. All
    outputs are exact integers — bit-reproducible by construction.

    Distributed shape: one max(doc_id) scalar; token counts are a pure
    streaming map emitting <= n_checkpoints partial-sum rows per batch
    + one tiny groupby(k); vocabulary needs term first-occurrence — one
    (term, min doc_id) groupby (map-side pre-combined by a local
    per-batch min) followed by the same bounded per-checkpoint count
    reduce. Driver sees 2 x n_checkpoints rows.

    Returns (checkpoint, doc_id_thr, n_tokens, vocab), one row per
    checkpoint."""
    import pyarrow.compute as pc

    from .joins import group_aggregate

    max_id = int(docs.max("doc_id"))
    K = n_checkpoints
    thr = np.array([((k + 1) * (max_id + 1)) // K - 1 for k in range(K)],
                   dtype=np.int64)

    def token_partials(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        # '' splits to [''] (len 1); null text follows the same
        # convention via fill_null — mirrors len(string_split(text, ' '))
        ntok = pc.fill_null(pc.list_value_length(
            pc.split_pattern(t["text"], " ")), 1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sums = np.array([ntok[ids <= b].sum() for b in thr],
                        dtype=np.int64)
        return pa.table({
            "k": pa.array(np.arange(1, K + 1, dtype=np.int64)),
            "c": pa.array(sums),
        })

    tokens = group_aggregate(
        docs.map_batches(token_partials, batch_format="pyarrow"), "k",
        {"n_tokens": ("c", "sum")})

    def first_partials(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        idx, flat, _ = _flat_tokens(t["text"].to_pylist())
        df = pd.DataFrame({"term": flat, "first": ids[idx]})
        g = df.groupby("term", sort=False)["first"].min()
        return pa.table({
            "term": pa.array(g.index.to_numpy(), type=pa.string()),
            "first": pa.array(g.to_numpy().astype(np.int64)),
        })

    firsts = group_aggregate(
        docs.map_batches(first_partials, batch_format="pyarrow"), "term",
        {"first": ("first", "min")})

    def vocab_partials(t: pa.Table) -> pa.Table:
        f = t["first"].to_numpy(zero_copy_only=False)
        cnt = np.array([(f <= b).sum() for b in thr], dtype=np.int64)
        return pa.table({
            "k": pa.array(np.arange(1, K + 1, dtype=np.int64)),
            "c": pa.array(cnt),
        })

    vocab = group_aggregate(
        firsts.map_batches(vocab_partials, batch_format="pyarrow"), "k",
        {"vocab": ("c", "sum")})

    tok_by_k = {int(r["k"]): int(r["n_tokens"]) for r in tokens.take_all()}
    voc_by_k = {int(r["k"]): int(r["vocab"]) for r in vocab.take_all()}
    ks = list(range(1, K + 1))
    return pa.table({
        "checkpoint": pa.array(ks, type=pa.int64()),
        "doc_id_thr": pa.array([int(b) for b in thr], type=pa.int64()),
        "n_tokens": pa.array([tok_by_k.get(k, 0) for k in ks],
                             type=pa.int64()),
        "vocab": pa.array([voc_by_k.get(k, 0) for k in ks],
                          type=pa.int64()),
    })


class _ReportPartials:
    """Per-batch per-source partials for :func:`corpus_report`: doc
    count, token count (string_split convention), and the integer-micro
    quality sum (the QualityScore formula inlined so source/text ride
    one pass). Task stage: regex compiled once per task."""

    def __init__(self):
        import re

        self.non_alpha = re.compile(r"[^a-zA-Z]")

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n_rows = len(texts)
        nt = np.empty(n_rows, dtype=np.int64)
        qm = np.empty(n_rows, dtype=np.int64)
        for i, x in enumerate(texts):
            toks = x.split(" ") if x else [""]
            nt[i] = len(toks)
            n = len(x)
            if n == 0:
                qm[i] = 0
                continue
            ttr = len(set(toks)) / len(toks)
            alpha = len(self.non_alpha.sub("", x)) / n
            q = 0.4 * ttr + 0.3 * alpha + 0.3 * min(1.0, n / 500.0)
            qm[i] = int(np.floor(q * 1e6 + 0.5))
        df = pd.DataFrame({"source": t["source"].to_pylist(),
                           "n": np.ones(n_rows, dtype=np.int64),
                           "nt": nt, "qm": qm})
        g = df.groupby("source", sort=False).sum()
        return pa.table({
            "source": pa.array(g.index.to_numpy(), type=pa.string()),
            "n": pa.array(g["n"].to_numpy()),
            "nt": pa.array(g["nt"].to_numpy()),
            "qm": pa.array(g["qm"].to_numpy()),
        })


def corpus_report(docs):
    """Per-source corpus health report — the audit table a curation run
    publishes per dump: document count, token count, distinct-text
    count (exact-dup exposure), and mean quality in integer
    micro-units (sum // count, exact floor division — no float mean to
    drift).

    Distributed shape: ONE streaming pass over text emits per-batch
    per-source partials (bounded by sources x blocks rows) + a
    (source, md5) hash stream; shuffles move count rows and 32-hex
    hashes only, never documents. Driver sees <= n_sources rows
    (bounded-enum key, the lang_counts assumption).

    Returns (source, n_docs, n_tokens, n_distinct_texts,
    mean_quality_micro) sorted by source."""
    import hashlib

    from .joins import group_aggregate

    agg = group_aggregate(
        docs.map_batches(per_task(_ReportPartials), batch_format="pyarrow"),
        "source", {"n_docs": ("n", "sum"), "n_tokens": ("nt", "sum"),
                   "qm": ("qm", "sum")})

    def hashes(t: pa.Table) -> pa.Table:
        h = [hashlib.md5((x or "").encode()).hexdigest()
             for x in t["text"].to_pylist()]
        out = pa.table({"source": t["source"], "h": pa.array(h)})
        # local dedup shrinks the shuffle
        return out.group_by(["source", "h"]).aggregate([])

    def per_source(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"source": t["source"].to_pylist(),
                           "c": np.ones(t.num_rows, dtype=np.int64)})
        g = df.groupby("source", sort=False)["c"].sum()
        return pa.table({
            "source": pa.array(g.index.to_numpy(), type=pa.string()),
            "c": pa.array(g.to_numpy()),
        })

    distinct = group_aggregate(
        group_aggregate(docs.map_batches(hashes, batch_format="pyarrow"),
                        ["source", "h"], {"n": (None, "count_all")})
        .map_batches(per_source, batch_format="pyarrow"),
        "source", {"n_distinct_texts": ("c", "sum")})

    a = {r["source"]: r for r in agg.take_all()}
    d = {r["source"]: int(r["n_distinct_texts"])
         for r in distinct.take_all()}
    srcs = sorted(a)
    return pa.table({
        "source": pa.array(srcs, type=pa.string()),
        "n_docs": pa.array([int(a[s]["n_docs"]) for s in srcs],
                           type=pa.int64()),
        "n_tokens": pa.array([int(a[s]["n_tokens"]) for s in srcs],
                             type=pa.int64()),
        "n_distinct_texts": pa.array([d.get(s, 0) for s in srcs],
                                     type=pa.int64()),
        "mean_quality_micro": pa.array(
            [int(a[s]["qm"]) // int(a[s]["n_docs"]) for s in srcs],
            type=pa.int64()),
    })


def token_budget_select(docs, budget_tokens: Optional[int] = None,
                        budget_num: int = 1, budget_den: int = 3):
    """Quality-ordered corpus selection to a token budget — "fill an
    N-token training budget with the best documents": rank every doc by
    (quality desc, doc_id asc) and keep the maximal prefix whose
    cumulative token count stays within the budget. Emits one row per
    doc: ``(doc_id, score_micro, n_tokens, selected)``.

    ``budget_tokens`` is explicit when given; otherwise the budget is
    ``total_tokens * budget_num // budget_den`` (scale-relative, exact
    integer arithmetic). The score is the repo's composite quality in
    round-half-up integer micro-units (identical to the ``doc_quality``
    oracle's grid), tokens are the SQL-parity ``[^ ]+`` count — so the
    DuckDB mirror (window ``SUM ... ROWS UNBOUNDED PRECEDING`` over the
    same total order) reproduces the selection bit-for-bit.

    Scale shape — NO global sort. The total order is resolved with the
    repo's coarse-bucket + boundary-refine pattern:
      1. one streaming map scores docs into a narrow (doc_id,
         score_micro, n_tokens) projection, materialized once (24 B/doc
         — row-bounded, not byte-bounded; ~240 GB for 10^10 docs,
         object-store-spillable, vs re-reading 100 TB of text 3x);
      2. per-(score_micro >> 8) bucket token sums via groupby — at most
         score_range/256 rows (<= 3,907 for the 0..1e6 quality domain)
         reach the driver;
      3. only the ONE boundary bucket's rows (~corpus/3907 docs of 3
         ints each — same driver-fold bound as the HLL registers and
         quantile histograms) are pulled and ordered exactly to find
         the cutoff (score*, doc*);
      4. one broadcast-closure streaming filter flags every doc via the
         pair rule ``score > s*  OR  (score == s* AND doc_id <= d*)``,
         which equals the global prefix rule because (score, doc_id) is
         a total order.
    """
    import re as _re

    from .joins import group_aggregate

    non_alpha = _re.compile(r"[^a-zA-Z]")
    tok_re = _re.compile(r"[^ ]+")

    def score(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n = len(texts)
        sm = np.zeros(n, dtype=np.int64)
        for i, s in enumerate(texts):
            s = s or ""
            ln = len(s)
            if ln == 0:
                continue
            toks = s.split(" ")
            ttr = len(set(toks)) / len(toks)
            alpha = len(non_alpha.sub("", s)) / ln
            len_score = min(1.0, ln / 500.0)
            q = 0.4 * ttr + 0.3 * alpha + 0.3 * len_score
            sm[i] = int(np.floor(q * 1e6 + 0.5))
        ntok = pc.count_substring_regex(
            t["text"].combine_chunks(), "[^ ]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "score_micro": pa.array(sm),
            "n_tokens": pa.array(ntok),
        })

    scored = docs.map_batches(score, batch_format="pyarrow").materialize()

    if budget_tokens is None:
        total = scored.sum("n_tokens") or 0
        budget_tokens = int(total) * budget_num // budget_den
    budget_tokens = int(budget_tokens)

    def bucketize(t: pa.Table) -> pa.Table:
        s = t["score_micro"].to_numpy(zero_copy_only=False)
        return pa.table({
            "b": pa.array((s >> 8).astype(np.int64)),
            "tok": t["n_tokens"],
        })

    buckets = group_aggregate(
        scored.map_batches(bucketize, batch_format="pyarrow"), "b",
        {"tok": ("tok", "sum")})
    rows = sorted(((int(r["b"]), int(r["tok"]))
                   for r in buckets.take_all()), reverse=True)

    # walk buckets best-first to locate the boundary bucket
    acc = 0
    boundary = None
    for b, tok in rows:
        if acc + tok > budget_tokens:
            boundary = b
            break
        acc += tok
    if boundary is None:
        # whole corpus fits: everything selected
        def all_sel(t: pa.Table) -> pa.Table:
            return t.append_column(
                "selected", pa.array(np.ones(t.num_rows, dtype=bool)))
        return scored.map_batches(all_sel, batch_format="pyarrow")

    # exact cutoff inside the boundary bucket (driver fold, bounded by
    # one bucket's occupancy; numpy only)
    edge = scored.filter(
        expr=f"score_micro >= {boundary << 8} and "
             f"score_micro < {(boundary + 1) << 8}")
    erows = edge.take_all()
    et = pa.Table.from_pylist(erows)
    if et.num_rows:
        es = et["score_micro"].to_numpy(zero_copy_only=False)
        ed = et["doc_id"].to_numpy(zero_copy_only=False)
        en = et["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ed, -es))
        cum = acc + np.cumsum(en[order])
        ok = cum <= budget_tokens
        if ok.any():
            last = order[np.flatnonzero(ok)[-1]]
            s_star, d_star = int(es[last]), int(ed[last])
        else:
            s_star, d_star = None, None
    else:
        s_star, d_star = None, None

    if s_star is None:
        # nothing in the boundary bucket fits: select exactly the better
        # buckets (score above the boundary bucket's top value, which is
        # (boundary << 8) + 255), nothing from the boundary bucket
        s_cut, d_cut = (boundary << 8) + 255, -1
    else:
        s_cut, d_cut = s_star, d_star

    def flag(t: pa.Table) -> pa.Table:
        s = t["score_micro"].to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        sel = (s > s_cut) | ((s == s_cut) & (d <= d_cut))
        return t.append_column("selected", pa.array(sel))

    return scored.map_batches(flag, batch_format="pyarrow")


def length_bucket_batches(docs, batch_rows: int = 8,
                          len_bucket_width: int = 16,
                          bucket_span: int = 4096):
    """Length-bucketed dynamic batching — the inference/training-loader
    step that groups similar-length documents into fixed-row batches so
    padding-to-max waste stays small (the "bucketing by sequence length"
    every serving stack and packed-training loader performs). Documents
    are bucketed by ``n_tokens // len_bucket_width``, ordered by doc_id
    within each length bucket, and cut into batches of ``batch_rows``;
    the output is ONE ROW PER BATCH with its padding accounting:
    ``(len_bucket, batch_id, n_docs, max_tokens, sum_tokens, pad_waste)``
    where ``pad_waste = n_docs * max_tokens - sum_tokens`` (the padding
    tokens a pad-to-batch-max collator would emit).

    Distribution: the global within-length-bucket order is recovered
    WITHOUT a global sort by the same two-pass distributed prefix scheme
    as :func:`pack_sequences`, extended to two keys — per
    (len_bucket, id_bucket) COUNTS reach the driver (rows bounded by
    n_len_buckets x n_docs/bucket_span, counts only, same driver-fold
    bound pack_sequences documents), offsets assign each id-bucket its
    starting sequence number per length bucket, and a per-id-bucket
    kernel computes batch ids locally. Batch-level partials then merge
    across id-buckets in ONE (len_bucket, batch_id) groupby — batches
    straddling id-bucket boundaries merge exactly (Sum/Sum/Max are
    associative). Token texts never shuffle; both exchanges carry a few
    ints per doc or per batch."""
    from .joins import group_aggregate

    def keys(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(
            pc.split_pattern(t["text"], pattern=" ")).cast(pa.int64())
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": n,
            "len_bucket": pc.divide(n, len_bucket_width),
            "__span": pc.divide(t["doc_id"], bucket_span),
        })

    keyed = docs.map_batches(keys, batch_format="pyarrow").materialize()

    per_cell = group_aggregate(keyed, ["len_bucket", "__span"],
                               {"n": (None, "count_all")}).take_all()
    per_cell.sort(key=lambda r: (r["len_bucket"], r["__span"]))
    offsets: Dict[tuple, int] = {}
    run_lb, run = None, 0
    for r in per_cell:
        if r["len_bucket"] != run_lb:
            run_lb, run = r["len_bucket"], 0
        offsets[(r["len_bucket"], r["__span"])] = run
        run += r["n"]

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["len_bucket", "doc_id"], kind="mergesort")
        ib = int(g["__span"].iloc[0])
        seq_local = g.groupby("len_bucket").cumcount().to_numpy()
        base = np.fromiter(
            (offsets[(int(lb), ib)] for lb in g["len_bucket"]),
            dtype=np.int64, count=len(g))
        batch_id = (base + seq_local) // batch_rows
        part = pd.DataFrame({
            "len_bucket": g["len_bucket"].to_numpy(),
            "batch_id": batch_id,
            "n_tokens": g["n_tokens"].to_numpy(),
        })
        agg = part.groupby(["len_bucket", "batch_id"]).agg(
            n_docs=("n_tokens", "size"),
            max_tokens=("n_tokens", "max"),
            sum_tokens=("n_tokens", "sum")).reset_index()
        return agg.astype(np.int64)

    partials = keyed.groupby("__span").map_groups(
        assign, batch_format="pandas")
    merged = group_aggregate(partials, ["len_bucket", "batch_id"], {
        "n_docs": ("n_docs", "sum"),
        "max_tokens": ("max_tokens", "max"),
        "sum_tokens": ("sum_tokens", "sum")})

    def finish(t: pa.Table) -> pa.Table:
        waste = pc.subtract(
            pc.multiply(t["n_docs"].cast(pa.int64()),
                        t["max_tokens"].cast(pa.int64())),
            t["sum_tokens"].cast(pa.int64()))
        return pa.table({
            "len_bucket": t["len_bucket"].cast(pa.int64()),
            "batch_id": t["batch_id"].cast(pa.int64()),
            "n_docs": t["n_docs"].cast(pa.int64()),
            "max_tokens": t["max_tokens"].cast(pa.int64()),
            "sum_tokens": t["sum_tokens"].cast(pa.int64()),
            "pad_waste": waste,
        })

    return merged.map_batches(finish, batch_format="pyarrow")


def textrank_keywords(docs, vocab_size: int = 50, iters: int = 3):
    """TextRank keyword extraction (Mihalcea & Tarau, EMNLP'04) over the
    corpus head vocabulary: build the word co-occurrence graph
    (adjacent-token pairs, both words in the top-``vocab_size`` vocab,
    symmetrized, weighted by pair frequency) and rank words with the
    integer fixed-point WEIGHTED PageRank (`graph.pagerank_weighted`) —
    the classic unsupervised keyword scorer, here as a pure composition
    of two already-verified operators, bit-exact end to end.

    Output ``(term, rank)``, one row per vocab word. Scale shape:
    :func:`corpus_vocab`'s bounded reduce (driver sees <= V rows — the
    documented vocab budget), ONE streaming pass over tokens emitting
    per-batch (src, dst, c) pair partials against the broadcast vocab
    (searchsorted, no per-token Python), one V^2-bounded groupby-sum,
    then pagerank_weighted's BSP iterations over <= V nodes."""
    from .graph import pagerank_weighted
    from .joins import group_aggregate

    vocab_rows = corpus_vocab(docs, vocab_size).take_all()
    terms = [r["term"] for r in vocab_rows]          # index == vid
    v = len(terms)
    terms_np = np.asarray(terms, dtype=object)
    order = np.argsort(terms_np)
    sorted_terms = terms_np[order]
    sorted_vids = order.astype(np.int64)

    def edge_partials(t: pa.Table) -> pa.Table:
        idx, flat, _ = _flat_tokens(t["text"].to_pylist())
        if len(flat) == 0:
            return pa.table({"src": pa.array([], type=pa.int64()),
                             "dst": pa.array([], type=pa.int64()),
                             "w": pa.array([], type=pa.int64())})
        pos = np.searchsorted(sorted_terms, flat)
        ok = pos < v
        safe = np.where(ok, pos, 0)
        ok &= sorted_terms[safe] == flat
        vids = np.where(ok, sorted_vids[safe], -1)
        w1, w2 = vids[:-1], vids[1:]
        m = (idx[1:] == idx[:-1]) & (w1 >= 0) & (w2 >= 0) & (w1 != w2)
        src = np.concatenate([w1[m], w2[m]])
        dst = np.concatenate([w2[m], w1[m]])
        g = (pd.DataFrame({"src": src, "dst": dst})
             .groupby(["src", "dst"], sort=False).size()
             .reset_index(name="w"))
        return pa.table({
            "src": pa.array(g["src"].to_numpy(dtype=np.int64)),
            "dst": pa.array(g["dst"].to_numpy(dtype=np.int64)),
            "w": pa.array(g["w"].to_numpy(dtype=np.int64))})

    edges = group_aggregate(
        docs.map_batches(edge_partials, batch_format="pyarrow"),
        ["src", "dst"], {"w": ("w", "sum")})
    pr = pagerank_weighted(edges, num_nodes=v, iters=iters)

    def name(t: pa.Table) -> pa.Table:
        nodes = t["node"].to_numpy(zero_copy_only=False)
        return pa.table({
            "term": pa.array(terms_np[nodes], type=pa.string()),
            "rank": t["rank"]})

    return pr.map_batches(name, batch_format="pyarrow")
