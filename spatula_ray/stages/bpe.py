"""Distributed BPE tokenizer training (Sennrich et al. 2016).

The 100 TB shape: the ONLY corpus-wide shuffle is the word-frequency
count (per-batch partials -> groupby-sum, output bounded by the distinct
vocabulary, never the corpus). Every merge iteration then runs over the
vocab-bounded (word, freq, symbols) table: a pair-count map whose output
is bounded by the distinct-pair vocabulary, one small groupby-sum, a
per-batch local top-1 (every global winner wins locally), and a
vectorized merge-application map. No floats anywhere — counts are exact
int64 and the winner election tie-breaks lexicographically — so the
DuckDB oracle (an unrolled CTE chain, see ``__ray_entry__``) reproduces
the learned merge table bit-for-bit.

Greedy merge semantics match the reference BPE: all non-overlapping
occurrences left-to-right, i.e. within a run of consecutive candidate
positions only every other one applies ("aaaa" + (a,a) -> "aa aa").
Symbols are unicode codepoints of the space-split words (no end-of-word
marker); the oracle's ``substr`` indexing matches codepoints for the
ASCII corpora used here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _explode(t: pa.Table):
    """(flat_symbols, word_index, counts_per_word, freq) views of a
    (word, freq, syms) batch."""
    syms = t["syms"].combine_chunks()
    flat = np.asarray(syms.flatten().to_pylist(), dtype=object)
    n_per = np.diff(syms.offsets.to_numpy(zero_copy_only=False))
    widx = np.repeat(np.arange(len(n_per), dtype=np.int64), n_per)
    freq = t["freq"].combine_chunks().to_numpy(zero_copy_only=False)
    return flat, widx, n_per, freq


def word_symbol_table(docs, text_col: str = "text"):
    """Distributed word-frequency count -> (word, freq, syms) Dataset
    with syms = the word's codepoint list. The one corpus-wide exchange
    in BPE training; everything after is vocab-bounded."""
    from .joins import group_aggregate

    def partial(t: pa.Table) -> pa.Table:
        out: list = []
        for txt in t[text_col].to_pylist():
            out.extend((txt or "").split(" "))
        words, counts = np.unique(np.asarray(out, dtype=str),
                                  return_counts=True)
        return pa.table({"word": pa.array(words, type=pa.string()),
                         "freq": pa.array(counts.astype(np.int64))})

    wc = group_aggregate(docs.map_batches(partial, batch_format="pyarrow"),
                         "word", {"freq": ("freq", "sum")})

    def with_syms(t: pa.Table) -> pa.Table:
        words = t["word"].to_pylist()
        return pa.table({
            "word": t["word"], "freq": t["freq"],
            "syms": pa.array([list(w) for w in words],
                             type=pa.list_(pa.string())),
        })

    return wc.map_batches(with_syms, batch_format="pyarrow")


def _pair_partials(t: pa.Table) -> pa.Table:
    """Freq-weighted adjacent-pair counts for one batch. Pair key is
    's1 s2' — symbols never contain spaces (words are space-split), and
    space sorts below every printable ASCII char, so the key's string
    order equals the (s1, s2) tuple order the oracle uses."""
    flat, widx, _, freq = _explode(t)
    if len(flat) < 2:
        return pa.table({"pair": pa.array([], type=pa.string()),
                         "c": pa.array([], type=pa.int64())})
    same = widx[:-1] == widx[1:]
    s = flat.astype(str)
    key = np.char.add(np.char.add(s[:-1], " "), s[1:])[same]
    wf = freq[widx[:-1][same]]
    uk, inv = np.unique(key, return_inverse=True)
    c = np.bincount(inv, weights=wf.astype(np.float64))
    return pa.table({"pair": pa.array(uk, type=pa.string()),
                     "c": pa.array(c.astype(np.int64))})


def _local_top1(t: pa.Table) -> pa.Table:
    pair = t["pair"].combine_chunks().to_numpy(zero_copy_only=False) \
        .astype(str)
    c = t["c"].combine_chunks().to_numpy(zero_copy_only=False)
    if len(pair) == 0:
        return t
    i = np.lexsort((pair, -c))[0]
    return pa.table({"pair": pa.array([pair[i]], type=pa.string()),
                     "c": pa.array([int(c[i])], type=pa.int64())})


def _apply_merge(w1: str, w2: str):
    merged = w1 + w2

    def apply(t: pa.Table) -> pa.Table:
        flat, widx, n_per, _ = _explode(t)
        if len(flat) >= 2:
            same = widx[:-1] == widx[1:]
            s = flat.astype(str)
            cand = np.flatnonzero((s[:-1] == w1) & (s[1:] == w2) & same)
        else:
            cand = np.empty(0, dtype=np.int64)
        if len(cand):
            # left-to-right greedy: within a run of consecutive candidate
            # positions only every other one applies
            brk = np.r_[True, cand[1:] != cand[:-1] + 1]
            starts = np.flatnonzero(brk)
            run_start = np.repeat(
                starts, np.diff(np.r_[starts, len(cand)]))
            applied = cand[(np.arange(len(cand)) - run_start) % 2 == 0]
            flat = flat.copy()
            flat[applied] = merged
            keep = np.ones(len(flat), dtype=bool)
            keep[applied + 1] = False
            new_per = n_per - np.bincount(widx[applied],
                                          minlength=len(n_per))
            syms = pa.ListArray.from_arrays(
                np.r_[0, np.cumsum(new_per)].astype(np.int32),
                pa.array(flat[keep], type=pa.string()))
        else:
            syms = t["syms"].combine_chunks()
        return pa.table({"word": t["word"], "freq": t["freq"],
                         "syms": syms})

    return apply


def bpe_merges(docs, n_merges: int = 8, text_col: str = "text") -> pa.Table:
    """Learn the first ``n_merges`` BPE merges over the corpus. Returns
    the merge table ``(step, lhs, rhs, pair_count)`` ordered by step —
    the tokenizer artifact a training pipeline ships. Winner election:
    max summed freq, ties broken by (lhs, rhs) ascending."""
    steps, _ = _train(docs, n_merges, text_col)
    return pa.table({
        "step": pa.array([s[0] for s in steps], type=pa.int64()),
        "lhs": pa.array([s[1] for s in steps], type=pa.string()),
        "rhs": pa.array([s[2] for s in steps], type=pa.string()),
        "pair_count": pa.array([s[3] for s in steps], type=pa.int64()),
    })


def _train(docs, n_merges: int, text_col: str = "text"):
    """Shared trainer: returns ``(steps, final_vocab_ds)`` where steps is
    the learned merge list and final_vocab_ds the (word, freq, syms)
    Dataset AFTER all merges — i.e. the encoded form of every distinct
    word, which is all a tokenizer needs to encode the corpus."""
    from .joins import group_aggregate

    ds = word_symbol_table(docs, text_col).materialize()
    steps: list = []
    for step in range(1, n_merges + 1):
        counts = group_aggregate(
            ds.map_batches(_pair_partials, batch_format="pyarrow"), "pair",
            {"c": ("c", "sum")})
        cand = counts.map_batches(_local_top1,
                                  batch_format="pyarrow").take_all()
        if not cand:
            break
        best = min(cand, key=lambda r: (-r["c"], r["pair"]))
        w1, w2 = best["pair"].split(" ", 1)
        steps.append((step, w1, w2, int(best["c"])))
        ds = ds.map_batches(_apply_merge(w1, w2),
                            batch_format="pyarrow").materialize()
    return steps, ds


def bpe_token_counts(docs, n_merges: int = 8, text_col: str = "text"):
    """Encode the corpus under the learned merge table and return the
    per-document token count ``(doc_id, n_words, n_tokens)`` — the
    budget number every training-mixture planner needs.

    100 TB shape: encoding is word-level, so it never touches document
    text a second time beyond a per-batch (doc_id, word, c) count
    partial — docs with many repeated words shuffle one row per DISTINCT
    word. The per-word token lengths come from the trainer's final vocab
    table (vocab-bounded), joined in via a hash-bucket join on the word
    (the vocab may exceed broadcast size at corpus scale), then one
    groupby(doc_id) sum. All integers — the SQL mirror reuses the
    trainer's unrolled CTE chain and reproduces counts bit-for-bit.
    Docs whose text has no nonempty word are absent from the output
    (inner-join semantics, mirrored by the oracle)."""
    from .joins import group_aggregate, hash_bucket_join

    _, vocab = _train(docs, n_merges, text_col)

    def word_len(t: pa.Table) -> pa.Table:
        syms = t["syms"].combine_chunks()
        n = np.diff(syms.offsets.to_numpy(zero_copy_only=False))
        return pa.table({"word": t["word"],
                         "n_sym": pa.array(n.astype(np.int64))})

    def doc_word_partial(t: pa.Table) -> pa.Table:
        ids: list = []
        words: list = []
        for did, txt in zip(t["doc_id"].to_pylist(),
                            t[text_col].to_pylist()):
            ws = [w for w in (txt or "").split(" ") if w]
            words.extend(ws)
            ids.extend([did] * len(ws))
        if not words:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "word": pa.array([], type=pa.string()),
                             "c": pa.array([], type=pa.int64())})
        did = np.asarray(ids, dtype=np.int64)
        ws = np.asarray(words, dtype=str)
        # count per (doc, word) without a string concat: lexsort + run ends
        order = np.lexsort((ws, did))
        did, ws = did[order], ws[order]
        brk = np.r_[True, (did[1:] != did[:-1]) | (ws[1:] != ws[:-1])]
        starts = np.flatnonzero(brk)
        c = np.diff(np.r_[starts, len(ws)])
        return pa.table({"doc_id": pa.array(did[starts]),
                         "word": pa.array(ws[starts], type=pa.string()),
                         "c": pa.array(c.astype(np.int64))})

    j = hash_bucket_join(
        docs.map_batches(doc_word_partial, batch_format="pyarrow"),
        vocab.map_batches(word_len, batch_format="pyarrow"),
        on=["word"])

    def partial_tok(t: pa.Table) -> pa.Table:
        c = t["c"].combine_chunks().to_numpy(zero_copy_only=False)
        n = t["n_sym"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": t["doc_id"],
                         "n_words": t["c"],
                         "n_tokens": pa.array((c * n).astype(np.int64))})

    return group_aggregate(j.map_batches(partial_tok, batch_format="pyarrow"),
                           "doc_id", {"n_words": ("n_words", "sum"),
                                      "n_tokens": ("n_tokens", "sum")})
