"""Text-analysis stages over a documents table.

Each stage is a callable class run as plain Ray Data tasks through
``map_batches(per_task(Cls))`` — regexes and marker tables compile once
per task in ``__init__``, work is per batch. Definitions are chosen to
be exactly reproducible in ANSI SQL (DuckDB) for the correctness gate
where claimed.
"""

from __future__ import annotations

import hashlib
import re
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import per_task
from .joins import bucket_exchange


class TextStats:
    """Per-doc statistics: char count, whitespace tokens, BPE-ish regex
    tokens, distinct-token count, type-token ratio, md5 fingerprint.

    SQL-parity definitions (see __ray_entry__.oracle_sql):
      n_chars         = length(text)
      n_tokens        = len(string_split(text, ' '))
      n_tokens_bpe    = len(regexp_extract_all(text, '\\w+|[^\\w\\s]'))
      n_unique_tokens = len(list_distinct(string_split(text, ' ')))
      ttr             = round(n_unique_tokens / n_tokens, 6)
      fingerprint     = md5(text)
    """

    def __init__(self):
        self.bpe = re.compile(r"\w+|[^\w\s]")

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts: List[str] = batch["text"].to_pylist()
        n_chars = pc.utf8_length(batch["text"]).cast(pa.int64())
        n_tokens = np.empty(len(texts), dtype=np.int64)
        n_bpe = np.empty(len(texts), dtype=np.int64)
        n_uniq = np.empty(len(texts), dtype=np.int64)
        fps = []
        for i, t in enumerate(texts):
            toks = t.split(" ") if t else [""]
            n_tokens[i] = len(toks)
            n_uniq[i] = len(set(toks))
            n_bpe[i] = len(self.bpe.findall(t))
            fps.append(hashlib.md5(t.encode()).hexdigest())
        ttr = np.floor(n_uniq / np.maximum(n_tokens, 1) * 1e6 + 0.5) / 1e6
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_chars": n_chars,
            "n_tokens": pa.array(n_tokens),
            "n_tokens_bpe": pa.array(n_bpe),
            "n_unique_tokens": pa.array(n_uniq),
            "ttr": pa.array(ttr),
            "fingerprint": pa.array(fps),
        })


# tiny per-language marker lists for the n-gram/stopword language-ID
# heuristic (deterministic; a real model would load here instead)
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "for", "on"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "zu"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "por", "con", "para"},
    "fr": {"le", "la", "les", "de", "et", "un", "une", "est", "pour", "que"},
    "zh": {"的", "了", "是", "我", "在", "有", "他", "这", "不", "就"},
}


class LangId:
    """Heuristic language ID: marker-word hit ratio per language; falls back
    to character-class evidence for CJK. Deterministic and mirrored exactly
    in SQL (see __ray_entry__.oracle_sql["langid_pred"]): marker counts are
    list_filter lengths, the argmax-with-dict-order tie-break is a CASE
    chain, confidence is snapped to the 1e-6 floor grid on both sides."""

    def __init__(self):
        self.markers = {k: frozenset(v) for k, v in _LANG_MARKERS.items()}
        self.cjk = re.compile(r"[一-鿿]")

    def predict(self, text: str) -> tuple:
        if self.cjk.search(text):
            return "zh", 1.0
        toks = text.lower().split()
        if not toks:
            return "und", 0.0
        best, best_score = "und", 0.0
        for lang, marks in self.markers.items():
            score = sum(1 for t in toks if t in marks) / len(toks)
            if score > best_score:
                best, best_score = lang, score
        return best, float(np.floor(best_score * 1e6 + 0.5) / 1e6)

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds, confs = [], []
        for t in batch["text"].to_pylist():
            p, c = self.predict(t or "")
            preds.append(p)
            confs.append(c)
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang_pred": pa.array(preds),
            "confidence": pa.array(confs, type=pa.float64()),
        })


class QualityScore:
    """Composite quality score: length band + type-token ratio + alpha
    ratio + mean token length, each in [0,1]. SQL-reproducible formula:

      alpha_ratio = length(regexp_replace(text,'[^a-zA-Z]','','g'))/length(text)
      len_score   = least(1.0, n_chars / 500.0)
      quality     = round(0.4*ttr + 0.3*alpha_ratio + 0.3*len_score, 6)
    """

    def __init__(self):
        self.non_alpha = re.compile(r"[^a-zA-Z]")

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        out = np.empty(len(texts), dtype=np.float64)
        for i, t in enumerate(texts):
            n = len(t)
            if n == 0:
                out[i] = 0.0
                continue
            toks = t.split(" ")
            ttr = len(set(toks)) / len(toks)
            alpha = len(self.non_alpha.sub("", t)) / n
            len_score = min(1.0, n / 500.0)
            q = 0.4 * ttr + 0.3 * alpha + 0.3 * len_score
            out[i] = np.floor(q * 1e6 + 0.5) / 1e6
        return pa.table({
            "doc_id": batch["doc_id"],
            "quality": pa.array(out),
        })


def rolling_hashes(text: str, window: int = 8, base: int = 257,
                   mod: int = (1 << 61) - 1) -> np.ndarray:
    """Rabin-Karp rolling hashes of char windows — document fingerprinting
    primitive (deterministic, no builtin hash())."""
    n = len(text)
    if n < window:
        return np.zeros(0, dtype=np.uint64)
    out = np.empty(n - window + 1, dtype=np.uint64)
    h = 0
    power = pow(base, window - 1, mod)
    for i, ch in enumerate(text):
        h = (h * base + ord(ch)) % mod
        if i >= window - 1:
            out[i - window + 1] = h
            h = (h - ord(text[i - window + 1]) * power) % mod
    return out


class WinnowFingerprint:
    """Winnowing document fingerprint: min rolling hash per stride window;
    compact doc signature for containment/near-dup screening (rows-only)."""

    def __init__(self, window: int = 8, stride: int = 16):
        self.window = window
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = []
        for t in batch["text"].to_pylist():
            hs = rolling_hashes(t or "", self.window)
            if len(hs) == 0:
                sigs.append([])
                continue
            pad = (-len(hs)) % self.stride
            if pad:
                hs = np.concatenate([hs, np.full(pad, np.iinfo(np.uint64).max,
                                                 dtype=np.uint64)])
            sigs.append(hs.reshape(-1, self.stride).min(axis=1).tolist())
        return pa.table({
            "doc_id": batch["doc_id"],
            "winnow_sig": pa.array(sigs, type=pa.list_(pa.uint64())),
        })


# RE2 patterns shared by the engine and the DuckDB oracle (both are RE2,
# so counts and replacements reproduce bit-for-bit — verified for every
# pattern in tests/test_stages.py)
PII_EMAIL = r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}"
PII_PHONE = r"\b[0-9]{3}-[0-9]{4}\b"
PII_IP = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"


def pii_scrub(docs):
    """Redact emails, phone numbers, and IPv4 addresses from ``text``
    and count each kind — the privacy-scrub pass of a training-data
    pipeline. Returns (doc_id, clean_text, n_emails, n_phones, n_ips).

    Redaction is SEQUENTIAL (emails, then phones over the redacted
    text, then IPs) and each count is taken over the stage input, so
    the definition has exactly one reading; the DuckDB oracle nests its
    regexp_replace calls in the same order. Pure vectorized pyarrow RE2
    kernels in one narrow ``map_batches`` — no shuffle, no Python rows;
    at 100 TB this stage is embarrassingly parallel and reads only
    (doc_id, text)."""

    def scrub(t: pa.Table) -> pa.Table:
        txt = t["text"].combine_chunks()
        n_em = pc.count_substring_regex(txt, PII_EMAIL).cast(pa.int64())
        t1 = pc.replace_substring_regex(txt, PII_EMAIL, "<EMAIL>")
        n_ph = pc.count_substring_regex(t1, PII_PHONE).cast(pa.int64())
        t2 = pc.replace_substring_regex(t1, PII_PHONE, "<PHONE>")
        n_ip = pc.count_substring_regex(t2, PII_IP).cast(pa.int64())
        t3 = pc.replace_substring_regex(t2, PII_IP, "<IP>")
        return pa.table({
            "doc_id": t["doc_id"],
            "clean_text": t3,
            "n_emails": n_em,
            "n_phones": n_ph,
            "n_ips": n_ip,
        })

    return docs.map_batches(scrub, batch_format="pyarrow")


# -- Gopher quality rules (Rae et al. 2021, Table A1) ---------------------------

GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_rules(docs, min_words: int = 50, max_words: int = 100_000):
    """Per-document Gopher quality-rule flags — the standard pre-filter
    of web-scale training corpora. Emits one row per doc with the raw
    integer signals, the seven rule booleans, and the composite ``keep``.

    Every rule threshold is evaluated in INTEGER arithmetic (e.g.
    symbol-ratio < 0.1 as ``10*symbols < n_words``, mean word length in
    [3, 10] as ``3*n_words <= n_chars <= 10*n_words``), and the reported
    mean word length is a round-half-up integer micro-unit — so the
    DuckDB oracle reproduces every flag and value bit-for-bit, no float
    anywhere. Words are the repo-wide SQL-parity tokenization
    (``string_split(text, ' ')``), nonempty only; docs with zero
    nonempty words are absent (inner-join semantics, mirrored).

    Pure streaming ``map_batches`` — one narrow (doc_id, text)
    projection, token-level work fully vectorized (pyarrow RE2 for the
    alphabetic test, numpy bincount segment sums), per-LINE work a
    per-doc loop only when a newline exists. No shuffle; at 100 TB this
    is embarrassingly parallel."""
    from .curate import _flat_tokens

    def rules(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n_docs = len(texts)
        idx, flat, _lens = _flat_tokens(texts)
        warr = pa.array(flat, type=pa.string())
        wlen = pc.utf8_length(warr).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nonempty = wlen > 0
        n_words = np.bincount(idx[nonempty], minlength=n_docs)
        n_chars = np.bincount(idx[nonempty], weights=wlen[nonempty],
                              minlength=n_docs).astype(np.int64)
        alpha = pc.match_substring_regex(warr, "[A-Za-z]") \
            .to_numpy(zero_copy_only=False)
        alpha_words = np.bincount(idx[nonempty & alpha], minlength=n_docs)
        n_stop = np.zeros(n_docs, dtype=np.int64)
        for w in GOPHER_STOPWORDS:
            hit = flat == w
            n_stop += np.bincount(idx[hit], minlength=n_docs) > 0

        txt = t["text"].combine_chunks()
        symbols = pc.add(
            pc.count_substring(txt, "#"),
            pc.count_substring(txt, "..."),
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        n_lines = np.ones(n_docs, dtype=np.int64)
        bullet_lines = np.zeros(n_docs, dtype=np.int64)
        ell_lines = np.zeros(n_docs, dtype=np.int64)
        for i, s in enumerate(texts):
            s = s or ""
            ls = s.split("\n") if "\n" in s else (s,)
            n_lines[i] = len(ls)
            bullet_lines[i] = sum(
                1 for l in ls if l.startswith("- ") or l.startswith("* "))
            ell_lines[i] = sum(1 for l in ls if l.endswith("..."))

        keep_rows = n_words > 0
        nw = n_words[keep_rows]
        nc = n_chars[keep_rows]
        mean_wl_micro = (nc * 2_000_000 + nw) // (2 * nw)
        words_ok = (nw >= min_words) & (nw <= max_words)
        mean_wl_ok = (3 * nw <= nc) & (nc <= 10 * nw)
        symbol_ok = 10 * symbols[keep_rows] < nw
        bullet_ok = 10 * bullet_lines[keep_rows] < 9 * n_lines[keep_rows]
        ellipsis_ok = 10 * ell_lines[keep_rows] < 3 * n_lines[keep_rows]
        alpha_ok = 5 * alpha_words[keep_rows] > 4 * nw
        stop_ok = n_stop[keep_rows] >= 2
        keep = (words_ok & mean_wl_ok & symbol_ok & bullet_ok
                & ellipsis_ok & alpha_ok & stop_ok)
        did = t["doc_id"].combine_chunks() \
            .to_numpy(zero_copy_only=False)[keep_rows]
        return pa.table({
            "doc_id": pa.array(did),
            "n_words": pa.array(nw.astype(np.int64)),
            "mean_wl_micro": pa.array(mean_wl_micro.astype(np.int64)),
            "words_ok": pa.array(words_ok),
            "mean_wl_ok": pa.array(mean_wl_ok),
            "symbol_ok": pa.array(symbol_ok),
            "bullet_ok": pa.array(bullet_ok),
            "ellipsis_ok": pa.array(ellipsis_ok),
            "alpha_ok": pa.array(alpha_ok),
            "stop_ok": pa.array(stop_ok),
            "keep": pa.array(keep),
        })

    return docs.map_batches(rules, batch_format="pyarrow")


class MainContentExtract:
    """Readability-style main-content extraction over ``(doc_id, html)``
    rows: parse with the engine's own stdlib DOM
    (``spatula_ray.dom.fromstring_html``), score every direct child of
    ``<body>`` by link density — ``score = chars of descendant text NOT
    inside <a> minus chars inside <a>`` — and emit the winning block's
    text (stripped text nodes joined by single spaces). The classic
    boilerplate-vs-content split (navs/footers/ads are link-dense and
    score negative; article prose scores its own length), implemented
    as a task stage: the DOM machinery is built once per task, work
    is per batch.

    Emits ``(doc_id, main_text, score)`` with document order breaking
    ties. SQL mirror: ``__ray_entry__.oracle_sql['main_content']``
    reconstructs the winning block for the templated fixture."""

    def __init__(self):
        from ..dom import fromstring_html

        self._parse = fromstring_html

    @staticmethod
    def _lens(el, in_link: bool):
        """(non_link_chars, link_chars) over el's text/descendants/tails-
        of-children — raw text-node lengths, no join whitespace."""
        inside = in_link or el.tag == "a"
        nl = ln = 0
        if el.text:
            n = len(el.text)
            ln, nl = (ln + n, nl) if inside else (ln, nl + n)
        for c in el:
            cnl, cln = MainContentExtract._lens(c, inside)
            nl += cnl
            ln += cln
            if c.tail:
                n = len(c.tail)
                # tails belong to the PARENT's context, not the child's
                ln, nl = (ln + n, nl) if inside else (ln, nl + n)
        return nl, ln

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, texts, scores = [], [], []
        for d, html in zip(batch["doc_id"].to_pylist(),
                           batch["html"].to_pylist()):
            root = self._parse(html or "<html></html>")
            body = next((e for e in root.iter("body")), root)
            best_el, best_score = None, None
            for cand in body:
                nl, ln = self._lens(cand, False)
                score = nl - ln
                if best_score is None or score > best_score:
                    best_el, best_score = cand, score
            if best_el is None:
                ids.append(d)
                texts.append("")
                scores.append(0)
                continue
            pieces = [s for s in (p.strip() for p in best_el.itertext())
                      if s]
            ids.append(d)
            texts.append(" ".join(pieces))
            scores.append(int(best_score))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "main_text": pa.array(texts, type=pa.string()),
            "score": pa.array(scores, type=pa.int64()),
        })


def extract_main_content(html_ds, batch_size: int = 64):
    """Distributed main-content extraction over an (doc_id, html)
    Dataset — the boilerplate-removal step between fetch and text
    curation in a crawl pipeline."""
    return html_ds.map_batches(per_task(MainContentExtract),
                               batch_format="pyarrow", batch_size=batch_size)


class SpanLangId(LangId):
    """Per-SPAN language ID over interleaved span tables
    ``(doc_id, seq, text)`` — same marker-word kernel as :class:`LangId`
    (state compiled once per task), emitting one prediction per span."""

    def __call__(self, batch: pa.Table) -> pa.Table:  # noqa: D102
        preds = [self.predict(t or "")[0]
                 for t in batch["text"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"],
            "seq": batch["seq"],
            "lang_pred": pa.array(preds, type=pa.string()),
        })


def span_langid_majority(span_ds):
    """Document-level language from per-span votes: classify every text
    span independently (:class:`SpanLangId` task stage), then elect the
    majority language per document — highest span count, ties broken by
    lexicographically smallest language (the deterministic convention a
    SQL mirror can reproduce). The per-span pass is what a mixed-language
    interleaved corpus needs: a doc-level classifier averages away
    embedded foreign passages; the vote preserves them as a minority
    signal (``n_major < n_spans``).

    Emits ``(doc_id, lang_major, n_spans, n_major)``. One doc_id-keyed
    bucket exchange of (doc_id, seq, lang) rows; the vote kernel is
    pandas groupby C paths."""
    import pandas as pd

    preds = span_ds.map_batches(per_task(SpanLangId), batch_format="pyarrow")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (g.groupby(["doc_id", "lang_pred"], sort=False).size()
               .reset_index(name="c")
               .sort_values(["doc_id", "c", "lang_pred"],
                            ascending=[True, False, True],
                            kind="mergesort"))
        top = cnt.groupby("doc_id", sort=False).head(1)
        tot = g.groupby("doc_id", sort=False).size().reset_index(name="n")
        out = top.merge(tot, on="doc_id")
        return pd.DataFrame({
            "doc_id": out["doc_id"].to_numpy(dtype=np.int64),
            "lang_major": out["lang_pred"].astype("string"),
            "n_spans": out["n"].to_numpy(dtype=np.int64),
            "n_major": out["c"].to_numpy(dtype=np.int64)})

    return bucket_exchange(preds, ["doc_id"], fold)


# -- C4-style line filters (Raffel et al. 2020, §2.2) ---------------------------

def c4_line_filters(docs, min_line_words: int = 5, min_kept_lines: int = 3):
    """C4's classic line-level web-corpus cleanup, one row per document.

    Line rules (a line survives when ALL hold):
      * ends in a terminal punctuation mark (``. ! ? "``),
      * has at least ``min_line_words`` nonempty space-split words,
      * does not contain ``javascript`` (case-insensitive).
    Document rules (a doc is kept when ALL hold):
      * at least ``min_kept_lines`` surviving lines,
      * lowercase text does not contain ``lorem ipsum``,
      * text does not contain ``{``.

    Emits ``(doc_id, n_lines, kept_lines, n_words_kept, has_lorem,
    has_brace, keep, clean_text)`` where ``clean_text`` is the surviving
    lines re-joined with newlines in original order ('' when none
    survive). Every predicate is exact string/int logic, so the DuckDB
    oracle mirrors it bit-for-bit (``string_split(text, chr(10))`` +
    the same regex / list_filter word count).

    Pure streaming ``map_batches`` over a narrow (doc_id, text)
    projection: lines are flattened once into a single Arrow array, all
    three line predicates run as vectorized pyarrow RE2 / substring
    kernels over that flat array, per-doc reductions are numpy
    ``bincount`` segment sums, and the kept-line re-join is a single
    ``pc.binary_join`` over a rebuilt ListArray — no per-row Python in
    the predicate path, no shuffle; embarrassingly parallel at 100 TB.

    C4's remaining corpus-level step (three-sentence-span dedup) is the
    separate ``exact_substr_coverage`` / ``dedup_paragraphs`` operators.
    """

    def filt(t: pa.Table) -> pa.Table:
        texts = [s if s is not None else "" for s in t["text"].to_pylist()]
        n_docs = len(texts)
        per_doc = [s.split("\n") for s in texts]
        counts = np.fromiter((len(ls) for ls in per_doc), dtype=np.int64,
                             count=n_docs)
        idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        flat = pa.array([l for ls in per_doc for l in ls],
                        type=pa.string())

        ends_ok = pc.match_substring_regex(flat, '[.!?"]$') \
            .to_numpy(zero_copy_only=False)
        n_words = pc.count_substring_regex(flat, "[^ ]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        has_js = pc.match_substring(pc.utf8_lower(flat), "javascript") \
            .to_numpy(zero_copy_only=False)
        kept = ends_ok & (n_words >= min_line_words) & ~has_js

        n_lines = counts
        kept_lines = np.bincount(idx[kept], minlength=n_docs)
        n_words_kept = np.bincount(idx[kept], weights=n_words[kept],
                                   minlength=n_docs).astype(np.int64)

        txt = t["text"].combine_chunks()
        low = pc.utf8_lower(txt)
        has_lorem = pc.match_substring(low, "lorem ipsum") \
            .to_numpy(zero_copy_only=False)
        has_brace = pc.match_substring(txt, "{") \
            .to_numpy(zero_copy_only=False)
        keep = (kept_lines >= min_kept_lines) & ~has_lorem & ~has_brace

        # kept lines per doc as a ListArray -> one vectorized join
        offsets = np.zeros(n_docs + 1, dtype=np.int32)
        np.cumsum(kept_lines, out=offsets[1:])
        kept_list = pa.ListArray.from_arrays(
            pa.array(offsets), flat.filter(pa.array(kept)))
        clean = pc.binary_join(kept_list, "\n")

        return pa.table({
            "doc_id": t["doc_id"],
            "n_lines": pa.array(n_lines),
            "kept_lines": pa.array(kept_lines.astype(np.int64)),
            "n_words_kept": pa.array(n_words_kept),
            "has_lorem": pa.array(has_lorem),
            "has_brace": pa.array(has_brace),
            "keep": pa.array(keep),
            "clean_text": clean,
        })

    return docs.map_batches(filt, batch_format="pyarrow")


def dedup_within_doc(docs):
    """Intra-document line dedup: drop repeated lines WITHIN each doc,
    keeping the first occurrence, preserving original order — the
    within-page counterpart of the corpus-level ``dedup_paragraphs``
    (repeated nav/footer fragments, templated list rows). Emits
    ``(doc_id, n_lines, n_unique, clean_text)``.

    Runs entirely inside one ``map_batches`` — each doc's dedup needs
    only its own lines, so unlike corpus-level dedup there is NO shuffle
    at all. First-occurrence selection is vectorized: lines are
    flattened once, ``(doc_idx, line)`` first-seen is computed with
    ``np.unique`` over a composite sort, and the survivor re-join is a
    single ``pc.binary_join`` over a rebuilt ListArray. DuckDB mirror:
    ``string_split`` + ``generate_series`` + ``MIN(i) GROUP BY doc, line``
    + ``string_agg(... ORDER BY i)``."""

    def dedup(t: pa.Table) -> pa.Table:
        texts = [s if s is not None else "" for s in t["text"].to_pylist()]
        n_docs = len(texts)
        per_doc = [s.split("\n") for s in texts]
        counts = np.fromiter((len(ls) for ls in per_doc), dtype=np.int64,
                             count=n_docs)
        idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        flat_py = [l for ls in per_doc for l in ls]
        flat = pa.array(flat_py, type=pa.string())

        # first-seen mask per (doc, line): stable argsort on a composite
        # key, first row of each run survives
        import pandas as pd
        codes, _ = pd.factorize(np.asarray(flat_py, dtype=object),
                                sort=False)
        comp = idx * (codes.max() + 1 if len(codes) else 1) + codes
        order = np.argsort(comp, kind="stable")
        sorted_comp = comp[order]
        first_of_run = np.ones(len(order), dtype=bool)
        first_of_run[1:] = sorted_comp[1:] != sorted_comp[:-1]
        kept = np.zeros(len(order), dtype=bool)
        kept[order] = first_of_run

        n_unique = np.bincount(idx[kept], minlength=n_docs)
        offsets = np.zeros(n_docs + 1, dtype=np.int32)
        np.cumsum(n_unique, out=offsets[1:])
        kept_list = pa.ListArray.from_arrays(
            pa.array(offsets), flat.filter(pa.array(kept)))
        clean = pc.binary_join(kept_list, "\n")

        return pa.table({
            "doc_id": t["doc_id"],
            "n_lines": pa.array(counts),
            "n_unique": pa.array(n_unique.astype(np.int64)),
            "clean_text": clean,
        })

    return docs.map_batches(dedup, batch_format="pyarrow")


def normalize_text(docs):
    """Unicode + whitespace normalization — the canonical first stage of
    a web-text curation pipeline (the reference normalizes nothing; this
    is a training-data extension like ``c4_line_filters``). Per document:

      1. NFC-normalize (combining sequences compose: ``e`` + U+0301 ->
         ``é``) — byte-identical text for visually identical strings is
         what makes downstream exact dedup meaningful,
      2. strip control characters (C0 minus whitespace, plus DEL),
      3. collapse whitespace runs (space, TAB, LF, CR, VT, FF, NBSP)
         to a single space,
      4. trim leading/trailing spaces.

    Emits ``(doc_id, norm_text, n_chars_raw, n_chars_norm, changed)``
    with codepoint lengths. The NFC step runs through CPython's
    C-implemented ``unicodedata`` with an ``is_normalized`` fast path
    (web text is overwhelmingly already-NFC, so the common case is one
    cheap C scan per string) — NOT ``pc.utf8_normalize``, which in this
    Arrow build (16.1.0) decomposes without recomposing under every
    form (observed: NFC('caf' + chr(0xE9)) -> 'cafe' + chr(0x301), i.e.
    NFD behavior), diverging from DuckDB's ``nfc_normalize``. The two
    cleanup passes are vectorized RE2 ``replace_substring_regex`` whose
    pattern strings the DuckDB oracle reuses verbatim, so the SQL
    mirror is bit-exact. No shuffle; embarrassingly parallel at 100 TB.
    """
    import unicodedata

    ctrl = r"[\x00-\x08\x0e-\x1f\x7f]"
    ws = r"[\t\n\r\x0b\x0c\x{00A0} ]+"

    def norm(t: pa.Table) -> pa.Table:
        txt = t["text"].combine_chunks()
        raw_len = pc.utf8_length(txt)
        x = pa.array(
            [s if s is None or unicodedata.is_normalized("NFC", s)
             else unicodedata.normalize("NFC", s)
             for s in txt.to_pylist()], type=pa.string())
        x = pc.replace_substring_regex(x, pattern=ctrl, replacement="")
        x = pc.replace_substring_regex(x, pattern=ws, replacement=" ")
        x = pc.utf8_trim(x, characters=" ")
        return pa.table({
            "doc_id": t["doc_id"],
            "norm_text": x,
            "n_chars_raw": pc.cast(raw_len, pa.int64()),
            "n_chars_norm": pc.cast(pc.utf8_length(x), pa.int64()),
            "changed": pc.invert(pc.equal(x, txt)),
        })

    return docs.map_batches(norm, batch_format="pyarrow")


class HashedLinearScore:
    """Hashed bag-of-words linear classifier inference — the
    fastText-style quality filter every production web corpus runs
    (CCNet's wiki-reference classifier, LLaMA's quality model): token ->
    hash bin, fixed per-bin weight, document score = sum of weights over
    token OCCURRENCES (bag semantics), keep = score > 0.

    This stage is the INFERENCE shape, the part that must scale: the
    weight table is built once per task in ``__init__`` (at real scale
    it would load a trained model; here the table is the deterministic
    ``weight(b) = (b * 2654435761) % 1001 - 500`` in integer micro-units
    so the DuckDB oracle reproduces scores exactly), scoring is one
    vectorized pass per batch — flatten all docs' tokens into one array,
    hash, gather weights, ``bincount`` segment-sum back per doc. Exact
    int64 arithmetic end-to-end, no shuffle.

    Token hash: :func:`sketch.md5_number_lower`, so the gate query is
    bit-reproducible in SQL.

    Emits ``(doc_id, n_tokens, score_micro, keep)``.
    """

    def __init__(self, n_bins: int = 256):
        self.n_bins = n_bins
        b = np.arange(n_bins, dtype=np.uint64)
        self.weights = ((b * np.uint64(2654435761)) % np.uint64(1001)) \
            .astype(np.int64) - 500

    def __call__(self, t: pa.Table) -> pa.Table:
        from .sketch import md5_number_lower

        texts = [s if s is not None else "" for s in t["text"].to_pylist()]
        n_docs = len(texts)
        per_doc = [[w for w in s.split(" ") if w] for s in texts]
        counts = np.fromiter((len(ws) for ws in per_doc), dtype=np.int64,
                             count=n_docs)
        idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        flat = [w for ws in per_doc for w in ws]

        if flat:
            bins = (md5_number_lower(flat)
                    % np.uint64(self.n_bins)).astype(np.int64)
            score = np.bincount(idx, weights=self.weights[bins],
                                minlength=n_docs).astype(np.int64)
        else:
            score = np.zeros(n_docs, dtype=np.int64)

        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(counts),
            "score_micro": pa.array(score),
            "keep": pa.array(score > 0),
        })


def hashed_linear_score(docs, n_bins: int = 256, batch_size: int = 256):
    """Task-stage wrapper for :class:`HashedLinearScore` (weights built
    once per task)."""
    return docs.map_batches(
        per_task(HashedLinearScore, n_bins=n_bins),
        batch_size=batch_size, batch_format="pyarrow")


def readability_stats(docs, text_col: str = "text"):
    """Flesch Reading Ease per document (Flesch '48 as used by the
    Kincaid et al. '75 readability line) — the classic
    document-difficulty feature for quality stratification, on an EXACT
    integer micro-grid so the score is reproducible cross-engine:

    * words = non-empty tokens of the repo's ``string_split(text, ' ')``
      convention;
    * syllables per word = number of ``[aeiouyAEIOUY]+`` runs, clamped
      to >= 1 (the standard consonant-only fallback);
    * sentences = ``max(1, number of [.!?]+ runs)``;
    * ``fre_micro = 206_835_000 - (1_015_000 * W) // S -
      (84_600_000 * Y) // W`` — two integer floor divisions, no floats;
      W == 0 emits the documented sentinel ``-10**9``.

    Output ``(doc_id, n_words, n_sents, n_syllables, fre_micro)``. Pure
    streaming map, no shuffle: one batch-wide ``split_pattern`` flatten,
    one vectorized RE2 ``count_substring_regex`` over the flat word
    array and one over the raw texts — no per-word Python."""

    def fn(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        texts = pc.cast(t[text_col], pa.string())
        texts = pc.fill_null(texts, "")
        n = len(texts)
        toks = pc.split_pattern(texts, pattern=" ")
        flat = pc.list_flatten(toks)
        parent = np.repeat(np.arange(n, dtype=np.int64),
                           pc.list_value_length(toks).to_numpy(
                               zero_copy_only=False))
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        parent = parent[nonempty]
        words = flat.filter(pa.array(nonempty))
        n_words = np.bincount(parent, minlength=n).astype(np.int64)
        syl = pc.count_substring_regex(
            words, "[aeiouyAEIOUY]+").to_numpy(zero_copy_only=False)
        syl = np.maximum(syl.astype(np.int64), 1)
        n_syll = np.zeros(n, dtype=np.int64)
        np.add.at(n_syll, parent, syl)
        sents = pc.count_substring_regex(
            texts, "[.!?]+").to_numpy(zero_copy_only=False).astype(
                np.int64)
        n_sents = np.maximum(sents, 1)
        w = n_words
        fre = np.full(n, -10**9, dtype=np.int64)
        ok = w > 0
        fre[ok] = (206_835_000
                   - (1_015_000 * w[ok]) // n_sents[ok]
                   - (84_600_000 * n_syll[ok]) // w[ok])
        return pa.table({
            "doc_id": t["doc_id"],
            "n_words": pa.array(n_words),
            "n_sents": pa.array(n_sents),
            "n_syllables": pa.array(n_syll),
            "fre_micro": pa.array(fre),
        })

    return docs.map_batches(fn, batch_format="pyarrow")


def host_boilerplate_lines(docs, min_df: int = 3,
                           host_col: str = "host",
                           text_col: str = "text"):
    """Per-host template-line detection — the site-scoped counterpart of
    the global df boilerplate scrub (`curate.strip_boilerplate`): lines
    repeated across >= ``min_df`` documents OF THE SAME HOST are that
    site's nav/footer chrome (a host's template is invisible to a global
    df threshold when the host is small, and a global scrub can't tell
    "common on this site" from "common everywhere"). Output one row per
    detected template line: ``(host, line, df)``.

    Per-doc line distinctness is local (a document is one row), so the
    explode pre-reduces to block-distinct ``(host, line, c)`` partials
    via Arrow group_by before the ONE (host, line)-bucket exchange;
    detected template lines are short strings and the output is bounded
    by true templating. Document bodies never shuffle."""
    import pandas as pd

    def explode(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        texts = pc.fill_null(pc.cast(t[text_col], pa.string()), "")
        lines = pc.split_pattern(texts, pattern="\n")
        n = len(texts)
        parent = np.repeat(np.arange(n, dtype=np.int64),
                           pc.list_value_length(lines).to_numpy(
                               zero_copy_only=False))
        flat = pc.list_flatten(lines)
        hosts = t[host_col].cast(pa.string()).to_numpy(
            zero_copy_only=False)[parent]
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        base = pa.table({
            "host": pa.array(hosts[keep]),
            "line": flat.filter(pa.array(keep)),
            "doc": pa.array(parent[keep]),
        })
        # distinct per doc, then count docs per (host, line) in-block
        g = (base.group_by(["host", "line", "doc"]).aggregate([])
             .group_by(["host", "line"]).aggregate([("line", "count")]))
        return pa.table({
            "host": g["host"], "line": g["line"],
            "c": pa.array(g["line_count"].to_numpy(
                zero_copy_only=False).astype(np.int64))})

    def fold(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame({
                "host": pd.Series(dtype="object"),
                "line": pd.Series(dtype="object"),
                "df": pd.Series(dtype="int64")})
        out = (df.groupby(["host", "line"], sort=False)["c"]
               .sum().reset_index(name="df"))
        out["df"] = out["df"].astype("int64")
        return out[out["df"] >= min_df].reset_index(drop=True)

    return bucket_exchange(docs.map_batches(explode, batch_format="pyarrow"),
                           ["host", "line"], fold)
