"""Driver contract for the graft builder (Ray Data target).

``entry()``   — flagship pipeline (doc-web crawl at sf0.001).
``queries()`` — one entry per implemented operator/pipeline (SURVEY.md §2 +
                the training-data extensions); each takes sf_dir.
``oracle_sql()`` — DuckDB-equivalent SQL for EVERY query (25/25):
                hash-derived parameters make the LSH/simhash/media paths
                SQL-reproducible, and ``ivf_ann_topk`` trains its k-means
                on an integer grid (exact sums < 2^53 + single-IEEE-op
                normalization chains) so even the iterative training is
                mirrored bit-for-bit by an unrolled CTE chain.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().

Float policy: every float the engine emits in a compared column is rounded
(and the SQL rounds identically), so partial-aggregation order cannot flip
the value hash.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

from spatula_ray.stages.curate import _CDC_POW  # noqa: E402 (oracle mirror)

# constructed-duplicate offsets used by the dedup queries (mirrored in SQL)
_DUP_OFFSET = 100_000
_EMB_COPY_N = 50
_EMB_OFFSET = 10_000
_N_QUERIES = 5
_TOPK = 10


def _docs(sf_dir: str, columns=None):
    from spatula_ray.ioutil import read_parquet_clean

    return read_parquet_clean(os.path.join(sf_dir, "documents.parquet"),
                              columns=columns)


def _docs_with_copies(sf_dir: str):
    """documents UNION ALL exact copies with doc_id+_DUP_OFFSET."""
    import pyarrow as pa
    import pyarrow.compute as pc

    base = _docs(sf_dir, ["doc_id", "text"])

    def shift(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.add(t["doc_id"], _DUP_OFFSET),
                         "text": t["text"]})

    return base.union(base.map_batches(shift, batch_format="pyarrow"))


def _perturbed_docs(sf_dir: str):
    """The perturbed copies alone: every 10th token (1-based) replaced
    by 'xq7', doc_id+_DUP_OFFSET. SQL mirror uses list_transform with a
    1-based index lambda."""
    import pyarrow as pa

    def perturb(t: pa.Table) -> pa.Table:
        ids, texts = [], []
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = (txt or "").split(" ")
            toks = ["xq7" if (i + 1) % 10 == 0 else w
                    for i, w in enumerate(toks)]
            ids.append(d + _DUP_OFFSET)
            texts.append(" ".join(toks))
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "text": pa.array(texts, type=pa.string())})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        perturb, batch_format="pyarrow")


def _docs_with_neardups(sf_dir: str):
    """documents UNION ALL the perturbed copies (:func:`_perturbed_docs`)."""
    return _docs(sf_dir, ["doc_id", "text"]).union(_perturbed_docs(sf_dir))


def _docs_with_supersets(sf_dir: str):
    """documents UNION ALL superset copies: each copy appends four
    doc_id-salted tail tokens, so the original's entire shingle set
    survives in the copy (containment orig->copy = 1.0) while the copy
    gains exactly four new tail shingles the original lacks — the
    asymmetric case Jaccard dilutes. SQL mirror: `` || ' qq' || doc_id
    ...`` string concat."""
    import pyarrow as pa
    import pyarrow.compute as pc

    base = _docs(sf_dir, ["doc_id", "text"])

    def extend(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        txt = ["%s qq%d ww%d ee%d rr%d" % ((s or ""), d, d, d, d)
               for d, s in zip(ids, t["text"].to_pylist())]
        return pa.table({"doc_id": pc.add(t["doc_id"], _DUP_OFFSET),
                         "text": pa.array(txt, type=pa.string())})

    return base.union(base.map_batches(extend, batch_format="pyarrow"))


def _docs_with_paragraphs(sf_dir: str):
    """Re-chunk each doc into 8-word newline-joined paragraphs and inject
    shared boilerplate — a header paragraph on every doc and a footer on
    doc_id % 3 == 0 — so corpus-level paragraph dedup has real work to
    do. SQL mirror: generate_series chunking in oracle_sql."""
    import pyarrow as pa

    base = _docs(sf_dir, ["doc_id", "text"])

    def chunk(t: pa.Table) -> pa.Table:
        ids, outs = [], []
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ws = (txt or "").split(" ")
            paras = [" ".join(ws[i:i + 8]) for i in range(0, len(ws), 8)]
            s = "copyright footer example org\n" + "\n".join(paras)
            if d % 3 == 0:
                s += "\nsubscribe to our newsletter today"
            ids.append(d)
            outs.append(s)
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "text": pa.array(outs, type=pa.string())})

    return base.map_batches(chunk, batch_format="pyarrow")


def _docs_with_c4_lines(sf_dir: str):
    """Re-chunk each doc into 6-word lines with doc_id+lineno-keyed
    terminal punctuation (., !, ?, none) plus targeted pollution lines —
    a javascript notice on doc_id % 5, 'lorem ipsum' on % 11, a brace
    line on % 13 — so every C4 line and doc rule fires both ways.
    SQL mirror: generate_series chunking + the same CASE suffixes."""
    import pyarrow as pa

    base = _docs(sf_dir, ["doc_id", "text"])
    punct = {0: ".", 1: "!", 2: "?", 3: ""}

    def chunk(t: pa.Table) -> pa.Table:
        ids, outs = [], []
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ws = (txt or "").split(" ")
            lines = []
            for i in range(0, len(ws), 6):
                lineno = i // 6 + 1
                lines.append(" ".join(ws[i:i + 6])
                             + punct[(d + lineno) % 4])
            if d % 5 == 0:
                lines.append("please enable javascript to view this page.")
            if d % 11 == 0:
                lines.append("lorem ipsum dolor sit amet consectetur.")
            if d % 13 == 0:
                lines.append("function() { return 0; }")
            ids.append(d)
            outs.append("\n".join(lines))
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "text": pa.array(outs, type=pa.string())})

    return base.map_batches(chunk, batch_format="pyarrow")


def _docs_with_line_repeats(sf_dir: str):
    """Re-chunk each doc into 7-word lines, then re-append line 1 at the
    end (and line 2 on even doc_ids when it exists) so intra-document
    line dedup has guaranteed work. SQL mirror: generate_series chunking
    + a self-join on i=1 / i=2."""
    import pyarrow as pa

    base = _docs(sf_dir, ["doc_id", "text"])

    def chunk(t: pa.Table) -> pa.Table:
        ids, outs = [], []
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ws = (txt or "").split(" ")
            lines = [" ".join(ws[i:i + 7]) for i in range(0, len(ws), 7)]
            lines.append(lines[0])
            if d % 2 == 0 and len(lines) >= 3:
                lines.append(lines[1])
            ids.append(d)
            outs.append("\n".join(lines))
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "text": pa.array(outs, type=pa.string())})

    return base.map_batches(chunk, batch_format="pyarrow")


def _pii_inject(base):
    """Append deterministic doc_id-derived PII (email / phone / IPv4) to a
    subset of docs so the scrub pass has real work; SQL mirror builds the
    identical strings with doc_id arithmetic + lpad."""
    import pyarrow as pa

    def inject(t: pa.Table) -> pa.Table:
        ids, outs = [], []
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            s = txt or ""
            if d % 4 == 0:
                s += f" contact user{d}@example.org now"
            if d % 5 == 0:
                s += f" call 555-{d % 10000:04d} now"
            if d % 7 == 0:
                s += f" from 10.0.{d % 256}.{d % 100} end"
            ids.append(d)
            outs.append(s)
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "text": pa.array(outs, type=pa.string())})

    return base.map_batches(inject, batch_format="pyarrow")


def _docs_with_pii(sf_dir: str):
    return _pii_inject(_docs(sf_dir, ["doc_id", "text"]))


_GOPHER_SUFFIX = {
    0: "\n- bullet item\nmore with that text...",
    1: " with that have",
    2: " ### ## #",
}


def _docs_with_structure(sf_dir: str):
    """documents with doc_id%4-keyed structural suffixes (bullet +
    ellipsis lines / extra stopwords / symbol runs) so every Gopher rule
    has both outcomes in the corpus. SQL mirror: CASE doc_id % 4."""
    import pyarrow as pa

    base = _docs(sf_dir, ["doc_id", "text"])

    def inject(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        txt = [s + _GOPHER_SUFFIX.get(d % 4, "")
               for d, s in zip(ids, t["text"].to_pylist())]
        return pa.table({"doc_id": t["doc_id"],
                         "text": pa.array(txt, type=pa.string())})

    return base.map_batches(inject, batch_format="pyarrow")


def _embeddings_with_copies(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from spatula_ray.ioutil import read_parquet_clean

    base = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                              columns=["vec_id", "embedding"])

    def shift(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["vec_id"], _EMB_COPY_N))
        return pa.table({"vec_id": pc.add(t["vec_id"], _EMB_OFFSET),
                         "embedding": t["embedding"]})

    return base.union(base.map_batches(shift, batch_format="pyarrow"))


def _query_vectors(sf_dir: str):
    import numpy as np
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    order = {v: i for i, v in enumerate(t["vec_id"].to_pylist())}
    rows = sorted(order)[:_N_QUERIES]
    embs = t["embedding"].to_pylist()
    return (np.asarray([embs[order[v]] for v in rows], dtype=np.float64), rows)


# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship: crawl the sf0.001 doc-web (frontier loop, cuckoo URL-seen,
    fused page-runner actors) and return the round-tripped records."""
    from spatula_ray.pipelines.docweb import docweb_records

    return docweb_records("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from spatula_ray.pipelines import docweb as dw
    from spatula_ray.pipelines import relational as rel
    from spatula_ray.stages import dedup as dd
    from spatula_ray.stages import per_task
    from spatula_ray.stages.joins import group_aggregate
    from spatula_ray.stages import similarity as sim
    from spatula_ray.stages import text as tx

    def text_stats(sf_dir):
        return _docs(sf_dir, ["doc_id", "text"]).map_batches(
            per_task(tx.TextStats), batch_format="pyarrow")

    def doc_quality(sf_dir):
        return _docs(sf_dir, ["doc_id", "text"]).map_batches(
            per_task(tx.QualityScore), batch_format="pyarrow")

    def docs_above_median_quality_q(sf_dir):
        import pyarrow.compute as pc

        from spatula_ray.stages.selection import exact_quantiles

        # adaptive corpus filter: exact distributed median of the (grid-
        # snapped) quality score as the keep threshold — no driver scan
        # of the scores, only the bisection counts (stages/selection.py)
        scored = _docs(sf_dir, ["doc_id", "text"]).map_batches(
            per_task(tx.QualityScore), batch_format="pyarrow").materialize()
        p50 = exact_quantiles(scored, "quality", [0.5],
                              gather_threshold=0)[0.5]
        return scored.map_batches(
            lambda t: t.filter(pc.greater(t["quality"], p50)),
            batch_format="pyarrow")

    def langid_pred(sf_dir):
        return _docs(sf_dir, ["doc_id", "text"]).map_batches(
            per_task(tx.LangId), batch_format="pyarrow")

    def winnow(sf_dir):
        import pyarrow as pa

        out = _docs(sf_dir, ["doc_id", "text"]).map_batches(
            per_task(tx.WinnowFingerprint), batch_format="pyarrow")

        def explode(t: pa.Table) -> pa.Table:
            # exploded (doc_id, chunk, h) rows — SQL-comparable shape.
            # Vectorized from the list column's offsets (round-3 verdict
            # fix #8): no per-row Python.
            import numpy as np

            lst = t["winnow_sig"].combine_chunks()
            offs = lst.offsets.to_numpy()
            lens = np.diff(offs)
            ids = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False), lens)
            chunk = (np.arange(int(offs[0]), int(offs[-1]), dtype=np.int64)
                     - np.repeat(offs[:-1], lens))
            return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                             "chunk": pa.array(chunk, type=pa.int64()),
                             "h": lst.flatten().cast(pa.int64())})

        return out.map_batches(explode, batch_format="pyarrow")

    def lang_counts(sf_dir):
        return group_aggregate(_docs(sf_dir, ["lang"]), "lang",
                               {"n_docs": (None, "count_all")})

    def exact_dedup_q(sf_dir):
        return dd.exact_dedup(_docs_with_copies(sf_dir))

    def ngram_jaccard(sf_dir):
        return dd.exact_jaccard_pairs(_docs_with_neardups(sf_dir),
                                      threshold=0.5, k_shingle=3)

    def minhash_pairs(sf_dir):
        return dd.minhash_dup_pairs(_docs_with_neardups(sf_dir),
                                    threshold=0.5)

    def simhash_pairs(sf_dir):
        return dd.simhash_dup_pairs(_docs_with_copies(sf_dir), max_hamming=3)

    def embedding_dups(sf_dir):
        return dd.embedding_dup_pairs(_embeddings_with_copies(sf_dir),
                                      threshold=0.999)

    def ann_topk(sf_dir):
        import pyarrow as pa

        from spatula_ray.ioutil import read_parquet_clean

        q, qids = _query_vectors(sf_dir)
        ds = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
        out = sim.topk_cosine(ds, q, k=_TOPK, self_ids=qids)

        def remap(t: pa.Table) -> pa.Table:
            # query_id is the query-array index; report the actual vec_id
            mapped = [qids[i] for i in t["query_id"].to_pylist()]
            return t.set_column(t.schema.get_field_index("query_id"),
                                "query_id", pa.array(mapped, type=pa.int64()))

        return out.map_batches(remap, batch_format="pyarrow")

    def lsh_topk(sf_dir):
        import pyarrow as pa

        from spatula_ray.ioutil import read_parquet_clean

        q, qids = _query_vectors(sf_dir)
        ds = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
        out = sim.lsh_ann_topk(ds, q, k=_TOPK)

        def remap(t: pa.Table) -> pa.Table:
            mapped = [qids[i] for i in t["query_id"].to_pylist()]
            return t.set_column(t.schema.get_field_index("query_id"),
                                "query_id", pa.array(mapped, type=pa.int64()))

        return out.map_batches(remap, batch_format="pyarrow")

    def ivf_topk(sf_dir):
        import pyarrow as pa

        from spatula_ray.ioutil import read_parquet_clean

        q, qids = _query_vectors(sf_dir)
        ds = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
        out = sim.ivf_ann_topk(ds, q, k=_TOPK)

        def remap(t: pa.Table) -> pa.Table:
            mapped = [qids[i] for i in t["query_id"].to_pylist()]
            return t.set_column(t.schema.get_field_index("query_id"),
                                "query_id", pa.array(mapped, type=pa.int64()))

        return out.map_batches(remap, batch_format="pyarrow")

    def pq_topk(sf_dir):
        import pyarrow as pa

        from spatula_ray.ioutil import read_parquet_clean

        q, qids = _query_vectors(sf_dir)
        ds = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
        out = sim.pq_ann_topk(ds, q, k=_TOPK, m=16, n_cells=16, iters=3)

        def remap(t: pa.Table) -> pa.Table:
            mapped = [qids[i] for i in t["query_id"].to_pylist()]
            return t.set_column(t.schema.get_field_index("query_id"),
                                "query_id", pa.array(mapped, type=pa.int64()))

        return out.map_batches(remap, batch_format="pyarrow")

    def ivfadc_topk(sf_dir):
        import pyarrow as pa

        from spatula_ray.ioutil import read_parquet_clean

        q, qids = _query_vectors(sf_dir)
        ds = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
        out = sim.ivfadc_ann_topk(ds, q, k=_TOPK)

        def remap(t: pa.Table) -> pa.Table:
            mapped = [qids[i] for i in t["query_id"].to_pylist()]
            return t.set_column(t.schema.get_field_index("query_id"),
                                "query_id", pa.array(mapped, type=pa.int64()))

        return out.map_batches(remap, batch_format="pyarrow")

    def jl_project_q(sf_dir):
        from spatula_ray.ioutil import read_parquet_clean

        ds = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
        return sim.jl_project(ds, out_dim=8)

    def repetition_stats(sf_dir):
        from spatula_ray.stages.curate import RepetitionStats

        return _docs(sf_dir, ["doc_id", "text"]).map_batches(
            per_task(RepetitionStats), batch_format="pyarrow")

    def hash_sample_q(sf_dir):
        from spatula_ray.stages.curate import hash_sample

        return hash_sample(_docs(sf_dir, ["doc_id", "lang"]),
                           rate_permille=100)

    def pack_sequences_q(sf_dir):
        from spatula_ray.stages.curate import pack_sequences

        return pack_sequences(_docs(sf_dir, ["doc_id", "text"]), budget=512)

    def dup_clusters(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.curate import connected_components

        # materialize the augmented docs ONCE: nodes and the minhash pair
        # chain are separate consumers, and two lazy lineages would run
        # the projection + perturbation twice
        aug = _docs_with_neardups(sf_dir).materialize()
        nodes = aug.map_batches(
            lambda t: pa.table({"node": t["doc_id"]}), batch_format="pyarrow")
        pairs = dd.minhash_dup_pairs(aug,
                                     threshold=0.5).select_columns(["a", "b"])
        return connected_components(nodes, pairs)

    def tfidf_top(sf_dir):
        import pyarrow.parquet as pq

        from spatula_ray.stages.curate import tfidf_top_terms

        n_docs = pq.read_metadata(
            os.path.join(sf_dir, "documents.parquet")).num_rows
        return tfidf_top_terms(_docs(sf_dir, ["doc_id", "text", "lang"]),
                               n_docs=n_docs, k=_TOPK)

    def new_docs(sf_dir):
        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.curate import (
            _SAMPLE_ADD,
            _SAMPLE_DOM,
            _SAMPLE_MOD,
            _SAMPLE_MULT,
        )
        from spatula_ray.stages.dedup import add_text_hash
        from spatula_ray.stages.joins import hash_bucket_anti_join

        # incremental ingest: snapshot = 300-permille hash sample standing
        # in for yesterday's corpus; new docs = the rest, anti-joined on
        # CONTENT hash (md5 of text) so re-crawled identical bodies drop
        # even under different ids
        def side(t: pa.Table, want_snap: bool) -> pa.Table:
            k = t["doc_id"].combine_chunks() \
                .to_numpy(zero_copy_only=False).astype(np.uint64)
            h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
                 + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
            is_snap = (h % np.uint64(1000)) < 300
            return t.filter(pa.array(is_snap if want_snap else ~is_snap))

        docs = add_text_hash(_docs(sf_dir, ["doc_id", "text"])).materialize()
        snap = docs.map_batches(lambda t: side(t, True),
                                batch_format="pyarrow") \
            .select_columns(["text_hash"])
        rest = docs.map_batches(lambda t: side(t, False),
                                batch_format="pyarrow") \
            .select_columns(["doc_id", "text_hash"])
        return hash_bucket_anti_join(rest, snap, on=["text_hash"])

    def decontaminate_q(sf_dir):
        import numpy as np
        import pyarrow as pa
        import ray

        from spatula_ray.stages.curate import (
            _SAMPLE_ADD,
            _SAMPLE_DOM,
            _SAMPLE_MOD,
            _SAMPLE_MULT,
            Decontaminate,
            eval_shingle_set,
        )

        # eval set = deterministic 100-permille hash sample of the corpus
        # (stands in for a benchmark suite); train side = the complement
        def side(t: pa.Table, want_eval: bool) -> pa.Table:
            k = t["doc_id"].combine_chunks() \
                .to_numpy(zero_copy_only=False).astype(np.uint64)
            h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
                 + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
            is_eval = (h % np.uint64(1000)) < 100
            return t.filter(pa.array(is_eval if want_eval else ~is_eval))

        docs = _docs(sf_dir, ["doc_id", "text"]).materialize()
        ev = eval_shingle_set(
            docs.map_batches(lambda t: side(t, True), batch_format="pyarrow"))
        train = docs.map_batches(lambda t: side(t, False),
                                 batch_format="pyarrow")
        return train.map_batches(
            per_task(Decontaminate, eval_shingles=ray.put(ev), threshold=0.5),
            batch_format="pyarrow")

    def bloom_decontaminate_q(sf_dir):
        import numpy as np
        import pyarrow as pa
        import ray

        from spatula_ray.stages.curate import (
            _SAMPLE_ADD,
            _SAMPLE_DOM,
            _SAMPLE_MOD,
            _SAMPLE_MULT,
            BloomDecontaminate,
            bloom_bits,
        )

        # same eval/train split as `decontaminate`, filtered through a
        # 2^18-bit / 3-hash Bloom filter instead of the exact set
        def side(t: pa.Table, want_eval: bool) -> pa.Table:
            k = t["doc_id"].combine_chunks() \
                .to_numpy(zero_copy_only=False).astype(np.uint64)
            h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
                 + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
            is_eval = (h % np.uint64(1000)) < 100
            return t.filter(pa.array(is_eval if want_eval else ~is_eval))

        docs = _docs(sf_dir, ["doc_id", "text"]).materialize()
        bits = bloom_bits(
            docs.map_batches(lambda t: side(t, True), batch_format="pyarrow"))
        train = docs.map_batches(lambda t: side(t, False),
                                 batch_format="pyarrow")
        return train.map_batches(
            per_task(BloomDecontaminate, bits=ray.put(bits)),
            batch_format="pyarrow")

    def heavy_hitters_q(sf_dir):
        from spatula_ray.stages.sketch import cms_heavy_hitters

        def tokens(t):
            # exactly string_split(text, ' '): empties included
            out = []
            for txt in t["text"].to_pylist():
                out.extend((txt or "").split(" "))
            return out

        return cms_heavy_hitters(_docs(sf_dir, ["text"]), tokens, k=50)

    def mix_head(sf_dir):
        from spatula_ray.stages.curate import weighted_mix_head

        return weighted_mix_head(
            _docs(sf_dir, ["doc_id", "source"]),
            weights={"src0": 3, "src1": 2, "src2": 2}, n=100)

    def cap_per_source(sf_dir):
        from spatula_ray.stages.curate import cap_per_key

        return cap_per_key(_docs(sf_dir, ["doc_id", "source"]),
                           key="source", n=10)

    def dedup_reps(sf_dir):
        import pyarrow as pa

        labels = dup_clusters(sf_dir)
        sizes = group_aggregate(labels, "cluster_id",
                                {"cluster_size": (None, "count_all")})
        # the cluster label IS the representative doc id (min reachable id,
        # self-labels included), so the kept-corpus manifest is one tiny
        # groupby over the label table — no join back to the docs needed
        return sizes.map_batches(
            lambda t: pa.table({"doc_id": t["cluster_id"],
                                "cluster_size": t["cluster_size"]}),
            batch_format="pyarrow")

    def strip_boilerplate_q(sf_dir):
        from spatula_ray.stages.curate import strip_frequent_units

        # same boilerplate-injected corpus as dedup_paragraphs: the
        # every-doc header (df = 1000 permille) is scrubbed, the
        # one-in-three footer (~334 permille) survives the 500 threshold
        return strip_frequent_units(
            _docs_with_paragraphs(sf_dir).materialize(),
            sep="\n", max_df_permille=500)

    def dedup_paragraphs_q(sf_dir):
        from spatula_ray.stages.curate import dedup_paragraphs

        # materialize the augmented docs once: the operator scans its
        # input twice (paragraph explode + doc metadata)
        return dedup_paragraphs(_docs_with_paragraphs(sf_dir).materialize())

    def pii_scrub_q(sf_dir):
        from spatula_ray.stages.text import pii_scrub

        return pii_scrub(_docs_with_pii(sf_dir))

    def curate_corpus_q(sf_dir):
        import pyarrow as pa
        import pyarrow.compute as pc

        from spatula_ray.stages.curate import dedup_paragraphs, pack_sequences
        from spatula_ray.stages.text import pii_scrub

        # end-to-end curation composition, all lazy/streaming between the
        # documented materialize points: paragraph-chunked docs + injected
        # PII -> sequential scrub -> corpus-level paragraph dedup -> keep
        # docs at least half-unique -> deterministic sequence packing
        aug = _pii_inject(_docs_with_paragraphs(sf_dir))
        scrubbed = pii_scrub(aug).map_batches(
            lambda t: pa.table({"doc_id": t["doc_id"],
                                "text": t["clean_text"]}),
            batch_format="pyarrow")
        # dedup_paragraphs scans its input twice -> materialize the scrub
        deduped = dedup_paragraphs(scrubbed.materialize())

        def keep_half_unique(t: pa.Table) -> pa.Table:
            t = t.combine_chunks()
            ok = pc.greater_equal(
                pc.multiply(t["n_kept"], pa.scalar(2, pa.int64())),
                t["n_paras"])
            k = t.filter(ok)
            return pa.table({"doc_id": k["doc_id"],
                             "text": k["clean_text"]})

        kept = deduped.map_batches(keep_half_unique, batch_format="pyarrow")
        return pack_sequences(kept, budget=512)

    def doc_pagerank_q(sf_dir):
        import numpy as np

        from spatula_ray.stages.graph import pagerank

        docs = _docs(sf_dir, ["doc_id"]).materialize()
        n = docs.count()

        def mk_edges(t):
            import pyarrow as pa

            d = t["doc_id"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            reps = 1 + (d % 3)
            # % n keeps src in the node id space — identity on the real
            # tables (contiguous ids), and keeps synthetic 10x-replica
            # fixtures (shifted ids) inside the graph
            src = np.repeat(d % n, reps)
            seg = np.concatenate(([0], np.cumsum(reps)[:-1]))
            j = (np.arange(int(reps.sum()), dtype=np.int64)
                 - np.repeat(seg, reps) + 1)
            dst = (src + j * j * 7919 + 13) % n
            return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

        edges = docs.map_batches(mk_edges, batch_format="pyarrow")
        return pagerank(edges, n, iters=5)

    def event_users_hll_q(sf_dir):
        from spatula_ray.stages.sketch import (column_str_extractor,
                                               hll_distinct_by)

        from spatula_ray.ioutil import read_parquet_clean

        ev = read_parquet_clean(os.path.join(sf_dir, "events.parquet"),
                                columns=["event_type", "user_id"])
        return hll_distinct_by(ev, "event_type",
                               column_str_extractor("user_id"))

    def quality_weighted_sample_q(sf_dir):
        import pyarrow.compute as pc

        from spatula_ray.stages.curate import weighted_hash_sample

        # weight = snapped quality score as a permille (quality is on
        # [0, ~1] after the 1e-6 grid; floor(q*1000) is integer-exact)
        scored = _docs(sf_dir, ["doc_id", "text"]).map_batches(
            per_task(tx.QualityScore), batch_format="pyarrow")

        def weigh(t):
            import pyarrow as pa

            w = pc.cast(pc.floor(pc.multiply(
                t["quality"], pa.scalar(1000.0))), pa.int64())
            return t.append_column("w_permille", w)

        return weighted_hash_sample(
            scored.map_batches(weigh, batch_format="pyarrow"),
            "w_permille").select_columns(
                ["doc_id", "quality", "w_permille", "sample_key"])

    def decontaminate_sharded_q(sf_dir):
        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.curate import (
            _SAMPLE_ADD,
            _SAMPLE_DOM,
            _SAMPLE_MOD,
            _SAMPLE_MULT,
            DecontaminateSharded,
            build_membership_shards,
        )

        def side(t: pa.Table, want_eval: bool) -> pa.Table:
            k = t["doc_id"].combine_chunks() \
                .to_numpy(zero_copy_only=False).astype(np.uint64)
            h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
                 + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
            is_eval = (h % np.uint64(1000)) < 100
            return t.filter(pa.array(is_eval if want_eval else ~is_eval))

        docs = _docs(sf_dir, ["doc_id", "text"]).materialize()
        shards = build_membership_shards(
            docs.map_batches(lambda t: side(t, True),
                             batch_format="pyarrow"), n_shards=4)
        train = docs.map_batches(lambda t: side(t, False),
                                 batch_format="pyarrow")
        # shard handles pass by value; the membership state lives in the
        # shard actors, the mapper is a plain task stage
        out = train.map_batches(
            per_task(DecontaminateSharded, shards=shards, threshold=0.5),
            batch_format="pyarrow").materialize()
        # callers own shard-actor lifetime (round-3 advisor fix):
        # materialize above fully consumes the shards, so kill them here
        # rather than leaking one zero-CPU set-holding actor per gate run
        from spatula_ray.stages.curate import release_membership_shards

        release_membership_shards(shards)
        return out

    def pack_interleaved_q(sf_dir):
        from spatula_ray.stages.curate import pack_interleaved

        return pack_interleaved(_docs(sf_dir, ["doc_id", "text"]),
                                budget=1024, media_token_cost=16)

    def distinct_shingles_hll_q(sf_dir):
        from spatula_ray.stages.sketch import hll_distinct, shingle_extractor

        return hll_distinct(_docs(sf_dir, ["text"]), shingle_extractor())

    def chunk_documents_q(sf_dir):
        from spatula_ray.stages.curate import chunk_documents

        return chunk_documents(_docs(sf_dir, ["doc_id", "text"]),
                               size=16, stride=12)

    def cdc_chunks_q(sf_dir):
        from spatula_ray.stages.curate import cdc_chunks

        return cdc_chunks(_docs(sf_dir, ["doc_id", "text"]))

    def cdc_dedup_stats_q(sf_dir):
        from spatula_ray.stages.curate import cdc_dedup_stats

        return cdc_dedup_stats(_docs_with_neardups(sf_dir))

    def cdc_delta_bytes_q(sf_dir):
        from spatula_ray.stages.curate import cdc_delta_bytes

        # corpus = documents, "newly ingested" = the perturbed copies —
        # the lightly-edited re-crawl whose unedited neighborhoods CDC
        # should recognize as already stored
        return cdc_delta_bytes(_docs(sf_dir, ["doc_id", "text"]),
                               _perturbed_docs(sf_dir))

    def vocab_coverage_q(sf_dir):
        from spatula_ray.stages.curate import vocab_coverage

        # scanned twice (vocab build + scoring) -> materialize the narrow
        # projection once
        return vocab_coverage(_docs(sf_dir, ["doc_id", "text"]).materialize(),
                              vocab_size=200)

    def quantize_embeddings_q(sf_dir):
        from spatula_ray.ioutil import read_parquet_clean
        from spatula_ray.stages.similarity import quantize_embeddings

        ds = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
        return quantize_embeddings(ds)

    def stratified_sample_q(sf_dir):
        from spatula_ray.stages.curate import stratified_sample

        return stratified_sample(_docs(sf_dir, ["doc_id", "lang"]),
                                 strata_col="lang",
                                 rates_permille={"en": 300, "de": 150,
                                                 "fr": 50},
                                 default_permille=25)

    def epoch_shuffle_q(sf_dir):
        from spatula_ray.stages.curate import epoch_shuffle

        return epoch_shuffle(_docs(sf_dir, ["doc_id"]), epoch=3, n_shards=8)

    def dedup_spans_q(sf_dir):
        from spatula_ray.stages.curate import dedup_spans

        # scanned three times (gram explode, token explode, doc metadata)
        return dedup_spans(_docs(sf_dir, ["doc_id", "text"]).materialize(),
                           L=5)

    def lm_nll_q(sf_dir):
        from spatula_ray.stages.curate import lm_nll

        # scanned twice (bigram training, scoring)
        return lm_nll(_docs(sf_dir, ["doc_id", "text"]).materialize(),
                      vocab_size=200, add_k=1)

    def filter_ensemble_q(sf_dir):
        import pyarrow.compute as pc

        from spatula_ray.stages.curate import lm_nll
        from spatula_ray.stages.joins import hash_bucket_join
        from spatula_ray.stages.selection import exact_quantiles

        # FineWeb-style quality stack: heuristic quality score + LM
        # fluency, each thresholded at an EXACT distributed quantile of
        # its own corpus distribution (no fixed magic numbers), then one
        # doc_id hash-bucket join carrying only (doc_id, score) pairs.
        # keep = quality above p25 AND nll at-or-below p75
        docs = _docs(sf_dir, ["doc_id", "text"]).materialize()
        scored = docs.map_batches(
            per_task(tx.QualityScore), batch_format="pyarrow").materialize()
        fluent = lm_nll(docs, vocab_size=200, add_k=1) \
            .select_columns(["doc_id", "nll"]).materialize()
        q25 = exact_quantiles(scored, "quality", [0.25],
                              gather_threshold=0)[0.25]
        n75 = exact_quantiles(fluent, "nll", [0.75],
                              gather_threshold=0)[0.75]
        joined = hash_bucket_join(scored, fluent, on=["doc_id"])

        def flag(t):
            keep = pc.and_(pc.greater(t["quality"], q25),
                           pc.less_equal(t["nll"], n75))
            return t.append_column("keep", keep)

        return joined.map_batches(flag, batch_format="pyarrow") \
            .sort("doc_id")

    def ccnet_buckets_q(sf_dir):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        from spatula_ray.stages.curate import lm_nll
        from spatula_ray.stages.joins import hash_bucket_join
        from spatula_ray.stages.selection import exact_quantiles

        # CCNet (Wenzek et al. 2020) §4.3: per LANGUAGE, split the
        # corpus into head/middle/tail by LM-perplexity terciles — the
        # defining curation step of the CommonCrawl->CCNet pipeline.
        # Thresholds are EXACT per-language quantile_disc values (the
        # filter_ensemble convention, one counts-only bisection per
        # language x quantile over the narrow materialized (doc, nll,
        # lang) table); the language domain is bounded by construction
        # (CCNet is per-language), so the loop is O(#langs), never a
        # corpus materialization. Final bucket assignment is one
        # streaming map with the tiny threshold dict broadcast.
        docs = _docs(sf_dir, ["doc_id", "lang", "text"]).materialize()
        fluent = lm_nll(docs, vocab_size=200, add_k=1) \
            .select_columns(["doc_id", "nll"]).materialize()
        joined = hash_bucket_join(
            fluent, docs.select_columns(["doc_id", "lang"]),
            on=["doc_id"]).materialize()
        langs = sorted(r["lang"] for r in group_aggregate(
            joined, "lang", {"n": (None, "count_all")}).take_all())
        thr = {}
        for lg in langs:
            def only(t: pa.Table, lg=lg) -> pa.Table:
                return t.filter(pc.equal(t["lang"], lg))

            sub = joined.map_batches(only, batch_format="pyarrow")
            qs = exact_quantiles(sub, "nll", [0.33, 0.66],
                                 gather_threshold=0)
            thr[lg] = (qs[0.33], qs[0.66])

        def bucket(t: pa.Table) -> pa.Table:
            nll = t["nll"].to_numpy(zero_copy_only=False)
            lang_np = np.asarray(t["lang"].to_pylist(), dtype=object)
            # NaN init: a lang missing from thr (threshold/bucket pass
            # drift, null lang) compares False on both <= tests and
            # lands deterministically in 'tail' instead of reading
            # uninitialized memory
            p33 = np.full(len(nll), np.nan)
            p66 = np.full(len(nll), np.nan)
            for lg, (a, b) in thr.items():
                m = lang_np == lg
                p33[m] = a
                p66[m] = b
            buck = np.where(nll <= p33, "head",
                            np.where(nll <= p66, "middle", "tail"))
            return pa.table({
                "doc_id": t["doc_id"], "lang": t["lang"],
                "nll": t["nll"],
                "bucket": pa.array(buck.astype("U"), type=pa.string())})

        return joined.map_batches(bucket, batch_format="pyarrow")

    def span_langid_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.text import span_langid_majority

        # fixture: the doc's 8-word paragraphs as text spans plus ONE
        # injected foreign passage keyed by doc_id % 3 — the mixed-
        # language interleaved doc the per-span vote exists for. SQL
        # mirror: the langid_pred oracle re-keyed over a spans CTE.
        foreign = {0: "der und ist nicht ein",
                   1: "el la de que y",
                   2: "le la les et une"}

        def spans(t: pa.Table) -> pa.Table:
            ids, seqs, texts = [], [], []
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                ws = (txt or "").split(" ")
                for i in range(0, len(ws), 8):
                    ids.append(d)
                    seqs.append(2 * (i // 8))
                    texts.append(" ".join(ws[i:i + 8]))
                ids.append(d)
                seqs.append(999999)
                texts.append(foreign[d % 3])
            return pa.table({
                "doc_id": pa.array(ids, type=pa.int64()),
                "seq": pa.array(seqs, type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
            })

        span_ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
            spans, batch_format="pyarrow")
        return span_langid_majority(span_ds)

    def source_overlap_q(sf_dir):
        return dd.source_overlap(_docs(sf_dir, ["source", "text"]))

    def main_content_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.text import extract_main_content

        # fixture: wrap each doc in a boilerplate page — link-only nav,
        # link-dense ad div, link-heavy footer, and an <article> with
        # the doc's text split across two <p> (plus an inline <a>ref</a>
        # on doc_id % 4 == 0, so link-aware scoring is exercised INSIDE
        # the winning block too). The extractor must pick <article> by
        # link density alone. SQL mirror reconstructs the winner.
        def pages(t: pa.Table) -> pa.Table:
            ids, htmls = [], []
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                ws = (txt or "").split(" ")
                h = (len(ws) + 1) // 2
                p1, p2 = " ".join(ws[:h]), " ".join(ws[h:])
                inline = '<a href="/x">ref</a>' if d % 4 == 0 else ""
                ids.append(d)
                htmls.append(
                    "<html><body>"
                    '<nav><a href="/a">home</a>'
                    '<a href="/b">about pages</a></nav>'
                    '<div><a href="/ad">advertisement banner</a>x</div>'
                    f"<article><p>{p1}</p><p>{p2}{inline}</p></article>"
                    '<footer>c<a href="/c">contact us</a></footer>'
                    "</body></html>")
            return pa.table({
                "doc_id": pa.array(ids, type=pa.int64()),
                "html": pa.array(htmls, type=pa.string()),
            })

        html_ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
            pages, batch_format="pyarrow")
        return extract_main_content(html_ds)

    def ann_recall_q(sf_dir):
        import pandas as pd

        # ANN quality audit: recall@k of each approximate index vs the
        # exact top-k. The joined tables are bounded by construction
        # (N_QUERIES x TOPK rows), so the driver-side merge is the
        # "small results" case, not a corpus materialization.
        ex = ann_topk(sf_dir).to_pandas()
        rows = []
        for method, fn in (("lsh", lsh_topk), ("ivf", ivf_topk),
                           ("pq", pq_topk), ("ivfadc", ivfadc_topk)):
            ap = fn(sf_dir).to_pandas()
            m = ex.merge(ap, on=["query_id", "vec_id"], how="left",
                         indicator=True)
            hits = (m.assign(hit=(m["_merge"] == "both").astype("int64"))
                    .groupby("query_id")["hit"].sum())
            rows += [(int(q), method, int(h) * 1_000_000 // _TOPK)
                     for q, h in hits.items()]
        return pd.DataFrame(rows, columns=["query_id", "method",
                                           "recall_micro"])

    def media_asset_dedup_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.multimodal import media_asset_dedup

        # fixture: each doc carries one image blob keyed by doc_id % 37
        # (assets genuinely repeat across docs) and a second span of the
        # SAME asset on doc_id % 5 == 0 (n_refs > n_docs). SQL mirror:
        # md5('asset-' || doc_id % 37).
        def spans(t: pa.Table) -> pa.Table:
            ids, seqs, kinds, texts, blobs = [], [], [], [], []
            for d in t["doc_id"].to_pylist():
                blob = ("asset-%d" % (d % 37)).encode()
                ids += [d, d]
                seqs += [0, 1]
                kinds += ["text", "image"]
                texts += ["t", None]
                blobs += [None, blob]
                if d % 5 == 0:
                    ids.append(d)
                    seqs.append(2)
                    kinds.append("image")
                    texts.append(None)
                    blobs.append(blob)
            return pa.table({
                "doc_id": pa.array(ids, type=pa.int64()),
                "seq": pa.array(seqs, type=pa.int64()),
                "kind": pa.array(kinds, type=pa.string()),
                "text": pa.array(texts, type=pa.string()),
                "media": pa.array(blobs, type=pa.binary()),
            })

        span_ds = _docs(sf_dir, ["doc_id"]).map_batches(
            spans, batch_format="pyarrow")
        return media_asset_dedup(span_ds)

    def doc_novelty_q(sf_dir):
        return dd.doc_novelty(_docs(sf_dir, ["doc_id", "text"]))

    def exact_substr_coverage_q(sf_dir):
        # near-dup fixture: the perturbed copy keeps runs of 9 original
        # tokens between 'xq7' substitutions, so 5-gram windows inside
        # those runs are corpus-duplicated while windows straddling a
        # substitution usually are not — a realistic partial-coverage
        # distribution for the positional ExactSubstr measure
        return dd.substring_dup_coverage(_docs_with_neardups(sf_dir),
                                         k=5)

    def exact_substr_cut_q(sf_dir):
        # same near-dup fixture as the coverage measure: the cut must
        # remove exactly the positions coverage counts
        return dd.exact_substr_cut(_docs_with_neardups(sf_dir), k=5)

    def minhash_calibration_q(sf_dir):
        return dd.minhash_calibration(_docs_with_neardups(sf_dir),
                                      threshold=0.2, n_perm=16)

    def token_budget_select_q(sf_dir):
        from spatula_ray.stages.curate import token_budget_select

        # scale-relative budget: a third of the corpus's tokens, exact
        # integer arithmetic mirrored by the oracle's window cumsum
        return token_budget_select(
            _docs(sf_dir, ["doc_id", "text"])).sort("doc_id")

    def c4_line_filters_q(sf_dir):
        from spatula_ray.stages.text import c4_line_filters

        return c4_line_filters(_docs_with_c4_lines(sf_dir)).sort("doc_id")

    def dedup_within_doc_q(sf_dir):
        from spatula_ray.stages.text import dedup_within_doc

        return dedup_within_doc(
            _docs_with_line_repeats(sf_dir)).sort("doc_id")

    def normalize_text_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.text import normalize_text

        # fixture: append a denormalized suffix keyed doc_id % 5 —
        # combining acute (NFC composes to 'é'), combining ring ('Å'),
        # tab + C0 control char, NBSP, and nothing (class 4 exercises
        # the unchanged/changed flag against the doc's own newlines).
        # The SQL mirror builds the identical suffix via chr().
        def mess(t: pa.Table) -> pa.Table:
            suf = ["", " café", " Å", "\tx\x01y ",
                   " no break"]
            ids = t["doc_id"].to_pylist()
            txt = [(s or "") + suf[(d % 5 + 1) % 5]
                   for d, s in zip(ids, t["text"].to_pylist())]
            return pa.table({
                "doc_id": t["doc_id"],
                "text": pa.array(txt, type=pa.string()),
            })

        return normalize_text(
            _docs(sf_dir, ["doc_id", "text"]).map_batches(
                mess, batch_format="pyarrow"))

    def hashed_linear_score_q(sf_dir):
        from spatula_ray.stages.text import hashed_linear_score

        return hashed_linear_score(_docs(sf_dir, ["doc_id", "text"]))

    def resolve_redirects_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.graph import resolve_redirects

        # fixture: per doc a redirect chain r/{d}/0 -> ... -> p/{d} of
        # length doc_id % 3 + 1; every 17th doc's last edge loops back
        # to r/{d}/0 instead (incl. the d=0 self-loop, L=1). One output
        # row per chain NODE (each is a source URL).
        def mkedges(t: pa.Table) -> pa.Table:
            srcs, dsts = [], []
            for d in t["doc_id"].to_pylist():
                l = d % 3 + 1
                cyc = (d % 17 == 0)
                for i in range(l):
                    srcs.append("r/%d/%d" % (d, i))
                    if i < l - 1:
                        dsts.append("r/%d/%d" % (d, i + 1))
                    elif cyc:
                        dsts.append("r/%d/0" % d)
                    else:
                        dsts.append("p/%d" % d)
            return pa.table({"src": pa.array(srcs, type=pa.string()),
                             "dst": pa.array(dsts, type=pa.string())})

        edges = _docs(sf_dir, ["doc_id"]).map_batches(
            mkedges, batch_format="pyarrow")
        return resolve_redirects(edges, hop_cap=8)

    def sitemap_seeds_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.ingest import parse_sitemaps

        # fixture: one <urlset> sitemap per host (doc_id % 20), entries
        # in doc_id order; every 13th doc's entry omits <lastmod> (the
        # operator emits '' for it). The XML is BUILT here and PARSED by
        # the engine's own stdlib DOM, so the query is a round-trip test
        # of the production parser; the oracle reconstructs the pre-XML
        # values directly.
        def key(t: pa.Table) -> pa.Table:
            return t.append_column(
                "hostk", pa.array(t["doc_id"].to_numpy() % 20))

        def build(g: pa.Table) -> pa.Table:
            ids = sorted(g["doc_id"].to_pylist())
            host = "h%02d.test" % (ids[0] % 20)
            parts = []
            for d in ids:
                mod = ("" if d % 13 == 0 else
                       "<lastmod>2026-01-%02d</lastmod>" % (d % 28 + 1))
                parts.append("<url><loc>https://%s/p/%d</loc>%s</url>"
                             % (host, d, mod))
            body = ('<?xml version="1.0"?><urlset>'
                    + "".join(parts) + "</urlset>")
            return pa.table({"host": pa.array([host], type=pa.string()),
                             "body": pa.array([body], type=pa.string())})

        sitemaps = (_docs(sf_dir, ["doc_id"])
                    .map_batches(key, batch_format="pyarrow")
                    .groupby("hostk")
                    .map_groups(build, batch_format="pyarrow"))
        return parse_sitemaps(sitemaps)

    def snapshot_diff_q(sf_dir):
        import hashlib as _hl

        import pyarrow as pa

        from spatula_ray.stages.ingest import snapshot_diff

        # fixture: old = every doc as (u/{id}, md5(text)); new drops
        # every 11th (removed), rewrites every 7th's text (changed),
        # and adds a fresh URL per 13th doc (added); the rest unchanged
        # (and filtered — the diff is churn-bounded).
        def snap(t: pa.Table, new: bool) -> pa.Table:
            urls, fps = [], []
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                txt = txt or ""
                if new and d % 11 == 0:
                    pass                       # removed from new
                else:
                    body = (txt + " upd") if (new and d % 7 == 0) else txt
                    urls.append("u/%d" % d)
                    fps.append(_hl.md5(body.encode()).hexdigest())
                if new and d % 13 == 0:
                    urls.append("u/%d" % (d + 10_000_000))
                    fps.append(_hl.md5(("new %d" % d).encode()).hexdigest())
            return pa.table({
                "url": pa.array(urls, type=pa.string()),
                "fingerprint": pa.array(fps, type=pa.string()),
            })

        docs = _docs(sf_dir, ["doc_id", "text"])
        old = docs.map_batches(lambda t: snap(t, False),
                               batch_format="pyarrow")
        new = docs.map_batches(lambda t: snap(t, True),
                               batch_format="pyarrow")
        return snapshot_diff(old, new)

    def length_batches_q(sf_dir):
        from spatula_ray.stages.curate import length_bucket_batches

        return length_bucket_batches(_docs(sf_dir, ["doc_id", "text"]))

    def recrawl_priority_q(sf_dir):
        import hashlib as _hl

        import pyarrow as pa

        from spatula_ray.stages.ingest import recrawl_priority

        # fixture: 4 uniform snapshots; doc d's content epoch at snapshot
        # s is s // (d%3+1), so d%3==0 changes EVERY interval (X==I ->
        # lam sentinel -1), d%3==1 every 2nd, d%3==2 once at s=3; every
        # 7th doc is UNOBSERVED at snapshot d%4 (a fetch miss — adjacency
        # re-pairs around the gap and n_obs drops to 3).
        def snap_rows(t: pa.Table) -> pa.Table:
            urls, sids, fps = [], [], []
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                txt = txt or ""
                p = d % 3 + 1
                for s in range(4):
                    if d % 7 == 0 and s == d % 4:
                        continue
                    urls.append("u/%d" % d)
                    sids.append(s)
                    fps.append(_hl.md5(
                        ("%s#%d" % (txt, s // p)).encode()).hexdigest())
            return pa.table({
                "url": pa.array(urls, type=pa.string()),
                "snap_id": pa.array(sids, type=pa.int64()),
                "fingerprint": pa.array(fps, type=pa.string()),
            })

        snaps = _docs(sf_dir, ["doc_id", "text"]).map_batches(
            snap_rows, batch_format="pyarrow")
        return recrawl_priority(snaps)

    def recrawl_budget_q(sf_dir):
        import pyarrow as pa
        import pyarrow.compute as pc

        from spatula_ray.stages.ingest import crawl_budget_allocation

        # composition: the recrawl_priority change-rate estimates become
        # the allocation weights for the next epoch's 10^6 fetch slots —
        # the Cho & Garcia-Molina freshness-budget policy. Sentinel map
        # (documented policy, mirrored in SQL): lam=-2 (never observed
        # twice) -> weight 1 (minimal probe); lam=-1 (changed EVERY
        # interval) -> 2,000,000 (a cap above any finite lam_micro,
        # whose max here is ln(3)*1e6); else lam_micro + 1 (>0).
        pri = recrawl_priority_q(sf_dir)

        def weigh(t: pa.Table) -> pa.Table:
            lam = t["lam_micro"]
            w = pc.if_else(pc.equal(lam, -2), pa.scalar(1, pa.int64()),
                           pc.if_else(pc.equal(lam, -1),
                                      pa.scalar(2_000_000, pa.int64()),
                                      pc.add(lam, 1)))
            return pa.table({"url": t["url"], "weight": w})

        # prefix_len=4: every fixture URL shares 'u/', so the default
        # 2-byte order-prefix would collapse to ONE bucket and serialize
        # the allocation (real URL keys share 'https://' the same way)
        per_url = pri.map_batches(weigh, batch_format="pyarrow")
        return crawl_budget_allocation(per_url, budget=1_000_000,
                                       host_col="url", prefix_len=4)

    def politeness_budget_q(sf_dir):
        import pyarrow as pa
        import pyarrow.compute as pc

        # the planning step after quota allocation: clamp each host's
        # allocated pages to what its crawl-delay actually permits in
        # the epoch (capacity = epoch_sec // delay; the parse_robots
        # crawl_delay rows reduce to this per-host delay table — the
        # fixture synthesizes the reduced table directly: every 5th
        # host index declares delay 1 + idx % 7 s, others unbounded).
        # The clip is REPORTED (granted/clipped), not silently
        # redistributed — redistribution is a policy loop the caller
        # owns; the exact-sum invariant lives in `allocated`.
        epoch_sec = 86400
        alloc = crawl_budget_q(sf_dir)

        def clamp(t: pa.Table) -> pa.Table:
            idx = pc.cast(pc.struct_field(pc.extract_regex(
                t["host"], r"^h(?P<i>\d+)\.test$"), "i"), pa.int64())
            # idx % 5 == 0 -> has a crawl-delay rule
            delayed = pc.equal(
                pc.subtract(idx, pc.multiply(
                    pc.divide(idx, pa.scalar(5, pa.int64())),
                    pa.scalar(5, pa.int64()))), pa.scalar(0, pa.int64()))
            delay = pc.add(pc.subtract(
                idx, pc.multiply(pc.divide(idx, pa.scalar(7, pa.int64())),
                                 pa.scalar(7, pa.int64()))),
                pa.scalar(1, pa.int64()))
            cap = pc.if_else(delayed,
                             pc.divide(pa.scalar(epoch_sec, pa.int64()),
                                       delay),
                             pa.scalar(-1, pa.int64()))
            allocated = pc.cast(t["budget"], pa.int64())
            granted = pc.if_else(pc.equal(cap, -1), allocated,
                                 pc.min_element_wise(allocated, cap))
            return pa.table({
                "host": t["host"], "weight": t["weight"],
                "allocated": allocated, "capacity": cap,
                "granted": granted,
                "clipped": pc.subtract(allocated, granted)})

        return alloc.map_batches(clamp, batch_format="pyarrow")

    def _link_rows(sf_dir):
        """Shared page-level link fixture for the link-graph queries:
        per document d (host ``h(d%10).test``, path ``/p/d``) three
        outbound links j=0..2 to target page ``t = (d*(7+2j)+j) % 997``
        on host ``h(t%10).test`` with anchor text ``a((d+3j)%9)`` — so
        hot targets, repeated (dst, anchor) pairs from distinct sources,
        and anchor-count ties all occur; the oracle reconstructs the
        same rows with unnest([0,1,2])."""
        import numpy as np
        import pyarrow as pa

        def mk(t: pa.Table) -> pa.Table:
            d = t["doc_id"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            srcs, dsts, anchors = [], [], []
            for j in range(3):
                tgt = (d * (7 + 2 * j) + j) % 997
                srcs.append(np.char.add(
                    np.char.add("https://h0", (d % 10).astype("U1")),
                    np.char.add(".test/p/", d.astype("U20"))))
                dsts.append(np.char.add(
                    np.char.add("https://h0", (tgt % 10).astype("U1")),
                    np.char.add(".test/p/", tgt.astype("U20"))))
                anchors.append(np.char.add("a", ((d + 3 * j) % 9)
                                           .astype("U1")))
            return pa.table({
                "src_url": pa.array(np.concatenate(srcs)),
                "dst_url": pa.array(np.concatenate(dsts)),
                "anchor": pa.array(np.concatenate(anchors)),
            })

        return _docs(sf_dir, ["doc_id"]).map_batches(
            mk, batch_format="pyarrow")

    def anchor_topk_q(sf_dir):
        from spatula_ray.stages.graph import anchor_topk

        return anchor_topk(_link_rows(sf_dir), k=3)

    def outlink_diversity_q(sf_dir):
        from spatula_ray.stages.graph import outlink_diversity

        return outlink_diversity(_link_rows(sf_dir))

    def crawl_budget_q(sf_dir):
        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.ingest import crawl_budget_allocation

        # fixture: 97 hosts, per-doc weight contribution doc_id%13+1
        # (so host weights differ and several quotas land on rounding
        # boundaries); budget 10^7 pages for the next epoch
        def mk(t: pa.Table) -> pa.Table:
            d = t["doc_id"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            host = np.char.add(
                np.char.add("h", np.char.zfill((d % 97).astype("U2"), 3)),
                ".test")
            return pa.table({
                "host": pa.array(host),
                "w": pa.array(d % 13 + 1)})

        per_host = group_aggregate(
            _docs(sf_dir, ["doc_id"]).map_batches(mk, batch_format="pyarrow"),
            "host", {"weight": ("w", "sum")})
        return crawl_budget_allocation(per_host, budget=10_000_000)

    def host_rank_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.graph import host_link_graph, pagerank

        # composition: page-level link fixture -> host graph -> integer
        # PageRank over host ids (the Common-Crawl host-rank job). Host
        # ids are the fixture's own digits (h0X.test -> X) so the
        # mapping is a pure projection on both engines; self-loop host
        # pairs are kept (a host linking itself is real signal here).
        edges = host_link_graph(_link_rows(sf_dir))

        def to_ids(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            src = pc.cast(pc.utf8_slice_codeunits(
                t["src_host"], 1, 3), pa.int64())
            dst = pc.cast(pc.utf8_slice_codeunits(
                t["dst_host"], 1, 3), pa.int64())
            return pa.table({"src": src, "dst": dst})

        ids = edges.map_batches(to_ids, batch_format="pyarrow")
        return pagerank(ids, num_nodes=10, iters=3).map_batches(
            lambda t: pa.table({"host_id": t["node"],
                                "rank": t["rank"]}),
            batch_format="pyarrow")

    def host_boilerplate_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.text import host_boilerplate_lines

        # fixture: host = h(doc_id%20); every doc carries its host's nav
        # line + a global footer + one unique content line; every 4th
        # doc adds a sparser per-host promo line (df ~ docs_per_host/4)
        def mk(t: pa.Table) -> pa.Table:
            hosts, texts = [], []
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                h = "h%02d.test" % (d % 20)
                lines = ["nav %s home about" % h,
                         "(c) example footer",
                         " ".join(((txt or "").split(" "))[:8])
                         + " #%d" % d]
                if d % 4 == 0:
                    lines.insert(1, "promo %s weekly deal" % h)
                hosts.append(h)
                texts.append("\n".join(lines))
            return pa.table({
                "host": pa.array(hosts, type=pa.string()),
                "text": pa.array(texts, type=pa.string())})

        docs = _docs(sf_dir, ["doc_id", "text"]).map_batches(
            mk, batch_format="pyarrow")
        return host_boilerplate_lines(docs, min_df=3)

    def quality_dup_calibration_q(sf_dir):
        import hashlib as _hl

        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.joins import (bucket_exchange,
                                              hash_bucket_join)
        from spatula_ray.stages.selection import exact_quantiles
        from spatula_ray.stages.text import hashed_linear_score

        # the FineWeb-style diagnostic "does the quality score predict
        # duplication": per score QUARTILE (exact distributed quantiles,
        # no magic thresholds), the exact-dup fraction in micro-units.
        # Fixture: every 3rd doc gains an exact copy, so quartiles see
        # different dup densities only if score correlates with content.
        def copies(t: pa.Table) -> pa.Table:
            ids, texts = [], []
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                if d % 3 == 0:
                    ids.append(d + _DUP_OFFSET)
                    texts.append(txt)
            return pa.table({
                "doc_id": pa.array(ids, type=pa.int64()),
                "text": pa.array(texts, type=pa.string())})

        base = _docs(sf_dir, ["doc_id", "text"])
        aug = base.union(base.map_batches(
            copies, batch_format="pyarrow")).materialize()

        scored = hashed_linear_score(aug) \
            .select_columns(["doc_id", "score_micro"]).materialize()
        qs = exact_quantiles(scored, "score_micro", [0.25, 0.5, 0.75],
                             gather_threshold=0)
        q1, q2, q3 = qs[0.25], qs[0.5], qs[0.75]

        def md5_rows(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            fps = [_hl.md5((x or "").encode()).hexdigest()
                   for x in t["text"].to_pylist()]
            return pa.table({
                "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
                "fp": pa.array(fps, type=pa.string())})

        def dup_flag(g):
            import pandas as pd

            if len(g) == 0:
                return pd.DataFrame({
                    "doc_id": pd.Series(dtype="int64"),
                    "is_dup": pd.Series(dtype="bool")})
            c = g.groupby("fp")["doc_id"].transform("size")
            return pd.DataFrame({
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
                "is_dup": (c >= 2).to_numpy()})

        dup = bucket_exchange(aug.map_batches(md5_rows,
                                              batch_format="pyarrow"),
                              ["fp"], dup_flag)
        joined = hash_bucket_join(scored, dup, on=["doc_id"])

        def bucketize(t: pa.Table) -> pa.Table:
            s = t["score_micro"].to_numpy(zero_copy_only=False)
            b = ((s > q1).astype(np.int64) + (s > q2) + (s > q3))
            return pa.table({
                "quartile": pa.array(b.astype(np.int64)),
                "dup": pa.array(t["is_dup"].to_numpy(
                    zero_copy_only=False).astype(np.int64)),
            })

        agg = group_aggregate(
            joined.map_batches(bucketize, batch_format="pyarrow"),
            "quartile", {"n_docs": (None, "count_all"),
                         "n_dup": ("dup", "sum")})

        def finish(t: pa.Table) -> pa.Table:
            n = t["n_docs"].to_numpy(zero_copy_only=False).astype(
                np.int64)
            d = t["n_dup"].to_numpy(zero_copy_only=False).astype(
                np.int64)
            return pa.table({
                "quartile": t["quartile"].cast(pa.int64()),
                "n_docs": pa.array(n), "n_dup": pa.array(d),
                "dup_micro": pa.array(d * 1_000_000 // np.maximum(n, 1)),
            })

        return agg.map_batches(finish, batch_format="pyarrow")

    def shard_manifest_q(sf_dir):
        import os
        import shutil

        from spatula_ray.stages.ingest import shard_manifest, write_sharded

        # true sink+source round trip: write the docs table Hive-
        # partitioned by doc_id % 8 under /tmp, read it back pruned,
        # and emit the per-shard resume manifest the oracle recomputes
        # from the source table — any row lost/duplicated/mis-routed by
        # the writer breaks the hash
        out = "/tmp/graft_shards_%s" % os.path.basename(
            sf_dir.rstrip("/"))
        shutil.rmtree(out, ignore_errors=True)
        write_sharded(_docs(sf_dir, ["doc_id", "text"]), out,
                      num_shards=8)
        return shard_manifest(out)

    def host_rank_weighted_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.graph import (host_link_graph,
                                              pagerank_weighted)

        # host_rank with the n_links edge weights kept: a host pair
        # carrying many page links pulls proportionally more rank
        edges = host_link_graph(_link_rows(sf_dir))

        def to_ids(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return pa.table({
                "src": pc.cast(pc.utf8_slice_codeunits(
                    t["src_host"], 1, 3), pa.int64()),
                "dst": pc.cast(pc.utf8_slice_codeunits(
                    t["dst_host"], 1, 3), pa.int64()),
                "w": t["n_links"]})

        ids = edges.map_batches(to_ids, batch_format="pyarrow")
        return pagerank_weighted(ids, num_nodes=10, iters=3).map_batches(
            lambda t: pa.table({"host_id": t["node"],
                                "rank": t["rank"]}),
            batch_format="pyarrow")

    def reciprocal_edges_q(sf_dir):
        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.graph import reciprocal_edges

        docs = _docs(sf_dir, ["doc_id"]).materialize()
        n = docs.count()

        # fixture: chain edge d->(d+1)%n for all, reverse edge added
        # when d%3==0 (reciprocal), extra d->(d+7)%n when d%2==0, a
        # PARALLEL duplicate of the chain edge when d%5==0 (must count
        # once), and a self-loop every 10th (excluded)
        def mk(t: pa.Table) -> pa.Table:
            d = t["doc_id"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64) % n
            srcs = [d, d[d % 3 == 0] * 0 + (d[d % 3 == 0] + 1) % n]
            dsts = [(d + 1) % n, d[d % 3 == 0]]
            srcs.append(d[d % 2 == 0])
            dsts.append((d[d % 2 == 0] + 7) % n)
            srcs.append(d[d % 5 == 0])
            dsts.append((d[d % 5 == 0] + 1) % n)
            srcs.append(d[d % 10 == 0])
            dsts.append(d[d % 10 == 0])
            return pa.table({
                "src": pa.array(np.concatenate(srcs)),
                "dst": pa.array(np.concatenate(dsts))})

        edges = docs.map_batches(mk, batch_format="pyarrow")
        return reciprocal_edges(edges)

    def degree_histogram_q(sf_dir):
        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.graph import degree_histogram

        docs = _docs(sf_dir, ["doc_id"]).materialize()
        n = docs.count()

        def mk_edges(t):
            d = t["doc_id"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            reps = 1 + (d % 3)
            src = np.repeat(d % n, reps)
            seg = np.concatenate(([0], np.cumsum(reps)[:-1]))
            j = (np.arange(int(reps.sum()), dtype=np.int64)
                 - np.repeat(seg, reps) + 1)
            dst = (src + j * j * 7919 + 13) % n
            return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

        return degree_histogram(docs.map_batches(
            mk_edges, batch_format="pyarrow"))

    def colink_similarity_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.graph import colink_similarity

        # the link fixture's (src page, dst host id) projection; hosts
        # linked from overlapping page sets (targets cycle mod 10 hosts)
        # produce a dense-but-bounded pair table
        def proj(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            dh = pc.cast(pc.utf8_slice_codeunits(
                pc.struct_field(pc.extract_regex(
                    t["dst_url"],
                    r"^[A-Za-z][A-Za-z0-9+.\-]*://(?P<h>[^/?#]+)"), "h"),
                1, 3), pa.int64())
            return pa.table({"src_url": t["src_url"], "dst_host": dh})

        links = _link_rows(sf_dir).map_batches(proj,
                                               batch_format="pyarrow")
        return colink_similarity(links, threshold=0.05)

    def sitemap_index_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.ingest import parse_sitemap_index

        # fixture: every 20th doc owns a host whose sitemapindex lists
        # 1 + d%4 child sitemaps; every 3rd child omits <lastmod>, one
        # entry per host omits <loc> entirely (must drop)
        def mk(t: pa.Table) -> pa.Table:
            hosts, bodies = [], []
            for d in t["doc_id"].to_pylist():
                if d % 20 != 0:
                    continue
                host = "h%d.test" % d
                parts = ["<?xml version=\"1.0\"?>", "<sitemapindex>"]
                for k in range(1 + d % 4):
                    parts.append("<sitemap>")
                    parts.append("<loc>https://%s/sitemap-%d.xml</loc>"
                                 % (host, k))
                    if k % 3 != 2:
                        parts.append("<lastmod>2026-08-%02d</lastmod>"
                                     % (10 + k % 3))
                    parts.append("</sitemap>")
                parts.append("<sitemap><lastmod>2026-01-01</lastmod>"
                             "</sitemap>")
                parts.append("</sitemapindex>")
                hosts.append(host)
                bodies.append("".join(parts))
            return pa.table({
                "host": pa.array(hosts, type=pa.string()),
                "body": pa.array(bodies, type=pa.string())})

        idx = _docs(sf_dir, ["doc_id"]).map_batches(
            mk, batch_format="pyarrow")
        return parse_sitemap_index(idx)

    def textrank_q(sf_dir):
        from spatula_ray.stages.curate import textrank_keywords

        return textrank_keywords(_docs(sf_dir, ["doc_id", "text"]),
                                 vocab_size=50, iters=3)

    def rendezvous_shards_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.ingest import rendezvous_shards

        def mk(t: pa.Table) -> pa.Table:
            urls = ["https://h%02d.test/p/%d" % (d % 10, d)
                    for d in t["doc_id"].to_pylist()]
            return pa.table({"url": pa.array(urls, type=pa.string())})

        urls = _docs(sf_dir, ["doc_id"]).map_batches(
            mk, batch_format="pyarrow")
        return rendezvous_shards(urls, n_old=8, n_new=9)

    def hyperball_q(sf_dir):
        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.graph import hyperball

        docs = _docs(sf_dir, ["doc_id"]).materialize()
        n = docs.count()

        def mk_edges(t):
            d = t["doc_id"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            reps = 1 + (d % 3)
            src = np.repeat(d % n, reps)
            seg = np.concatenate(([0], np.cumsum(reps)[:-1]))
            j = (np.arange(int(reps.sum()), dtype=np.int64)
                 - np.repeat(seg, reps) + 1)
            dst = (src + j * j * 7919 + 13) % n
            return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

        edges = docs.map_batches(mk_edges, batch_format="pyarrow")
        return hyperball(edges, n, iters=2, p=6)

    def trap_hosts_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.ingest import trap_host_stats

        # fixture: hosts h00/h01 emit repeat-segment trap URLs
        # (/cal/2020 x k, k = 2 + d%3 -> has_repeat when k>=3, deep when
        # 2k+1>=8), h02/h03 emit deep-but-distinct paths (depth 6+d%5),
        # everyone else /p/<d> (depth 2) — so both majority rules and
        # the repeat+deep overlap all occur.
        def mk(t: pa.Table) -> pa.Table:
            urls = []
            for d in t["doc_id"].to_pylist():
                m = d % 20
                base = "https://h%02d.test" % m
                if m < 2:
                    urls.append(base + "/cal/2020" * (2 + d % 3)
                                + "/p%d" % d)
                elif m < 4:
                    urls.append(base + "/" + "/".join(
                        "s%d" % i for i in range(6 + d % 5)))
                else:
                    urls.append(base + "/p/%d" % d)
            return pa.table({"url": pa.array(urls, type=pa.string())})

        urls = _docs(sf_dir, ["doc_id"]).map_batches(
            mk, batch_format="pyarrow")
        return trap_host_stats(urls)

    def robots_rules_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.ingest import parse_robots

        # fixture: every 10th doc owns host h<d>.test with a robots.txt
        # exercising comments, blank group breaks, case-insensitive
        # fields, stacked agents (every 20th doc), an unknown directive,
        # and a trailing global Sitemap line.
        def mk(t: pa.Table) -> pa.Table:
            hosts, bodies = [], []
            for d in t["doc_id"].to_pylist():
                if d % 10 != 0:
                    continue
                host = "h%d.test" % d
                parts = ["# robots for %s" % host,
                         "User-Agent: *",
                         "Disallow: /private   # keep out",
                         "Allow: /private/ok",
                         ""]
                if d % 20 == 0:
                    parts += ["User-agent: bot%d" % (d % 5),
                              "user-agent: spider%d" % (d % 3),
                              "Crawl-Delay: %d" % (1 + d % 7),
                              "Noindex: /ignored"]
                parts += ["Sitemap: https://%s/sitemap.xml" % host]
                hosts.append(host)
                bodies.append("\n".join(parts))
            return pa.table({
                "host": pa.array(hosts, type=pa.string()),
                "body": pa.array(bodies, type=pa.string()),
            })

        bodies = _docs(sf_dir, ["doc_id"]).map_batches(
            mk, batch_format="pyarrow")
        return parse_robots(bodies)

    def warc_records_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.ingest import parse_warc

        # fixture: one WARC file per doc — a warcinfo record, an HTTP
        # response wrapping the doc text, and (every 5th doc) an
        # empty-payload revisit record; real ISO 28500 byte layout, so
        # the record scanner itself is what the hash verifies.
        def mk(t: pa.Table) -> pa.Table:
            sids, blobs = [], []
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                txt = txt or ""
                url = "https://h%02d.test/p/%d" % (d % 10, d)
                body = txt.encode("utf-8")
                http = (b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: text/html; charset=utf-8\r\n"
                        + b"Content-Length: %d\r\n\r\n" % len(body)
                        + body)
                info = b"software: spatula-ray\r\n"

                def rec(rtype, uri, payload):
                    head = ("WARC/1.1\r\nWARC-Type: %s\r\n" % rtype)
                    if uri:
                        head += "WARC-Target-URI: %s\r\n" % uri
                    head += ("WARC-Date: 2026-08-19T00:00:00Z\r\n"
                             "Content-Length: %d\r\n\r\n" % len(payload))
                    return head.encode() + payload + b"\r\n\r\n"

                blob = rec("warcinfo", "", info) + rec("response", url,
                                                       http)
                if d % 5 == 0:
                    blob += rec("revisit", url + "?rev", b"")
                sids.append(d)
                blobs.append(blob)
            return pa.table({
                "shard_id": pa.array(sids, type=pa.int64()),
                "warc": pa.array(blobs, type=pa.binary()),
            })

        shards = _docs(sf_dir, ["doc_id", "text"]).map_batches(
            mk, batch_format="pyarrow")
        return parse_warc(shards)

    def readability_q(sf_dir):
        from spatula_ray.stages.text import readability_stats

        return readability_stats(_docs(sf_dir, ["doc_id", "text"]))

    def doc_hits_q(sf_dir):
        import numpy as np

        from spatula_ray.stages.graph import hits

        docs = _docs(sf_dir, ["doc_id"]).materialize()
        n = docs.count()

        def mk_edges(t):
            import pyarrow as pa

            d = t["doc_id"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            reps = 1 + (d % 3)
            src = np.repeat(d % n, reps)
            seg = np.concatenate(([0], np.cumsum(reps)[:-1]))
            j = (np.arange(int(reps.sum()), dtype=np.int64)
                 - np.repeat(seg, reps) + 1)
            dst = (src + j * j * 7919 + 13) % n
            return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

        edges = docs.map_batches(mk_edges, batch_format="pyarrow")
        return hits(edges, n, iters=2)

    def host_link_graph_q(sf_dir):
        from spatula_ray.stages.graph import host_link_graph

        return host_link_graph(_link_rows(sf_dir))

    def _dust_pages(sf_dir):
        import hashlib as _hl

        import pyarrow as pa

        # fixture: per doc a base URL on host doc_id%10 with params a,b;
        # every 2nd doc adds a ?sid= variant (ORDER-SCRAMBLED, same
        # content fingerprint — the DUST signal), every 9th a &ref=x
        # variant (same fp — a second, sparser irrelevant param), every
        # 4th a &v=1 variant whose CONTENT also changes (a relevant
        # param — must never become a rule).
        def mk(t: pa.Table) -> pa.Table:
            urls, fps = [], []
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                txt = txt or ""
                base = "https://h%02d.test/p/%d" % (d % 10, d)
                fp = _hl.md5(txt.encode()).hexdigest()
                urls.append("%s?a=%d&b=%d" % (base, d % 5, d % 3))
                fps.append(fp)
                if d % 2 == 0:
                    urls.append("%s?a=%d&sid=%d&b=%d"
                                % (base, d % 5, d, d % 3))
                    fps.append(fp)
                if d % 9 == 0:
                    urls.append("%s?a=%d&b=%d&ref=x"
                                % (base, d % 5, d % 3))
                    fps.append(fp)
                if d % 4 == 0:
                    urls.append("%s?a=%d&b=%d&v=1" % (base, d % 5, d % 3))
                    fps.append(_hl.md5((txt + "#v").encode()).hexdigest())
            return pa.table({
                "url": pa.array(urls, type=pa.string()),
                "fingerprint": pa.array(fps, type=pa.string()),
            })

        return _docs(sf_dir, ["doc_id", "text"]).map_batches(
            mk, batch_format="pyarrow")

    def dust_rules_q(sf_dir):
        from spatula_ray.stages.ingest import dust_param_rules

        return dust_param_rules(_dust_pages(sf_dir), min_support=2)

    def canonical_urls_q(sf_dir):
        from spatula_ray.stages.ingest import canonical_urls

        # same aliased-page fixture as dust_rules: variants sharing a
        # content fingerprint collapse to the lexicographically smallest
        # URL with an alias count
        return canonical_urls(_dust_pages(sf_dir))

    _PROFILE_COLS = ["l_orderkey", "l_partkey", "l_suppkey",
                     "l_linenumber", "l_quantity", "l_extendedprice",
                     "l_discount", "l_tax"]

    def table_profile_q(sf_dir):
        from spatula_ray.ioutil import read_parquet_clean
        from spatula_ray.stages.selection import table_profile

        return table_profile(
            read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                               columns=_PROFILE_COLS),
            _PROFILE_COLS)

    def unigram_entropy_q(sf_dir):
        from spatula_ray.stages.curate import unigram_entropy

        return unigram_entropy(_docs(sf_dir, ["lang", "text"]))

    def bm25_topk_q(sf_dir):
        from spatula_ray.stages.curate import bm25_topk

        return bm25_topk(_docs(sf_dir, ["doc_id", "text"]))

    def temperature_mix_q(sf_dir):
        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.curate import temperature_mix

        # fixture: the testdata sources are uniform (every rate would be
        # the degenerate 500000), so re-key to a 70/20/10 skew — the
        # shape temperature sampling exists for. SQL mirror: CASE on
        # doc_id % 10.
        def skew(t: pa.Table) -> pa.Table:
            d = t["doc_id"].to_numpy(zero_copy_only=False)
            m = d % 10
            src = np.select([m < 7, m < 9], ["web", "books"],
                            default="code")
            return pa.table({
                "doc_id": t["doc_id"],
                "source": pa.array(src, type=pa.string())})

        return temperature_mix(_docs(sf_dir, ["doc_id"]).map_batches(
            skew, batch_format="pyarrow"))

    def _caption_spans_ds(sf_dir):
        import pyarrow as pa

        # fixture: each doc becomes an interleaved span sequence — 8-word
        # text paragraphs at even seq, one image after paragraph
        # (doc_id % n_paras) at odd seq, plus a document-FINAL image on
        # doc_id % 3 == 0 (exercises the before-fallback). SQL mirror
        # builds identical spans with generate_series chunking.
        def spans(t: pa.Table) -> pa.Table:
            ids, seqs, kinds, texts, refs = [], [], [], [], []
            for d, txt in zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()):
                ws = (txt or "").split(" ")
                paras = [" ".join(ws[i:i + 8])
                         for i in range(0, len(ws), 8)]
                p = len(paras)
                for i, ptxt in enumerate(paras):
                    ids.append(d)
                    seqs.append(2 * i)
                    kinds.append("text")
                    texts.append(ptxt)
                    refs.append(None)
                ids.append(d)
                seqs.append(2 * (d % p) + 1)
                kinds.append("image")
                texts.append(None)
                refs.append("m/%d-a.png" % d)
                if d % 3 == 0:
                    ids.append(d)
                    seqs.append(2 * p)
                    kinds.append("image")
                    texts.append(None)
                    refs.append("m/%d-b.png" % d)
            return pa.table({
                "doc_id": pa.array(ids, type=pa.int64()),
                "seq": pa.array(seqs, type=pa.int64()),
                "kind": pa.array(kinds, type=pa.string()),
                "text": pa.array(texts, type=pa.string()),
                "media_ref": pa.array(refs, type=pa.string()),
            })

        return _docs(sf_dir, ["doc_id", "text"]).map_batches(
            spans, batch_format="pyarrow")

    def caption_pairs_q(sf_dir):
        from spatula_ray.stages.multimodal import caption_pairs

        return caption_pairs(_caption_spans_ds(sf_dir))

    def interleaved_doc_stats_q(sf_dir):
        from spatula_ray.stages.multimodal import interleaved_doc_stats

        return interleaved_doc_stats(_caption_spans_ds(sf_dir))

    def interleaved_truncate_q(sf_dir):
        from spatula_ray.stages.multimodal import interleaved_truncate

        # budget chosen so a meaningful fraction of fixture docs
        # truncate mid-sequence (text paras cost ~8, images 16)
        return interleaved_truncate(_caption_spans_ds(sf_dir),
                                    max_tokens=40, media_tokens=16)

    def url_canonicalize_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.engine.keys import canonicalize, host_of

        # conformance fixture for the URL-seen canonicalizer (engine/
        # keys.py, the function every frontier URL passes through):
        # six messy variants keyed doc_id % 6 — uppercase scheme/host,
        # default ports (with and without userinfo), fragments, missing
        # path, non-default port, query preservation. The SQL mirror
        # constructs the expected canonical form per case (the fixture
        # is deterministic from doc_id), so any engine deviation
        # hash-mismatches. Per-row Python is fine here: a conformance
        # query, not a hot path (the crawl path canonicalizes inside
        # the fused runner).
        def mess(t: pa.Table) -> pa.Table:
            ids, urls = [], []
            for d in t["doc_id"].to_pylist():
                h = "h%04d.test" % (d % 50)
                v = d % 6
                if v == 0:
                    u = f"HTTP://{h.upper()}:80/p/{d}#frag"
                elif v == 1:
                    u = f"https://{h}:443/p/{d}?b=2&a=1"
                elif v == 2:
                    u = f"https://{h.upper()}"
                elif v == 3:
                    u = f"http://{h}:8080/p/{d}"
                elif v == 4:
                    u = f"https://User:PW@{h}:443/x/{d}"
                else:
                    u = f"http://{h}/p/{d}"
                ids.append(d)
                urls.append(u)
            return pa.table({
                "doc_id": pa.array(ids, type=pa.int64()),
                "url": pa.array(urls, type=pa.string()),
            })

        def canon(t: pa.Table) -> pa.Table:
            urls = t["url"].to_pylist()
            return pa.table({
                "doc_id": t["doc_id"],
                "url": t["url"],
                "canon_url": pa.array([canonicalize(u) for u in urls],
                                      type=pa.string()),
                "host": pa.array([host_of(u) for u in urls],
                                 type=pa.string()),
            })

        return (_docs(sf_dir, ["doc_id"])
                .map_batches(mess, batch_format="pyarrow")
                .map_batches(canon, batch_format="pyarrow"))

    def robots_conformance_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.engine.hostgate import HostGate

        # conformance fixture for the robots gate (engine/hostgate.py,
        # the admission check every frontier URL passes through before
        # fetch). 20 hosts in 4 rule groups: group 0 disallows
        # ['/private', '/p/archive'], group 1 only the trailing-slash
        # '/private/', group 2 has an explicit EMPTY rule set, group 3
        # is absent from the robots dict entirely (unknown host =>
        # allowed). Paths hit the prefix-match subtleties: the rules
        # are PREFIX rules (RobotsRules.allowed), so '/privateer/..'
        # is denied under '/private' but allowed under '/private/',
        # and '/p/a/..' is a near-miss of '/p/archive'. No wave quota
        # and no crawl-delay: those codes depend on admission order
        # across batches; robots deny/allow is per-row deterministic.
        # Per-row Python is fine here: a conformance query, not a hot
        # path (the crawl path batches admission inside GateActor).
        robots = {}
        for hi in range(20):
            host = "h%02d.test" % hi
            g = hi % 4
            if g == 0:
                robots[host] = {"disallow": ["/private", "/p/archive"]}
            elif g == 1:
                robots[host] = {"disallow": ["/private/"]}
            elif g == 2:
                robots[host] = {"disallow": []}
            # g == 3: host absent

        def admit(t: pa.Table) -> pa.Table:
            gate = HostGate(robots=robots)
            hosts, paths = [], []
            for d in t["doc_id"].to_pylist():
                hosts.append("h%02d.test" % (d % 20))
                v = d % 5
                if v == 0:
                    paths.append("/private/%d" % d)
                elif v == 1:
                    paths.append("/privateer/%d" % d)
                elif v == 2:
                    paths.append("/p/archive/%d" % d)
                elif v == 3:
                    paths.append("/public/%d" % d)
                else:
                    paths.append("/p/a/%d" % d)
            codes = gate.admit(hosts, paths)
            return pa.table({
                "doc_id": t["doc_id"],
                "host": pa.array(hosts, type=pa.string()),
                "path": pa.array(paths, type=pa.string()),
                "admit_code": pa.array(codes, type=pa.int64()),
            })

        return _docs(sf_dir, ["doc_id"]).map_batches(
            admit, batch_format="pyarrow")

    def containment_pairs_q(sf_dir):
        # directed containment join over the superset fixture: every
        # original is fully contained in its extended copy (1.0) while
        # the reverse direction only passes when the copy's four salted
        # tail shingles are a small enough fraction of its set
        return dd.containment_pairs(_docs_with_supersets(sf_dir),
                                    threshold=0.9, k_shingle=3)

    def interleaved_neardup_q(sf_dir):
        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.dedup import interleaved_neardup_pairs

        # fixture: each doc becomes [text span, image span]; the image is
        # keyed by (first token, token count % 7) — both preserved by the
        # every-10th-token perturbation (1-based index 10, 20, ... — the
        # first token survives), so a near-dup copy keeps its media and
        # the media unit joins the intersection. The FIRST-TOKEN part
        # keeps media-unit document frequency bounded (a coarse key like
        # len % 7 alone makes one unit common to 1/7 of the corpus and
        # the inverted-index self-merge quadratic in that df — the
        # hot-shingle failure max_df guards against). Blob = the ref
        # string's utf-8 bytes, so the oracle's unit is md5 of the same
        # printf
        def spans(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            texts = t["text"].to_pylist()
            n = len(ids)
            blobs = []
            for x in texts:
                toks = (x or "").split(" ")
                blobs.append(("m/%s-%d.png" % (toks[0], len(toks) % 7))
                             .encode())
            return pa.table({
                "doc_id": pa.array(np.repeat(ids, 2), type=pa.int64()),
                "seq": pa.array(np.tile([0, 1], n), type=pa.int64()),
                "kind": pa.array(["text", "image"] * n, type=pa.string()),
                "text": pa.array(
                    [v for x in texts for v in ((x or ""), None)],
                    type=pa.string()),
                "media": pa.array(
                    [v for b in blobs for v in (None, b)],
                    type=pa.binary()),
            })

        span_ds = _docs_with_neardups(sf_dir).map_batches(
            spans, batch_format="pyarrow")
        return interleaved_neardup_pairs(span_ds, threshold=0.5,
                                         k_shingle=3)

    def tokenizer_fertility_q(sf_dir):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        from spatula_ray.stages.bpe import bpe_token_counts
        from spatula_ray.stages.joins import hash_bucket_join

        # tokenizer audit: chars-per-token / tokens-per-word by language
        # under the 8-merge learned BPE — the fertility table a tokenizer
        # rollout reviews per corpus; all-integer ratios (micro-units,
        # exact floor division)
        docs = _docs(sf_dir, ["doc_id", "text", "lang"]).materialize()
        bt = bpe_token_counts(docs, n_merges=8)

        def meta(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "nc": pc.utf8_length(t["text"]).cast(pa.int64()),
                "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            })

        joined = hash_bucket_join(
            bt, docs.map_batches(meta, batch_format="pyarrow"),
            on=["doc_id"])
        agg = group_aggregate(joined, "lang", {
            "n_docs": ("one", "sum"), "n_chars": ("nc", "sum"),
            "n_words": ("n_words", "sum"), "n_tokens": ("n_tokens", "sum")})

        def ratios(t: pa.Table) -> pa.Table:
            nc = t["n_chars"].to_numpy(zero_copy_only=False)
            nw = t["n_words"].to_numpy(zero_copy_only=False)
            nt = t["n_tokens"].to_numpy(zero_copy_only=False)
            return pa.table({
                "lang": t["lang"],
                "n_docs": t["n_docs"].cast(pa.int64()).combine_chunks(),
                "n_chars": pa.array(nc.astype(np.int64)),
                "n_words": pa.array(nw.astype(np.int64)),
                "n_tokens": pa.array(nt.astype(np.int64)),
                "chars_per_token_micro": pa.array(
                    1_000_000 * nc.astype(np.int64) // nt.astype(np.int64)),
                "tokens_per_word_micro": pa.array(
                    1_000_000 * nt.astype(np.int64) // nw.astype(np.int64)),
            })

        return agg.map_batches(ratios, batch_format="pyarrow").sort("lang")

    def semdedup_q(sf_dir):
        from spatula_ray.ioutil import read_parquet_clean
        from spatula_ray.stages.similarity import semdedup

        ds = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
        # scanned twice (k-means sample, assign) — materialize the
        # narrow projection once
        return semdedup(ds.materialize(), tau_permille=960)

    def cluster_select_q(sf_dir):
        from spatula_ray.ioutil import read_parquet_clean
        from spatula_ray.stages.similarity import cluster_balanced_select

        ds = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
        return cluster_balanced_select(ds.materialize(), per_cell=8)

    def knn_graph_q(sf_dir):
        from spatula_ray.ioutil import read_parquet_clean
        from spatula_ray.stages.similarity import knn_graph

        ds = read_parquet_clean(os.path.join(sf_dir, "embeddings.parquet"),
                                columns=["vec_id", "embedding"])
        # scanned twice (k-means sample, assign) — materialize the
        # narrow projection once
        return knn_graph(ds.materialize(), k=4) \
            .sort(["vec_id", "nn_rank"])

    def zipf_fit_q(sf_dir):
        from spatula_ray.stages.curate import zipf_fit

        return zipf_fit(_docs(sf_dir, ["doc_id", "text"]), top_v=100)

    def vocab_growth_q(sf_dir):
        from spatula_ray.stages.curate import vocab_growth

        return vocab_growth(_docs(sf_dir, ["doc_id", "text"]),
                            n_checkpoints=10)

    def corpus_report_q(sf_dir):
        from spatula_ray.stages.curate import corpus_report

        return corpus_report(_docs(sf_dir, ["doc_id", "text", "source"]))

    def dsir_select_q(sf_dir):
        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.curate import (
            _SAMPLE_ADD,
            _SAMPLE_DOM,
            _SAMPLE_MOD,
            _SAMPLE_MULT,
            dsir_select,
        )

        # target = the deterministic 100-permille hash sample (stands in
        # for the desired domain, same split as `decontaminate`); raw =
        # the complement, ranked toward the target and top-200 selected
        def side(t: pa.Table, want_target: bool) -> pa.Table:
            k = t["doc_id"].combine_chunks() \
                .to_numpy(zero_copy_only=False).astype(np.uint64)
            h = ((k % np.uint64(_SAMPLE_DOM)) * np.uint64(_SAMPLE_MULT)
                 + np.uint64(_SAMPLE_ADD)) % np.uint64(_SAMPLE_MOD)
            is_t = (h % np.uint64(1000)) < 100
            return t.filter(pa.array(is_t if want_target else ~is_t))

        docs = _docs(sf_dir, ["doc_id", "text"]).materialize()
        target = docs.map_batches(lambda t: side(t, True),
                                  batch_format="pyarrow")
        raw = docs.map_batches(lambda t: side(t, False),
                               batch_format="pyarrow")
        return dsir_select(raw, target, n=200)

    def pmi_top_pairs_q(sf_dir):
        from spatula_ray.stages.curate import pmi_top_pairs

        # scanned twice (unigram counts, bigram counts)
        return pmi_top_pairs(_docs(sf_dir, ["text"]).materialize(),
                             k=100, min_count=5)

    def bpe_merges_q(sf_dir):
        from spatula_ray.stages.bpe import bpe_merges

        return bpe_merges(_docs(sf_dir, ["text"]), n_merges=8)

    def audio_features_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.multimodal import audio_features, synth_wav

        ids = _docs(sf_dir, ["doc_id"])

        # fixture: real RIFF/WAV blobs synthesized deterministically per
        # doc id — the engine decodes the container; the oracle
        # regenerates the PCM integers in SQL
        def make(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": t["doc_id"],
                "wav": pa.array([synth_wav(d)
                                 for d in t["doc_id"].to_pylist()],
                                type=pa.binary()),
            })

        return audio_features(
            ids.map_batches(make, batch_format="pyarrow")).sort("doc_id")

    def gopher_rules_q(sf_dir):
        from spatula_ray.stages.text import gopher_rules

        return gopher_rules(_docs_with_structure(sf_dir)).sort("doc_id")

    def _png_fixture(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.multimodal import synth_png

        # fixture: real PNG blobs (stdlib zlib containers, filter types
        # rotating by doc id) — the engine decodes them; the oracle
        # regenerates the pixel integers in SQL
        def make(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": t["doc_id"],
                "png": pa.array([synth_png(d)
                                 for d in t["doc_id"].to_pylist()],
                                type=pa.binary()),
            })

        return _docs(sf_dir, ["doc_id"]).map_batches(
            make, batch_format="pyarrow")

    def image_dhash_q(sf_dir):
        from spatula_ray.stages.multimodal import image_dhash

        return image_dhash(_png_fixture(sf_dir)).sort("doc_id")

    def image_dup_groups_q(sf_dir):
        from spatula_ray.stages.multimodal import image_dup_groups

        return image_dup_groups(_png_fixture(sf_dir)).sort(["rep", "doc_id"])

    def video_frame_dhash_q(sf_dir):
        import pyarrow as pa

        from spatula_ray.stages.multimodal import (
            synth_apng,
            video_frame_dhash,
        )

        # fixture: real APNG containers (acTL/fcTL/fdAT chunk layout,
        # 4-7 frames at 25 fps) — the engine samples every 2nd frame and
        # fingerprints it; the oracle regenerates the sampled frames'
        # pixels in SQL
        def make(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": t["doc_id"],
                "video": pa.array([synth_apng(d)
                                   for d in t["doc_id"].to_pylist()],
                                  type=pa.binary()),
            })

        vids = _docs(sf_dir, ["doc_id"]).map_batches(
            make, batch_format="pyarrow")
        return video_frame_dhash(vids, stride=2) \
            .sort(["doc_id", "frame_idx"])

    def interleaved_dedup_q(sf_dir):
        import hashlib as _hl

        import numpy as np
        import pyarrow as pa

        from spatula_ray.stages.dedup import interleaved_fingerprint_dedup

        # fixture: every doc becomes a 2-span interleaved sequence —
        # [text span, image span] — where the image is keyed by
        # length(text) % 7 (content-derived, so exact text copies get the
        # SAME media and the planted copies form fingerprint groups);
        # media bytes are the md5 digest of the ref, so the oracle can
        # regenerate the payload hex as md5(ref)
        def spans(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            texts = t["text"].to_pylist()
            n = len(ids)
            media = [_hl.md5(("m/%d.png" % (len(x or "") % 7)).encode())
                     .digest() for x in texts]
            return pa.table({
                "doc_id": pa.array(np.repeat(ids, 2), type=pa.int64()),
                "seq": pa.array(np.tile([0, 1], n), type=pa.int64()),
                "kind": pa.array(["text", "image"] * n, type=pa.string()),
                "text": pa.array(
                    [v for x in texts for v in ((x or ""), None)],
                    type=pa.string()),
                "media": pa.array(
                    [v for m in media for v in (None, m)],
                    type=pa.binary()),
            })

        span_ds = _docs_with_copies(sf_dir).map_batches(
            spans, batch_format="pyarrow")
        return interleaved_fingerprint_dedup(span_ds).sort("doc_id")

    def bpe_token_counts_q(sf_dir):
        from spatula_ray.stages.bpe import bpe_token_counts

        return bpe_token_counts(_docs(sf_dir, ["doc_id", "text"]),
                                n_merges=8).sort("doc_id")

    def media_features(sf_dir):
        from spatula_ray.stages.multimodal import (
            DecodeStubExploded,
            media_manifest_from_docs,
        )

        result = dw.crawl_docweb(sf_dir)
        manifest = media_manifest_from_docs(result.docs)
        # decode + feature-extract in a task stage, keeping media_ref
        # (the SQL-reconstructible key) and exploding the feature vector so
        # the DuckDB oracle can value-compare everything
        return manifest.map_batches(per_task(DecodeStubExploded),
                                    batch_format="pyarrow", batch_size=64)

    q = {
        # crawl engine (flagship)
        "crawl_docs": dw.docweb_records,
        "crawl_spans": dw.docweb_spans,
        "crawl_seen_urls": dw.docweb_seen_urls,
        "crawl_scout": dw.docweb_scout,
        "crawl_class_counts": dw.docweb_class_counts,
        "crawl_span_stats": dw.docweb_span_stats,
        # relational / events operators
        "q1_pricing_summary": rel.q1_pricing_summary,
        "top_orders_by_revenue": rel.top_orders_by_revenue,
        "customer_nation_revenue": rel.customer_nation_revenue,
        "supplier_part_join": rel.supplier_part_join,
        "events_hourly": rel.events_hourly,
        "user_sessions": rel.user_sessions,
        "purchase_attribution": rel.purchase_attribution,
        "purchase_followups": rel.purchase_followups,
        "value_quantiles": rel.value_quantiles,
        "value_quantiles_global": rel.value_quantiles_global,
        "event_funnel": rel.event_funnel,
        "retention_cohorts": rel.retention_cohorts,
        "events_3h_sliding": rel.events_3h_sliding,
        "new_docs": new_docs,
        "props_k_stats": rel.props_k_stats,
        # text analysis
        "text_stats": text_stats,
        "doc_quality": doc_quality,
        "docs_above_median_quality": docs_above_median_quality_q,
        "lang_counts": lang_counts,
        "langid_pred": langid_pred,
        "winnow_fingerprints": winnow,
        # dedup family
        "exact_dedup": exact_dedup_q,
        "ngram_jaccard_pairs": ngram_jaccard,
        "minhash_dup_pairs": minhash_pairs,
        "simhash_dup_pairs": simhash_pairs,
        "embedding_dup_pairs": embedding_dups,
        # similarity search
        "ann_topk": ann_topk,
        "lsh_ann_topk": lsh_topk,
        "ivf_ann_topk": ivf_topk,
        # multimodal plumbing
        "media_features": media_features,
        # curation layer (repetition filters, sampling, packing,
        # fuzzy-dedup clustering, corpus term weighting)
        "repetition_stats": repetition_stats,
        "hash_sample": hash_sample_q,
        "pack_sequences": pack_sequences_q,
        "dup_clusters": dup_clusters,
        "tfidf_top_terms": tfidf_top,
        "decontaminate": decontaminate_q,
        "decontaminate_sharded": decontaminate_sharded_q,
        "bloom_decontaminate": bloom_decontaminate_q,
        "heavy_hitters": heavy_hitters_q,
        "quality_weighted_sample": quality_weighted_sample_q,
        "mix_head": mix_head,
        "cap_per_source": cap_per_source,
        "dedup_representatives": dedup_reps,
        "dedup_paragraphs": dedup_paragraphs_q,
        "strip_boilerplate": strip_boilerplate_q,
        "pii_scrub": pii_scrub_q,
        "curate_corpus": curate_corpus_q,
        "chunk_documents": chunk_documents_q,
        "cdc_chunks": cdc_chunks_q,
        "cdc_dedup_stats": cdc_dedup_stats_q,
        "cdc_delta_bytes": cdc_delta_bytes_q,
        "vocab_coverage": vocab_coverage_q,
        "pack_interleaved": pack_interleaved_q,
        "distinct_shingles_hll": distinct_shingles_hll_q,
        "event_users_hll": event_users_hll_q,
        "doc_pagerank": doc_pagerank_q,
        "quantize_embeddings": quantize_embeddings_q,
        "stratified_sample": stratified_sample_q,
        "epoch_shuffle": epoch_shuffle_q,
        "dedup_spans": dedup_spans_q,
        "lm_nll": lm_nll_q,
        "semdedup": semdedup_q,
        "dsir_select": dsir_select_q,
        "pmi_top_pairs": pmi_top_pairs_q,
        "bpe_merges": bpe_merges_q,
        "bpe_token_counts": bpe_token_counts_q,
        "gopher_rules": gopher_rules_q,
        "audio_features": audio_features_q,
        "image_dhash": image_dhash_q,
        "image_dup_groups": image_dup_groups_q,
        "video_frame_dhash": video_frame_dhash_q,
        "interleaved_dedup": interleaved_dedup_q,
        "knn_graph": knn_graph_q,
        "cluster_select": cluster_select_q,
        "zipf_fit": zipf_fit_q,
        "vocab_growth": vocab_growth_q,
        "corpus_report": corpus_report_q,
        "filter_ensemble": filter_ensemble_q,
        "tokenizer_fertility": tokenizer_fertility_q,
        "interleaved_neardup": interleaved_neardup_q,
        "containment_pairs": containment_pairs_q,
        "caption_pairs": caption_pairs_q,
        "interleaved_doc_stats": interleaved_doc_stats_q,
        "url_canonicalize": url_canonicalize_q,
        "robots_conformance": robots_conformance_q,
        "normalize_text": normalize_text_q,
        "hashed_linear_score": hashed_linear_score_q,
        "resolve_redirects": resolve_redirects_q,
        "sitemap_seeds": sitemap_seeds_q,
        "length_batches": length_batches_q,
        "snapshot_diff": snapshot_diff_q,
        "dust_rules": dust_rules_q,
        "recrawl_priority": recrawl_priority_q,
        "anchor_topk": anchor_topk_q,
        "host_link_graph": host_link_graph_q,
        "doc_hits": doc_hits_q,
        "trap_hosts": trap_hosts_q,
        "robots_rules": robots_rules_q,
        "warc_records": warc_records_q,
        "readability": readability_q,
        "exact_substr_cut": exact_substr_cut_q,
        "host_rank": host_rank_q,
        "minhash_calibration": minhash_calibration_q,
        "canonical_urls": canonical_urls_q,
        "host_rank_weighted": host_rank_weighted_q,
        "shard_manifest": shard_manifest_q,
        "interleaved_truncate": interleaved_truncate_q,
        "quality_dup_calibration": quality_dup_calibration_q,
        "host_boilerplate": host_boilerplate_q,
        "reciprocal_edges": reciprocal_edges_q,
        "degree_histogram": degree_histogram_q,
        "hyperball_reach": hyperball_q,
        "rendezvous_shards": rendezvous_shards_q,
        "colink_similarity": colink_similarity_q,
        "textrank_keywords": textrank_q,
        "sitemap_index": sitemap_index_q,
        "table_profile": table_profile_q,
        "temperature_mix": temperature_mix_q,
        "bm25_topk": bm25_topk_q,
        "unigram_entropy": unigram_entropy_q,
        "doc_novelty": doc_novelty_q,
        "exact_substr_coverage": exact_substr_coverage_q,
        "media_asset_dedup": media_asset_dedup_q,
        "crawl_host_stats": dw.docweb_host_stats,
        "ann_recall": ann_recall_q,
        "main_content": main_content_q,
        "source_overlap": source_overlap_q,
        "span_langid": span_langid_q,
        "c4_line_filters": c4_line_filters_q,
        "dedup_within_doc": dedup_within_doc_q,
        "token_budget_select": token_budget_select_q,
        "outlink_diversity": outlink_diversity_q,
        "crawl_budget_allocation": crawl_budget_q,
        "pq_ann_topk": pq_topk,
        "ivfadc_ann_topk": ivfadc_topk,
        "recrawl_budget": recrawl_budget_q,
        "politeness_budget": politeness_budget_q,
        "ccnet_buckets": ccnet_buckets_q,
        "jl_project": jl_project_q,
    }
    # The driver's correctness gate samples the FIRST 50 entries; rounds
    # 1-4 always presented the same head, so the graph / ingest /
    # multimodal / BPE families never received a driver row (round-4
    # verdict item #3). Rotate them into the window — crawl rows stay
    # first (the flagship), then the never-driver-checked families, then
    # everything else in its original order. The local gate
    # (scripts/check_correctness.py) still checks all entries.
    window = [
        # crawl engine (flagship, always first)
        "crawl_docs", "crawl_spans", "crawl_seen_urls", "crawl_scout",
        "crawl_class_counts", "crawl_span_stats",
        # link-graph family
        "doc_pagerank", "host_rank", "host_rank_weighted", "doc_hits",
        "hyperball_reach", "reciprocal_edges", "degree_histogram",
        "colink_similarity", "anchor_topk", "host_link_graph",
        "resolve_redirects", "textrank_keywords",
        # crawl-ops / ingest family
        "sitemap_seeds", "sitemap_index", "robots_rules",
        "robots_conformance", "warc_records", "dust_rules", "trap_hosts",
        "snapshot_diff", "recrawl_priority", "canonical_urls",
        "url_canonicalize", "rendezvous_shards",
        # multimodal family
        "audio_features", "image_dhash", "image_dup_groups",
        "video_frame_dhash", "interleaved_dedup", "interleaved_neardup",
        "caption_pairs", "interleaved_doc_stats", "media_asset_dedup",
        "interleaved_truncate",
        # BPE family
        "bpe_merges", "bpe_token_counts", "tokenizer_fertility",
        # round-5-touched + k-means-cell family + session-3 additions
        "exact_substr_cut", "exact_substr_coverage", "semdedup",
        "knn_graph", "cluster_select", "pq_ann_topk",
        "crawl_budget_allocation",
    ]
    assert len(window) == 50 and all(name in q for name in window)
    return {**{name: q[name] for name in window},
            **{k: v for k, v in q.items() if k not in set(window)}}


# SQL fragments shared by the doc-web oracles
_PARAMS = ("params AS (SELECT greatest(1, least(10, CAST(count(*) / 50 AS INT)))"
           " AS h FROM documents)")

# PII regexes shared with the engine (stages/text.py) — spliced into the
# pii_scrub oracle so both sides run the identical RE2 patterns
from spatula_ray.stages.text import (  # noqa: E402
    PII_EMAIL as _PII_EMAIL,
    PII_IP as _PII_IP,
    PII_PHONE as _PII_PHONE,
)


def _norm_cv(vec: str, prev: str, q_scale: int) -> str:
    return (f"CASE WHEN {vec} IS NULL OR list_inner_product({vec}, {vec}) = 0 "
            f"THEN {prev} ELSE list_transform({vec}, "
            f"x -> floor(x / sqrt(list_inner_product({vec}, {vec})) "
            f"* {q_scale}.0 + 0.5)) END")


def _kmeans_cells_prefix(n_cells, iters: int, sample: int,
                         q_scale: int) -> str:
    """Shared CTE chain — integer-grid k-means (Lloyd iterations unrolled)
    ending in ``cells(vec_id, cell)`` and keeping ``xi(vec_id, v, xv)``
    in scope. Exact mirror of stages/similarity.py ``kmeans_centroids``;
    see `_ivf_oracle_sql` for the reproducibility argument. The final
    centroid CTE is named ``cfin``.

    ``n_cells=None`` mirrors similarity.derive_n_cells: the cell count
    is DERIVED from ``count(*)`` with the identical integer formula
    ``least(2048, greatest(16, (n + 255) // 256))`` — the round-4
    verdict fix #1 (auto-scaled cells) stays exactly SQL-reproducible
    because both sides compute the same pure-integer function of the
    same row count."""
    def norm_cv(vec: str, prev: str) -> str:
        return _norm_cv(vec, prev, q_scale)

    if n_cells is None:
        nc_cte = """
nc AS (SELECT least(2048, greatest(16, (count(*) + 255) // 256)) AS c
       FROM embeddings),"""
        c0_from = "FROM generate_series(0, 2047) j(j), nc, sc, samp s"
        c0_where = "WHERE j.j < nc.c AND s.rn = (j.j * sc.s) // nc.c"
    else:
        nc_cte = ""
        c0_from = f"FROM generate_series(0, {n_cells - 1}) j(j), sc, samp s"
        c0_where = f"WHERE s.rn = (j.j * sc.s) // {n_cells}"

    parts = [f"""
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),{nc_cte}
xi AS (SELECT vec_id, v,
              list_transform(v, x -> floor(x * {q_scale}.0 + 0.5)) AS xv
       FROM e),
samp AS (SELECT vec_id, xv, row_number() OVER (ORDER BY vec_id) - 1 AS rn
         FROM xi ORDER BY vec_id LIMIT {sample}),
sc AS (SELECT count(*) AS s FROM samp),
c0 AS (
  SELECT j.j AS cell,
         {norm_cv('s.xv', 's.xv')} AS cv
  {c0_from}
  {c0_where}
)"""]
    for t in range(1, iters + 1):
        p = t - 1
        parts.append(f""",
a{t} AS (
  SELECT s.rn, s.xv, c.cell,
         row_number() OVER (PARTITION BY s.rn
             ORDER BY list_inner_product(s.xv, c.cv) DESC, c.cell) AS rk
  FROM samp s CROSS JOIN c{p} c
),
v{t} AS (
  SELECT cell, list(sv ORDER BY d) AS sv FROM (
    SELECT cell, d, sum(val) AS sv
    FROM (SELECT cell, unnest(xv) AS val,
                 unnest(generate_series(1, len(xv))) AS d
          FROM a{t} WHERE rk = 1)
    GROUP BY cell, d)
  GROUP BY cell
),
c{t} AS (
  SELECT p.cell,
         {norm_cv('v.sv', 'p.cv')} AS cv
  FROM c{p} p LEFT JOIN v{t} v USING (cell)
)""")
    parts.append(f""",
cfin AS (SELECT cell, cv FROM c{iters}),
cells AS (
  SELECT vec_id, cell FROM (
    SELECT x.vec_id, c.cell,
           row_number() OVER (PARTITION BY x.vec_id
               ORDER BY list_inner_product(x.xv, c.cv) DESC, c.cell) AS rk
    FROM xi x CROSS JOIN cfin c) WHERE rk = 1
)""")
    return "".join(parts)


def _ivf_oracle_sql(n_cells: int = 16, iters: int = 5, nprobe: int = 4,
                    sample: int = 2048, q_scale: int = 1000) -> str:
    """Exact mirror of stages/similarity.py ``kmeans_centroids`` +
    ``ivf_ann_topk``: the Lloyd iterations are unrolled as a CTE chain.
    Reproducibility argument (same as the engine docstring): vectors live
    on an integer grid (floor(x*Q+0.5)); every SUM is a sum of integers
    below 2^53 (exact in IEEE doubles in any order); every non-sum step —
    x/sqrt(nsq)*Q+0.5 then floor — is a chain of single IEEE ops on
    identical operands, so numpy and DuckDB produce identical integers.
    Final scoring is raw-double cosine snapped to the 1e-5 grid (the
    proven lsh_ann_topk pattern)."""
    parts = [_kmeans_cells_prefix(n_cells, iters, sample, q_scale)]
    parts.append(f""",
q AS (SELECT vec_id AS query_id FROM embeddings ORDER BY vec_id
      LIMIT {_N_QUERIES}),
qprob AS (
  SELECT query_id, cell FROM (
    SELECT q.query_id, c.cell,
           row_number() OVER (PARTITION BY q.query_id
               ORDER BY list_inner_product(x.xv, c.cv) DESC, c.cell) AS rk
    FROM q JOIN xi x ON x.vec_id = q.query_id CROSS JOIN c{iters} c)
  WHERE rk <= {nprobe}
),
cand AS (
  SELECT p.query_id, cl.vec_id FROM qprob p JOIN cells cl ON cl.cell = p.cell
),
sims AS (
  SELECT c.query_id, c.vec_id,
         list_inner_product(qe.v, ce.v)
         / (sqrt(list_inner_product(qe.v, qe.v))
            * sqrt(list_inner_product(ce.v, ce.v))) AS s
  FROM cand c
  JOIN e qe ON qe.vec_id = c.query_id
  JOIN e ce ON ce.vec_id = c.vec_id
)
SELECT query_id, vec_id, floor(s * 1e5 + 0.5) / 1e5 AS score
FROM sims
QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY s DESC, vec_id)
        <= {_TOPK}
""")
    return "".join(parts)


def _pq_oracle_sql(m: int = 16, n_cells: int = 16, iters: int = 3,
                   sample: int = 2048, q_scale: int = 1000,
                   dim: int = 64) -> str:
    """Exact mirror of stages/similarity.py ``pq_codebooks`` +
    ``pq_ann_topk``: per subspace, the L2 Lloyd iterations are unrolled
    as their own CTE chain (the ``_ivf_oracle_sql`` construction, with
    the PQ variations): assignment orders by the reduced integer L2
    ``ip(c,c) - 2*ip(x,c)`` (the |x|^2 term cancels inside an argmin),
    ties -> lowest cell; the update is the per-dim rounded mean
    ``floor(sum/count + 0.5)`` — one IEEE divide of exact integers,
    bit-identical across numpy and DuckDB. The ADC score is a pure
    integer sum of per-subspace inner products, so the final top-k
    needs no float snapping at all."""
    dsub = dim // m
    parts = [f"""
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
xi AS (SELECT vec_id,
              list_transform(v, x -> floor(x * {q_scale}.0 + 0.5)) AS xv
       FROM e),
samp AS (SELECT vec_id, xv, row_number() OVER (ORDER BY vec_id) - 1 AS rn
         FROM xi ORDER BY vec_id LIMIT {sample}),
sc AS (SELECT count(*) AS s FROM samp)"""]
    for sub in range(m):
        lo, hi = sub * dsub + 1, (sub + 1) * dsub
        sl = f"xv[{lo}:{hi}]"
        red = (f"list_inner_product(c.cv, c.cv) "
               f"- 2 * list_inner_product({{x}}.{sl}, c.cv)")
        parts.append(f""",
p{sub}c0 AS (
  SELECT j.j AS cell, s.{sl} AS cv
  FROM generate_series(0, {n_cells - 1}) j(j), sc, samp s
  WHERE s.rn = (j.j * sc.s) // {n_cells}
)""")
        for t in range(1, iters + 1):
            parts.append(f""",
p{sub}a{t} AS (
  SELECT s.rn, s.{sl} AS xs, c.cell,
         row_number() OVER (PARTITION BY s.rn
             ORDER BY {red.format(x='s')}, c.cell) AS rk
  FROM samp s CROSS JOIN p{sub}c{t - 1} c
),
p{sub}v{t} AS (
  SELECT cell, list(nv ORDER BY d) AS cv FROM (
    SELECT cell, d, floor(sum(val) / count(*) + 0.5) AS nv
    FROM (SELECT cell, unnest(xs) AS val,
                 unnest(generate_series(1, len(xs))) AS d
          FROM p{sub}a{t} WHERE rk = 1)
    GROUP BY cell, d)
  GROUP BY cell
),
p{sub}c{t} AS (
  SELECT p.cell, COALESCE(v.cv, p.cv) AS cv
  FROM p{sub}c{t - 1} p LEFT JOIN p{sub}v{t} v USING (cell)
)""")
        parts.append(f""",
code{sub} AS (
  SELECT vec_id, cell FROM (
    SELECT x.vec_id, c.cell,
           row_number() OVER (PARTITION BY x.vec_id
               ORDER BY {red.format(x='x')}, c.cell) AS rk
    FROM xi x CROSS JOIN p{sub}c{iters} c) WHERE rk = 1
)""")
    code_joins = "\n".join(
        f"  JOIN code{s} cd{s} ON cd{s}.vec_id = cd0.vec_id"
        for s in range(1, m))
    cent_joins = "\n".join(
        f"  JOIN p{s}c{iters} f{s} ON f{s}.cell = cd{s}.cell"
        for s in range(m))
    adc = " + ".join(
        f"list_inner_product(qx.xv[{s * dsub + 1}:{(s + 1) * dsub}], "
        f"f{s}.cv)" for s in range(m))
    parts.append(f""",
q AS (SELECT vec_id AS query_id FROM embeddings ORDER BY vec_id
      LIMIT {_N_QUERIES}),
score AS (
  SELECT q.query_id, cd0.vec_id, {adc} AS adc
  FROM q
  JOIN xi qx ON qx.vec_id = q.query_id
  CROSS JOIN code0 cd0
{code_joins}
{cent_joins}
)
SELECT query_id, vec_id, CAST(adc AS BIGINT) AS adc_score FROM score
QUALIFY row_number() OVER (PARTITION BY query_id
                           ORDER BY adc DESC, vec_id) <= {_TOPK}
""")
    return "".join(parts)


def _ivfadc_oracle_sql(n_coarse: int = 16, coarse_iters: int = 5,
                       nprobe: int = 4, m: int = 16, n_cells: int = 16,
                       pq_iters: int = 3, sample: int = 2048,
                       q_scale: int = 1000, dim: int = 64) -> str:
    """Exact mirror of stages/similarity.py ``ivfadc_ann_topk``: the
    shared coarse k-means prefix (``_kmeans_cells_prefix`` — spherical,
    IP argmax) assigns every vector a coarse cell; residuals are
    integer differences (exact by construction); the per-subspace
    residual Lloyd chains reuse the ``_pq_oracle_sql`` construction
    (reduced-L2 argmin, rounded-mean update); scores are pure int64
    sums, so no float snapping anywhere."""
    dsub = dim // m
    parts = [_kmeans_cells_prefix(n_coarse, coarse_iters, sample, q_scale)]
    # MATERIALIZED: every per-subspace chain references these; DuckDB's
    # default CTE inlining would otherwise replay the whole coarse chain
    # (and its parquet scan) once per reference — 16 subspaces deep that
    # exhausts file handles before it exhausts patience
    parts.append(""",
rsamp AS MATERIALIZED (
  SELECT s.rn,
         list_transform(generate_series(1, len(s.xv)),
                        i -> s.xv[i] - cf.cv[i]) AS rv
  FROM samp s JOIN cells cl ON cl.vec_id = s.vec_id
  JOIN cfin cf ON cf.cell = cl.cell
),
resid AS MATERIALIZED (
  SELECT x.vec_id, cl.cell AS ccell,
         list_transform(generate_series(1, len(x.xv)),
                        i -> x.xv[i] - cf.cv[i]) AS rv
  FROM xi x JOIN cells cl USING (vec_id)
  JOIN cfin cf ON cf.cell = cl.cell
)""")
    for sub in range(m):
        lo, hi = sub * dsub + 1, (sub + 1) * dsub
        sl = f"rv[{lo}:{hi}]"
        red = (f"list_inner_product(c.cv, c.cv) "
               f"- 2 * list_inner_product({{x}}.{sl}, c.cv)")
        parts.append(f""",
r{sub}c0 AS (
  SELECT j.j AS cell, s.{sl} AS cv
  FROM generate_series(0, {n_cells - 1}) j(j), sc, rsamp s
  WHERE s.rn = (j.j * sc.s) // {n_cells}
)""")
        for t in range(1, pq_iters + 1):
            parts.append(f""",
r{sub}a{t} AS (
  SELECT s.rn, s.{sl} AS xs, c.cell,
         row_number() OVER (PARTITION BY s.rn
             ORDER BY {red.format(x='s')}, c.cell) AS rk
  FROM rsamp s CROSS JOIN r{sub}c{t - 1} c
),
r{sub}v{t} AS (
  SELECT cell, list(nv ORDER BY d) AS cv FROM (
    SELECT cell, d, floor(sum(val) / count(*) + 0.5) AS nv
    FROM (SELECT cell, unnest(xs) AS val,
                 unnest(generate_series(1, len(xs))) AS d
          FROM r{sub}a{t} WHERE rk = 1)
    GROUP BY cell, d)
  GROUP BY cell
),
r{sub}c{t} AS (
  SELECT p.cell, COALESCE(v.cv, p.cv) AS cv
  FROM r{sub}c{t - 1} p LEFT JOIN r{sub}v{t} v USING (cell)
)""")
        parts.append(f""",
rcode{sub} AS (
  SELECT vec_id, cell FROM (
    SELECT x.vec_id, c.cell,
           row_number() OVER (PARTITION BY x.vec_id
               ORDER BY {red.format(x='x')}, c.cell) AS rk
    FROM resid x CROSS JOIN r{sub}c{pq_iters} c) WHERE rk = 1
)""")
    code_joins = "\n".join(
        f"  JOIN rcode{s} cd{s} ON cd{s}.vec_id = r.vec_id"
        for s in range(m))
    cent_joins = "\n".join(
        f"  JOIN r{s}c{pq_iters} f{s} ON f{s}.cell = cd{s}.cell"
        for s in range(m))
    adc = " + ".join(
        f"list_inner_product(qx.xv[{s * dsub + 1}:{(s + 1) * dsub}], "
        f"f{s}.cv)" for s in range(m))
    parts.append(f""",
q AS (SELECT vec_id AS query_id FROM embeddings ORDER BY vec_id
      LIMIT {_N_QUERIES}),
qprob AS (
  SELECT query_id, cell FROM (
    SELECT q.query_id, c.cell,
           row_number() OVER (PARTITION BY q.query_id
               ORDER BY list_inner_product(x.xv, c.cv) DESC, c.cell) AS rk
    FROM q JOIN xi x ON x.vec_id = q.query_id CROSS JOIN cfin c)
  WHERE rk <= {nprobe}
),
score AS (
  SELECT p.query_id, r.vec_id,
         list_inner_product(qx.xv, cf.cv) + {adc} AS adc
  FROM qprob p
  JOIN resid r ON r.ccell = p.cell
  JOIN xi qx ON qx.vec_id = p.query_id
  JOIN cfin cf ON cf.cell = r.ccell
{code_joins}
{cent_joins}
)
SELECT query_id, vec_id, CAST(adc AS BIGINT) AS adc_score FROM score
QUALIFY row_number() OVER (PARTITION BY query_id
                           ORDER BY adc DESC, vec_id) <= {_TOPK}
""")
    return "".join(parts)


def _semdedup_oracle_sql(n_cells=None, iters: int = 5,
                         sample: int = 2048, q_scale: int = 1000,
                         tau_permille: int = 960) -> str:
    """Exact mirror of stages/similarity.py ``semdedup``: the shared
    integer-grid k-means prefix assigns every vector a cell; each vector
    is sphere-normalized onto the grid (same single-IEEE-op chain), so
    the within-cell pairwise scores are exact integer inner products and
    the threshold compare is integer vs integer — bit-identical to the
    engine's int64 matmul."""
    tau_int = (tau_permille * q_scale * q_scale) // 1000
    prefix = _kmeans_cells_prefix(n_cells, iters, sample, q_scale)
    nv = _norm_cv("x.xv", "x.xv", q_scale)
    return prefix + f""",
qn AS (SELECT x.vec_id, cl.cell, {nv} AS nv
       FROM xi x JOIN cells cl USING (vec_id)),
dup AS (SELECT b.vec_id, min(a.vec_id) AS dup_of
        FROM qn a JOIN qn b ON a.cell = b.cell AND a.vec_id < b.vec_id
        WHERE list_inner_product(a.nv, b.nv) >= {tau_int}
        GROUP BY b.vec_id)
SELECT q.vec_id, q.cell, coalesce(d.dup_of, -1) AS dup_of,
       d.dup_of IS NULL AS keep
FROM qn q LEFT JOIN dup d USING (vec_id)
"""


def _knn_graph_oracle_sql(k: int = 4, n_cells=None, iters: int = 5,
                          sample: int = 2048, q_scale: int = 1000) -> str:
    """Exact mirror of stages/similarity.py ``knn_graph``: the shared
    integer-grid k-means prefix assigns cells; within-cell similarities
    are integer inner products of the grid-normalized vectors (each
    product <= q_scale**2 and dim <= ~100, so DuckDB's double
    list_inner_product is integer-exact under 2^53), ranked with the
    engine's exact tie convention (dot DESC, neighbor id ASC)."""
    prefix = _kmeans_cells_prefix(n_cells, iters, sample, q_scale)
    nv = _norm_cv("x.xv", "x.xv", q_scale)
    return prefix + f""",
qn AS (SELECT x.vec_id, cl.cell, {nv} AS nv
       FROM xi x JOIN cells cl USING (vec_id)),
edges AS (
  SELECT a.vec_id, b.vec_id AS neighbor_id,
         CAST(list_inner_product(a.nv, b.nv) AS BIGINT) AS dot,
         row_number() OVER (
             PARTITION BY a.vec_id
             ORDER BY list_inner_product(a.nv, b.nv) DESC, b.vec_id
         ) AS nn_rank
  FROM qn a JOIN qn b ON a.cell = b.cell AND a.vec_id <> b.vec_id)
SELECT vec_id, neighbor_id, CAST(nn_rank AS BIGINT) AS nn_rank, dot
FROM edges WHERE nn_rank <= {k}
ORDER BY vec_id, nn_rank
"""


def _cluster_select_oracle_sql(per_cell: int = 8, n_cells=None,
                               iters: int = 5, sample: int = 2048,
                               q_scale: int = 1000) -> str:
    """Exact mirror of stages/similarity.py ``cluster_balanced_select``:
    shared integer-grid k-means prefix, centrality = integer inner
    product of the grid-normalized vector with its cell centroid
    (``cfin``), ranked with the engine's (score desc, id asc) total
    order."""
    prefix = _kmeans_cells_prefix(n_cells, iters, sample, q_scale)
    nv = _norm_cv("x.xv", "x.xv", q_scale)
    return prefix + f""",
qn AS (SELECT x.vec_id, cl.cell, {nv} AS nv
       FROM xi x JOIN cells cl USING (vec_id)),
scored AS (
  SELECT q.vec_id, q.cell,
         CAST(list_inner_product(q.nv, c.cv) AS BIGINT) AS score
  FROM qn q JOIN cfin c USING (cell)),
ranked AS (
  SELECT vec_id, cell, score,
         CAST(row_number() OVER (PARTITION BY cell
                                 ORDER BY score DESC, vec_id)
              AS BIGINT) AS rank
  FROM scored)
SELECT vec_id, cell, score, rank FROM ranked WHERE rank <= {per_cell}
"""


def _bpe_oracle_sql(n_merges: int = 8) -> str:
    """Exact mirror of stages/bpe.py ``bpe_merges`` as an unrolled CTE
    chain (the pagerank/IVF convention): word-frequency table, codepoint
    explode, then per merge step (1) freq-weighted adjacent-pair counts,
    (2) winner = max count with (lhs, rhs) tie-break, (3) greedy
    left-to-right application — within a run of consecutive candidate
    positions only every other one applies (row_number over the run
    parity), losers' right symbol dropped, positions renumbered. All
    integers and strings — no float anywhere to drift. Every chain CTE
    is AS MATERIALIZED: each s{{k}} is referenced three times and DuckDB
    would otherwise inline it, re-expanding the chain 3^n_merges times
    (thousands of scans of the base view — observed as an fd explosion
    at n_merges=8)."""
    parts = ["""WITH wrds AS MATERIALIZED (
  SELECT unnest(string_split(text, ' ')) AS word FROM documents),
wc AS MATERIALIZED (
  SELECT word, count(*) AS freq FROM wrds WHERE word <> '' GROUP BY 1),
s0 AS MATERIALIZED (
  SELECT word, freq, i AS pos, substr(word, i, 1) AS sym
  FROM wc, UNNEST(generate_series(1, length(word))) t(i))"""]
    for k in range(n_merges):
        parts.append(f""",
pc{k} AS MATERIALIZED (
  SELECT s1, s2, sum(freq) AS c FROM (
    SELECT freq, sym AS s1,
           lead(sym) OVER (PARTITION BY word ORDER BY pos) AS s2
    FROM s{k}) q
  WHERE s2 IS NOT NULL GROUP BY 1, 2),
win{k} AS MATERIALIZED (
  SELECT s1, s2, c FROM pc{k} ORDER BY c DESC, s1, s2 LIMIT 1),
cand{k} AS MATERIALIZED (
  SELECT q.word, q.pos FROM (
    SELECT word, pos, sym,
           lead(sym) OVER (PARTITION BY word ORDER BY pos) AS nxt
    FROM s{k}) q, win{k} w
  WHERE q.sym = w.s1 AND q.nxt = w.s2),
app{k} AS MATERIALIZED (
  SELECT word, pos FROM (
    SELECT word, pos,
           row_number() OVER (PARTITION BY word, rid ORDER BY pos) AS rn
    FROM (
      SELECT word, pos,
             sum(CASE WHEN prev = pos - 1 THEN 0 ELSE 1 END)
               OVER (PARTITION BY word ORDER BY pos) AS rid
      FROM (SELECT word, pos,
                   lag(pos) OVER (PARTITION BY word ORDER BY pos) AS prev
            FROM cand{k}) l) r) f
  WHERE rn % 2 = 1),
s{k + 1} AS MATERIALIZED (
  SELECT s.word, s.freq,
         row_number() OVER (PARTITION BY s.word ORDER BY s.pos) AS pos,
         CASE WHEN a.pos IS NOT NULL
              THEN (SELECT s1 || s2 FROM win{k}) ELSE s.sym END AS sym
  FROM s{k} s
  LEFT JOIN app{k} a ON s.word = a.word AND s.pos = a.pos
  LEFT JOIN app{k} d ON s.word = d.word AND s.pos = d.pos + 1
  WHERE d.pos IS NULL)""")
    unions = "\nUNION ALL ".join(
        f"SELECT {k + 1} AS step, s1 AS lhs, s2 AS rhs, "
        f"CAST(c AS BIGINT) AS pair_count FROM win{k}"
        for k in range(n_merges))
    parts.append(f"\nSELECT * FROM (\n{unions}\n) u ORDER BY step")
    return "".join(parts)


def _bpe_counts_oracle_sql(n_merges: int = 8) -> str:
    """Per-doc token counts under the learned merges: reuse the trainer
    chain's final s{n} symbol table (word -> symbol count after all
    merges), join each document's nonempty words to it, sum. Mirrors
    ``bpe.bpe_token_counts`` exactly (inner-join semantics: no-word docs
    absent)."""
    chain = _bpe_oracle_sql(n_merges)
    prefix = chain[:chain.index("\nSELECT * FROM (")]
    return f"""{prefix},
wn AS MATERIALIZED (
  SELECT word, count(*) AS n_sym FROM s{n_merges} GROUP BY 1),
dw AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents)
SELECT d.doc_id, CAST(count(*) AS BIGINT) AS n_words,
       CAST(sum(w.n_sym) AS BIGINT) AS n_tokens
FROM dw d JOIN wn w USING (word)
WHERE d.word <> ''
GROUP BY d.doc_id
ORDER BY d.doc_id"""


def oracle_sql() -> dict[str, str]:
    sql = {
        "crawl_docs": "SELECT doc_id, lang, source, text, n_chars FROM documents",

        "crawl_spans": f"""
WITH {_PARAMS}
SELECT d.doc_id,
       u.kind AS kind, u.text AS text, u.media_ref AS media_ref,
       u."offset" AS "offset"
FROM documents d, params p, UNNEST([
  struct_pack(kind := 'text',  text := 'Doc ' || d.doc_id, media_ref := '',
              "offset" := CAST(0 AS INTEGER)),
  struct_pack(kind := 'text',  text := d.lang,   media_ref := '',
              "offset" := CAST(1 AS INTEGER)),
  struct_pack(kind := 'text',  text := d.source, media_ref := '',
              "offset" := CAST(2 AS INTEGER)),
  struct_pack(kind := 'text',  text := d.text,   media_ref := '',
              "offset" := CAST(3 AS INTEGER)),
  struct_pack(kind := 'media', text := '',
              media_ref := printf('https://h%03d.docweb.test/media/%d.png',
                                  CAST(d.doc_id % p.h AS INT), d.doc_id),
              "offset" := CAST(4 AS INTEGER))
]) AS t(u)
""",

        "crawl_seen_urls": f"""
WITH {_PARAMS},
hosts AS (
  SELECT CAST(doc_id % p.h AS INT) AS hh, count(*) AS cnt
  FROM documents, params p GROUP BY 1
)
SELECT DISTINCT url FROM (
  SELECT printf('https://h%03d.docweb.test/list', hh) AS url FROM hosts
  UNION ALL
  SELECT printf('https://h%03d.docweb.test/list?page=%d', hh, pg)
  FROM hosts, UNNEST(generate_series(1, CAST(ceil(cnt / 20.0) AS INT) - 1)) AS t(pg)
  UNION ALL
  SELECT printf('https://h%03d.docweb.test/doc/%d',
                CAST(doc_id % p.h AS INT), doc_id)
  FROM documents, params p
)
""",

        "crawl_scout": f"""
WITH {_PARAMS}
SELECT printf('https://h%03d.docweb.test/doc/%d',
              CAST(doc_id % p.h AS INT), doc_id) AS data_url,
       'DocDetail source=None' AS next
FROM documents, params p
""",

        "crawl_class_counts": f"""
WITH {_PARAMS},
hosts AS (
  SELECT CAST(doc_id % p.h AS INT) AS hh, count(*) AS cnt
  FROM documents, params p GROUP BY 1
)
SELECT 'DocDetail' AS page_class, CAST(count(*) AS BIGINT) AS n_pages FROM documents
UNION ALL
SELECT 'DocList' AS page_class,
       CAST(sum(CAST(ceil(cnt / 20.0) AS INT)) AS BIGINT) AS n_pages FROM hosts
""",

        "q1_pricing_summary": """
SELECT l_returnflag, l_linestatus,
       floor(sum(l_quantity) * 100 + 0.5) / 100                          AS sum_qty,
       floor(sum(l_extendedprice) + 0.5)                     AS sum_base_price,
       floor(sum(l_extendedprice * (1 - l_discount)) + 0.5)  AS sum_disc_price,
       floor(avg(l_quantity) * 10000 + 0.5) / 10000                          AS avg_qty,
       floor(avg(l_extendedprice) * 10000 + 0.5) / 10000                     AS avg_price,
       count(*)                                           AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
""",

        "top_orders_by_revenue": """
SELECT o.o_orderkey,
       floor(sum(l.l_extendedprice * (1 - l.l_discount)) * 100 + 0.5) / 100 AS revenue,
       o.o_orderpriority
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderkey, o.o_orderpriority
ORDER BY revenue DESC, o.o_orderkey
LIMIT 10
""",

        "customer_nation_revenue": """
SELECT n.n_name,
       floor(sum(o.o_totalprice) * 100 + 0.5) / 100 AS total_revenue,
       count(*) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
""",

        "supplier_part_join": """
SELECT p.p_brand,
       floor(sum(l.l_quantity) * 100 + 0.5) / 100 AS total_qty,
       count(*) AS n_items
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
GROUP BY p.p_brand
""",

        "events_hourly": """
SELECT event_type,
       CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS window_start,
       count(*) AS n_events,
       floor(sum(value) * 10000 + 0.5) / 10000 AS sum_value
FROM events
GROUP BY 1, 2
""",

        "user_sessions": """
WITH ordered AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE OR
                   lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events
)
SELECT user_id, CAST(sum(new_session) AS BIGINT) AS n_sessions,
       count(*) AS n_events
FROM ordered GROUP BY user_id
""",

        "text_stats": r"""
SELECT doc_id,
       length(text) AS n_chars,
       len(string_split(text, ' ')) AS n_tokens,
       len(regexp_extract_all(text, '\w+|[^\w\s]')) AS n_tokens_bpe,
       len(list_distinct(string_split(text, ' '))) AS n_unique_tokens,
       floor(len(list_distinct(string_split(text, ' ')))::DOUBLE
             / len(string_split(text, ' ')) * 1e6 + 0.5) / 1e6 AS ttr,
       md5(text) AS fingerprint
FROM documents
""",

        "doc_quality": """
SELECT doc_id,
       floor((0.4 * (len(list_distinct(string_split(text, ' ')))::DOUBLE
                    / len(string_split(text, ' ')))
           + 0.3 * (length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE
                    / length(text))
           + 0.3 * least(1.0, length(text) / 500.0)) * 1e6 + 0.5) / 1e6 AS quality
FROM documents
""",

        "docs_above_median_quality": """
WITH q AS (
  SELECT doc_id,
         floor((0.4 * (len(list_distinct(string_split(text, ' ')))::DOUBLE
                      / len(string_split(text, ' ')))
             + 0.3 * (length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE
                      / length(text))
             + 0.3 * least(1.0, length(text) / 500.0)) * 1e6 + 0.5) / 1e6
           AS quality
  FROM documents),
m AS (SELECT quantile_disc(quality, 0.5) AS p50 FROM q)
SELECT q.doc_id, q.quality FROM q, m WHERE q.quality > m.p50
""",

        "lang_counts": "SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang",

        # exact SQL mirror of the LangId heuristic (stages/text.py):
        # marker-hit ratios, dict-order argmax with strict-> tie-break,
        # CJK short-circuit, 1e-6 floor-grid confidence
        "langid_pred": r"""
WITH t AS (
  SELECT doc_id,
         regexp_matches(text, '[\x{4e00}-\x{9fff}]') AS cjk,
         list_filter(string_split_regex(lower(text), '\s+'),
                     x -> x <> '') AS toks
  FROM documents
),
s AS (
  SELECT doc_id, cjk, len(toks) AS n,
    CASE WHEN len(toks) = 0 THEN 0.0 ELSE
      len(list_filter(toks, x -> x IN
        ('the','and','of','to','a','in','is','it','for','on')))::DOUBLE
      / len(toks) END AS s_en,
    CASE WHEN len(toks) = 0 THEN 0.0 ELSE
      len(list_filter(toks, x -> x IN
        ('der','die','das','und','ist','nicht','ein','mit','zu')))::DOUBLE
      / len(toks) END AS s_de,
    CASE WHEN len(toks) = 0 THEN 0.0 ELSE
      len(list_filter(toks, x -> x IN
        ('el','la','de','que','y','en','un','por','con','para')))::DOUBLE
      / len(toks) END AS s_es,
    CASE WHEN len(toks) = 0 THEN 0.0 ELSE
      len(list_filter(toks, x -> x IN
        ('le','la','les','de','et','un','une','est','pour','que')))::DOUBLE
      / len(toks) END AS s_fr
  FROM t
)
SELECT doc_id,
  CASE WHEN cjk THEN 'zh'
       WHEN n = 0 OR greatest(s_en, s_de, s_es, s_fr) = 0.0 THEN 'und'
       WHEN s_en >= greatest(s_de, s_es, s_fr) THEN 'en'
       WHEN s_de >= greatest(s_es, s_fr) THEN 'de'
       WHEN s_es >= s_fr THEN 'es'
       ELSE 'fr' END AS lang_pred,
  CASE WHEN cjk THEN 1.0
       ELSE floor(greatest(s_en, s_de, s_es, s_fr) * 1e6 + 0.5) / 1e6
       END AS confidence
FROM s
""",

        # exact SQL mirror of the winnowing fingerprint (stages/text.py):
        # Rabin-Karp base-257 mod 2^61-1 over 8-char windows (the polynomial
        # is evaluated with inlined 257^k constants; residues agree because
        # mod distributes over the sum), then min per non-overlapping
        # 16-hash chunk
        "winnow_fingerprints": """
WITH cp AS (
  SELECT doc_id,
         list_transform(generate_series(1, length(text)),
                        i -> CAST(unicode(substring(text, i, 1)) AS HUGEINT)) AS cs,
         length(text) AS n
  FROM documents
  WHERE length(text) >= 8
),
h AS (
  SELECT doc_id, p,
         CAST((cs[p] * 74051159531521793 + cs[p+1] * 288136807515649
             + cs[p+2] * 1121154893057 + cs[p+3] * 4362470401
             + cs[p+4] * 16974593 + cs[p+5] * 66049
             + cs[p+6] * 257 + cs[p+7])
              % 2305843009213693951 AS BIGINT) AS hv
  FROM cp, UNNEST(generate_series(1, n - 7)) t(p)
)
SELECT doc_id, CAST((p - 1) // 16 AS BIGINT) AS chunk, min(hv) AS h
FROM h GROUP BY doc_id, chunk
""",

        # SimHash is SQL-reproducible because the shingle hash is DuckDB's
        # md5_number_lower (engine mirror: md5 digest low 8 bytes LE).
        # Hamming<=3 blocking is complete (pigeonhole over 4x16-bit blocks),
        # so the engine output is exactly all pairs with Hamming<=3.
        "simhash_dup_pairs": f"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + {_DUP_OFFSET}, text FROM documents
),
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM aug
        WHERE length(text) > 0),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    CASE WHEN len(ts) < 2 THEN [array_to_string(ts, ' ')]
         ELSE list_transform(generate_series(1, len(ts) - 1),
                             i -> ts[i] || ' ' || ts[i+1]) END)) AS g
  FROM tok
),
hb AS (SELECT doc_id, md5_number_lower(g) AS h FROM sh),
bits AS (
  SELECT doc_id, b.b,
         sum(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM hb, generate_series(0, 63) b(b)
  GROUP BY 1, 2
),
sig0 AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN v > 0 THEN
                    CASE WHEN b = 63 THEN CAST(-9223372036854775808 AS HUGEINT)
                         ELSE CAST(1 AS HUGEINT) << b END
                  ELSE 0 END) AS BIGINT) AS s
  FROM bits GROUP BY doc_id
),
sig AS (SELECT a.doc_id, coalesce(s0.s, 0) AS s
        FROM aug a LEFT JOIN sig0 s0 USING (doc_id))
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(bit_count(xor(x.s, y.s)) AS BIGINT) AS hamming
FROM sig x JOIN sig y ON x.doc_id < y.doc_id
WHERE bit_count(xor(x.s, y.s)) <= 3
""",

        # LSH ANN with hash-derived +-1 planes (similarity.HashSignLSH):
        # buckets, 1-bit multiprobe, and top-k within probed buckets are all
        # mirrored exactly; query_id is the query's own vec_id
        "lsh_ann_topk": f"""
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v, len(embedding) AS nd
           FROM embeddings),
xq AS (SELECT vec_id,
              list_transform(v, x -> floor(x * 1000.0 + 0.5)) AS xv
       FROM e),
planes AS (
  SELECT p.p, list_transform(generate_series(1, (SELECT max(nd) FROM e)),
      d -> CASE WHEN md5_number_lower(CAST(p.p AS VARCHAR) || '_'
                                      || CAST(d - 1 AS VARCHAR)) % 2 = 1
                THEN 1 ELSE -1 END) AS w
  FROM generate_series(0, 7) p(p)
),
sigs AS (
  SELECT x.vec_id,
         CAST(sum(CASE WHEN list_inner_product(x.xv, pl.w) > 0
                       THEN 1 << pl.p ELSE 0 END) AS BIGINT) AS bucket
  FROM xq x, planes pl GROUP BY x.vec_id
),
q AS (SELECT vec_id AS query_id FROM embeddings ORDER BY vec_id
      LIMIT {_N_QUERIES}),
qp AS (
  SELECT q.query_id,
         CASE WHEN f.f < 0 THEN s.bucket
              ELSE xor(s.bucket, CAST(1 << f.f AS BIGINT)) END AS probe
  FROM q JOIN sigs s ON s.vec_id = q.query_id,
       generate_series(-1, 7) f(f)
),
cand AS (SELECT DISTINCT qp.query_id, s.vec_id
         FROM qp JOIN sigs s ON s.bucket = qp.probe),
sims AS (
  SELECT c.query_id, c.vec_id,
         list_inner_product(qe.v, ce.v)
         / (sqrt(list_inner_product(qe.v, qe.v))
            * sqrt(list_inner_product(ce.v, ce.v))) AS s
  FROM cand c
  JOIN e qe ON qe.vec_id = c.query_id
  JOIN e ce ON ce.vec_id = c.vec_id
)
SELECT query_id, vec_id, floor(s * 1e5 + 0.5) / 1e5 AS score
FROM sims
QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY s DESC, vec_id)
        <= {_TOPK}
""",

        "exact_dedup": f"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + {_DUP_OFFSET}, text FROM documents
)
SELECT min(doc_id) AS doc_id, text FROM aug GROUP BY text
""",

        "ngram_jaccard_pairs": f"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + {_DUP_OFFSET},
         array_to_string(list_transform(string_split(text, ' '),
             (w, i) -> CASE WHEN i % 10 = 0 THEN 'xq7' ELSE w END), ' ')
  FROM documents
),
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM aug),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
         ELSE list_transform(generate_series(1, len(ts) - 2),
                             i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
    END)) AS g
  FROM tok
),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
pairs AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS c
  FROM sh s1 JOIN sh s2 ON s1.g = s2.g AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
)
SELECT a, b, floor(c::DOUBLE / (ca.n + cb.n - c) * 1e6 + 0.5) / 1e6 AS jaccard
FROM pairs
JOIN cnt ca ON ca.doc_id = a
JOIN cnt cb ON cb.doc_id = b
WHERE c::DOUBLE / (ca.n + cb.n - c) >= 0.5
""",

        # Directed containment (Broder): c / n_src >= 0.9, both
        # directions emitted independently — mirrors
        # stages/dedup.py::containment_pairs over the superset fixture
        "containment_pairs": f"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + {_DUP_OFFSET},
         text || ' qq' || doc_id || ' ww' || doc_id
              || ' ee' || doc_id || ' rr' || doc_id
  FROM documents
),
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM aug),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
         ELSE list_transform(generate_series(1, len(ts) - 2),
                             i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
    END)) AS g
  FROM tok
),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
pairs AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS c
  FROM sh s1 JOIN sh s2 ON s1.g = s2.g AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
),
sel AS (
  SELECT a, b, c, ca.n AS na, cb.n AS nb
  FROM pairs JOIN cnt ca ON ca.doc_id = a JOIN cnt cb ON cb.doc_id = b
)
SELECT a AS src, b AS dst,
       floor(c::DOUBLE / na * 1e6 + 0.5) / 1e6 AS containment
FROM sel WHERE c::DOUBLE / na >= 0.9
UNION ALL
SELECT b, a, floor(c::DOUBLE / nb * 1e6 + 0.5) / 1e6
FROM sel WHERE c::DOUBLE / nb >= 0.9
""",

        # Media->caption alignment over interleaved spans — mirrors
        # stages/multimodal.py::caption_pairs over the paragraph+image
        # span fixture (text paras at even seq, inline image at
        # 2*(doc_id % n_paras)+1, doc-final image at 2*n_paras on
        # doc_id % 3 == 0)
        "caption_pairs": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
iw AS (SELECT doc_id, ws,
              unnest(generate_series(1, CAST(ceil(len(ws)/8.0) AS BIGINT)))
                AS i
       FROM w),
paras AS (SELECT doc_id, i - 1 AS pidx,
                 array_to_string(ws[(i-1)*8+1 : (i-1)*8+8], ' ') AS ptext
          FROM iw),
np AS (SELECT doc_id, count(*) AS p FROM paras GROUP BY doc_id),
spans AS (
  SELECT doc_id, 2 * pidx AS seq, 'text' AS kind, ptext AS text,
         NULL AS media_ref
  FROM paras
  UNION ALL
  SELECT doc_id, 2 * (doc_id % p) + 1, 'image', NULL,
         'm/' || doc_id || '-a.png'
  FROM np
  UNION ALL
  SELECT doc_id, 2 * p, 'image', NULL, 'm/' || doc_id || '-b.png'
  FROM np WHERE doc_id % 3 = 0
),
media AS (SELECT doc_id, seq, media_ref FROM spans WHERE kind <> 'text'),
txt AS (SELECT doc_id, seq, text FROM spans WHERE kind = 'text'),
nxt AS (SELECT m.doc_id, m.seq, min(t.seq) AS cs
        FROM media m JOIN txt t
          ON t.doc_id = m.doc_id AND t.seq > m.seq
        GROUP BY 1, 2),
prv AS (SELECT m.doc_id, m.seq, max(t.seq) AS cs
        FROM media m JOIN txt t
          ON t.doc_id = m.doc_id AND t.seq < m.seq
        GROUP BY 1, 2)
SELECT m.doc_id, m.seq, m.media_ref,
       coalesce(n.cs, p.cs, -1) AS cap_seq,
       CASE WHEN n.cs IS NOT NULL THEN 'after'
            WHEN p.cs IS NOT NULL THEN 'before' ELSE 'none' END AS side,
       t.text AS caption
FROM media m
LEFT JOIN nxt n ON n.doc_id = m.doc_id AND n.seq = m.seq
LEFT JOIN prv p ON p.doc_id = m.doc_id AND p.seq = m.seq
LEFT JOIN txt t ON t.doc_id = m.doc_id AND t.seq = coalesce(n.cs, p.cs)
""",

        # Temperature (alpha=0.5) source re-balancing — mirrors
        # stages/curate.py::temperature_mix: integer micro-unit rates
        # from IEEE-exact sqrt weights, HUGEINT intermediate products,
        # Knuth-hash per-million acceptance
        "temperature_mix": """
WITH d AS (SELECT doc_id,
                  CASE WHEN doc_id % 10 < 7 THEN 'web'
                       WHEN doc_id % 10 < 9 THEN 'books'
                       ELSE 'code' END AS source
           FROM documents),
n AS (SELECT source, count(*) AS ns FROM d GROUP BY source),
w AS (SELECT source, ns,
             CAST(floor(sqrt(ns::DOUBLE) * 1e6) AS BIGINT) AS ws
      FROM n),
tot AS (SELECT CAST(sum(ns) AS HUGEINT) AS total,
               CAST(sum(ws) AS HUGEINT) AS wsum
        FROM w),
r AS (SELECT source,
             CAST(least(CAST(1000000 AS HUGEINT),
                  ((SELECT total FROM tot) // 2 * ws * 1000000)
                    // ((SELECT wsum FROM tot) * ns)) AS BIGINT)
               AS rate_micro
      FROM w)
SELECT d.doc_id, d.source, r.rate_micro,
       ((d.doc_id % 2147483648) * 2654435761 + 40503) % 4294967296
         % 1000000 AS mix_key
FROM d JOIN r ON r.source = d.source
WHERE ((d.doc_id % 2147483648) * 2654435761 + 40503) % 4294967296
        % 1000000 < r.rate_micro
""",

        # BM25 top-20 against the corpus's own top-3 terms — mirrors
        # stages/curate.py::bm25_topk: pure-integer tf normalization
        # (k1=1.2, b=0.75 multiplied through by 20*total), Lucene
        # always-positive idf on the 1e-6 grid, HUGEINT intermediates
        "bm25_topk": """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t
             FROM documents),
tc AS (SELECT t, count(*) AS c FROM tok GROUP BY t),
qt AS (SELECT t FROM tc
       QUALIFY row_number() OVER (ORDER BY c DESC, t) <= 3),
len AS (SELECT doc_id, len(string_split(text, ' ')) AS l
        FROM documents),
gl AS (SELECT count(*) AS n, sum(l) AS total FROM len),
tf AS (SELECT tok.doc_id, tok.t, count(*) AS tf
       FROM tok JOIN qt USING (t) GROUP BY 1, 2),
df AS (SELECT t, count(*) AS df FROM tf GROUP BY t),
idf AS (SELECT t,
               CAST(floor(ln(1 + (gl.n - df + 0.5) / (df + 0.5))
                          * 1e6 + 0.5) AS BIGINT) AS idf_micro
        FROM df, gl),
tfp AS (SELECT f.doc_id, f.t,
               CAST((CAST(44 AS HUGEINT) * f.tf * gl.total * 1000000)
                    // (CAST(20 AS HUGEINT) * f.tf * gl.total
                        + 6 * gl.total + 18 * len.l * gl.n) AS BIGINT)
                 AS tfp_micro
        FROM tf f JOIN len USING (doc_id), gl),
sc AS (SELECT doc_id,
              sum((i.idf_micro * p.tfp_micro) // 1000000) AS s
       FROM tfp p JOIN idf i USING (t) GROUP BY doc_id)
SELECT doc_id, CAST(s AS BIGINT) AS score FROM sc
QUALIFY row_number() OVER (ORDER BY s DESC, doc_id) <= 20
""",

        # Per-language unigram entropy in micro-nats — mirrors
        # stages/curate.py::unigram_entropy: H = ln(N) - (1/N) sum
        # c*ln(c), every ln snapped to the 1e-6 grid, HUGEINT sums
        "unigram_entropy": """
WITH tok AS (SELECT lang, unnest(string_split(text, ' ')) AS t
             FROM documents),
tc AS (SELECT lang, t, count(*) AS c FROM tok GROUP BY 1, 2),
s AS (SELECT lang, sum(c) AS n,
             sum(c * CAST(floor(ln(c) * 1e6 + 0.5) AS BIGINT)) AS sc
      FROM tc GROUP BY lang)
SELECT lang, CAST(n AS BIGINT) AS n_tokens,
       CAST(floor(ln(CAST(n AS DOUBLE)) * 1e6 + 0.5) AS BIGINT)
         - CAST(sc // n AS BIGINT) AS entropy_micro
FROM s ORDER BY lang
""",

        # Per-doc novelty: fraction of the doc's distinct 3-shingles
        # with global df = 1, exact micro-units — mirrors
        # stages/dedup.py::doc_novelty
        "doc_novelty": """
WITH tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
         ELSE list_transform(generate_series(1, len(ts) - 2),
                             i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
    END)) AS g
  FROM tok
),
df AS (SELECT g, count(*) AS df FROM sh GROUP BY g),
per AS (SELECT s.doc_id, count(*) AS n,
               sum(CASE WHEN df.df = 1 THEN 1 ELSE 0 END) AS novel
        FROM sh s JOIN df ON df.g = s.g GROUP BY 1)
SELECT doc_id, CAST(n AS BIGINT) AS n_shingles,
       CAST(novel * 1000000 // greatest(n, 1) AS BIGINT) AS novelty_micro
FROM per
""",

        # Asset-level media dedup manifest — mirrors
        # stages/multimodal.py::media_asset_dedup over the repeating-
        # asset fixture (blob md5 = md5 of the same printf both sides)
        "media_asset_dedup": """
WITH m AS (
  SELECT doc_id, md5('asset-' || (doc_id % 37)) AS media_md5
  FROM documents
  UNION ALL
  SELECT doc_id, md5('asset-' || (doc_id % 37))
  FROM documents WHERE doc_id % 5 = 0
)
SELECT media_md5, min(doc_id) AS owner_doc,
       count(*) AS n_refs, count(DISTINCT doc_id) AS n_docs
FROM m GROUP BY media_md5
""",

        # Per-host crawl accounting — mirrors
        # pipelines/docweb.py::docweb_host_stats: the oracle re-derives
        # the host routing the crawler actually performed
        "crawl_host_stats": f"""
WITH {_PARAMS}
SELECT printf('h%03d.docweb.test', CAST(doc_id % p.h AS INT)) AS host,
       count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS total_chars
FROM documents, params p GROUP BY 1
""",

        # Readability-style main-content extraction — mirrors
        # stages/text.py::MainContentExtract over the boilerplate-page
        # fixture: the article block always wins the link-density score
        # (nav -15, ad div -19, footer -9, article >= len(p1) - 3), so
        # the oracle reconstructs the winning block's text and score
        "main_content": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
s AS (SELECT doc_id, ws, (len(ws) + 1) // 2 AS h, len(ws) AS n FROM w),
parts AS (SELECT doc_id,
                 array_to_string(ws[1:h], ' ') AS p1,
                 CASE WHEN n > h THEN array_to_string(ws[h+1:n], ' ')
                      ELSE '' END AS p2,
                 doc_id % 4 = 0 AS has_link
          FROM s)
SELECT doc_id,
       p1 || CASE WHEN p2 <> '' THEN ' ' || p2 ELSE '' END
          || CASE WHEN has_link THEN ' ref' ELSE '' END AS main_text,
       CAST(length(p1) + length(p2)
            - CASE WHEN has_link THEN 3 ELSE 0 END AS BIGINT) AS score
FROM parts
""",

        # Cross-source shingle contamination matrix — mirrors
        # stages/dedup.py::source_overlap: distinct shared 3-shingles
        # per unordered source pair
        "source_overlap": """
WITH tok AS (SELECT source, string_split(text, ' ') AS ts FROM documents),
sh AS (
  SELECT DISTINCT source, g FROM (
    SELECT source, unnest(list_distinct(
      CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
           ELSE list_transform(generate_series(1, len(ts) - 2),
                               i -> ts[i] || ' ' || ts[i+1] || ' '
                                    || ts[i+2])
      END)) AS g
    FROM tok)
)
SELECT a.source AS src_a, b.source AS src_b,
       count(*) AS shared_shingles
FROM sh a JOIN sh b ON a.g = b.g AND a.source < b.source
GROUP BY 1, 2
""",

        "embedding_dup_pairs": f"""
WITH aug AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + {_EMB_OFFSET}, embedding FROM embeddings
  WHERE vec_id < {_EMB_COPY_N}
),
n AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM aug)
SELECT a.vec_id AS a, b.vec_id AS b,
       floor(list_inner_product(a.e, b.e)
             / (sqrt(list_inner_product(a.e, a.e))
                * sqrt(list_inner_product(b.e, b.e))) * 1e5 + 0.5) / 1e5 AS cosine
FROM n a JOIN n b ON a.vec_id < b.vec_id
WHERE list_inner_product(a.e, b.e)
      / (sqrt(list_inner_product(a.e, a.e))
         * sqrt(list_inner_product(b.e, b.e))) >= 0.999
""",

        "ann_topk": f"""
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e
      WHERE vec_id IN (SELECT vec_id FROM embeddings ORDER BY vec_id
                       LIMIT {_N_QUERIES})),
sims AS (
  SELECT q.query_id, e.vec_id,
         list_inner_product(qv, v)
         / (sqrt(list_inner_product(qv, qv))
            * sqrt(list_inner_product(v, v))) AS s
  FROM q, e WHERE e.vec_id <> q.query_id
)
SELECT query_id, vec_id, floor(s * 1e5 + 0.5) / 1e5 AS score
FROM sims
QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY s DESC, vec_id)
        <= {_TOPK}
""",
        # media plumbing: the decode itself is stubbed (no PIL/ffmpeg), but
        # the deterministic fake bytes are md5(media_ref) and the feature
        # projection is hash-derived, so the whole output is SQL-checkable
        "media_features": f"""
WITH {_PARAMS},
media AS (
  SELECT printf('https://h%03d.docweb.test/media/%d.png',
                CAST(d.doc_id % p.h AS INT), d.doc_id) AS media_ref
  FROM documents d, params p
),
hx AS (SELECT media_ref, md5(media_ref) AS hex FROM media),
bytes AS (
  SELECT media_ref, i,
         strpos('0123456789abcdef', substr(hex, 2*i+1, 1)) * 16
         + strpos('0123456789abcdef', substr(hex, 2*i+2, 1)) - 17 AS b
  FROM hx, UNNEST(generate_series(0, 15)) t(i)
),
wh AS (
  SELECT media_ref,
         CAST(16 + max(CASE WHEN i = 0 THEN b END) % 64 AS INTEGER) AS width,
         CAST(16 + max(CASE WHEN i = 1 THEN b END) % 64 AS INTEGER) AS height
  FROM bytes GROUP BY media_ref
),
proj AS (
  SELECT i.i, j.j,
         (CAST(md5_number_lower(CAST(i.i AS VARCHAR) || '_'
                                || CAST(j.j AS VARCHAR) || '_proj')
               % 2001 AS BIGINT) - 1000) / 1000.0 AS w
  FROM generate_series(0, 15) i(i), generate_series(0, 15) j(j)
),
feat AS (
  SELECT b.media_ref, p.j,
         floor(sum(b.b * p.w) / 255.0 * 1e6 + 0.5) / 1e6 AS feature
  FROM bytes b JOIN proj p ON p.i = b.i
  GROUP BY 1, 2
)
SELECT w.media_ref, w.width, w.height,
       f.j AS feature_idx, f.feature
FROM wh w JOIN feat f ON f.media_ref = w.media_ref
""",

        # Gopher-style repetition signals; tokenization is the repo-wide
        # string_split(text, ' ') convention, fracs on the 1e-6 grid
        "repetition_stats": """
WITH tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
base AS (SELECT doc_id, ts, len(ts) AS n FROM tok),
top AS (
  SELECT doc_id, max(c) AS m FROM (
    SELECT doc_id, tok, count(*) AS c
    FROM (SELECT doc_id, unnest(ts) AS tok FROM tok) GROUP BY 1, 2)
  GROUP BY doc_id
)
SELECT b.doc_id,
  floor(t.m::DOUBLE / b.n * 1e6 + 0.5) / 1e6 AS top_token_frac,
  CASE WHEN b.n < 2 THEN 0.0
       ELSE floor((1 - len(list_distinct(list_transform(
                generate_series(1, b.n - 1),
                i -> b.ts[i] || ' ' || b.ts[i+1])))::DOUBLE / (b.n - 1))
            * 1e6 + 0.5) / 1e6 END AS dup_2gram_frac,
  CASE WHEN b.n < 3 THEN 0.0
       ELSE floor((1 - len(list_distinct(list_transform(
                generate_series(1, b.n - 2),
                i -> b.ts[i] || ' ' || b.ts[i+1] || ' ' || b.ts[i+2])))::DOUBLE
                / (b.n - 2)) * 1e6 + 0.5) / 1e6 END AS dup_3gram_frac
FROM base b JOIN top t USING (doc_id)
""",

        # deterministic Bernoulli sample by key — int64-safe arithmetic
        # (key folded below 2^31 so key*2654435761 < 2^63)
        "hash_sample": """
SELECT doc_id, lang,
       ((doc_id % 2147483648) * 2654435761 + 40503) % 4294967296 % 1000
         AS sample_key
FROM documents
WHERE ((doc_id % 2147483648) * 2654435761 + 40503) % 4294967296 % 1000 < 100
""",

        # streaming chunk-packing: bin = exclusive prefix sum // budget in
        # doc_id order (engine: two-pass distributed prefix sum)
        "pack_sequences": """
WITH n AS (SELECT doc_id, len(string_split(text, ' ')) AS n_tokens
           FROM documents)
SELECT doc_id, n_tokens,
       CAST((sum(n_tokens) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
             - n_tokens) // 512 AS BIGINT) AS seq_bin
FROM n
""",

        # fuzzy-dedup cluster assignment: connected components over the
        # verified near-dup pairs (engine: hash-min label propagation;
        # oracle: recursive transitive closure + min reachable id)
        "dup_clusters": f"""
WITH RECURSIVE aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + {_DUP_OFFSET},
         array_to_string(list_transform(string_split(text, ' '),
             (w, i) -> CASE WHEN i % 10 = 0 THEN 'xq7' ELSE w END), ' ')
  FROM documents
),
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM aug),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
         ELSE list_transform(generate_series(1, len(ts) - 2),
                             i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
    END)) AS g
  FROM tok
),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
pairs AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS c
  FROM sh s1 JOIN sh s2 ON s1.g = s2.g AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
),
jp AS (
  SELECT a, b FROM pairs
  JOIN cnt ca ON ca.doc_id = a
  JOIN cnt cb ON cb.doc_id = b
  WHERE c::DOUBLE / (ca.n + cb.n - c) >= 0.5
),
edges AS (SELECT a AS x, b AS y FROM jp UNION SELECT b, a FROM jp),
reach AS (
  SELECT x, y FROM edges
  UNION
  SELECT r.x, e.y FROM reach r JOIN edges e ON e.x = r.y
)
SELECT a.doc_id,
       least(a.doc_id, coalesce(min(r.y), a.doc_id)) AS cluster_id
FROM aug a LEFT JOIN reach r ON r.x = a.doc_id
GROUP BY a.doc_id
""",

        # corpus-level exact paragraph dedup (CCNet-style boilerplate
        # removal): keep the globally first occurrence of each non-empty
        # paragraph, reassemble docs; 1048576 = 2**pos_bits packed order
        # key, exactly the engine's doc_id*2^20 + pos
        # HyperLogLog distinct 3-shingles — register math mirrored in
        # integer space (see stages/sketch.py docstring): md5_number_lower
        # hash, binary-string length for the exact leading-zero count, a
        # HUGEINT indicator sum (order-independent), and the same 3-op
        # IEEE tail + 1e-4 snap on both sides
        # interleaved text+media packing: cost = 4 fixed span tokens +
        # body tokens + 16 media patch tokens; streaming exclusive
        # prefix-sum bin over doc_id order
        "quality_weighted_sample": """
WITH q AS (
  SELECT doc_id,
         floor((0.4 * (len(list_distinct(string_split(text, ' ')))::DOUBLE
                      / len(string_split(text, ' ')))
             + 0.3 * (length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE
                      / length(text))
             + 0.3 * least(1.0, length(text) / 500.0)) * 1e6 + 0.5) / 1e6
           AS quality
  FROM documents),
w AS (SELECT doc_id, quality,
             CAST(floor(quality * 1000.0) AS BIGINT) AS w_permille,
             ((doc_id % 2147483648) * 2654435761 + 40503) % 4294967296
               % 1000 AS sample_key
      FROM q)
SELECT doc_id, quality, w_permille, CAST(sample_key AS BIGINT) AS sample_key
FROM w WHERE sample_key < w_permille
""",

        "pack_interleaved": """
WITH c AS (
  SELECT doc_id,
         4 + 16 + len(string_split(text, ' ')) AS cost
  FROM documents)
SELECT doc_id, cost,
       (sum(cost) OVER (ORDER BY doc_id
                        ROWS UNBOUNDED PRECEDING) - cost) // 1024
         AS seq_bin
FROM c
""",

        "distinct_shingles_hll": """
WITH tok AS (SELECT list_filter(string_split(text, ' '), x -> x <> '') AS ts
             FROM documents),
sh AS (
  SELECT unnest(list_transform(generate_series(1, len(ts) - 2),
                i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])) AS g
  FROM tok WHERE len(ts) >= 3
),
br AS (SELECT CAST(md5_number_lower(g) // 4503599627370496 AS BIGINT) AS b,
              CAST(md5_number_lower(g) % 4503599627370496 AS BIGINT) AS w
       FROM sh),
rho AS (SELECT b, CASE WHEN w = 0 THEN 53
                       ELSE 53 - length(format('{:b}', w)) END AS r
        FROM br),
regs AS (SELECT b, max(r) AS r FROM rho GROUP BY b),
allregs AS (SELECT gs.i AS b, coalesce(regs.r, 0) AS r
         FROM generate_series(0, 4095) gs(i)
         LEFT JOIN regs ON regs.b = gs.i),
agg AS (SELECT sum(CAST(power(2, 64 - r) AS HUGEINT)) AS s,
               count(*) FILTER (WHERE r = 0) AS v
        FROM allregs),
raw AS (SELECT v,
               ((0.7213 / (1.0 + 1.079 / 4096.0)) * 4096.0 * 4096.0
                * 18446744073709551616.0) / CAST(s AS DOUBLE) AS e
        FROM agg)
SELECT CAST(4096 AS BIGINT) AS m, v AS v_zero,
       floor(CASE WHEN v > 0 AND e <= 10240.0
                  THEN 4096.0 * ln(4096.0 / CAST(v AS DOUBLE))
                  ELSE e END * 1e4 + 0.5) / 1e4 AS est
FROM raw
""",

        "doc_pagerank": """
WITH n AS (SELECT count(*) AS n FROM documents),
e AS (SELECT d.doc_id % n.n AS src,
             (d.doc_id + d.j * d.j * 7919 + 13) % n.n AS dst
      FROM (SELECT doc_id,
                   unnest(generate_series(1, 1 + doc_id % 3)) AS j
            FROM documents) d, n),
deg AS (SELECT src, count(*) AS outdeg FROM e GROUP BY src),
r0 AS (SELECT doc_id AS node, CAST(1000000000 AS BIGINT) AS rank
       FROM documents),
c1 AS (SELECT e.dst AS node, sum(r.rank // deg.outdeg) AS s
         FROM e JOIN r0 r ON r.node = e.src
                JOIN deg ON deg.src = e.src
         GROUP BY e.dst),
r1 AS (SELECT r.node,
                CAST(150000000 + (coalesce(c.s, 0) * 850) // 1000
                     AS BIGINT) AS rank
         FROM r0 r LEFT JOIN c1 c ON c.node = r.node),
c2 AS (SELECT e.dst AS node, sum(r.rank // deg.outdeg) AS s
         FROM e JOIN r1 r ON r.node = e.src
                JOIN deg ON deg.src = e.src
         GROUP BY e.dst),
r2 AS (SELECT r.node,
                CAST(150000000 + (coalesce(c.s, 0) * 850) // 1000
                     AS BIGINT) AS rank
         FROM r1 r LEFT JOIN c2 c ON c.node = r.node),
c3 AS (SELECT e.dst AS node, sum(r.rank // deg.outdeg) AS s
         FROM e JOIN r2 r ON r.node = e.src
                JOIN deg ON deg.src = e.src
         GROUP BY e.dst),
r3 AS (SELECT r.node,
                CAST(150000000 + (coalesce(c.s, 0) * 850) // 1000
                     AS BIGINT) AS rank
         FROM r2 r LEFT JOIN c3 c ON c.node = r.node),
c4 AS (SELECT e.dst AS node, sum(r.rank // deg.outdeg) AS s
         FROM e JOIN r3 r ON r.node = e.src
                JOIN deg ON deg.src = e.src
         GROUP BY e.dst),
r4 AS (SELECT r.node,
                CAST(150000000 + (coalesce(c.s, 0) * 850) // 1000
                     AS BIGINT) AS rank
         FROM r3 r LEFT JOIN c4 c ON c.node = r.node),
c5 AS (SELECT e.dst AS node, sum(r.rank // deg.outdeg) AS s
         FROM e JOIN r4 r ON r.node = e.src
                JOIN deg ON deg.src = e.src
         GROUP BY e.dst),
r5 AS (SELECT r.node,
                CAST(150000000 + (coalesce(c.s, 0) * 850) // 1000
                     AS BIGINT) AS rank
         FROM r4 r LEFT JOIN c5 c ON c.node = r.node)
SELECT node, rank FROM r5
""",

        "event_users_hll": """
WITH br AS (
  SELECT event_type,
         CAST(md5_number_lower(CAST(user_id AS VARCHAR))
              // 4503599627370496 AS BIGINT) AS b,
         CAST(md5_number_lower(CAST(user_id AS VARCHAR))
              % 4503599627370496 AS BIGINT) AS w
  FROM events),
rho AS (SELECT event_type, b,
               CASE WHEN w = 0 THEN 53
                    ELSE 53 - length(format('{:b}', w)) END AS r
        FROM br),
regs AS (SELECT event_type, b, max(r) AS r FROM rho GROUP BY 1, 2),
keys AS (SELECT DISTINCT event_type FROM events),
allregs AS (SELECT k.event_type, gs.i AS b, coalesce(regs.r, 0) AS r
            FROM keys k CROSS JOIN generate_series(0, 4095) gs(i)
            LEFT JOIN regs ON regs.event_type = k.event_type
                          AND regs.b = gs.i),
agg AS (SELECT event_type, sum(CAST(power(2, 64 - r) AS HUGEINT)) AS s,
               count(*) FILTER (WHERE r = 0) AS v
        FROM allregs GROUP BY 1),
raw AS (SELECT event_type, v,
               ((0.7213 / (1.0 + 1.079 / 4096.0)) * 4096.0 * 4096.0
                * 18446744073709551616.0) / CAST(s AS DOUBLE) AS e
        FROM agg)
SELECT event_type, CAST(4096 AS BIGINT) AS m, v AS v_zero,
       floor(CASE WHEN v > 0 AND e <= 10240.0
                  THEN 4096.0 * ln(4096.0 / CAST(v AS DOUBLE))
                  ELSE e END * 1e4 + 0.5) / 1e4 AS est
FROM raw
""",

        "strip_boilerplate": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
iw AS (SELECT doc_id, ws,
              unnest(generate_series(1, CAST(ceil(len(ws)/8.0) AS BIGINT)))
                AS i
       FROM w),
chunks AS (SELECT doc_id, i,
                  array_to_string(ws[(i-1)*8+1 : (i-1)*8+8], ' ') AS p
           FROM iw),
body AS (SELECT doc_id, string_agg(p, chr(10) ORDER BY i) AS btext
         FROM chunks GROUP BY doc_id),
aug AS (
  SELECT doc_id,
         'copyright footer example org' || chr(10) || btext ||
         CASE WHEN doc_id % 3 = 0
              THEN chr(10) || 'subscribe to our newsletter today'
              ELSE '' END AS text
  FROM body),
paras AS (
  SELECT doc_id, generate_subscripts(l, 1) AS pos, unnest(l) AS p
  FROM (SELECT doc_id, string_split(text, chr(10)) AS l FROM aug)),
nz AS (SELECT doc_id, pos, p FROM paras WHERE p <> ''),
n AS (SELECT count(*) AS n_docs FROM aug),
df AS (SELECT p, count(DISTINCT doc_id) AS df FROM nz GROUP BY p),
kept AS (SELECT nz.doc_id, nz.pos, nz.p
         FROM nz JOIN df ON nz.p = df.p, n
         WHERE df.df * 1000 < 500 * n.n_docs),
rebuilt AS (SELECT doc_id,
                   string_agg(p, chr(10) ORDER BY pos) AS clean_text,
                   count(*) AS n_kept
            FROM kept GROUP BY doc_id),
meta AS (SELECT doc_id,
                len(list_filter(string_split(text, chr(10)),
                                x -> x <> '')) AS n_units
         FROM aug)
SELECT m.doc_id, coalesce(r.clean_text, '') AS clean_text,
       m.n_units, coalesce(r.n_kept, 0) AS n_kept
FROM meta m LEFT JOIN rebuilt r USING (doc_id)
""",

        "dedup_paragraphs": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
iw AS (SELECT doc_id, ws,
              unnest(generate_series(1, CAST(ceil(len(ws)/8.0) AS BIGINT)))
                AS i
       FROM w),
chunks AS (SELECT doc_id, i,
                  array_to_string(ws[(i-1)*8+1 : (i-1)*8+8], ' ') AS p
           FROM iw),
body AS (SELECT doc_id, string_agg(p, chr(10) ORDER BY i) AS btext
         FROM chunks GROUP BY doc_id),
aug AS (
  SELECT doc_id,
         'copyright footer example org' || chr(10) || btext ||
         CASE WHEN doc_id % 3 = 0
              THEN chr(10) || 'subscribe to our newsletter today'
              ELSE '' END AS text
  FROM body),
paras AS (
  SELECT doc_id, generate_subscripts(l, 1) AS pos, unnest(l) AS p
  FROM (SELECT doc_id, string_split(text, chr(10)) AS l FROM aug)),
nz AS (SELECT doc_id, pos, p, doc_id * 1048576 + pos AS ord
       FROM paras WHERE p <> ''),
keep AS (SELECT p, min(ord) AS k FROM nz GROUP BY p),
kept AS (SELECT nz.doc_id, nz.pos, nz.p
         FROM nz JOIN keep ON nz.p = keep.p AND nz.ord = keep.k),
rebuilt AS (SELECT doc_id,
                   string_agg(p, chr(10) ORDER BY pos) AS clean_text,
                   count(*) AS n_kept
            FROM kept GROUP BY doc_id),
meta AS (SELECT doc_id,
                len(list_filter(string_split(text, chr(10)),
                                x -> x <> '')) AS n_paras
         FROM aug)
SELECT m.doc_id, coalesce(r.clean_text, '') AS clean_text,
       m.n_paras, coalesce(r.n_kept, 0) AS n_kept
FROM meta m LEFT JOIN rebuilt r USING (doc_id)
""",

        # sequential PII redaction — emails, then phones over the
        # redacted text, then IPv4; both engines are RE2 so counts and
        # replacements reproduce bit-for-bit
        "pii_scrub": """
WITH aug AS (
  SELECT doc_id, text ||
    CASE WHEN doc_id % 4 = 0
         THEN ' contact user' || doc_id || '@example.org now'
         ELSE '' END ||
    CASE WHEN doc_id % 5 = 0
         THEN ' call 555-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
              || ' now'
         ELSE '' END ||
    CASE WHEN doc_id % 7 = 0
         THEN ' from 10.0.' || (doc_id % 256) || '.' || (doc_id % 100)
              || ' end'
         ELSE '' END AS text
  FROM documents),
s1 AS (SELECT doc_id,
              len(regexp_extract_all(text, '""" + _PII_EMAIL + """'))
                AS n_emails,
              regexp_replace(text, '""" + _PII_EMAIL + """', '<EMAIL>', 'g')
                AS t1
       FROM aug),
s2 AS (SELECT doc_id, n_emails,
              len(regexp_extract_all(t1, '""" + _PII_PHONE + """'))
                AS n_phones,
              regexp_replace(t1, '""" + _PII_PHONE + """', '<PHONE>', 'g')
                AS t2
       FROM s1)
SELECT doc_id,
       regexp_replace(t2, '""" + _PII_IP + """', '<IP>', 'g') AS clean_text,
       n_emails, n_phones,
       len(regexp_extract_all(t2, '""" + _PII_IP + """')) AS n_ips
FROM s2
""",

        # end-to-end curation composite: paragraph chunking + PII
        # injection -> sequential scrub -> corpus paragraph dedup ->
        # half-unique keep filter -> deterministic sequence packing;
        # every stage reuses the single-operator oracle definitions
        "curate_corpus": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
iw AS (SELECT doc_id, ws,
              unnest(generate_series(1, CAST(ceil(len(ws)/8.0) AS BIGINT)))
                AS i
       FROM w),
chunks AS (SELECT doc_id, i,
                  array_to_string(ws[(i-1)*8+1 : (i-1)*8+8], ' ') AS p
           FROM iw),
body AS (SELECT doc_id, string_agg(p, chr(10) ORDER BY i) AS btext
         FROM chunks GROUP BY doc_id),
aug0 AS (
  SELECT doc_id,
         'copyright footer example org' || chr(10) || btext ||
         CASE WHEN doc_id % 3 = 0
              THEN chr(10) || 'subscribe to our newsletter today'
              ELSE '' END AS text
  FROM body),
aug AS (
  SELECT doc_id, text ||
    CASE WHEN doc_id % 4 = 0
         THEN ' contact user' || doc_id || '@example.org now'
         ELSE '' END ||
    CASE WHEN doc_id % 5 = 0
         THEN ' call 555-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
              || ' now'
         ELSE '' END ||
    CASE WHEN doc_id % 7 = 0
         THEN ' from 10.0.' || (doc_id % 256) || '.' || (doc_id % 100)
              || ' end'
         ELSE '' END AS text
  FROM aug0),
scr AS (SELECT doc_id,
               regexp_replace(regexp_replace(regexp_replace(text,
                   '""" + _PII_EMAIL + """', '<EMAIL>', 'g'),
                   '""" + _PII_PHONE + """', '<PHONE>', 'g'),
                   '""" + _PII_IP + """', '<IP>', 'g') AS text
        FROM aug),
paras AS (
  SELECT doc_id, generate_subscripts(l, 1) AS pos, unnest(l) AS p
  FROM (SELECT doc_id, string_split(text, chr(10)) AS l FROM scr)),
nz AS (SELECT doc_id, pos, p, doc_id * 1048576 + pos AS ord
       FROM paras WHERE p <> ''),
keep AS (SELECT p, min(ord) AS k FROM nz GROUP BY p),
kept AS (SELECT nz.doc_id, nz.pos, nz.p
         FROM nz JOIN keep ON nz.p = keep.p AND nz.ord = keep.k),
rebuilt AS (SELECT doc_id,
                   string_agg(p, chr(10) ORDER BY pos) AS clean_text,
                   count(*) AS n_kept
            FROM kept GROUP BY doc_id),
meta AS (SELECT doc_id,
                len(list_filter(string_split(text, chr(10)),
                                x -> x <> '')) AS n_paras
         FROM scr),
docs2 AS (SELECT m.doc_id, coalesce(r.clean_text, '') AS text,
                 m.n_paras, coalesce(r.n_kept, 0) AS n_kept
          FROM meta m LEFT JOIN rebuilt r USING (doc_id)),
keptdocs AS (SELECT doc_id, text FROM docs2 WHERE n_kept * 2 >= n_paras),
n AS (SELECT doc_id, len(string_split(text, ' ')) AS n_tokens
      FROM keptdocs)
SELECT doc_id, n_tokens,
       CAST((sum(n_tokens) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
             - n_tokens) // 512 AS BIGINT) AS seq_bin
FROM n
""",

        # per-language top terms by smoothed reciprocal-df weight
        # (log-free so tf*(N+1) stays an exact int64 and the single IEEE
        # division reproduces bit-for-bit; ties broken on term asc, order
        # taken on the SAME 1e-6-grid score the engine sorts on)
        "tfidf_top_terms": f"""
WITH tok AS (SELECT doc_id, lang, unnest(string_split(text, ' ')) AS term
             FROM documents),
dt AS (SELECT doc_id, lang, term, count(*) AS c FROM tok GROUP BY 1, 2, 3),
tfx AS (SELECT lang, term, CAST(sum(c) AS BIGINT) AS tf FROM dt GROUP BY 1, 2),
dfx AS (SELECT term, count(*) AS df FROM dt GROUP BY 1),
nn AS (SELECT count(*) AS n FROM documents)
SELECT t.lang, t.term, t.tf, d.df,
       floor(t.tf * (nn.n + 1) / (d.df + 1) * 1e6 + 0.5) / 1e6 AS score
FROM tfx t JOIN dfx d USING (term), nn
QUALIFY row_number() OVER (PARTITION BY t.lang
    ORDER BY floor(t.tf * (nn.n + 1) / (d.df + 1) * 1e6 + 0.5) / 1e6 DESC,
             t.term) <= {_TOPK}
""",

        # point-in-time as-of join: each purchase matched to the user's
        # most recent click at-or-before it (engine: hash-bucket
        # co-location on user_id + one vectorized cummax predecessor scan
        # per bucket); gap is exact integer microseconds
        "purchase_followups": """
WITH p AS (SELECT event_id, ts, user_id FROM events
           WHERE event_type = 'purchase'),
c AS (SELECT ts AS click_ts, user_id, value FROM events
      WHERE event_type = 'click')
SELECT p.event_id, count(*) AS n_clicks,
       floor(sum(c.value) * 10000 + 0.5) / 10000 AS click_value
FROM p JOIN c
  ON p.user_id = c.user_id
 AND epoch_us(c.click_ts) BETWEEN epoch_us(p.ts) + 1
                              AND epoch_us(p.ts) + 3600000000
GROUP BY p.event_id
""",

        "purchase_attribution": """
WITH l AS (SELECT event_id, ts, user_id FROM events
           WHERE event_type = 'purchase'),
r AS (SELECT event_id AS click_event_id, ts AS click_ts, user_id
      FROM events WHERE event_type = 'click')
SELECT l.event_id, l.ts, l.user_id, r.click_ts, r.click_event_id,
       date_diff('microsecond', r.click_ts, l.ts) AS gap_us
FROM l ASOF JOIN r
  ON l.user_id = r.user_id AND r.click_ts <= l.ts
""",

        # exact per-type value quantiles, quantile_disc convention
        # (sorted element at ceil(q*n)-1 — an actual element, so equality
        # is exact with no float grid)
        "event_funnel": """
WITH s1 AS (SELECT user_id, min(epoch_us(ts)) AS t1 FROM events
            WHERE event_type = 'signup' GROUP BY 1),
s2 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS t2
       FROM events e JOIN s1 USING (user_id)
       WHERE e.event_type = 'click' AND epoch_us(e.ts) > s1.t1
       GROUP BY 1),
s3 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS t3
       FROM events e JOIN s2 USING (user_id)
       WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > s2.t2
       GROUP BY 1)
SELECT CAST(1 AS BIGINT) AS stage, count(*) AS users FROM s1
UNION ALL SELECT 2, count(*) FROM s2
UNION ALL SELECT 3, count(*) FROM s3
""",

        "retention_cohorts": """
WITH wk AS (SELECT user_id,
                   (epoch_us(ts) // 86400000000 + 3) // 7 AS week,
                   event_type
            FROM events),
cohort AS (SELECT user_id, min(week) AS cohort_week FROM wk
           WHERE event_type = 'signup' GROUP BY 1),
active AS (SELECT DISTINCT user_id, week FROM wk)
SELECT c.cohort_week, a.week, count(*) AS n_users
FROM active a JOIN cohort c USING (user_id)
WHERE a.week >= c.cohort_week
GROUP BY 1, 2
""",

        "value_quantiles_global": """
SELECT count(value) AS n,
       quantile_disc(value, 0.5) AS p50,
       quantile_disc(value, 0.9) AS p90,
       quantile_disc(value, 0.99) AS p99
FROM events
""",

        "value_quantiles": """
SELECT event_type, count(*) AS n,
       quantile_disc(value, 0.5) AS p50,
       quantile_disc(value, 0.9) AS p90,
       quantile_disc(value, 0.99) AS p99
FROM events GROUP BY event_type
""",

        # semi-structured extraction: integer k out of the JSON props
        # column (engine: pyarrow RE2 extract_regex, zero-Python);
        # avg_k = one IEEE division of exact int64s
        "props_k_stats": """
SELECT event_type, count(*) AS n,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
         AS sum_k,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
         / (count(*))::DOUBLE AS avg_k
FROM events GROUP BY event_type
""",

        # trailing 3-hour sliding window per type over the hourly
        # aggregate; hourly float sums snap to the 1e-4 grid and scale to
        # int64 so the window sums are integer-exact in both engines
        "events_3h_sliding": """
WITH h AS (
  SELECT event_type,
         CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS window_start,
         count(*) AS n_events,
         CAST(floor(sum(value) * 10000 + 0.5) AS BIGINT) AS sv
  FROM events GROUP BY 1, 2)
SELECT event_type, window_start,
       CAST(SUM(n_events) OVER w AS BIGINT) AS n_events_3h,
       CAST(SUM(sv) OVER w AS BIGINT) / 10000.0 AS sum_value_3h
FROM h
WINDOW w AS (PARTITION BY event_type ORDER BY window_start
             RANGE BETWEEN 7200 PRECEDING AND CURRENT ROW)
""",

        # incremental anti-join: docs outside the 300-permille snapshot
        # whose md5 content hash is absent from the snapshot
        "new_docs": """
WITH h AS (
  SELECT doc_id, md5(text) AS text_hash,
         ((doc_id % 2147483648) * 2654435761 + 40503) % 4294967296 % 1000
           AS bk
  FROM documents)
SELECT doc_id, text_hash FROM h
WHERE bk >= 300
  AND text_hash NOT IN (SELECT text_hash FROM h WHERE bk < 300)
""",

        # benchmark decontamination: eval side = 100-permille hash sample,
        # shingles = distinct 3-grams (docs < 3 tokens -> whole text), train
        # docs scored by eval-shingle overlap (engine: broadcast eval set +
        # vectorized isin — pure streaming map, no shuffle)
        "decontaminate": """
WITH b AS (
  SELECT doc_id, text,
         ((doc_id % 2147483648) * 2654435761 + 40503) % 4294967296 % 1000
           AS bk
  FROM documents
),
tok AS (SELECT doc_id, bk, string_split(text, ' ') AS ts FROM b),
sh AS (
  SELECT doc_id, bk, unnest(list_distinct(
    CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
         ELSE list_transform(generate_series(1, len(ts) - 2),
                             i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
    END)) AS g
  FROM tok
),
esh AS (SELECT DISTINCT g FROM sh WHERE bk < 100),
tsh AS (SELECT doc_id, g FROM sh WHERE bk >= 100),
cnt AS (SELECT doc_id, count(*) AS n_shingles FROM tsh GROUP BY 1),
ov AS (SELECT t.doc_id, count(*) AS overlap
       FROM tsh t JOIN esh e USING (g) GROUP BY 1)
SELECT c.doc_id,
       c.n_shingles,
       coalesce(o.overlap, 0) AS overlap,
       floor(coalesce(o.overlap, 0)::DOUBLE / c.n_shingles * 1e6 + 0.5) / 1e6
         AS overlap_frac,
       CAST(CASE WHEN coalesce(o.overlap, 0)::DOUBLE / c.n_shingles >= 0.5
                 THEN 1 ELSE 0 END AS BIGINT) AS contaminated
FROM cnt c LEFT JOIN ov o USING (doc_id)
""",

        # Bloom-filter decontamination: same eval/train split as
        # `decontaminate`; membership (incl. false positives) reproduced
        # exactly — a shingle is bloom-positive iff all 3 salted-md5 bit
        # positions appear in the eval position set
        "bloom_decontaminate": """
WITH b AS (
  SELECT doc_id, text,
         ((doc_id % 2147483648) * 2654435761 + 40503) % 4294967296 % 1000
           AS bk
  FROM documents
),
tok AS (SELECT doc_id, bk, string_split(text, ' ') AS ts FROM b),
sh AS (
  SELECT doc_id, bk, unnest(list_distinct(
    CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
         ELSE list_transform(generate_series(1, len(ts) - 2),
                             i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
    END)) AS g
  FROM tok
),
hs AS (SELECT unnest([0, 1, 2]) AS i),
bits AS (SELECT DISTINCT
           CAST(md5_number_lower(g || '#' || i) % 262144 AS BIGINT) AS pos
         FROM (SELECT DISTINCT g FROM sh WHERE bk < 100), hs),
tsh AS (SELECT doc_id, g FROM sh WHERE bk >= 100),
hp AS (SELECT doc_id, g, i,
              CAST(md5_number_lower(g || '#' || i) % 262144 AS BIGINT) AS pos
       FROM tsh, hs),
hit AS (SELECT doc_id, g, count(*) AS nb
        FROM hp JOIN bits USING (pos) GROUP BY 1, 2),
pos_doc AS (SELECT doc_id, count(*) AS bloom_hits
            FROM hit WHERE nb = 3 GROUP BY 1),
cnt AS (SELECT doc_id, count(*) AS n_shingles FROM tsh GROUP BY 1)
SELECT c.doc_id, c.n_shingles,
       coalesce(p.bloom_hits, 0) AS bloom_hits,
       CAST(coalesce(p.bloom_hits, 0) > 0 AS BIGINT) AS contaminated
FROM cnt c LEFT JOIN pos_doc p USING (doc_id)
""",

        # count-min-sketch heavy hitters: 4x8192 integer counters, est =
        # min over rows of the term's bucket sum — integer-exact, so the
        # classic CMS overestimate reproduces bit-for-bit
        "heavy_hitters": """
WITH tok AS (SELECT unnest(string_split(text, ' ')) AS term FROM documents),
tc AS (SELECT term, count(*) AS c FROM tok GROUP BY term),
hs AS (SELECT unnest([0, 1, 2, 3]) AS j),
hb AS (SELECT term, c, j,
              CAST(md5_number_lower(term || '#' || j) % 8192 AS BIGINT) AS b
       FROM tc, hs),
counters AS (SELECT j, b, CAST(sum(c) AS BIGINT) AS s FROM hb GROUP BY 1, 2),
est AS (SELECT hb.term, min(cn.s) AS est
        FROM hb JOIN counters cn ON hb.j = cn.j AND hb.b = cn.b
        GROUP BY hb.term)
SELECT term, CAST(est AS BIGINT) AS est
FROM est
ORDER BY est DESC, term
LIMIT 50
""",

        # deterministic weighted source interleave, head of the stream:
        # mix_pos = hash(doc_id) * (LCM(weights) / weight(source)); weights
        # src0=3, src1=2, src2=2, default 1 -> LCM 6, inv 2/3/3/6 (engine:
        # per-batch partial top-n + one tiny reduce, no global sort)
        "mix_head": """
SELECT doc_id, source,
       (((doc_id % 2147483648) * 2654435761 + 40503) % 4294967296)
         * (CASE source WHEN 'src0' THEN 2 WHEN 'src1' THEN 3
                        WHEN 'src2' THEN 3 ELSE 6 END) AS mix_pos
FROM documents
ORDER BY mix_pos, doc_id
LIMIT 100
""",

        # per-doc span-sequence profile: the engine aggregates the ACTUAL
        # crawled spans; the oracle derives the same numbers from the
        # 5-span structure the site emits per doc (4 text + 1 media,
        # text chars = 'Doc <id>' + lang + source + body) — an aggregate
        # form of the span-sequence-equality invariant
        "crawl_span_stats": """
SELECT doc_id,
       CAST(4 AS BIGINT) AS n_text_spans,
       CAST(1 AS BIGINT) AS n_media_spans,
       CAST(length('Doc ' || doc_id) + length(lang) + length(source)
            + length(text) AS BIGINT) AS n_text_chars
FROM documents
""",

        # deterministic epoch shuffle (epoch 3, 8 shards): the repo's
        # int64-safe hash mix keyed by (doc_id, epoch); pos = rank within
        # shard by (h, doc_id)
        "epoch_shuffle": """
WITH h AS (
  SELECT doc_id,
         (((doc_id + 3 * 1000003) % 2147483648) * 2654435761 + 40503)
           % 4294967296 AS hv
  FROM documents)
SELECT doc_id, CAST(hv % 8 AS BIGINT) AS shard,
       row_number() OVER (PARTITION BY hv % 8 ORDER BY hv, doc_id) - 1
         AS pos
FROM h
""",

        # sliding token windows, size 16 / stride 12: chunk i covers
        # 0-based tokens [i*12, min(i*12+16, n)); DuckDB list slices are
        # 1-based inclusive so the slice is ws[i*12+1 : least(i*12+16, n)]
        "chunk_documents": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
c AS (SELECT doc_id, ws, len(ws) AS n,
             CASE WHEN len(ws) <= 16 THEN 1
                  ELSE CAST(ceil((len(ws) - 16) / 12.0) AS BIGINT) + 1
             END AS nc
      FROM w)
SELECT doc_id, i AS chunk_id,
       least(i * 12 + 16, n) - i * 12 AS n_tokens,
       array_to_string(ws[i * 12 + 1 : least(i * 12 + 16, n)], ' ')
         AS chunk_text
FROM c, UNNEST(generate_series(0, nc - 1)) t(i)
""",

        # content-defined chunking (stages/curate.cdc_chunks): cut after
        # every 8-char window whose base-257 polynomial hash mod 2^64 is
        # 0 mod 64 (numpy uint64 wraparound == HUGEINT % 2^64 — same
        # inlined-power trick as winnow_fingerprints), then split
        # segments longer than 128 at fixed offsets from the segment
        # start; chunk_hash = md5_number_lower of the chunk text
        "cdc_chunks": f"""
WITH cp AS (
  SELECT doc_id, length(text) AS n,
         list_transform(generate_series(1, length(text)),
                        i -> CAST(unicode(substring(text, i, 1)) AS HUGEINT))
           AS cs
  FROM documents WHERE length(text) >= 1
),
cuts AS (
  SELECT doc_id, p + 7 AS cut
  FROM cp, UNNEST(generate_series(1, n - 7)) s(p)
  WHERE (cs[p] * {_CDC_POW[0]} + cs[p+1] * {_CDC_POW[1]}
       + cs[p+2] * {_CDC_POW[2]} + cs[p+3] * {_CDC_POW[3]}
       + cs[p+4] * {_CDC_POW[4]} + cs[p+5] * {_CDC_POW[5]}
       + cs[p+6] * {_CDC_POW[6]} + cs[p+7])
        % 18446744073709551616 % 64 = 0
),
b AS (
  SELECT doc_id, cut FROM cuts
  UNION SELECT doc_id, 0 FROM cp
  UNION SELECT doc_id, n FROM cp
),
seg AS (
  SELECT doc_id, cut AS s,
         lead(cut) OVER (PARTITION BY doc_id ORDER BY cut) - cut AS L
  FROM b
),
pieces AS (
  SELECT doc_id, s + i * 128 AS s0, least(128, L - i * 128) AS length
  FROM seg,
       UNNEST(generate_series(0, CAST(ceil(L / 128.0) AS BIGINT) - 1)) t(i)
  WHERE L IS NOT NULL
),
ordered AS (
  SELECT doc_id, s0 + 1 AS start, length,
         row_number() OVER (PARTITION BY doc_id ORDER BY s0) - 1
           AS chunk_seq
  FROM pieces
)
SELECT o.doc_id, o.chunk_seq, o.start, o.length,
       md5_number_lower(substring(d.text, o.start, o.length)) AS chunk_hash
FROM ordered o JOIN documents d ON o.doc_id = d.doc_id
""",

        # corpus top-200 vocabulary (count desc, term asc — total order),
        # then per-doc in-vocab occurrence fraction on the 1e-6 grid
        "vocab_coverage": """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
             FROM documents),
cnt AS (SELECT term, count(*) AS cnt FROM tok GROUP BY term),
vocab AS (SELECT term FROM cnt
          QUALIFY row_number() OVER (ORDER BY cnt DESC, term) <= 200),
hits AS (SELECT t.doc_id, count(*) AS n_invocab
         FROM tok t JOIN vocab v USING (term) GROUP BY t.doc_id),
base AS (SELECT doc_id, len(string_split(text, ' ')) AS n_tokens
         FROM documents)
SELECT b.doc_id, b.n_tokens,
       coalesce(h.n_invocab, 0) AS n_invocab,
       floor(coalesce(h.n_invocab, 0)::DOUBLE / b.n_tokens * 1e6 + 0.5)
         / 1e6 AS coverage
FROM base b LEFT JOIN hits h USING (doc_id)
""",

        # symmetric per-vector int8 quantization: scale = max(|x|) (exact
        # IEEE selection), q = floor(x/scale*127 + 0.5) — a chain of single
        # IEEE double ops, bit-identical between numpy and DuckDB
        "quantize_embeddings": """
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
s AS (SELECT vec_id, v,
             list_max(list_transform(v, x -> abs(x))) AS scale
      FROM e)
SELECT vec_id, d - 1 AS d,
       CAST(floor(v[d] / (CASE WHEN scale = 0 THEN 1.0 ELSE scale END)
                  * 127.0 + 0.5) AS BIGINT) AS q,
       scale
FROM s, UNNEST(generate_series(1, len(v))) t(d)
""",

        # per-stratum deterministic permille sample (hash_sample arithmetic,
        # per-lang rate: en 300, de 150, fr 50, default 25)
        "stratified_sample": """
SELECT doc_id, lang,
       ((doc_id % 2147483648) * 2654435761 + 40503) % 4294967296 % 1000
         AS sample_key
FROM documents
WHERE ((doc_id % 2147483648) * 2654435761 + 40503) % 4294967296 % 1000
      < CASE lang WHEN 'en' THEN 300 WHEN 'de' THEN 150 WHEN 'fr' THEN 50
                  ELSE 25 END
""",

        # per-source quota: keep <= 10 rows per source in deterministic
        # hash order of doc_id (engine: hash-bucket co-location + one
        # vectorized cumcount per bucket — no per-key Python)
        "cap_per_source": """
SELECT doc_id, source, quota_rank FROM (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source
           ORDER BY ((doc_id % 2147483648) * 2654435761 + 40503)
                      % 4294967296, doc_id) AS quota_rank
  FROM documents)
WHERE quota_rank <= 10
""",

        # cross-document exact substring-span removal (Lee et al. 2022
        # shape, L=5 tokens): any 5-token window also present in a
        # lower-doc_id doc drops the positions it covers; the min-doc_id
        # owner keeps its copy; docs reassemble from surviving tokens
        "dedup_spans": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
tok AS (SELECT doc_id, i + 1 AS pos, ws[i + 1] AS term
        FROM w, UNNEST(generate_series(0, len(ws) - 1)) t(i)),
g AS (SELECT doc_id, pos,
             term || ' ' || lead(term, 1) OVER win || ' '
                  || lead(term, 2) OVER win || ' '
                  || lead(term, 3) OVER win || ' '
                  || lead(term, 4) OVER win AS gram,
             lead(term, 4) OVER win IS NOT NULL AS isfull
      FROM tok WINDOW win AS (PARTITION BY doc_id ORDER BY pos)),
grams AS (SELECT doc_id, pos, gram FROM g WHERE isfull),
own AS (SELECT gram, min(doc_id) AS own FROM grams GROUP BY gram),
drops AS (SELECT g2.doc_id, g2.pos FROM grams g2 JOIN own o USING (gram)
          WHERE g2.doc_id <> o.own),
cov AS (SELECT DISTINCT doc_id, pos + j AS pos
        FROM drops, UNNEST(generate_series(0, 4)) t(j)),
kept AS (SELECT t.doc_id, t.pos, t.term FROM tok t
         LEFT JOIN cov c USING (doc_id, pos) WHERE c.pos IS NULL),
reb AS (SELECT doc_id, string_agg(term, ' ' ORDER BY pos) AS clean_text,
               count(*) AS n_kept
        FROM kept GROUP BY doc_id)
SELECT w.doc_id, coalesce(r.clean_text, '') AS clean_text,
       len(w.ws) AS n_tokens, coalesce(r.n_kept, 0) AS n_kept
FROM w LEFT JOIN reb r USING (doc_id)
""",

        # bigram-LM perplexity quality score (CCNet LM-filter shape):
        # top-200 corpus vocab + <unk>, BOS context per doc, add-1
        # smoothing over the (|vocab|+1)-way next-token space; per-doc
        # mean negative log-likelihood on the 1e-6 grid. The event-space
        # size is computed from the vocab CTE (corpora with fewer than
        # 200 distinct terms keep them all)
        "lm_nll": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
tok AS (SELECT doc_id, i + 1 AS pos, ws[i + 1] AS term
        FROM w, UNNEST(generate_series(0, len(ws) - 1)) t(i)),
cnt AS (SELECT term, count(*) AS cnt FROM tok GROUP BY term),
vocab AS (SELECT term FROM cnt
          QUALIFY row_number() OVER (ORDER BY cnt DESC, term) <= 200),
vsz AS (SELECT count(*) + 1 AS v1 FROM vocab),
m AS (SELECT t.doc_id, t.pos,
             CASE WHEN v.term IS NOT NULL THEN t.term
                  ELSE '<unk>' END AS term
      FROM tok t LEFT JOIN vocab v USING (term)),
bg AS (SELECT doc_id, pos,
              coalesce(lag(term) OVER (PARTITION BY doc_id ORDER BY pos),
                       '<s>') AS w1,
              term AS w2
       FROM m),
bc AS (SELECT w1, w2, count(*) AS c FROM bg GROUP BY w1, w2),
c1 AS (SELECT w1, sum(c) AS cw1 FROM bc GROUP BY w1),
lp AS (SELECT g.doc_id,
              ln((b.c + 1) / (c1.cw1 + 1 * (SELECT v1 FROM vsz))) AS lp
       FROM bg g JOIN bc b ON g.w1 = b.w1 AND g.w2 = b.w2
                 JOIN c1 ON g.w1 = c1.w1)
SELECT w.doc_id, len(w.ws) AS n_tokens,
       floor(-(sum(l.lp) / len(w.ws)) * 1e6 + 0.5) / 1e6 AS nll
FROM w JOIN lp l USING (doc_id)
GROUP BY w.doc_id, len(w.ws)
""",

        # DSIR (Xie et al. 2023) rank-and-select: hashed unigram+bigram
        # bucket counts on both corpus sides, add-1 importance log-ratio
        # per bucket snapped to integer micro-units (so the per-doc sums
        # are bit-exact across engines), top-200 raw docs by weight
        "dsir_select": """
WITH b AS (
  SELECT doc_id, text,
         ((doc_id % 2147483648) * 2654435761 + 40503) % 4294967296 % 1000
           AS hk
  FROM documents
),
tok AS (SELECT doc_id, hk, string_split(text, ' ') AS ts FROM b),
feats AS (
  SELECT doc_id, hk, unnest(ts) AS f FROM tok
  UNION ALL
  SELECT doc_id, hk,
         unnest(list_transform(generate_series(1, len(ts) - 1),
                               i -> ts[i] || ' ' || ts[i+1])) AS f
  FROM tok
),
fb AS (SELECT doc_id, hk,
              CAST(md5_number_lower(f || '#0') % 4096 AS BIGINT) AS bkt
       FROM feats),
tc AS (SELECT bkt, count(*) AS c FROM fb WHERE hk < 100 GROUP BY 1),
rc AS (SELECT bkt, count(*) AS c FROM fb WHERE hk >= 100 GROUP BY 1),
tot AS (SELECT (SELECT coalesce(sum(c), 0) FROM tc) AS t_tot,
               (SELECT coalesce(sum(c), 0) FROM rc) AS r_tot),
lam AS (SELECT r.bkt,
               CAST(floor((ln(coalesce(t.c, 0) + 1) - ln(t_tot + 4096)
                           - ln(r.c + 1) + ln(r_tot + 4096)) * 1e6 + 0.5)
                    AS BIGINT) AS lm
        FROM rc r LEFT JOIN tc t USING (bkt), tot),
sc AS (SELECT f.doc_id, count(*) AS n_feats, sum(l.lm) AS logw_micro
       FROM fb f JOIN lam l USING (bkt) WHERE f.hk >= 100 GROUP BY 1)
SELECT doc_id, CAST(n_feats AS BIGINT) AS n_feats,
       CAST(logw_micro AS BIGINT) AS logw_micro
FROM sc
ORDER BY logw_micro DESC, doc_id
LIMIT 200
""",

        # PMI collocations: adjacent-token pairs scored by pointwise
        # mutual information — fixed-order sum of lns over exact integer
        # counts, snapped to the 1e-6 grid (engine mirrors the operand
        # order exactly)
        "pmi_top_pairs": """
WITH w AS (SELECT string_split(text, ' ') AS ts FROM documents),
uni AS (SELECT unnest(ts) AS term FROM w),
uc AS (SELECT term, count(*) AS c FROM uni GROUP BY 1),
nu AS (SELECT count(*) AS n FROM uni),
bi AS (SELECT unnest(list_transform(generate_series(1, len(ts) - 1),
                                    i -> ts[i] || ' ' || ts[i+1])) AS p
       FROM w),
bc AS (SELECT p, count(*) AS c FROM bi GROUP BY 1),
nb AS (SELECT count(*) AS n FROM bi),
sp AS (SELECT string_split(p, ' ')[1] AS w1, string_split(p, ' ')[2] AS w2,
              c AS pair_count
       FROM bc WHERE c >= 5),
j AS (SELECT s.w1, s.w2, s.pair_count, u1.c AS c1, u2.c AS c2
      FROM sp s JOIN uc u1 ON s.w1 = u1.term JOIN uc u2 ON s.w2 = u2.term)
SELECT w1, w2, CAST(pair_count AS BIGINT) AS pair_count,
       floor((ln(pair_count) - ln((SELECT n FROM nb)) - ln(c1)
              + ln((SELECT n FROM nu)) - ln(c2) + ln((SELECT n FROM nu)))
             * 1e6 + 0.5) / 1e6 AS pmi
FROM j
ORDER BY pmi DESC, w1, w2
LIMIT 100
""",

        # Gopher quality rules (Rae et al. 2021): every threshold is an
        # integer comparison and mean word length a round-half-up integer
        # micro-unit, so flags reproduce bit-for-bit; structural suffixes
        # keyed on doc_id % 4 give every rule both outcomes
        "gopher_rules": """
WITH d AS (
  SELECT doc_id,
         text || CASE doc_id % 4
           WHEN 0 THEN chr(10) || '- bullet item' || chr(10)
                       || 'more with that text...'
           WHEN 1 THEN ' with that have'
           WHEN 2 THEN ' ### ## #'
           ELSE '' END AS text
  FROM documents),
w AS (
  SELECT doc_id, count(*) AS n_words, sum(length(w)) AS n_chars,
         sum(CASE WHEN regexp_matches(w, '[A-Za-z]') THEN 1 ELSE 0 END)
           AS alpha_words,
         count(DISTINCT CASE WHEN w IN ('the','be','to','of','and','that',
                                        'have','with') THEN w END) AS n_stop
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM d) q
  WHERE w <> '' GROUP BY 1),
l AS (
  SELECT doc_id, count(*) AS n_lines,
         sum(CASE WHEN ln LIKE '- %' OR ln LIKE '* %' THEN 1 ELSE 0 END)
           AS bullet_lines,
         sum(CASE WHEN ln LIKE '%...' THEN 1 ELSE 0 END) AS ell_lines
  FROM (SELECT doc_id, unnest(string_split(text, chr(10))) AS ln FROM d) q
  GROUP BY 1),
s AS (
  SELECT doc_id,
         (length(text) - length(replace(text, '#', '')))
         + (length(text) - length(replace(text, '...', ''))) // 3 AS symbols
  FROM d)
SELECT w.doc_id,
       CAST(w.n_words AS BIGINT) AS n_words,
       CAST((w.n_chars * 2000000 + w.n_words) // (2 * w.n_words) AS BIGINT)
         AS mean_wl_micro,
       (w.n_words >= 50 AND w.n_words <= 100000) AS words_ok,
       (3 * w.n_words <= w.n_chars AND w.n_chars <= 10 * w.n_words)
         AS mean_wl_ok,
       (10 * s.symbols < w.n_words) AS symbol_ok,
       (10 * l.bullet_lines < 9 * l.n_lines) AS bullet_ok,
       (10 * l.ell_lines < 3 * l.n_lines) AS ellipsis_ok,
       (5 * w.alpha_words > 4 * w.n_words) AS alpha_ok,
       (w.n_stop >= 2) AS stop_ok,
       ((w.n_words >= 50 AND w.n_words <= 100000)
        AND (3 * w.n_words <= w.n_chars AND w.n_chars <= 10 * w.n_words)
        AND (10 * s.symbols < w.n_words)
        AND (10 * l.bullet_lines < 9 * l.n_lines)
        AND (10 * l.ell_lines < 3 * l.n_lines)
        AND (5 * w.alpha_words > 4 * w.n_words)
        AND (w.n_stop >= 2)) AS keep
FROM w JOIN l USING (doc_id) JOIN s USING (doc_id)
ORDER BY w.doc_id
""",

        # WAV audio features: the engine decodes real RIFF/WAV blobs
        # (stdlib wave) built by synth_wav; the oracle regenerates the
        # identical PCM integer stream with generate_series — decode
        # correctness is exactly what the hash compares. 8 kHz: one
        # sample = 125 us exactly, all aggregates int64
        "audio_features": """
WITH p AS (SELECT doc_id, 800 + (doc_id % 5) * 80 AS n FROM documents),
s AS (
  SELECT doc_id, n, i,
         ((doc_id * 7919 + i * 104729) % 20001) - 10000 AS v
  FROM p, UNNEST(generate_series(0, n - 1)) t(i)),
z AS (
  SELECT doc_id, n, v,
         lead(v) OVER (PARTITION BY doc_id ORDER BY i) AS nv
  FROM s)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_samples,
       CAST(count(*) * 125 AS BIGINT) AS duration_us,
       CAST(sum(v) AS BIGINT) AS sum_amp,
       CAST(sum(v * v) AS BIGINT) AS sum_sq,
       CAST(max(abs(v)) AS BIGINT) AS peak,
       CAST(sum(CASE WHEN nv IS NOT NULL AND v * nv < 0
                     THEN 1 ELSE 0 END) AS BIGINT) AS zero_crossings
FROM z
GROUP BY doc_id
ORDER BY doc_id
""",

        # Image dHash: the engine decodes real PNG containers (stdlib
        # zlib inflate + filter reversal) built by synth_png; the oracle
        # regenerates the pixel integers with generate_series. 4x4 block
        # SUMS compared adjacently (no division) and MSB-first bit packing
        # into two 32-bit halves keep every value in BIGINT — bit-exact
        "image_dhash": """
WITH px AS (
  SELECT doc_id, y, x,
         ((doc_id % 97 + 1) * (13 * x + 7 * y + 3)) % 256 AS v
  FROM documents,
       UNNEST(generate_series(0, 31)) ty(y),
       UNNEST(generate_series(0, 35)) tx(x)),
b AS (
  SELECT doc_id, y // 4 AS by, x // 4 AS bx, sum(v) AS s
  FROM px GROUP BY 1, 2, 3),
bits AS (
  SELECT l.doc_id, l.by, l.bx,
         CASE WHEN l.s > r.s THEN 1 ELSE 0 END AS bit
  FROM b l JOIN b r
    ON r.doc_id = l.doc_id AND r.by = l.by AND r.bx = l.bx + 1
  WHERE l.bx < 8)
SELECT doc_id,
       CAST(36 AS BIGINT) AS width,
       CAST(32 AS BIGINT) AS height,
       CAST(sum(CASE WHEN by < 4
                THEN bit * (CAST(1 AS BIGINT) << (31 - (by * 8 + bx)))
                ELSE 0 END) AS BIGINT) AS dhash_hi,
       CAST(sum(CASE WHEN by >= 4
                THEN bit * (CAST(1 AS BIGINT) << (31 - ((by - 4) * 8 + bx)))
                ELSE 0 END) AS BIGINT) AS dhash_lo
FROM bits
GROUP BY doc_id
ORDER BY doc_id
""",

        # Perceptual-dup membership: min-doc-id representative per
        # identical-dHash group, non-representative members only
        "image_dup_groups": """
WITH px AS (
  SELECT doc_id, y, x,
         ((doc_id % 97 + 1) * (13 * x + 7 * y + 3)) % 256 AS v
  FROM documents,
       UNNEST(generate_series(0, 31)) ty(y),
       UNNEST(generate_series(0, 35)) tx(x)),
b AS (
  SELECT doc_id, y // 4 AS by, x // 4 AS bx, sum(v) AS s
  FROM px GROUP BY 1, 2, 3),
bits AS (
  SELECT l.doc_id, l.by, l.bx,
         CASE WHEN l.s > r.s THEN 1 ELSE 0 END AS bit
  FROM b l JOIN b r
    ON r.doc_id = l.doc_id AND r.by = l.by AND r.bx = l.bx + 1
  WHERE l.bx < 8),
h AS (
  SELECT doc_id,
         sum(CASE WHEN by < 4
             THEN bit * (CAST(1 AS BIGINT) << (31 - (by * 8 + bx)))
             ELSE 0 END) AS dhash_hi,
         sum(CASE WHEN by >= 4
             THEN bit * (CAST(1 AS BIGINT) << (31 - ((by - 4) * 8 + bx)))
             ELSE 0 END) AS dhash_lo
  FROM bits GROUP BY doc_id),
g AS (
  SELECT doc_id,
         min(doc_id) OVER (PARTITION BY dhash_hi, dhash_lo) AS rep
  FROM h)
SELECT CAST(rep AS BIGINT) AS rep, CAST(doc_id AS BIGINT) AS doc_id
FROM g WHERE doc_id <> rep
ORDER BY rep, doc_id
""",

        # Video frame sampling: the engine decodes real APNG containers
        # (acTL/fcTL/fdAT), keeps every 2nd frame, and dHashes each kept
        # frame; the oracle regenerates only the SAMPLED frames' pixels.
        # 25 fps -> each frame exactly 40 ms, so duration is int64-exact
        "video_frame_dhash": """
WITH p AS (SELECT doc_id, 4 + doc_id % 4 AS n_frames FROM documents),
fr AS (
  SELECT doc_id, n_frames, f
  FROM p, UNNEST(generate_series(0, n_frames - 1)) tf(f)
  WHERE f % 2 = 0),
px AS (
  SELECT doc_id, n_frames, f, y, x,
         ((doc_id % 97 + 1) * (13 * x + 7 * y + 3) + f * 31) % 256 AS v
  FROM fr,
       UNNEST(generate_series(0, 31)) ty(y),
       UNNEST(generate_series(0, 35)) tx(x)),
b AS (
  SELECT doc_id, n_frames, f, y // 4 AS by, x // 4 AS bx, sum(v) AS s
  FROM px GROUP BY 1, 2, 3, 4, 5),
bits AS (
  SELECT l.doc_id, l.n_frames, l.f, l.by, l.bx,
         CASE WHEN l.s > r.s THEN 1 ELSE 0 END AS bit
  FROM b l JOIN b r
    ON r.doc_id = l.doc_id AND r.f = l.f AND r.by = l.by
   AND r.bx = l.bx + 1
  WHERE l.bx < 8)
SELECT doc_id,
       CAST(f AS BIGINT) AS frame_idx,
       CAST(n_frames AS BIGINT) AS n_frames,
       CAST(n_frames * 40 AS BIGINT) AS duration_ms,
       CAST(sum(CASE WHEN by < 4
                THEN bit * (CAST(1 AS BIGINT) << (31 - (by * 8 + bx)))
                ELSE 0 END) AS BIGINT) AS dhash_hi,
       CAST(sum(CASE WHEN by >= 4
                THEN bit * (CAST(1 AS BIGINT) << (31 - ((by - 4) * 8 + bx)))
                ELSE 0 END) AS BIGINT) AS dhash_lo
FROM bits
GROUP BY doc_id, f, n_frames
ORDER BY doc_id, frame_idx
""",

        # Interleaved near-dup pairs: the ngram_jaccard join with one
        # 'media:'+md5 unit per media span UNIONed into each doc's set
        # (media keyed by token count, preserved by the perturbation)
        "interleaved_neardup": f"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + {_DUP_OFFSET},
         array_to_string(list_transform(string_split(text, ' '),
             (w, i) -> CASE WHEN i % 10 = 0 THEN 'xq7' ELSE w END), ' ')
  FROM documents
),
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM aug),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
         ELSE list_transform(generate_series(1, len(ts) - 2),
                             i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
    END)) AS g
  FROM tok
  UNION ALL
  SELECT doc_id,
         'media:' || md5(printf('m/%s-%d.png', ts[1], len(ts) % 7))
  FROM tok
),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
pairs AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS c
  FROM sh s1 JOIN sh s2 ON s1.g = s2.g AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
)
SELECT a, b,
       floor(c::DOUBLE / (ca.n + cb.n - c) * 1e6 + 0.5) / 1e6 AS jaccard
FROM pairs
JOIN cnt ca ON ca.doc_id = a
JOIN cnt cb ON cb.doc_id = b
WHERE c::DOUBLE / (ca.n + cb.n - c) >= 0.5
""",

        # Zipf rank-frequency fit: ln values snapped to an int64
        # micro-grid, normal-equation sums exact (HUGEINT / Python int),
        # one identical IEEE division closes the slope — bit-exact.
        # Tokenization mirrors corpus_vocab (vocab_coverage CTE, no
        # empty-token filter); rank ties break on term ascending
        "zipf_fit": """
WITH tok AS (SELECT unnest(string_split(text, ' ')) AS term
             FROM documents),
tc AS (SELECT term, count(*) AS c FROM tok GROUP BY term),
top AS (SELECT c FROM tc
        QUALIFY row_number() OVER (ORDER BY c DESC, term) <= 100),
i AS (SELECT
        CAST(floor(ln(CAST(row_number()
                           OVER (ORDER BY c DESC) AS DOUBLE)) * 1e6 + 0.5)
             AS HUGEINT) AS li,
        CAST(floor(ln(CAST(c AS DOUBLE)) * 1e6 + 0.5) AS HUGEINT) AS ci
      FROM top),
s AS (SELECT CAST(count(*) AS HUGEINT) AS n, sum(li) AS sx, sum(ci) AS sy,
             sum(li * ci) AS sxy, sum(li * li) AS sxx
      FROM i)
SELECT CAST(n AS BIGINT) AS n_terms,
       CASE WHEN n * sxx - sx * sx = 0 THEN 0.0
            ELSE floor(CAST(n * sxy - sx * sy AS DOUBLE)
                       / CAST(n * sxx - sx * sx AS DOUBLE) * 1e6 + 0.5)
                 / 1e6
       END AS zipf_slope
FROM s
""",

        # Per-source corpus health report: all-integer aggregates (mean
        # quality = micro-unit sum // count, exact floor division); the
        # quality micro-units are the doc_quality formula before the
        # /1e6 de-scale
        "corpus_report": """
WITH q AS (
  SELECT source, md5(text) AS h,
         len(string_split(text, ' ')) AS nt,
         CASE WHEN length(text) = 0 THEN 0
              ELSE CAST(floor(
                (0.4 * (len(list_distinct(string_split(text, ' ')))::DOUBLE
                        / len(string_split(text, ' ')))
               + 0.3 * (length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE
                        / length(text))
               + 0.3 * least(1.0, length(text) / 500.0)) * 1e6 + 0.5)
                AS BIGINT)
         END AS qm
  FROM documents)
SELECT source, count(*) AS n_docs, CAST(sum(nt) AS BIGINT) AS n_tokens,
       count(DISTINCT h) AS n_distinct_texts,
       CAST(sum(qm) // count(*) AS BIGINT) AS mean_quality_micro
FROM q GROUP BY source ORDER BY source
""",

        # Heaps vocabulary-growth audit: all-integer cumulative token
        # and first-occurrence vocab counts at 10 doc_id checkpoints;
        # thresholds ((k*(max+1))//10)-1, token convention
        # len(string_split(text,' '))
        "vocab_growth": """
WITH mx AS (SELECT max(doc_id) AS m FROM documents),
thr AS (SELECT k, ((k * (m + 1)) // 10) - 1 AS t
        FROM mx, UNNEST(generate_series(1, 10)) tk(k)),
base AS (SELECT doc_id, len(string_split(text, ' ')) AS n FROM documents),
tok AS (SELECT th.k, sum(b.n) AS n_tokens
        FROM thr th JOIN base b ON b.doc_id <= th.t GROUP BY th.k),
firsts AS (
  SELECT term, min(doc_id) AS first
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS term
        FROM documents) GROUP BY term),
voc AS (SELECT th.k, count(*) AS vocab
        FROM thr th JOIN firsts f ON f.first <= th.t GROUP BY th.k)
SELECT th.k AS checkpoint, CAST(th.t AS BIGINT) AS doc_id_thr,
       CAST(coalesce(tok.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(voc.vocab, 0) AS BIGINT) AS vocab
FROM thr th LEFT JOIN tok USING (k) LEFT JOIN voc USING (k)
ORDER BY checkpoint
""",

        # Order-sensitive exact dedup of interleaved text+media span
        # sequences: unit = md5(kind:payload) per span (media payload =
        # lowercase hex of the blob, which the fixture makes md5(ref)),
        # fingerprint = md5 of the '|'-joined units in seq order; groups
        # by fingerprint with min-id representative
        "interleaved_dedup": f"""
WITH docs AS (
  SELECT doc_id, coalesce(text, '') AS text FROM documents
  UNION ALL
  SELECT doc_id + {_DUP_OFFSET}, coalesce(text, '') FROM documents
),
spans AS (
  SELECT doc_id, 0 AS seq, 'text' AS kind, text AS payload FROM docs
  UNION ALL
  SELECT doc_id, 1, 'image',
         md5(printf('m/%d.png', length(text) % 7))
  FROM docs
),
units AS (SELECT doc_id, seq, md5(kind || ':' || payload) AS unit
          FROM spans),
fp AS (SELECT doc_id,
              md5(string_agg(unit, '|' ORDER BY seq)) AS fingerprint
       FROM units GROUP BY doc_id),
g AS (SELECT fingerprint, count(*) AS group_size,
             min(doc_id) AS rep_id
      FROM fp GROUP BY fingerprint)
SELECT f.doc_id, f.fingerprint, g.group_size, g.rep_id,
       g.group_size > 1 AS is_dup
FROM fp f JOIN g USING (fingerprint)
ORDER BY f.doc_id
""",
    }
    # MinHash-LSH verification is exact Jaccard over the LSH candidates;
    # with 32 bands x 2 rows the candidate-miss probability at j=0.5 is
    # (1 - 0.25)^32 ~= 1e-4 per pair, and the run is deterministic — at
    # gate scale the output equals the exact inverted-index join, so the
    # oracle is the same SQL (verified by tests/test_oracles.py).
    sql["minhash_dup_pairs"] = sql["ngram_jaccard_pairs"]
    # sharded-membership variant is output-identical by design
    sql["decontaminate_sharded"] = sql["decontaminate"]
    # kept-corpus manifest after fuzzy dedup: the cluster label IS the
    # representative doc id, so representatives = one group-count over the
    # dup_clusters labels
    sql["dedup_representatives"] = (
        "SELECT cluster_id AS doc_id, count(*) AS cluster_size FROM ("
        + sql["dup_clusters"] + ") GROUP BY 1")
    # IVF ANN: integer-grid k-means training unrolled as a CTE chain —
    # bit-exact mirror of the engine's quantized trainer (see helper)
    sql["ivf_ann_topk"] = _ivf_oracle_sql()
    sql["pq_ann_topk"] = _pq_oracle_sql()
    sql["ivfadc_ann_topk"] = _ivfadc_oracle_sql()
    # JL ±1 projection: md5-parity sign matrix, pure integer sums
    sql["jl_project"] = """
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
xi AS (SELECT vec_id,
              list_transform(v, x -> floor(x * 1000.0 + 0.5)) AS xv
       FROM e),
ex AS (SELECT vec_id, unnest(xv) AS val,
              unnest(generate_series(0, len(xv) - 1)) AS d
       FROM xi),
s AS (SELECT dd.d, j.j,
             CASE WHEN md5_number_lower('jl-' || CAST(dd.d AS VARCHAR)
                       || '-' || CAST(j.j AS VARCHAR)) % 2 = 1
                  THEN 1 ELSE -1 END AS sgn
      FROM (SELECT DISTINCT d FROM ex) dd,
           (SELECT unnest(generate_series(0, 7)) AS j) j)
SELECT e.vec_id, CAST(s.j AS BIGINT) AS dim,
       CAST(sum(e.val * s.sgn) AS BIGINT) AS val
FROM ex e JOIN s ON s.d = e.d
GROUP BY 1, 2
"""
    # SemDeDup: same k-means prefix + integer-exact within-cell pairwise
    sql["semdedup"] = _semdedup_oracle_sql()
    # cell-bounded exact k-NN graph: same k-means prefix, top-k ranking
    sql["knn_graph"] = _knn_graph_oracle_sql()
    sql["cluster_select"] = _cluster_select_oracle_sql()
    # quality-stack ensemble: composes the doc_quality and lm_nll mirrors
    # verbatim as CTEs; thresholds are exact quantile_disc over each
    # score distribution (the docs_above_median_quality convention)
    sql["filter_ensemble"] = f"""
WITH qy AS ({sql["doc_quality"]}),
lm AS ({sql["lm_nll"]}),
tq AS (SELECT quantile_disc(quality, 0.25) AS q25 FROM qy),
tn AS (SELECT quantile_disc(nll, 0.75) AS n75 FROM lm)
SELECT qy.doc_id, qy.quality, lm.nll,
       (qy.quality > tq.q25 AND lm.nll <= tn.n75) AS keep
FROM qy JOIN lm USING (doc_id), tq, tn
ORDER BY qy.doc_id
"""
    # CCNet per-language perplexity terciles: lm_nll mirror composed
    # verbatim, quantile_disc thresholds PARTITIONed by language
    sql["ccnet_buckets"] = f"""
WITH lm AS ({sql["lm_nll"]}),
j AS (SELECT lm.doc_id, d.lang, lm.nll
      FROM lm JOIN documents d USING (doc_id)),
t AS (SELECT lang, quantile_disc(nll, 0.33) AS p33,
             quantile_disc(nll, 0.66) AS p66
      FROM j GROUP BY lang)
SELECT j.doc_id, j.lang, j.nll,
       CASE WHEN j.nll <= t.p33 THEN 'head'
            WHEN j.nll <= t.p66 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM j JOIN t USING (lang)
"""

    # BPE trainer: 8 merge iterations unrolled as a CTE chain
    sql["bpe_merges"] = _bpe_oracle_sql()
    # BPE encoder: same chain's final vocab joined back to doc words
    sql["bpe_token_counts"] = _bpe_counts_oracle_sql()
    # tokenizer audit: per-language fertility over the SAME encoder
    # mirror (composed verbatim); ratios are exact integer micro-units
    sql["tokenizer_fertility"] = f"""
WITH bt AS ({sql["bpe_token_counts"]}),
d AS (SELECT doc_id, lang, length(text) AS nc FROM documents)
SELECT d.lang, count(*) AS n_docs,
       CAST(sum(d.nc) AS BIGINT) AS n_chars,
       CAST(sum(bt.n_words) AS BIGINT) AS n_words,
       CAST(sum(bt.n_tokens) AS BIGINT) AS n_tokens,
       CAST(1000000 * sum(d.nc) // sum(bt.n_tokens) AS BIGINT)
         AS chars_per_token_micro,
       CAST(1000000 * sum(bt.n_tokens) // sum(bt.n_words) AS BIGINT)
         AS tokens_per_word_micro
FROM bt JOIN d USING (doc_id)
GROUP BY d.lang ORDER BY d.lang
"""
    # Per-span langid + majority vote: the langid_pred mirror re-keyed
    # over a spans CTE (doc paragraphs + one injected foreign passage),
    # then a count-desc / lang-asc vote per document
    spanized = (sql["langid_pred"]
                .replace("SELECT doc_id,\n         regexp_matches",
                         "SELECT doc_id, seq,\n         regexp_matches")
                .replace("FROM documents", "FROM spans")
                .replace("SELECT doc_id, cjk, len(toks) AS n,",
                         "SELECT doc_id, seq, cjk, len(toks) AS n,")
                .replace("SELECT doc_id,\n  CASE WHEN cjk",
                         "SELECT doc_id, seq,\n  CASE WHEN cjk"))
    sql["span_langid"] = f"""
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
iw AS (SELECT doc_id, ws,
              unnest(generate_series(1, CAST(ceil(len(ws)/8.0) AS BIGINT)))
                AS i
       FROM w),
spans AS (
  SELECT doc_id, 2 * (i - 1) AS seq,
         array_to_string(ws[(i-1)*8+1 : (i-1)*8+8], ' ') AS text
  FROM iw
  UNION ALL
  SELECT doc_id, 999999,
         CASE doc_id % 3 WHEN 0 THEN 'der und ist nicht ein'
                         WHEN 1 THEN 'el la de que y'
                         ELSE 'le la les et une' END
  FROM documents
),
per AS ({spanized}),
cnt AS (SELECT doc_id, lang_pred, count(*) AS c FROM per GROUP BY 1, 2),
top AS (SELECT doc_id, lang_pred AS lang_major, c AS n_major FROM cnt
        QUALIFY row_number() OVER (PARTITION BY doc_id
                                   ORDER BY c DESC, lang_pred) = 1),
tot AS (SELECT doc_id, count(*) AS n_spans FROM per GROUP BY 1)
SELECT doc_id, lang_major, n_spans, n_major
FROM tot JOIN top USING (doc_id)
"""
    # ANN quality audit: recall@k of the LSH and IVF approximate paths
    # vs the exact top-k — all three mirrors composed verbatim
    # CDC chunk-level dedup manifest over the near-dup fixture: the
    # cdc_chunks mirror re-keyed over aug (shift-invariant chunk hashes
    # realign across the perturbed copies), wrapped in the shared-chunk
    # GROUP BY
    sql["cdc_dedup_stats"] = f"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + {_DUP_OFFSET},
         array_to_string(list_transform(string_split(text, ' '),
             (w, i) -> CASE WHEN i % 10 = 0 THEN 'xq7' ELSE w END), ' ')
  FROM documents
),
chunks AS ({sql["cdc_chunks"].replace("documents", "aug")})
SELECT chunk_hash, length, min(doc_id) AS owner_doc,
       count(*) AS n_refs, count(DISTINCT doc_id) AS n_docs
FROM chunks GROUP BY chunk_hash, length
HAVING count(*) >= 2
"""

    # URL canonicalization conformance: the mirror CONSTRUCTS the messy
    # input and the expected canonical form per doc_id%6 case (lowercase
    # scheme/host incl. creds, strip default port even after userinfo,
    # strip fragment, '' path -> '/', preserve query verbatim, keep
    # non-default ports)
    sql["url_canonicalize"] = """
WITH d AS (
  SELECT doc_id, doc_id % 6 AS v,
         'h' || lpad(CAST(doc_id % 50 AS VARCHAR), 4, '0') || '.test'
           AS h
  FROM documents
)
SELECT doc_id,
  CASE v
    WHEN 0 THEN 'HTTP://' || upper(h) || ':80/p/' || doc_id || '#frag'
    WHEN 1 THEN 'https://' || h || ':443/p/' || doc_id || '?b=2&a=1'
    WHEN 2 THEN 'https://' || upper(h)
    WHEN 3 THEN 'http://' || h || ':8080/p/' || doc_id
    WHEN 4 THEN 'https://User:PW@' || h || ':443/x/' || doc_id
    ELSE 'http://' || h || '/p/' || doc_id END AS url,
  CASE v
    WHEN 0 THEN 'http://' || h || '/p/' || doc_id
    WHEN 1 THEN 'https://' || h || '/p/' || doc_id || '?b=2&a=1'
    WHEN 2 THEN 'https://' || h || '/'
    WHEN 3 THEN 'http://' || h || ':8080/p/' || doc_id
    WHEN 4 THEN 'https://user:pw@' || h || '/x/' || doc_id
    ELSE 'http://' || h || '/p/' || doc_id END AS canon_url,
  h AS host
FROM d
"""

    # unicode/whitespace normalization: the suffix fixture is rebuilt
    # with chr() (769 = U+0301 combining acute, 778 = U+030A combining
    # ring, 160 = NBSP); DuckDB's nfc_normalize shares utf8proc's NFC
    # tables with pyarrow's utf8_normalize, and both regexp passes are
    # RE2 with the identical pattern strings, so norm_text is bit-exact.
    sql["normalize_text"] = r"""
WITH m AS (
  SELECT doc_id,
    text || CASE doc_id % 5
      WHEN 0 THEN ' cafe' || chr(769)
      WHEN 1 THEN ' A' || chr(778)
      WHEN 2 THEN chr(9) || 'x' || chr(1) || 'y '
      WHEN 3 THEN ' no' || chr(160) || 'break'
      ELSE '' END AS raw
  FROM documents
),
n AS (
  SELECT doc_id, raw,
    trim(regexp_replace(regexp_replace(nfc_normalize(raw),
        '[\x00-\x08\x0e-\x1f\x7f]', '', 'g'),
        '[\t\n\r\x0b\x0c\x{00A0} ]+', ' ', 'g'), ' ') AS norm
  FROM m
)
SELECT doc_id, norm AS norm_text,
       CAST(length(raw) AS BIGINT) AS n_chars_raw,
       CAST(length(norm) AS BIGINT) AS n_chars_norm,
       norm <> raw AS changed
FROM n
"""

    # hashed linear classifier: md5_number_lower is the engine's token
    # hash too (sketch.md5_number_lower); the weight table is the same
    # pure function of the bin on both sides, and the score is an exact
    # int64 sum, so rows are bit-identical.
    sql["hashed_linear_score"] = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents
),
b AS (
  SELECT doc_id,
         CAST(md5_number_lower(w) % 256 AS BIGINT) AS bin
  FROM tok WHERE w <> ''
),
s AS (
  SELECT doc_id, count(*) AS n_tokens,
         SUM((bin * 2654435761) % 1001 - 500) AS score
  FROM b GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(coalesce(s.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(s.score, 0) AS BIGINT) AS score_micro,
       coalesce(s.score, 0) > 0 AS keep
FROM documents d LEFT JOIN s USING (doc_id)
"""

    # redirect-chain resolution: a recursion-bounded WITH RECURSIVE walk
    # of the same deterministic edge fixture; terminal = cur never a
    # source; sources with no terminal within 8 hops are cycles — the
    # identical convention the engine's pointer doubling produces with
    # hop_cap=8 (reach 2^3). hops counts are exact on both sides.
    sql["resolve_redirects"] = """
WITH RECURSIVE d AS (
  SELECT doc_id, doc_id % 3 + 1 AS l, (doc_id % 17 = 0) AS cyc
  FROM documents
),
ei AS (
  SELECT doc_id, l, cyc, unnest(generate_series(0, l - 1)) AS i FROM d
),
edges AS (
  SELECT 'r/' || doc_id || '/' || i AS src,
         CASE WHEN i < l - 1 THEN 'r/' || doc_id || '/' || (i + 1)
              WHEN cyc THEN 'r/' || doc_id || '/0'
              ELSE 'p/' || doc_id END AS dst
  FROM ei
),
f(src, cur, hops) AS (
  SELECT src, dst, 1 FROM edges
  UNION ALL
  SELECT f.src, e2.dst, f.hops + 1
  FROM f JOIN edges e2 ON f.cur = e2.src
  WHERE f.hops < 8
),
res AS (
  SELECT f.src, f.cur, f.hops FROM f
  WHERE f.cur NOT IN (SELECT src FROM edges)
)
SELECT e.src AS src_url,
       coalesce(r.cur, '') AS final_url,
       CAST(coalesce(r.hops, -1) AS BIGINT) AS hops,
       r.src IS NULL AS is_cycle
FROM edges e LEFT JOIN res r ON e.src = r.src
"""

    # sitemap ingestion round-trip: the oracle reconstructs the values
    # the fixture serialized INTO the per-host sitemap XML; any parser
    # deviation (entity handling, entry order, lastmod omission)
    # hash-mismatches.
    sql["sitemap_seeds"] = """
SELECT 'h' || lpad(CAST(doc_id % 20 AS VARCHAR), 2, '0') || '.test'
         AS host,
       printf('https://h%02d.test/p/%d',
              CAST(doc_id % 20 AS INT), doc_id) AS url,
       CASE WHEN doc_id % 13 = 0 THEN ''
            ELSE printf('2026-01-%02d', CAST(doc_id % 28 + 1 AS INT))
       END AS lastmod
FROM documents
"""

    # per-column data-quality profile: min/max are exact selections and
    # counts are ints, so no float grid is needed anywhere.
    sql["table_profile"] = "\nUNION ALL\n".join(
        f"SELECT '{c}' AS column, CAST(count(*) AS BIGINT) AS n_rows, "
        f"CAST(count(*) - count({c}) AS BIGINT) AS n_nulls, "
        f"CAST(min({c}) AS DOUBLE) AS min_val, "
        f"CAST(max({c}) AS DOUBLE) AS max_val FROM lineitem"
        for c in ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
                  "l_quantity", "l_extendedprice", "l_discount", "l_tax"])

    # crawl-snapshot diff: FULL OUTER JOIN of the two fingerprint
    # snapshots, churn rows only; removed (doc_id%11) takes precedence
    # over changed (doc_id%7) because the doc is absent from new.
    sql["snapshot_diff"] = """
WITH oldsnap AS (
  SELECT 'u/' || doc_id AS url, md5(text) AS fp FROM documents
),
newsnap AS (
  SELECT 'u/' || doc_id AS url,
         md5(CASE WHEN doc_id % 7 = 0 THEN text || ' upd'
                  ELSE text END) AS fp
  FROM documents WHERE doc_id % 11 <> 0
  UNION ALL
  SELECT 'u/' || (doc_id + 10000000), md5('new ' || doc_id)
  FROM documents WHERE doc_id % 13 = 0
),
j AS (
  SELECT coalesce(n.url, o.url) AS url, o.fp AS ofp, n.fp AS nfp
  FROM newsnap n FULL OUTER JOIN oldsnap o ON n.url = o.url
),
s AS (
  SELECT url,
    CASE WHEN ofp IS NULL THEN 'added'
         WHEN nfp IS NULL THEN 'removed'
         WHEN ofp <> nfp THEN 'changed'
         ELSE 'unchanged' END AS status,
    coalesce(ofp, '') AS old_fp,
    coalesce(nfp, '') AS new_fp
  FROM j
)
SELECT * FROM s WHERE status <> 'unchanged'
"""

    # DUST rule mining: the SQL replays the engine's own algorithm over
    # the same fixture — per-kv md5_number_lower hashes, per-URL multiset
    # SUM in HUGEINT (mod 2^64 == the engine's uint64 wrap; probe-side
    # traw - h never underflows since h is a summand of traw), probe
    # join on (base, fp, multiset-sum, param-count), support count.
    sql["dust_rules"] = """
WITH d AS (
  SELECT doc_id AS d, COALESCE(text, '') AS text,
         'https://h' || lpad(CAST(doc_id % 10 AS VARCHAR), 2, '0')
           || '.test/p/' || doc_id AS base
  FROM documents
),
pages AS (
  SELECT base, 'a=' || (d % 5) || '&b=' || (d % 3) AS q,
         md5(text) AS fp FROM d
  UNION ALL
  SELECT base, 'a=' || (d % 5) || '&sid=' || d || '&b=' || (d % 3),
         md5(text) FROM d WHERE d % 2 = 0
  UNION ALL
  SELECT base, 'a=' || (d % 5) || '&b=' || (d % 3) || '&ref=x',
         md5(text) FROM d WHERE d % 9 = 0
  UNION ALL
  SELECT base, 'a=' || (d % 5) || '&b=' || (d % 3) || '&v=1',
         md5(text || '#v') FROM d WHERE d % 4 = 0
),
kv AS (
  SELECT base, q, fp, unnest(string_split(q, '&')) AS kv FROM pages
),
kh AS (
  SELECT base, q, fp, kv,
         CAST(md5_number_lower(kv) AS HUGEINT) AS h
  FROM kv
),
tot AS (
  SELECT base, q, fp, SUM(h) AS traw, COUNT(*) AS n
  FROM kh GROUP BY base, q, fp
),
bases AS (
  SELECT DISTINCT base, fp,
         traw % 18446744073709551616 AS msum, n FROM tot
),
probes AS (
  SELECT kh.base AS base, kh.fp AS fp,
         (t.traw - kh.h) % 18446744073709551616 AS msum,
         t.n - 1 AS n,
         regexp_extract(kh.base, '://([^/]+)', 1) AS host,
         string_split(kh.kv, '=')[1] AS param
  FROM kh JOIN tot t
    ON kh.base = t.base AND kh.q = t.q AND kh.fp = t.fp
)
SELECT p.host AS host, p.param AS param,
       CAST(COUNT(*) AS BIGINT) AS support
FROM probes p JOIN bases b
  ON p.base = b.base AND p.fp = b.fp
 AND p.msum = b.msum AND p.n = b.n
GROUP BY p.host, p.param
HAVING COUNT(*) >= 2
"""

    # recrawl-priority estimator: the window lag() over (url, snap)
    # reproduces the engine's adjacent-observation change flags exactly;
    # lambda = ln(I) - ln(I-X) is ln of small exact integers on both
    # systems, snapped to the 1e-6 grid (repo float-parity convention).
    sql["recrawl_priority"] = """
WITH d AS (
  SELECT doc_id AS d, COALESCE(text, '') AS text,
         doc_id % 3 + 1 AS p
  FROM documents
),
obs AS (
  SELECT 'u/' || d AS url, s.s AS snap_id,
         md5(text || '#' || CAST(s.s // p AS VARCHAR)) AS fp
  FROM d, (SELECT unnest([0, 1, 2, 3]) AS s) s
  WHERE NOT (d % 7 = 0 AND s.s = d % 4)
),
lagged AS (
  SELECT url, fp,
         lag(fp) OVER (PARTITION BY url ORDER BY snap_id) AS prev_fp
  FROM obs
),
agg AS (
  SELECT url,
         CAST(COUNT(*) AS BIGINT) AS n_obs,
         CAST(SUM(CASE WHEN prev_fp IS NOT NULL AND fp <> prev_fp
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_changes,
         CAST(SUM(CASE WHEN prev_fp IS NOT NULL
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_intervals
  FROM lagged GROUP BY url
)
SELECT url, n_obs, n_changes, n_intervals,
       CASE WHEN n_intervals = 0 THEN -2
            WHEN n_changes = n_intervals THEN -1
            ELSE CAST(floor((ln(n_intervals)
                             - ln(n_intervals - n_changes)) * 1000000
                            + 0.5) AS BIGINT)
       END AS lam_micro
FROM agg
"""

    # shared page-level link fixture for the two link-graph oracles —
    # reconstructs _link_rows() exactly (3 links per doc, modular
    # targets, anchor a((d+3j)%9)).
    _LINKS_CTE = """
links AS (
  SELECT 'https://h0' || CAST(doc_id % 10 AS VARCHAR)
           || '.test/p/' || CAST(doc_id AS VARCHAR) AS src_url,
         'https://h0' || CAST(((doc_id * (7 + 2 * j.j) + j.j) % 997) % 10
                              AS VARCHAR)
           || '.test/p/'
           || CAST((doc_id * (7 + 2 * j.j) + j.j) % 997 AS VARCHAR)
           AS dst_url,
         'a' || CAST((doc_id + 3 * j.j) % 9 AS VARCHAR) AS anchor
  FROM documents, (SELECT unnest([0, 1, 2]) AS j) j
)"""

    # anchor-text top-k: row_number over the engine's total order
    # (count desc, anchor asc) — integer counts, exact.
    sql["anchor_topk"] = """
WITH """ + _LINKS_CTE + """,
counts AS (
  SELECT dst_url, anchor, CAST(COUNT(*) AS BIGINT) AS n_links
  FROM links GROUP BY dst_url, anchor
)
SELECT dst_url, anchor, n_links, rank FROM (
  SELECT dst_url, anchor, n_links,
         CAST(row_number() OVER (PARTITION BY dst_url
                                 ORDER BY n_links DESC, anchor)
              AS BIGINT) AS rank
  FROM counts
) WHERE rank <= 3
"""

    # host link graph: GROUP BY host pair with exact distinct-src count.
    sql["host_link_graph"] = """
WITH """ + _LINKS_CTE + """
SELECT lower(regexp_extract(src_url, '^[A-Za-z][A-Za-z0-9+.\\-]*://([^/?#]+)', 1))
         AS src_host,
       lower(regexp_extract(dst_url, '^[A-Za-z][A-Za-z0-9+.\\-]*://([^/?#]+)', 1))
         AS dst_host,
       CAST(COUNT(*) AS BIGINT) AS n_links,
       CAST(COUNT(DISTINCT src_url) AS BIGINT) AS n_src_pages
FROM links
GROUP BY src_host, dst_host
"""

    # outlink diversity: per src page the total / distinct-host /
    # external outbound-link counts and the exact micro-unit external
    # fraction (integer operands through one IEEE divide — identical in
    # numpy and DuckDB).
    sql["outlink_diversity"] = """
WITH """ + _LINKS_CTE + """,
h AS (
  SELECT src_url,
         lower(regexp_extract(src_url,
               '^[A-Za-z][A-Za-z0-9+.\\-]*://([^/?#]+)', 1)) AS src_host,
         lower(regexp_extract(dst_url,
               '^[A-Za-z][A-Za-z0-9+.\\-]*://([^/?#]+)', 1)) AS dst_host
  FROM links
),
agg AS (
  SELECT src_url,
         CAST(count(*) AS BIGINT) AS n_links,
         CAST(count(DISTINCT dst_host) AS BIGINT) AS n_hosts,
         CAST(sum(CASE WHEN dst_host <> src_host THEN 1 ELSE 0 END)
              AS BIGINT) AS n_external
  FROM h WHERE src_host <> '' AND dst_host <> ''
  GROUP BY src_url
)
SELECT src_url, n_links, n_hosts, n_external,
       CAST(floor(n_external * 1000000 / n_links + 0.5) AS BIGINT)
         AS external_micro
FROM agg
"""

    # crawl budget allocation: cumulative-quota proportional split —
    # integer floor-div jump points over the host-ascending cumulative
    # weight; HUGEINT window sum in DuckDB, int64 (range-checked) in the
    # engine; sums to exactly B by telescoping.
    sql["crawl_budget_allocation"] = """
WITH w AS (
  SELECT 'h' || lpad(CAST(doc_id % 97 AS VARCHAR), 3, '0') || '.test'
           AS host,
         CAST(sum(doc_id % 13 + 1) AS BIGINT) AS weight
  FROM documents GROUP BY 1),
tot AS (SELECT sum(weight) AS W FROM w),
c AS (SELECT host, weight,
        sum(weight) OVER (ORDER BY host ROWS UNBOUNDED PRECEDING) AS cw
      FROM w)
SELECT host, weight,
       CAST(cw * 10000000 // W - (cw - weight) * 10000000 // W AS BIGINT)
         AS budget
FROM c, tot
"""

    # freshness-weighted recrawl allocation: the recrawl_priority CTE's
    # lam_micro becomes the cumulative-quota weight (sentinel map in the
    # engine docstring), then the same jump-point floor-div split.
    sql["recrawl_budget"] = f"""
WITH pri AS ({sql["recrawl_priority"]}),
w AS (
  SELECT url,
         CASE WHEN lam_micro = -2 THEN CAST(1 AS BIGINT)
              WHEN lam_micro = -1 THEN CAST(2000000 AS BIGINT)
              ELSE lam_micro + 1 END AS weight
  FROM pri),
tot AS (SELECT sum(weight) AS W FROM w),
c AS (SELECT url, weight,
        sum(weight) OVER (ORDER BY url ROWS UNBOUNDED PRECEDING) AS cw
      FROM w)
SELECT url, weight,
       CAST(cw * 1000000 // W - (cw - weight) * 1000000 // W AS BIGINT)
         AS budget
FROM c, tot
"""

    # politeness clamp over the allocation: capacity = epoch // delay
    # for every 5th host index (delay 1 + idx % 7), -1 = unbounded;
    # granted = least(allocated, capacity), clip reported not
    # redistributed (engine docstring).
    sql["politeness_budget"] = f"""
WITH alloc AS ({sql["crawl_budget_allocation"]}),
feat AS (
  SELECT host, weight, budget AS allocated,
         CAST(regexp_extract(host, '^h(\\d+)\\.test$', 1) AS BIGINT)
           AS idx
  FROM alloc)
SELECT host, weight, allocated,
       CASE WHEN idx % 5 = 0 THEN 86400 // (1 + idx % 7)
            ELSE -1 END AS capacity,
       CASE WHEN idx % 5 = 0
            THEN least(allocated, 86400 // (1 + idx % 7))
            ELSE allocated END AS granted,
       allocated - CASE WHEN idx % 5 = 0
                        THEN least(allocated, 86400 // (1 + idx % 7))
                        ELSE allocated END AS clipped
FROM feat
"""

    # crawler-trap hosts: the oracle reconstructs the per-URL depth /
    # repeat features directly from the fixture formulas (the
    # sitemap_seeds convention — URL parsing itself is pinned by the
    # trap_host_stats unit tests) and mirrors the integer majority rule.
    sql["trap_hosts"] = """
WITH per AS (
  SELECT 'h' || lpad(CAST(doc_id % 20 AS VARCHAR), 2, '0') || '.test'
           AS host,
         CASE WHEN doc_id % 20 < 2 THEN 2 * (2 + doc_id % 3) + 1
              WHEN doc_id % 20 < 4 THEN 6 + doc_id % 5
              ELSE 2 END AS depth,
         CASE WHEN doc_id % 20 < 2 THEN (2 + doc_id % 3) >= 3
              ELSE FALSE END AS rep
  FROM documents),
agg AS (
  SELECT host, CAST(count(*) AS BIGINT) AS n_urls,
         CAST(max(depth) AS BIGINT) AS max_depth,
         CAST(sum(CASE WHEN depth >= 8 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_deep,
         CAST(sum(CASE WHEN rep THEN 1 ELSE 0 END) AS BIGINT)
           AS n_repeat
  FROM per GROUP BY host)
SELECT host, n_urls, max_depth, n_deep, n_repeat,
       (2 * n_deep >= n_urls OR 2 * n_repeat >= n_urls) AS is_trap
FROM agg
"""

    # robots.txt parsing: the oracle reconstructs the rule rows the
    # fixture serialized into each body (sitemap_seeds convention);
    # stacked agents share one seq, the unknown directive emits nothing.
    sql["robots_rules"] = """
WITH r AS (SELECT doc_id AS d, 'h' || CAST(doc_id AS VARCHAR) || '.test'
                    AS host
           FROM documents WHERE doc_id % 10 = 0)
SELECT host, agent, directive, value, seq FROM (
  SELECT host, '*' AS agent, 'disallow' AS directive,
         '/private' AS value, CAST(0 AS BIGINT) AS seq FROM r
  UNION ALL
  SELECT host, '*', 'allow', '/private/ok', CAST(1 AS BIGINT) FROM r
  UNION ALL
  SELECT host, 'bot' || CAST(d % 5 AS VARCHAR), 'crawl_delay',
         CAST(1 + d % 7 AS VARCHAR), CAST(2 AS BIGINT)
  FROM r WHERE d % 20 = 0
  UNION ALL
  SELECT host, 'spider' || CAST(d % 3 AS VARCHAR), 'crawl_delay',
         CAST(1 + d % 7 AS VARCHAR), CAST(2 AS BIGINT)
  FROM r WHERE d % 20 = 0
  UNION ALL
  SELECT host, '', 'sitemap', 'https://' || host || '/sitemap.xml',
         CAST(CASE WHEN d % 20 = 0 THEN 3 ELSE 2 END AS BIGINT) FROM r
)
"""

    # WARC ingestion: the oracle reconstructs the record manifest from
    # the fixture formulas — the byte-level record framing the engine
    # scanner walks is exactly what the md5/body_len columns verify.
    sql["warc_records"] = """
WITH d AS (SELECT doc_id AS d, COALESCE(text, '') AS text,
                  'https://h' || lpad(CAST(doc_id % 10 AS VARCHAR), 2, '0')
                    || '.test/p/' || CAST(doc_id AS VARCHAR) AS url
           FROM documents)
SELECT d AS shard_id, rec_idx, rec_type, target_uri, status,
       content_type, body_len, body_md5 FROM (
  SELECT d, CAST(0 AS BIGINT) AS rec_idx, 'warcinfo' AS rec_type,
         '' AS target_uri, CAST(-1 AS BIGINT) AS status,
         '' AS content_type, CAST(23 AS BIGINT) AS body_len,
         md5('software: spatula-ray' || chr(13) || chr(10)) AS body_md5
  FROM d
  UNION ALL
  SELECT d, CAST(1 AS BIGINT), 'response', url, CAST(200 AS BIGINT),
         'text/html; charset=utf-8',
         CAST(octet_length(encode(text)) AS BIGINT), md5(text)
  FROM d
  UNION ALL
  SELECT d, CAST(2 AS BIGINT), 'revisit', url || '?rev',
         CAST(-1 AS BIGINT), '', CAST(0 AS BIGINT), md5('')
  FROM d WHERE d % 5 = 0
)
"""

    # host rank: the host_link_graph edge set (DISTINCT host pairs from
    # the link fixture) fed into the doc_pagerank CTE playbook, 3
    # iterations unrolled programmatically.
    _hr_parts = ["""
WITH e AS (
  SELECT DISTINCT doc_id % 10 AS src,
         ((doc_id * (7 + 2 * j.j) + j.j) % 997) % 10 AS dst
  FROM documents, (SELECT unnest([0, 1, 2]) AS j) j),
deg AS (SELECT src, count(*) AS outdeg FROM e GROUP BY src),
r0 AS (SELECT unnest(generate_series(0, 9)) AS node,
              CAST(1000000000 AS BIGINT) AS rank)"""]
    for _i in (1, 2, 3):
        _hr_parts.append(f""",
c{_i} AS (SELECT e.dst AS node, sum(r.rank // deg.outdeg) AS s
          FROM e JOIN r{_i - 1} r ON r.node = e.src
                 JOIN deg ON deg.src = e.src
          GROUP BY e.dst),
r{_i} AS (SELECT r.node,
                 CAST(150000000 + (coalesce(c.s, 0) * 850) // 1000
                      AS BIGINT) AS rank
          FROM r{_i - 1} r LEFT JOIN c{_i} c ON c.node = r.node)""")
    _hr_parts.append("""
SELECT node AS host_id, rank FROM r3
""")
    sql["host_rank"] = "".join(_hr_parts)

    # canonical-URL election over the dust_rules alias fixture: min-URL
    # per shared fingerprint, singletons dropped.
    sql["canonical_urls"] = """
WITH d AS (
  SELECT doc_id AS dd, COALESCE(text, '') AS text,
         'https://h' || lpad(CAST(doc_id % 10 AS VARCHAR), 2, '0')
           || '.test/p/' || doc_id AS base
  FROM documents
),
pages AS (
  SELECT base || '?a=' || (dd % 5) || '&b=' || (dd % 3) AS url,
         md5(text) AS fp FROM d
  UNION ALL
  SELECT base || '?a=' || (dd % 5) || '&sid=' || dd || '&b=' || (dd % 3),
         md5(text) FROM d WHERE dd % 2 = 0
  UNION ALL
  SELECT base || '?a=' || (dd % 5) || '&b=' || (dd % 3) || '&ref=x',
         md5(text) FROM d WHERE dd % 9 = 0
  UNION ALL
  SELECT base || '?a=' || (dd % 5) || '&b=' || (dd % 3) || '&v=1',
         md5(text || '#v') FROM d WHERE dd % 4 = 0
)
SELECT fp AS fingerprint, min(url) AS canonical_url,
       CAST(count(*) AS BIGINT) AS n_aliases
FROM pages GROUP BY fp HAVING count(*) >= 2
"""

    # MinHash calibration: the ngram_jaccard CTEs give the exact side;
    # the estimate side mirrors the parity MinHasher bit-for-bit —
    # md5_number_lower shingle hashes, a_i < 2^32 so the HUGEINT product
    # never overflows, and the same two mod-2^64 wraps as numpy uint64.
    sql["minhash_calibration"] = """
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 100000,
         array_to_string(list_transform(string_split(text, ' '),
             (w, i) -> CASE WHEN i % 10 = 0 THEN 'xq7' ELSE w END), ' ')
  FROM documents
),
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM aug),
sh AS (
  SELECT doc_id, unnest(list_distinct(
    CASE WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
         ELSE list_transform(generate_series(1, len(ts) - 2),
                             i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2])
    END)) AS g
  FROM tok
),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
rawp AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS c
  FROM sh s1 JOIN sh s2 ON s1.g = s2.g AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
),
jp AS (
  SELECT a, b, c, ca.n AS na, cb.n AS nb
  FROM rawp JOIN cnt ca ON ca.doc_id = a
            JOIN cnt cb ON cb.doc_id = b
  WHERE c::DOUBLE / (ca.n + cb.n - c) >= 0.2
),
shh AS (SELECT doc_id, CAST(md5_number_lower(g) AS HUGEINT) AS h FROM sh),
pp AS (SELECT i,
              ((2 * CAST(i AS HUGEINT) + 1) * 2654435769)
                % 4294967296 AS ac,
              (CAST(i AS HUGEINT) * 18397679294719823053)
                % 18446744073709551616 AS bc
       FROM (SELECT unnest(generate_series(0, 15)) AS i)),
pv AS (SELECT s.doc_id, p.i,
              min((((s.h * p.ac) % 18446744073709551616) + p.bc)
                  % 18446744073709551616
                  % 2305843009213693951) AS mh
       FROM shh s, pp p GROUP BY s.doc_id, p.i),
m AS (SELECT jp.a, jp.b,
             count(*) FILTER (WHERE va.mh = vb.mh) AS matches
      FROM jp JOIN pv va ON va.doc_id = jp.a
              JOIN pv vb ON vb.doc_id = jp.b AND vb.i = va.i
      GROUP BY jp.a, jp.b)
SELECT jp.a, jp.b,
       CAST(floor(jp.c::DOUBLE / (jp.na + jp.nb - jp.c) * 1e6 + 0.5)
            AS BIGINT) AS jac_micro,
       CAST(m.matches * 1000000 // 16 AS BIGINT) AS est_micro,
       CAST(abs(m.matches * 1000000 // 16
                - CAST(floor(jp.c::DOUBLE / (jp.na + jp.nb - jp.c) * 1e6
                             + 0.5) AS BIGINT)) AS BIGINT) AS err_micro
FROM jp JOIN m ON m.a = jp.a AND m.b = jp.b
"""

    # sitemap index recursion: the oracle reconstructs the child rows
    # the fixture serialized (the sitemap_seeds convention); the
    # loc-less trailing entry must vanish.
    sql["sitemap_index"] = """
WITH r AS (SELECT doc_id AS d,
                  'h' || CAST(doc_id AS VARCHAR) || '.test' AS host
           FROM documents WHERE doc_id % 20 = 0),
k AS (SELECT d, host, unnest(generate_series(0, d % 4)) AS k FROM r)
SELECT host,
       'https://' || host || '/sitemap-' || CAST(k AS VARCHAR)
         || '.xml' AS sitemap_url,
       CASE WHEN k % 3 = 2 THEN ''
            ELSE '2026-08-' || lpad(CAST(10 + k % 3 AS VARCHAR), 2, '0')
       END AS lastmod
FROM k
"""

    # TextRank keywords: head-vocab co-occurrence graph + the weighted
    # pagerank unroll (host_rank_weighted pattern) over <= 50 word ids.
    _tr_parts = ["""
WITH tokp AS (
  SELECT doc_id, i, ts[i] AS w FROM (
    SELECT doc_id, string_split(text, ' ') AS ts,
           unnest(generate_series(1, len(ts))) AS i
    FROM documents)),
tc AS (SELECT w AS term, count(*) AS cnt FROM (
         SELECT unnest(string_split(text, ' ')) AS w FROM documents)
       GROUP BY w),
vocab AS (SELECT term,
                 row_number() OVER (ORDER BY cnt DESC, term) - 1 AS vid
          FROM tc
          QUALIFY row_number() OVER (ORDER BY cnt DESC, term) <= 50),
pairs AS (SELECT a.vid AS x, b.vid AS y
          FROM tokp t1
          JOIN tokp t2 ON t2.doc_id = t1.doc_id AND t2.i = t1.i + 1
          JOIN vocab a ON a.term = t1.w
          JOIN vocab b ON b.term = t2.w
          WHERE a.vid <> b.vid),
e AS (SELECT src, dst, CAST(count(*) AS HUGEINT) AS w FROM (
        SELECT x AS src, y AS dst FROM pairs
        UNION ALL SELECT y, x FROM pairs)
      GROUP BY src, dst),
deg AS (SELECT src, sum(w) AS wt FROM e GROUP BY src),
r0 AS (SELECT unnest(generate_series(0, 49)) AS node,
              CAST(1000000000 AS BIGINT) AS rank)"""]
    for _i in (1, 2, 3):
        _tr_parts.append(f""",
c{_i} AS (SELECT e.dst AS node,
                 sum(CAST(r.rank AS HUGEINT) * e.w // deg.wt) AS s
          FROM e JOIN r{_i - 1} r ON r.node = e.src
                 JOIN deg ON deg.src = e.src
          GROUP BY e.dst),
r{_i} AS (SELECT r.node,
                 CAST(150000000 + (coalesce(c.s, 0) * 850) // 1000
                      AS BIGINT) AS rank
          FROM r{_i - 1} r LEFT JOIN c{_i} c ON c.node = r.node)""")
    _tr_parts.append("""
SELECT v.term, r.rank FROM r3 r JOIN vocab v ON v.vid = r.node
""")
    sql["textrank_keywords"] = "".join(_tr_parts)

    # co-citation host similarity: exact Jaccard over distinct inbound
    # page sets, host ids straight from the link-fixture formulas.
    sql["colink_similarity"] = """
WITH l AS (
  SELECT DISTINCT
         'https://h0' || CAST(doc_id % 10 AS VARCHAR)
           || '.test/p/' || CAST(doc_id AS VARCHAR) AS src,
         ((doc_id * (7 + 2 * j.j) + j.j) % 997) % 10 AS host
  FROM documents, (SELECT unnest([0, 1, 2]) AS j) j),
cnt AS (SELECT host, count(*) AS n FROM l GROUP BY host),
pairs AS (SELECT a.host AS a, b.host AS b, count(*) AS c
          FROM l a JOIN l b ON a.src = b.src AND a.host < b.host
          GROUP BY 1, 2)
SELECT a, b,
       floor(c::DOUBLE / (ca.n + cb.n - c) * 1e6 + 0.5) / 1e6 AS jaccard
FROM pairs JOIN cnt ca ON ca.host = a
           JOIN cnt cb ON cb.host = b
WHERE c::DOUBLE / (ca.n + cb.n - c) >= 0.05
"""

    # rendezvous sharding: per URL the argmax-weight shard under 8 and
    # 9 shards, same md5 weights, ties to the lower shard id.
    sql["rendezvous_shards"] = """
WITH u AS (SELECT 'https://h' || lpad(CAST(doc_id % 10 AS VARCHAR), 2, '0')
                    || '.test/p/' || CAST(doc_id AS VARCHAR) AS url
           FROM documents),
w AS (SELECT url, s.s AS s,
             md5_number_lower(url || '#' || CAST(s.s AS VARCHAR)) AS wt
      FROM u, (SELECT unnest(generate_series(0, 8)) AS s) s),
old AS (SELECT url, s AS shard_old FROM (
          SELECT url, s, row_number() OVER (PARTITION BY url
                     ORDER BY wt DESC, s) AS rk
          FROM w WHERE s < 8) WHERE rk = 1),
nw AS (SELECT url, s AS shard_new FROM (
          SELECT url, s, row_number() OVER (PARTITION BY url
                     ORDER BY wt DESC, s) AS rk
          FROM w) WHERE rk = 1)
SELECT o.url, CAST(o.shard_old AS BIGINT) AS shard_old,
       CAST(n.shard_new AS BIGINT) AS shard_new,
       o.shard_old <> n.shard_new AS moved
FROM old o JOIN nw n USING (url)
"""

    # HyperBall neighborhood function: per-node register unions along
    # out-edges, unrolled per iteration; register state digested to
    # exact (v_zero, sum_r) ints. 2^58 = 288230376151711744.
    _hb_parts = ["""
WITH n AS (SELECT count(*) AS n FROM documents),
e AS (SELECT d.doc_id % n.n AS src,
             (d.doc_id + d.j * d.j * 7919 + 13) % n.n AS dst
      FROM (SELECT doc_id,
                   unnest(generate_series(1, 1 + doc_id % 3)) AS j
            FROM documents) d, n),
hh AS (SELECT doc_id AS node,
              CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) AS HUGEINT)
                AS h
       FROM documents),
s0 AS (SELECT node,
              CAST(h // 288230376151711744 AS BIGINT) AS b,
              CAST(CASE WHEN h % 288230376151711744 = 0 THEN 59
                   ELSE 59 - length(format('{:b}',
                        CAST(h % 288230376151711744 AS BIGINT))) END
                   AS BIGINT) AS r
       FROM hh)"""]
    for _i in (1, 2):
        _hb_parts.append(f""",
s{_i} AS (SELECT node, b, max(r) AS r FROM (
           SELECT node, b, r FROM s{_i - 1}
           UNION ALL
           SELECT e.src, s.b, s.r
           FROM e JOIN s{_i - 1} s ON s.node = e.dst)
         GROUP BY node, b)""")
    _hb_parts.append("""
SELECT node, CAST(64 - count(*) AS BIGINT) AS v_zero,
       CAST(sum(r) AS BIGINT) AS sum_r
FROM s2 GROUP BY node
""")
    sql["hyperball_reach"] = "".join(_hb_parts)

    # reciprocal-link audit: distinct directed edges, LEFT JOIN for the
    # reverse direction, per-src exact micro fraction.
    sql["reciprocal_edges"] = """
WITH nn AS (SELECT count(*) AS n FROM documents),
base AS (SELECT doc_id % nn.n AS d, nn.n AS n FROM documents, nn),
e0 AS (
  SELECT d AS src, (d + 1) % n AS dst FROM base
  UNION ALL SELECT (d + 1) % n, d FROM base WHERE d % 3 = 0
  UNION ALL SELECT d, (d + 7) % n FROM base WHERE d % 2 = 0
  UNION ALL SELECT d, (d + 1) % n FROM base WHERE d % 5 = 0
  UNION ALL SELECT d, d FROM base WHERE d % 10 = 0
),
e AS (SELECT DISTINCT src, dst FROM e0 WHERE src <> dst),
rec AS (SELECT a.src, (b.src IS NOT NULL) AS has_rev
        FROM e a LEFT JOIN e b ON b.src = a.dst AND b.dst = a.src)
SELECT src, CAST(count(*) AS BIGINT) AS out_deg,
       CAST(sum(CASE WHEN has_rev THEN 1 ELSE 0 END) AS BIGINT)
         AS n_recip,
       CAST(sum(CASE WHEN has_rev THEN 1 ELSE 0 END) * 1000000
            // count(*) AS BIGINT) AS recip_micro
FROM rec GROUP BY src
"""

    # degree histogram: the doc_pagerank edge fixture, exact log2
    # buckets (floor(log2) is exact at the only risky points — powers
    # of two — on both engines; the engine additionally corrects
    # boundaries in integer space).
    sql["degree_histogram"] = """
WITH n AS (SELECT count(*) AS n FROM documents),
e AS (SELECT d.doc_id % n.n AS src,
             (d.doc_id + d.j * d.j * 7919 + 13) % n.n AS dst
      FROM (SELECT doc_id,
                   unnest(generate_series(1, 1 + doc_id % 3)) AS j
            FROM documents) d, n),
outd AS (SELECT src AS node, count(*) AS deg FROM e GROUP BY src),
ind AS (SELECT dst AS node, count(*) AS deg FROM e GROUP BY dst),
u AS (SELECT 'out' AS direction, deg FROM outd
      UNION ALL SELECT 'in', deg FROM ind)
SELECT direction, CAST(floor(log2(deg)) AS BIGINT) AS log2_deg,
       CAST(count(*) AS BIGINT) AS n_nodes
FROM u GROUP BY direction, log2_deg
"""

    # host-scoped boilerplate: doc-frequency per (host, line) over the
    # fixture's reconstructed line sets; unique content lines (suffixed
    # with #doc_id) can never reach min_df.
    sql["host_boilerplate"] = """
WITH d AS (SELECT doc_id AS d,
                  'h' || lpad(CAST(doc_id % 20 AS VARCHAR), 2, '0')
                    || '.test' AS host
           FROM documents),
lines AS (
  SELECT host, 'nav ' || host || ' home about' AS line FROM d
  UNION ALL
  SELECT host, '(c) example footer' FROM d
  UNION ALL
  SELECT host, 'promo ' || host || ' weekly deal' FROM d WHERE d % 4 = 0
)
SELECT host, line, CAST(count(*) AS BIGINT) AS df
FROM lines GROUP BY host, line HAVING count(*) >= 3
"""

    # quality-vs-duplication calibration: the hashed_linear mirror over
    # the every-3rd-doc-copied corpus, quartile thresholds via
    # quantile_disc (the filter_ensemble-proven exact_quantiles parity),
    # dup = md5(text) group size >= 2.
    sql["quality_dup_calibration"] = """
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 100000, text FROM documents WHERE doc_id % 3 = 0
),
tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM aug),
b AS (SELECT doc_id, CAST(md5_number_lower(w) % 256 AS BIGINT) AS bin
      FROM tok WHERE w <> ''),
s AS (SELECT doc_id, SUM((bin * 2654435761) % 1001 - 500) AS score
      FROM b GROUP BY doc_id),
sc AS (SELECT a.doc_id, CAST(coalesce(s.score, 0) AS BIGINT) AS score
       FROM aug a LEFT JOIN s USING (doc_id)),
q AS (SELECT quantile_disc(score, 0.25) AS q1,
             quantile_disc(score, 0.5) AS q2,
             quantile_disc(score, 0.75) AS q3 FROM sc),
dup AS (SELECT doc_id,
               count(*) OVER (PARTITION BY md5(COALESCE(text, '')))
                 >= 2 AS is_dup
        FROM aug),
rows_ AS (
  SELECT CAST((sc.score > q.q1)::INT + (sc.score > q.q2)::INT
              + (sc.score > q.q3)::INT AS BIGINT) AS quartile,
         CAST(d.is_dup AS INT) AS dupi
  FROM sc JOIN dup d USING (doc_id), q)
SELECT quartile, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(dupi) AS BIGINT) AS n_dup,
       CAST(sum(dupi) * 1000000 // greatest(count(*), 1) AS BIGINT)
         AS dup_micro
FROM rows_ GROUP BY quartile
"""

    # interleaved truncation: the caption-spans CTE + a window cumsum
    # over (doc, seq); text cost = word count, media cost flat 16.
    sql["interleaved_truncate"] = """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
iw AS (SELECT doc_id, ws,
              unnest(generate_series(1, CAST(ceil(len(ws)/8.0) AS BIGINT)))
                AS i
       FROM w),
paras AS (SELECT doc_id, i - 1 AS pidx,
                 array_to_string(ws[(i-1)*8+1 : (i-1)*8+8], ' ') AS ptext
          FROM iw),
np AS (SELECT doc_id, count(*) AS p FROM paras GROUP BY doc_id),
spans AS (
  SELECT doc_id, 2 * pidx AS seq,
         CAST(len(string_split(ptext, ' ')) AS BIGINT) AS cost
  FROM paras
  UNION ALL
  SELECT doc_id, 2 * (doc_id % p) + 1, 16 FROM np
  UNION ALL
  SELECT doc_id, 2 * p, 16 FROM np WHERE doc_id % 3 = 0
),
cum AS (
  SELECT doc_id, seq, cost,
         SUM(cost) OVER (PARTITION BY doc_id ORDER BY seq
                         ROWS UNBOUNDED PRECEDING) AS rc
  FROM spans
)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_spans_total,
       CAST(sum(CASE WHEN rc <= 40 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_spans_kept,
       CAST(sum(cost) AS BIGINT) AS tokens_total,
       CAST(sum(CASE WHEN rc <= 40 THEN cost ELSE 0 END) AS BIGINT)
         AS tokens_kept,
       sum(CASE WHEN rc <= 40 THEN 1 ELSE 0 END) < count(*) AS truncated
FROM cum GROUP BY doc_id
"""

    # shard manifest: the oracle recomputes the per-shard resume table
    # straight from the source — the engine's number passes through an
    # actual partitioned parquet write + pruned read.
    sql["shard_manifest"] = """
SELECT doc_id % 8 AS shard,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min(doc_id) AS BIGINT) AS min_doc,
       CAST(max(doc_id) AS BIGINT) AS max_doc,
       CAST(sum(length(COALESCE(text, ''))) AS BIGINT) AS n_chars
FROM documents GROUP BY shard
"""

    # weighted host rank: the same unroll with rank * w // W_u edge
    # contributions (HUGEINT in SQL; the engine's int64 split is exact).
    _hrw_parts = ["""
WITH pe AS (
  SELECT doc_id % 10 AS src,
         ((doc_id * (7 + 2 * j.j) + j.j) % 997) % 10 AS dst
  FROM documents, (SELECT unnest([0, 1, 2]) AS j) j),
e AS (SELECT src, dst, CAST(count(*) AS HUGEINT) AS w
      FROM pe GROUP BY src, dst),
deg AS (SELECT src, sum(w) AS wt FROM e GROUP BY src),
r0 AS (SELECT unnest(generate_series(0, 9)) AS node,
              CAST(1000000000 AS BIGINT) AS rank)"""]
    for _i in (1, 2, 3):
        _hrw_parts.append(f""",
c{_i} AS (SELECT e.dst AS node,
                 sum(CAST(r.rank AS HUGEINT) * e.w // deg.wt) AS s
          FROM e JOIN r{_i - 1} r ON r.node = e.src
                 JOIN deg ON deg.src = e.src
          GROUP BY e.dst),
r{_i} AS (SELECT r.node,
                 CAST(150000000 + (coalesce(c.s, 0) * 850) // 1000
                      AS BIGINT) AS rank
          FROM r{_i - 1} r LEFT JOIN c{_i} c ON c.node = r.node)""")
    _hrw_parts.append("""
SELECT node AS host_id, rank FROM r3
""")
    sql["host_rank_weighted"] = "".join(_hrw_parts)

    # ExactSubstr cut: the coverage oracle's window/dup/interval CTEs
    # composed verbatim, extended with the word-position anti-join and
    # ordered survivor re-join.
    sql["exact_substr_cut"] = """
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 100000,
         array_to_string(list_transform(string_split(text, ' '),
             (w, i) -> CASE WHEN i % 10 = 0 THEN 'xq7' ELSE w END), ' ')
  FROM documents
),
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM aug),
iw AS (SELECT doc_id, ts, len(ts) AS n,
              unnest(generate_series(1, greatest(len(ts) - 4, 1))) AS i
       FROM tok),
win AS (SELECT doc_id, i - 1 AS pos,
               CASE WHEN n < 5 THEN array_to_string(ts, ' ')
                    ELSE array_to_string(ts[i : i + 4], ' ') END AS g,
               CASE WHEN n < 5 THEN n ELSE 5 END AS wlen
        FROM iw),
dupg AS (SELECT g FROM win GROUP BY g HAVING count(*) >= 2),
cw AS (SELECT doc_id, pos, wlen FROM win JOIN dupg USING (g)),
cov AS (SELECT doc_id,
               pos + unnest(generate_series(0, wlen - 1)) AS w
        FROM cw),
covd AS (SELECT DISTINCT doc_id, w FROM cov),
wp AS (SELECT doc_id, i - 1 AS w, ts[i] AS word
       FROM (SELECT doc_id, ts,
                    unnest(generate_series(1, len(ts))) AS i
             FROM tok)),
kept AS (SELECT p.doc_id, p.w, p.word
         FROM wp p LEFT JOIN covd c
              ON c.doc_id = p.doc_id AND c.w = p.w
         WHERE c.w IS NULL),
ct AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS kept_words,
              string_agg(word, ' ' ORDER BY w) AS clean_text
       FROM kept GROUP BY doc_id),
nw AS (SELECT doc_id, len(ts) AS n_words FROM tok)
SELECT nw.doc_id, CAST(nw.n_words AS BIGINT) AS n_words,
       coalesce(ct.kept_words, 0) AS kept_words,
       coalesce(ct.clean_text, '') AS clean_text
FROM nw LEFT JOIN ct USING (doc_id)
"""

    # Flesch reading ease: the same word convention as the other text
    # oracles (string_split on ' ', empties dropped), syllable runs via
    # regexp_extract_all, exact integer micro-grid divisions.
    sql["readability"] = """
WITH d AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents),
words AS (
  SELECT doc_id, w FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM d)
  WHERE w <> ''),
per_word AS (
  SELECT doc_id,
         greatest(1, len(regexp_extract_all(w, '[aeiouyAEIOUY]+')))
           AS syl
  FROM words),
wagg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_words,
         CAST(sum(syl) AS BIGINT) AS n_syllables
  FROM per_word GROUP BY doc_id),
sagg AS (
  SELECT doc_id,
         greatest(1, len(regexp_extract_all(text, '[.!?]+'))) AS n_sents
  FROM d)
SELECT d.doc_id,
       COALESCE(w.n_words, 0) AS n_words,
       CAST(s.n_sents AS BIGINT) AS n_sents,
       COALESCE(w.n_syllables, 0) AS n_syllables,
       CASE WHEN COALESCE(w.n_words, 0) = 0 THEN -1000000000
            ELSE 206835000
                 - (1015000 * w.n_words) // s.n_sents
                 - (84600000 * w.n_syllables) // w.n_words
       END AS fre_micro
FROM d LEFT JOIN wagg w ON w.doc_id = d.doc_id
       JOIN sagg s ON s.doc_id = d.doc_id
"""

    # integer HITS: the same unrolled-iteration playbook as doc_pagerank
    # — every half-step is an integer join-sum + max-normalization
    # (floor division on the HITS_SCALE grid), so the CTE chain is
    # bit-identical to the engine's bucket kernels. Built
    # programmatically per iteration.
    _hits_parts = ["""
WITH n AS (SELECT count(*) AS n FROM documents),
e AS (SELECT d.doc_id % n.n AS src,
             (d.doc_id + d.j * d.j * 7919 + 13) % n.n AS dst
      FROM (SELECT doc_id,
                   unnest(generate_series(1, 1 + doc_id % 3)) AS j
            FROM documents) d, n),
s0 AS (SELECT doc_id AS node, CAST(1000000 AS BIGINT) AS h,
              CAST(1000000 AS BIGINT) AS a
       FROM documents)"""]
    for _i in (1, 2):
        _p = f"sh{_i - 1}" if _i > 1 else "s0"
        _hits_parts.append(f""",
ra{_i} AS (SELECT e.dst AS node, sum(s.h) AS s
           FROM e JOIN {_p} s ON s.node = e.src GROUP BY e.dst),
am{_i} AS (SELECT coalesce(max(s), 0) AS m FROM ra{_i}),
sa{_i} AS (SELECT s.node, s.h,
                  CAST(CASE WHEN am{_i}.m > 0
                       THEN coalesce(r.s, 0) * 1000000 // am{_i}.m
                       ELSE 0 END AS BIGINT) AS a
           FROM {_p} s LEFT JOIN ra{_i} r ON r.node = s.node, am{_i}),
rh{_i} AS (SELECT e.src AS node, sum(s.a) AS s
           FROM e JOIN sa{_i} s ON s.node = e.dst GROUP BY e.src),
hm{_i} AS (SELECT coalesce(max(s), 0) AS m FROM rh{_i}),
sh{_i} AS (SELECT s.node,
                  CAST(CASE WHEN hm{_i}.m > 0
                       THEN coalesce(r.s, 0) * 1000000 // hm{_i}.m
                       ELSE 0 END AS BIGINT) AS h, s.a
           FROM sa{_i} s LEFT JOIN rh{_i} r ON r.node = s.node, hm{_i})""")
    _hits_parts.append("""
SELECT node, h AS hub, a AS auth FROM sh2
""")
    sql["doc_hits"] = "".join(_hits_parts)

    # length-bucketed dynamic batching: the within-length-bucket order
    # is doc_id, so row_number reproduces the engine's distributed
    # prefix counts exactly; batch aggregates are Sum/Sum/Max over the
    # identical assignment.
    sql["length_batches"] = """
WITH n AS (
  SELECT doc_id,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
  FROM documents
),
b AS (
  SELECT doc_id, n_tokens,
         n_tokens // 16 AS len_bucket,
         row_number() OVER (PARTITION BY n_tokens // 16
                            ORDER BY doc_id) - 1 AS seq
  FROM n
)
SELECT len_bucket,
       CAST(seq // 8 AS BIGINT) AS batch_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(max(n_tokens) AS BIGINT) AS max_tokens,
       CAST(sum(n_tokens) AS BIGINT) AS sum_tokens,
       CAST(count(*) * max(n_tokens) - sum(n_tokens) AS BIGINT)
         AS pad_waste
FROM b GROUP BY 1, 2
"""

    # robots-gate conformance: the expected admit code is a pure
    # function of (host group, path variant) — group 0 prefix-denies
    # '/private' and '/p/archive' (so '/privateer/..' is denied too:
    # PREFIX rules), group 1 denies only '/private/' (so '/privateer/..'
    # passes), groups 2 (empty rules) and 3 (unknown host) allow all.
    sql["robots_conformance"] = """
WITH d AS (
  SELECT doc_id,
         doc_id % 20 AS hi,
         (doc_id % 20) % 4 AS hg,
         doc_id % 5 AS pv
  FROM documents
),
p AS (
  SELECT doc_id, hi, hg,
    CASE pv
      WHEN 0 THEN '/private/' || doc_id
      WHEN 1 THEN '/privateer/' || doc_id
      WHEN 2 THEN '/p/archive/' || doc_id
      WHEN 3 THEN '/public/' || doc_id
      ELSE '/p/a/' || doc_id END AS path
  FROM d
)
SELECT doc_id,
  'h' || lpad(CAST(hi AS VARCHAR), 2, '0') || '.test' AS host,
  path,
  CAST(CASE
    WHEN hg = 0 AND (starts_with(path, '/private')
                     OR starts_with(path, '/p/archive')) THEN 2
    WHEN hg = 1 AND starts_with(path, '/private/') THEN 2
    ELSE 0 END AS BIGINT) AS admit_code
FROM p
"""

    # positional ExactSubstr coverage (Lee et al.) — mirrors
    # stages/dedup.py::substring_dup_coverage over the near-dup fixture:
    # every 5-gram WINDOW (positional, not distinct) duplicated anywhere
    # in the corpus marks its word positions covered; coverage = union
    # of covered intervals per doc. Short docs (<5 words) form one
    # whole-doc window.
    sql["exact_substr_coverage"] = f"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + {_DUP_OFFSET},
         array_to_string(list_transform(string_split(text, ' '),
             (w, i) -> CASE WHEN i % 10 = 0 THEN 'xq7' ELSE w END), ' ')
  FROM documents
),
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM aug),
iw AS (SELECT doc_id, ts, len(ts) AS n,
              unnest(generate_series(1, greatest(len(ts) - 4, 1))) AS i
       FROM tok),
win AS (SELECT doc_id, i - 1 AS pos,
               CASE WHEN n < 5 THEN array_to_string(ts, ' ')
                    ELSE array_to_string(ts[i : i + 4], ' ') END AS g,
               CASE WHEN n < 5 THEN n ELSE 5 END AS wlen
        FROM iw),
dupg AS (SELECT g FROM win GROUP BY g HAVING count(*) >= 2),
cw AS (SELECT doc_id, pos, wlen FROM win JOIN dupg USING (g)),
cov AS (SELECT doc_id,
               pos + unnest(generate_series(0, wlen - 1)) AS w
        FROM cw),
covd AS (SELECT DISTINCT doc_id, w FROM cov),
c AS (SELECT doc_id, count(*) AS covered FROM covd GROUP BY doc_id),
nw AS (SELECT doc_id, len(ts) AS n_words FROM tok)
SELECT nw.doc_id,
       CAST(nw.n_words AS BIGINT) AS n_words,
       CAST(coalesce(c.covered, 0) AS BIGINT) AS covered_words,
       CAST(coalesce(c.covered, 0) * 1000000
            // greatest(nw.n_words, 1) AS BIGINT) AS coverage_micro
FROM nw LEFT JOIN c USING (doc_id)
"""

    # modality-ratio accounting per interleaved doc: the caption fixture's
    # spans CTE (sliced verbatim from the caption_pairs mirror) + one
    # GROUP BY with arg_min/arg_max boundary-kind election
    _spans_cte = sql["caption_pairs"].split("media AS")[0]
    sql["interleaved_doc_stats"] = f"""{_spans_cte}
agg AS (
  SELECT doc_id,
         CAST(count(*) AS BIGINT) AS n_spans,
         CAST(sum(CASE WHEN kind = 'text' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_text,
         CAST(sum(CASE WHEN kind <> 'text' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_media,
         CAST(sum(CASE WHEN kind = 'text' THEN length(text) ELSE 0 END)
              AS BIGINT) AS text_chars,
         CAST(arg_min(kind, seq) <> 'text' AS BIGINT) AS leads_media,
         CAST(arg_max(kind, seq) <> 'text' AS BIGINT) AS ends_media
  FROM spans GROUP BY doc_id
)
SELECT doc_id, n_spans, n_text, n_media, text_chars,
       CASE WHEN n_media > 0
            THEN CAST(CAST(text_chars AS HUGEINT) * 1000000 // n_media
                      AS BIGINT)
            ELSE -1 END AS chars_per_media_micro,
       leads_media, ends_media
FROM agg
"""

    # incremental-ingest dedup accounting: corpus chunk index LEFT JOIN
    # the new side's chunks; pct in integer micro-units (// floor div)
    sql["cdc_delta_bytes"] = f"""
WITH newdocs AS (
  SELECT doc_id + {_DUP_OFFSET} AS doc_id,
         array_to_string(list_transform(string_split(text, ' '),
             (w, i) -> CASE WHEN i % 10 = 0 THEN 'xq7' ELSE w END), ' ')
           AS text
  FROM documents
),
cc AS ({sql["cdc_chunks"]}),
nc AS ({sql["cdc_chunks"].replace("documents", "newdocs")}),
corp_set AS (SELECT DISTINCT chunk_hash FROM cc)
SELECT n.doc_id,
       CAST(sum(n.length) AS BIGINT) AS total_chars,
       CAST(sum(CASE WHEN c.chunk_hash IS NULL THEN n.length ELSE 0 END)
            AS BIGINT) AS new_chars,
       CAST(sum(CASE WHEN c.chunk_hash IS NULL THEN n.length ELSE 0 END)
            * 1000000 // sum(n.length) AS BIGINT) AS pct_new_micro
FROM nc n LEFT JOIN corp_set c USING (chunk_hash)
GROUP BY n.doc_id
"""

    sql["ann_recall"] = f"""
WITH e AS ({sql["ann_topk"]}),
l AS ({sql["lsh_ann_topk"]}),
i AS ({sql["ivf_ann_topk"]}),
p AS ({sql["pq_ann_topk"]}),
a AS ({sql["ivfadc_ann_topk"]}),
lr AS (SELECT e.query_id, 'lsh' AS method, count(l.vec_id) AS hits
       FROM e LEFT JOIN l
         ON l.query_id = e.query_id AND l.vec_id = e.vec_id
       GROUP BY 1),
ir AS (SELECT e.query_id, 'ivf' AS method, count(i.vec_id) AS hits
       FROM e LEFT JOIN i
         ON i.query_id = e.query_id AND i.vec_id = e.vec_id
       GROUP BY 1),
pr AS (SELECT e.query_id, 'pq' AS method, count(p.vec_id) AS hits
       FROM e LEFT JOIN p
         ON p.query_id = e.query_id AND p.vec_id = e.vec_id
       GROUP BY 1),
ar AS (SELECT e.query_id, 'ivfadc' AS method, count(a.vec_id) AS hits
       FROM e LEFT JOIN a
         ON a.query_id = e.query_id AND a.vec_id = e.vec_id
       GROUP BY 1)
SELECT query_id, method,
       CAST(hits * 1000000 // {_TOPK} AS BIGINT) AS recall_micro
FROM (SELECT * FROM lr UNION ALL SELECT * FROM ir
      UNION ALL SELECT * FROM pr UNION ALL SELECT * FROM ar)
"""

    # C4 line filters over the 6-word-line fixture: identical line
    # splitting, RE2 terminal-punct test, [^ ]+ word count, and the
    # three doc-level rules; clean_text re-joined in original order
    sql["c4_line_filters"] = """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
iw AS (SELECT doc_id, ws,
              unnest(generate_series(1, CAST(ceil(len(ws)/6.0) AS BIGINT)))
                AS i
       FROM w),
chunks AS (SELECT doc_id, i,
                  array_to_string(ws[(i-1)*6+1 : (i-1)*6+6], ' ') ||
                  CASE (doc_id + i) % 4 WHEN 0 THEN '.' WHEN 1 THEN '!'
                       WHEN 2 THEN '?' ELSE '' END AS line
           FROM iw),
body AS (SELECT doc_id, string_agg(line, chr(10) ORDER BY i) AS t
         FROM chunks GROUP BY doc_id),
aug AS (SELECT doc_id, t ||
          CASE WHEN doc_id % 5 = 0
               THEN chr(10) || 'please enable javascript to view this page.'
               ELSE '' END ||
          CASE WHEN doc_id % 11 = 0
               THEN chr(10) || 'lorem ipsum dolor sit amet consectetur.'
               ELSE '' END ||
          CASE WHEN doc_id % 13 = 0
               THEN chr(10) || 'function() { return 0; }'
               ELSE '' END AS text
        FROM body),
lines AS (SELECT doc_id, generate_subscripts(l, 1) AS i, unnest(l) AS line
          FROM (SELECT doc_id, string_split(text, chr(10)) AS l FROM aug)),
lf AS (SELECT doc_id, i, line,
              len(regexp_extract_all(line, '[^ ]+')) AS nw,
              (regexp_matches(line, '[.!?"]$')
               AND len(regexp_extract_all(line, '[^ ]+')) >= 5
               AND NOT contains(lower(line), 'javascript')) AS kept
       FROM lines),
agg AS (SELECT doc_id,
               count(*) AS n_lines,
               coalesce(sum(CASE WHEN kept THEN 1 ELSE 0 END), 0)
                 AS kept_lines,
               coalesce(sum(CASE WHEN kept THEN nw ELSE 0 END), 0)
                 AS n_words_kept,
               coalesce(string_agg(line, chr(10) ORDER BY i)
                          FILTER (WHERE kept), '') AS clean_text
        FROM lf GROUP BY doc_id),
flags AS (SELECT doc_id,
                 contains(lower(text), 'lorem ipsum') AS has_lorem,
                 contains(text, '{') AS has_brace
          FROM aug)
SELECT a.doc_id,
       CAST(a.n_lines AS BIGINT) AS n_lines,
       CAST(a.kept_lines AS BIGINT) AS kept_lines,
       CAST(a.n_words_kept AS BIGINT) AS n_words_kept,
       f.has_lorem, f.has_brace,
       (a.kept_lines >= 3 AND NOT f.has_lorem AND NOT f.has_brace) AS keep,
       a.clean_text
FROM agg a JOIN flags f USING (doc_id)
ORDER BY a.doc_id
"""

    # quality-ordered token-budget selection: same quality grid as
    # doc_quality, [^ ]+ token counts, budget = total_tokens // 3,
    # prefix rule over the (score desc, doc_id asc) total order
    sql["token_budget_select"] = """
WITH s AS (
  SELECT doc_id,
         CAST(floor((0.4 * (len(list_distinct(string_split(text, ' ')))::DOUBLE
                      / len(string_split(text, ' ')))
             + 0.3 * (length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE
                      / length(text))
             + 0.3 * least(1.0, length(text) / 500.0)) * 1e6 + 0.5)
              AS BIGINT) AS score_micro,
         CAST(len(regexp_extract_all(text, '[^ ]+')) AS BIGINT) AS n_tokens
  FROM documents),
b AS (SELECT CAST(sum(n_tokens) AS BIGINT) // 3 AS budget FROM s),
c AS (SELECT doc_id, score_micro, n_tokens,
             sum(n_tokens) OVER (ORDER BY score_micro DESC, doc_id ASC
                                 ROWS UNBOUNDED PRECEDING) AS cum
      FROM s)
SELECT c.doc_id, c.score_micro, c.n_tokens,
       (c.cum <= b.budget) AS selected
FROM c, b
ORDER BY c.doc_id
"""

    # intra-document line dedup over the 7-word-line repeat fixture:
    # first-occurrence survival per (doc, line), original order
    sql["dedup_within_doc"] = """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
iw AS (SELECT doc_id, ws,
              unnest(generate_series(1, CAST(ceil(len(ws)/7.0) AS BIGINT)))
                AS i
       FROM w),
chunks AS (SELECT doc_id, i,
                  array_to_string(ws[(i-1)*7+1 : (i-1)*7+7], ' ') AS line
           FROM iw),
body AS (SELECT doc_id, string_agg(line, chr(10) ORDER BY i) AS t
         FROM chunks GROUP BY doc_id),
first AS (SELECT doc_id, line AS l1 FROM chunks WHERE i = 1),
second AS (SELECT doc_id, line AS l2 FROM chunks WHERE i = 2),
aug AS (SELECT b.doc_id,
               b.t || chr(10) || f.l1 ||
               CASE WHEN b.doc_id % 2 = 0 AND s.l2 IS NOT NULL
                    THEN chr(10) || s.l2 ELSE '' END AS text
        FROM body b
        JOIN first f USING (doc_id)
        LEFT JOIN second s USING (doc_id)),
lines AS (SELECT doc_id, generate_subscripts(l, 1) AS i, unnest(l) AS line
          FROM (SELECT doc_id, string_split(text, chr(10)) AS l FROM aug)),
keep AS (SELECT doc_id, line, min(i) AS k
         FROM lines GROUP BY doc_id, line),
rebuilt AS (SELECT doc_id, count(*) AS n_unique,
                   string_agg(line, chr(10) ORDER BY k) AS clean_text
            FROM keep GROUP BY doc_id),
meta AS (SELECT doc_id, len(string_split(text, chr(10))) AS n_lines
         FROM aug)
SELECT m.doc_id,
       CAST(m.n_lines AS BIGINT) AS n_lines,
       CAST(r.n_unique AS BIGINT) AS n_unique,
       r.clean_text
FROM meta m JOIN rebuilt r USING (doc_id)
ORDER BY m.doc_id
"""
    return sql
