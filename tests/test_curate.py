"""Unit tests for the curation stages (stages/curate.py) covering the
shapes the sf fixtures don't exercise: multi-hop components, batch-size
invariance of the deterministic sample, prefix-sum packing vs a naive
oracle, and repetition-stat edge cases."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from spatula_ray.stages import curate, per_task


def _ds(table: pa.Table, parallelism=4):
    import ray.data as rd

    return rd.from_arrow(table).repartition(parallelism)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("single_task_edges", [0, 2_000_000],
                         ids=["loop", "fold-task"])
def test_connected_components_chain_and_singleton(single_task_edges):
    # chain 0-1-...-9 (diameter 9 forces multi-iteration hash-min
    # propagation), a separate triangle {20,21,22}, singleton 30;
    # both execution paths (distributed loop / single-task numpy fold)
    # must produce identical labels
    pairs = pa.table({"a": pa.array(list(range(9)) + [20, 20, 21],
                                    type=pa.int64()),
                      "b": pa.array(list(range(1, 10)) + [21, 22, 22],
                                    type=pa.int64())})
    nodes = pa.table({"node": pa.array(list(range(10)) + [20, 21, 22, 30],
                                       type=pa.int64())})
    out = curate.connected_components(
        _ds(nodes), _ds(pairs), num_buckets=4,
        single_task_edges=single_task_edges).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert all(got[i] == 0 for i in range(10))
    assert got[20] == got[21] == got[22] == 20
    assert got[30] == 30
    assert len(out) == 14


@pytest.mark.usefixtures("ray_session")
def test_connected_components_respects_max_iters():
    pairs = pa.table({"a": pa.array(list(range(5)), type=pa.int64()),
                      "b": pa.array(list(range(1, 6)), type=pa.int64())})
    nodes = pa.table({"node": pa.array(list(range(6)), type=pa.int64())})
    out = curate.connected_components(_ds(nodes, 2), _ds(pairs, 2),
                                      max_iters=1, num_buckets=2,
                                      single_task_edges=0).to_pandas()
    # one iteration propagates labels one hop only
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got[1] == 0 and got[5] == 4


@pytest.mark.usefixtures("ray_session")
def test_hash_sample_batch_invariant():
    t = pa.table({"doc_id": pa.array(range(1000), type=pa.int64()),
                  "lang": pa.array(["en"] * 1000)})
    a = curate.hash_sample(_ds(t, 1), rate_permille=100).to_pandas()
    b = curate.hash_sample(_ds(t, 16), rate_permille=100).to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # rate sanity: 10% +- generous slack on 1000 keys
    assert 50 <= len(a) <= 200
    # exact arithmetic mirror
    for d in a["doc_id"].to_numpy()[:5]:
        h = ((int(d) % 2**31) * 2654435761 + 40503) % 2**32 % 1000
        assert h < 100


@pytest.mark.usefixtures("ray_session")
def test_pack_sequences_matches_naive():
    rng = np.random.RandomState(7)
    n = 500
    words = [" ".join("w" * 1 for _ in range(rng.randint(1, 40)))
             for _ in range(n)]
    t = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                  "text": pa.array(words)})
    out = (curate.pack_sequences(_ds(t, 8), budget=64, bucket_span=50)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    ntok = np.array([len(w.split(" ")) for w in words], dtype=np.int64)
    excl = np.cumsum(ntok) - ntok
    assert (out["n_tokens"].to_numpy() == ntok).all()
    assert (out["seq_bin"].to_numpy() == excl // 64).all()
    # bins are contiguous from 0
    bins = np.unique(out["seq_bin"].to_numpy())
    assert bins[0] == 0 and (np.diff(bins) == 1).all()


@pytest.mark.usefixtures("ray_session")
def test_repetition_stats_edges():
    t = pa.table({"doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
                  "text": pa.array(["", "solo", "a a a", "a b a b"])})
    out = (_ds(t, 1).map_batches(per_task(curate.RepetitionStats),
                                 batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # "" -> 1 token ([''])
    assert out.loc[0, "top_token_frac"] == 1.0
    assert out.loc[0, "dup_2gram_frac"] == 0.0
    assert out.loc[1, "top_token_frac"] == 1.0
    # "a a a": top 3/3, 2grams ['a a','a a'] -> dup 0.5, 3grams 1 -> dup 0
    assert out.loc[2, "top_token_frac"] == 1.0
    assert out.loc[2, "dup_2gram_frac"] == 0.5
    assert out.loc[2, "dup_3gram_frac"] == 0.0
    # "a b a b": top 2/4, 2grams [ab,ba,ab] -> 1-2/3, 3grams [aba,bab] -> 0
    assert out.loc[3, "top_token_frac"] == 0.5
    assert out.loc[3, "dup_2gram_frac"] == pytest.approx(1 - 2 / 3, abs=1e-6)
    assert out.loc[3, "dup_3gram_frac"] == 0.0


@pytest.mark.usefixtures("ray_session")
def test_decontaminate_overlap_and_flag():
    # eval doc "a b c d" -> shingles {abc, bcd}; train docs overlap 2/2,
    # 1/3 and 0/1 (short doc -> whole-text shingle)
    ev = curate.eval_shingle_set(
        _ds(pa.table({"doc_id": pa.array([0], type=pa.int64()),
                      "text": pa.array(["a b c d"])}), 1))
    assert ev == {"a b c", "b c d"}
    train = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array(["a b c d", "z a b c q", "a b"]),
    })
    out = (_ds(train, 2)
           .map_batches(per_task(curate.Decontaminate, eval_shingles=ev,
                                 threshold=0.5),
                        batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert list(out["n_shingles"]) == [2, 3, 1]
    assert list(out["overlap"]) == [2, 1, 0]
    assert list(out["contaminated"]) == [1, 0, 0]
    assert out.loc[1, "overlap_frac"] == pytest.approx(1 / 3, abs=1e-6)


@pytest.mark.usefixtures("ray_session")
def test_weighted_mix_head_ratio_and_determinism():
    n = 3000
    t = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                  "source": pa.array(["a" if i % 3 == 0 else "b"
                                      for i in range(n)])})
    w = {"a": 3}  # a is drawn at ~3x the per-row rate of b
    h1 = curate.weighted_mix_head(_ds(t, 1), w, n=300).to_pandas()
    h16 = curate.weighted_mix_head(_ds(t, 16), w, n=300).to_pandas()
    a = h1.sort_values("doc_id").reset_index(drop=True)
    b = h16.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(h1) == 300
    # source 'a' holds 1/3 of rows but weight 3 -> ~60% of the head
    frac_a = (h1["source"] == "a").mean()
    assert 0.45 <= frac_a <= 0.75
    # mix_pos matches the documented formula (lcm=3, inv: a->1, b->3)
    for _, r in h1.head(5).iterrows():
        h = ((int(r["doc_id"]) % 2**31) * 2654435761 + 40503) % 2**32
        inv = 1 if r["source"] == "a" else 3
        assert r["mix_pos"] == h * inv


@pytest.mark.usefixtures("ray_session")
def test_cap_per_key_quota_and_order():
    n = 400
    t = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                  "source": pa.array([f"s{i % 4}" for i in range(n)])})
    out = (curate.cap_per_key(_ds(t, 8), key="source", n=7)
           .to_pandas().sort_values(["source", "quota_rank"])
           .reset_index(drop=True))
    assert len(out) == 28
    assert (out.groupby("source").size() == 7).all()
    assert set(out["quota_rank"]) == set(range(1, 8))
    # selection = the 7 smallest sample-hashes within each source
    df = t.to_pandas()
    df["h"] = ((df["doc_id"] % 2**31) * 2654435761 + 40503) % 2**32
    want = (df.sort_values(["source", "h", "doc_id"])
            .groupby("source").head(7))
    assert set(out["doc_id"]) == set(want["doc_id"])


@pytest.mark.usefixtures("ray_session")
def test_tfidf_scores_and_ties():
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "lang": pa.array(["en", "en", "de"]),
        "text": pa.array(["x x y", "x z", "y y"]),
    })
    out = curate.tfidf_top_terms(_ds(t, 2), n_docs=3, k=2).to_pandas()
    en = out[out["lang"] == "en"].set_index("term")
    # x: tf=3, df=2 -> 3*4/3 = 4.0 ; z: tf=1, df=1 -> 2.0 ; y: tf=1, df=2
    assert en.loc["x", "tf"] == 3 and en.loc["x", "df"] == 2
    assert en.loc["x", "score"] == 4.0
    assert list(en.index) == ["x", "z"]
    de = out[out["lang"] == "de"].set_index("term")
    assert de.loc["y", "tf"] == 2 and de.loc["y", "df"] == 2


@pytest.mark.usefixtures("ray_session")
def test_dedup_paragraphs_keep_first_and_reassembly():
    # doc 1: unique paras + shared boilerplate; doc 2 repeats the
    # boilerplate (dropped) and one of doc 1's paras; doc 3 is ALL
    # duplicates -> empty clean_text but still emits a row; doc 4 has an
    # internal repeat (second occurrence dropped) and empty paragraphs
    # (never counted, never kept)
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": pa.array([
            "boiler\nalpha one\nbeta two",
            "boiler\nalpha one\ngamma three",
            "boiler\nbeta two",
            "delta four\n\ndelta four\nepsilon five",
        ]),
    })
    out = curate.dedup_paragraphs(_ds(t), num_buckets=4).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert list(out["doc_id"]) == [1, 2, 3, 4]
    assert list(out["clean_text"]) == [
        "boiler\nalpha one\nbeta two",
        "gamma three",
        "",
        "delta four\nepsilon five",
    ]
    assert list(out["n_paras"]) == [3, 3, 2, 3]
    assert list(out["n_kept"]) == [3, 1, 0, 2]


@pytest.mark.usefixtures("ray_session")
def test_dedup_paragraphs_batch_invariant():
    texts = [f"common header\nunique {i} para\ntail {i % 3}"
             for i in range(40)]
    t = pa.table({"doc_id": pa.array(range(40), type=pa.int64()),
                  "text": pa.array(texts)})
    a = curate.dedup_paragraphs(_ds(t, 1), num_buckets=2).to_pandas()
    b = curate.dedup_paragraphs(_ds(t, 16), num_buckets=8).to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # only doc 0 keeps the shared header; tails survive in docs 0..2 only
    assert a.loc[0, "n_kept"] == 3
    assert (a.loc[3:, "n_kept"] == 1).all()


@pytest.mark.usefixtures("ray_session")
def test_strip_frequent_units_semantics():
    import ray.data as rd

    from spatula_ray.stages.curate import strip_frequent_units

    rows = [
        (1, "header\nalpha beta\nfooter"),
        (2, "header\ngamma\nfooter"),
        (3, "header\ndelta epsilon"),
        (4, "header"),                 # fully boilerplate -> empty
        (5, ""),                       # empty doc -> 0 units
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "text": pa.array([r[1] for r in rows], type=pa.string()),
    })).repartition(3)
    # n_docs=5: header df=5 (1000‰, dropped at 500); footer df=2 (400‰,
    # kept); body lines df=1 kept
    out = strip_frequent_units(ds, sep="\n", max_df_permille=500) \
        .to_pandas().set_index("doc_id").sort_index()
    assert out.loc[1, "clean_text"] == "alpha beta\nfooter"
    assert out.loc[2, "clean_text"] == "gamma\nfooter"
    assert out.loc[3, "clean_text"] == "delta epsilon"
    assert out.loc[4, "clean_text"] == ""
    assert out.loc[5, "clean_text"] == ""
    assert out["n_units"].tolist() == [3, 3, 2, 1, 0]
    assert out["n_kept"].tolist() == [2, 2, 1, 0, 0]
    # exact-boundary check: df*1000 == permille*n_docs is DROPPED
    out2 = strip_frequent_units(ds, sep="\n", max_df_permille=400) \
        .to_pandas().set_index("doc_id").sort_index()
    assert out2.loc[1, "clean_text"] == "alpha beta"   # footer now dropped
    # token mode: corpus-driven stopword scrub on single-line docs
    tds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array(["the cat sat", "the dog ran", "the end"],
                         type=pa.string())}))
    tok = strip_frequent_units(tds, sep=" ", max_df_permille=900) \
        .to_pandas().set_index("doc_id").sort_index()
    assert tok["clean_text"].tolist() == ["cat sat", "dog ran", "end"]


@pytest.mark.usefixtures("ray_session")
def test_decontaminate_sharded_matches_broadcast():
    import ray
    import ray.data as rd

    from spatula_ray.stages.curate import (Decontaminate,
                                           DecontaminateSharded,
                                           build_membership_shards,
                                           eval_shingle_set)

    texts = [f"alpha beta w{i} gamma delta w{i+1} epsilon" for i in range(40)]
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(40)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string())})).repartition(4)
    ev = docs.limit(8).materialize()

    bc = docs.map_batches(
        per_task(Decontaminate, eval_shingles=ray.put(eval_shingle_set(ev)),
                 threshold=0.5),
        batch_format="pyarrow").to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    shards = build_membership_shards(ev, n_shards=3)
    sh = docs.map_batches(
        per_task(DecontaminateSharded, shards=shards, threshold=0.5),
        batch_format="pyarrow").to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(bc, sh)
    assert bc["contaminated"].sum() > 0     # the fixture overlaps
    from spatula_ray.stages.curate import release_membership_shards

    release_membership_shards(shards)       # callers own actor lifetime


@pytest.mark.usefixtures("ray_session")
def test_weighted_hash_sample_semantics():
    t = pa.table({
        "doc_id": pa.array(range(2000), type=pa.int64()),
        "w_permille": pa.array([0, 250, 1000, 600] * 500, type=pa.int64()),
    })
    out = curate.weighted_hash_sample(_ds(t, 8), "w_permille") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    # w=0 rows never survive; w=1000 rows always survive
    assert not (out["w_permille"] == 0).any()
    assert (out["w_permille"] == 1000).sum() == 500
    # acceptance tracks the weight (generous tolerance on 500 keys each)
    n250 = (out["w_permille"] == 250).sum()
    n600 = (out["w_permille"] == 600).sum()
    assert 75 <= n250 <= 180 and 230 <= n600 <= 370
    # parallelism-invariant
    out1 = curate.weighted_hash_sample(_ds(t, 1), "w_permille") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, out1)
