"""Round-4h operators: robots-gate conformance fixture, unicode/whitespace
normalization, and hashed-linear-classifier scoring — edge cases the
sf-corpus gate rows don't reach (empty/None text, already-normalized fast
path, control-only strings, the prefix-vs-trailing-slash robots subtlety,
and fast-hash vs oracle-parity hash agreement on keep decisions)."""

import numpy as np
import pyarrow as pa
import pytest


def _ds(tbl: pa.Table):
    import ray.data as rd

    return rd.from_arrow(tbl)


def test_robots_rules_prefix_semantics():
    from spatula_ray.engine.hostgate import HostGate, RobotsRules

    r = RobotsRules(["/private", "/p/archive"])
    assert not r.allowed("/private/x")
    assert not r.allowed("/privateer/x")      # PREFIX rule, not segment
    assert not r.allowed("/p/archive/9")
    assert r.allowed("/p/a/9")                # near-miss prefix
    assert r.allowed("/public/1")

    slash = RobotsRules(["/private/"])
    assert slash.allowed("/privateer/x")      # trailing slash narrows
    assert not slash.allowed("/private/x")

    empty = RobotsRules([])
    assert empty.allowed("/private/x")

    gate = HostGate(robots={"a.test": {"disallow": ["/private"]}})
    codes = gate.admit(["a.test", "a.test", "b.test"],
                       ["/private/1", "/ok", "/private/1"])
    assert codes == [2, 0, 0]                 # unknown host allowed
    assert gate.denied == 1


@pytest.mark.usefixtures("ray_session")
def test_normalize_text_edges():
    from spatula_ray.stages.text import normalize_text

    texts = [
        "cafe" + chr(0x301) + " x",          # combining acute composes
        "caf" + chr(0xE9) + " x",            # already NFC: fast path
        "\t a \x01 b \x7f ",                 # ctrl strip + ws collapse
        "a" + chr(0xA0) + "b",               # NBSP -> space
        "",                                  # empty
        None,                                # null -> null out
        "plain text",                        # unchanged
    ]
    out = normalize_text(_ds(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    }))).to_pandas().set_index("doc_id").sort_index()

    assert out.loc[0, "norm_text"] == "caf" + chr(0xE9) + " x"
    assert bool(out.loc[0, "changed"])
    assert out.loc[0, "n_chars_raw"] == 7 and out.loc[0, "n_chars_norm"] == 6
    assert out.loc[1, "norm_text"] == "caf" + chr(0xE9) + " x"
    assert not bool(out.loc[1, "changed"])
    assert out.loc[2, "norm_text"] == "a b"
    assert out.loc[3, "norm_text"] == "a b"
    assert out.loc[4, "norm_text"] == "" and not bool(out.loc[4, "changed"])
    import pandas as pd

    assert pd.isna(out.loc[5, "norm_text"])   # null propagates
    assert out.loc[6, "norm_text"] == "plain text"
    assert not bool(out.loc[6, "changed"])


@pytest.mark.usefixtures("ray_session")
def test_hashed_linear_score_edges():
    from spatula_ray.stages.text import HashedLinearScore, hashed_linear_score

    texts = ["alpha beta beta", "", None, "  ", "alpha"]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    out = hashed_linear_score(_ds(tbl)) \
        .to_pandas().set_index("doc_id").sort_index()

    assert out.loc[0, "n_tokens"] == 3
    assert out.loc[1, "n_tokens"] == 0 and out.loc[1, "score_micro"] == 0
    assert not bool(out.loc[1, "keep"])
    assert out.loc[2, "n_tokens"] == 0
    assert out.loc[3, "n_tokens"] == 0

    # bag semantics: doc 0 = w(alpha) + 2*w(beta); doc 4 = w(alpha)
    scorer = HashedLinearScore()
    one = scorer(pa.table({"doc_id": pa.array([0], type=pa.int64()),
                           "text": pa.array(["beta"])}))
    w_beta = one["score_micro"][0].as_py()
    assert (out.loc[0, "score_micro"]
            == out.loc[4, "score_micro"] + 2 * w_beta)

    # deterministic across runs, exact int64
    again = hashed_linear_score(_ds(tbl)) \
        .to_pandas().set_index("doc_id").sort_index()
    assert (again["score_micro"] == out["score_micro"]).all()
    assert (again["n_tokens"] == out["n_tokens"]).all()
    assert out["score_micro"].dtype == np.int64


@pytest.mark.usefixtures("ray_session")
def test_resolve_redirects_edges():
    from spatula_ray.stages.graph import resolve_redirects

    # a -> b -> c -> T1          (chain of 3)
    # s -> s                     (self-loop)
    # p -> q -> p                (2-cycle)
    # x1 -> x2 -> x3 -> x4 -> T2 (chain of exactly hop_cap=4)
    # y1 -> ... -> y5 -> T3      (chain of 5 > hop_cap: y1 flagged,
    #                             y2..y5 resolve at distance <= 4)
    edges = {"a": "b", "b": "c", "c": "T1",
             "s": "s", "p": "q", "q": "p",
             "x1": "x2", "x2": "x3", "x3": "x4", "x4": "T2",
             "y1": "y2", "y2": "y3", "y3": "y4", "y4": "y5", "y5": "T3"}
    import ray.data as rd

    ds = rd.from_arrow(pa.table({
        "src": pa.array(list(edges)),
        "dst": pa.array([edges[k] for k in edges]),
    }))
    out = resolve_redirects(ds, hop_cap=4).to_pandas() \
        .set_index("src_url").sort_index()

    assert out.loc["a", "final_url"] == "T1" and out.loc["a", "hops"] == 3
    assert out.loc["c", "hops"] == 1
    assert bool(out.loc["s", "is_cycle"])
    assert bool(out.loc["p", "is_cycle"]) and bool(out.loc["q", "is_cycle"])
    assert out.loc["p", "final_url"] == "" and out.loc["p", "hops"] == -1
    assert out.loc["x1", "final_url"] == "T2" and out.loc["x1", "hops"] == 4
    assert bool(out.loc["y1", "is_cycle"])       # distance 5 > cap
    assert out.loc["y2", "final_url"] == "T3" and out.loc["y2", "hops"] == 4
    assert not bool(out.loc["y2", "is_cycle"])
    assert len(out) == len(edges)

    with pytest.raises(ValueError):
        resolve_redirects(ds, hop_cap=6)


@pytest.mark.usefixtures("ray_session")
def test_sitemap_parse_edges():
    from spatula_ray.stages.ingest import parse_sitemaps

    import ray.data as rd

    bodies = [
        # normal, with namespace attr and xml decl
        '<?xml version="1.0"?><urlset xmlns="http://www.sitemaps.org/'
        'schemas/sitemap/0.9"><url><loc>https://a.test/1</loc>'
        '<lastmod>2026-01-01</lastmod></url>'
        '<url><loc>https://a.test/2</loc></url></urlset>',
        # entry without loc is dropped; empty urlset ok
        '<urlset><url><lastmod>2026-02-02</lastmod></url></urlset>',
        '<urlset></urlset>',
    ]
    ds = rd.from_arrow(pa.table({
        "host": pa.array(["a.test", "b.test", "c.test"]),
        "body": pa.array(bodies),
    }))
    out = parse_sitemaps(ds).to_pandas()

    assert len(out) == 2
    assert set(out["host"]) == {"a.test"}
    assert list(out.sort_values("url")["url"]) == [
        "https://a.test/1", "https://a.test/2"]
    got = out.set_index("url")
    assert got.loc["https://a.test/1", "lastmod"] == "2026-01-01"
    assert got.loc["https://a.test/2", "lastmod"] == ""


@pytest.mark.usefixtures("ray_session")
def test_length_bucket_batches_boundaries():
    from spatula_ray.stages.curate import length_bucket_batches

    import ray.data as rd

    # 10 docs, all in len_bucket 0 (width 64 > all lengths), batch_rows=4
    # and bucket_span=3 so batches straddle id-bucket boundaries: batches
    # must merge exactly (4, 4, 2 docs)
    texts = [" ".join(["w"] * (i + 1)) for i in range(10)]  # 1..10 tokens
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(10), type=pa.int64()),
        "text": pa.array(texts),
    }))
    out = length_bucket_batches(ds, batch_rows=4, len_bucket_width=64,
                                bucket_span=3).to_pandas() \
        .sort_values("batch_id").reset_index(drop=True)

    assert list(out["n_docs"]) == [4, 4, 2]
    # batch 0 = docs 0..3 (1..4 tokens): max 4, sum 10, waste 6
    assert out.loc[0, "max_tokens"] == 4 and out.loc[0, "sum_tokens"] == 10
    assert out.loc[0, "pad_waste"] == 6
    # batch 2 = docs 8,9 (9,10 tokens): waste = 2*10 - 19 = 1
    assert out.loc[2, "pad_waste"] == 1

    # two length buckets: doc lengths 1 and 70 split at width 64
    ds2 = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["w", " ".join(["w"] * 70)]),
    }))
    out2 = length_bucket_batches(ds2, batch_rows=4, len_bucket_width=64,
                                 bucket_span=3).to_pandas()
    assert sorted(out2["len_bucket"]) == [0, 1]
    assert (out2["n_docs"] == 1).all() and (out2["pad_waste"] == 0).all()


@pytest.mark.usefixtures("ray_session")
def test_snapshot_diff_edges():
    from spatula_ray.stages.ingest import snapshot_diff

    import ray.data as rd

    old = rd.from_arrow(pa.table({
        "url": pa.array(["a", "b", "c", "d"]),
        "fingerprint": pa.array(["f1", "f2", "f3", "f4"]),
    }))
    new = rd.from_arrow(pa.table({
        "url": pa.array(["a", "c", "e"]),
        "fingerprint": pa.array(["f1", "f3x", "f5"]),
    }))
    out = snapshot_diff(old, new).to_pandas().set_index("url").sort_index()

    assert list(out.index) == ["b", "c", "d", "e"]   # 'a' unchanged
    assert out.loc["b", "status"] == "removed"
    assert out.loc["b", "new_fp"] == "" and out.loc["b", "old_fp"] == "f2"
    assert out.loc["c", "status"] == "changed"
    assert out.loc["e", "status"] == "added" and out.loc["e", "old_fp"] == ""

    full = snapshot_diff(old, new, include_unchanged=True).to_pandas()
    assert len(full) == 5
    assert (full.set_index("url").loc["a", "status"] == "unchanged")


@pytest.mark.usefixtures("ray_session")
def test_table_profile_nulls_and_allnull_blocks():
    from spatula_ray.stages.selection import table_profile

    import ray.data as rd

    t = pa.table({
        "x": pa.array([1.5, None, -2.0, None], type=pa.float64()),
        "y": pa.array([None, None, None, None], type=pa.int64()),
    })
    out = table_profile(rd.from_arrow(t), ["x", "y"]).to_pandas() \
        .set_index("column")

    assert out.loc["x", "n_rows"] == 4 and out.loc["x", "n_nulls"] == 2
    assert out.loc["x", "min_val"] == -2.0 and out.loc["x", "max_val"] == 1.5
    assert out.loc["y", "n_nulls"] == 4
    # all-null column: identity partials survive the fold
    assert np.isinf(out.loc["y", "min_val"]) and out.loc["y", "min_val"] > 0
    assert np.isinf(out.loc["y", "max_val"]) and out.loc["y", "max_val"] < 0
