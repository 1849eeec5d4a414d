"""Round-5 session-3 additions: outlink diversity, crawl budget
allocation, and product-quantization ANN."""

import numpy as np
import pyarrow as pa
import pytest

import ray


def _links_ds(rows):
    return ray.data.from_arrow(pa.table({
        "src_url": pa.array([r[0] for r in rows], type=pa.string()),
        "dst_url": pa.array([r[1] for r in rows], type=pa.string()),
    }))


@pytest.mark.usefixtures("ray_session")
def test_outlink_diversity_counts_and_fraction():
    from spatula_ray.stages.graph import outlink_diversity

    rows = [
        # a.test/p1: 4 links, 2 distinct hosts, 3 external (duplicate
        # external link counts twice; internal link stays internal)
        ("https://a.test/p1", "https://b.test/x"),
        ("https://a.test/p1", "https://b.test/x"),
        ("https://a.test/p1", "https://c.test/y"),
        ("https://a.test/p1", "https://a.test/self"),
        # a.test/p2: all internal
        ("https://a.test/p2", "https://a.test/q"),
        # relative dst drops the row entirely
        ("https://a.test/p3", "/relative/only"),
        # host compare is case-insensitive
        ("https://A.test/p4", "https://a.TEST/z"),
    ]
    out = outlink_diversity(_links_ds(rows)).to_pandas() \
        .set_index("src_url")
    p1 = out.loc["https://a.test/p1"]
    assert (p1.n_links, p1.n_hosts, p1.n_external) == (4, 3, 3)
    assert p1.external_micro == 750000
    p2 = out.loc["https://a.test/p2"]
    assert (p2.n_links, p2.n_hosts, p2.n_external,
            p2.external_micro) == (1, 1, 0, 0)
    assert "https://a.test/p3" not in out.index
    p4 = out.loc["https://A.test/p4"]
    assert (p4.n_links, p4.n_external) == (1, 0)


def _hosts_ds(pairs):
    return ray.data.from_arrow(pa.table({
        "host": pa.array([p[0] for p in pairs], type=pa.string()),
        "weight": pa.array([p[1] for p in pairs], type=pa.int64()),
    }))


@pytest.mark.usefixtures("ray_session")
def test_crawl_budget_allocation_exact_sum_and_shares():
    from spatula_ray.stages.ingest import crawl_budget_allocation

    rng = np.random.RandomState(7)
    pairs = [("h%04d.example" % i, int(rng.randint(0, 500)))
             for i in range(300)]
    pairs[17] = (pairs[17][0], 0)          # zero-weight host -> 0 pages
    budget = 12345
    out = crawl_budget_allocation(_hosts_ds(pairs), budget=budget) \
        .to_pandas().sort_values("host").reset_index(drop=True)
    assert len(out) == 300
    assert out["budget"].sum() == budget   # telescoping exact total
    total = out["weight"].sum()
    share = out["weight"].to_numpy() * budget / total
    assert (np.abs(out["budget"].to_numpy() - share) < 1.0).all()
    assert out.set_index("host").loc["h0017.example", "budget"] == 0


@pytest.mark.usefixtures("ray_session")
def test_crawl_budget_allocation_matches_single_pass():
    """The two-pass distributed prefix sum must equal a single-process
    cumulative-quota computation over the host-ascending order."""
    from spatula_ray.stages.ingest import crawl_budget_allocation

    # hosts spanning many 2-char prefix buckets, incl. 1-char host
    pairs = [("a", 5), ("ab.test", 3), ("b.test", 11), ("ba.x", 2),
             ("zz.test", 7), ("m.example", 1)]
    budget = 17
    out = crawl_budget_allocation(_hosts_ds(pairs), budget=budget) \
        .to_pandas().sort_values("host").reset_index(drop=True)
    hosts = sorted(p[0] for p in pairs)
    w = {h: dict(pairs)[h] for h in hosts}
    total = sum(w.values())
    cw, expect = 0, {}
    for h in hosts:
        lo = (cw * budget) // total
        cw += w[h]
        expect[h] = (cw * budget) // total - lo
    got = dict(zip(out["host"], out["budget"]))
    assert got == expect


@pytest.mark.usefixtures("ray_session")
def test_crawl_budget_allocation_range_contract():
    from spatula_ray.stages.ingest import crawl_budget_allocation

    ds = _hosts_ds([("a.test", 2**40), ("b.test", 2**40)])
    with pytest.raises(ValueError, match="2\\*\\*63"):
        crawl_budget_allocation(ds, budget=2**23).to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_crawl_budget_allocation_rejects_duplicate_host():
    """Two rows for one host would get two quotas; the host's rows share a
    prefix bucket, so the per-bucket kernel names it."""
    from spatula_ray.stages.ingest import crawl_budget_allocation

    ds = _hosts_ds([("a.test", 3), ("b.test", 5), ("a.test", 2)])
    with pytest.raises(ValueError, match="duplicate host 'a.test'"):
        crawl_budget_allocation(ds, budget=10).to_pandas()


def _emb_ds(mat):
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(len(mat), dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in mat]),
    }))


@pytest.mark.usefixtures("ray_session")
def test_pq_ann_topk_finds_exact_duplicate_first():
    from spatula_ray.stages.similarity import pq_ann_topk

    rng = np.random.RandomState(3)
    mat = rng.standard_normal((200, 16))
    mat[150] = mat[40]                      # exact duplicate pair
    out = pq_ann_topk(_emb_ds(mat), queries=mat[[40]], k=3, m=4,
                      n_cells=8, sample=200).to_pandas()
    top = out.sort_values(["adc_score", "vec_id"],
                          ascending=[False, True])
    # identical vectors share identical codes -> identical (max) ADC
    # score; vec_id tie-break puts 40 then 150 first
    assert list(top["vec_id"].head(2)) == [40, 150]
    assert top["adc_score"].iloc[0] == top["adc_score"].iloc[1]
    assert out["adc_score"].dtype == np.int64


@pytest.mark.usefixtures("ray_session")
def test_pq_ann_topk_respects_cluster_structure():
    """On well-separated clusters, every PQ neighbor must come from the
    query's own cluster (the coarse quantization PQ guarantees; exact
    rank WITHIN a tight cluster is beyond any 8-byte code)."""
    from spatula_ray.stages.similarity import pq_ann_topk

    rng = np.random.RandomState(9)
    centers = rng.standard_normal((4, 32)) * 10
    mat = np.vstack([c + rng.standard_normal((25, 32)) * 0.1
                     for c in centers])
    q = mat[[0, 30, 60]]
    pq = pq_ann_topk(_emb_ds(mat), q, k=10, m=8, n_cells=8,
                     sample=100).to_pandas()
    for qi, qvec in enumerate([0, 30, 60]):
        cluster = set(range((qvec // 25) * 25, (qvec // 25) * 25 + 25))
        got = set(pq[pq.query_id == qi].vec_id)
        assert len(got) == 10 and got <= cluster


@pytest.mark.usefixtures("ray_session")
def test_ivfadc_ann_topk_finds_duplicate_and_prunes():
    """The query's exact duplicate shares coarse cell + residual codes,
    so it ties the query itself at the max ADC score; and every result
    must come from a probed coarse cell (the pruning contract)."""
    from spatula_ray.stages.similarity import ivfadc_ann_topk

    rng = np.random.RandomState(21)
    mat = rng.standard_normal((240, 16))
    mat[200] = mat[60]
    out = ivfadc_ann_topk(_emb_ds(mat), queries=mat[[60]], k=5,
                          n_coarse=8, nprobe=3, m=4, n_cells=8,
                          sample=240).to_pandas()
    top = out.sort_values(["adc_score", "vec_id"],
                          ascending=[False, True])
    assert list(top["vec_id"].head(2)) == [60, 200]
    assert top["adc_score"].iloc[0] == top["adc_score"].iloc[1]
    assert out["adc_score"].dtype == np.int64
    assert len(out) == 5


@pytest.mark.usefixtures("ray_session")
def test_ivfadc_respects_cluster_structure():
    from spatula_ray.stages.similarity import ivfadc_ann_topk

    rng = np.random.RandomState(23)
    centers = rng.standard_normal((4, 32)) * 10
    mat = np.vstack([c + rng.standard_normal((25, 32)) * 0.1
                     for c in centers])
    q = mat[[0, 30, 60]]
    out = ivfadc_ann_topk(_emb_ds(mat), q, k=10, n_coarse=4, nprobe=1,
                          m=8, n_cells=8, sample=100).to_pandas()
    for qi, qvec in enumerate([0, 30, 60]):
        cluster = set(range((qvec // 25) * 25, (qvec // 25) * 25 + 25))
        got = set(out[out.query_id == qi].vec_id)
        assert len(got) == 10 and got <= cluster


@pytest.mark.usefixtures("ray_session")
def test_jl_project_deterministic_and_duplicate_preserving():
    from spatula_ray.stages.similarity import jl_project

    rng = np.random.RandomState(31)
    mat = rng.standard_normal((50, 16))
    mat[30] = mat[10]
    out = jl_project(_emb_ds(mat), out_dim=4).to_pandas()
    assert len(out) == 200                       # 50 vecs x 4 dims
    a = out[out.vec_id == 10].sort_values("dim")["val"].to_numpy()
    b = out[out.vec_id == 30].sort_values("dim")["val"].to_numpy()
    assert (a == b).all()                        # dup vectors -> same proj
    out2 = jl_project(_emb_ds(mat), out_dim=4).to_pandas()
    c1 = out.sort_values(["vec_id", "dim"]).reset_index(drop=True)
    c2 = out2.sort_values(["vec_id", "dim"]).reset_index(drop=True)
    assert c1.equals(c2)                         # run-to-run determinism


@pytest.mark.usefixtures("ray_session")
def test_quantizer_training_ignores_row_order():
    """kmeans_centroids, pq_codebooks and ivfadc_ann_topk train on the
    first ``sample`` rows by id: a shuffled input, with ``sample`` below
    the row count, must train the same tables and return the same
    neighbours as the id-ordered one."""
    import pandas as pd

    from spatula_ray.stages.similarity import (
        ivfadc_ann_topk,
        kmeans_centroids,
        pq_codebooks,
    )

    rng = np.random.RandomState(41)
    mat = rng.standard_normal((200, 16))
    ordered = _emb_ds(mat)
    shuffled = ordered.repartition(4).random_shuffle(seed=7).materialize()
    assert [r["vec_id"] for r in shuffled.take(64)] != list(range(64))

    np.testing.assert_array_equal(
        kmeans_centroids(ordered, n_cells=4, sample=64),
        kmeans_centroids(shuffled, n_cells=4, sample=64))
    for a, b in zip(pq_codebooks(ordered, m=4, n_cells=4, sample=64),
                    pq_codebooks(shuffled, m=4, n_cells=4, sample=64)):
        np.testing.assert_array_equal(a, b)

    def top(ds):
        return ivfadc_ann_topk(ds, mat[[3, 120]], k=5, n_coarse=4,
                               nprobe=2, m=4, n_cells=4, sample=64) \
            .to_pandas().sort_values(["query_id", "vec_id"]) \
            .reset_index(drop=True)

    pd.testing.assert_frame_equal(top(ordered), top(shuffled))


@pytest.mark.usefixtures("ray_session")
def test_pq_codebooks_rejects_indivisible_dim():
    from spatula_ray.stages.similarity import pq_codebooks

    mat = np.ones((10, 10))
    with pytest.raises(ValueError, match="not divisible"):
        pq_codebooks(_emb_ds(mat), m=4, sample=10)
