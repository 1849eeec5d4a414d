"""Round-5 brief item #1: auto-derived k-means cell counts and the
hot-cell split guard for the semdedup/knn_graph/cluster_balanced_select
family (the round-4 verdict's one remaining manual scale knob)."""

import numpy as np
import pyarrow as pa
import pytest

import ray


def _emb_ds(mat):
    t = pa.table({
        "vec_id": pa.array(np.arange(len(mat), dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in mat]),
    })
    return ray.data.from_arrow(t)


def test_derive_n_cells_formula():
    from spatula_ray.stages.similarity import derive_n_cells

    assert derive_n_cells(0) == 16
    assert derive_n_cells(500) == 16           # gate scales stay at 16
    assert derive_n_cells(2000) == 16
    assert derive_n_cells(4096) == 16
    assert derive_n_cells(4097) == 17          # first step past the floor
    assert derive_n_cells(10_000) == 40
    assert derive_n_cells(256 * 2048) == 2048  # sample-size ceiling
    assert derive_n_cells(10_000_000) == 2048


def test_split_cell_groups_preserves_exact_duplicates():
    """The hot-cell split never separates identical normalized vectors,
    and every emitted group respects the cap (or is degenerate)."""
    from spatula_ray.stages.similarity import _split_cell_groups

    rng = np.random.RandomState(3)
    m = rng.randint(-1000, 1000, size=(64, 8)).astype(np.int64)
    m[1] = m[0]
    m[33] = m[0]
    ids = np.arange(64, dtype=np.int64)
    groups = list(_split_cell_groups(ids, m, cap=10))
    assert sum(len(g[0]) for g in groups) == 64
    # ids 0, 1, 33 share one group: identical vectors, same plane side
    homes = {int(i): gi for gi, (gids, _) in enumerate(groups)
             for i in gids}
    assert homes[0] == homes[1] == homes[33]
    # order within groups stays id-ascending (mask indexing is stable)
    for gids, _ in groups:
        assert (np.diff(gids) > 0).all()


def test_semdedup_forced_split_keeps_exact_dup_detection():
    """With a tiny cell_cap forcing in-kernel splits, exact duplicates
    (identical embeddings) are still marked dup_of their min id."""
    from spatula_ray.stages.similarity import semdedup

    rng = np.random.RandomState(11)
    mat = rng.standard_normal((120, 8))
    mat[50] = mat[10]
    mat[90] = mat[10]
    out = semdedup(_emb_ds(mat), n_cells=2, tau_permille=999,
                   sample=120, cell_cap=16).to_pandas()
    assert len(out) == 120
    by_id = out.set_index("vec_id")
    assert by_id.loc[50, "dup_of"] == 10
    assert by_id.loc[90, "dup_of"] == 10
    assert bool(by_id.loc[10, "keep"])


def test_knn_graph_forced_split_emits_valid_subgroup_edges():
    """With a tiny cell_cap, knn_graph still emits rank-consistent edges
    and exact duplicates appear as each other's top neighbor."""
    from spatula_ray.stages.similarity import knn_graph

    rng = np.random.RandomState(13)
    mat = rng.standard_normal((100, 8))
    mat[70] = mat[20]
    out = knn_graph(_emb_ds(mat), k=2, n_cells=1, sample=100,
                    cell_cap=12).to_pandas()
    assert (out["nn_rank"] >= 1).all() and (out["nn_rank"] <= 2).all()
    top20 = out[(out.vec_id == 20) & (out.nn_rank == 1)]
    assert top20.iloc[0]["neighbor_id"] == 70
    top70 = out[(out.vec_id == 70) & (out.nn_rank == 1)]
    assert top70.iloc[0]["neighbor_id"] == 20


def test_semdedup_derived_cells_matches_explicit():
    """n_cells=None derives the same result as passing the formula value
    explicitly (the SQL oracle relies on this equivalence)."""
    from spatula_ray.stages.similarity import derive_n_cells, semdedup

    rng = np.random.RandomState(5)
    mat = rng.standard_normal((300, 8))
    auto = semdedup(_emb_ds(mat), sample=256).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    manual = semdedup(_emb_ds(mat), n_cells=derive_n_cells(300),
                      sample=256).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    assert auto.equals(manual)


# ---- the BSP graph engine against serial integer references ----


def _edge_ds(pairs):
    src, dst = zip(*pairs)
    return ray.data.from_arrow(pa.table({
        "src": pa.array(src, type=pa.int64()),
        "dst": pa.array(dst, type=pa.int64())}))


def _rand_edges(n_nodes, n_edges, seed):
    rng = np.random.RandomState(seed)
    src = rng.randint(0, n_nodes, n_edges)
    dst = rng.randint(0, n_nodes, n_edges)
    return list(zip(src.tolist(), dst.tolist()))


def _sorted(ds, key):
    return ds.to_pandas().sort_values(key).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_pagerank_bsp_bit_identical_to_dataset():
    """The BSP engine on a 200-node graph against the per-edge integer
    arithmetic the Dataset engine computed: rank[u] // outdeg[u] summed
    per target, then damped, in exact Python ints."""
    from spatula_ray.stages.graph import SCALE, pagerank

    edges = _rand_edges(200, 1500, seed=21)
    a = _sorted(pagerank(_edge_ds(edges), 200, iters=4), "node")

    outdeg = [0] * 200
    for u, _ in edges:
        outdeg[u] += 1
    rank = [SCALE] * 200
    for _ in range(4):
        contrib = [0] * 200
        for u, v in edges:
            contrib[v] += rank[u] // outdeg[u]
        rank = [150 * SCALE // 1000 + 850 * c // 1000 for c in contrib]
    assert a["node"].tolist() == list(range(200))
    assert a["rank"].tolist() == rank


@pytest.mark.usefixtures("ray_session")
def test_pagerank_weighted_bsp_bit_identical():
    from spatula_ray.stages.graph import SCALE, pagerank_weighted

    rng = np.random.RandomState(31)
    src = rng.randint(0, 80, 600)
    dst = rng.randint(0, 80, 600)
    w = rng.randint(1, 50, 600)
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst),
                  "w": pa.array(w)})
    a = _sorted(pagerank_weighted(ray.data.from_arrow(t), 80, iters=3),
                "node")

    # serial integer reference: rank[u] * w // W[u] in exact Python ints
    out_w = [0] * 80
    for u, x in zip(src.tolist(), w.tolist()):
        out_w[u] += x
    rank = [SCALE] * 80
    for _ in range(3):
        contrib = [0] * 80
        for u, v, x in zip(src.tolist(), dst.tolist(), w.tolist()):
            contrib[v] += rank[u] * x // out_w[u]
        rank = [150 * SCALE // 1000 + 850 * c // 1000 for c in contrib]
    assert a["node"].tolist() == list(range(80))
    assert a["rank"].tolist() == rank


@pytest.mark.usefixtures("ray_session")
def test_resolve_redirects_bsp_bit_identical():
    from spatula_ray.stages.graph import resolve_redirects

    # chains, a 3-loop, a self-loop feeder, and terminal hops
    edges = [("a", "b"), ("b", "c"), ("c", "d"),          # chain len 3
             ("x1", "x2"), ("x2", "x3"), ("x3", "x1"),    # 3-cycle
             ("f", "x1"),                                  # feeds the cycle
             ("p", "q"),                                   # 1 hop
             ("l0", "l1"), ("l1", "l2"), ("l2", "l3"),
             ("l3", "l4"), ("l4", "l5"), ("l5", "l6"),
             ("l6", "l7"), ("l7", "l8")]                  # len-8 chain
    t = pa.table({"src": pa.array([e[0] for e in edges]),
                  "dst": pa.array([e[1] for e in edges])})
    a = _sorted(resolve_redirects(ray.data.from_arrow(t), hop_cap=8),
                "src_url")

    # serial reference: follow at most hop_cap hops; a source whose
    # last target still redirects is flagged as a cycle
    m = dict(edges)
    ref = []
    for s in sorted(m):
        cur, hops = m[s], 1
        while hops < 8 and cur in m:
            cur, hops = m[cur], hops + 1
        ref.append((s, "", -1, True) if cur in m else (s, cur, hops, False))
    assert list(a.itertuples(index=False, name=None)) == ref
    byid = a.set_index("src_url")
    assert byid.loc["a", "final_url"] == "d" and byid.loc["a", "hops"] == 3
    assert bool(byid.loc["x1", "is_cycle"])
    assert bool(byid.loc["f", "is_cycle"])   # feeds a loop -> unresolved
    assert byid.loc["l0", "final_url"] == "l8" and byid.loc["l0", "hops"] == 8


@pytest.mark.usefixtures("ray_session")
def test_hyperball_bsp_bit_identical():
    import hashlib

    from spatula_ray.stages.graph import hyperball

    edges = _rand_edges(120, 700, seed=41)
    a = _sorted(hyperball(_edge_ds(edges), 120, iters=2, p=6), "node")

    # serial reference: 64 registers per node from the md5 item hash
    # (low 8 bytes, little-endian), then synchronous unions of each
    # src's registers with its dsts'
    wbits = 64 - 6
    regs = []
    for v in range(120):
        h = int.from_bytes(hashlib.md5(str(v).encode()).digest()[8:],
                           "little")
        r = [0] * 64
        r[h >> wbits] = wbits - (h & ((1 << wbits) - 1)).bit_length() + 1
        regs.append(r)
    for _ in range(2):
        new = [list(r) for r in regs]
        for u, v in edges:
            new[u] = [max(x, y) for x, y in zip(new[u], regs[v])]
        regs = new
    assert a["node"].tolist() == list(range(120))
    assert a["v_zero"].tolist() == [r.count(0) for r in regs]
    assert a["sum_r"].tolist() == [sum(r) for r in regs]


@pytest.mark.usefixtures("ray_session")
def test_hits_bsp_bit_identical():
    from spatula_ray.stages.graph import HITS_SCALE, hits

    edges = _rand_edges(150, 900, seed=51)
    a = _sorted(hits(_edge_ds(edges), 150, iters=3), "node")

    # serial reference: authority then hub half-step, each max-normalized
    def normalized(raw):
        top = max(raw)
        return [r * HITS_SCALE // top if top > 0 else 0 for r in raw]

    h = [HITS_SCALE] * 150
    for _ in range(3):
        raw = [0] * 150
        for u, v in edges:
            raw[v] += h[u]
        auth = normalized(raw)
        raw = [0] * 150
        for u, v in edges:
            raw[u] += auth[v]
        h = normalized(raw)
    assert a["node"].tolist() == list(range(150))
    assert a["hub"].tolist() == h
    assert a["auth"].tolist() == auth


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("op", ["pagerank", "pagerank_weighted", "hits",
                                "hyperball"])
@pytest.mark.parametrize("bad", [-1, 7])
def test_graph_ops_reject_node_ids_outside_range(op, bad):
    """An edge endpoint outside [0, num_nodes) is a driver-side
    ValueError naming it, not a wrong rank or a crash in a shard."""
    from spatula_ray.stages import graph

    t = pa.table({"src": pa.array([0, 1, bad], type=pa.int64()),
                  "dst": pa.array([1, 2, 0], type=pa.int64()),
                  "w": pa.array([1, 1, 1], type=pa.int64())})
    if op != "pagerank_weighted":
        t = t.select(["src", "dst"])
    with pytest.raises(ValueError, match=rf"{bad} .*num_nodes=3"):
        getattr(graph, op)(ray.data.from_arrow(t), 3, iters=2)


@pytest.mark.usefixtures("ray_session")
def test_resolve_redirects_rejects_duplicate_src():
    from spatula_ray.stages.graph import resolve_redirects

    t = pa.table({"src": pa.array(["a", "b", "a"]),
                  "dst": pa.array(["b", "c", "c"])})
    with pytest.raises(ValueError, match="'a'"):
        resolve_redirects(ray.data.from_arrow(t), hop_cap=2)
