"""Distributed link-graph analytics over an edge table — the crawl-tier
companion to the curation stages: the crawl emits (src, dst) link rows at
100 TB scale, and ranking / component structure over them is the classic
post-crawl batch job.

PageRank here is INTEGER FIXED-POINT by construction, which buys the two
properties a distributed implementation needs and float PageRank lacks:

* **order independence** — each iteration's per-node update is a SUM of
  integer contributions (``rank // out_degree`` floor divisions), and
  integer sums are exact in any order, so Ray's shuffle/groupby order
  cannot change the result (float sums round differently per block
  order);
* **cross-engine reproducibility** — every op is integer division,
  multiplication, and addition below 2**63, so a DuckDB oracle unrolling
  the same iterations computes bit-identical ranks (the proven
  ``kmeans_centroids`` playbook).

Semantics (scaled by ``SCALE = 10**9``; ranks are integers summing to
~N*SCALE): ``r0[v] = SCALE``; per iteration
``r[v] = (1000 - d) * SCALE // 1000 + d * contrib[v] // 1000`` where
``contrib[v] = sum over edges (u, v) of r[u] // outdeg[u]`` and
``d`` is damping in permille (default 850). Dangling mass is dropped
(the common "no dangling redistribution" variant), documented so the
oracle matches. Integer-range bound: ``sum-of-contribs * damping`` must
stay under 2**63, which holds while ``num_nodes * SCALE * 1000 < 2**63``
(~9.6M nodes at the default SCALE); drop SCALE to 10**6 for
billion-node graphs — precision trades against range explicitly.

Execution: the iterative operators (:func:`pagerank`,
:func:`pagerank_weighted`, :func:`hits`, :func:`hyperball`,
:func:`resolve_redirects`) run on the BSP engine in :mod:`bsp`: one
shard actor per cluster CPU, ONE sort exchange that loads the edges into
their key's shard, then one scatter/gather message round per iteration
(per-dst partial sums of ``rank // outdeg`` for PageRank) with no Dataset
execution inside the loop. Ranks and degrees are (node, int64) arrays,
never adjacency lists, so skewed in-degree costs a hot shard's partial
sums, not memory. Node ids must lie in ``[0, num_nodes)``; an edge
endpoint outside that range is a ``ValueError``."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import bsp
from .joins import bucket_exchange, group_aggregate, hash_bucket_join

SCALE = 10**9


def pagerank(edges, num_nodes: int, iters: int = 5,
             damping_permille: int = 850):
    """Integer fixed-point PageRank over an edge Dataset with columns
    ``(src, dst)``; nodes are ``0..num_nodes-1``. Returns a Dataset of
    ``(node, rank)`` with integer ranks on the ``SCALE`` grid. See module
    docstring for semantics, determinism, and the execution plan.

    Edges are sharded by src, so out-degrees never move; each iteration
    sends one per-dst partial sum per (shard, dst) pair."""
    return _pagerank(edges, num_nodes, iters, damping_permille,
                     weighted=False)


def _pagerank(edges, num_nodes: int, iters: int, damping_permille: int,
              weighted: bool):
    import ray

    name = "pagerank_weighted" if weighted else "pagerank"
    # int64 headroom guard: the gather's worst case is every node's damped
    # mass landing on one sink, so num_nodes * SCALE * 1000 must stay below
    # 2^63 or the accumulate and the damping multiply wrap silently
    if num_nodes * SCALE * 1000 >= 2 ** 63:
        raise ValueError(
            f"{name} int64 overflow: num_nodes ({num_nodes}) * SCALE "
            f"({SCALE}) * 1000 >= 2**63; reduce graph.SCALE "
            f"(grid resolution) to fit {num_nodes} nodes")

    cols = ("src", "dst", "w") if weighted else ("src", "dst")
    with bsp.started(bsp.PRShard, SCALE, damping_permille,
                     weighted) as shards:
        bsp.load(edges, shards, "set_edges", bsp.int_columns(*cols), "src")
        bsp.init_nodes(shards, num_nodes)
        if weighted:
            guards = ray.get([s.weight_guard.remote() for s in shards])
            max_w = max(g[0] for g in guards)
            max_W = max(g[1] for g in guards)
            if max_w > 0 and max_w * max_W >= 2 ** 63:
                raise ValueError("pagerank_weighted int64 overflow: "
                                 f"max(w)={max_w} * max(W)={max_W} "
                                 f">= 2**63")
        for _ in range(iters):
            bsp.superstep(shards)
        return bsp.collect(shards)


def resolve_redirects(edges, hop_cap: int = 8):
    """Redirect-chain resolution over ``(src, dst)`` redirect edges — the
    other classic post-crawl link job: every crawler accumulates a
    redirect map (301/302/canonical rows) and needs, per source URL, the
    FINAL destination, the hop count, and loop detection before URL-seen
    merging and per-host accounting can treat redirected aliases as one
    page. The reference follows redirects inline per fetch (scrapelib);
    at 100 TB the map is a table and resolution is a batch job.

    Algorithm: **pointer doubling** (the textbook parallel
    list-ranking/path-compression step). State rows ``(src, cur, hops)``
    start as the edges themselves; each round composes the state with
    itself — ``cur -> state[cur]`` where present, accumulating exact hop
    counts — so after k rounds every source has advanced
    ``min(2^k, distance-to-terminal)`` hops. ``log2(hop_cap)`` rounds
    resolve every chain of length <= ``hop_cap``; sources still pointing
    at a redirecting URL after the final round are in (or feed into) a
    loop longer than ``hop_cap`` and are flagged ``is_cycle`` (final_url
    '', hops -1) — the same convention a recursion-bounded SQL mirror
    produces, so the oracle is exact. ``hop_cap`` must be a power of two
    (the round reach and the cap must coincide or the two conventions
    diverge between ``hop_cap`` and ``2^rounds``).

    Precondition: ``src`` is unique (a redirect map is a function; HTTP
    gives one Location per URL). A repeated src is a ``ValueError``
    naming it.

    Execution: the state rows are loaded once into the shard of their
    src, which makes each shard the owner of its slice of the
    ``src -> state`` map. A doubling round is two message exchanges:
    each shard sends its distinct ``cur`` values to their owners, and the
    owners answer with ``(next, hops)``; a final exchange asks whether
    each ``cur`` is still a source. Only distinct narrow strings move.
    Returns a Dataset of ``(src_url, final_url, hops, is_cycle)``, one
    row per source."""
    import ray

    rounds = int(np.log2(hop_cap))
    if 2 ** rounds != hop_cap:
        raise ValueError(f"hop_cap must be a power of two, got {hop_cap}")

    with bsp.started(bsp.RDShard) as shards:
        bsp.load(edges, shards, "set_state",
                 lambda t: pa.table({"src": t["src"], "cur": t["dst"]}),
                 "src")
        dups = [d for d in ray.get([s.duplicate_src.remote()
                                    for s in shards]) if d is not None]
        if dups:
            raise ValueError(f"resolve_redirects: src {dups[0]!r} has more "
                             f"than one redirect row; src must be unique")
        for _ in range(rounds):
            asked = bsp.exchange(shards, "queries")
            ray.get(bsp.deliver(shards, "apply",
                                bsp.exchange(shards, "answer", asked)))
        # terminal test: a cur that is still a source is unresolved (a
        # loop or a chain longer than hop_cap)
        asked = bsp.exchange(shards, "queries")
        return bsp.collect(shards, "finish",
                           bsp.exchange(shards, "exists", asked))


def anchor_topk(links, k: int = 3):
    """Inbound anchor-text aggregation — the classic web-search /
    web-corpus signal (Brin & Page '98 §2.2; anchor text often describes
    a target better than the target's own body, and is the standard
    title/label source for pages a crawler never fetched). Per target
    URL: the top-``k`` inbound anchor strings by total inbound-link
    count, ties broken anchor-ascending.

    Input: ``(src_url, dst_url, anchor)`` link rows (one per ``<a>``
    span the parser emitted). Output: ``(dst_url, anchor, n_links,
    rank)`` with ``rank`` in 1..k per dst (count desc, anchor asc — a
    total order, so cross-engine exact).

    Scale shape: per-batch Arrow ``group_by`` pre-combines duplicate
    (dst, anchor) pairs BEFORE anything moves (a nav template linking
    "home" a million times collapses to one partial per block), then
    ONE dst-keyed bucket exchange of ``(dst, anchor, c)`` partial rows
    and a per-bucket C-path pandas fold + rank filter. Anchors shuffle
    once as block-distinct narrow strings; src URLs never move. A hot
    dst (everyone links the front page) costs a hot reduce key bounded
    by its distinct-anchor vocabulary, not its in-degree."""
    import pandas as pd
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        # drop null anchors up front: a null group's count('anchor') is
        # 0 and would otherwise occupy a top-k rank slot
        t = t.filter(pc.is_valid(t["anchor"]))
        g = (pa.table({"dst_url": t["dst_url"], "anchor": t["anchor"]})
             .group_by(["dst_url", "anchor"])
             .aggregate([("anchor", "count")]))
        return pa.table({"dst_url": g["dst_url"], "anchor": g["anchor"],
                         "c": pa.array(g["anchor_count"].to_numpy(
                             zero_copy_only=False).astype(np.int64))})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "dst_url": pd.Series(dtype="object"),
                "anchor": pd.Series(dtype="object"),
                "n_links": pd.Series(dtype="int64"),
                "rank": pd.Series(dtype="int64")})
        out = (df.groupby(["dst_url", "anchor"], sort=False)["c"]
               .sum().reset_index(name="n_links"))
        out = out.sort_values(["dst_url", "n_links", "anchor"],
                              ascending=[True, False, True],
                              kind="mergesort")
        out["rank"] = out.groupby("dst_url", sort=False).cumcount() + 1
        out = out[out["rank"] <= k].reset_index(drop=True)
        out["n_links"] = out["n_links"].astype("int64")
        out["rank"] = out["rank"].astype("int64")
        return out

    return bucket_exchange(links.map_batches(partial, batch_format="pyarrow"),
                           ["dst_url"], fold)


def host_link_graph(links):
    """Host-level link-graph compression — the first step of every
    web-graph pipeline (WebGraph/Common Crawl host graphs): collapse
    page-level ``(src_url, dst_url)`` edges to one row per ordered host
    pair with ``n_links`` (total page-level links) and ``n_src_pages``
    (distinct linking pages). Feeds host-rank, spam-farm detection, and
    per-host politeness budgets; at 10^10 URLs the page graph is too
    wide to iterate, the host graph is ~10^7 nodes.

    Hosts are extracted with a vectorized RE2 authority match
    (lowercased); rows whose src or dst has no ``scheme://host`` prefix
    are dropped (relative/junk links). Scale shape: per-batch Arrow
    ``group_by`` pre-reduces to block-distinct ``(src_host, dst_host,
    src_url, c)`` partials (so a page's repeated links collapse
    locally), ONE (src_host, dst_host)-keyed bucket exchange, and a
    per-bucket fold computing the sum and the exact distinct-src count.
    Bodies/anchors never move; the only strings that shuffle are hosts
    and block-distinct src URLs."""
    import pandas as pd
    import pyarrow.compute as pc

    host_re = r"^[A-Za-z][A-Za-z0-9+.\-]*://([^/?#]+)"

    def partial(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        src = pc.cast(t["src_url"], pa.string())
        sh = pc.utf8_lower(pc.struct_field(
            pc.extract_regex(src, host_re.replace("([^/?#]+)",
                                                  "(?P<h>[^/?#]+)")), "h"))
        dh = pc.utf8_lower(pc.struct_field(
            pc.extract_regex(pc.cast(t["dst_url"], pa.string()),
                             host_re.replace("([^/?#]+)",
                                             "(?P<h>[^/?#]+)")), "h"))
        keep = pc.and_(pc.is_valid(sh), pc.is_valid(dh))
        base = pa.table({"src_host": sh, "dst_host": dh,
                         "src_url": src}).filter(keep)
        g = (base.group_by(["src_host", "dst_host", "src_url"])
             .aggregate([("src_url", "count")]))
        return pa.table({
            "src_host": g["src_host"], "dst_host": g["dst_host"],
            "src_url": g["src_url"],
            "c": pa.array(g["src_url_count"].to_numpy(
                zero_copy_only=False).astype(np.int64))})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "src_host": pd.Series(dtype="object"),
                "dst_host": pd.Series(dtype="object"),
                "n_links": pd.Series(dtype="int64"),
                "n_src_pages": pd.Series(dtype="int64")})
        out = (df.groupby(["src_host", "dst_host"], sort=False)
               .agg(n_links=("c", "sum"),
                    n_src_pages=("src_url", "nunique"))
               .reset_index())
        out["n_links"] = out["n_links"].astype("int64")
        out["n_src_pages"] = out["n_src_pages"].astype("int64")
        return out

    return bucket_exchange(links.map_batches(partial, batch_format="pyarrow"),
                           ["src_host", "dst_host"], fold)


def outlink_diversity(links):
    """Per-page outbound-link diversity — the classic link-spam / boilerplate
    signal (Fetterly et al. WebDB'04 use outlink statistics as a primary
    spam discriminator; SEO link farms show near-zero external fraction,
    scraped mirrors near-one): per source page, total outbound links,
    distinct destination hosts, links leaving the source's own host, and
    the external fraction in exact micro-units.

    Input: ``(src_url, dst_url)`` link rows (one per ``<a>`` span; the
    anchor column, if present, is ignored). Rows whose src or dst lacks a
    parseable ``scheme://host`` authority are dropped (relative/junk
    links), matching :func:`host_link_graph`. Output: ``(src_url,
    n_links, n_hosts, n_external, external_micro)`` with
    ``external_micro = floor(n_external * 1e6 / n_links + 0.5)`` —
    integer operands through one IEEE divide, so cross-engine exact.

    Scale shape: per-batch Arrow ``group_by`` pre-reduces to
    block-distinct ``(src_url, dst_host, c)`` partials (a template
    linking the same host 500 times collapses to one row per block;
    src_host rides along as a functional dependent of src_url), then ONE
    src_url-keyed bucket exchange and a per-bucket pandas C-path fold.
    Bodies and anchors never move; a hot src (a directory page with 10^5
    outlinks) costs a reduce key bounded by its distinct-host fan-out."""
    import pandas as pd
    import pyarrow.compute as pc

    host_re = r"^[A-Za-z][A-Za-z0-9+.\-]*://(?P<h>[^/?#]+)"

    def partial(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        src = pc.cast(t["src_url"], pa.string())
        sh = pc.utf8_lower(pc.struct_field(
            pc.extract_regex(src, host_re), "h"))
        dh = pc.utf8_lower(pc.struct_field(
            pc.extract_regex(pc.cast(t["dst_url"], pa.string()), host_re),
            "h"))
        keep = pc.and_(pc.is_valid(sh), pc.is_valid(dh))
        base = pa.table({"src_url": src, "src_host": sh,
                         "dst_host": dh}).filter(keep)
        g = (base.group_by(["src_url", "src_host", "dst_host"])
             .aggregate([("dst_host", "count")]))
        return pa.table({
            "src_url": g["src_url"], "src_host": g["src_host"],
            "dst_host": g["dst_host"],
            "c": pa.array(g["dst_host_count"].to_numpy(
                zero_copy_only=False).astype(np.int64))})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "src_url": pd.Series(dtype="object"),
                "n_links": pd.Series(dtype="int64"),
                "n_hosts": pd.Series(dtype="int64"),
                "n_external": pd.Series(dtype="int64"),
                "external_micro": pd.Series(dtype="int64")})
        ext = df["c"].to_numpy() * (df["dst_host"].to_numpy()
                                    != df["src_host"].to_numpy())
        df = df.assign(ext=ext)
        out = (df.groupby("src_url", sort=False)
               .agg(n_links=("c", "sum"), n_hosts=("dst_host", "nunique"),
                    n_external=("ext", "sum"))
               .reset_index())
        nl = out["n_links"].to_numpy().astype(np.int64)
        ne = out["n_external"].to_numpy().astype(np.int64)
        out["external_micro"] = np.floor(
            ne * 1_000_000 / nl + 0.5).astype(np.int64)
        for c in ("n_links", "n_hosts", "n_external"):
            out[c] = out[c].astype("int64")
        return out

    return bucket_exchange(links.map_batches(partial, batch_format="pyarrow"),
                           ["src_url"], fold)


HITS_SCALE = 10**6


def hits(edges, num_nodes: int, iters: int = 3):
    """Integer fixed-point HITS (Kleinberg '99, "Authoritative sources
    in a hyperlinked environment") over an edge Dataset ``(src, dst)``
    with nodes ``0..num_nodes-1`` — the hub/authority dual of
    :func:`pagerank`, the other classic post-crawl ranking job (spam-farm
    hubs and authority seeds for crawl prioritization).

    Semantics per iteration (max-normalized variant, normalize after
    EACH half-step, documented so the oracle matches): ``raw_a[v] =
    sum over in-edges (u, v) of h[u]``; ``a = raw_a * HITS_SCALE //
    max(raw_a)`` (all-integer floor division, 0 when the max is 0);
    then ``raw_h[u] = sum over out-edges (u, v) of a[v]`` and the same
    normalization for ``h``. ``a0 = h0 = HITS_SCALE``. Every op is
    int64 addition / multiply / floor-division, so the result is
    order-independent and bit-identical to a DuckDB unroll. Range guard:
    ``num_nodes * HITS_SCALE**2 < 2**63`` (~9.2M nodes at the default
    grid; lower HITS_SCALE for bigger graphs — precision trades against
    range explicitly, the pagerank convention).

    Execution: the edges are loaded twice, once sharded by src (the
    authority step) and once by dst (the hub step). Each half-step is
    one scatter/gather message round of per-node partial sums plus one
    scalar max per shard, which the driver reduces and broadcasts back
    as the normalizer."""
    import ray

    if num_nodes * HITS_SCALE * HITS_SCALE >= 2 ** 63:
        raise ValueError(
            f"hits int64 overflow: num_nodes ({num_nodes}) * "
            f"HITS_SCALE^2 >= 2**63; reduce graph.HITS_SCALE")

    project = bsp.int_columns("src", "dst")
    with bsp.started(bsp.HITSShard, HITS_SCALE) as shards:
        bsp.load(edges, shards, "set_edges_src", project, "src")
        bsp.load(edges, shards, "set_edges_dst", project, "dst")
        bsp.init_nodes(shards, num_nodes)
        for _ in range(iters):
            # authority half-step (uses h), then hub half-step (uses the
            # NEW a)
            for which in ("a", "h"):
                gmax = max(bsp.superstep(shards, which))
                ray.get([s.normalize.remote(which, gmax) for s in shards])
        return bsp.collect(shards)


def pagerank_weighted(edges, num_nodes: int, iters: int = 5,
                      damping_permille: int = 850):
    """Weighted integer fixed-point PageRank over ``(src, dst, w)``
    edges — the host-graph variant (a host pair carrying 10^4 page
    links must pull more rank than a single stray link; unweighted
    PageRank over a compressed host graph discards exactly that
    signal). Same grid, damping and execution as :func:`pagerank`;
    the per-edge contribution becomes ``rank * w // W_u`` (``W_u`` =
    total out-weight), computed in int64 WITHOUT 128-bit arithmetic via
    the exact split ``(r // W) * w + ((r % W) * w) // W`` — identical
    to a HUGEINT ``r * w // W`` in the SQL mirror because
    ``r = qW + s  =>  rw // W = qw + sw // W``.

    Int64 range guards: the pagerank node bound, plus
    ``max(w) * max(W_u) < 2**63`` so the split's middle product never
    wraps (checked on the loaded shards before the first iteration —
    weights are link counts, so this holds until a single host pair
    carries ~10^9 links against a 10^9-weight hub)."""
    return _pagerank(edges, num_nodes, iters, damping_permille,
                     weighted=True)


def reciprocal_edges(edges):
    """Reciprocal-link audit over ``(src, dst)`` edges — the classic
    link-spam / link-exchange signal (organic web graphs are ~25%
    reciprocal at host level; link farms approach 100%): per src node,
    its out-degree, the number of out-edges whose reverse edge exists,
    and the reciprocal fraction in exact micro-units. Self-loops are
    excluded (trivially reciprocal).

    Shape: each edge emits ONE row keyed by its unordered pair
    (min, max) plus its src; ONE pair-bucket exchange co-locates both
    directions (the direction bit is derived in-kernel as src == lo),
    the per-bucket kernel marks pairs seen in both directions, and a
    second node-bucket fold sums per src. Both exchanges move 3-int
    value rows (lo, hi, src / src, out, recip) plus the bucket tag."""
    import pandas as pd

    def pair_rows(t: pa.Table) -> pa.Table:
        s = t["src"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = t["dst"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        lo = np.minimum(s, d)
        hi = np.maximum(s, d)
        return pa.table({
            "lo": pa.array(lo), "hi": pa.array(hi),
            "src": pa.array(s),
        })

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "src": pd.Series(dtype="int64"),
                "out": pd.Series(dtype="int64"),
                "recip": pd.Series(dtype="int64")})
        # distinct directions per unordered pair (parallel edges count
        # once); direction bit derived in-kernel: src == lo iff forward
        g = g.drop_duplicates(["lo", "hi", "src"])
        fwd = (g["src"].to_numpy(dtype=np.int64)
               == g["lo"].to_numpy(dtype=np.int64))
        both = (pd.Series(fwd, index=g.index)
                .groupby([g["lo"], g["hi"]], sort=False)
                .transform("nunique") == 2)
        return pd.DataFrame({
            "src": g["src"].to_numpy(dtype=np.int64),
            "out": np.ones(len(g), dtype=np.int64),
            "recip": both.to_numpy().astype(np.int64)})

    marked = bucket_exchange(
        edges.map_batches(pair_rows, batch_format="pyarrow"), ["lo", "hi"],
        mark)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "src": pd.Series(dtype="int64"),
                "out_deg": pd.Series(dtype="int64"),
                "n_recip": pd.Series(dtype="int64"),
                "recip_micro": pd.Series(dtype="int64")})
        out = (df.groupby("src", sort=False)
               .agg(out_deg=("out", "sum"), n_recip=("recip", "sum"))
               .reset_index())
        out["out_deg"] = out["out_deg"].astype("int64")
        out["n_recip"] = out["n_recip"].astype("int64")
        out["recip_micro"] = (out["n_recip"] * 1_000_000
                              // out["out_deg"]).astype("int64")
        return out

    return bucket_exchange(marked, ["src"], fold)


def degree_histogram(edges):
    """Log2-bucketed in/out-degree histogram — the one-page web-graph
    health audit (degree distributions are the first thing that shifts
    when a crawl hits a spam network or a trap): per (direction,
    floor(log2(degree))) bucket, the node count. Exact integers only
    (bit_length is the integer log2), so cross-engine exact.

    Shape: per-block Arrow group_by pre-combines (node, c) partials for
    each direction, ONE node-bucket exchange folds exact degrees, then
    a bounded (direction x ~64 buckets) groupby."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        frames = []
        for direction, col in (("out", "src"), ("in", "dst")):
            g = (pa.table({"node": t[col].cast(pa.int64())})
                 .group_by(["node"]).aggregate([("node", "count")]))
            frames.append(pa.table({
                "direction": pa.array([direction] * g.num_rows,
                                      type=pa.string()),
                "node": g["node"],
                "c": pa.array(g["node_count"].to_numpy(
                    zero_copy_only=False).astype(np.int64))}))
        return pa.concat_tables(frames)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "direction": pd.Series(dtype="object"),
                "log2_deg": pd.Series(dtype="int64"),
                "n_nodes": pd.Series(dtype="int64")})
        deg = (df.groupby(["direction", "node"], sort=False)["c"]
               .sum().reset_index(name="deg"))
        d = deg["deg"].to_numpy(dtype=np.int64)
        # floor(log2) vectorized, then exact boundary correction so the
        # float log can never be off by one: 2^lb <= d < 2^(lb+1)
        lb = np.floor(np.log2(d.astype(np.float64))).astype(np.int64)
        lb = np.where((np.int64(1) << np.minimum(lb + 1, 62)) <= d,
                      lb + 1, lb)
        lb = np.where((np.int64(1) << np.maximum(
            np.minimum(lb, 62), 0)) > d, lb - 1, lb)
        deg["log2_deg"] = lb
        out = (deg.groupby(["direction", "log2_deg"], sort=False)
               .size().reset_index(name="n_nodes"))
        out["log2_deg"] = out["log2_deg"].astype("int64")
        out["n_nodes"] = out["n_nodes"].astype("int64")
        return out

    # per-bucket partial histograms merge in one bounded grouped sum
    # (direction x <=64 log buckets)
    return group_aggregate(
        bucket_exchange(edges.map_batches(partial, batch_format="pyarrow"),
                        ["direction", "node"], fold),
        ["direction", "log2_deg"], {"n_nodes": ("n_nodes", "sum")})


def hyperball(edges, num_nodes: int, iters: int = 2, p: int = 6):
    """HyperBall (Boldi & Vigna, WWW'13 — "In-core computation of
    geometric centralities with HyperBall"): the neighborhood function
    N(v, t) = |{nodes reachable from v in <= t hops}| estimated per node
    with an HLL counter propagated along OUT-edges —
    ``B_{t+1}(v) = B_t(v) ∪ ⋃_{v->w} B_t(w)``. THE scalable way to get
    per-page reach / centrality on a web graph (exact 2-hop sets are
    quadratic in hub degree; register unions are linear in |E|).

    ``m = 2^p`` registers per node (default 64); item hash is the
    md5-parity convention of the HLL sketches (``sketch._hash64``), so
    the register state is bit-identical to a DuckDB unroll. The output
    is the exact integer DIGEST of each node's final registers —
    ``(node, v_zero, sum_r)`` (zero-register count and rho sum) — the
    float HLL estimate is a trivial client-side map left off the gate
    surface (the registers, not the estimator, are what distribution
    can get wrong). rho is computed with an integer boundary correction
    so float rounding above 2^53 can never shift it.

    Execution: edges are sharded by dst, next to the dst's registers.
    Each iteration is one message round: every shard sends, per src,
    the elementwise max of its dsts' registers to the src's shard, which
    folds them into the src's dense register row."""
    with bsp.started(bsp.HBShard, p) as shards:
        bsp.load(edges, shards, "set_edges",
                 bsp.int_columns("src", "dst"), "dst")
        bsp.init_nodes(shards, num_nodes)
        for _ in range(iters):
            bsp.superstep(shards)
        return bsp.collect(shards, "digest_table")


def colink_similarity(links, threshold: float = 0.2, max_df: int = None):
    """Co-citation similarity between hosts (Small '73 co-citation /
    the SimRank-lite used for "related sites"): exact Jaccard between
    the sets of PAGES each host pair is linked FROM — two hosts linked
    by mostly the same pages are near-duplicates of audience, the
    mirror/spam-network signal on the host graph. Input: ``(src_url,
    dst_host)`` rows (page-level links after host extraction).

    Implementation: the documents' inverted-index set-similarity core
    (:func:`spatula_ray.stages.dedup._jaccard_join`) verbatim, with
    "shingle" = hashed linking page and "document" = host id — the
    same two compact-int exchanges and the same ``max_df`` hot-page
    cap. Output ``(a, b, jaccard)`` over host ids (undirected,
    a < b)."""
    import pandas as pd

    from .dedup import _jaccard_join

    def explode(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        src = t["src_url"].cast(pa.string()).to_numpy(
            zero_copy_only=False)
        host = t["dst_host"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        # block-local distinct (host, src) — the inverted index wants
        # set semantics; cross-block repeats merge in the join's
        # partial-count groupby ONLY if deduped here first, so a
        # global distinct pass runs before n_sh counting
        return pa.table({
            "shingle": pa.array(pd.util.hash_array(
                np.asarray(src, dtype=object))),
            "doc_id": pa.array(host),
        })

    rows = links.map_batches(explode, batch_format="pyarrow")

    # global distinct (shingle, host) + per-host set size, then the
    # standard inverted-index layout (shingle, doc_id, n_sh)
    def distinct_and_size(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "shingle": pd.Series(dtype="uint64"),
                "doc_id": pd.Series(dtype="int64")})
        g = g.drop_duplicates(["shingle", "doc_id"])
        return g[["shingle", "doc_id"]]

    distinct = bucket_exchange(rows, ["shingle"],
                               distinct_and_size).materialize()

    # per-host set size via one grouped count, joined back on the host
    sizes = group_aggregate(distinct, "doc_id",
                            {"n_sh": (None, "count_all")})
    inv = hash_bucket_join(distinct, sizes, on=["doc_id"])
    return _jaccard_join(inv, threshold, max_df)
