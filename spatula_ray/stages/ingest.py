"""Crawl-seed ingestion stages: sitemap XML -> frontier seed rows.

The reference takes its roots as constructed page objects
(``cli.py:143-154`` — a module of page classes); real tier-crawl
deployments seed from per-host sitemap.xml documents fetched ahead of the
crawl. This stage turns a table of raw sitemap bodies (one row per host)
into one frontier seed row per ``<url>`` entry, parsed with the repo's
OWN stdlib DOM + XPath subset (``dom.fromstring_xml`` — the same code
path every scraper page class uses, so sitemap ingestion exercises the
production parser, not a shortcut).

Scale shape: pure streaming ``map_batches`` over (host, body) rows — a
sitemap is parsed where it lands, entries are emitted columnar, and no
shuffle happens until the frontier dedup that follows (the URL-seen
cuckoo shards). Sitemap index files (sitemaps pointing at sitemaps) are
one recursion of the same stage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import per_task
from .joins import bucket_exchange


class SitemapParse:
    """Per-batch stage: ``<urlset>`` sitemap bodies -> one row per
    ``<url>`` entry: ``(host, url, lastmod)``. Entries missing ``<loc>``
    are dropped; missing ``<lastmod>`` emits ''. Per-entry Python is the
    parse itself (a DOM walk), same as every page-class stage; bodies
    never shuffle."""

    def __init__(self):
        from ..dom import fromstring_xml

        self._parse = fromstring_xml

    def __call__(self, t: pa.Table) -> pa.Table:
        hosts, urls, mods = [], [], []
        for host, body in zip(t["host"].to_pylist(),
                              t["body"].to_pylist()):
            root = self._parse(body or "")
            for entry in root.xpath("//url"):
                loc = entry.xpath("./loc/text()")
                if not loc:
                    continue
                mod = entry.xpath("./lastmod/text()")
                hosts.append(host)
                urls.append(loc[0])
                mods.append(mod[0] if mod else "")
        return pa.table({
            "host": pa.array(hosts, type=pa.string()),
            "url": pa.array(urls, type=pa.string()),
            "lastmod": pa.array(mods, type=pa.string()),
        })


def parse_sitemaps(sitemaps, batch_size: int = 32):
    """Task-stage wrapper for :class:`SitemapParse`."""
    return sitemaps.map_batches(per_task(SitemapParse),
                                batch_size=batch_size, batch_format="pyarrow")


def dust_param_rules(pages, url_col: str = "url",
                     fp_col: str = "fingerprint", min_support: int = 2):
    """DUST rule mining (Bar-Yossef et al., "Do not crawl in the DUST:
    different URLs with similar text", WWW'07): discover query parameters
    that do NOT affect page content — session ids, tracking tags — so the
    frontier canonicalizer (``engine/keys.py``, the reference's
    ``SimilarLink`` dedup writ host-wide) can strip them BEFORE fetching.

    A parameter key ``p`` on host ``h`` earns one unit of evidence when
    deleting its ``key=value`` pair from an observed URL yields ANOTHER
    observed URL — same ``scheme://host/path``, same remaining parameter
    multiset (order-insensitive) — with the SAME content fingerprint.
    Output: one ``(host, param, support)`` row per rule with
    ``support >= min_support``.

    Scale shape: ONE streaming pass computes, per URL, the 64-bit
    multiset hash of its params (sum of per-kv hashes mod 2**64), so
    deleting a param is a SUBTRACTION — candidate probes are emitted
    without materializing rewritten URL strings and without enumerating
    pairs inside duplicate groups (linear in total params, never
    quadratic). Probes meet observed URLs in one hash-bucket join on
    ``(base, fingerprint, multiset-sum, param-count)``; everything that
    shuffles is narrow key rows. Multiset equality by 64-bit sum is exact
    up to hash collisions. The per-kv hash is
    :func:`sketch.md5_number_lower`, so the DuckDB mirror finds the same
    multiset sums."""
    import pyarrow.compute as pc

    from .joins import group_aggregate, hash_bucket_join
    from .sketch import md5_number_lower

    host_re = r"^[A-Za-z][A-Za-z0-9+.\-]*://(?P<h>[^/]+)"

    def parts(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        u = pc.cast(t[url_col], pa.string())
        fp = pc.cast(t[fp_col], pa.string())
        has_q = pc.fill_null(pc.match_substring(u, "?"), False)
        plain = pa.table({"u": u, "fp": fp}).filter(pc.invert(has_q))
        qt = pa.table({"u": u, "fp": fp}).filter(has_q)

        def mk(jb, jfp, msum, n, is_probe, host, param, rows):
            # msum travels as the bit-identical int64 VIEW of the uint64
            # multiset sum: Ray's sort-based groupby has no uint64 path
            # (it falls back to pickled object blocks), and the join/
            # groupby only ever test equality, which the view preserves
            return pa.table({
                "jb": jb, "jfp": jfp,
                "msum": pa.array(np.asarray(msum, dtype=np.uint64)
                                 .view(np.int64), type=pa.int64()),
                "n": pa.array(np.asarray(n, dtype=np.int64),
                              type=pa.int64()),
                "is_probe": pa.array(
                    np.full(rows, is_probe, dtype=np.int8)),
                "host": host if host is not None
                else pa.array([""] * rows, type=pa.string()),
                "param": param if param is not None
                else pa.array([""] * rows, type=pa.string()),
            })

        out = []
        # no-query URLs: base rows only (valid targets for 1-param probes)
        if plain.num_rows:
            out.append(mk(plain["u"], plain["fp"],
                          np.zeros(plain.num_rows, dtype=np.uint64),
                          np.zeros(plain.num_rows, dtype=np.int64),
                          0, None, None, plain.num_rows))

        if qt.num_rows:
            uq = qt["u"].combine_chunks()
            fq = qt["fp"].combine_chunks()
            sp = pc.split_pattern(uq, "?", max_splits=1)
            base = pc.list_element(sp, 0)
            kvs = pc.split_pattern(pc.list_element(sp, 1), "&")
            parents = pc.list_parent_indices(kvs).to_numpy(
                zero_copy_only=False)
            flat = pc.list_flatten(kvs)
            h = md5_number_lower(flat.to_pylist())
            tot = np.zeros(len(uq), dtype=np.uint64)
            np.add.at(tot, parents, h)            # wraps mod 2**64
            cnt = pc.list_value_length(kvs).to_numpy(
                zero_copy_only=False).astype(np.int64)
            hosts = pc.fill_null(pc.struct_field(
                pc.extract_regex(base, host_re), "h"), "")
            pkey = pc.list_element(
                pc.split_pattern(flat, "=", max_splits=1), 0)
            pidx = pa.array(parents)

            out.append(mk(base, fq, tot, cnt, 0, None, None, len(uq)))
            # probe rows: one per kv, multiset-sum minus that kv's hash
            out.append(mk(base.take(pidx), fq.take(pidx),
                          tot[parents] - h,       # uint64 wrap
                          cnt[parents] - 1, 1,
                          hosts.take(pidx), pkey, len(parents)))

        if not out:
            return mk(pa.array([], type=pa.string()),
                      pa.array([], type=pa.string()),
                      np.zeros(0, dtype=np.uint64),
                      np.zeros(0, dtype=np.int64), 0, None, None, 0)
        return pa.concat_tables(out).combine_chunks()

    tagged = pages.map_batches(parts, batch_format="pyarrow").materialize()

    def side(flag):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["is_probe"], flag))
            cols = (["jb", "jfp", "msum", "n"] if flag == 0
                    else ["jb", "jfp", "msum", "n", "host", "param"])
            return t.select(cols)
        return fn

    # observed-URL keys, deduped (param-order variants of one logical URL
    # collapse here, so each probe matches at most once)
    bases = group_aggregate(
        tagged.map_batches(side(0), batch_format="pyarrow"),
        ["jb", "jfp", "msum", "n"], {"_c": (None, "count_all")}) \
        .drop_columns(["_c"])
    probes = tagged.map_batches(side(1), batch_format="pyarrow")

    matched = hash_bucket_join(probes, bases,
                               on=["jb", "jfp", "msum", "n"])
    rules = group_aggregate(matched, ["host", "param"],
                            {"support": (None, "count_all")})

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["support"], min_support))

    return rules.map_batches(keep, batch_format="pyarrow")


def recrawl_priority(snaps, url_col: str = "url",
                     snap_col: str = "snap_id",
                     fp_col: str = "fingerprint"):
    """Recrawl scheduling from crawl-snapshot history (Cho &
    Garcia-Molina, "Estimating frequency of change", ACM TOIT'03 — the
    incremental-crawl step downstream of :func:`snapshot_diff`): per URL,
    over its observed snapshots in snapshot order, count
    adjacent-observation fingerprint changes ``X`` across
    ``I = n_obs - 1`` intervals and estimate the Poisson change rate
    ``lambda = -ln(1 - X/I) = ln(I) - ln(I - X)``.

    Output ``(url, n_obs, n_changes, n_intervals, lam_micro)``:
    ``lam_micro`` is the 1e-6-grid integer of the estimate (ln of SMALL
    EXACT INTEGERS on both systems, then one subtraction — the repo's
    float-parity convention), with sentinels ``-1`` for ``X == I > 0``
    (every interval changed; the rate is unbounded, recrawl first) and
    ``-2`` for ``I == 0`` (a single observation — no estimate yet).
    Recrawl priority = lam_micro descending with -1 ahead of all.

    Shape: one url-keyed bucket exchange -> ONE vectorized kernel per
    bucket (sort by (url, snap), shifted-compare change flags, C-path
    pandas groupby — the ``user_sessions`` pattern; never a Python call
    per URL). Only narrow ``(url, snap, fp)`` rows shuffle; S snapshots
    of the corpus stream through as S x corpus key rows."""
    import pandas as pd

    def est(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "url": pd.Series(dtype="object"),
            "n_obs": pd.Series(dtype="int64"),
            "n_changes": pd.Series(dtype="int64"),
            "n_intervals": pd.Series(dtype="int64"),
            "lam_micro": pd.Series(dtype="int64")})
        if len(g) == 0:
            return empty
        g = g.sort_values([url_col, snap_col], kind="mergesort")
        u = g[url_col].to_numpy()
        fp = g[fp_col].to_numpy()
        n = len(g)
        new_u = np.ones(n, dtype=bool)
        new_u[1:] = u[1:] != u[:-1]
        chg = np.zeros(n, dtype=bool)
        chg[1:] = (~new_u[1:]) & (fp[1:] != fp[:-1])
        out = (pd.DataFrame({"url": u, "c": chg, "i": ~new_u})
               .groupby("url", sort=False)
               .agg(n_obs=("c", "size"), n_changes=("c", "sum"),
                    n_intervals=("i", "sum"))
               .reset_index())
        X = out["n_changes"].to_numpy().astype(np.int64)
        iv = out["n_intervals"].to_numpy().astype(np.int64)
        lam = np.full(len(out), -2, dtype=np.int64)
        lam[(iv > 0) & (X == iv)] = -1
        m = (iv > 0) & (X < iv)
        lam[m] = np.floor(
            (np.log(iv[m]) - np.log(iv[m] - X[m])) * 1e6 + 0.5
        ).astype(np.int64)
        out["n_obs"] = out["n_obs"].astype("int64")
        out["n_changes"] = X
        out["n_intervals"] = iv
        out["lam_micro"] = lam
        return out

    return bucket_exchange(snaps, [url_col], est)


def snapshot_diff(old, new, key_col: str = "url",
                  fp_col: str = "fingerprint",
                  include_unchanged: bool = False):
    """Crawl-snapshot diff — the incremental-recrawl accounting step:
    given yesterday's and today's (url, content-fingerprint) tables,
    classify every URL as ``added`` (new only), ``removed`` (old only),
    ``changed`` (both, fingerprints differ) or ``unchanged``. Feeds
    recrawl scheduling (changed-rate per host) and incremental downstream
    processing (only added/changed docs re-enter the curation pipeline);
    the content-level byte accounting is the separate ``cdc_delta_bytes``.

    ONE full-outer hash-bucket join on the key (acero per bucket, key
    coalesced), narrow (key, fingerprint) rows only — bodies never
    shuffle. With ``include_unchanged=False`` (default) the output is
    bounded by true churn, not corpus size. Returns
    ``(url, status, old_fp, new_fp)`` with '' for the absent side."""
    import pyarrow.compute as pc

    from .joins import hash_bucket_join

    j = hash_bucket_join(new, old, on=[key_col], how="outer")
    old_fp_col = fp_col + "_r"

    def status(t: pa.Table) -> pa.Table:
        new_fp, old_fp = t[fp_col], t[old_fp_col]
        added = pc.and_(pc.is_valid(new_fp), pc.is_null(old_fp))
        removed = pc.is_null(new_fp)
        changed = pc.and_(
            pc.and_(pc.is_valid(new_fp), pc.is_valid(old_fp)),
            pc.invert(pc.equal(new_fp, old_fp)))
        st = pc.if_else(added, "added",
                        pc.if_else(removed, "removed",
                                   pc.if_else(changed, "changed",
                                              "unchanged")))
        out = pa.table({
            "url": t[key_col],
            "status": st,
            "old_fp": pc.fill_null(old_fp, ""),
            "new_fp": pc.fill_null(new_fp, ""),
        })
        if include_unchanged:
            return out
        return out.filter(pc.invert(pc.equal(st, "unchanged")))

    return j.map_batches(status, batch_format="pyarrow")


def trap_host_stats(urls, url_col: str = "url", repeat_k: int = 3,
                    depth_limit: int = 8):
    """Crawler-trap detection over the URL-seen / frontier table — the
    classic crawl-health audit (Heydon & Najork's Mercator §3.3 calls
    these "black holes": calendars, session-id loops, self-similar path
    recursions that generate unbounded URL spaces under one host). Per
    URL two integer features, per host their exact aggregate, plus a
    majority flag:

    * ``depth`` = number of non-empty ``/``-separated path segments;
      ``is_deep`` = depth >= ``depth_limit``;
    * ``has_repeat`` = some single segment occurs >= ``repeat_k`` times
      within the path (the ``/cal/2020/cal/2020/...`` signature);
    * per host: ``(host, n_urls, max_depth, n_deep, n_repeat,
      is_trap)`` with ``is_trap = 2*n_deep >= n_urls OR
      2*n_repeat >= n_urls`` — an all-integer majority rule, so
      cross-engine exact.

    Rows with no ``scheme://host`` prefix drop. Scale shape: the
    per-URL features are ONE vectorized pass (flatten all segments of a
    batch into a single array, lexsort (url-index, segment-code), run
    lengths give the max within-URL duplicate — no per-URL Python),
    pre-reduced to per-batch per-host partials before the ONE
    host-bucket exchange of 5-int rows; URL strings never shuffle."""
    import pandas as pd
    import pyarrow.compute as pc

    host_pat = r"^[A-Za-z][A-Za-z0-9+.\-]*://(?P<h>[^/?#]+)(?P<p>[^?#]*)"

    def partial(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        u = pc.cast(t[url_col], pa.string())
        ex = pc.extract_regex(u, host_pat)
        host = pc.utf8_lower(pc.struct_field(ex, "h"))
        path = pc.struct_field(ex, "p")
        keep = pc.is_valid(host)
        host = host.filter(keep)
        path = path.filter(keep)
        n = len(host)
        if n == 0:
            return pa.table({
                "host": pa.array([], type=pa.string()),
                "n_urls": pa.array([], type=pa.int64()),
                "max_depth": pa.array([], type=pa.int64()),
                "n_deep": pa.array([], type=pa.int64()),
                "n_repeat": pa.array([], type=pa.int64())})
        segs = pc.split_pattern(path, "/")
        flat = pc.list_flatten(segs)
        parent = np.repeat(np.arange(n, dtype=np.int64),
                           pc.list_value_length(segs).to_numpy(
                               zero_copy_only=False))
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat_np = flat.to_numpy(zero_copy_only=False)[nonempty]
        parent = parent[nonempty]
        depth = np.bincount(parent, minlength=n).astype(np.int64)
        # max within-URL duplicate segment: lexsort by (parent, code),
        # run lengths of equal (parent, code) pairs
        maxdup = np.zeros(n, dtype=np.int64)
        if len(parent):
            codes = pd.factorize(flat_np)[0]
            order = np.lexsort((codes, parent))
            p_s, c_s = parent[order], codes[order]
            newrun = np.ones(len(p_s), dtype=bool)
            newrun[1:] = (p_s[1:] != p_s[:-1]) | (c_s[1:] != c_s[:-1])
            run_id = np.cumsum(newrun) - 1
            run_len = np.bincount(run_id)
            starts = np.flatnonzero(newrun)
            np.maximum.at(maxdup, p_s[starts],
                          run_len.astype(np.int64))
        df = pd.DataFrame({
            "host": host.to_numpy(zero_copy_only=False),
            "depth": depth,
            "deep": (depth >= depth_limit).astype(np.int64),
            "rep": (maxdup >= repeat_k).astype(np.int64)})
        g = (df.groupby("host", sort=False)
             .agg(n_urls=("depth", "size"), max_depth=("depth", "max"),
                  n_deep=("deep", "sum"), n_repeat=("rep", "sum"))
             .reset_index())
        return pa.table({
            "host": pa.array(g["host"].to_numpy(), type=pa.string()),
            "n_urls": pa.array(g["n_urls"].to_numpy().astype(np.int64)),
            "max_depth": pa.array(
                g["max_depth"].to_numpy().astype(np.int64)),
            "n_deep": pa.array(g["n_deep"].to_numpy().astype(np.int64)),
            "n_repeat": pa.array(
                g["n_repeat"].to_numpy().astype(np.int64))})

    def fold(df) -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame({
                "host": pd.Series(dtype="object"),
                "n_urls": pd.Series(dtype="int64"),
                "max_depth": pd.Series(dtype="int64"),
                "n_deep": pd.Series(dtype="int64"),
                "n_repeat": pd.Series(dtype="int64"),
                "is_trap": pd.Series(dtype="bool")})
        out = (df.groupby("host", sort=False)
               .agg(n_urls=("n_urls", "sum"),
                    max_depth=("max_depth", "max"),
                    n_deep=("n_deep", "sum"),
                    n_repeat=("n_repeat", "sum"))
               .reset_index())
        for c in ["n_urls", "max_depth", "n_deep", "n_repeat"]:
            out[c] = out[c].astype("int64")
        out["is_trap"] = ((2 * out["n_deep"] >= out["n_urls"])
                          | (2 * out["n_repeat"] >= out["n_urls"]))
        return out

    return bucket_exchange(urls.map_batches(partial, batch_format="pyarrow"),
                           ["host"], fold)


def parse_robots(bodies, host_col: str = "host", body_col: str = "body"):
    """robots.txt body -> structured rule rows, the ingestion step that
    feeds the politeness gate (``engine/hostgate.py`` consumes the
    resulting per-host rule table; ``robots_conformance`` pins the
    ADMIT semantics, this stage pins the PARSE). RFC 9309 subset,
    Google-parser group model:

    * comments (``#`` to end of line) stripped, fields case-insensitive;
    * consecutive ``User-agent`` lines stack into ONE group; a
      ``User-agent`` after rule lines starts a NEW group; rules before
      any group are dropped;
    * ``Allow`` / ``Disallow`` / ``Crawl-delay`` emit one row per agent
      in the current group (an empty ``Disallow:`` value is legal and
      kept); ``Sitemap`` is global (agent ``''``); unknown directives
      and colon-less lines are skipped;
    * ``seq`` is the per-host emission index of rule lines (shared by
      the fanned-out agent rows of one line), so group order is
      reconstructable downstream.

    Output: ``(host, agent, directive, value, seq)``. Robots bodies are
    one-per-host (a bounded, host-cardinality domain — the same budget
    class as the sitemap parser), so the per-body Python line walk is a
    documented non-hot-path; the stage itself is a pure streaming
    ``map_batches`` with no shuffle."""

    def parse(t: pa.Table) -> pa.Table:
        hosts_out, agents, dirs, vals, seqs = [], [], [], [], []
        for host, body in zip(t[host_col].to_pylist(),
                              t[body_col].to_pylist()):
            if body is None:
                continue
            if isinstance(body, (bytes, bytearray)):
                body = bytes(body).decode("utf-8", "replace")
            cur_agents: list = []
            last_was_ua = False
            seq = 0
            for raw in body.split("\n"):
                line = raw.split("#", 1)[0].strip(" \t\r")
                if not line or ":" not in line:
                    continue
                field, _, value = line.partition(":")
                field = field.strip().lower()
                value = value.strip()
                if field == "user-agent":
                    if last_was_ua:
                        cur_agents.append(value)
                    else:
                        cur_agents = [value]
                    last_was_ua = True
                    continue
                last_was_ua = False
                if field in ("allow", "disallow", "crawl-delay"):
                    if not cur_agents:
                        continue
                    for a in cur_agents:
                        hosts_out.append(host)
                        agents.append(a)
                        dirs.append(field.replace("-", "_"))
                        vals.append(value)
                        seqs.append(seq)
                    seq += 1
                elif field == "sitemap":
                    hosts_out.append(host)
                    agents.append("")
                    dirs.append("sitemap")
                    vals.append(value)
                    seqs.append(seq)
                    seq += 1
        return pa.table({
            "host": pa.array(hosts_out, type=pa.string()),
            "agent": pa.array(agents, type=pa.string()),
            "directive": pa.array(dirs, type=pa.string()),
            "value": pa.array(vals, type=pa.string()),
            "seq": pa.array(np.asarray(seqs, dtype=np.int64)),
        })

    return bodies.map_batches(parse, batch_format="pyarrow")


def parse_warc(shards, shard_col: str = "shard_id",
               warc_col: str = "warc"):
    """WARC shard ingestion — the Common-Crawl entry point: each input
    row carries one WARC file's bytes (ISO 28500 record stream), and the
    stage emits one row per record: ``(shard_id, rec_idx, rec_type,
    target_uri, status, content_type, body_len, body_md5)``. For
    ``response`` records whose payload is an HTTP message the HTTP
    status / Content-Type header are parsed and ``body_*`` describe the
    HTTP body (the document payload a curation pipeline consumes);
    every other record type (warcinfo / request / revisit / metadata)
    reports ``status -1``, empty content_type, and the raw payload.
    Truncated / malformed tails stop the scan for that shard (parsed
    prefix records are kept — the resilient-reader convention).

    Scale shape: pure streaming ``map_batches`` — shard bytes never
    shuffle, output rows are narrow metadata (+32-hex digest) so the
    100 TB WARC corpus reduces to a record manifest in one pass; pair
    with ``snapshot_diff`` / ``cdc_delta_bytes`` downstream. The
    per-record scan is offset arithmetic over one ``bytes`` object per
    shard (no per-byte Python), the same budget class as the sitemap
    and robots parsers."""
    import hashlib

    def parse(t: pa.Table) -> pa.Table:
        sids, idxs, types, uris = [], [], [], []
        stats, ctypes, blens, md5s = [], [], [], []
        for sid, blob in zip(t[shard_col].to_pylist(),
                             t[warc_col].to_pylist()):
            if blob is None:
                continue
            data = bytes(blob)
            pos = 0
            rec_idx = 0
            while pos < len(data):
                while data[pos:pos + 2] == b"\r\n":
                    pos += 2
                if pos >= len(data):
                    break
                hdr_end = data.find(b"\r\n\r\n", pos)
                if hdr_end < 0:
                    break
                head = data[pos:hdr_end].decode("utf-8", "replace")
                lines = head.split("\r\n")
                if not lines[0].startswith("WARC/"):
                    break
                h = {}
                for ln in lines[1:]:
                    k, _, v = ln.partition(":")
                    h[k.strip().lower()] = v.strip()
                try:
                    clen = int(h.get("content-length", "0"))
                except ValueError:
                    break
                payload = data[hdr_end + 4:hdr_end + 4 + clen]
                if len(payload) < clen:
                    break                      # truncated tail
                pos = hdr_end + 4 + clen
                rtype = h.get("warc-type", "")
                uri = h.get("warc-target-uri", "")
                status, ctype, body = -1, "", payload
                if rtype == "response" and payload.startswith(b"HTTP/"):
                    ph_end = payload.find(b"\r\n\r\n")
                    if ph_end >= 0:
                        ph = payload[:ph_end].decode("utf-8", "replace")
                        body = payload[ph_end + 4:]
                        plines = ph.split("\r\n")
                        parts = plines[0].split(" ")
                        if len(parts) >= 2 and parts[1].isdigit():
                            status = int(parts[1])
                        for ln in plines[1:]:
                            k, _, v = ln.partition(":")
                            if k.strip().lower() == "content-type":
                                ctype = v.strip()
                                break
                sids.append(sid)
                idxs.append(rec_idx)
                types.append(rtype)
                uris.append(uri)
                stats.append(status)
                ctypes.append(ctype)
                blens.append(len(body))
                md5s.append(hashlib.md5(body).hexdigest())
                rec_idx += 1
        return pa.table({
            "shard_id": pa.array(np.asarray(sids, dtype=np.int64)),
            "rec_idx": pa.array(np.asarray(idxs, dtype=np.int64)),
            "rec_type": pa.array(types, type=pa.string()),
            "target_uri": pa.array(uris, type=pa.string()),
            "status": pa.array(np.asarray(stats, dtype=np.int64)),
            "content_type": pa.array(ctypes, type=pa.string()),
            "body_len": pa.array(np.asarray(blens, dtype=np.int64)),
            "body_md5": pa.array(md5s, type=pa.string()),
        })

    return shards.map_batches(parse, batch_format="pyarrow")


def canonical_urls(pages, url_col: str = "url",
                   fp_col: str = "fingerprint"):
    """Canonical-URL election — the alias-folding table downstream of
    :func:`dust_param_rules` and ``graph.resolve_redirects``: URLs whose
    content fingerprints are identical are aliases of one page; per
    fingerprint elect the lexicographically SMALLEST URL as canonical
    (deterministic, the min-id convention every dedup stage here uses)
    and count aliases. Output one row per alias group with >= 2 members:
    ``(fingerprint, canonical_url, n_aliases)`` — singleton pages emit
    nothing, so output is bounded by true aliasing.

    Scale shape: per-batch Arrow group_by pre-reduces to block-local
    ``(fp, min_url, c)`` partials, ONE fp-bucket exchange, per-bucket
    C-path fold; bodies never appear (the fingerprint column is the
    32-hex unit produced upstream)."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        g = (pa.table({"fingerprint": t[fp_col].cast(pa.string()),
                       "url": t[url_col].cast(pa.string())})
             .group_by(["fingerprint"])
             .aggregate([("url", "min"), ("url", "count")]))
        return pa.table({
            "fingerprint": g["fingerprint"],
            "url_min": g["url_min"],
            "c": pa.array(g["url_count"].to_numpy(
                zero_copy_only=False).astype(np.int64))})

    def fold(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame({
                "fingerprint": pd.Series(dtype="object"),
                "canonical_url": pd.Series(dtype="object"),
                "n_aliases": pd.Series(dtype="int64")})
        out = (df.groupby("fingerprint", sort=False)
               .agg(canonical_url=("url_min", "min"),
                    n_aliases=("c", "sum"))
               .reset_index())
        out["n_aliases"] = out["n_aliases"].astype("int64")
        return out[out["n_aliases"] >= 2].reset_index(drop=True)

    return bucket_exchange(pages.map_batches(partial, batch_format="pyarrow"),
                           ["fingerprint"], fold)


def write_sharded(docs, out_dir: str, num_shards: int = 8,
                  id_col: str = "doc_id"):
    """Resumable-output writer: partition rows by ``id %% num_shards``
    into one Hive-style parquet directory per shard
    (``shard=K/...parquet``) so a failed run can skip finished
    partitions and a reader can prune by shard — the output layout the
    crawl checkpoints already use, exposed as a library stage. Returns
    the written path."""
    def tag(t: pa.Table) -> pa.Table:
        # numpy % already returns values in [0, m) for a positive
        # modulus, even for negative ids (floored mod, unlike C)
        m = np.int64(num_shards)
        v = t[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return t.append_column("shard", pa.array(v % m))

    docs.map_batches(tag, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["shard"])
    return out_dir


def shard_manifest(out_dir: str):
    """Read back a :func:`write_sharded` directory and produce the
    shard manifest ``(shard, n_docs, min_doc, max_doc, n_chars)`` — the
    resume/validation table a restarted job consults before skipping a
    partition. One pruned read (only ``doc_id``/``text`` leave storage)
    + ONE bounded groupby(shard)."""
    import ray.data as rd

    from .joins import group_aggregate

    ds = rd.read_parquet(out_dir, columns=["doc_id", "text", "shard"])

    def narrow(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "shard": t["shard"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(
                pc.fill_null(t["text"].cast(pa.string()), "")),
                pa.int64()),
        })

    return group_aggregate(
        ds.map_batches(narrow, batch_format="pyarrow"), "shard",
        {"n_docs": (None, "count_all"), "min_doc": ("doc_id", "min"),
         "max_doc": ("doc_id", "max"), "n_chars": ("n_chars", "sum")})


def rendezvous_shards(urls, n_old: int = 8, n_new: int = 9,
                      url_col: str = "url"):
    """Rendezvous (highest-random-weight) shard assignment audit —
    the resharding story for the URL-seen filter fleet: modulo
    sharding moves ~(1 - 1/n) of all keys when a shard is added;
    rendezvous hashing (Thaler & Ravishankar '96) moves EXACTLY the
    keys whose argmax shifts to the new shard — expected 1/n_new of
    them — so a 10^10-key fleet can grow without a full rebuild. Per
    URL: the winning shard under ``n_old`` and ``n_new`` shards
    (weight = :func:`sketch.md5_number_lower` of ``url#shard``, all
    ``n_new`` weights of a batch in one call; ties, astronomically
    unlikely, break to the lower shard id) and a ``moved`` flag. Pure
    streaming map, no shuffle; the 1/n_new expected-move invariant is
    what the gate's aggregate over the corpus actually verifies."""
    from .sketch import md5_number_lower

    if not 0 < n_old <= n_new:
        raise ValueError("rendezvous_shards needs 0 < n_old <= n_new")

    def assign(t: pa.Table) -> pa.Table:
        us = t[url_col].to_pylist()
        ws = md5_number_lower(["%s#%d" % (u or "", s)
                               for u in us for s in range(n_new)]) \
            .reshape(len(us), n_new)
        # argmax takes the first maximum: ties go to the lower shard
        old = ws[:, :n_old].argmax(axis=1)
        new = ws.argmax(axis=1)
        return pa.table({
            "url": pa.array(us, type=pa.string()),
            "shard_old": pa.array(old),
            "shard_new": pa.array(new),
            "moved": pa.array(old != new),
        })

    return urls.map_batches(assign, batch_format="pyarrow")


def crawl_budget_allocation(hosts, budget: int,
                            host_col: str = "host",
                            weight_col: str = "weight",
                            prefix_len: int = 2):
    """Proportional per-host crawl-budget split — the planning step
    between host ranking and the next crawl epoch (per-host page quotas
    ∝ host rank are the standard freshness/quality budget policy; cf.
    Cho & Garcia-Molina VLDB'00 on crawl ordering). Given ``(host,
    weight)`` rows, one per host (weight = host-rank micro value, page
    count, or any non-negative integer score; a repeated host raises
    ``ValueError``) and a total page ``budget`` B, emit
    ``(host, weight, budget)`` integer quotas that sum to EXACTLY B.

    Rounding is the cumulative-quota (Webster/jump-point) scheme:
    with hosts in a fixed total order (host ascending) and cumulative
    weight ``C_i``, ``budget_i = floor(C_i*B/W) - floor(C_{i-1}*B/W)``
    — each host gets within 1 page of its exact share ``w_i*B/W``, the
    total telescopes to exactly B, and everything is integer floor-div,
    so the DuckDB oracle reproduces it bit-for-bit. Hosts are assumed
    ASCII (URL authorities are punycode), so byte order == SQL order.

    Scale shape: the same two-pass distributed prefix sum as
    :func:`curate.pack_sequences`, with an ORDER-PRESERVING partition
    key (the key's first ``prefix_len`` bytes — pick it past any prefix
    all keys share): per-bucket weight
    totals via groupby-sum (the driver scans one row per bucket, never
    per host), then one vectorized per-bucket kernel adds the bucket's
    exclusive offset and emits the quota differences. Weights shuffle
    once as (host, int) rows. Integer-range contract (the pagerank
    SCALE convention): ``total_weight * budget`` must stay below 2**63
    — rescale weights down first at the regime where 10^8 hosts of
    10^12 micro-weights meet a 10^10-page budget."""
    import pandas as pd
    import pyarrow.compute as pc

    def key_bucket(t: pa.Table) -> pa.Table:
        h = pc.cast(t[host_col], pa.string())
        w = pc.cast(t[weight_col], pa.int64())
        # order-preserving prefix key (vectorized): bucket(a) <=
        # bucket(b) whenever a <= b, so bucket-ascending +
        # host-ascending within bucket IS the global host order.
        # `prefix_len` must reach past any prefix ALL keys share or the
        # partitioning degenerates to one bucket (host keys: 2 is
        # plenty; URL keys behind a shared 'https://' scheme need the
        # slice to extend past it — see recrawl_budget, prefix_len=4)
        pad = pc.binary_join_element_wise(h, "\x00" * prefix_len, "")
        pref = pc.utf8_slice_codeunits(pad, 0, prefix_len)
        return pa.table({host_col: h, weight_col: w, "__prefix": pref})

    keyed = hosts.map_batches(key_bucket, batch_format="pyarrow") \
        .materialize()

    from .joins import group_aggregate

    per_bucket = group_aggregate(keyed, "__prefix",
                                 {"w": (weight_col, "sum")}).take_all()
    per_bucket.sort(key=lambda r: r["__prefix"])
    offsets = {}
    run = 0
    for r in per_bucket:
        offsets[r["__prefix"]] = run
        run += r["w"]
    total = run
    if total <= 0:
        raise ValueError("crawl_budget_allocation: total weight must be > 0")
    if total * budget >= 2**63:
        raise ValueError(
            "crawl_budget_allocation: total_weight * budget >= 2**63 — "
            "rescale weights (integer floor-div range contract)")

    def alloc(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(host_col, kind="mergesort")
        # all of a host's rows share its prefix bucket, so a duplicate
        # is always visible inside one group
        dup = g[host_col][g[host_col].duplicated()]
        if len(dup):
            raise ValueError("crawl_budget_allocation: duplicate %s %r"
                             % (host_col, dup.iloc[0]))
        w = g[weight_col].to_numpy().astype(np.int64)
        if (w < 0).any():
            raise ValueError("crawl_budget_allocation: negative weight")
        base = offsets[g["__prefix"].iloc[0]]
        cw = base + np.cumsum(w)
        hi = (cw * budget) // total
        lo = ((cw - w) * budget) // total
        return pd.DataFrame({
            host_col: g[host_col].to_numpy(),
            weight_col: w,
            "budget": (hi - lo).astype(np.int64)})

    return keyed.groupby("__prefix").map_groups(alloc,
                                                batch_format="pandas")


class SitemapIndexParse:
    """Per-batch stage: ``<sitemapindex>`` bodies -> one row per child
    ``<sitemap>`` entry: ``(host, sitemap_url, lastmod)`` — the
    recursion step the module docstring promises (index files point at
    sitemaps; feed this stage's output URLs back through the fetcher
    and :class:`SitemapParse`). Entries missing ``<loc>`` drop; missing
    ``<lastmod>`` emits ''. Same budget class as SitemapParse: one DOM
    parse per host-sized body, bodies never shuffle."""

    def __init__(self):
        from ..dom import fromstring_xml

        self._parse = fromstring_xml

    def __call__(self, t: pa.Table) -> pa.Table:
        hosts, urls, mods = [], [], []
        for host, body in zip(t["host"].to_pylist(),
                              t["body"].to_pylist()):
            root = self._parse(body or "")
            for entry in root.xpath("//sitemap"):
                loc = entry.xpath("./loc/text()")
                if not loc:
                    continue
                mod = entry.xpath("./lastmod/text()")
                hosts.append(host)
                urls.append(loc[0])
                mods.append(mod[0] if mod else "")
        return pa.table({
            "host": pa.array(hosts, type=pa.string()),
            "sitemap_url": pa.array(urls, type=pa.string()),
            "lastmod": pa.array(mods, type=pa.string()),
        })


def parse_sitemap_index(indexes, batch_size: int = 32):
    """Task-stage wrapper for :class:`SitemapIndexParse`."""
    return indexes.map_batches(per_task(SitemapIndexParse),
                               batch_size=batch_size, batch_format="pyarrow")
