"""Bulk-synchronous (BSP) engine for the iterative graph operators in
:mod:`graph`: PageRank (plain and weighted), HITS, HyperBall and
redirect resolution.

A call starts one zero-CPU shard actor per cluster CPU, loads the input
into them with ONE Dataset sort exchange (each shard receives every row
whose key hashes to it), then runs the whole iteration as
driver-coordinated message rounds between the resident shards, with no
Dataset execution inside the loop. The shards live for that one call: the
result is gathered and the actors are killed before the operator returns.

Exactness: every update is integer arithmetic (sums and maxes of int64,
floor divisions), which no message order can change, so the output is the
same for any shard count. The DuckDB oracles and the serial references in
the tests are the cross-checks.

Partitioning and memory contract: shard ``b`` of ``B`` (``B`` = cluster
CPUs) holds the edges whose KEY (src for pagerank, dst for hyperball)
hashes to ``b`` plus the states of the nodes that hash to ``b``: 32 bytes
per edge (40 weighted, 64 for HITS, which keeps both directions) and 24
bytes per node (``8 * 2**p`` for HyperBall's registers), so per-shard
memory is O((|E| + |V|) / CPUs). A skewed key costs one hot shard.

Shards ask for no CPU: they run short vectorized bursts strictly between
driver barriers, so reserving CPU slots would only starve the load
exchange's Dataset tasks (32 shards x 0.25 CPU once deadlocked an 8-CPU
session against its own groupby load).

A round's message volume is per-dst partial sums or per-src register
maxima (never raw edges), cut into B x B point-to-point objects through
the object store, which is the shuffle a multi-node cluster would do
anyway, minus the per-execution scheduling round-trips.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pyarrow as pa


def _bucket_i64(vals: np.ndarray, num_buckets: int) -> np.ndarray:
    """Shard of each int64 key: a multiply-mix of the key, mod B. The one
    routing hash of this module: loads and messages both use it."""
    with np.errstate(over="ignore"):
        v = np.asarray(vals, dtype=np.int64).astype(np.uint64)
        v = v ^ (v >> np.uint64(33))
        v = v * np.uint64(0xFF51AFD7ED558CCD)
        return (v % np.uint64(num_buckets)).astype(np.int64)


def _bucket_str(vals: np.ndarray, num_buckets: int) -> np.ndarray:
    """Shard of each string key: pandas' fixed-key ``hash_array`` (the
    same in every process), then the int64 mix."""
    import pandas as pd

    h = pd.util.hash_array(np.asarray(vals, dtype=object))
    return _bucket_i64(h.view(np.int64), num_buckets)


def _i64(x) -> pa.Array:
    return pa.array(np.asarray(x, dtype=np.int64))


def int_columns(*names):
    """Load projection for the integer graphs: the named columns as
    int64."""
    return lambda t: pa.table({c: t[c].cast(pa.int64()) for c in names})


@contextmanager
def started(shard_cls, *args):
    """One zero-CPU ``shard_cls(b, B, *args)`` actor per cluster CPU,
    killed when the block exits."""
    import ray

    from ..config import cluster_cpus

    n = cluster_cpus()
    actor = ray.remote(shard_cls).options(num_cpus=0)
    shards = [actor.remote(b, n, *args) for b in range(n)]
    try:
        yield shards
    finally:
        for s in shards:
            ray.kill(s)


def load(edges, shards, loader: str, project, key: str):
    """One sort exchange: ``project`` each batch to the shard's columns,
    tag each row with the shard of its ``key`` column, and push every
    shard's COMPLETE row group into it with ``loader`` (a replace, so a
    retried group task cannot load twice). Returns after the exchange has
    fully executed."""
    B = len(shards)

    def tag(t: pa.Table) -> pa.Table:
        out = project(t)
        k = out[key].to_numpy(zero_copy_only=False)
        bucket = _bucket_i64(k, B) if k.dtype.kind in "iu" \
            else _bucket_str(k, B)
        return out.append_column("__bucket", _i64(bucket))

    def push(g: pa.Table) -> pa.Table:
        import ray

        b = int(g["__bucket"][0].as_py())
        arrays = [g[c].to_numpy(zero_copy_only=False)
                  for c in g.column_names if c != "__bucket"]
        ray.get(getattr(shards[b], loader).remote(*arrays))
        return pa.table({"b": _i64([b])})

    edges.map_batches(tag, batch_format="pyarrow") \
        .groupby("__bucket").map_groups(push, batch_format="pyarrow").count()


def init_nodes(shards, num_nodes: int):
    """Give every shard its slice of the nodes ``0..num_nodes-1``, after
    checking that every loaded edge endpoint is one of them."""
    import ray

    bad = [v for v in ray.get([s.init_nodes.remote(num_nodes)
                               for s in shards]) if v is not None]
    if bad:
        raise ValueError(f"edge endpoint {bad[0]} is not a node id: ids "
                         f"must lie in [0, num_nodes) with "
                         f"num_nodes={num_nodes}")


def exchange(shards, method: str, inbox=None):
    """One all-to-all message round: shard ``b`` runs
    ``method(*inbox[b])`` and returns one part per shard. Entry ``j`` of
    the result lists the parts addressed to shard ``j``, in sender
    order."""
    B = len(shards)
    inbox = inbox or [()] * B
    sent = [s.parts.options(num_returns=B).remote(method, *msgs)
            for s, msgs in zip(shards, inbox)]
    if B == 1:
        sent = [[r] for r in sent]
    return [[row[j] for row in sent] for j in range(B)]


def deliver(shards, method: str, inbox):
    """Shard ``j`` runs ``method(*inbox[j])``; returns the calls' refs."""
    return [getattr(s, method).remote(*msgs)
            for s, msgs in zip(shards, inbox)]


def superstep(shards, *args):
    """Every shard runs ``scatter(*args)``, which returns one part per
    shard, then every shard ``gather``s the parts addressed to it.
    Returns the gather results."""
    import ray

    sent = exchange(shards, "scatter", [args] * len(shards))
    return ray.get(deliver(shards, "gather", sent))


def collect(shards, method: str = "state_table", inbox=None):
    """Gather per-shard output tables into a Dataset. The driver owns
    the returned objects (actor-task returns are caller-owned), so the
    shards can be killed as soon as this returns."""
    import ray
    import ray.data as rd

    refs = deliver(shards, method, inbox or [()] * len(shards))
    ray.wait(refs, num_returns=len(refs))
    return rd.from_arrow_refs(refs)


def _sum_by_key(keys, vals, key_bucket, nb):
    """Per-key sums of ``vals``, one ``(keys, sums)`` part per shard of
    the key."""
    out = []
    for j in range(nb):
        sel = key_bucket == j
        codes, inv = np.unique(keys[sel], return_inverse=True)
        acc = np.zeros(len(codes), dtype=np.int64)
        np.add.at(acc, inv, vals[sel])
        out.append((codes, acc))
    return out


def _sum_into(nodes, parts):
    """Fold ``(keys, sums)`` parts into a vector aligned to ``nodes``."""
    acc = np.zeros(len(nodes), dtype=np.int64)
    for keys, sums in parts:
        np.add.at(acc, np.searchsorted(nodes, keys), sums)
    return acc


class _Shard:
    """Resident partition ``b`` of ``nb``: the edges whose key hashes to
    ``b`` (``src``, ``dst``) and the state of the nodes that hash to
    ``b``, sorted by id."""

    def __init__(self, bucket: int, num_buckets: int):
        self.b = bucket
        self.nb = num_buckets
        self.src = np.empty(0, dtype=np.int64)
        self.dst = np.empty(0, dtype=np.int64)
        self.nodes = np.empty(0, dtype=np.int64)

    def parts(self, method: str, *args):
        """Run a method that returns one part per shard, as the
        ``num_returns=nb`` return value of an actor call."""
        out = getattr(self, method)(*args)
        return tuple(out) if len(out) > 1 else out[0]

    def init_nodes(self, num_nodes: int):
        """Return an edge endpoint outside ``[0, num_nodes)`` if there is
        one; otherwise take this shard's nodes and initialise them."""
        ends = np.concatenate([self.src, self.dst])
        bad = ends[(ends < 0) | (ends >= num_nodes)]
        if len(bad):
            return int(bad[0])
        ids = np.arange(num_nodes, dtype=np.int64)
        self.nodes = ids[_bucket_i64(ids, self.nb) == self.b]
        self.init_state()
        return None


# ---------------------------------------------------------------- pagerank


class PRShard(_Shard):
    """Integer fixed-point PageRank, plain or weighted. Edges are keyed
    by src: all out-edges of a resident node live here, so out-degree /
    out-weight never moves."""

    def __init__(self, bucket: int, num_buckets: int, scale: int,
                 damping_permille: int, weighted: bool):
        super().__init__(bucket, num_buckets)
        self.scale = scale
        self.d = int(damping_permille)
        self.base = (1000 - self.d) * scale // 1000
        # unweighted: every edge weighs 1, so W is the out-degree
        self.w = np.empty(0, dtype=np.int64) if weighted else None

    def set_edges(self, src, dst, w=None):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if w is not None:
            self.w = np.asarray(w, dtype=np.int64)

    def init_state(self):
        self.dst_bucket = _bucket_i64(self.dst, self.nb)
        self.rank = np.full(len(self.nodes), self.scale, dtype=np.int64)
        self.pos = np.searchsorted(self.nodes, self.src)
        self.deg = np.zeros(len(self.nodes), dtype=np.int64)
        np.add.at(self.deg, self.pos, 1 if self.w is None else self.w)

    def weight_guard(self):
        return (int(self.w.max()) if len(self.w) else 0,
                int(self.deg.max()) if len(self.deg) else 0)

    def scatter(self):
        """Per-dst partial contribution sums, one part per dst shard."""
        r = self.rank[self.pos]
        W = self.deg[self.pos]
        Ws = np.maximum(W, 1)
        if self.w is None:
            c_e = r // Ws
        else:
            # exact int64 split of r*w//W (no 128-bit): r = qW + s
            c_e = (r // Ws) * self.w + ((r % Ws) * self.w) // Ws
        c_e = np.where(W > 0, c_e, 0)
        return _sum_by_key(self.dst, c_e, self.dst_bucket, self.nb)

    def gather(self, *parts):
        acc = _sum_into(self.nodes, parts)
        self.rank = self.base + (acc * np.int64(self.d)) // np.int64(1000)

    def state_table(self) -> pa.Table:
        return pa.table({"node": _i64(self.nodes), "rank": _i64(self.rank)})


# ---------------------------------------------------------------------- hits


class HITSShard(_Shard):
    """Integer fixed-point HITS: BOTH edge copies (``src``/``dst`` keyed
    by src for the authority step, ``d_src``/``d_dst`` keyed by dst for
    the hub step) plus the shard's (h, a) node states. Max-normalization
    is one scalar max per half-step, reduced on the driver."""

    def __init__(self, bucket: int, num_buckets: int, scale: int):
        super().__init__(bucket, num_buckets)
        self.scale = np.int64(scale)
        self.d_src = np.empty(0, dtype=np.int64)
        self.d_dst = np.empty(0, dtype=np.int64)

    def set_edges_src(self, src, dst):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)

    def set_edges_dst(self, src, dst):
        self.d_src = np.asarray(src, dtype=np.int64)
        self.d_dst = np.asarray(dst, dtype=np.int64)

    def init_state(self):
        self.h = np.full(len(self.nodes), self.scale, dtype=np.int64)
        self.a = np.full(len(self.nodes), self.scale, dtype=np.int64)
        # authority: h flows src -> dst over src-resident edges; hub: the
        # NEW a flows dst -> src over dst-resident edges
        self.flows = {
            "a": (np.searchsorted(self.nodes, self.src), self.dst,
                  _bucket_i64(self.dst, self.nb), "h"),
            "h": (np.searchsorted(self.nodes, self.d_dst), self.d_src,
                  _bucket_i64(self.d_src, self.nb), "a"),
        }

    def scatter(self, which: str):
        pos, to, to_bucket, frm = self.flows[which]
        return _sum_by_key(to, getattr(self, frm)[pos], to_bucket, self.nb)

    def gather(self, *parts):
        self.raw = _sum_into(self.nodes, parts)
        return int(self.raw.max()) if len(self.raw) else 0

    def normalize(self, which: str, gmax: int):
        if gmax > 0:
            newv = self.raw * self.scale // np.int64(gmax)
        else:
            newv = np.zeros(len(self.raw), dtype=np.int64)
        setattr(self, which, newv)

    def state_table(self) -> pa.Table:
        return pa.table({"node": _i64(self.nodes), "hub": _i64(self.h),
                         "auth": _i64(self.a)})


# ----------------------------------------------------------------- hyperball


class HBShard(_Shard):
    """HyperBall: edges keyed by dst (the PULL direction: src pulls
    dst's registers) and the DENSE m-register rows of the resident
    nodes. Register unions are elementwise maxes, so the digest does not
    depend on message order."""

    def __init__(self, bucket: int, num_buckets: int, p: int):
        super().__init__(bucket, num_buckets)
        self.m = 1 << p
        self.wbits = 64 - p

    def set_edges(self, src, dst):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)

    def init_state(self):
        from .sketch import md5_number_lower

        self.src_bucket = _bucket_i64(self.src, self.nb)
        self.regs = np.zeros((len(self.nodes), self.m), dtype=np.int64)
        self.pos = np.searchsorted(self.nodes, self.dst)
        if len(self.nodes) == 0:
            return
        h = md5_number_lower([str(int(v)) for v in self.nodes])
        bkt = (h >> np.uint64(self.wbits)).astype(np.int64)
        w = (h & np.uint64((1 << self.wbits) - 1)).astype(np.int64)
        rho = np.full(len(w), self.wbits + 1, dtype=np.int64)
        nz = w > 0
        if nz.any():
            e = np.frexp(w[nz].astype(np.float64))[1].astype(np.int64)
            # integer boundary correction: 2^(e-1) <= w < 2^e exactly
            e = np.where((np.int64(1) << np.minimum(e, 62)) <= w[nz],
                         e + 1, e)
            e = np.where((np.int64(1) << np.maximum(e - 1, 0)) > w[nz],
                         e - 1, e)
            rho[nz] = self.wbits - (e - 1)
        self.regs[np.arange(len(self.nodes)), bkt] = rho

    def scatter(self):
        """Per-src register maxima over the resident edges, one part per
        src shard."""
        dreg = self.regs[self.pos]
        out = []
        for j in range(self.nb):
            sel = self.src_bucket == j
            codes, inv = np.unique(self.src[sel], return_inverse=True)
            acc = np.zeros((len(codes), self.m), dtype=np.int64)
            np.maximum.at(acc, inv, dreg[sel])
            out.append((codes, acc))
        return out

    def gather(self, *parts):
        for keys, regs in parts:
            np.maximum.at(self.regs, np.searchsorted(self.nodes, keys), regs)

    def digest_table(self) -> pa.Table:
        v_zero = (self.regs == 0).sum(axis=1).astype(np.int64)
        sum_r = self.regs.sum(axis=1).astype(np.int64)
        return pa.table({"node": _i64(self.nodes), "v_zero": _i64(v_zero),
                         "sum_r": _i64(sum_r)})


# ----------------------------------------------------- redirect resolution


class RDShard(_Shard):
    """Pointer-doubling state rows ``(src, cur, hops)`` whose src hashes
    to this shard, which is exactly this shard's slice of the
    src -> state lookup map: the map side of every doubling round is
    resident by construction."""

    def __init__(self, bucket: int, num_buckets: int):
        super().__init__(bucket, num_buckets)
        self.set_state(np.empty(0, dtype=object), np.empty(0, dtype=object))

    def set_state(self, src, cur):
        import pandas as pd

        self.src = np.asarray(src, dtype=object)
        self.cur = np.asarray(cur, dtype=object)
        self.hops = np.ones(len(self.src), dtype=np.int64)
        self.index = pd.Index(self.src)

    def duplicate_src(self):
        """A src with more than one row, or None."""
        dup = self.index[self.index.duplicated()]
        return dup[0] if len(dup) else None

    def queries(self):
        """Unique cur values, one part per shard of the value; remembers
        the inverse mapping for apply() and finish()."""
        uniq, self.q_inv = np.unique(self.cur, return_inverse=True)
        self.q_bucket = _bucket_str(uniq, self.nb)
        return [uniq[self.q_bucket == j] for j in range(self.nb)]

    def answer(self, *keys_by_shard):
        """``(found, next, hops)`` for every key each shard asked about,
        looked up in the resident map before this round's apply (the
        apply depends on this call's output, so it runs after it)."""
        out = []
        for keys in keys_by_shard:
            pos = self.index.get_indexer(np.asarray(keys, dtype=object))
            found = pos >= 0
            nxt = np.full(len(pos), None, dtype=object)
            nxt[found] = self.cur[pos[found]]
            h2 = np.zeros(len(pos), dtype=np.int64)
            h2[found] = self.hops[pos[found]]
            out.append((found, nxt, h2))
        return out

    def exists(self, *keys_by_shard):
        return [self.index.get_indexer(np.asarray(k, dtype=object)) >= 0
                for k in keys_by_shard]

    def _per_row(self, replies, dtype):
        """Spread per-shard replies (aligned to the query parts) back onto
        this shard's rows."""
        u = np.empty(len(self.q_bucket), dtype=dtype)
        for j, vals in enumerate(replies):
            u[self.q_bucket == j] = vals
        return u[self.q_inv]

    def apply(self, *answers):
        found = self._per_row([a[0] for a in answers], bool)
        nxt = self._per_row([a[1] for a in answers], object)
        h2 = self._per_row([a[2] for a in answers], np.int64)
        self.cur = np.where(found, nxt, self.cur)
        self.hops = self.hops + np.where(found, h2, 0)

    def finish(self, *cyc_answers) -> pa.Table:
        cyc = self._per_row(cyc_answers, bool)
        return pa.table({
            "src_url": pa.array(self.src.tolist(), type=pa.string()),
            "final_url": pa.array(np.where(cyc, "", self.cur).tolist(),
                                  type=pa.string()),
            "hops": _i64(np.where(cyc, -1, self.hops)),
            "is_cycle": pa.array(cyc.tolist(), type=pa.bool_()),
        })
