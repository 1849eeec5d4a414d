"""Cuckoo-filter URL-seen set, sharded by ``url_hash``.

Design (SURVEY.md §2.7 D3 / §4.3): N logical shards, shard =
``url_hash % N``, held as plain objects on the crawl's state-host actors
(:mod:`.statehost`); the frontier-expansion stage batches candidate hashes
to the owning shard, one RPC per host.
Dedup must be *deterministic* under parallel execution, so each wave runs a
two-phase protocol per shard:

1. ``offer(hashes, order_bytes)`` — accumulate the minimum order key per
   unseen hash (racing batches commute: min is associative).
2. ``commit()`` — winners enter the permanent filter; then
3. ``query(hashes, order_bytes)`` — True exactly for the winning
   (hash, order) pair, so precisely one frontier row per canonical URL
   survives, and it is always the lineage-smallest one (earlier wave always
   wins because its hash is already in the permanent filter).

The cuckoo filter proper is a standard 16-bit-fingerprint, 4-slot-bucket,
partial-key cuckoo table with a deterministic kick sequence and an exact
overflow stash, so membership has bounded false positives and **zero false
negatives** (a false positive drops a never-seen URL — rate is configurable
via capacity; conformance tests run ``mode="exact"`` or verify fp=0).
Shards snapshot to bytes for checkpointing; a filter's snapshot holds only
its non-empty buckets, so its size follows the filter's contents, not its
capacity.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Sequence

import numpy as np

_MIX = 0x5BD1E995


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class CuckooFilter:
    def __init__(self, capacity: int = 1 << 20, bucket_size: int = 4,
                 max_kicks: int = 500):
        nb = _next_pow2(max(16, int(capacity / bucket_size / 0.95) + 1))
        self.nbuckets = nb
        self.bucket_size = bucket_size
        self.max_kicks = max_kicks
        self.table = np.zeros((nb, bucket_size), dtype=np.uint16)
        self.stash: set = set()
        self.count = 0

    def _fp(self, h: int) -> int:
        fp = (h >> 48) & 0xFFFF
        return fp or 1

    def _indexes(self, h: int, fp: int):
        i1 = h & (self.nbuckets - 1)
        i2 = (i1 ^ (fp * _MIX)) & (self.nbuckets - 1)
        return i1, i2

    def contains(self, h: int) -> bool:
        fp = self._fp(h)
        i1, i2 = self._indexes(h, fp)
        row1 = self.table[i1]
        row2 = self.table[i2]
        return bool((row1 == fp).any() or (row2 == fp).any()) or h in self.stash

    def contains_many(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized membership for a uint64 array."""
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        h = hashes.astype(np.uint64, copy=False)
        fp = ((h >> np.uint64(48)) & np.uint64(0xFFFF)).astype(np.uint16)
        fp[fp == 0] = 1
        mask = np.uint64(self.nbuckets - 1)
        i1 = (h & mask).astype(np.int64)
        i2 = ((i1.astype(np.uint64) ^ (fp.astype(np.uint64) * np.uint64(_MIX))) & mask).astype(np.int64)
        hit = (self.table[i1] == fp[:, None]).any(axis=1)
        hit |= (self.table[i2] == fp[:, None]).any(axis=1)
        if self.stash:
            stash_hit = np.fromiter((int(x) in self.stash for x in h), dtype=bool,
                                    count=len(h))
            hit |= stash_hit
        return hit

    def insert(self, h: int) -> None:
        """Insert (caller has checked contains); deterministic kick path."""
        fp = self._fp(h)
        i1, i2 = self._indexes(h, fp)
        for i in (i1, i2):
            row = self.table[i]
            empty = np.where(row == 0)[0]
            if len(empty):
                row[empty[0]] = fp
                self.count += 1
                return
        # kick loop; record writes so a failed chain can be rolled back
        # (otherwise the final displaced fingerprint would be dropped — a
        # false negative, which this filter must never produce)
        i = i1
        cur = fp
        path = []
        for kick in range(self.max_kicks):
            slot = (cur + kick) % self.bucket_size
            displaced = int(self.table[i][slot])
            self.table[i][slot] = cur
            path.append((i, slot, displaced))
            cur = displaced
            i = (i ^ (cur * _MIX)) & (self.nbuckets - 1)
            row = self.table[i]
            empty = np.where(row == 0)[0]
            if len(empty):
                row[empty[0]] = cur
                self.count += 1
                return
        for bi, slot, displaced in reversed(path):
            self.table[bi][slot] = displaced
        # table effectively full: exact stash keeps zero false negatives
        self.stash.add(h)
        self.count += 1

    def _occupied(self) -> np.ndarray:
        """Indices of the non-empty buckets. A bucket of 4 uint16 slots
        is one uint64 word, and a word scan is ~7x faster than
        ``any(axis=1)`` on a 1M-bucket table."""
        row_bytes = self.table.shape[1] * self.table.itemsize
        if row_bytes in (1, 2, 4, 8) and self.table.flags.c_contiguous:
            return np.flatnonzero(self.table.view(f"u{row_bytes}").ravel())
        return np.flatnonzero(self.table.any(axis=1))

    def snapshot(self) -> bytes:
        """Sparse: only the non-empty buckets (indices and rows) and the
        stash, so a lightly loaded filter snapshots in proportion to its
        contents, not its capacity."""
        idx = self._occupied()
        return pickle.dumps({
            "nbuckets": self.nbuckets, "idx": idx, "rows": self.table[idx],
            "stash": self.stash, "count": self.count,
            "bucket_size": self.bucket_size, "max_kicks": self.max_kicks,
        })

    @classmethod
    def restore(cls, data: bytes) -> "CuckooFilter":
        d = pickle.loads(data)
        f = cls.__new__(cls)
        f.nbuckets = d["nbuckets"]
        f.bucket_size = d["bucket_size"]
        f.table = np.zeros((f.nbuckets, f.bucket_size), dtype=np.uint16)
        f.table[d["idx"]] = d["rows"]
        f.max_kicks = d["max_kicks"]
        f.stash = d["stash"]
        f.count = d["count"]
        return f


class SeenFilterShard:
    """One logical shard of the URL-seen set (held by a state host).

    mode="cuckoo": approximate membership w/ exact per-wave winner maps.
    mode="exact": python-set shadow for conformance testing.
    """

    def __init__(self, mode: str = "cuckoo", capacity: int = 1 << 20):
        self.mode = mode
        self.exact: Optional[set] = set() if mode == "exact" else None
        self.cuckoo: Optional[CuckooFilter] = (
            CuckooFilter(capacity) if mode == "cuckoo" else None
        )
        self.wave_cands: Dict[int, bytes] = {}
        self.winners: Dict[int, bytes] = {}
        self.seen_dropped = 0
        self.query_dropped = 0
        self.inserted = 0

    # -- wave protocol -----------------------------------------------------
    def begin_wave(self) -> None:
        # winners persist: wave N+1's runner queries them while offering its
        # own new candidates into wave_cands (commit() replaces winners)
        self.wave_cands.clear()

    def offer(self, hashes: Sequence[int], orders: Sequence[bytes]) -> int:
        """Drops here are NOT counted in stats — a dropped candidate row
        still reaches the next wave's query, which counts it exactly once."""
        dropped = 0
        if self.mode == "cuckoo" and len(hashes):
            seen_mask = self.cuckoo.contains_many(np.asarray(hashes, dtype=np.uint64))
        else:
            seen_mask = None
        for idx, (h, o) in enumerate(zip(hashes, orders)):
            h = int(h)
            if seen_mask is not None:
                seen = bool(seen_mask[idx])
            else:
                seen = h in self.exact
            if seen:
                dropped += 1
                continue
            cur = self.wave_cands.get(h)
            if cur is None or o < cur:
                self.wave_cands[h] = o
        return dropped

    def commit(self) -> int:
        n = 0
        self.winners = {}
        for h, o in self.wave_cands.items():
            # re-check membership: a mid-wave claim() (inline pagination)
            # may have taken this hash after it was offered
            if self.mode == "cuckoo":
                if self.cuckoo.contains(h):
                    continue  # mid-wave claim took it; query will count it
                self.cuckoo.insert(h)
            else:
                if h in self.exact:
                    continue
                self.exact.add(h)
            self.winners[h] = o
            n += 1
        self.inserted += n
        self.wave_cands.clear()
        return n

    def query(self, hashes: Sequence[int], orders: Sequence[bytes]) -> List[bool]:
        out = [self.winners.get(int(h)) == o for h, o in zip(hashes, orders)]
        self.query_dropped += out.count(False)
        return out

    def claim(self, h: int, order: bytes) -> bool:
        """Atomic contains-or-insert for inline pagination chains: a chain
        successor is unique to its chain by construction, so it bypasses the
        per-wave min-order protocol. Returns True exactly once per hash."""
        h = int(h)
        if self.mode == "cuckoo":
            if self.cuckoo.contains(h):
                self.seen_dropped += 1
                return False
            self.cuckoo.insert(h)
        else:
            if h in self.exact:
                self.seen_dropped += 1
                return False
            self.exact.add(h)
        self.inserted += 1
        return True

    # -- checkpoint / introspection ---------------------------------------
    def snapshot(self) -> bytes:
        # winners are part of the checkpoint: the persisted frontier holds
        # candidates that the next wave's runner still has to query
        state = {"mode": self.mode, "seen_dropped": self.seen_dropped,
                 "query_dropped": self.query_dropped,
                 "inserted": self.inserted, "winners": self.winners}
        if self.mode == "cuckoo":
            state["cuckoo"] = self.cuckoo.snapshot()
        else:
            state["exact"] = self.exact
        return pickle.dumps(state)

    def restore(self, data: bytes) -> None:
        state = pickle.loads(data)
        self.mode = state["mode"]
        self.seen_dropped = state["seen_dropped"]
        self.query_dropped = state.get("query_dropped", 0)
        self.inserted = state["inserted"]
        self.winners = state.get("winners", {})
        if self.mode == "cuckoo":
            self.cuckoo = CuckooFilter.restore(state["cuckoo"])
            self.exact = None
        else:
            self.exact = state["exact"]
            self.cuckoo = None

    def stats(self) -> dict:
        return {"inserted": self.inserted,
                "seen_dropped": self.seen_dropped + self.query_dropped}
