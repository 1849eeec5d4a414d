"""Sharded per-host priority election (shards held by the state hosts).

Mirrors the URL-seen filter's two-phase offer/commit/query protocol
(round-2 verdict fix #4 — the former ``_priority_select`` pulled every
deferred order key to the driver with ``take_all()`` and broadcast the
set): each wave, raw offer tasks *offer* the frontier's narrow
(host_hash, priority, order_bytes, fetchable) projections to the shard
owning ``host_hash % n_shards``; the driver then calls *seal(k)* on every
shard, which elects per host the top-k fetchable rows by
(priority, order_bytes) — identical ordering to the reference's
deterministic queue — and records the losers; the *query* pass then asks
each shard for its rows' defer verdicts. The shards are plain objects on
the crawl's state-host actors (:mod:`.statehost`), shard ``s`` on host
``s % n_hosts``, so each pass costs one RPC per host. Deferred keys never
leave the shards, so driver memory stays O(1) regardless of frontier
size; per-shard memory is bounded by that wave's frontier share, exactly
like the seen filter's per-wave candidate map.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


class PriorityShard:
    def __init__(self):
        self.offers: Dict[int, list] = {}
        self.deferred: set = set()

    def begin_wave(self) -> None:
        self.offers.clear()
        self.deferred = set()

    def offer(self, host_hashes: Sequence[int], priorities: Sequence[int],
              orders: Sequence[bytes], fetchable: Sequence[bool]) -> int:
        for h, p, o, f in zip(host_hashes, priorities, orders, fetchable):
            self.offers.setdefault(int(h), []).append((int(p), o, bool(f)))
        return len(orders)

    def seal(self, k: int) -> int:
        """Elect per host: sort by (priority, order_bytes) — deterministic
        regardless of offer arrival order — and defer every fetchable row
        past the k-th fetchable one. Non-fetchable (null-source) rows are
        never deferred."""
        deferred = set()
        for rows in self.offers.values():
            rows.sort(key=lambda r: (r[0], r[1]))
            n_fetchable = 0
            for _p, o, f in rows:
                if f:
                    n_fetchable += 1
                    if n_fetchable > k:
                        deferred.add(o)
        self.deferred = deferred
        self.offers.clear()
        return len(deferred)

    def query(self, orders: Sequence[bytes]) -> List[bool]:
        """True = deferred to the next wave."""
        return [o in self.deferred for o in orders]
