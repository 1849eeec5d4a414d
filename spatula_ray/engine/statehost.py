"""State hosts: a crawl's long-lived shard state in a few processes.

The crawl's logical sharding is fixed and independent of placement:

* URL-seen filter shard = ``url_hash % n_filter``  (:class:`SeenFilterShard`)
* host gate             = ``host_hash % n_gates``  (:class:`HostGate`)
* priority shard        = ``host_hash % n_prio``   (:class:`PriorityShard`)

Logical shard ``s`` of every kind lives as a plain object on state host
``s % n_hosts``, one ``num_cpus=0`` actor each, so many logical bins map
onto few physical workers while the key -> bin routing never changes (the
Megaphone layout). The driver sizes ``n_hosts`` to the cluster's CPUs:
a 1-CPU session starts one state process per crawl instead of one per
shard, while a large cluster keeps the shards spread over parallel hosts.
Each host also parks the current wave's candidate blocks for the winner
election.

Every call site groups its per-shard slices by host and makes one RPC per
host (:meth:`StateHosts.call`); the per-shard results come back keyed by
logical shard, so callers see the same answers as with one actor per
shard. Checkpoints keep one file per logical filter shard, which each host
writes and reads itself (:meth:`StateHost.checkpoint`), so the filter
tables never pass through the driver.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

FILTER = "filter"
GATE = "gate"
PRIO = "prio"


def _snapshot_file(path: str, shard: int) -> str:
    return os.path.join(path, f"shard_{shard}.bin")


class StateHost:
    """One state process (wrapped in ray.remote by the driver).

    ``specs`` maps a shard kind to ``(cls, n_logical, kwargs)``; the host
    builds ``cls(**kwargs)`` for each logical index ``s`` with
    ``s % n_hosts == index``. The classes arrive as arguments, so the
    driver decides at crawl time which implementation runs."""

    def __init__(self, index: int, n_hosts: int, specs: dict):
        self.shards: Dict[str, dict] = {
            kind: {s: cls(**kwargs) for s in range(index, n, n_hosts)}
            for kind, (cls, n, kwargs) in specs.items()
        }
        self.cands: dict = {}

    def call(self, kind: str, method: str, parts: dict) -> dict:
        """``parts`` maps a logical shard to its argument tuple; returns
        {shard: result}."""
        local = self.shards[kind]
        return {s: getattr(local[s], method)(*args)
                for s, args in parts.items()}

    def each(self, kinds: Sequence[str], method: str, *args) -> dict:
        """Call ``method`` on every local shard of ``kinds``; returns
        {kind: {shard: result}}."""
        return {kind: {s: getattr(obj, method)(*args)
                       for s, obj in self.shards.get(kind, {}).items()}
                for kind in kinds}

    # -- checkpoint -------------------------------------------------------
    def checkpoint(self, path: str) -> dict:
        """Write this host's filter shard snapshots into directory
        ``path``, one file per logical shard, and return its gate
        snapshots ({shard: snapshot}); those are small and go into the
        manifest."""
        filters = self.shards.get(FILTER, {})
        if filters:
            os.makedirs(path, exist_ok=True)
        for s, shard in filters.items():
            with open(_snapshot_file(path, s), "wb") as f:
                f.write(shard.snapshot())
        return {s: g.snapshot() for s, g in self.shards.get(GATE, {}).items()}

    def restore(self, path: str, gates: dict) -> None:
        """Inverse of :meth:`checkpoint`: read this host's filter shards
        from ``path``; restore the gates named in ``gates``."""
        for s, shard in self.shards.get(FILTER, {}).items():
            with open(_snapshot_file(path, s), "rb") as f:
                shard.restore(f.read())
        for s, gate in self.shards.get(GATE, {}).items():
            if s in gates:
                gate.restore(gates[s])

    # -- current-wave candidate blocks ------------------------------------
    def park(self, key, refs: list, n: int) -> None:
        """Keyed add: a retried runner task re-parks under its own
        deterministic key and REPLACES its block, so task retry cannot
        duplicate candidates (the winner election would admit both)."""
        self.cands[key] = (refs, n)

    def drain(self) -> Tuple[list, int]:
        blocks, self.cands = self.cands, {}
        refs = [r for (rs, _) in blocks.values() for r in rs]
        return refs, sum(n for _, n in blocks.values())


class StateHosts:
    """Picklable routing table over a crawl's state hosts: shipped to the
    runner and election tasks in place of per-shard actor handles."""

    def __init__(self, handles: list, counts: Dict[str, int]):
        self.handles = list(handles)
        self.counts = dict(counts)

    def n(self, kind: str) -> int:
        """Logical shard count of ``kind`` (0 when the crawl has none)."""
        return self.counts.get(kind, 0)

    def split(self, kind: str, keys) -> Dict[int, np.ndarray]:
        """Group row positions by logical shard: {shard: positions}."""
        shard_of = np.asarray(keys, dtype=np.uint64) % np.uint64(self.n(kind))
        return {int(s): np.nonzero(shard_of == s)[0]
                for s in np.unique(shard_of)}

    def call(self, kind: str, method: str, parts: dict) -> dict:
        """Run ``method`` on the logical shards named in ``parts``
        ({shard: args}) with one RPC per host; returns {shard: result}."""
        import ray

        if not parts:
            return {}
        by_host: Dict[int, dict] = {}
        for s, args in parts.items():
            by_host.setdefault(s % len(self.handles), {})[s] = args
        out: dict = {}
        for res in ray.get([self.handles[h].call.remote(kind, method, p)
                            for h, p in by_host.items()]):
            out.update(res)
        return out

    def each(self, kinds: Sequence[str], method: str, *args) -> dict:
        """Run ``method`` on every logical shard of ``kinds`` with one RPC
        per host; returns {kind: {shard: result}}."""
        import ray

        out: dict = {kind: {} for kind in kinds}
        for res in ray.get([h.each.remote(kinds, method, *args)
                            for h in self.handles]):
            for kind, part in res.items():
                out[kind].update(part)
        return out

    def checkpoint(self, path: str) -> Dict[int, dict]:
        """Every host writes its filter shards under ``path`` (one RPC per
        host); returns the gate snapshots {gate: snapshot}."""
        import ray

        gates: Dict[int, dict] = {}
        for part in ray.get([h.checkpoint.remote(path)
                             for h in self.handles]):
            gates.update(part)
        return gates

    def restore(self, path: str, gates: Dict[int, dict]) -> None:
        """Every host restores its shards from ``path`` and ``gates``."""
        import ray

        ray.get([h.restore.remote(path, gates) for h in self.handles])

    def park(self, rows: List[dict], table) -> None:
        """Park a runner batch's candidate rows on one host. The key is a
        deterministic digest of the rows' (url_hash, order_bytes)
        identity, so a RETRIED task (worker death mid-batch) replaces its
        own block instead of double-parking: duplicated candidates would
        both pass the winner election and fetch twice. hashlib, not
        hash(): Python's str/bytes hash is per-process salted and a retry
        lands in a new worker. The host owns the block, so it outlives
        the runner task's worker."""
        import ray

        h = hashlib.blake2b(digest_size=16)
        for r in rows:
            h.update(int(r.get("url_hash") or 0).to_bytes(8, "little"))
            h.update(r.get("order_bytes") or b"")
        digest = h.digest()
        host = self.handles[int.from_bytes(digest[:8], "little")
                            % len(self.handles)]
        ref = ray.put(table, _owner=host)
        ray.get(host.park.remote((len(rows), digest.hex()), [ref],
                                 table.num_rows))

    def drain(self) -> Tuple[list, int]:
        """Take every host's parked candidate blocks for this wave."""
        import ray

        refs, n = [], 0
        for r, k in ray.get([h.drain.remote() for h in self.handles]):
            refs.extend(r)
            n += k
        return refs, n
