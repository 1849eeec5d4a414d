"""State hosts: a crawl's long-lived shard state in a few processes.

The crawl's logical sharding is fixed and independent of placement:

* URL-seen filter shard = ``url_hash % n_filter``  (:class:`SeenFilterShard`)
* host gate             = ``host_hash % n_gates``  (:class:`HostGate`)
* priority shard        = ``host_hash % n_prio``   (:class:`PriorityShard`)

Logical shard ``s`` of every kind lives as a plain object on state host
``s % n_hosts``, one ``num_cpus=0`` actor each, so many logical bins map
onto few physical workers while the key -> bin routing never changes (the
Megaphone layout). The driver sizes ``n_hosts`` to the cluster's CPUs, so a
1-CPU session runs one state process, while a large cluster keeps the
shards spread over parallel hosts. Each host also parks the current wave's
candidate blocks for the winner election.

The host processes outlive a crawl: :func:`lease` takes idle hosts of the
current Ray session (starting new ones only for a shortfall) and
:meth:`StateHost.reset` gives each its shards for the new crawl, while
:func:`release` empties them and hands them back. The idle list never holds
more hosts than the cluster has CPUs. Every reset issues a new lease token
that the crawl's calls carry, so a straggling task of an earlier crawl can
neither change nor read a host that has moved on (:class:`StaleLease`).

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
import threading
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

FILTER = "filter"
GATE = "gate"
PRIO = "prio"


def _snapshot_file(path: str, shard: int) -> str:
    return os.path.join(path, f"shard_{shard}.bin")


class StaleLease(RuntimeError):
    """A call made under a lease that a later reset has ended."""


class StateHost:
    """One state process (wrapped in ray.remote by :func:`lease`).

    A new host holds nothing; :meth:`reset` gives it a crawl's shards.
    Every other method takes the lease token that reset returned."""

    def __init__(self):
        self.shards: Dict[str, dict] = {}
        self.cands: dict = {}
        self.lease: Optional[str] = None

    def reset(self, index: int, n_hosts: int, specs: dict) -> str:
        """Drop all state and build the shards of a new crawl: ``specs``
        maps a shard kind to ``(cls, n_logical, kwargs)``, and the host
        builds ``cls(**kwargs)`` for each logical index ``s`` with
        ``s % n_hosts == index``. The classes arrive as arguments, so the
        driver decides at crawl time which implementation runs. Returns
        the new lease token."""
        self.shards = {
            kind: {s: cls(**kwargs) for s in range(index, n, n_hosts)}
            for kind, (cls, n, kwargs) in specs.items()
        }
        self.cands = {}
        self.lease = uuid.uuid4().hex
        return self.lease

    def held(self) -> dict:
        """How much crawl state the host holds: logical shards and parked
        candidate blocks."""
        return {"shards": sum(len(v) for v in self.shards.values()),
                "parked": len(self.cands)}

    def _check(self, lease: str) -> None:
        if lease != self.lease:
            raise StaleLease("this state host was reset after the calling "
                             "crawl leased it")

    def call(self, lease: str, kind: str, method: str, parts: dict) -> dict:
        """``parts`` maps a logical shard to its argument tuple; returns
        {shard: result}."""
        self._check(lease)
        local = self.shards[kind]
        return {s: getattr(local[s], method)(*args)
                for s, args in parts.items()}

    def each(self, lease: str, kinds: Sequence[str], method: str,
             *args) -> dict:
        """Call ``method`` on every local shard of ``kinds``; returns
        {kind: {shard: result}}."""
        self._check(lease)
        return {kind: {s: getattr(obj, method)(*args)
                       for s, obj in self.shards.get(kind, {}).items()}
                for kind in kinds}

    # -- checkpoint -------------------------------------------------------
    def checkpoint(self, lease: str, path: str) -> dict:
        """Write this host's filter shard snapshots into directory
        ``path``, one file per logical shard, and return its gate
        snapshots ({shard: snapshot}); those are small and go into the
        manifest."""
        self._check(lease)
        filters = self.shards.get(FILTER, {})
        if filters:
            os.makedirs(path, exist_ok=True)
        for s, shard in filters.items():
            with open(_snapshot_file(path, s), "wb") as f:
                f.write(shard.snapshot())
        return {s: g.snapshot() for s, g in self.shards.get(GATE, {}).items()}

    def restore(self, lease: str, path: str, gates: dict) -> None:
        """Inverse of :meth:`checkpoint`: read this host's filter shards
        from ``path``; restore the gates named in ``gates``."""
        self._check(lease)
        for s, shard in self.shards.get(FILTER, {}).items():
            with open(_snapshot_file(path, s), "rb") as f:
                shard.restore(f.read())
        for s, gate in self.shards.get(GATE, {}).items():
            if s in gates:
                gate.restore(gates[s])

    # -- current-wave candidate blocks ------------------------------------
    def park(self, lease: str, key, refs: list, n: int) -> None:
        """Keyed add: a retried runner task re-parks under its own
        deterministic key and REPLACES its block, so task retry cannot
        duplicate candidates (the winner election would admit both)."""
        self._check(lease)
        self.cands[key] = (refs, n)

    def drain(self, lease: str) -> Tuple[list, int]:
        self._check(lease)
        blocks, self.cands = self.cands, {}
        refs = [r for (rs, _) in blocks.values() for r in rs]
        return refs, sum(n for _, n in blocks.values())


class StateHosts:
    """Picklable routing table over a crawl's leased state hosts: shipped to
    the runner and election tasks in place of per-shard actor handles."""

    def __init__(self, handles: list, leases: List[str],
                 counts: Dict[str, int]):
        self.handles = list(handles)
        self.leases = list(leases)
        self.counts = dict(counts)

    def n(self, kind: str) -> int:
        """Logical shard count of ``kind`` (0 when the crawl has none)."""
        return self.counts.get(kind, 0)

    def split(self, kind: str, keys) -> Dict[int, np.ndarray]:
        """Group row positions by logical shard: {shard: positions}."""
        shard_of = np.asarray(keys, dtype=np.uint64) % np.uint64(self.n(kind))
        return {int(s): np.nonzero(shard_of == s)[0]
                for s in np.unique(shard_of)}

    def _all(self, method: str, *args) -> list:
        """Call ``method`` on every host (one RPC each); their results."""
        import ray

        return ray.get([getattr(h, method).remote(lease, *args)
                        for h, lease in zip(self.handles, self.leases)])

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
        for res in ray.get([self.handles[h].call.remote(
                self.leases[h], kind, method, p) for h, p in by_host.items()]):
            out.update(res)
        return out

    def each(self, kinds: Sequence[str], method: str, *args) -> dict:
        """Run ``method`` on every logical shard of ``kinds`` with one RPC
        per host; returns {kind: {shard: result}}."""
        out: dict = {kind: {} for kind in kinds}
        for res in self._all("each", kinds, method, *args):
            for kind, part in res.items():
                out[kind].update(part)
        return out

    def checkpoint(self, path: str) -> Dict[int, dict]:
        """Every host writes its filter shards under ``path`` (one RPC per
        host); returns the gate snapshots {gate: snapshot}."""
        gates: Dict[int, dict] = {}
        for part in self._all("checkpoint", path):
            gates.update(part)
        return gates

    def restore(self, path: str, gates: Dict[int, dict]) -> None:
        """Every host restores its shards from ``path`` and ``gates``."""
        self._all("restore", path, gates)

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
        i = int.from_bytes(digest[:8], "little") % len(self.handles)
        host = self.handles[i]
        ref = ray.put(table, _owner=host)
        ray.get(host.park.remote(self.leases[i], (len(rows), digest.hex()),
                                 [ref], table.num_rows))

    def drain(self) -> Tuple[list, int]:
        """Take every host's parked candidate blocks for this wave."""
        refs, n = [], 0
        for r, k in self._all("drain"):
            refs.extend(r)
            n += k
        return refs, n


# this driver process's idle hosts: [Ray session key, handles]
_IDLE: list = [None, []]
_IDLE_LOCK = threading.Lock()


def _session_idle() -> list:
    """The idle list of the current Ray session (a list left from an
    earlier session is dropped: its hosts died with that session). Call
    with ``_IDLE_LOCK`` held."""
    import ray

    ctx = ray.get_runtime_context()
    key = (ctx.get_node_id(), ctx.get_job_id())
    if _IDLE[0] != key:
        _IDLE[:] = [key, []]
    return _IDLE[1]


def idle_hosts() -> list:
    """Handles of the current session's idle state hosts."""
    with _IDLE_LOCK:
        return list(_session_idle())


def lease(n_hosts: int, specs: dict) -> StateHosts:
    """Lease ``n_hosts`` state hosts for one crawl and reset each with its
    logical shards of ``specs`` (see :meth:`StateHost.reset`). Idle hosts
    come first and new ones cover any shortfall; an idle host that died is
    replaced. The reset replies are the readiness check: a runner's
    ``ray.put(_owner=host)`` fails with "actor not alive" if it races the
    actor's launch."""
    import ray
    from ray.exceptions import RayActorError

    host_cls = ray.remote(num_cpus=0)(StateHost)
    with _IDLE_LOCK:
        idle = _session_idle()
        handles = [idle.pop() for _ in range(min(n_hosts, len(idle)))]
    handles += [host_cls.remote() for _ in range(n_hosts - len(handles))]
    futs = [h.reset.remote(i, n_hosts, specs) for i, h in enumerate(handles)]
    leases = []
    for i, fut in enumerate(futs):
        try:
            leases.append(ray.get(fut))
        except RayActorError:
            handles[i] = host_cls.remote()
            leases.append(ray.get(handles[i].reset.remote(i, n_hosts, specs)))
    return StateHosts(handles, leases,
                      {kind: n for kind, (_, n, _) in specs.items()})


def release(state: StateHosts, max_idle: int) -> None:
    """End a crawl's lease: reset its hosts to hold nothing and put them
    back on the idle list, which keeps at most ``max_idle`` hosts; the
    rest stop. A host that died during the crawl is dropped."""
    import ray
    from ray.exceptions import RayActorError

    futs = [h.reset.remote(0, 1, {}) for h in state.handles]
    alive = []
    for h, fut in zip(state.handles, futs):
        try:
            ray.get(fut)
        except RayActorError:
            continue
        alive.append(h)
    with _IDLE_LOCK:
        idle = _session_idle()
        keep = max(0, max_idle - len(idle))
        idle.extend(alive[:keep])
    for h in alive[keep:]:
        ray.kill(h)
