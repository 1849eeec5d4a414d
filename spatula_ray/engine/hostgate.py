"""Per-host politeness / robots gate, sharded by ``host_hash``.

The reference throttles globally (scrapelib ``requests_per_minute``,
``cli.py:79-84``) and has no robots handling; the north rule requires
per-host politeness + robots as engine extensions. Each gate shard owns a
disjoint set of hosts (shard = ``host_hash % n_gates``), so a hot host's
admission decisions serialize on exactly one shard while other hosts
proceed — the skew containment is the partitioning itself. The shards are
plain objects on the crawl's state-host actors (:mod:`.statehost`), gate
``g`` on host ``g % n_hosts``; their state is saved with every checkpoint
and restored on resume.

Admission codes: 0 = allow, 1 = defer (per-host wave quota exhausted; the
row re-enters the next wave), 2 = robots-denied (dropped + counted).
Budgets are wave quotas — deterministic and time-free, so politeness-budget
conformance runs don't depend on wall clock. An optional ``min_delay_ms``
converts crawl-delay into an *allowance per wave* (wave_seconds /
crawl_delay) rather than sleeping.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence


class RobotsRules:
    def __init__(self, disallow: Sequence[str] = (), crawl_delay_ms: int = 0):
        self.disallow = list(disallow)
        self.crawl_delay_ms = crawl_delay_ms

    def allowed(self, path: str) -> bool:
        return not any(path.startswith(p) for p in self.disallow if p)


class HostGate:
    """One politeness shard (held by a state host)."""

    def __init__(self, robots: Optional[Dict[str, dict]] = None,
                 per_host_wave_quota: Optional[int] = None,
                 enforce_crawl_delay: bool = False):
        self.rules: Dict[str, RobotsRules] = {
            host: RobotsRules(r.get("disallow", ()), r.get("crawl_delay_ms", 0))
            for host, r in (robots or {}).items()
        }
        self.quota = per_host_wave_quota
        # real-time crawl-delay enforcement (robots Crawl-delay): admits at
        # most one fetch per host per delay window, defers the rest. Off by
        # default so tests/bench stay wall-clock-free.
        self.enforce_crawl_delay = enforce_crawl_delay
        self._last_fetch: Dict[str, float] = {}
        self.wave_used: Counter = Counter()
        self.fetched: Counter = Counter()
        self.denied = 0
        self.deferred = 0

    def begin_wave(self) -> None:
        self.wave_used.clear()

    def admit(self, hosts: Sequence[str], paths: Sequence[str]) -> List[int]:
        import time as _time

        out = []
        for host, path in zip(hosts, paths):
            rules = self.rules.get(host)
            if rules is not None and not rules.allowed(path):
                self.denied += 1
                out.append(2)
                continue
            if self.quota is not None and self.wave_used[host] >= self.quota:
                self.deferred += 1
                out.append(1)
                continue
            if (self.enforce_crawl_delay and rules is not None
                    and rules.crawl_delay_ms):
                now = _time.monotonic()
                delay = rules.crawl_delay_ms / 1000.0
                if now - self._last_fetch.get(host, -delay) < delay:
                    self.deferred += 1
                    out.append(1)
                    continue
                self._last_fetch[host] = now
            self.wave_used[host] += 1
            self.fetched[host] += 1
            out.append(0)
        return out

    def stats(self) -> dict:
        return {
            "robots_denied": self.denied,
            "deferred": self.deferred,
            "hosts": len(self.fetched),
            "fetched": sum(self.fetched.values()),
        }

    def snapshot(self) -> dict:
        return {"fetched": dict(self.fetched), "denied": self.denied,
                "deferred": self.deferred}

    def restore(self, state: dict) -> None:
        self.fetched = Counter(state.get("fetched", {}))
        self.denied = state.get("denied", 0)
        self.deferred = state.get("deferred", 0)
