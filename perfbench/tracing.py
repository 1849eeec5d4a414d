"""Per-layer timers wrapped around the program's public functions and actor
methods from outside; nothing in ``spatula_ray`` changes.

:func:`install` wraps, in the process that calls it (every worker of a
traced session, through :mod:`perfbench.traced`):

* ``PageRunner.__call__`` (``pagerun.busy_s``, ``pagerun.pages``) and the
  module-level ``frontier_row_from_page`` the runner calls;
* the page steps inside the runner: ``fromstring_html`` as bound in
  ``spatula_ray.model``, ``Element.xpath``, ``HtmlPage.to_spans``,
  ``SyntheticClient.request`` and the fixture resolvers' ``__call__``;
* the actor methods of ``SeenFilterShard``, ``HostGate`` and
  ``PriorityShard``.

Each process sums its timers and counts locally and ships the sums to a
named :class:`TraceCollector` actor at the end of every runner batch and
every actor call. The session driver wraps ``Dataset.write_parquet`` the
same way and reads its own sums directly.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

COLLECTOR = "perfbench_trace"


class TraceCollector:
    """Sums the per-process deltas the wrapped workers send."""

    def __init__(self):
        self.acc = defaultdict(float)

    def add(self, delta: dict) -> None:
        for k, v in delta.items():
            self.acc[k] += v

    def totals(self) -> dict:
        return dict(self.acc)


class _Recorder:
    def __init__(self):
        self.acc = defaultdict(float)
        self._collector = None

    def take(self) -> dict:
        d = dict(self.acc)
        self.acc.clear()
        return d

    def flush(self) -> None:
        """Send the sums so far to the collector (fire and forget)."""
        if not self.acc:
            return
        if self._collector is None:
            import ray

            self._collector = ray.get_actor(COLLECTOR)
        self._collector.add.remote(self.take())


REC = _Recorder()


def _wrap(owner, attr: str, key: str, count=None, flush: bool = False):
    """Replace ``owner.attr`` by a wrapper that adds its wall time to
    ``key``; ``count(args, result)`` returns extra {key: n} counts."""
    fn = getattr(owner, attr)
    if getattr(fn, "_perfbench", False):
        return

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
        finally:
            REC.acc[key] += time.perf_counter() - t
        if count is not None:
            for k, v in count(args, res).items():
                REC.acc[k] += v
        if flush:
            REC.flush()
        return res

    wrapper._perfbench = True
    setattr(owner, attr, wrapper)


def _pagerun(m) -> None:
    _wrap(m.PageRunner, "__call__", "pagerun.busy_s",
          count=lambda a, r: {"pagerun.pages": a[1].num_rows}, flush=True)
    _wrap(m, "frontier_row_from_page", "pagerun.frontier_row_s",
          count=lambda a, r: {"pagerun.frontier_rows": 1})


def _cuckoo(m) -> None:
    shard = m.SeenFilterShard
    _wrap(shard, "offer", "cuckoo.offer_s", flush=True,
          count=lambda a, r: {"cuckoo.offered": len(a[1])})
    _wrap(shard, "commit", "cuckoo.commit_s", flush=True,
          count=lambda a, r: {"cuckoo.inserted": r})
    _wrap(shard, "query", "cuckoo.query_s", flush=True)
    _wrap(shard, "claim", "cuckoo.query_s", flush=True,
          count=lambda a, r: {"cuckoo.inserted": int(bool(r))})
    _wrap(shard, "snapshot", "cuckoo.snapshot_s", flush=True)


def _priority(m) -> None:
    _wrap(m.PriorityShard, "offer", "priority.offer_s", flush=True)
    _wrap(m.PriorityShard, "seal", "priority.seal_s", flush=True,
          count=lambda a, r: {"priority.deferred": r})
    _wrap(m.PriorityShard, "query", "priority.query_s", flush=True)


def _web(m) -> None:
    _wrap(m.FormulaResolver, "__call__", "web.synth_s")
    _wrap(m._DocwebResolver, "__call__", "web.synth_s")


# module -> wrapper installer
_TARGETS = {
    "spatula_ray.engine.pagerun": _pagerun,
    "spatula_ray.model": lambda m: (
        _wrap(m, "fromstring_html", "dom.parse_s"),
        _wrap(m.HtmlPage, "to_spans", "model.to_spans_s")),
    "spatula_ray.dom": lambda m: _wrap(m.Element, "xpath", "dom.xpath_s"),
    "spatula_ray.client": lambda m: _wrap(m.SyntheticClient, "request",
                                          "client.request_s"),
    "spatula_ray.web": _web,
    "spatula_ray.engine.cuckoo": _cuckoo,
    "spatula_ray.engine.hostgate": lambda m: _wrap(
        m.HostGate, "admit", "hostgate.admit_s", flush=True,
        count=lambda a, r: {"hostgate.admitted": r.count(0),
                            "hostgate.denied": r.count(2)}),
    "spatula_ray.engine.priority": _priority,
}


def install() -> None:
    """Import the layer modules and wrap their entry points in this
    process (idempotent: a wrapped function is not wrapped again)."""
    for name, patch in _TARGETS.items():
        patch(importlib.import_module(name))


def install_driver() -> None:
    """Session-driver side: the worker wrappers plus checkpoint writes."""
    import ray.data

    install()
    _wrap(ray.data.Dataset, "write_parquet", "driver.write_parquet_s")
