"""State-host placement and lifecycle: a crawl's logical filter, gate and
priority shards live in ``min(max(n_filter_shards, n_gates, 1), cluster
CPUs)`` state processes, with routing and results unchanged by the
placement; the processes stay warm and empty between crawls, a dead or
abandoned one does not change the next crawl's results; gate state
survives a checkpoint resume."""

import os
import sys
import time
import uuid

import pytest

import spatula_ray.engine.driver as drv
from spatula_ray.engine import CrawlConfig, crawl
from spatula_ray.engine.driver import build_registry
from spatula_ray.engine.statehost import idle_hosts, release
from spatula_ray.web import (
    DocDetail,
    DocList,
    FormulaResolverFactory,
    SpiderPage,
    spider_seeds,
)

SPEC = dict(n_hosts=4, pages_per_host=40, links_per_page=6, hot_frac=0.5,
            seed=7)
ROBOTS = {"h1.bench.test": {"disallow": ["/p/1"]}}


def _state_host_actors() -> dict:
    """actor id -> state, for every StateHost in the GCS actor table."""
    import ray._private.state

    return {aid: a["State"] for aid, a in ray._private.state.actors().items()
            if a["ActorClassName"] == "StateHost"}


def _cluster_cpus() -> int:
    import ray

    return int(ray.cluster_resources()["CPU"])


def _live_state_hosts() -> set:
    return {a for a, state in _state_host_actors().items() if state != "DEAD"}


def _held() -> list:
    """What each idle state host holds (shards, parked blocks)."""
    import ray

    return ray.get([h.held.remote() for h in idle_hosts()])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_filter,n_gates", [(1, 0), (3, 2), (8, 5)])
def test_state_host_count_follows_cpus(n_filter, n_gates):
    cfg = CrawlConfig(dedup="cuckoo", n_filter_shards=n_filter,
                      n_gates=n_gates, batch_size=32)
    cpus = _cluster_cpus()
    want = min(max(n_filter, n_gates, 1), cpus)
    state = drv._lease_state_hosts(cfg, cpus)
    try:
        assert len(state.handles) == want
    finally:
        release(state, cpus)

    crawl(spider_seeds(4), build_registry(SpiderPage),
          FormulaResolverFactory(**SPEC), cfg)
    # the hosts stay warm for the next crawl, never more than the CPUs
    assert want <= len(idle_hosts()) <= cpus
    assert len(_live_state_hosts()) <= cpus
    before = set(_state_host_actors())
    crawl(spider_seeds(4), build_registry(SpiderPage),
          FormulaResolverFactory(**SPEC), cfg)
    # a second crawl that needs no more hosts starts no actor
    assert set(_state_host_actors()) == before
    assert len(_live_state_hosts()) <= cpus
    # between crawls every host is empty
    assert _held() == [{"shards": 0, "parked": 0}] * len(idle_hosts())


def _spider(n_filter: int, n_gates: int, dedup: str):
    res = crawl(spider_seeds(4), build_registry(SpiderPage),
                FormulaResolverFactory(**SPEC),
                CrawlConfig(dedup=dedup, n_filter_shards=n_filter,
                            n_gates=n_gates, per_host_wave_quota=6,
                            robots=ROBOTS, batch_size=16))
    rows = res.docs_sorted().take_all()
    counters = {k: v for k, v in res.counters.items() if k != "elapsed_sec"}
    return res, rows, counters


@pytest.mark.usefixtures("ray_session")
def test_placement_does_not_change_results():
    """1, 3 and 8 logical filter shards (8 exceeds the 4-CPU session's
    host count; 3 filter shards over 4 hosts and 5 gates over 4 hosts do
    not divide it) give the 1-shard exact-dedup crawl's output."""
    ref, ref_rows, ref_counters = _spider(1, 1, "exact")
    assert ref_counters["priority_deferred"] > 0
    assert ref_counters["robots_denied"] > 0
    for n_filter, n_gates in [(1, 1), (3, 4), (8, 5)]:
        res, rows, counters = _spider(n_filter, n_gates, "cuckoo")
        assert res.fetched_urls() == ref.fetched_urls()
        assert [(r["doc_id"], r["order_key"], bytes(r["record_json"]))
                for r in rows] == \
            [(r["doc_id"], r["order_key"], bytes(r["record_json"]))
             for r in ref_rows]
        assert counters == ref_counters, (n_filter, n_gates)
        assert res.waves == ref.waves


def _same_crawl(got, want) -> None:
    """Docs, fetched URLs, counters and waves of two ``_spider`` results."""
    res, rows, counters = got
    ref, ref_rows, ref_counters = want
    assert res.fetched_urls() == ref.fetched_urls()
    assert [(r["doc_id"], bytes(r["record_json"])) for r in rows] == \
        [(r["doc_id"], bytes(r["record_json"])) for r in ref_rows]
    assert counters == ref_counters
    assert res.waves == ref.waves


@pytest.mark.usefixtures("ray_session")
def test_dead_cached_host_is_replaced():
    """A cached host killed between crawls is dropped and replaced; the
    next crawl gives the undisturbed crawl's output."""
    import ray

    ref = _spider(3, 4, "cuckoo")
    n_idle = len(idle_hosts())
    victim = idle_hosts()[0]
    ray.kill(victim)
    # wait for the death to land, so the next lease meets a dead host
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and \
            len(_live_state_hosts()) >= n_idle:
        time.sleep(0.1)
    assert len(_live_state_hosts()) == n_idle - 1
    _same_crawl(_spider(3, 4, "cuckoo"), ref)
    assert len(idle_hosts()) == n_idle
    assert _held() == [{"shards": 0, "parked": 0}] * n_idle


class BrokenSpiderPage(SpiderPage):
    """Fails on every page whose number ends in 7 (none is a seed), so an
    ``error_policy="raise"`` crawl dies in the middle of a later wave."""

    def process_page(self):
        if self.source.url.endswith("7"):
            raise RuntimeError(f"broken page {self.source.url}")
        return super().process_page()


@pytest.mark.usefixtures("ray_session")
def test_failed_crawl_returns_clean_hosts():
    """A crawl that raises mid-wave still hands its hosts back empty, and
    a straggling runner task of it cannot reach them; the next crawl gives
    the undisturbed crawl's output."""
    from ray import cloudpickle

    cloudpickle.register_pickle_by_value(sys.modules[__name__])
    ref = _spider(3, 4, "cuckoo")
    registry = build_registry(SpiderPage)
    registry[SpiderPage.__name__] = BrokenSpiderPage
    with pytest.raises(Exception, match="broken page"):
        crawl(spider_seeds(4), registry, FormulaResolverFactory(**SPEC),
              CrawlConfig(dedup="cuckoo", n_filter_shards=3, n_gates=4,
                          per_host_wave_quota=6, robots=ROBOTS,
                          batch_size=16, error_policy="raise"))
    assert _held() == [{"shards": 0, "parked": 0}] * len(idle_hosts())
    _same_crawl(_spider(3, 4, "cuckoo"), ref)


class SlowBrokenSpiderPage(BrokenSpiderPage):
    """Fails like :class:`BrokenSpiderPage`; every other page takes 50 ms
    and then leaves one file in ``marks``, so a runner task that outlives
    its crawl shows up as a new file."""

    marks = ""

    def process_page(self):
        if not self.source.url.endswith("7"):
            time.sleep(0.05)
            open(os.path.join(self.marks, uuid.uuid4().hex), "w").close()
        return super().process_page()


@pytest.mark.usefixtures("ray_session")
def test_failed_crawl_leaves_no_runner_task(tmp_path):
    """When a runner task raises, crawl() cancels the wave's other runner
    tasks and waits for them before it raises: no page is processed once
    crawl() has returned."""
    from ray import cloudpickle

    cloudpickle.register_pickle_by_value(sys.modules[__name__])
    SlowBrokenSpiderPage.marks = str(tmp_path)
    registry = build_registry(SpiderPage)
    registry[SpiderPage.__name__] = SlowBrokenSpiderPage
    with pytest.raises(Exception, match="broken page"):
        crawl(spider_seeds(4), registry, FormulaResolverFactory(**SPEC),
              CrawlConfig(dedup="cuckoo", n_filter_shards=3, batch_size=2,
                          error_policy="raise"))
    done = len(os.listdir(tmp_path))
    time.sleep(1.5)
    assert len(os.listdir(tmp_path)) == done
    assert _held() == [{"shards": 0, "parked": 0}] * len(idle_hosts())


class ChainWebFactory:
    """Two doc-web hosts, each a three-page listing chain with two detail
    pages per listing page: under a wave quota of 2 the gate defers the
    third listing page of each chain in wave 0, and never again."""

    def __call__(self):
        from spatula_ray.client import TableResolver

        pages = {}
        for h in range(2):
            base = f"https://h{h:03d}.docweb.test"
            for p in range(3):
                links = "".join(f"<a class='doc' href='/doc/{d}'>Doc {d}</a>"
                                for d in (10 * h + 2 * p, 10 * h + 2 * p + 1))
                nxt = (f"<a id='next' href='/list?page={p + 1}'>next</a>"
                       if p < 2 else "")
                url = f"{base}/list" + (f"?page={p}" if p else "")
                pages[url] = {"status": 200, "body": (
                    f"<html><body><ul>{links}</ul>{nxt}</body></html>"
                ).encode()}
                for d in (10 * h + 2 * p, 10 * h + 2 * p + 1):
                    pages[f"{base}/doc/{d}"] = {"status": 200, "body": (
                        f"<html><body><h1>Doc {d}</h1><div class='meta'>"
                        "<span id='lang'>en</span><span id='source'>web"
                        f"</span></div><p id='body'>text {d}</p>"
                        "</body></html>").encode()}
        return TableResolver(pages)


@pytest.mark.usefixtures("ray_session")
def test_gate_state_survives_resume(tmp_path):
    """Gate deferrals are cumulative across a resume, like the filter's
    dedup counters: the resumed leg reports at least the interrupted
    leg's count, and the same total as an uninterrupted crawl."""
    from ray import cloudpickle

    cloudpickle.register_pickle_by_value(sys.modules[__name__])
    seeds = [DocList({"url": f"https://h{h:03d}.docweb.test/list"})
             for h in range(2)]
    registry = build_registry(DocList, DocDetail)

    def cfg(**kw):
        return CrawlConfig(dedup="exact", n_filter_shards=2, n_gates=2,
                           per_host_wave_quota=2, batch_size=4, **kw)

    full = crawl(seeds, registry, ChainWebFactory(), cfg())
    ck = str(tmp_path / "ckpt")
    partial = crawl(seeds, registry, ChainWebFactory(),
                    cfg(checkpoint_dir=ck, max_waves=2))
    resumed = crawl(seeds, registry, ChainWebFactory(),
                    cfg(checkpoint_dir=ck))
    assert partial.counters["gate_deferred"] > 0
    assert resumed.counters["gate_deferred"] >= \
        partial.counters["gate_deferred"]
    assert resumed.counters["gate_deferred"] == full.counters["gate_deferred"]
    assert resumed.counters["emitted"] == full.counters["emitted"] == 12
