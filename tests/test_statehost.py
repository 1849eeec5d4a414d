"""State-host placement: a crawl's logical filter, gate and priority shards
live in ``min(max(n_filter_shards, n_gates, 1), cluster CPUs)`` state
processes, with routing and results unchanged by the placement; gate state
survives a checkpoint resume."""

import sys
import time

import pytest

from spatula_ray.engine import CrawlConfig, crawl
from spatula_ray.engine.driver import build_registry
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


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_filter,n_gates", [(1, 0), (3, 2), (8, 5)])
def test_state_host_count_follows_cpus(n_filter, n_gates):
    before = set(_state_host_actors())
    crawl(spider_seeds(4), build_registry(SpiderPage),
          FormulaResolverFactory(**SPEC),
          CrawlConfig(dedup="cuckoo", n_filter_shards=n_filter,
                      n_gates=n_gates, batch_size=32))
    created = set(_state_host_actors()) - before
    assert len(created) == min(max(n_filter, n_gates, 1), _cluster_cpus())
    # the hosts stop with the crawl rather than outlive it
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        states = _state_host_actors()
        if all(states[a] == "DEAD" for a in created):
            break
        time.sleep(0.2)
    assert all(_state_host_actors()[a] == "DEAD" for a in created)


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
