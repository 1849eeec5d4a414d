"""Per-wave crawl stats: ``CrawlResult.wave_stats`` holds one entry per
wave, its page and doc counts sum to the crawl's counters, and a
checkpointed crawl that stops and resumes lists the same waves as an
uninterrupted one."""

import pytest

from spatula_ray.engine import CrawlConfig, crawl
from spatula_ray.engine.driver import WAVE_COUNTS, WAVE_TIMES, build_registry
from spatula_ray.web import FormulaResolverFactory, SpiderPage, spider_seeds

SPEC = dict(n_hosts=4, pages_per_host=40, links_per_page=6, hot_frac=0.5,
            seed=7)
CFG = dict(dedup="cuckoo", n_filter_shards=3, n_gates=2,
           per_host_wave_quota=6,
           robots={"h1.bench.test": {"disallow": ["/p/1"]}}, batch_size=16)


def _crawl(**kw):
    return crawl(spider_seeds(4), build_registry(SpiderPage),
                 FormulaResolverFactory(**SPEC), CrawlConfig(**CFG, **kw))


def _counts(res) -> list:
    return [{k: w[k] for k in WAVE_COUNTS} for w in res.wave_stats]


@pytest.mark.usefixtures("ray_session")
def test_wave_stats_sum_to_counters():
    res = _crawl()
    assert len(res.wave_stats) == res.waves
    for w in res.wave_stats:
        assert set(w) == set(WAVE_COUNTS) | set(WAVE_TIMES)
        assert all(w[k] >= 0 for k in w)
    assert sum(w["pages"] for w in res.wave_stats) == res.counters["pages"]
    assert sum(w["emitted"] for w in res.wave_stats) == \
        res.counters["emitted"] > 0
    assert sum(w["deferred"] for w in res.wave_stats) == \
        res.counters["priority_deferred"] > 0
    # each wave's next frontier is the next wave's input
    assert [w["next_rows"] for w in res.wave_stats[:-1]] == \
        [w["rows_in"] for w in res.wave_stats[1:]]
    assert res.wave_stats[-1]["next_rows"] == 0


@pytest.mark.usefixtures("ray_session")
def test_wave_stats_survive_resume(tmp_path):
    full = _crawl()
    ck = str(tmp_path / "ckpt")
    partial = _crawl(checkpoint_dir=ck, max_waves=2)
    assert len(partial.wave_stats) == 2
    resumed = _crawl(checkpoint_dir=ck)
    assert len(resumed.wave_stats) == resumed.waves == full.waves
    assert _counts(resumed) == _counts(full)
    assert _counts(partial) == _counts(full)[:2]
