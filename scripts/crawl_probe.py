"""Crawl-only scaling probe: formula-web crawl at RAY_GRAFT_CPUS.

Prints one JSON line: CPUs, seconds, pages, waves, URLs/s and the crawl's
per-wave stats (rows in, deferred, pages, emitted, next rows and seconds
per phase)."""
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    spec = json.loads(os.environ.get("PROBE_SPEC", "{}")) or dict(
        n_hosts=32, pages_per_host=9000, links_per_page=10, text_words=250,
        media_per_page=3, seed=42)
    import logging

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from spatula_ray.engine import CrawlConfig, crawl
    from spatula_ray.engine.driver import build_registry
    from spatula_ray.web import FormulaResolverFactory, SpiderPage, spider_seeds

    t0 = time.time()
    res = crawl(spider_seeds(spec["n_hosts"]), build_registry(SpiderPage),
                FormulaResolverFactory(**spec),
                CrawlConfig(dedup="cuckoo",
                            n_filter_shards=int(os.environ.get(
                                "PROBE_SHARDS", "8")),
                            n_gates=int(os.environ.get("PROBE_GATES", "4")),
                            filter_capacity=1 << int(os.environ.get(
                                "PROBE_CAP_BITS", "21")),
                            batch_size=int(os.environ.get("PROBE_BATCH",
                                                          "1024")),
                            min_parallelism=ncpu))
    dt = time.time() - t0
    print(json.dumps({"ncpu": ncpu, "sec": round(dt, 2),
                      "pages": res.counters.get("pages"),
                      "waves": res.waves,
                      "urls_per_sec": round(res.counters.get("pages", 0) / dt, 1),
                      "wave_stats": res.wave_stats}))
    ray.shutdown()


if __name__ == "__main__":
    main()
