"""Distributed crawl engine: URL frontier + fetch scheduler on Ray.

Execution model (SURVEY.md §3.1 engine equivalent):

    seed rows -> per-wave loop {
        raw runner tasks over row-balanced slices of the frontier blocks
        (PageRunner: fetch + parse + extract, fused)
          -> emit rows   (docs table, written per wave partition)
          -> page rows   (fetch log / lineage)
          -> expand rows (frontier candidates)
        expand rows -> sharded URL-seen filter (cuckoo/exact, deterministic
                       min-order winner per canonical URL; shards held by
                       the session's warm state-host actors)
                    -> next wave frontier
    } until frontier empty

No Dataset execution runs inside a crawl; the result's docs and page log
are Datasets over the runner tasks' returns (or the checkpoint's parquet).

Ordering is reconstructed, never depended on: every row carries an
order-key lineage path; sorting docs by it reproduces the reference's
sequential DFS emission order (reference pages.py:206-244).
"""

from .driver import CrawlConfig, CrawlResult, crawl  # noqa: F401
