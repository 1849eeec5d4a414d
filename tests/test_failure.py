"""Failure-semantics test: a Ray worker DIES mid-batch (os._exit — a real
process death, not a Python exception) while running the fused page
stage; Ray's task retry re-executes the batch, and the crawl's offer /
claim idempotency (SCALE.md "Failure/retry semantics") must make the
final output identical to an undisturbed run — no lost docs, no
duplicates, same URL-seen set."""

import os
import sys

import pytest

from spatula_ray.engine import CrawlConfig, crawl
from spatula_ray.engine.driver import build_registry
from spatula_ray.web import DocDetail, DocList, DocwebResolverFactory, docweb_seeds

SF_DIR = "/root/testdata/sf0.001"


class DyingDocDetail(DocDetail):
    """First worker to process doc 7 drops a marker and kills its own
    PROCESS (system failure, exercises Ray's task retry, not exception
    handling); retries see the marker and proceed normally."""

    marker_path = "/tmp/_spatula_ray_die_once"

    def process_page(self):
        rec = super().process_page()
        if rec["doc_id"] == 7 and not os.path.exists(self.marker_path):
            with open(self.marker_path, "w"):
                pass
            os._exit(1)
        return rec


@pytest.mark.usefixtures("ray_session")
def test_worker_death_mid_batch_is_retried_idempotently(tmp_path):
    from ray import cloudpickle

    cloudpickle.register_pickle_by_value(sys.modules[__name__])

    marker = DyingDocDetail.marker_path
    if os.path.exists(marker):
        os.remove(marker)

    factory = DocwebResolverFactory(f"{SF_DIR}/documents.parquet")
    # runner tasks: Ray retries a task whose worker died
    cfg = dict(dedup="cuckoo", n_filter_shards=2, batch_size=64)

    clean = crawl(docweb_seeds(500), build_registry(DocList, DocDetail),
                  factory, CrawlConfig(**cfg))
    clean_rows = clean.docs_sorted().take_all()

    # swap the detail class for the self-killing variant, same registry key
    registry = build_registry(DocList, DocDetail)
    registry[DocDetail.__name__] = DyingDocDetail
    seeds = [DocList({"url": s.input["url"]}) for s in docweb_seeds(500)]
    hurt = crawl(seeds, registry, factory, CrawlConfig(**cfg))
    hurt_rows = hurt.docs_sorted().take_all()

    assert os.path.exists(marker), "the failure injection never fired"
    os.remove(marker)
    assert len(hurt_rows) == len(clean_rows)
    for a, b in zip(hurt_rows, clean_rows):
        assert a["doc_id"] == b["doc_id"]
        # DocDetail declares record_fields -> typed struct, no JSON
        assert a["record"] == b["record"]
        assert a["record_json"] is None and b["record_json"] is None
    assert hurt.fetched_urls() == clean.fetched_urls()
    assert hurt.counters["emitted"] == clean.counters["emitted"]


@pytest.mark.usefixtures("ray_session")
def test_worker_death_mid_election_is_retried_idempotently():
    """Round-5 rework hardening: the winner election runs as raw tasks
    whose outputs are driver-owned ('a task retry replaces its own
    output', engine/driver._elect_block). Kill the election worker
    AFTER its side-effectful seen-filter RPCs have run; Ray's task
    retry re-executes the group, the offer protocol's min-idempotency
    absorbs the duplicate RPCs, and the crawl must reproduce the
    undisturbed run's docs, URL-seen set and counters exactly."""
    from ray import cloudpickle

    import spatula_ray.engine.driver as drv

    cloudpickle.register_pickle_by_value(sys.modules[__name__])

    marker = "/tmp/_spatula_ray_elect_die_once"
    if os.path.exists(marker):
        os.remove(marker)
    real = drv._elect_block

    def dying_elect(shard_handles, *tables):
        out = real(shard_handles, *tables)
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            os._exit(1)       # die after the RPCs: retry replays them
        return out

    factory = DocwebResolverFactory(f"{SF_DIR}/documents.parquet")
    cfg = dict(dedup="cuckoo", n_filter_shards=2, batch_size=64)

    clean = crawl(docweb_seeds(500), build_registry(DocList, DocDetail),
                  factory, CrawlConfig(**cfg))
    clean_rows = clean.docs_sorted().take_all()

    drv._elect_block = dying_elect
    try:
        hurt = crawl(docweb_seeds(500),
                     build_registry(DocList, DocDetail),
                     factory, CrawlConfig(**cfg))
        hurt_rows = hurt.docs_sorted().take_all()
    finally:
        drv._elect_block = real

    assert os.path.exists(marker), "the failure injection never fired"
    os.remove(marker)
    assert len(hurt_rows) == len(clean_rows)
    for a, b in zip(hurt_rows, clean_rows):
        assert a["doc_id"] == b["doc_id"]
    assert hurt.fetched_urls() == clean.fetched_urls()
    assert hurt.counters["emitted"] == clean.counters["emitted"]
