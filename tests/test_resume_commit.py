"""The checkpoint manifest is the only commit point: a crawl that dies
after a wave has written its files but before its manifest replaces the
last one resumes from that earlier manifest, and its result equals an
uninterrupted crawl's — no page lost to a later filter snapshot, no doc
written twice by the re-run wave."""

import json

import pytest

import spatula_ray.engine.driver as drv
from spatula_ray.engine import CrawlConfig, crawl
from spatula_ray.engine.driver import build_registry
from spatula_ray.web import (DocDetail, DocList, DocwebResolverFactory,
                             FormulaResolverFactory, SpiderPage, docweb_seeds,
                             spider_seeds)

SF_DIR = "/root/testdata/sf0.001"
WEB = dict(n_hosts=4, pages_per_host=60, links_per_page=4, media_per_page=0,
           text_words=8)


class _Crash(Exception):
    pass


def _crash_before_manifest(monkeypatch, next_wave: int) -> None:
    """Make the driver die just before it writes the manifest that
    commits ``next_wave``: every other file of that wave is written."""
    real = drv._write_json_atomic

    def write(path, obj):
        if obj.get("next_wave") == next_wave:
            raise _Crash(path)
        real(path, obj)

    monkeypatch.setattr(drv, "_write_json_atomic", write)


@pytest.mark.usefixtures("ray_session")
def test_resume_ignores_uncommitted_filter_snapshot(tmp_path, monkeypatch):
    """Wave 1's filter snapshot, written before the crash, holds the URLs
    that wave 1 elected; a resume that read it would drop them all when
    it re-runs wave 1."""
    registry = build_registry(SpiderPage)
    factory = FormulaResolverFactory(**WEB)
    cfg = dict(dedup="cuckoo", n_filter_shards=2, batch_size=32)
    full = crawl(spider_seeds(WEB["n_hosts"]), registry, factory,
                 CrawlConfig(**cfg))
    assert full.waves >= 4

    ck = str(tmp_path / "ckpt")
    _crash_before_manifest(monkeypatch, 2)
    with pytest.raises(_Crash):
        crawl(spider_seeds(WEB["n_hosts"]), registry, factory,
              CrawlConfig(checkpoint_dir=ck, **cfg))
    monkeypatch.undo()
    resumed = crawl(spider_seeds(WEB["n_hosts"]), registry, factory,
                    CrawlConfig(checkpoint_dir=ck, **cfg))

    assert resumed.fetched_urls() == full.fetched_urls()
    assert resumed.counters["pages"] == full.counters["pages"]
    got = [r["doc_id"] for r in resumed.docs_sorted().take_all()]
    want = [r["doc_id"] for r in full.docs_sorted().take_all()]
    assert got == want


@pytest.mark.usefixtures("ray_session")
def test_rerun_wave_writes_its_docs_once(tmp_path, monkeypatch):
    """The docweb's details are all fetched in wave 1. After a crash
    between wave 1's doc writes and its manifest, the resumed crawl runs
    wave 1 again; its docs must replace the uncommitted ones."""
    registry = build_registry(DocList, DocDetail)
    factory = DocwebResolverFactory(f"{SF_DIR}/documents.parquet")
    cfg = dict(dedup=None, batch_size=64)
    full = crawl(docweb_seeds(500), registry, factory, CrawlConfig(**cfg))
    n_docs = full.docs.count()
    assert n_docs == full.counters["emitted"] > 0

    ck = str(tmp_path / "ckpt")
    _crash_before_manifest(monkeypatch, 2)
    with pytest.raises(_Crash):
        crawl(docweb_seeds(500), registry, factory,
              CrawlConfig(checkpoint_dir=ck, **cfg))
    monkeypatch.undo()
    resumed = crawl(docweb_seeds(500), registry, factory,
                    CrawlConfig(checkpoint_dir=ck, **cfg))

    ids = [r["doc_id"] for r in resumed.docs.select_columns(["doc_id"])
           .take_all()]
    assert len(ids) == len(set(ids)) == n_docs
    assert resumed.counters["emitted"] == n_docs
    assert resumed.page_log.count() == full.page_log.count()


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_of_another_layout_is_refused(tmp_path):
    """A manifest without this engine's layout version (e.g. one written
    before filter snapshots moved under ``filter/wave_W/``) is refused
    loudly instead of resumed from missing or misread files."""
    ck = tmp_path / "ckpt"
    ck.mkdir()
    (ck / "manifest.json").write_text(json.dumps(
        {"next_wave": 1, "counters": {}, "gates": {}}))
    with pytest.raises(ValueError, match="another layout"):
        crawl(docweb_seeds(500), build_registry(DocList, DocDetail),
              DocwebResolverFactory(f"{SF_DIR}/documents.parquet"),
              CrawlConfig(dedup="cuckoo", n_filter_shards=2,
                          checkpoint_dir=str(ck)))
