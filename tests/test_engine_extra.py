"""Engine-path coverage for the remaining page families and policies:
mixed content types (JSON/CSV/XML/PDF) crawled distributed, content-retry
flakiness, robots denial end-to-end, typed dataclass inputs, cuckoo dedup
over the mixed web. Fixture page classes live in spatula_ray.web (worker
processes must be able to import them)."""

import json

import pytest

from spatula_ray.client import SyntheticClient
from spatula_ray.engine import CrawlConfig, crawl
from spatula_ray.engine.driver import build_registry
from spatula_ray.runner import run_oracle
from spatula_ray.web import (
    CsvRows,
    EMP_ROBOTS,
    EmployeesResolverFactory,
    FlakyPage,
    MixedIndex,
    MixedResolverFactory,
    PdfText,
    SecretFetcher,
    TypedDetail,
    TypedIndex,
    XmlItems,
)


@pytest.mark.usefixtures("ray_session")
def test_mixed_content_types_distributed():
    factory = MixedResolverFactory()
    oracle = run_oracle([MixedIndex()], SyntheticClient(factory()))
    registry = build_registry(MixedIndex, CsvRows, XmlItems, PdfText)
    result = crawl([MixedIndex()], registry, factory,
                   CrawlConfig(dedup="exact", batch_size=8, min_parallelism=2))
    rows = result.docs_sorted().take_all()
    assert len(rows) == len(oracle.docs) == 6  # 3 csv + 2 xml + 1 pdf
    got = [json.loads(bytes(r["record_json"])) for r in rows]
    want = [json.loads(r["record_json"]) for r in oracle.docs]
    assert got == want
    kinds = [g["kind"] for g in got]
    assert kinds.count("csv") == 3 and kinds.count("xml") == 2
    assert got[-1]["text"] == "pdf body text"


@pytest.mark.usefixtures("ray_session")
def test_content_retry_through_engine():
    """flaky_until=1: first attempt rejected, default budget (1 retry)
    succeeds on the second — fetch_attempts records both."""
    factory = MixedResolverFactory()
    registry = build_registry(FlakyPage)
    result = crawl([FlakyPage()], registry, factory,
                   CrawlConfig(dedup=None, batch_size=4))
    rows = result.docs.take_all()
    assert len(rows) == 1
    assert json.loads(bytes(rows[0]["record_json"]))["body"] == "stable at last"
    assert result.counters["fetch_attempts"] == 2


@pytest.mark.usefixtures("ray_session")
def test_robots_denied_end_to_end():
    factory = EmployeesResolverFactory()
    registry = build_registry(SecretFetcher)
    result = crawl([SecretFetcher()], registry, factory,
                   CrawlConfig(dedup=None, n_gates=2, robots=EMP_ROBOTS))
    assert result.counters["robots_denied"] == 1
    assert result.counters["emitted"] == 0
    # without robots config the page is fetched
    open_result = crawl([SecretFetcher()], registry, factory,
                        CrawlConfig(dedup=None))
    assert open_result.counters["emitted"] == 1


@pytest.mark.usefixtures("ray_session")
def test_typed_dataclass_input_roundtrip():
    """Dataclass inputs survive the frontier-row JSON envelope."""
    factory = MixedResolverFactory()
    registry = build_registry(TypedIndex, TypedDetail)
    result = crawl([TypedIndex()], registry, factory,
                   CrawlConfig(dedup=None, batch_size=4))
    rows = result.docs.take_all()
    assert len(rows) == 1
    rec = json.loads(bytes(rows[0]["record_json"]))
    assert rec["label"] == "feed" and rec["n"] > 0


@pytest.mark.usefixtures("ray_session")
def test_mixed_web_cuckoo_dedup():
    factory = MixedResolverFactory()
    registry = build_registry(MixedIndex, CsvRows, XmlItems, PdfText)
    result = crawl([MixedIndex()], registry, factory,
                   CrawlConfig(dedup="cuckoo", n_filter_shards=2,
                               batch_size=8))
    assert result.counters["emitted"] == 6


@pytest.mark.usefixtures("ray_session")
def test_single_page_result_recursion():
    """Non-generator process_page returning a single Page recurses with
    key+(0,) (reference pages.py:236-238)."""
    from spatula_ray.web import FlakyPage, MIXED_BASE
    from spatula_ray import HtmlPage

    class Inner(HtmlPage):
        def get_source_from_input(self):
            return self.input["url"]

        def process_page(self):
            return {"inner": True}

    class Outer(HtmlPage):
        source = f"{MIXED_BASE}/flaky"

        def accept_response(self, response):
            return not response.content.startswith(b"__FLAKY__")

        def process_page(self):
            return Inner({"url": f"{MIXED_BASE}/data.csv"})

    factory = MixedResolverFactory()
    oracle = run_oracle([Outer()], SyntheticClient(factory()))
    result = crawl([Outer()], build_registry(Outer, Inner), factory,
                   CrawlConfig(dedup=None, batch_size=4))
    rows = result.docs_sorted().take_all()
    assert len(rows) == len(oracle.docs) == 1
    assert rows[0]["order_key"] == oracle.docs[0]["order_key"] == [0, 0, 0]


@pytest.mark.usefixtures("ray_session")
def test_scout_mode_engine_vs_oracle():
    """Engine scout mode == oracle scout (wave-0 + pagination projections,
    subpages not followed)."""
    from spatula_ray.web import EmployeeList, EmployeeDetail, AwardsPage

    factory = EmployeesResolverFactory()
    oracle = run_oracle([EmployeeList()], SyntheticClient(factory()),
                        scout=True)
    result = crawl([EmployeeList()],
                   build_registry(EmployeeList, EmployeeDetail, AwardsPage),
                   factory,
                   CrawlConfig(dedup=None, scout=True, batch_size=16))
    rows = result.docs_sorted().take_all()
    assert len(rows) == len(oracle.docs) == 44
    got = [json.loads(bytes(r["record_json"])) for r in rows]
    want = [json.loads(r["record_json"]) for r in oracle.docs]
    assert got == want
    assert got[0]["__next__"].startswith("EmployeeDetail")
