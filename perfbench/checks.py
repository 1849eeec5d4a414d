"""Output checkers built apart from the engine, and their self-check.

* :func:`formula_bfs` walks the formula web's link graph breadth first.
  It reads hrefs from the fixture's page bodies with a regular expression,
  not through the engine's DOM, and applies robots ``disallow`` prefixes
  itself, not through the engine's host gate.
* :func:`check_crawl` compares a crawl's fetched-URL set with that BFS and
  checks per-record properties: one doc per fetched page, ``n_links`` and
  ``n_media`` as the spec says, and no URL fetched twice.
* :func:`check_query` compares a suite query's rows with its DuckDB
  ``oracle_sql()`` entry under the comparison rule of
  ``scripts/check_correctness.py``.
* :func:`selfcheck` shows that each checker rejects a wrong output.
"""

from __future__ import annotations

import importlib.util
import os
import re
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

_HREF = re.compile(r"<a href='([^']+)'")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_urls(n_hosts: int) -> List[str]:
    return [f"https://h{i}.bench.test/p/0" for i in range(n_hosts)]


def _denied(url: str, robots: Optional[dict]) -> bool:
    parts = urlsplit(url)
    rule = (robots or {}).get(parts.hostname or "")
    return bool(rule) and any(parts.path.startswith(p)
                              for p in rule.get("disallow", ()) if p)


def formula_bfs(spec: dict, robots: Optional[dict] = None
                ) -> Tuple[List[List[str]], set]:
    """Breadth-first levels of fetchable URLs, and the denied URL set."""
    from spatula_ray.web import FormulaResolver

    resolver = FormulaResolver(**spec)
    seen = set()
    denied = set()
    level = []
    for u in seed_urls(spec["n_hosts"]):
        if u not in seen:
            seen.add(u)
            (denied.add(u) if _denied(u, robots) else level.append(u))
    levels = []
    while level:
        levels.append(level)
        nxt = []
        for u in level:
            body = resolver(u)["body"].decode()
            for href in _HREF.findall(body):
                if ".bench.test/" not in href or href in seen:
                    continue
                seen.add(href)
                (denied.add(href) if _denied(href, robots) else nxt.append(href))
        level = nxt
    return levels, denied


def check_crawl(spec: dict, page_log: Sequence[Tuple[str, str]],
                docs: Sequence[Tuple[str, int, int]], counters: Dict[str, int],
                robots: Optional[dict] = None,
                expect_deferrals: bool = False,
                bfs: Optional[Tuple[List[List[str]], set]] = None) -> List[str]:
    """Problems found in one crawl's output (empty when it is right).

    ``page_log`` holds (source_url, status) per fetch-log row and ``docs``
    holds (url, n_links, n_media) per emitted record."""
    levels, denied = bfs or formula_bfs(spec, robots)
    want = {u for lv in levels for u in lv}
    problems = []
    fetched = Counter(u for u, s in page_log if s != "robots_denied")
    got = set(fetched)
    if got != want:
        problems.append(f"fetched set differs from BFS: {len(got - want)} "
                        f"extra, {len(want - got)} missing "
                        f"(e.g. {sorted(want ^ got)[:2]})")
    twice = [u for u, n in fetched.items() if n > 1]
    if twice:
        problems.append(f"{len(twice)} URLs fetched more than once "
                        f"(e.g. {twice[:2]})")
    bad_status = Counter(s for _, s in page_log
                         if s not in ("ok", "robots_denied"))
    if bad_status:
        problems.append(f"non-ok fetches: {dict(bad_status)}")
    doc_urls = Counter(u for u, _, _ in docs)
    if set(doc_urls) != got or len(docs) != len(got):
        problems.append(f"{len(docs)} docs for {len(got)} fetched pages")
    wrong = [d for d in docs if d[1] != spec["links_per_page"]
             or d[2] != spec["media_per_page"]]
    if wrong:
        problems.append(f"{len(wrong)} records with wrong n_links/n_media "
                        f"(e.g. {wrong[0]})")
    if counters.get("robots_denied", 0) != len(denied):
        problems.append(f"robots_denied {counters.get('robots_denied', 0)} "
                        f"vs BFS {len(denied)}")
    if expect_deferrals and not (counters.get("priority_deferred", 0)
                                 + counters.get("gate_deferred", 0)):
        problems.append("no deferrals under the per-host wave quota")
    return problems


def _gate_compare():
    spec = importlib.util.spec_from_file_location(
        "check_correctness", os.path.join(ROOT, "scripts",
                                          "check_correctness.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.compare


class Oracle:
    """DuckDB views over one data dir plus the repo's oracle SQL."""

    TABLES = ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split()

    def __init__(self, data_dir: str):
        import duckdb

        from __ray_entry__ import oracle_sql

        self.sql = oracle_sql()
        self.compare = _gate_compare()
        self.con = duckdb.connect()
        for t in self.TABLES:
            path = os.path.join(data_dir, f"{t}.parquet")
            self.con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                             f"read_parquet('{path}')")

    def want(self, name: str):
        return self.con.execute(self.sql[name]).df()

    def close(self) -> None:
        self.con.close()


def check_query(oracle: Oracle, name: str, got) -> List[str]:
    return oracle.compare(name, got, oracle.want(name))


def selfcheck(oracle: Optional[Oracle] = None) -> List[str]:
    """Feed each checker a right and a wrong output; return what went
    unnoticed (empty when every checker accepts the right output and
    rejects each wrong one). The query checker is tried when an
    ``oracle`` is given."""
    out = []
    spec = dict(n_hosts=3, pages_per_host=40, links_per_page=4,
                media_per_page=2, text_words=5, seed=7)
    robots = {"h1.bench.test": {"disallow": ["/p/1"]}}
    bfs = formula_bfs(spec, robots)
    urls = [u for lv in bfs[0] for u in lv]
    log = [(u, "ok") for u in urls] + [(u, "robots_denied") for u in bfs[1]]
    docs = [(u, spec["links_per_page"], spec["media_per_page"]) for u in urls]
    counters = {"robots_denied": len(bfs[1]), "priority_deferred": 1}

    def expect(label: str, problems: List[str], ok: bool) -> None:
        if bool(problems) == ok:
            out.append(f"{label}: {'rejected' if ok else 'accepted'} "
                       f"{problems or 'nothing'}")

    run = dict(spec=spec, robots=robots, expect_deferrals=True, bfs=bfs)
    expect("crawl right", check_crawl(page_log=log, docs=docs,
                                      counters=counters, **run), True)
    expect("crawl dropped URL", check_crawl(
        page_log=log[1:], docs=docs[1:], counters=counters, **run), False)
    expect("crawl duplicated page", check_crawl(
        page_log=log + log[:1], docs=docs + docs[:1], counters=counters,
        **run), False)
    expect("crawl wrong record", check_crawl(
        page_log=log, docs=[(docs[0][0], 0, 2)] + docs[1:],
        counters=counters, **run), False)
    expect("crawl denied count", check_crawl(
        page_log=log, docs=docs, counters={**counters, "robots_denied": 0},
        **run), False)
    expect("crawl no deferral", check_crawl(
        page_log=log, docs=docs, counters={"robots_denied": len(bfs[1])},
        **run), False)

    for name in ("q1_pricing_summary", "crawl_docs") if oracle else ():
        want = oracle.want(name)
        expect(f"{name} right", check_query(oracle, name, want.copy()), True)
        bad = want.copy()
        col = [c for c in bad.columns if bad[c].dtype.kind in "if"][0]
        bad.loc[0, col] = bad.loc[0, col] + 1
        expect(f"{name} changed row", check_query(oracle, name, bad), False)
        expect(f"{name} dropped row",
               check_query(oracle, name, want.iloc[1:].copy()), False)
    return out


def docs_from_records(records: Iterable[str]) -> List[Tuple[str, int, int]]:
    import json

    out = []
    for rec in records:
        r = json.loads(rec)
        out.append((r["url"], r["n_links"], r["n_media"]))
    return out
