"""Fetch clients: the engine-side replacement for the reference's scrapelib
session (``/root/reference/src/spatula/cli.py:79-93``).

A ``FetchClient`` exposes ``request(method, url, ...) -> Response`` and raises
:class:`HTTPError` for 4xx/5xx statuses (matching scrapelib's behavior that
the reference's error path depends on, ``pages.py:190-192``).

Two implementations:

* :class:`SyntheticClient` — deterministic, network-free resolver over a
  synthetic web. It serves either from a materialized ``web_pages`` table
  (dict of url -> row) or from a *formula web* (:mod:`spatula_ray.web`)
  that generates page bodies on the fly from the URL + seed, which is how the
  10^10-logical-keyspace regime is addressed without materializing bodies.
  Per-client fetch counters implement deterministic flakiness
  (``flaky_until``: first k attempts return a body that fails
  ``accept_response``) to exercise the content-retry loop.
* :class:`RequestsClient` — thin real-HTTP client on ``requests`` with
  transport retries + throttle, for use outside the sandbox. Gated import.

Both count fetches; the Ray fetch stage reads those counters into lineage
metrics.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Optional


class Response:
    """Minimal requests.Response-alike carrying bytes + status."""

    __slots__ = ("url", "status_code", "content", "headers", "fromcache")

    def __init__(self, url: str, status_code: int = 200, content: bytes = b"",
                 headers: Optional[dict] = None, fromcache: bool = False):
        self.url = url
        self.status_code = status_code
        self.content = content
        self.headers = headers or {}
        self.fromcache = fromcache

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self) -> Any:
        return json.loads(self.content)

    def __repr__(self) -> str:
        return f"<Response [{self.status_code}] {self.url}>"


class HTTPError(Exception):
    """Raised by clients for 4xx/5xx responses (scrapelib.HTTPError stand-in)."""

    def __init__(self, response: Response):
        self.response = response
        super().__init__(f"{response.status_code} while retrieving {response.url}")


class FetchClient:
    """Protocol base. ``request`` returns a Response or raises HTTPError."""

    def request(self, method: str = "GET", url: str = "", data: Optional[dict] = None,
                headers: Optional[dict] = None, verify: bool = True,
                timeout: Optional[float] = None) -> Response:  # pragma: no cover
        raise NotImplementedError


class SyntheticClient(FetchClient):
    """Deterministic resolver over a synthetic web — the test/bench fetch path.

    ``resolver(url) -> dict | None`` returns a web_pages-shaped row
    (``status:int, body:bytes, flaky_until:int, latency_ms:int``) or None for
    a 404.
    """

    def __init__(self, resolver: Callable[[str], Optional[Dict[str, Any]]]):
        self.resolver = resolver
        self.fetch_count = 0
        self._attempts: Dict[str, int] = {}

    def request(self, method: str = "GET", url: str = "", data: Optional[dict] = None,
                headers: Optional[dict] = None, verify: bool = True,
                timeout: Optional[float] = None) -> Response:
        self.fetch_count += 1
        row = self.resolver(url)
        if row is None:
            resp = Response(url, 404, b"not found")
            raise HTTPError(resp)
        attempt = self._attempts.get(url, 0)
        self._attempts[url] = attempt + 1
        status = int(row.get("status", 200))
        body = row.get("body", b"")
        if isinstance(body, str):
            body = body.encode()
        if attempt < int(row.get("flaky_until", 0) or 0):
            # deterministic flakiness: body missing the accept marker
            body = b"__FLAKY__ try again later"
        resp = Response(url, status, body)
        if status >= 400:
            raise HTTPError(resp)
        return resp


class TableResolver:
    """Resolve URLs from a materialized web_pages mapping (small fixtures)."""

    def __init__(self, pages: Dict[str, Dict[str, Any]]):
        self.pages = pages

    def __call__(self, url: str) -> Optional[Dict[str, Any]]:
        return self.pages.get(url)


class RequestsClient(FetchClient):  # pragma: no cover - no network in sandbox
    """Real-HTTP client: transport retries + global requests-per-minute
    throttle (reference defaults: rpm=60, timeout=5s, retries=0/10s —
    ``cli.py:33-49``)."""

    def __init__(self, requests_per_minute: int = 60, retry_attempts: int = 0,
                 retry_wait_seconds: float = 10.0, timeout: float = 5.0,
                 user_agent: str = "spatula-ray", headers: Optional[dict] = None,
                 verify: bool = True):
        import requests

        self.session = requests.Session()
        self.session.headers["User-Agent"] = user_agent
        self.session.headers.update(headers or {})
        self.rpm = requests_per_minute
        self.retry_attempts = retry_attempts
        self.retry_wait_seconds = retry_wait_seconds
        self.timeout = timeout
        # client-level TLS-verification default (CLI --no-verify wires here,
        # mirroring the reference Scraper's verify flag); a per-request
        # verify=False still wins
        self.verify = verify
        self.fetch_count = 0
        self._last_request = 0.0

    def request(self, method: str = "GET", url: str = "", data: Optional[dict] = None,
                headers: Optional[dict] = None, verify: bool = True,
                timeout: Optional[float] = None) -> Response:
        verify = verify and self.verify
        if self.rpm:
            wait = 60.0 / self.rpm - (time.time() - self._last_request)
            if wait > 0:
                time.sleep(wait)
        attempts = self.retry_attempts + 1
        last_exc: Optional[Exception] = None
        for i in range(attempts):
            try:
                self._last_request = time.time()
                self.fetch_count += 1
                r = self.session.request(method, url, data=data, headers=headers,
                                         verify=verify, timeout=timeout or self.timeout)
                resp = Response(r.url, r.status_code, r.content, dict(r.headers))
                if r.status_code >= 400:
                    raise HTTPError(resp)
                return resp
            except HTTPError:
                raise
            except Exception as e:  # transport error
                last_exc = e
                if i + 1 < attempts:
                    time.sleep(self.retry_wait_seconds)
        raise last_exc  # type: ignore[misc]
