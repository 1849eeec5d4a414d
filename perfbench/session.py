"""One Ray session of a benchmark run: set up, run operations, report.

Usage: ``python3 perfbench/session.py JOB.json``. The job file names the
operations (crawl legs or suite queries), the CPU count, whether to trace,
and the directory for results. The session appends one JSON line per
event to ``<out>/events.jsonl``:

* ``{"ev": "setup", "setup_s": ...}`` once Ray is up and warm;
* ``{"ev": "start", "op": ...}``, ``{"ev": "measured", "op": ...}`` when
  its clock stops, and then ``{"ev": "done", "op": ..., "wall_s": ...}``
  or ``{"ev": "fail", "op": ..., "error": ...}`` per operation;
* ``{"ev": "trace", "layers": {...}}`` after the last one of a traced
  session.

Only the operation itself is timed, up to its output in memory. Outputs
for the checkers are written after its clock stops. The session stops after the first failed operation,
and the caller starts a fresh one for the rest.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


class Session:
    def __init__(self, job: dict):
        self.job = job
        self.out = job["out"]
        self.walls: dict = {}  # query -> wall time of each execution
        self._events = open(os.path.join(self.out, "events.jsonl"), "a")

    def event(self, **ev) -> None:
        self._events.write(json.dumps(ev) + "\n")
        self._events.flush()

    def close(self) -> None:
        self._events.close()

    # -- setup -------------------------------------------------------------
    def setup(self) -> None:
        phases = {"python_s": time.perf_counter() - _T0}
        import ray
        import ray.data

        phases["import_ray_s"] = time.perf_counter() - _T0
        job = self.job
        if job["trace"]:
            from perfbench import traced, tracing

            tracing.install_driver()
            traced.route()
        ray.init(address="local", num_cpus=job["ncpu"],
                 object_store_memory=job["object_store_bytes"],
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", namespace="perfbench",
                 _temp_dir=job["ray_tmp"])
        phases["ray_init_s"] = time.perf_counter() - _T0
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        # spawn the worker pool and import Ray Data in it before any clock
        ray.data.range(job["ncpu"] * 4).map_batches(
            lambda b: b, batch_size=1).materialize()
        phases["warm_s"] = time.perf_counter() - _T0
        if job["kind"] == "suite":
            import __ray_entry__  # noqa: F401
        else:
            import spatula_ray.engine  # noqa: F401
        self.collector = None
        if job["trace"]:
            from perfbench.tracing import COLLECTOR, TraceCollector

            self.collector = ray.remote(num_cpus=0)(TraceCollector).options(
                name=COLLECTOR).remote()
            ray.get(self.collector.totals.remote())
        self.event(ev="setup", setup_s=time.perf_counter() - _T0,
                   phases=phases)

    # -- operations --------------------------------------------------------
    def run(self) -> int:
        # whole passes over the operations, so that the executions of one
        # query lie a pass apart and a stretch of host noise seldom meets
        # all of them
        reps = self.job.get("query_reps", 1)
        for rep in range(reps):
            for op in self.job["ops"]:
                self.event(ev="start", op=op["name"])
                try:
                    res = getattr(self, "op_" + op["kind"])(op)
                except Exception as e:  # the run goes on in a fresh session
                    traceback.print_exc()
                    self.event(ev="fail", op=op["name"],
                               error=f"{type(e).__name__}: {e}"[:500])
                    return 3
                if rep == reps - 1:
                    self.event(ev="done", op=op["name"], **res)
        if self.collector is not None:
            self.event(ev="trace", layers=self.trace_totals())
        return 0

    def trace_totals(self) -> dict:
        import ray

        from perfbench.tracing import REC

        # the workers' last deltas are fire-and-forget calls; read until
        # two reads a moment apart agree
        prev, cur = None, ray.get(self.collector.totals.remote())
        while cur != prev:
            time.sleep(0.3)
            prev, cur = cur, ray.get(self.collector.totals.remote())
        for k, v in REC.take().items():
            cur[k] = cur.get(k, 0.0) + v
        return cur

    def op_crawl(self, op: dict) -> dict:
        from spatula_ray.engine import CrawlConfig, crawl
        from spatula_ray.engine.driver import build_registry
        from spatula_ray.web import (FormulaResolverFactory, SpiderPage,
                                     spider_seeds)

        spec = op["spec"]
        cfg = CrawlConfig(min_parallelism=self.job["ncpu"], **op["config"])
        t = time.perf_counter()
        res = crawl(spider_seeds(spec["n_hosts"]), build_registry(SpiderPage),
                    FormulaResolverFactory(**spec), cfg)
        # without a checkpoint, docs and page_log are lazy plans over the
        # waves' blocks: the crawl's output exists once they are executed
        docs, page_log = res.docs.materialize(), res.page_log.materialize()
        wall = time.perf_counter() - t
        self.event(ev="measured", op=op["name"])
        out = {"wall_s": wall, "waves": res.waves,
               "counters": {k: v for k, v in res.counters.items()
                            if isinstance(v, int)}}
        if op.get("dump"):
            self._dump_crawl(docs, page_log, op["name"])
        return out

    def _dump_crawl(self, docs, page_log, name: str) -> None:
        log = []
        for b in page_log.select_columns(["source_url", "status"]) \
                .iter_batches(batch_format="pyarrow"):
            log.extend(zip(b["source_url"].to_pylist(), b["status"].to_pylist()))
        recs = []
        for b in docs.select_columns(["record_json"]) \
                .iter_batches(batch_format="pyarrow"):
            recs.extend(bytes(r).decode() for r in b["record_json"].to_pylist())
        with open(os.path.join(self.out, f"{name}.crawl.json"), "w") as f:
            json.dump({"page_log": log, "records": recs}, f)

    def op_query(self, op: dict) -> dict:
        import pandas as pd
        import pyarrow as pa

        import __ray_entry__

        from spatula_ray.pipelines import docweb

        fn = __ray_entry__.queries()[op["name"]]
        if op["name"] == "crawl_docs":
            docweb._CRAWL_CACHE.clear()  # each execution crawls
        t = time.perf_counter()
        res = fn(self.job["data_dir"])
        if not isinstance(res, (pa.Table, pd.DataFrame)):
            res = res.materialize()
        walls = self.walls.setdefault(op["name"], [])
        walls.append(time.perf_counter() - t)
        self.event(ev="measured", op=op["name"])
        # the least disturbed execution: on a shared host the others
        # mostly measure other tenants
        out = {"wall_s": min(walls), "walls": walls}
        if isinstance(res, pd.DataFrame):
            df = res
        elif isinstance(res, pa.Table):
            df = res.to_pandas()
        else:
            df = res.to_pandas()
            out["operators"] = _operator_times(res)
        out["rows"] = len(df)
        if op["name"] == "crawl_docs":
            crawls = list(docweb._CRAWL_CACHE.values())
            out["pages"] = sum(r.counters.get("pages", 0) for r in crawls)
            out["waves"] = sum(r.waves for r in crawls)
        df.to_pickle(os.path.join(self.out, f"{op['name']}.pkl"))
        return out


def _operator_times(ds) -> dict:
    """Summed task wall time per Ray Data operator of an executed dataset."""
    out: dict = {}

    def walk(s) -> None:
        for op in s.operators_stats:
            wall = (op.wall_time or {}).get("sum") or 0.0
            out[op.operator_name] = out.get(op.operator_name, 0.0) + wall
        for p in s.parents:
            walk(p)

    walk(ds._get_stats_summary())
    return out


def main() -> int:
    with open(sys.argv[1]) as f:
        job = json.load(f)
    sys.path.insert(0, job["root"])
    s = Session(job)
    try:
        s.setup()
        return s.run()
    finally:
        import ray

        ray.shutdown()
        s.close()


if __name__ == "__main__":
    sys.exit(main())
