#!/usr/bin/env python3
"""spatula-ray benchmark: crawl and operator-suite workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload crawl_open --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

Each workload runs in fresh session processes (``perfbench/session.py``),
each with its own Ray session sized to what ``nproc`` prints. A
run repeats whole rounds of the workload's operations until ``--seconds``
of operation time have been measured (at least one round). With
``--trace 1`` a run makes one untraced round and one traced round; it
reports the per-layer figures of the traced round and the traced round's
slowdown against the untraced one. Every output is checked after its
clock stops, against computations made apart from the engine
(``perfbench/checks.py``).

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Progress goes to stderr; session logs go to ``.pbw/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".pbw")   # short: Ray's socket paths live below
# a byte-for-byte copy of the repository's sf0.01 test tables, which the
# correctness gate reads; SHA256SUMS beside them pins the bytes
SUITE_DATA = os.path.join(HERE, "data", "sf0.01")

# -- workloads ---------------------------------------------------------------

PAGE = dict(links_per_page=10, text_words=250, media_per_page=3)
CRAWL_OPEN = dict(
    spec=dict(n_hosts=8, pages_per_host=1500, **PAGE),
    depth=6,
    config=dict(dedup="cuckoo", n_filter_shards=8, n_gates=4,
                filter_capacity=1 << 21, batch_size=1024),
    deadline_s=100)
CRAWL_POLITE = dict(
    spec=dict(n_hosts=8, pages_per_host=300, hot_frac=0.5, **PAGE),
    depth=6,
    config=dict(dedup="cuckoo", n_filter_shards=4, n_gates=4,
                filter_capacity=1 << 21, batch_size=1024,
                per_host_wave_quota=128,
                robots={"h1.bench.test": {"disallow": ["/p/1"]},
                        "h2.bench.test": {"disallow": ["/p/2"]}}),
    stop_after_waves=2,
    deadline_s=60)
SUITE_QUERIES = (
    "crawl_docs", "crawl_spans", "q1_pricing_summary",
    "top_orders_by_revenue", "purchase_followups", "exact_dedup",
    "dedup_paragraphs", "tfidf_top_terms", "cdc_chunks", "pack_sequences",
    "epoch_shuffle", "bpe_merges")
QUERY_REPS = 2              # executions per query; the fastest counts
QUERY_DEADLINE_S = 30       # for each execution of a query
SETUP_DEADLINE_S = 60
RUN_BUDGET_S = 150          # start no operation later than this
RUN_LIMIT_S = 165           # kill any session still running at this
OBJECT_STORE_BYTES = 512 << 20

WORKLOADS = ("crawl_open", "crawl_polite", "suite")
PER_LAYER_UNITS = {
    "pagerun.busy_s": "s", "pagerun.pages": "count",
    "pagerun.inproc_pages_per_s": "pages/s",
    "pagerun.frontier_row_s": "s", "pagerun.frontier_rows": "count",
    "dom.parse_s": "s", "dom.xpath_s": "s", "model.to_spans_s": "s",
    "client.fetch_s": "s", "web.synth_s": "s",
    "cuckoo.offer_s": "s", "cuckoo.commit_s": "s", "cuckoo.query_s": "s",
    "cuckoo.offered": "count", "cuckoo.inserted": "count",
    "hostgate.admit_s": "s", "hostgate.admitted": "count",
    "hostgate.denied": "count",
    "priority.offer_s": "s", "priority.seal_s": "s", "priority.query_s": "s",
    "priority.deferred": "count",
    "driver.waves": "count", "driver.non_runner_s": "s",
    "driver.checkpoint_s": "s", "driver.resume_s": "s",
    "driver.checkpoint_mb": "MB",
    "ray.worker_procs_peak": "count",
    "ops.map_s": "s", "ops.shuffle_s": "s", "ops.read_s": "s",
    "trace.overhead_pct": "%",
}
for _q in SUITE_QUERIES:
    PER_LAYER_UNITS[f"suite.{_q}_s"] = "s"
    PER_LAYER_UNITS[f"suite.{_q}.rows"] = "count"


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def ncpu() -> int:
    """What ``nproc`` prints: the CPUs this process may use, capped by
    ``OMP_NUM_THREADS`` where that is set."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


# -- processes ---------------------------------------------------------------

def _become_subreaper() -> None:
    """Orphans of a session (Ray's raylet, workers) re-parent to this
    process, so it can find, stop and reap every one of them."""
    libc = ctypes.CDLL(None, use_errno=True)
    PR_SET_CHILD_SUBREAPER = 36
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _proc_table() -> dict:
    """pid -> ppid for every visible process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                data = f.read()
        except OSError:
            continue
        out[int(name)] = int(data[data.rfind(b")") + 2:].split()[1])
    return out


def descendants(root: int) -> list:
    table = _proc_table()
    kids: dict = {}
    for pid, ppid in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _sample(pids) -> tuple:
    """(summed RSS bytes, Ray worker process count) over ``pids``."""
    rss = workers = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", "rb") as f:
                rss += int(f.read().split()[1]) * _PAGE
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                workers += f.read(5).startswith(b"ray::")
        except OSError:
            continue
    return rss, workers


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_all(grace_s: float = 10.0) -> None:
    """Wait for every descendant of this process to end; kill stragglers."""
    deadline = time.monotonic() + grace_s
    while True:
        _reap()
        left = descendants(os.getpid())
        if not left:
            return
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + grace_s
        time.sleep(0.1)


class Monitor(threading.Thread):
    """Samples summed RSS and Ray worker count of this process's
    descendants until stopped; samples taken while ``counting`` is off
    (a session writing outputs for the checkers) are ignored."""

    def __init__(self, period_s: float = 0.25):
        super().__init__(daemon=True)
        self.period_s = period_s
        self.peak_rss = 0
        self.peak_workers = 0
        self.counting = True
        self._stop_ev = threading.Event()

    def run(self) -> None:
        me = os.getpid()
        while not self._stop_ev.is_set():
            rss, workers = _sample(descendants(me))
            if self.counting:
                self.peak_rss = max(self.peak_rss, rss)
                self.peak_workers = max(self.peak_workers, workers)
            self._stop_ev.wait(self.period_s)

    def stop(self) -> None:
        self._stop_ev.set()
        self.join()


# -- sessions ----------------------------------------------------------------

class Runner:
    """Runs operations in session processes, with deadlines, and keeps
    the per-run figures."""

    def __init__(self, work: str):
        self.work = work
        self.t_start = time.monotonic()
        self.setups: list = []
        self.peak_rss = 0
        self.peak_workers = 0
        self.n_session = 0
        # Ray's unix socket paths (temp dir + up to 65 bytes) must fit in
        # 107 bytes; a checkout too deep for that gets a short temp dir
        self.ray_tmp = os.path.join(work, "r")
        self._tmp_owned = None
        if len(self.ray_tmp) > 42:
            self.ray_tmp = self._tmp_owned = tempfile.mkdtemp(prefix="pb-ray-")

    def close(self) -> None:
        stop_all()
        if self._tmp_owned:
            shutil.rmtree(self._tmp_owned, ignore_errors=True)

    def time_left(self) -> bool:
        return time.monotonic() - self.t_start < RUN_BUDGET_S

    def session(self, kind: str, ops: list, trace: bool,
                deadline_s: float, extra: dict = None) -> dict:
        """Run ``ops`` in fresh sessions until each is done or failed.
        Returns {op name: done/fail event} plus the sessions' trace sums."""
        results: dict = {}
        layers: dict = {}
        todo = list(ops)
        while todo:
            if not self.time_left():
                for op in todo:
                    results[op["name"]] = {"ev": "fail",
                                           "error": "run budget spent"}
                break
            self.n_session += 1
            out = os.path.join(self.work, f"s{self.n_session:03d}")
            os.makedirs(out)
            job = dict(root=ROOT, kind=kind, ops=todo, trace=trace,
                       ncpu=ncpu(), out=out, ray_tmp=self.ray_tmp,
                       object_store_bytes=OBJECT_STORE_BYTES, **(extra or {}))
            with open(os.path.join(out, "job.json"), "w") as f:
                json.dump(job, f)
            events = self._run_session(out, deadline_s)
            setup = [e for e in events if e["ev"] == "setup"]
            if setup and not trace:
                self.setups.append(setup[0]["setup_s"])
            for e in events:
                if e["ev"] in ("done", "fail"):
                    results[e["op"]] = dict(e, dir=out)
                elif e["ev"] == "trace":
                    for k, v in e["layers"].items():
                        layers[k] = layers.get(k, 0.0) + v
            started = [e["op"] for e in events if e["ev"] == "start"]
            if not setup:
                # a session that cannot start fails its first operation
                results[todo[0]["name"]] = {"ev": "fail",
                                            "error": "session setup failed"}
                started = [todo[0]["name"]]
            elif started and started[-1] not in results:
                results[started[-1]] = {"ev": "fail",
                                        "error": "deadline or crash"}
            todo = [op for op in todo if op["name"] not in results]
        return {"results": results, "layers": layers}

    def _run_session(self, out: str, deadline_s: float) -> list:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p]))
        events_path = os.path.join(out, "events.jsonl")
        mon = Monitor()
        with open(os.path.join(out, "session.log"), "w") as logf:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "session.py"),
                 os.path.join(out, "job.json")],
                stdout=logf, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                start_new_session=True)
            mon.start()
            t_phase = time.monotonic()
            limit = SETUP_DEADLINE_S
            n_seen = 0
            while proc.poll() is None:
                events = _read_events(events_path)
                if len(events) != n_seen:
                    n_seen = len(events)
                    t_phase = time.monotonic()
                    limit = deadline_s
                    mon.counting = events[-1]["ev"] != "measured"
                now = time.monotonic()
                if (now - t_phase > limit
                        or now - self.t_start > RUN_LIMIT_S):
                    log(f"session {out}: deadline {limit}s passed; killing")
                    for pid in [proc.pid] + descendants(proc.pid):
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                    proc.wait()
                    break
                time.sleep(0.1)
            stop_all()
            mon.stop()
        self.peak_rss = max(self.peak_rss, mon.peak_rss)
        self.peak_workers = max(self.peak_workers, mon.peak_workers)
        return _read_events(events_path)


def _read_events(path: str) -> list:
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        return []
    out = []
    for line in lines:
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line still being written
    return out


def _dir_mb(path: str) -> float:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total / 1e6


# -- workloads ---------------------------------------------------------------

class Round:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.wall_s = 0.0
        self.ops = 0         # pages fetched, or queries answered
        self.crawl_s = 0.0   # crawl wall time (the doc-web crawl on suite)
        self.layers: dict = {}
        self.detail: dict = {}


def formula_input(w: dict, seed: int) -> tuple:
    """The formula web of ``seed`` and its BFS: the first web seeded
    seed*1000, seed*1000+1, ... whose BFS has the workload's ``depth``
    levels, so that every seed crawls in the same number of waves."""
    from perfbench import checks

    for k in range(1000):
        spec = dict(w["spec"], seed=seed * 1000 + k)
        bfs = checks.formula_bfs(spec, w["config"].get("robots"))
        if len(bfs[0]) == w["depth"]:
            return spec, bfs
    raise RuntimeError(f"no formula web of depth {w['depth']} for {seed}")


def crawl_round(runner: Runner, name: str, spec: dict, trace: bool,
                bfs) -> Round:
    from perfbench import checks

    w = CRAWL_OPEN if name == "crawl_open" else CRAWL_POLITE
    cfg = dict(w["config"])
    r = Round()
    levels, denied = bfs
    r.attempted = sum(len(lv) for lv in levels)
    legs = []
    ckpt = None
    if name == "crawl_polite":
        ckpt = os.path.join(runner.work, f"ckpt{runner.n_session:03d}")
        cfg["checkpoint_dir"] = ckpt
        legs.append(dict(kind="crawl", name="leg1", spec=spec,
                         config=dict(cfg, max_waves=w["stop_after_waves"])))
        legs.append(dict(kind="crawl", name="resume", spec=spec, config=cfg,
                         dump=True))
    else:
        legs.append(dict(kind="crawl", name="crawl", spec=spec, config=cfg,
                         dump=True))
    s = runner.session("crawl", legs, trace, w["deadline_s"])
    r.layers = s["layers"]
    done = [s["results"][leg["name"]] for leg in legs]
    for leg, ev in zip(legs, done):
        if ev["ev"] != "done":
            log(f"{name} {leg['name']} failed: {ev.get('error')}")
            r.failed = r.attempted
            return r
    r.crawl_s = r.wall_s = sum(ev["wall_s"] for ev in done)
    last = done[-1]
    r.ops = last["counters"].get("fetched", 0)
    r.detail = {"waves": last["waves"], "leg_s": [e["wall_s"] for e in done],
                "counters": last["counters"]}
    if ckpt:
        r.detail["checkpoint_mb"] = _dir_mb(ckpt)
        shutil.rmtree(ckpt, ignore_errors=True)
    with open(os.path.join(last["dir"], f"{legs[-1]['name']}.crawl.json")) as f:
        out = json.load(f)
    problems = checks.check_crawl(
        spec, out["page_log"], checks.docs_from_records(out["records"]),
        last["counters"], robots=cfg.get("robots"),
        expect_deferrals=name == "crawl_polite", bfs=bfs)
    if problems:
        r.problems = [f"{name}: {p}" for p in problems]
        r.failed = r.attempted
    return r


def suite_round(runner: Runner, data_dir: str, oracle, trace: bool,
                reps: int) -> Round:
    import pandas as pd

    from perfbench import checks

    r = Round()
    ops = [dict(kind="query", name=q) for q in SUITE_QUERIES]
    s = runner.session("suite", ops, trace, QUERY_DEADLINE_S,
                       extra={"data_dir": data_dir,
                              "query_reps": reps})
    r.layers = s["layers"]
    r.attempted = len(ops)
    for q in SUITE_QUERIES:
        ev = s["results"][q]
        if ev["ev"] != "done":
            log(f"suite {q} failed: {ev.get('error')}")
            r.failed += 1
            continue
        r.wall_s += ev["wall_s"]
        r.ops += 1
        r.detail[q] = ev
        # written by this run's session
        got = pd.read_pickle(os.path.join(ev["dir"], f"{q}.pkl"))
        problems = checks.check_query(oracle, q, got)
        if problems:
            r.problems.append(f"{q}: {problems}")
            r.failed += 1
    if s["results"]["crawl_docs"]["ev"] == "done":
        r.crawl_s = s["results"]["crawl_docs"]["wall_s"]
    return r


def inproc_pages_per_s(spec: dict, levels: list, n: int = 512,
                       reps: int = 3) -> float:
    """Replay one BFS wave through ``PageRunner`` in this process (one
    core, no Ray): median pages/s over ``reps`` calls."""
    from spatula_ray.engine.driver import build_registry, seeds_to_table
    from spatula_ray.engine.pagerun import PageRunner
    from spatula_ray.web import FormulaResolverFactory, SpiderPage

    wave = max(levels, key=len)[:n]
    batch = seeds_to_table([SpiderPage({"url": u}) for u in wave])
    runner = PageRunner(build_registry(SpiderPage),
                        FormulaResolverFactory(**spec))
    runner(batch.slice(0, 16))
    rates = []
    for _ in range(reps):
        t = time.perf_counter()
        runner(batch)
        rates.append(batch.num_rows / (time.perf_counter() - t))
    return statistics.median(rates)


def per_layer(name: str, untraced: Round, traced: Round, runner: Runner,
              spec: dict, levels: list) -> dict:
    L = traced.layers
    m = {k: 0.0 for k in PER_LAYER_UNITS}
    for k in m:
        if k in L:
            m[k] = L[k]
    m["client.fetch_s"] = L.get("client.request_s", 0.0) - L.get(
        "web.synth_s", 0.0)
    m["driver.checkpoint_s"] = (L.get("driver.write_parquet_s", 0.0)
                                + L.get("cuckoo.snapshot_s", 0.0))
    m["driver.non_runner_s"] = traced.crawl_s - L.get("pagerun.busy_s", 0.0)
    m["ray.worker_procs_peak"] = runner.peak_workers
    m["pagerun.inproc_pages_per_s"] = inproc_pages_per_s(spec, levels)
    if untraced.wall_s:
        m["trace.overhead_pct"] = 100.0 * (traced.wall_s / untraced.wall_s
                                           - 1.0)
    if name == "suite":
        m["driver.waves"] = traced.detail.get("crawl_docs", {}).get("waves", 0)
        for q, ev in traced.detail.items():
            m[f"suite.{q}_s"] = ev["wall_s"]
            m[f"suite.{q}.rows"] = ev["rows"]
            for op, sec in ev.get("operators", {}).items():
                m[f"ops.{_op_kind(op)}_s"] += sec
    else:
        m["driver.waves"] = traced.detail.get("waves", 0)
        m["driver.checkpoint_mb"] = untraced.detail.get("checkpoint_mb", 0.0)
        if name == "crawl_polite" and traced.detail:
            m["driver.resume_s"] = traced.detail["leg_s"][-1]
    return m


def _op_kind(op: str) -> str:
    if any(k in op for k in ("Read", "Input")):
        return "read"
    if any(k in op for k in ("Repartition", "Aggregate", "Sort", "Shuffle",
                             "Join", "Zip", "Hash")):
        return "shuffle"
    return "map"


# -- main --------------------------------------------------------------------

def _check_tree() -> None:
    missing = [p for p in ("spatula_ray", "__ray_entry__.py",
                           os.path.join("scripts", "check_correctness.py"))
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log(f"not a spatula-ray checkout (missing {missing}) under {ROOT}")
        sys.exit(2)


def suite_data() -> str:
    """The suite's table dir, after checking its bytes against SHA256SUMS."""
    with open(os.path.join(SUITE_DATA, "SHA256SUMS")) as f:
        sums = [line.split() for line in f if line.strip()]
    for digest, fname in sums:
        with open(os.path.join(SUITE_DATA, fname), "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != digest:
                raise SystemExit(f"{fname} differs from its SHA256SUMS entry")
    return SUITE_DATA


def run(args) -> dict:
    from perfbench import checks

    work = os.path.join(WORK, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    name = args.workload
    data_dir = oracle = None
    if name == "suite":
        data_dir = suite_data()
        oracle = checks.Oracle(data_dir)
    bad = checks.selfcheck(oracle)
    if bad:
        raise SystemExit(f"checker self-check failed: {bad}")
    spec = bfs = None
    if name != "suite" or args.trace:
        # the suite's traced run replays a crawl_open wave in-process
        spec, bfs = formula_input(CRAWL_POLITE if name == "crawl_polite"
                                  else CRAWL_OPEN, args.seed)

    runner = Runner(work)
    rounds: list = []
    traced = None
    try:
        def one(trace: bool) -> Round:
            if name == "suite":
                # a traced run makes two rounds, so each query runs once
                return suite_round(runner, data_dir, oracle, trace,
                                   1 if args.trace else QUERY_REPS)
            return crawl_round(runner, name, spec, trace, bfs)

        measured = 0.0
        while not rounds or (measured < args.seconds and not args.trace
                             and runner.time_left()):
            rounds.append(one(False))
            measured += rounds[-1].wall_s
            log(f"{name} round {len(rounds)}: {rounds[-1].wall_s:.2f}s "
                f"ops={rounds[-1].ops} failed={rounds[-1].failed} "
                f"{rounds[-1].detail.get('waves', '')}")
        if args.trace:
            traced = one(True)
            log(f"{name} traced round: {traced.wall_s:.2f}s")
    finally:
        runner.close()
        if oracle is not None:
            oracle.close()

    all_rounds = rounds + ([traced] if traced else [])
    problems = [p for r in all_rounds for p in r.problems]
    for p in problems:
        log(f"CHECK FAILED {p}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in all_rounds),
        "failed": sum(r.failed for r in all_rounds),
    }
    if args.trace:
        metrics = per_layer(name, rounds[0], traced, runner, spec, bfs[0])
        units = PER_LAYER_UNITS
    else:
        ok = [r for r in rounds if not r.failed] or rounds
        wall = sum(r.wall_s for r in ok)
        metrics = {
            "setup_s": statistics.median(runner.setups) if runner.setups
            else 0.0,
            "wall_s": statistics.median(r.wall_s for r in ok),
            "ops_per_s": sum(r.ops for r in ok) / wall if wall else 0.0,
            "peak_rss_mb": runner.peak_rss / 1e6,
        }
        units = {"setup_s": "s", "wall_s": "s", "ops_per_s": "ops/s",
                 "peak_rss_mb": "MB"}
    result["metrics"] = {k: {"value": float(v), "unit": units[k]}
                         for k, v in metrics.items()}
    if result["failed"] or problems:
        log(f"session logs kept in {work}")
    else:
        shutil.rmtree(work, ignore_errors=True)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="only show that each checker rejects wrong output")
    args = ap.parse_args()
    _check_tree()
    sys.path.insert(0, ROOT)
    if args.selfcheck:
        from perfbench import checks

        oracle = checks.Oracle(suite_data())
        try:
            bad = checks.selfcheck(oracle)
        finally:
            oracle.close()
        for b in bad:
            log(f"SELF-CHECK FAILED {b}")
        log("self-check " + ("failed" if bad else "passed"))
        return 1 if bad else 0
    if not args.workload:
        ap.error("--workload is required")
    _become_subreaper()
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
