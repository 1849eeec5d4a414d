"""Per-batch stage classes run as plain Ray Data tasks, so a stage finishes
at any CPU count, and the graph engine sizes its shards to the cluster's
CPUs. This test starts its own 1-CPU Ray session in a child process, runs
the stage-class queries that an actor pool could not finish at that size,
the graph queries (one shard each here, four in the 4-CPU session of
the oracle tests) and bucket-exchange queries (one bucket here), and
checks each against its DuckDB oracle with the
correctness gate's own ``compare()``. The child runs in its own process
group under a hard timeout, so a hang fails this test instead of stalling
the suite.

Run the child directly with ``python tests/test_one_cpu.py [sf_dir]``: it
prints one JSON object, query name -> list of problems (empty when the
output equals the oracle)."""

import json
import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.01"
QUERIES = ["text_stats", "minhash_dup_pairs", "ann_topk", "lsh_ann_topk",
           "hashed_linear_score", "doc_pagerank", "host_rank_weighted",
           "doc_hits", "hyperball_reach", "resolve_redirects",
           "exact_dedup", "dedup_paragraphs", "simhash_dup_pairs",
           "heavy_hitters", "distinct_shingles_hll", "dust_rules"]
TIMEOUT_S = 240


def _child(sf_dir: str) -> dict:
    sys.path[:0] = [REPO, os.path.join(REPO, "scripts")]
    import duckdb
    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod
    from check_correctness import compare, to_pandas

    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    qs, oracles = entrymod.queries(), entrymod.oracle_sql()
    report = {name: compare(name, to_pandas(qs[name](sf_dir)),
                            con.execute(oracles[name]).df())
              for name in QUERIES}
    ray.shutdown()
    return report


def test_task_stages_finish_in_one_cpu_session():
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), SF],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=REPO, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the child's Ray head and workers share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"1-CPU session gave no result in {TIMEOUT_S} s")
    assert proc.returncode == 0, err[-4000:]
    report = json.loads(out.strip().splitlines()[-1])
    assert report == {name: [] for name in QUERIES}


if __name__ == "__main__":
    print(json.dumps(_child(sys.argv[1] if len(sys.argv) > 1 else SF)))
