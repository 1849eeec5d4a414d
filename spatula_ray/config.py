"""Engine config knobs (reference: ``/root/reference/src/spatula/config.py``).

Module-level and mutable, like the reference, so tests can zero the retry
wait. Env-overridable with SPATULA_RAY_* (the reference uses SPATULA_*).
"""

import os

REJECTED_RESPONSE_RETRIES = int(os.environ.get("SPATULA_RAY_REJECTED_RESPONSE_RETRIES", 1))
RETRY_WAIT_SECONDS = float(os.environ.get("SPATULA_RAY_RETRY_WAIT_SECONDS", 5))


def cluster_cpus() -> int:
    """CPUs of the connected Ray cluster (32 if it reports none). The
    crawl sizes its state hosts by it and the graph engine its shards."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 32)))
