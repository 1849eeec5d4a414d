"""Importing this module wraps the layer entry points of the importing
process (see :mod:`perfbench.tracing`).

The classes below change nothing in the classes they extend. A traced
session makes the crawl driver build its runner and actors from them
(:func:`route`). Ray pickles them by reference, so every worker that runs
one imports this module first and is traced from then on, with no
runtime environment and no worker setup hook, either of which slows
every worker start.
"""

from perfbench.tracing import install

install()

from spatula_ray.engine import cuckoo, driver, hostgate, pagerun  # noqa: E402
from spatula_ray.engine import priority  # noqa: E402


class PageRunner(pagerun.PageRunner):
    pass


class SeenFilterShard(cuckoo.SeenFilterShard):
    pass


class HostGate(hostgate.HostGate):
    pass


class PriorityShard(priority.PriorityShard):
    pass


def route() -> None:
    """Make ``crawl()`` build the runner and the shard actors from the
    classes above."""
    driver.PageRunner = PageRunner
    driver.SeenFilterShard = SeenFilterShard
    driver.HostGate = HostGate
    priority.PriorityShard = PriorityShard
