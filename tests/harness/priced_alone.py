"""Oracle for the planner's memo: every point priced alone, in a fresh cache.

Each :class:`~repro.harness.SweepCache` layer caches a pure function of its
key, so a query that shares one cache across its points must give the bits
of pricing and bounding each point in a cache of its own.  A memo key that
misses something its value depends on shows up as a difference.
"""

from contextlib import contextmanager

import pytest

from repro.harness import SweepCache, sweep, tuner


def _alone(price):
    def priced(workload, point, *, cache=None):
        return price(workload, point, cache=SweepCache())

    return priced


@contextmanager
def priced_alone():
    """Within the block, ``run_sweep`` and ``autotune`` give each point its own cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "evaluate_point", _alone(sweep.evaluate_point))
        patch.setattr(tuner, "evaluate_point", _alone(tuner.evaluate_point))
        patch.setattr(tuner, "bound_point", _alone(tuner.bound_point))
        yield
