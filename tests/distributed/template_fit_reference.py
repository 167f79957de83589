"""Reference template fit: the scalar bump-and-recheck loop, kept verbatim.

``repro.distributed.schedule`` fits each cross-bucket template with a swept
lower bound plus an exact scalar finisher.  This module keeps the original
loop, which restarts the scan over the template's phases from ``gate`` after
every bump, so the equality suites can hold the fast fit to it with ``==`` on
floats.  It is test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math
from bisect import bisect_right


def _first_conflict_end(
    spans: list[tuple[float, float]], start: float, end: float
) -> float | None:
    """End of the earliest committed span overlapping ``[start, end)``, if any.

    ``spans`` is sorted and pairwise non-overlapping (the scheduler only ever
    commits conflict-free spans), so at most two candidates need checking: the
    last span starting at or before ``start`` (it may straddle ``start``) and
    the first span starting after it (it may begin before ``end``).
    """
    tolerance = 1e-12 * max(1.0, abs(end))
    i = bisect_right(spans, (start, math.inf))
    if i > 0 and spans[i - 1][1] > start + tolerance:
        return spans[i - 1][1]
    if i < len(spans) and spans[i][0] < end - tolerance:
        return spans[i][1]
    return None


def _earliest_template_fit(
    layout: list[tuple[float, float, str]],
    gate: float,
    link_spans: dict[str, list[tuple[float, float]]],
) -> float:
    """Earliest ``t >= gate`` at which the rigid template fits on every link.

    A candidate start is infeasible when any template span overlaps a span
    already committed to its link; the only way to clear a conflict while
    moving forward in time is to push the template until the conflicting
    phase starts at the committed span's end, so the bump-and-recheck loop
    finds the *minimal* feasible start.  Because the serial-lane start (after
    every earlier bucket has fully drained) is always feasible, this start is
    never later than the serial lane's — cross-bucket pipelining cannot lose.
    """
    t = gate
    while True:
        bump = None
        for offset, seconds, link in layout:
            spans = link_spans.get(link)
            if seconds <= 0.0 or spans is None:
                continue
            conflict_end = _first_conflict_end(spans, t + offset, t + offset + seconds)
            if conflict_end is not None:
                bump = conflict_end - offset
                break
        if bump is None:
            return t
        t = bump
