"""Stage chaining and defaults of SIDCo's multi-stage threshold estimation (Sections 2.3 and 2.4).

A single-stage fit of one SID to the whole absolute gradient reads off the
``1 - delta`` quantile (Lemma 1).  For aggressive ratios that fit is
dominated by the near-zero bulk and misplaces the far tail, so the
multi-stage estimator applies the peak-over-threshold (PoT) argument of
extreme value theory (Lemma 2): compress to an intermediate ratio, re-fit the
exceedances, and compound per-stage ratios so the overall ratio equals the
target, ``delta = prod_m delta_m``.  The estimator is
:func:`repro.pipeline.vectorized.estimate_multi_stage_bucketed`; unbucketed
SIDCo is its one-bucket case.

Stage chaining follows the paper exactly:

* exponential first stage -> exponential on every later stage (Corollary 2.1),
* gamma first stage       -> generalized Pareto on later stages (Lemma 2),
* GP first stage          -> generalized Pareto on later stages (Lemma 2).
"""

from __future__ import annotations

from ..stats.fitting import SIDName, validate_sid

#: Default first-stage compression ratio used by the paper's evaluation (Section 4.1).
DEFAULT_FIRST_STAGE_RATIO = 0.25

#: Minimum number of exceedances required to fit another stage; below this the
#: estimator stops early and uses the last threshold (the fit would be noise).
MIN_STAGE_SAMPLE = 16


def stage_sid(first_stage: SIDName, stage_index: int) -> SIDName:
    """SID used at ``stage_index`` (0-based) given the first-stage choice."""
    validate_sid(first_stage)
    if stage_index == 0:
        return first_stage
    if first_stage == "exponential":
        return "exponential"
    return "gpareto"
