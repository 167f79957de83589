"""SIDCo: Sparsity-Inducing Distribution-based Compression (Algorithm 1).

``SIDCo`` is the paper's primary contribution: a linear-time, threshold-based
gradient sparsifier.  Each call

1. estimates a threshold by fitting the configured SID to the absolute
   gradient with the current number of stages (multi-stage peak-over-threshold
   fitting when the controller has escalated beyond one stage),
2. keeps every gradient element whose magnitude is at least the threshold,
3. reports the achieved selection to the stage controller, which adapts the
   number of stages every ``Q`` iterations so the achieved ratio stays within
   the tolerance band around the target.

Three variants correspond to the paper's SIDCo-E (exponential), SIDCo-P
(multi-stage generalized Pareto) and SIDCo-GP (gamma first stage followed by
generalized Pareto stages).
"""

from __future__ import annotations

import numpy as np

from ..compressors.base import BucketedFit, Compressor, OpRecord
from ..compressors.bucketed import grouped, segments
from ..stats.fitting import SIDName, validate_sid
from .stages import StageController, StageControllerConfig
from .threshold import DEFAULT_FIRST_STAGE_RATIO

#: Map from the paper's variant names to the first-stage SID they use.
VARIANT_TO_SID: dict[str, SIDName] = {
    "sidco-e": "exponential",
    "sidco-gp": "gamma",
    "sidco-p": "gpareto",
}


class SIDCo(Compressor):
    """Statistical threshold sparsifier with adaptive multi-stage fitting.

    Parameters
    ----------
    sid:
        First-stage sparsity-inducing distribution: ``"exponential"``,
        ``"gamma"`` or ``"gpareto"``.
    first_stage_ratio:
        Intermediate compression ratio used by the first stage when more than
        one stage is active (0.25 in the paper's evaluation).
    controller:
        Stage-adaptation configuration (``Q``, tolerance band, max stages,
        initial stages).  A fresh :class:`StageController` is built from it.
    """

    name = "sidco"

    def __init__(
        self,
        sid: SIDName = "exponential",
        *,
        first_stage_ratio: float = DEFAULT_FIRST_STAGE_RATIO,
        controller: StageControllerConfig | None = None,
    ) -> None:
        self.sid = validate_sid(sid)
        if not 0.0 < first_stage_ratio < 1.0:
            raise ValueError(f"first_stage_ratio must be in (0, 1), got {first_stage_ratio}")
        self.first_stage_ratio = first_stage_ratio
        self.controller = StageController(controller or StageControllerConfig())
        self.name = f"sidco-{_sid_suffix(self.sid)}"

    @classmethod
    def from_variant(cls, variant: str, **kwargs) -> "SIDCo":
        """Build a SIDCo instance from a paper variant name (``sidco-e``/``-gp``/``-p``)."""
        key = variant.lower()
        if key not in VARIANT_TO_SID:
            raise ValueError(f"unknown SIDCo variant {variant!r}; expected one of {sorted(VARIANT_TO_SID)}")
        return cls(sid=VARIANT_TO_SID[key], **kwargs)

    def reset(self) -> None:
        self.controller.reset()

    @property
    def num_stages(self) -> int:
        """Current number of fitting stages chosen by the controller."""
        return self.controller.num_stages

    @grouped
    def fit_all_buckets(self, rows: np.ndarray, layout, ratio: float, group) -> list[BucketedFit]:
        """Batched per-bucket SID fitting, streamed block by block over the buckets.

        One estimator pass runs per distinct stage count in the group.  A row
        with no tail to fit (one element, or no nonzero magnitude) keeps the
        ``k`` largest magnitudes instead, marked ``degenerate``.  A NaN or
        infinite element raises ``ValueError``.  Each member's stage
        controller then observes its row's achieved selection once.
        """
        # Deferred import: repro.pipeline imports this module at load time.
        from ..pipeline.vectorized import estimate_multi_stage_bucketed

        d = layout.total_size
        fits: list[BucketedFit | None] = [None] * len(rows)
        stages = np.array([member.controller.num_stages for member in group])
        for num_stages in np.unique(stages).tolist():
            members = np.flatnonzero(stages == num_stages)
            part = rows if members.size == len(rows) else rows[members]
            estimate = estimate_multi_stage_bucketed(
                part, layout, ratio, self.sid, num_stages, first_stage_ratio=self.first_stage_ratio
            )
            segs = segments(layout, members.size)
            stages_used = estimate.stages_used.reshape(members.size, -1)
            metadata, ops = [], []
            for trace, nnz, used in zip(estimate.ops, segs.per_worker(estimate.bucket_nnz), stages_used):
                # The modelled trace keeps the whole-gradient compare and compaction.
                ops.append([_abs_pass(d), *trace, OpRecord("elementwise", d), OpRecord("compact", d, nnz)])
                metadata.append({
                    "sid": self.sid,
                    "num_stages_configured": num_stages,
                    "stages_used": int(used.max()),
                    "bucket_stages_used": used,
                })
            split = segs.split(part.ravel(), estimate.indices, estimate.bucket_nnz,
                               estimate.thresholds, ratio, ops, metadata)
            for g, fit, tail in zip(members.tolist(), split, estimate.has_tail.tolist()):
                fits[g] = fit if tail and d >= 2 else None
        target_k = self._target_k(d, ratio)
        for g, (member, row) in enumerate(zip(group, rows)):
            if fits[g] is None:
                fits[g] = self._fit_top_k(row, layout, ratio, target_k)
            member.controller.observe(int(fits[g].bucket_nnz.sum()), target_k)
        return fits

    def _fit_top_k(self, row: np.ndarray, layout, ratio: float, k: int) -> BucketedFit:
        """The ``k`` largest magnitudes of a row with no tail to fit, in ``argpartition`` order."""
        d = row.size
        magnitudes = np.abs(row)
        indices = np.arange(d) if k >= d else np.argpartition(magnitudes, d - k)[d - k :]
        threshold = float(magnitudes[indices].min())
        return BucketedFit(
            indices=indices,
            values=row[indices],
            bucket_nnz=np.bincount(layout.bucket_of(indices), minlength=layout.num_buckets),
            bucket_thresholds=np.full(layout.num_buckets, threshold),
            target_ratio=ratio,
            ops=[_abs_pass(d), OpRecord("elementwise", d), OpRecord("topk_select", d, k)],
            metadata={"sid": self.sid, "degenerate": True},
        )


def _sid_suffix(sid: str) -> str:
    return {"exponential": "e", "gamma": "gp", "gpareto": "p"}[sid]


def _abs_pass(size: int) -> OpRecord:
    return OpRecord("elementwise", size)
