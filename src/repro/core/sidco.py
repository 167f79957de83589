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

from ..compressors.base import BucketedFit, Compressor, CompressionResult, OpRecord
from ..stats.fitting import SIDName, validate_sid
from .stages import StageController, StageControllerConfig
from .threshold import DEFAULT_FIRST_STAGE_RATIO, estimate_multi_stage

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

    def compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
        arr = self._validate(gradient, ratio)
        d = arr.size
        target_k = self._target_k(d, ratio)

        abs_grad = np.abs(arr)
        max_abs = float(abs_grad.max())
        if not np.isfinite(max_abs):
            raise ValueError("gradient contains NaN or infinite values")
        if d < 2 or max_abs == 0.0:
            # Degenerate input (single element, or no tail at all): there is
            # nothing to fit, so fall back to an exact-k selection instead of
            # handing the SID fitters an empty/ill-posed sample.
            result = self._result_from_topk(
                arr,
                target_k,
                ratio,
                ops=[_abs_pass(d)],
                metadata={"sid": self.sid, "degenerate": True},
            )
            self.controller.observe(result.achieved_k, target_k)
            return result

        estimate = estimate_multi_stage(
            abs_grad,
            ratio,
            self.sid,
            self.controller.num_stages,
            first_stage_ratio=self.first_stage_ratio,
        )
        result = self._result_from_threshold(
            arr,
            estimate.threshold,
            ratio,
            [_abs_pass(d), *estimate.ops],
            metadata={
                "sid": self.sid,
                "stages_used": estimate.stages_used,
                "stage_thresholds": estimate.stage_thresholds,
                "stage_ratios": estimate.stage_ratios,
                "num_stages_configured": self.controller.num_stages,
            },
        )
        self.controller.observe(result.achieved_k, target_k)
        return result

    def fit_all_buckets(self, gradient: np.ndarray, layout, ratio: float) -> BucketedFit | None:
        """Batched per-bucket SID fitting, streamed block by block over the buckets.

        Declines (returns ``None``) on degenerate gradients with no tail to
        fit; the pipeline then falls back to the whole-vector degenerate
        handling of :meth:`compress`.  A NaN or infinite element raises
        ``ValueError``.  The stage controller is *not* observed
        here — the pipeline observes the global achieved selection once per
        call, exactly like the unbucketed compressor.
        """
        # Deferred import: repro.pipeline imports this module at load time.
        from ..pipeline.vectorized import estimate_multi_stage_bucketed

        arr = np.asarray(gradient, dtype=np.float64).ravel()
        d = arr.size
        if d < 2:
            return None
        estimate = estimate_multi_stage_bucketed(
            arr,
            layout,
            ratio,
            self.sid,
            self.controller.num_stages,
            first_stage_ratio=self.first_stage_ratio,
        )
        if not estimate.has_tail:
            return None
        # The modelled trace keeps the whole-gradient compare and compaction.
        nnz = int(estimate.bucket_nnz.sum())
        ops = [_abs_pass(d), *estimate.ops, OpRecord("elementwise", d), OpRecord("compact", d, nnz)]
        return BucketedFit(
            indices=estimate.indices,
            values=arr[estimate.indices],
            bucket_nnz=estimate.bucket_nnz,
            bucket_thresholds=estimate.thresholds,
            target_ratio=ratio,
            ops=ops,
            metadata={
                "sid": self.sid,
                "num_stages_configured": self.controller.num_stages,
                "stages_used": int(estimate.stages_used.max()),
                "bucket_stages_used": estimate.stages_used,
            },
        )


def _sid_suffix(sid: str) -> str:
    return {"exponential": "e", "gamma": "gp", "gpareto": "p"}[sid]


def _abs_pass(size: int) -> OpRecord:
    return OpRecord("elementwise", size)
