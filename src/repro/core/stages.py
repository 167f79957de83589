"""Adaptive stage controller (the ``Adapt_Stages`` routine of Algorithm 1).

SIDCo monitors the quality of its threshold estimates (the achieved ``k_hat``
versus the target ``k``) over a window of ``Q`` training iterations and
adjusts the number of fitting stages ``M`` so the average estimation error
stays inside the tolerance band ``(eps_low, eps_high)``.

Direction of adaptation
-----------------------
Single-stage fitting misplaces the far-tail quantile (Section 2.3): the fit is
dominated by the near-zero bulk, so at aggressive ratios the achieved ``k_hat``
can land far from ``k`` on *either* side depending on the gradient's tail
relative to the chosen SID.  Every additional peak-over-threshold stage
re-fits only the exceedances, which extreme value theory guarantees is closer
to the modelled family (Lemma 2), so adding a stage drives ``k_hat / k``
toward 1 regardless of the sign of the single-stage error — this is also what
we observe empirically (see ``benchmarks/test_ablation_stages.py``).

The default controller therefore *adds* a stage whenever the windowed average
falls outside the tolerance band and otherwise keeps the current count.
Extra configured stages are free when they are not needed: the estimator
collapses to fewer stages automatically once the remaining ratio is moderate
(see :func:`repro.pipeline.vectorized.estimate_multi_stage_bucketed`).  The pseudocode
printed in the paper's Algorithm 1 instead decrements on over-selection and
increments on under-selection; that variant is available via
``paper_pseudocode_direction=True`` and is compared in the adaptation
ablation bench — with the printed rule the controller oscillates between one
and two stages on heavy-tailed gradients, which contradicts the paper's own
Figure 9o narrative ("settles at the final number of stages"), so the robust
rule is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StageControllerConfig:
    """Tuning knobs of the stage controller (defaults follow Section 4.1)."""

    adaptation_interval: int = 5          # Q: iterations between adaptation decisions
    eps_high: float = 0.2                 # upper relative error tolerance (eps_H)
    eps_low: float = 0.2                  # lower relative error tolerance (eps_L)
    max_stages: int = 10                  # M_max
    initial_stages: int = 1               # the paper starts single-stage
    paper_pseudocode_direction: bool = False

    def __post_init__(self) -> None:
        if self.adaptation_interval < 1:
            raise ValueError("adaptation_interval must be >= 1")
        if not 0.0 <= self.eps_high < 1.0 or not 0.0 <= self.eps_low < 1.0:
            raise ValueError("eps_high and eps_low must be in [0, 1)")
        if self.max_stages < 1:
            raise ValueError("max_stages must be >= 1")
        if not 1 <= self.initial_stages <= self.max_stages:
            raise ValueError("initial_stages must be in [1, max_stages]")

    @property
    def error_tolerance(self) -> float:
        """The discrepancy tolerance ``eps`` of Eq. (12): ``max(eps_H, eps_L)``."""
        return max(self.eps_high, self.eps_low)


@dataclass
class StageController:
    """Tracks achieved selection sizes and adapts the number of stages."""

    config: StageControllerConfig = field(default_factory=StageControllerConfig)

    def __post_init__(self) -> None:
        self._stages = self.config.initial_stages
        self._window_sum = 0.0
        self._window_count = 0
        self._history: list[int] = [self._stages]

    @property
    def num_stages(self) -> int:
        """Number of fitting stages to use for the next compression call."""
        return self._stages

    @property
    def history(self) -> list[int]:
        """Stage counts after every adaptation decision (for diagnostics)."""
        return list(self._history)

    def reset(self) -> None:
        self._stages = self.config.initial_stages
        self._window_sum = 0.0
        self._window_count = 0
        self._history = [self._stages]

    def observe(self, achieved_k: int, target_k: int) -> int:
        """Record one iteration's selection size; adapt every ``Q`` observations.

        Returns the (possibly updated) number of stages to use next.
        """
        if target_k <= 0:
            raise ValueError("target_k must be positive")
        self._window_sum += float(achieved_k)
        self._window_count += 1
        if self._window_count >= self.config.adaptation_interval:
            avg_k = self._window_sum / self._window_count
            self._adapt(avg_k, target_k)
            self._window_sum = 0.0
            self._window_count = 0
        return self._stages

    def _adapt(self, avg_k: float, target_k: int) -> None:
        cfg = self.config
        over = avg_k > target_k * (1.0 + cfg.eps_high)
        under = avg_k < target_k * (1.0 - cfg.eps_low)
        if cfg.paper_pseudocode_direction:
            delta = -1 if over else (1 if under else 0)
        else:
            # Robust rule: any out-of-band error means the current depth of
            # tail re-fitting is insufficient, so add a stage.
            delta = 1 if (over or under) else 0
        if delta:
            self._stages = int(min(max(self._stages + delta, 1), cfg.max_stages))
        self._history.append(self._stages)
