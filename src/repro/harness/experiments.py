"""Gradient-analysis experiments (Figures 2, 7, 8) and trace extraction (Figures 4, 9, 10, 11).

These experiments reproduce the paper's empirical validation of its two
modelling assumptions — gradients are compressible (Property 1 / Figure 7) and
well fitted by SIDs (Property 2 / Figures 2 and 8) — by training a proxy model
with Top-k compression, capturing uncompressed gradients at chosen iterations,
and running the compressibility / goodness-of-fit diagnostics on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distributed.knobs import SimulationKnobs
from ..distributed.network import CLUSTER_ETHERNET_10G
from ..distributed.trainer import DistributedTrainer
from ..gradients.capture import GradientCapture
from ..stats.compressibility import CompressibilityReport, fit_power_law_decay, sparsification_error_curve
from ..stats.distributions import Laplace, DoubleGamma, DoubleGeneralizedPareto
from ..stats.fitting import fit_absolute
from ..stats.goodness import FitQuality, evaluate_fit
from .configs import BenchmarkConfig, get_benchmark
from .training_runs import _trainer_config, run_benchmark


@dataclass(frozen=True)
class SIDFitReport:
    """Goodness-of-fit of the three SIDs to one captured gradient snapshot."""

    iteration: int
    exponential: FitQuality
    gamma: FitQuality
    gpareto: FitQuality

    def best_sid(self) -> str:
        """SID with the smallest Kolmogorov-Smirnov distance for this snapshot."""
        candidates = {
            "exponential": self.exponential.ks_statistic,
            "gamma": self.gamma.ks_statistic,
            "gpareto": self.gpareto.ks_statistic,
        }
        return min(candidates, key=candidates.get)


@dataclass
class GradientStudy:
    """Captured gradients plus their SID-fit and compressibility diagnostics."""

    benchmark: str
    use_error_feedback: bool
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    fits: dict[int, SIDFitReport] = field(default_factory=dict)
    compressibility: dict[int, CompressibilityReport] = field(default_factory=dict)


def _fit_snapshot(iteration: int, gradient: np.ndarray) -> SIDFitReport:
    abs_grad = np.abs(gradient)
    abs_nonzero = abs_grad[abs_grad > 0.0]
    exp_fit = fit_absolute(abs_nonzero, "exponential").distribution
    gamma_fit = fit_absolute(abs_nonzero, "gamma").distribution
    gp_fit = fit_absolute(abs_nonzero, "gpareto").distribution
    symmetric = {
        "exponential": Laplace(scale=exp_fit.scale),
        "gamma": DoubleGamma(shape=gamma_fit.shape, scale=gamma_fit.scale),
        "gpareto": DoubleGeneralizedPareto(shape=gp_fit.shape, scale=gp_fit.scale),
    }
    return SIDFitReport(
        iteration=iteration,
        exponential=evaluate_fit(gradient, symmetric["exponential"]),
        gamma=evaluate_fit(gradient, symmetric["gamma"]),
        gpareto=evaluate_fit(gradient, symmetric["gpareto"]),
    )


def gradient_fit_study(
    benchmark: str | BenchmarkConfig = "resnet20-cifar10",
    *,
    use_error_feedback: bool = False,
    capture_iterations: tuple[int, ...] = (5, 40),
    ratio: float = 0.001,
    iterations: int | None = None,
    num_workers: int = 4,
    seed: int = 0,
) -> GradientStudy:
    """Reproduce the Figure 2 (no EC) / Figure 8 (with EC) analysis on a proxy benchmark.

    Trains the benchmark with Top-k at ``ratio``, captures the (EC-corrected if
    enabled) gradient at the requested iterations, fits the three SIDs and the
    compressibility power law to each snapshot.
    """
    config = benchmark if isinstance(benchmark, BenchmarkConfig) else get_benchmark(benchmark)
    total_iterations = iterations or max(capture_iterations) + 10
    capture = GradientCapture(iterations=set(capture_iterations), normalize=True)

    run_config_iterations = max(total_iterations, max(capture_iterations) + 1)
    result = run_benchmark(
        config,
        "topk",
        ratio,
        num_workers=num_workers,
        iterations=run_config_iterations,
        seed=seed,
        capture=capture,
    )
    # Error feedback is always on in the trainer when requested; when the study
    # asks for the no-EC view we re-run with EC disabled.
    if not use_error_feedback:
        capture = GradientCapture(iterations=set(capture_iterations), normalize=True)
        dataset = config.build_proxy_dataset(seed=seed)
        model = config.build_proxy_model(seed=seed + 1)
        trainer_cfg = _trainer_config(
            config, ratio, num_workers=num_workers, iterations=run_config_iterations, seed=seed,
            network=CLUSTER_ETHERNET_10G, knobs=SimulationKnobs(), use_error_feedback=False,
        )
        trainer = DistributedTrainer(model, dataset, "topk", trainer_cfg, capture=capture)
        result = trainer.run()

    study = GradientStudy(benchmark=config.name, use_error_feedback=use_error_feedback)
    for iteration in sorted(capture.snapshots):
        gradient = capture.snapshots[iteration]
        study.snapshots[iteration] = gradient
        study.fits[iteration] = _fit_snapshot(iteration, gradient)
        study.compressibility[iteration] = fit_power_law_decay(gradient)
    del result
    return study


@dataclass(frozen=True)
class CompressibilityStudy:
    """Figure 7 series: sorted-magnitude decay and best-k error curves per snapshot."""

    iterations: tuple[int, ...]
    reports: dict[int, CompressibilityReport]
    error_curves: dict[int, np.ndarray]
    ks: np.ndarray


def compressibility_study(
    benchmark: str | BenchmarkConfig = "resnet20-cifar10",
    *,
    capture_iterations: tuple[int, ...] = (2, 20, 40),
    num_ks: int = 50,
    num_workers: int = 4,
    seed: int = 0,
) -> CompressibilityStudy:
    """Reproduce Figure 7: power-law decay check and sigma_k curves across training."""
    study = gradient_fit_study(
        benchmark,
        use_error_feedback=False,
        capture_iterations=capture_iterations,
        num_workers=num_workers,
        seed=seed,
    )
    reports: dict[int, CompressibilityReport] = {}
    curves: dict[int, np.ndarray] = {}
    ks = None
    for iteration, gradient in study.snapshots.items():
        reports[iteration] = study.compressibility[iteration]
        if ks is None:
            ks = np.unique(np.linspace(0, gradient.size, num_ks, dtype=np.int64))
        curves[iteration] = sparsification_error_curve(gradient, ks)
    return CompressibilityStudy(
        iterations=tuple(sorted(study.snapshots)),
        reports=reports,
        error_curves=curves,
        ks=ks if ks is not None else np.array([], dtype=np.int64),
    )


@dataclass(frozen=True)
class TraceBundle:
    """Loss / ratio traces for one training run (Figures 4, 9, 10, 11)."""

    compressor: str
    ratio: float
    iterations: np.ndarray
    losses: np.ndarray
    wall_times: np.ndarray
    running_ratio: np.ndarray


def extract_traces(result, window: int = 20) -> TraceBundle:
    """Build the Figure 4/9/10 trace series from a finished training run."""
    metrics = result.metrics
    iterations, losses = metrics.loss_curve()
    return TraceBundle(
        compressor=result.compressor_name,
        ratio=result.config.ratio if result.config else float("nan"),
        iterations=iterations,
        losses=losses,
        wall_times=metrics.wall_times,
        running_ratio=metrics.running_average_ratio(window),
    )
