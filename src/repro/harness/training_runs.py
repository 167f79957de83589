"""End-to-end training comparisons (Figures 3, 5, 6, 12, 13, 18).

``run_benchmark`` trains one Table 1 proxy benchmark with one compressor and
reports the paper's three headline metrics relative to the dense baseline:

* normalised training speed-up  — (final quality / total simulated time),
  normalised by the same quantity for the no-compression baseline,
* normalised average throughput — simulated samples/second over the baseline's,
* estimation quality            — mean achieved/target ratio with a 90% CI.

``compare_compressors`` sweeps a compressor line-up (sharing one baseline run)
and returns the rows a figure panel plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..distributed.knobs import SimulationKnobs
from ..distributed.network import CLUSTER_ETHERNET_10G, NetworkModel
from ..distributed.topology import ClusterTopology, get_topology
from ..distributed.trainer import DistributedTrainer, TrainerConfig, TrainingRunResult
from ..gradients.capture import GradientCapture
from ..perfmodel.costs import DeviceProfile
from ..perfmodel.device import GPU_V100
from .configs import PAPER_NUM_WORKERS, BenchmarkConfig, get_benchmark


@dataclass(frozen=True)
class BenchmarkRunRow:
    """One (benchmark, compressor, ratio) result row."""

    benchmark: str
    compressor: str
    ratio: float
    final_quality: float
    final_loss: float
    total_time: float
    speedup_vs_baseline: float
    throughput_vs_baseline: float
    estimation_quality: float
    estimation_quality_ci: tuple[float, float]
    #: Overlap policy the run was priced under, its serialised-equivalent run
    #: time, and the fraction of that time the overlap policy saved.
    overlap: str = "none"
    serialized_time: float = 0.0
    overlap_saving: float = 0.0
    #: Cluster topology and sparse-collective algorithm the run was priced on.
    topology: str = "flat"
    allgather_algorithm: str = "flat-allgather"
    #: Chunk-pipelining / sparse-dedup knobs the collectives ran with, and the
    #: mean dedup ratio the run's compressed iterations actually achieved.
    pipeline_chunks: int = 1
    dedup_assumption: str = "off"
    dedup_ratio: float = 1.0
    #: Whether the run's schedule placed buckets on per-link network lanes
    #: (cross-bucket pipelining) instead of the serial PR-4 network lane.
    cross_bucket_pipeline: bool = False
    #: Synchronization policy the run's barriers were priced under
    #: (``"full-sync"``, ``"backup-workers"`` or ``"time-window"``).
    sync_policy: str = "full-sync"


@dataclass
class BenchmarkComparison:
    """All rows for one benchmark plus the shared baseline run."""

    benchmark: str
    baseline: TrainingRunResult
    rows: list[BenchmarkRunRow] = field(default_factory=list)
    runs: dict[tuple[str, float], TrainingRunResult] = field(default_factory=dict)


def _topology_label(topology: ClusterTopology | None) -> str:
    """Human-readable topology tag for a result row (``"flat"`` for single-level).

    ``TrainerConfig.__post_init__`` resolves preset names, so a set topology is
    always a :class:`ClusterTopology` here.
    """
    if topology is None:
        return "flat"
    return topology.name or f"{topology.num_nodes}x{topology.devices_per_node}"


def _quality_from_evaluation(config: BenchmarkConfig, evaluation: dict[str, float]) -> float:
    """Map the run's evaluation dict onto the benchmark's 'higher is better' quality metric."""
    if config.quality_metric == "perplexity":
        # Lower perplexity is better; invert so speed-up math stays "higher is better".
        return 1.0 / max(evaluation["perplexity"], 1e-12)
    return evaluation["accuracy"]


def _resolve_topology(
    topology: "str | ClusterTopology | None",
    num_workers: int,
) -> tuple["ClusterTopology | None", int]:
    """Resolve the knob bundle's topology and the run's worker count.

    A topology fixes the worker count (nodes x devices), so when one is set it
    wins over the ``num_workers`` argument.
    """
    if topology is None:
        return None, num_workers
    resolved = get_topology(topology) if isinstance(topology, str) else topology
    return resolved, resolved.num_workers


def _trainer_config(
    config: BenchmarkConfig,
    ratio: float,
    *,
    num_workers: int,
    iterations: int | None,
    seed: int,
    network: NetworkModel,
    knobs: SimulationKnobs,
    use_error_feedback: bool = True,
) -> TrainerConfig:
    return TrainerConfig(
        num_workers=num_workers,
        batch_size=config.proxy_batch_size,
        iterations=iterations or config.proxy_iterations,
        ratio=ratio,
        lr=config.proxy_lr,
        momentum=config.proxy_momentum,
        nesterov=config.proxy_nesterov,
        clip_norm=config.proxy_clip_norm,
        use_error_feedback=use_error_feedback,
        seed=seed,
        compute_seconds=config.compute_seconds(network, num_workers),
        dimension_scale=config.dimension_scale(),
        knobs=knobs,
    )


def run_benchmark(
    benchmark: str | BenchmarkConfig,
    compressor: str,
    ratio: float,
    *,
    num_workers: int = PAPER_NUM_WORKERS,
    iterations: int | None = None,
    seed: int = 0,
    network: NetworkModel = CLUSTER_ETHERNET_10G,
    device: DeviceProfile = GPU_V100,
    capture: GradientCapture | None = None,
    knobs: SimulationKnobs | None = None,
) -> TrainingRunResult:
    """Train one Table 1 proxy benchmark with one compressor and evaluate it.

    Simulation knobs ride in one :class:`~repro.distributed.SimulationKnobs`
    bundle (``None`` = ``SimulationKnobs()``).  ``knobs.bucket_bytes`` is
    stated in full-size-model bytes per gradient bucket and rescaled to the
    proxy's dimension automatically; ``knobs.topology`` (a preset name or
    :class:`~repro.distributed.ClusterTopology`) fixes the worker count,
    overriding ``num_workers``.  The fault/policy knobs (``sync_policy``,
    ``backup_workers``, ``time_window_factor``, ``straggler_severity``,
    ``link_degradation``) thread into the trainer's fault layer
    (:mod:`repro.distributed.faults`).
    """
    config = benchmark if isinstance(benchmark, BenchmarkConfig) else get_benchmark(benchmark)
    knobs = knobs if knobs is not None else SimulationKnobs()
    resolved_topology, num_workers = _resolve_topology(knobs.topology, num_workers)
    dataset = config.build_proxy_dataset(seed=seed)
    model = config.build_proxy_model(seed=seed + 1)
    trainer_cfg = _trainer_config(
        config, ratio, num_workers=num_workers, iterations=iterations, seed=seed, network=network,
        knobs=knobs.replace(
            bucket_bytes=config.proxy_bucket_bytes(knobs.bucket_bytes),
            topology=resolved_topology,
        ),
    )
    trainer = DistributedTrainer(
        model,
        dataset,
        compressor,
        trainer_cfg,
        network=network,
        device=device,
        capture=capture,
    )
    return trainer.run(evaluate_on=dataset)


def compare_compressors(
    benchmark: str | BenchmarkConfig,
    compressors: tuple[str, ...],
    ratios: tuple[float, ...],
    *,
    num_workers: int = PAPER_NUM_WORKERS,
    iterations: int | None = None,
    seed: int = 0,
    network: NetworkModel = CLUSTER_ETHERNET_10G,
    device: DeviceProfile = GPU_V100,
    knobs: SimulationKnobs | None = None,
) -> BenchmarkComparison:
    """Run one benchmark for every (compressor, ratio) pair plus the dense baseline.

    Every underlying :func:`run_benchmark` call, baseline included, shares
    the one ``knobs`` bundle (``None`` = ``SimulationKnobs()``).
    """
    config = benchmark if isinstance(benchmark, BenchmarkConfig) else get_benchmark(benchmark)
    baseline = run_benchmark(
        config, "none", 1.0, num_workers=num_workers, iterations=iterations, seed=seed,
        network=network, device=device, knobs=knobs,
    )
    baseline_quality = _quality_from_evaluation(config, baseline.final_evaluation)
    baseline_rate = baseline_quality / max(baseline.metrics.total_time, 1e-12)
    baseline_throughput = baseline.metrics.average_throughput()

    comparison = BenchmarkComparison(benchmark=config.name, baseline=baseline)
    for name in compressors:
        for ratio in ratios:
            result = run_benchmark(
                config, name, ratio, num_workers=num_workers, iterations=iterations, seed=seed,
                network=network, device=device, knobs=knobs,
            )
            quality = _quality_from_evaluation(config, result.final_evaluation)
            rate = quality / max(result.metrics.total_time, 1e-12)
            est_quality, est_ci = result.metrics.estimation_quality()
            overlap_stats = result.metrics.overlap_summary()
            run_knobs = result.config.knobs
            comparison.rows.append(
                BenchmarkRunRow(
                    benchmark=config.name,
                    compressor=name,
                    ratio=ratio,
                    final_quality=quality,
                    final_loss=result.metrics.final_loss,
                    total_time=result.metrics.total_time,
                    speedup_vs_baseline=rate / baseline_rate if baseline_rate > 0 else float("nan"),
                    throughput_vs_baseline=result.metrics.average_throughput() / baseline_throughput
                    if baseline_throughput > 0
                    else float("nan"),
                    estimation_quality=est_quality,
                    estimation_quality_ci=est_ci,
                    overlap=run_knobs.overlap,
                    serialized_time=overlap_stats["serialized_seconds"],
                    overlap_saving=overlap_stats["overlap_saving"],
                    topology=_topology_label(run_knobs.topology),
                    allgather_algorithm=run_knobs.allgather_algorithm,
                    pipeline_chunks=run_knobs.pipeline_chunks,
                    dedup_assumption=run_knobs.dedup_assumption or "off",
                    dedup_ratio=result.metrics.mean_dedup_ratio(),
                    cross_bucket_pipeline=run_knobs.cross_bucket_pipeline,
                    sync_policy=run_knobs.sync_policy,
                )
            )
            comparison.runs[(name, ratio)] = result
    return comparison
