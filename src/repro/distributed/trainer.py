"""Synchronous data-parallel SGD with gradient compression (Algorithm 2).

``DistributedTrainer`` simulates the paper's training stack end-to-end:

1. every worker draws a mini-batch from its shard and computes a local
   gradient on the shared replica; workers run in groups, one stacked
   forward/backward per group (``worker.compute_gradients``), bit-for-bit
   what one pass per worker gives,
2. the gradients are clipped, error-feedback corrected and compressed in one
   call over their ``(G, D)`` matrix (``worker.compress_gradients``): one
   ``fit_all_buckets`` fits every worker's buckets, each worker with its own
   compressor instance's state, bit-for-bit what one call per worker gives,
3. sparse contributions are aggregated with all-gather semantics (dense
   all-reduce for the no-compression baseline),
4. every replica applies the same averaged update (so one shared model object
   suffices),
5. the iteration is priced by the timeline model (compute + compression +
   communication) to produce simulated wall-clock time, from which
   throughput and time-to-quality speed-ups are derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..compressors.base import Compressor
from ..compressors.registry import create_compressor
from ..compressors.topk import NoCompression
from ..data.loader import BatchIterator, shard_dataset
from ..gradients.capture import GradientCapture
from ..nn.losses import accuracy, cross_entropy, perplexity
from ..nn.module import Module
from ..optim.sgd import SGD
from ..perfmodel.costs import DeviceProfile
from ..perfmodel.device import GPU_V100
from ..pipeline import CompressionPipeline
from ..tensor.flatten import FlatSpec, unflatten
from .collectives import allgather_sparse, allreduce_dense
from .faults import ClusterProfile, FaultModel
from .knobs import SimulationKnobs
from .metrics import IterationRecord, TrainingMetrics
from .network import CLUSTER_ETHERNET_10G, NetworkModel
from .timeline import TimelineModel
from .topology import ClusterTopology, CollectiveModel, get_topology
from .worker import Worker, compress_gradients, compute_gradients


@dataclass
class TrainerConfig:
    """Hyper-parameters of one distributed training run."""

    num_workers: int = 8
    batch_size: int = 16
    iterations: int = 100
    ratio: float = 0.01
    lr: float = 0.1
    momentum: float = 0.0
    nesterov: bool = False
    weight_decay: float = 0.0
    use_error_feedback: bool = True
    clip_norm: float | None = None
    warmup_iterations: int = 0
    seed: int = 0
    compute_seconds: float = 0.01
    dimension_scale: float = 1.0
    #: Snap bucket boundaries to the model's layer boundaries (DDP-style) and
    #: derive per-bucket gradient-ready times from reverse layer order.
    #: Ignored unless ``knobs.bucket_bytes`` is set.
    layer_aware_buckets: bool = True
    #: Explicit per-worker heterogeneity (mutually exclusive with the
    #: single-straggler knobs ``straggler_severity`` / ``link_degradation``);
    #: ``None`` = homogeneous.
    cluster_profile: "ClusterProfile | None" = None
    #: Fault injectors applied per iteration, in order (``StragglerInjector``,
    #: ``LinkDegradation``, ``WorkerChurn``, or anything with
    #: ``apply(iteration, rates)``).
    fault_injectors: tuple = ()
    #: Every simulation knob (bucketing, overlap, topology, collectives,
    #: scheduler, sync policy, single-straggler faults).  A preset-name
    #: topology is resolved to its :class:`ClusterTopology` on construction.
    knobs: SimulationKnobs = field(default_factory=SimulationKnobs)

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be non-negative")
        if not (math.isfinite(self.compute_seconds) and self.compute_seconds >= 0.0):
            raise ValueError(
                f"compute_seconds must be finite and non-negative, got {self.compute_seconds!r}"
            )
        self.fault_injectors = tuple(self.fault_injectors)
        knobs = self.knobs
        if self.cluster_profile is not None:
            if self.cluster_profile.num_workers != self.num_workers:
                raise ValueError(
                    f"cluster_profile has {self.cluster_profile.num_workers} workers "
                    f"but num_workers is {self.num_workers}"
                )
            if knobs.straggler_severity != 1.0 or knobs.link_degradation != 1.0:
                raise ValueError(
                    "pass either cluster_profile or the single-straggler knobs "
                    "(straggler_severity / link_degradation), not both"
                )
        if knobs.topology is not None:
            # Fail fast: resolve preset names and check the worker count here,
            # not at trainer construction.
            if isinstance(knobs.topology, str):
                self.knobs = knobs = knobs.replace(topology=get_topology(knobs.topology))
            if knobs.topology.num_workers != self.num_workers:
                raise ValueError(
                    f"topology {knobs.topology.name or knobs.topology!r} has "
                    f"{knobs.topology.num_workers} workers but num_workers is {self.num_workers}"
                )
        if knobs.backup_workers >= self.num_workers:
            raise ValueError(
                f"backup_workers ({knobs.backup_workers}) must leave at least one "
                f"participant out of num_workers ({self.num_workers})"
            )

    @property
    def faulted(self) -> bool:
        """True when any heterogeneity/fault/policy configuration is active."""
        return (
            self.cluster_profile is not None
            or bool(self.fault_injectors)
            or self.knobs.faulted
        )

    def build_fault_model(self) -> FaultModel:
        """The fault model this config describes (homogeneous profile when clean)."""
        profile = self.cluster_profile
        if profile is None:
            profile = self.knobs.straggler_profile(self.num_workers)
        return FaultModel(profile=profile, injectors=self.fault_injectors)

    def resolve_topology(self, network: NetworkModel) -> ClusterTopology:
        """The cluster topology this config trains over.

        ``None`` builds the degenerate single-level topology: every worker on
        ``network``, which reproduces the pre-topology pricing exactly.
        """
        if self.knobs.topology is None:
            return ClusterTopology.flat(network, self.num_workers)
        return self.knobs.topology


@dataclass
class TrainingRunResult:
    """Output of one full training run."""

    metrics: TrainingMetrics
    final_evaluation: dict[str, float] = field(default_factory=dict)
    compressor_name: str = ""
    config: TrainerConfig | None = None


class DistributedTrainer:
    """Simulated synchronous data-parallel training with compressed gradients."""

    def __init__(
        self,
        model: Module,
        dataset,
        compressor: str | Compressor,
        config: TrainerConfig,
        *,
        network: NetworkModel = CLUSTER_ETHERNET_10G,
        device: DeviceProfile = GPU_V100,
        capture: GradientCapture | None = None,
    ) -> None:
        self.model = model
        self.config = config
        self.capture = capture
        knobs = config.knobs

        self.flat_spec = flat_spec = FlatSpec.from_named_shapes(
            {name: p.shape for name, p in model.named_parameters().items()}
        )
        shards = shard_dataset(dataset, config.num_workers, seed=config.seed)
        self.workers: list[Worker] = []
        for worker_id, shard in enumerate(shards):
            comp = self._make_compressor(
                compressor,
                knobs.bucket_bytes,
                flat_spec=flat_spec if config.layer_aware_buckets else None,
            )
            batches = BatchIterator(shard, config.batch_size, seed=config.seed + 101 * worker_id)
            self.workers.append(
                Worker(
                    worker_id,
                    model,
                    batches,
                    comp,
                    use_error_feedback=config.use_error_feedback,
                    clip_norm=config.clip_norm,
                    flat_spec=flat_spec,
                )
            )
        self.compressor_name = self.workers[0].compressor.name
        self.is_baseline = isinstance(self.workers[0].compressor, NoCompression)

        self.optimizer = SGD(
            model,
            lr=config.lr,
            momentum=config.momentum,
            nesterov=config.nesterov,
            weight_decay=config.weight_decay,
        )

        self.timeline = TimelineModel.from_knobs(
            knobs,
            CollectiveModel.from_knobs(knobs, config.resolve_topology(network)),
            compute_seconds=config.compute_seconds,
            model_dimension=flat_spec.total_size,
            dimension_scale=config.dimension_scale,
            device=device,
        )
        self.collective = self.timeline.collective
        self._warmup_compressor = NoCompression()
        # Fault layer: None on the clean path so the nominal iteration code is
        # exactly the pre-fault code (bit-for-bit schedules and timings).
        self.fault_model = config.build_fault_model() if config.faulted else None
        self.sync_policy = knobs.build_sync_policy()

    @staticmethod
    def _make_compressor(
        compressor: str | Compressor,
        bucket_bytes: int | None = None,
        flat_spec: FlatSpec | None = None,
    ) -> Compressor:
        if isinstance(compressor, Compressor):
            # A shared instance would entangle per-worker adaptive state, so a
            # pre-built compressor is only allowed for single-worker runs.
            built = compressor
        else:
            built = create_compressor(compressor)
        if bucket_bytes is None or isinstance(built, NoCompression):
            # The dense baseline all-reduces one fused buffer regardless.
            return built
        if isinstance(built, CompressionPipeline):
            raise ValueError(
                "the compressor is already a CompressionPipeline; set its bucket_bytes "
                "or knobs.bucket_bytes, not both"
            )
        return CompressionPipeline(built, bucket_bytes=bucket_bytes, flat_spec=flat_spec)

    # -- training ---------------------------------------------------------------

    def run(self, *, evaluate_on=None) -> TrainingRunResult:
        """Train for ``config.iterations`` iterations and return metrics."""
        cfg = self.config
        metrics = TrainingMetrics()
        wall_time = 0.0

        for iteration in range(cfg.iterations):
            wall_time = self._run_iteration(iteration, metrics, wall_time)

        evaluation = self.evaluate(evaluate_on) if evaluate_on is not None else {}
        return TrainingRunResult(
            metrics=metrics,
            final_evaluation=evaluation,
            compressor_name=self.compressor_name,
            config=cfg,
        )

    def _run_iteration(self, iteration: int, metrics: TrainingMetrics, wall_time: float) -> float:
        cfg = self.config
        in_warmup = iteration < cfg.warmup_iterations

        # Fault layer: resolve this iteration's membership.  Inactive workers
        # (churn) skip the step entirely — their batch stream does not advance
        # and they contribute no gradient.  On the clean path `workers` is the
        # untouched full list and the code below is exactly the pre-fault path.
        if self.fault_model is None:
            rates = None
            workers = self.workers
        else:
            rates = self.fault_model.rates_for_iteration(iteration)
            flags = rates.active.tolist()
            for worker, flag in zip(self.workers, flags):
                worker.active = bool(flag)
            workers = [w for w, flag in zip(self.workers, flags) if flag]
            if not workers:
                raise RuntimeError("fault injection left no active workers this iteration")

        # Gradients land in one (G, D) matrix, group by group, which
        # compression then clips and error-corrects in place.
        rows = np.empty((len(workers), self.flat_spec.total_size))
        losses = []
        for row, (_, loss, flat) in zip(rows, compute_gradients(workers, iteration=iteration)):
            row[:] = flat
            losses.append(loss)
        if in_warmup and not self.is_baseline:
            # Warm-up: train uncompressed (the paper's 5-epoch warm-up).
            warmup = self._warmup_compressor
            results = warmup.compress_group(rows, 1.0, [warmup] * len(rows))
        else:
            results, _ = compress_gradients(workers, rows, cfg.ratio)

        if self.capture is not None:
            self.capture.record(iteration, rows[0])

        # Nominal-rate timing (the components every record reports) and, under
        # faults, the sync policy's verdict: which of the active workers'
        # gradients aggregate, and what the cluster-level iteration time is.
        dense = self.is_baseline or in_warmup
        timing, faulted = self.timeline.price(
            None if dense else results, rates, self.sync_policy
        )
        if faulted is None:
            participating = range(len(workers))
            iteration_seconds = timing.total
        else:
            keep = faulted.outcome.participating
            participating = [i for i, w in enumerate(rates.active_indices) if keep[w]]
            iteration_seconds = faulted.iteration_seconds

        if dense:
            collective = allreduce_dense([rows[i] for i in participating])
        else:
            collective = allgather_sparse([results[i].sparse for i in participating])

        aggregated = collective.aggregated
        named_grads = unflatten(aggregated, self.flat_spec)
        self.optimizer.step(named_grads)

        wall_time += iteration_seconds
        achieved_ratio = float(np.mean([r.achieved_ratio for r in results]))
        thresholds = [r.threshold for r in results if r.threshold is not None]
        metrics.append(
            IterationRecord(
                iteration=iteration,
                loss=float(np.mean(losses)),
                achieved_ratio=achieved_ratio,
                target_ratio=1.0 if dense else cfg.ratio,
                threshold=float(np.mean(thresholds)) if thresholds else None,
                compute_time=timing.compute,
                compression_time=timing.compression,
                communication_time=timing.communication,
                iteration_time=iteration_seconds,
                serialized_time=timing.serialized,
                wall_time=wall_time,
                samples=cfg.batch_size * len(participating),
                learning_rate=self.optimizer.lr,
                dedup_ratio=timing.dedup_ratio,
                participating_workers=(
                    None if faulted is None else faulted.outcome.num_participating
                ),
                stragglers_cut=0 if faulted is None else faulted.outcome.stragglers_cut,
            )
        )
        return wall_time

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, dataset, *, batch_size: int = 64) -> dict[str, float]:
        """Mean loss, top-1 accuracy and perplexity of the current model on ``dataset``."""
        n = len(dataset)
        losses: list[float] = []
        accuracies: list[float] = []
        for start in range(0, n, batch_size):
            idx = np.arange(start, min(start + batch_size, n))
            subset = dataset.subset(idx)
            logits = self.model(subset.inputs)
            loss, _ = cross_entropy(logits, subset.targets)
            losses.append(loss)
            accuracies.append(accuracy(logits, subset.targets))
        mean_loss = float(np.mean(losses))
        return {
            "loss": mean_loss,
            "accuracy": float(np.mean(accuracies)),
            "perplexity": perplexity(mean_loss),
        }
