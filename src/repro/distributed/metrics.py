"""Training-run metrics: the quantities the paper's figures plot.

Every iteration the trainer appends an :class:`IterationRecord`; the
:class:`TrainingMetrics` container then derives the figure-level series and
scalars — loss vs iteration / wall-time (Figures 4, 10), running-average
compression ratio (Figure 9), average throughput (Figures 3b/e, 6b/e),
estimation quality with a 90% confidence interval (Figures 1c, 3c/f, 5b, 6c/f)
and normalised training speed-up (Figures 3a/d, 5a/c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration measurements from the distributed trainer."""

    iteration: int
    loss: float
    achieved_ratio: float
    target_ratio: float
    threshold: float | None
    compute_time: float
    compression_time: float
    communication_time: float
    iteration_time: float
    wall_time: float
    samples: int
    learning_rate: float
    #: The flat compute + compression + communication + update sum for the
    #: same iteration; equals ``iteration_time`` when the overlap policy is
    #: ``"none"``, and upper-bounds it otherwise.
    serialized_time: float = 0.0
    #: Achieved sparse-dedup ratio of the iteration's collectives
    #: (concatenated / deduplicated node-aggregate size; 1.0 when dedup is
    #: off or the iteration all-reduced dense gradients).
    dedup_ratio: float = 1.0
    #: Workers whose gradients the sync policy aggregated this iteration
    #: (active minus cut); ``None`` on fault-free runs, where every worker
    #: participates by construction.
    participating_workers: int | None = None
    #: Active workers the sync policy cut from this iteration's barrier
    #: (backup-workers / time-window); 0 on fault-free runs.
    stragglers_cut: int = 0


@dataclass
class TrainingMetrics:
    """Accumulated records plus derived series and summary statistics."""

    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # -- series ---------------------------------------------------------------

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    @property
    def wall_times(self) -> np.ndarray:
        return np.array([r.wall_time for r in self.records])

    @property
    def achieved_ratios(self) -> np.ndarray:
        return np.array([r.achieved_ratio for r in self.records])

    def loss_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(iteration, loss) — Figure 4a/c."""
        return np.array([r.iteration for r in self.records]), self.losses

    def loss_vs_walltime(self) -> tuple[np.ndarray, np.ndarray]:
        """(simulated seconds, loss) — Figure 10."""
        return self.wall_times, self.losses

    def running_average_ratio(self, window: int = 20) -> np.ndarray:
        """Smoothed achieved compression ratio — Figure 9 traces."""
        if window < 1:
            raise ValueError("window must be >= 1")
        ratios = self.achieved_ratios
        if ratios.size == 0:
            return ratios
        kernel = np.ones(min(window, ratios.size)) / min(window, ratios.size)
        return np.convolve(ratios, kernel, mode="valid")

    # -- scalars ----------------------------------------------------------------

    @property
    def total_time(self) -> float:
        return float(self.records[-1].wall_time) if self.records else 0.0

    @property
    def final_loss(self) -> float:
        if not self.records:
            raise ValueError("no records")
        tail = self.losses[-max(1, len(self.records) // 10) :]
        return float(tail.mean())

    def average_throughput(self) -> float:
        """Samples per simulated second over the whole run."""
        if not self.records:
            return 0.0
        total_samples = sum(r.samples for r in self.records)
        total_time = self.total_time
        return total_samples / total_time if total_time > 0.0 else float("inf")

    def time_to_loss(self, target_loss: float) -> float | None:
        """First simulated wall time at which the smoothed loss reaches ``target_loss``.

        Returns ``None`` if the run never reaches the target (the paper's
        figures mark such runs with a speed-up of zero).
        """
        if not self.records:
            return None
        window = max(1, min(10, len(self.records) // 5))
        losses = self.losses
        kernel = np.ones(window) / window
        smoothed = np.convolve(losses, kernel, mode="valid")
        times = self.wall_times[window - 1 :]
        below = np.flatnonzero(smoothed <= target_loss)
        if below.size == 0:
            return None
        return float(times[below[0]])

    def estimation_quality(self) -> tuple[float, tuple[float, float]]:
        """Mean of ``achieved_ratio / target_ratio`` and its 90% confidence interval."""
        ratios = np.array([r.achieved_ratio / r.target_ratio for r in self.records if r.target_ratio > 0.0])
        if ratios.size == 0:
            return float("nan"), (float("nan"), float("nan"))
        mean = float(ratios.mean())
        if ratios.size < 2:
            return mean, (mean, mean)
        sem = float(ratios.std(ddof=1) / np.sqrt(ratios.size))
        half_width = 1.645 * sem
        return mean, (mean - half_width, mean + half_width)

    def component_breakdown(self) -> dict[str, float]:
        """Total simulated seconds spent in compute / compression / communication."""
        return {
            "compute": float(sum(r.compute_time for r in self.records)),
            "compression": float(sum(r.compression_time for r in self.records)),
            "communication": float(sum(r.communication_time for r in self.records)),
        }

    @property
    def serialized_total_time(self) -> float:
        """Total time the run would have taken with ``overlap="none"``."""
        return float(sum(r.serialized_time or r.iteration_time for r in self.records))

    def mean_dedup_ratio(self) -> float:
        """Average achieved sparse-dedup ratio over the compressed iterations.

        Iterations that shipped dense gradients (baseline, warm-up) carry a
        structural ratio of 1.0 and are excluded so the scalar reflects what
        the dedup model actually achieved on sparse traffic; a run with no
        compressed iterations reports 1.0.
        """
        ratios = [r.dedup_ratio for r in self.records if r.target_ratio < 1.0]
        if not ratios:
            return 1.0
        return float(np.mean(ratios))

    def overlap_summary(self) -> dict[str, float]:
        """Overlapped vs serialised run time and the fraction overlap saved."""
        overlapped = float(sum(r.iteration_time for r in self.records))
        serialized = self.serialized_total_time
        saving = 1.0 - overlapped / serialized if serialized > 0.0 else 0.0
        return {
            "overlapped_seconds": overlapped,
            "serialized_seconds": serialized,
            "overlap_saving": saving,
        }

    def straggler_summary(self) -> dict[str, float]:
        """Participation and cut statistics over the faulted iterations.

        ``mean_participants`` averages over iterations that carried a fault
        layer (records with ``participating_workers`` set); ``cut_iterations``
        counts iterations where the sync policy dropped at least one worker,
        and ``total_cut`` sums the drops.  A fault-free run reports zeros with
        ``faulted_iterations == 0``.
        """
        faulted = [r for r in self.records if r.participating_workers is not None]
        return {
            "faulted_iterations": float(len(faulted)),
            "mean_participants": (
                float(np.mean([r.participating_workers for r in faulted])) if faulted else 0.0
            ),
            "total_cut": float(sum(r.stragglers_cut for r in self.records)),
            "cut_iterations": float(sum(1 for r in self.records if r.stragglers_cut > 0)),
        }
