"""The benchmark's five closed-loop workloads.

Each workload is one client calling one public ``repro`` entry point in a
loop.  A workload object is built fresh for every set-up; ``setup(seed)``
makes the inputs from the seed and runs the warm-up ops, ``op()`` runs one
timed op and ``check(output)`` says whether that op's output is correct.
``pins()`` gives the set-up's reference values, which seed 0 compares with
``expected-seed0.json``.

The workloads are chosen so each layer a change is likely to target does most
of the work in one workload and little in another (see README.md).  Ops call
entry points through their module (``training_runs.run_benchmark``) so that a
traced run's patches apply.
"""

from __future__ import annotations

import math

from repro.compressors.registry import create_compressor
from repro.distributed import SimulationKnobs
from repro.gradients.synthetic import realistic_gradient
from repro.harness import training_runs, tuner
from repro.harness.sweep import SweepCache, WorkloadSpec
from repro.pipeline import CompressionPipeline

MiB = 2**20

#: VGG16-CIFAR10's gradient size in Table 1.
VGG16_ELEMENTS = 14_982_987


class Workload:
    """One closed-loop client; subclasses fill in the entry point and checks."""

    name = ""
    #: What ``items(output)`` counts.
    item = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, output) -> bool:
        raise NotImplementedError

    def items(self, output) -> int:
        raise NotImplementedError

    def pins(self) -> dict:
        raise NotImplementedError

    def cache_counts(self, output) -> tuple[int, int] | None:
        """``(hits, misses)`` the op added to a ``SweepCache``, if it used one."""
        return None


class TrainWorkload(Workload):
    """``run_benchmark`` through the whole trainer; every op repeats the warm-up bit for bit."""

    item = "sample"
    #: Ten iterations keep an op near a second, so a 15 s run times a dozen
    #: or more ops: enough for a 10th percentile.
    iterations = 10

    def __init__(self, name, benchmark, compressor, ratio, knobs):
        self.name = name
        self.benchmark, self.compressor, self.ratio, self.knobs = benchmark, compressor, ratio, knobs

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.reference = self.op()

    def op(self):
        return training_runs.run_benchmark(
            self.benchmark, self.compressor, self.ratio,
            iterations=self.iterations, seed=self.seed, knobs=self.knobs,
        )

    def check(self, output) -> bool:
        metrics = output.metrics
        finite = math.isfinite(metrics.final_loss) and math.isfinite(metrics.total_time)
        return (
            finite
            and metrics.records == self.reference.metrics.records
            and output.final_evaluation == self.reference.final_evaluation
        )

    def items(self, output) -> int:
        return sum(record.samples for record in output.metrics.records)

    def pins(self) -> dict:
        metrics = self.reference.metrics
        return {
            "final_loss": metrics.final_loss,
            "simulated_seconds": metrics.total_time,
            "eval_loss": self.reference.final_evaluation["loss"],
            "samples": self.items(self.reference),
        }


class CompressWorkload(Workload):
    """SIDCo-e through the bucketed pipeline on two alternating VGG16-sized gradients.

    The 120 MB working set sits far outside the CPU caches, where train-lstm
    fits the same estimator on 17k-element in-cache gradients.  The stage
    controller settles after five calls; the warm-up leaves margin.
    """

    name = "compress-sidco"
    item = "element"
    ratio = 0.001
    warmup_ops = 10

    def setup(self, seed: int) -> None:
        self.gradients = [realistic_gradient(VGG16_ELEMENTS, seed=seed + i) for i in range(2)]
        self.pipeline = CompressionPipeline(create_compressor("sidco-e"))
        self.calls = 0
        for _ in range(self.warmup_ops):
            self.reference = self.op()

    def op(self):
        gradient = self.gradients[self.calls % 2]
        self.calls += 1
        return self.pipeline.compress(gradient, self.ratio)

    def check(self, output) -> bool:
        return output.sparse.nnz > 0 and 0.5 <= output.estimation_quality <= 2.0

    def items(self, output) -> int:
        return output.sparse.dense_size

    def pins(self) -> dict:
        result = self.reference
        return {
            "nnz": int(result.sparse.nnz),
            "threshold": result.threshold,
            "num_buckets": result.metadata["num_buckets"],
        }


class TuneWorkload(Workload):
    """``autotune`` queries; every op must return the reference query's answer."""

    item = "point"
    #: Warm-up queries against a shared cache after the one that fills it.
    warm_queries = 3

    def __init__(self, name, topology, axes, *, shared_cache):
        self.name = name
        self.topology, self.axes = topology, axes
        self.shared_cache = shared_cache

    def setup(self, seed: int) -> None:
        self.workload = WorkloadSpec.from_benchmark("vgg16-cifar10", seed=seed)
        self.cache = SweepCache()
        # The reference is the cache-cold answer; with a shared cache it is
        # also the query that fills the cache the timed ops read.
        self.reference = self.op()[0]
        for _ in range(self.warm_queries if self.shared_cache else 0):
            self.op()

    def op(self):
        cache = self.cache if self.shared_cache else SweepCache()
        hits, misses = cache.hits, cache.misses
        result = tuner.autotune(self.workload, self.topology, axes=self.axes, cache=cache)
        return result, cache.hits - hits, cache.misses - misses

    def check(self, output) -> bool:
        result = output[0]
        return result.best == self.reference.best and result.trace == self.reference.trace

    def items(self, output) -> int:
        return output[0].queries

    def cache_counts(self, output) -> tuple[int, int]:
        return output[1], output[2]

    def pins(self) -> dict:
        return {
            "best_config": self.reference.best_config,
            "best_iteration_seconds": self.reference.best_metric,
            "queries": self.reference.queries,
        }


#: The cold tuner's grid: 3 compressors x 3 ratios x 2 buckets x dedup x
#: cross-bucket lanes on the hierarchical all-gather.
COLD_AXES = {
    "compressor": ("topk", "dgc", "sidco-e"),
    "ratio": (0.1, 0.01, 0.001),
    "bucket_bytes": (MiB, 4 * MiB),
    "overlap": ("comm+compress",),
    "allgather_algorithm": ("hierarchical",),
    "dedup_assumption": (None, "uniform"),
    "cross_bucket_pipeline": (False, True),
    "scheduler_backend": ("vectorized",),
}


def build_workloads() -> dict[str, Workload]:
    """A fresh object per workload, keyed by name, in run order.

    Why each exists is in BENCHMARK.json and README.md; in short, which layer
    it loads and which workload bypasses that layer.
    """
    workloads = [
        # The paper's headline job: nn-heavy, SIDCo on small in-cache buckets,
        # scheduler under 1% -- the bypass for scheduler changes.
        TrainWorkload(
            "train-lstm", "lstm-ptb", "sidco-e", 0.01,
            SimulationKnobs(
                bucket_bytes=4 * MiB, overlap="comm+compress", topology="ethernet-4x8",
                allgather_algorithm="hierarchical", scheduler_backend="vectorized",
            ),
        ),
        # Conv nn, DGC's many-small-bucket fit, cross-bucket lanes and fault
        # pricing inside the trainer; train-lstm is its clean-path bypass.
        TrainWorkload(
            "train-cnn-faults", "vgg16-cifar10", "dgc", 0.001,
            SimulationKnobs(
                bucket_bytes=MiB, overlap="comm+compress", topology="torus-2d",
                allgather_algorithm="hierarchical", cross_bucket_pipeline=True,
                scheduler_backend="vectorized", straggler_severity=2.0,
                sync_policy="backup-workers", backup_workers=1,
            ),
        ),
        CompressWorkload(),
        # Mostly the array scheduler's cross-bucket fit; the cache mostly misses.
        TuneWorkload("tune-cold", "fat-tree-128", COLD_AXES, shared_cache=False),
        # Reads the cache one cold query filled: no compression or scheduling.
        TuneWorkload("tune-warm", "ethernet-4x8", None, shared_cache=True),
    ]
    return {workload.name: workload for workload in workloads}
