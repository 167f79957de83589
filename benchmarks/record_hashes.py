"""Fingerprint twelve trainer runs, so two trees can be checked bit for bit.

Each run trains one proxy through ``DistributedTrainer`` and is reduced to the
sha256 of ``repr(metrics.records) + repr(final_evaluation)``.  Running this
script on two commits and diffing the printed JSON shows whether a change kept
every record and final evaluation exactly.  The hashes are not pinned
anywhere: GEMM bits differ across CPUs, so only two trees run on the same
machine can be compared.

The twelve runs cover SIDCo (bucketed and unbucketed, exponential and
generalized Pareto), DGC, Top-k and the dense baseline; both LSTM proxies, the
VGG proxy (conv and max pool) and the ResNet proxy (residual blocks and
global average pooling); the clean path, a straggler with backup workers, warm-up
iterations, ragged shards (every group size from 1 to 8) and worker churn; and
an unbucketed pool priced under an overlap policy, sparse dedup and
cross-bucket lanes (its one-bucket schedule)::

    PYTHONPATH=src python benchmarks/record_hashes.py            # all twelve
    PYTHONPATH=src python benchmarks/record_hashes.py --only lstm-ptb-dgc
"""

from __future__ import annotations

import argparse
import hashlib
import json

from repro.data import make_language_modeling, make_sequence_classification
from repro.distributed import DistributedTrainer, SimulationKnobs, TrainerConfig, WorkerChurn
from repro.harness.configs import get_benchmark
from repro.harness.training_runs import run_benchmark

MiB = 2**20

#: The ``train-lstm`` workload's knobs.
LSTM_KNOBS = SimulationKnobs(
    bucket_bytes=4 * MiB, overlap="comm+compress", topology="ethernet-4x8",
    allgather_algorithm="hierarchical",
)
#: The ``train-cnn-faults`` workload's knobs.
CNN_KNOBS = SimulationKnobs(
    bucket_bytes=MiB, overlap="comm+compress", topology="torus-2d",
    allgather_algorithm="hierarchical", cross_bucket_pipeline=True,
    straggler_severity=2.0, sync_policy="backup-workers", backup_workers=1,
)
#: The ``train-cnn-faults`` bucketing and overlap, on the clean path.
RESNET_KNOBS = SimulationKnobs(bucket_bytes=MiB, overlap="comm+compress")
STRAGGLER_KNOBS = SimulationKnobs(
    topology="torus-2d", straggler_severity=2.0, sync_policy="backup-workers", backup_workers=1,
)
#: No buckets, but every knob the one-bucket schedule reads: an overlap
#: policy, hierarchical dedup, chunk pipelining and cross-bucket lanes.
UNBUCKETED_KNOBS = SimulationKnobs(
    overlap="comm+compress", topology="ethernet-4x8", allgather_algorithm="hierarchical",
    dedup_assumption="uniform", cross_bucket_pipeline=True, pipeline_chunks=4,
)


def _benchmark_run(proxy, compressor, ratio, *, seed, knobs=None, iterations=20):
    return lambda: run_benchmark(proxy, compressor, ratio, iterations=iterations, seed=seed, knobs=knobs)


def _ragged_run(proxy, compressor, *, churn, warmup_iterations=4):
    """12 workers over 150 examples at batch 7: shards end epochs at different steps."""

    def run():
        config = get_benchmark(proxy)
        if proxy == "lstm-ptb":
            dataset = make_language_modeling(num_sequences=150, seq_len=16, vocab_size=64, seed=0)
        else:
            dataset = make_sequence_classification(150, 8, seq_len=16, num_features=12, seed=0)
        trainer_config = TrainerConfig(
            num_workers=12, batch_size=7, iterations=20, ratio=0.01, lr=config.proxy_lr,
            clip_norm=config.proxy_clip_norm, warmup_iterations=warmup_iterations,
            fault_injectors=(WorkerChurn(0.3, 0.5),) if churn else (),
        )
        model = config.build_proxy_model(seed=1)
        return DistributedTrainer(model, dataset, compressor, trainer_config).run(evaluate_on=dataset)

    return run


RUNS = {
    "lstm-ptb-sidco-seed0": _benchmark_run("lstm-ptb", "sidco-e", 0.01, seed=0, knobs=LSTM_KNOBS),
    "lstm-ptb-sidco-seed1": _benchmark_run("lstm-ptb", "sidco-e", 0.01, seed=1, knobs=LSTM_KNOBS),
    "lstm-ptb-topk-straggler": _benchmark_run("lstm-ptb", "topk", 0.001, seed=2, knobs=STRAGGLER_KNOBS),
    "lstm-ptb-dgc": _benchmark_run("lstm-ptb", "dgc", 0.01, seed=3),
    "lstm-an4-sidco": _benchmark_run("lstm-an4", "sidco-e", 0.01, seed=0, knobs=LSTM_KNOBS),
    "vgg16-dgc-faults": _benchmark_run("vgg16-cifar10", "dgc", 0.001, seed=0, knobs=CNN_KNOBS, iterations=10),
    "resnet20-topk": _benchmark_run("resnet20-cifar10", "topk", 0.01, seed=0, knobs=RESNET_KNOBS, iterations=10),
    "lstm-ptb-sidco-churn": _ragged_run("lstm-ptb", "sidco-e", churn=True),
    "lstm-an4-topk-churn": _ragged_run("lstm-an4", "topk", churn=True),
    "lstm-ptb-none-ragged": _ragged_run("lstm-ptb", "none", churn=False, warmup_iterations=0),
    # Unbucketed SIDCo-p over 8 workers: one grouped one-bucket fit per iteration.
    "lstm-ptb-sidco-p": _benchmark_run("lstm-ptb", "sidco-p", 0.01, seed=4),
    "lstm-ptb-topk-unbucketed": _benchmark_run("lstm-ptb", "topk", 0.01, seed=5, knobs=UNBUCKETED_KNOBS),
}


def fingerprint(result) -> str:
    text = repr(result.metrics.records) + repr(result.final_evaluation)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(RUNS), action="append", help="run only these (repeatable)")
    args = parser.parse_args(argv)
    names = args.only or list(RUNS)
    print(json.dumps({name: fingerprint(RUNS[name]()) for name in names}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
