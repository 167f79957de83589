"""Cross-module integration tests: the paper's headline claims at proxy scale."""

import numpy as np
import pytest

from repro.data import make_language_modeling
from repro.distributed import DistributedTrainer, TrainerConfig
from repro.harness import compare_compressors, get_benchmark
from repro.nn import build_model


class TestHeadlineClaims:
    """The qualitative results the paper leads with, at quick-test scale."""

    @pytest.fixture(scope="class")
    def ptb_comparison(self):
        return compare_compressors(
            "lstm-ptb",
            ("topk", "dgc", "sidco-e"),
            (0.001,),
            num_workers=4,
            iterations=50,
            seed=0,
        )

    def test_compression_speeds_up_communication_bound_training(self, ptb_comparison):
        sidco = next(r for r in ptb_comparison.rows if r.compressor == "sidco-e")
        assert sidco.speedup_vs_baseline > 3.0

    def test_sidco_at_least_as_fast_as_dgc_and_topk(self, ptb_comparison):
        by_name = {r.compressor: r for r in ptb_comparison.rows}
        assert by_name["sidco-e"].throughput_vs_baseline >= by_name["dgc"].throughput_vs_baseline * 0.95
        assert by_name["sidco-e"].throughput_vs_baseline > by_name["topk"].throughput_vs_baseline

    def test_model_quality_preserved_under_compression(self, ptb_comparison):
        # Compressed training must still converge: final loss within a modest
        # factor of the baseline's final loss.
        baseline_loss = ptb_comparison.baseline.metrics.final_loss
        for row in ptb_comparison.rows:
            assert row.final_loss < baseline_loss * 1.5

    def test_sidco_estimation_quality_converges_to_target(self):
        config = get_benchmark("lstm-ptb")
        dataset = config.build_proxy_dataset(seed=1)
        model = config.build_proxy_model(seed=2)
        trainer_cfg = TrainerConfig(
            num_workers=2,
            batch_size=8,
            iterations=60,
            ratio=0.001,
            lr=config.proxy_lr,
            momentum=config.proxy_momentum,
            nesterov=config.proxy_nesterov,
            clip_norm=config.proxy_clip_norm,
            seed=1,
            compute_seconds=0.01,
        )
        result = DistributedTrainer(model, dataset, "sidco-e", trainer_cfg).run()
        late_ratios = result.metrics.achieved_ratios[-15:]
        assert 0.5 <= np.mean(late_ratios) / 0.001 <= 2.0


class TestWorkerConsistency:
    def test_all_workers_apply_identical_updates(self):
        # After training, a fresh forward pass gives identical results no matter
        # which worker's shard the inputs come from (single shared replica).
        dataset = make_language_modeling(num_sequences=64, seq_len=8, vocab_size=16, seed=0)
        model = build_model("lstm_lm", vocab_size=16, embedding_dim=8, hidden_size=12, num_layers=1, seed=0)
        config = TrainerConfig(num_workers=4, batch_size=4, iterations=10, ratio=0.01, lr=0.1, seed=0)
        trainer = DistributedTrainer(model, dataset, "sidco-e", config)
        trainer.run()
        # Workers share the model object; their flat specs agree.
        specs = {tuple(sorted(s.offset for s in w.flat_spec.slots)) for w in trainer.workers}
        assert len(specs) == 1

    def test_per_worker_compressor_state_is_independent(self):
        dataset = make_language_modeling(num_sequences=64, seq_len=8, vocab_size=16, seed=0)
        model = build_model("lstm_lm", vocab_size=16, embedding_dim=8, hidden_size=12, num_layers=1, seed=0)
        config = TrainerConfig(num_workers=3, batch_size=4, iterations=15, ratio=0.001, lr=0.1, seed=0)
        trainer = DistributedTrainer(model, dataset, "sidco-e", config)
        trainer.run()
        compressors = [w.compressor for w in trainer.workers]
        assert len({id(c) for c in compressors}) == 3
        assert all(c.num_stages >= 1 for c in compressors)
