"""Tests for the Table 1 benchmark registry."""

import pytest

from repro.harness import TABLE1, get_benchmark, table1_rows
from repro.harness.configs import PAPER_NUM_WORKERS, PAPER_RATIOS


class TestTable1:
    def test_all_six_benchmarks_present(self):
        assert set(TABLE1) == {
            "lstm-ptb",
            "lstm-an4",
            "resnet20-cifar10",
            "vgg16-cifar10",
            "resnet50-imagenet",
            "vgg19-imagenet",
        }

    def test_paper_constants(self):
        assert PAPER_NUM_WORKERS == 8
        assert PAPER_RATIOS == (0.1, 0.01, 0.001)

    def test_table1_facts_match_paper(self):
        assert TABLE1["lstm-ptb"].full_dimension == 66_034_000
        assert TABLE1["lstm-ptb"].comm_overhead == pytest.approx(0.94)
        assert TABLE1["vgg19-imagenet"].full_dimension == 143_671_337
        assert TABLE1["resnet20-cifar10"].comm_overhead == pytest.approx(0.10)
        assert TABLE1["resnet50-imagenet"].per_worker_batch == 160
        assert TABLE1["vgg16-cifar10"].epochs == 140

    def test_rows_have_all_columns(self):
        rows = table1_rows()
        assert len(rows) == 6
        for row in rows:
            assert {"benchmark", "task", "parameters", "comm_overhead", "optimizer", "quality_metric"} <= set(row)

    def test_lookup_case_insensitive(self):
        assert get_benchmark("LSTM-PTB").name == "lstm-ptb"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            get_benchmark("bert-large")


class TestProxyConstruction:
    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_proxy_model_and_dataset_build(self, name):
        config = get_benchmark(name)
        model = config.build_proxy_model(seed=0)
        dataset = config.build_proxy_dataset(seed=0)
        assert model.num_parameters() > 0
        assert len(dataset) >= config.proxy_batch_size

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_dimension_scale_reflects_full_size(self, name):
        config = get_benchmark(name)
        scale = config.dimension_scale()
        assert scale > 1.0
        assert scale == pytest.approx(config.full_dimension / config.build_proxy_model().num_parameters())

    def test_compute_seconds_reproduces_comm_overhead(self):
        from repro.distributed import CLUSTER_ETHERNET_10G, CollectiveModel, TimelineModel
        from repro.perfmodel import GPU_V100

        config = get_benchmark("vgg16-cifar10")
        compute = config.compute_seconds()
        timeline = TimelineModel(
            collective=CollectiveModel.flat(CLUSTER_ETHERNET_10G, 8),
            device=GPU_V100,
            compute_seconds=compute,
            model_dimension=config.full_dimension,
        )
        baseline = timeline.baseline_iteration()
        assert baseline.communication / baseline.total == pytest.approx(config.comm_overhead, rel=1e-6)

    def test_high_overhead_benchmarks_have_less_compute(self):
        ptb = get_benchmark("lstm-ptb")
        resnet20 = get_benchmark("resnet20-cifar10")
        # 94% overhead with a huge model still implies non-trivial compute, but
        # per byte of model the PTB benchmark is far more communication bound.
        assert ptb.comm_overhead > resnet20.comm_overhead
