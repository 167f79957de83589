"""Tests for the calibrated device profiles (the Figure 1 asymmetries)."""

from repro.compressors import OpRecord
from repro.perfmodel import CPU_XEON, GPU_V100


class TestCalibratedAsymmetries:
    """The relative orderings that drive the paper's micro-benchmarks."""

    def test_gpu_topk_much_slower_than_reductions(self):
        d = 10_000_000
        topk = GPU_V100.op_cost(OpRecord("topk_select", d))
        reduce_ = GPU_V100.op_cost(OpRecord("reduce", d))
        assert topk / reduce_ > 50

    def test_cpu_topk_only_moderately_slower_than_reductions(self):
        d = 10_000_000
        topk = CPU_XEON.op_cost(OpRecord("topk_select", d))
        reduce_ = CPU_XEON.op_cost(OpRecord("reduce", d))
        assert 2 < topk / reduce_ < 100

    def test_cpu_random_sampling_more_expensive_than_selection(self):
        d = 10_000_000
        sample = CPU_XEON.op_cost(OpRecord("random_sample", d))
        topk = CPU_XEON.op_cost(OpRecord("topk_select", d))
        assert sample > topk

    def test_gpu_random_sampling_cheap(self):
        d = 10_000_000
        sample = GPU_V100.op_cost(OpRecord("random_sample", d))
        topk = GPU_V100.op_cost(OpRecord("topk_select", d))
        assert sample < topk / 10

    def test_gpu_faster_than_cpu_for_streaming_ops(self):
        d = 10_000_000
        assert GPU_V100.op_cost(OpRecord("elementwise", d)) < CPU_XEON.op_cost(OpRecord("elementwise", d))
