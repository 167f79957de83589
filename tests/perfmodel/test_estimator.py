"""Tests for compression-latency estimation (Figure 1 / 14-17 machinery)."""

import numpy as np
import pytest

from repro.compressors import create_compressor
from repro.gradients import realistic_gradient
from repro.perfmodel import (
    CPU_XEON,
    GPU_V100,
    estimate_latency,
    estimate_latency_for_dimension,
)


def _speedups(latencies, reference="topk"):
    """Each compressor's latency normalised by ``reference``'s (Figure 1's y axis)."""
    return {name: latencies[reference] / seconds for name, seconds in latencies.items()}


@pytest.fixture(scope="module")
def sample():
    return realistic_gradient(200_000, seed=2)


class TestEstimateLatency:
    def test_latency_positive_and_device_dependent(self, sample):
        result = create_compressor("topk").compress(sample, 0.01)
        gpu = estimate_latency(result, GPU_V100)
        cpu = estimate_latency(result, CPU_XEON)
        assert gpu > 0.0 and cpu > 0.0
        assert cpu > gpu  # streaming + selection is faster on the accelerator


class TestDimensionScaling:
    def test_latency_scales_linearly_with_dimension(self, sample):
        compressor = create_compressor("topk")
        small = estimate_latency_for_dimension(compressor, sample, 1_000_000, 0.01, GPU_V100)
        large = estimate_latency_for_dimension(compressor, sample, 10_000_000, 0.01, GPU_V100)
        assert large.seconds / small.seconds == pytest.approx(10.0, rel=0.05)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            estimate_latency_for_dimension(create_compressor("topk"), np.array([]), 100, 0.1, GPU_V100)

    def test_rejects_bad_dimension(self, sample):
        with pytest.raises(ValueError):
            estimate_latency_for_dimension(create_compressor("topk"), sample, 0, 0.1, GPU_V100)


class TestPaperOrderings:
    """Figure 1's qualitative result must emerge from the cost model."""

    @pytest.fixture(scope="class")
    def latencies(self):
        sample = realistic_gradient(200_000, seed=2)
        dimension = 14_982_987  # VGG16
        out = {}
        for device in (GPU_V100, CPU_XEON):
            per_device = {}
            for name in ("topk", "dgc", "redsync", "gaussiank", "sidco-e"):
                compressor = create_compressor(name)
                for _ in range(10):
                    compressor.compress(sample, 0.001)
                per_device[name] = estimate_latency_for_dimension(
                    compressor, sample, dimension, 0.001, device
                ).seconds
            out[device.name] = per_device
        return out

    def test_gpu_every_compressor_beats_topk(self, latencies):
        speedups = _speedups(latencies["gpu-v100"])
        for name in ("dgc", "redsync", "gaussiank", "sidco-e"):
            assert speedups[name] > 1.0

    def test_gpu_sidco_fastest(self, latencies):
        speedups = _speedups(latencies["gpu-v100"])
        assert speedups["sidco-e"] == max(speedups.values())
        assert speedups["sidco-e"] > 10.0

    def test_cpu_dgc_slower_than_topk(self, latencies):
        speedups = _speedups(latencies["cpu-xeon"])
        assert speedups["dgc"] < 1.0

    def test_cpu_sidco_faster_than_topk(self, latencies):
        speedups = _speedups(latencies["cpu-xeon"])
        assert 1.0 < speedups["sidco-e"] < 10.0
