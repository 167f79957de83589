"""Tests for the per-primitive cost model."""

import pytest

from repro.compressors import OpRecord
from repro.perfmodel import DeviceProfile, PRIMITIVES, distribute_cost, scale_ops


def _profile(launch=1e-6):
    return DeviceProfile(
        name="test-device",
        per_element={p: 1e-9 * (i + 1) for i, p in enumerate(PRIMITIVES)},
        launch_overhead=launch,
    )


class TestDeviceProfile:
    def test_missing_primitive_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile(name="bad", per_element={"elementwise": 1e-9}, launch_overhead=0.0)

    def test_negative_cost_rejected(self):
        costs = {p: 1e-9 for p in PRIMITIVES}
        costs["sort"] = -1.0
        with pytest.raises(ValueError):
            DeviceProfile(name="bad", per_element=costs, launch_overhead=0.0)

    def test_op_cost_linear_in_size(self):
        profile = _profile(launch=0.0)
        small = profile.op_cost(OpRecord("elementwise", 1000))
        large = profile.op_cost(OpRecord("elementwise", 10_000))
        assert large == pytest.approx(10 * small)

    def test_launch_overhead_added_per_op(self):
        profile = _profile(launch=1e-3)
        assert profile.op_cost(OpRecord("reduce", 0)) == pytest.approx(1e-3)

    def test_unknown_primitive_rejected(self):
        with pytest.raises(KeyError):
            _profile().op_cost(OpRecord("fft", 100))

    def test_trace_cost_sums_ops(self):
        profile = _profile(launch=0.0)
        ops = [OpRecord("elementwise", 100), OpRecord("reduce", 100)]
        assert profile.trace_cost(ops) == pytest.approx(sum(profile.op_cost(o) for o in ops))


class TestScaleOps:
    def test_sizes_scaled(self):
        ops = [OpRecord("elementwise", 100, 10)]
        scaled = scale_ops(ops, 2.5)
        assert scaled[0].size == 250
        assert scaled[0].k == 25

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            scale_ops([], 0.0)


class TestDistributeCost:
    def test_proportional_split_sums_to_total(self):
        parts = distribute_cost(1.0, [100, 300, 100])
        assert parts.tolist() == pytest.approx([0.2, 0.6, 0.2])
        assert float(parts.sum()) == pytest.approx(1.0)

    def test_zero_weights_fall_back_to_equal_split(self):
        parts = distribute_cost(0.9, [0, 0, 0])
        assert parts.tolist() == pytest.approx([0.3, 0.3, 0.3])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            distribute_cost(-1.0, [1])
        with pytest.raises(ValueError):
            distribute_cost(1.0, [])
        with pytest.raises(ValueError):
            distribute_cost(1.0, [1, -1])
