"""Tests for flatten/unflatten of named parameter groups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.flatten import flatten, unflatten


def _named_arrays(rng):
    return {
        "layer1.weight": rng.normal(size=(4, 3)),
        "layer1.bias": rng.normal(size=(4,)),
        "layer2.weight": rng.normal(size=(2, 4)),
        "scalar": np.array(rng.normal()),
    }


class TestFlatSpec:
    def test_offsets_and_sizes(self, rng):
        arrays = _named_arrays(rng)
        spec = flatten(arrays)[1]
        slots = {slot.name: slot for slot in spec.slots}
        assert spec.total_size == 12 + 4 + 8 + 1
        assert slots["layer1.bias"].offset == 12
        assert slots["scalar"].size == 1


class TestRoundTrip:
    def test_flatten_unflatten_roundtrip(self, rng):
        arrays = _named_arrays(rng)
        flat, spec = flatten(arrays)
        assert flat.shape == (spec.total_size,)
        restored = unflatten(flat, spec)
        for name, arr in arrays.items():
            assert restored[name].shape == np.asarray(arr).shape
            assert np.allclose(restored[name], arr)

    def test_flatten_with_existing_spec_checks_sizes(self, rng):
        arrays = _named_arrays(rng)
        _, spec = flatten(arrays)
        arrays["layer1.weight"] = np.zeros((5, 3))
        with pytest.raises(ValueError):
            flatten(arrays, spec)

    def test_unflatten_wrong_size_rejected(self, rng):
        _, spec = flatten(_named_arrays(rng))
        with pytest.raises(ValueError):
            unflatten(np.zeros(spec.total_size + 1), spec)

    @given(
        shapes=st.lists(
            st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, shapes):
        rng = np.random.default_rng(0)
        arrays = {f"p{i}": rng.normal(size=s) for i, s in enumerate(shapes)}
        flat, spec = flatten(arrays)
        restored = unflatten(flat, spec)
        for name, arr in arrays.items():
            assert np.allclose(restored[name], arr)


class TestWorkerRows:
    def test_stacked_arrays_pack_one_row_per_worker(self, rng):
        arrays = _named_arrays(rng)
        spec = flatten(arrays)[1]
        stacked = {name: np.stack([np.asarray(a) * (w + 1) for w in range(3)]) for name, a in arrays.items()}
        rows, _ = flatten(stacked, spec, workers=3)
        assert rows.shape == (3, spec.total_size)
        for w in range(3):
            single, _ = flatten({n: np.asarray(a) * (w + 1) for n, a in arrays.items()}, spec)
            assert np.array_equal(rows[w], single)

    def test_spec_inferred_without_the_worker_axis(self, rng):
        arrays = _named_arrays(rng)
        stacked = {name: np.stack([a, a]) for name, a in arrays.items()}
        _, spec = flatten(stacked, workers=2)
        assert spec == flatten(arrays)[1]

    def test_wrong_worker_count_rejected(self, rng):
        arrays = _named_arrays(rng)
        spec = flatten(arrays)[1]
        stacked = {name: np.stack([a, a]) for name, a in arrays.items()}
        with pytest.raises(ValueError):
            flatten(stacked, spec, workers=3)
