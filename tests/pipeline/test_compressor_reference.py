"""Every baseline ``compress`` against its scalar reference body.

``Compressor.compress`` is the one-bucket case of ``fit_all_buckets``; the
scalar bodies it replaced live on in ``compressor_reference.py``.  The two
must agree on everything downstream code reads: kept indices and values, the
threshold, the op trace (which the device model prices for Figures 1, 12 and
14-17), the target ratio, and the cross-call state (RNG streams, adaptive
threshold scales).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import available_compressors, create_compressor
from repro.gradients import realistic_gradient
from repro.pipeline import CompressionPipeline

from .compressor_reference import SCALAR_CLASSES, ReferencePipeline, reference_compress

NAMES = tuple(cls.name for cls in SCALAR_CLASSES)
KINDS = ("realistic", "constant", "zero", "denormal", "tied")


def _gradient(kind: str, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "realistic":
        return realistic_gradient(size, seed=seed)
    if kind == "constant":
        return np.full(size, rng.choice([-0.3, 0.3]))
    if kind == "zero":
        return np.zeros(size)
    if kind == "denormal":
        # Small multiples of the smallest subnormal: heavy ties near zero.
        return rng.integers(-3, 4, size=size) * 5e-324
    return rng.choice([-0.5, -0.25, 0.25, 0.5], size=size)


def _state(compressor):
    if hasattr(compressor, "_rng"):
        return compressor._rng.bit_generator.state
    return getattr(compressor, "_scale", None)


def _assert_same(new, ref):
    np.testing.assert_array_equal(new.sparse.indices, ref.sparse.indices)
    np.testing.assert_array_equal(new.sparse.values, ref.sparse.values)
    assert new.sparse.dense_size == ref.sparse.dense_size
    # repr: None stays None, and NaN thresholds compare equal.
    assert repr(new.threshold) == repr(ref.threshold)
    assert new.ops == ref.ops
    assert new.target_ratio == ref.target_ratio


@given(
    name=st.sampled_from(NAMES),
    kind=st.sampled_from(KINDS),
    size=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**16),
    ratio=st.sampled_from(["1/d", 0.01, 0.25, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_compress_equals_scalar_reference(name, kind, size, seed, ratio):
    ratio = 1.0 / size if ratio == "1/d" else ratio
    new, ref = create_compressor(name), create_compressor(name)
    for call in range(3):
        gradient = _gradient(kind, size, seed + call)
        _assert_same(new.compress(gradient, ratio), reference_compress(ref, gradient, ratio))
        assert _state(new) == _state(ref)


@pytest.mark.parametrize("ratio", [0.01, 0.3])
@pytest.mark.parametrize("kind", ["realistic", "tied"])
@pytest.mark.parametrize("name", NAMES)
def test_large_gradient_matches_reference(name, kind, ratio):
    size = 2**17 + 17
    new, ref = create_compressor(name), create_compressor(name)
    for call in range(2):
        gradient = _gradient(kind, size, seed=call)
        _assert_same(new.compress(gradient, ratio), reference_compress(ref, gradient, ratio))
        assert _state(new) == _state(ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bucketed", [False, True], ids=["unbucketed", "bucketed"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", available_compressors())
def test_non_finite_input_is_rejected(name, bad, bucketed):
    # One contract for every compressor: a NaN or infinite element raises,
    # rather than being selected, dropped or passed through.
    gradient = realistic_gradient(5000, seed=3)
    gradient[7] = bad
    for ratio in (0.01, 1.0):
        compressor = create_compressor(name)
        if bucketed:
            compressor = CompressionPipeline(compressor, bucket_bytes=4000)
        with pytest.raises(ValueError):
            compressor.compress(gradient, ratio)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bucketed", [False, True], ids=["unbucketed", "bucketed"])
@pytest.mark.parametrize("name", available_compressors())
def test_non_finite_element_in_any_row_of_a_group_is_rejected(name, bucketed):
    rows = np.stack([realistic_gradient(5000, seed=seed) for seed in (3, 4)])
    rows[1, 4321] = np.inf
    group = [create_compressor(name) for _ in rows]
    if bucketed:
        group = [CompressionPipeline(member, bucket_bytes=4000) for member in group]
    with pytest.raises(ValueError, match="NaN or infinite"):
        group[0].compress_group(rows, 0.01, group)


@pytest.mark.parametrize("name", available_compressors())
def test_only_sidco_skips_the_finiteness_scan(name):
    # SIDCo's stage-one pass raises on a non-finite element itself, so its
    # grouped entry reads no row for one: it must not pay a second pass.
    compressor = create_compressor(name)
    for candidate in (compressor, CompressionPipeline(compressor, bucket_bytes=4000)):
        if name.startswith("sidco"):
            candidate._check_finite(None)  # never touches the rows
        else:
            with pytest.raises(TypeError):
                candidate._check_finite(None)


def _touched(ops) -> Counter:
    """Elements (and selection sizes) each primitive touches over a trace."""
    touched: Counter = Counter()
    for op in ops:
        touched[op.op] += op.size
        touched[op.op + ".k"] += op.k
    return touched


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("kind", ["realistic", "zero-bucket"])
def test_fused_trace_touches_what_the_bucket_loop_touches(name, kind):
    # The fused trace launches each primitive once across buckets, but every
    # primitive covers exactly the elements of the per-bucket traces.  A
    # zero bucket has no spread, so GaussianK skips its |g - mean| pass there.
    gradient = realistic_gradient(4200, seed=5)
    if kind == "zero-bucket":
        gradient[1000:2000] = 0.0
    fused = CompressionPipeline(create_compressor(name), bucket_bytes=4000).compress(gradient, 0.02)
    loop = ReferencePipeline(create_compressor(name), bucket_bytes=4000).compress(gradient, 0.02)
    assert fused.metadata["num_buckets"] == 5
    assert _touched(fused.ops) == _touched(loop.ops)
