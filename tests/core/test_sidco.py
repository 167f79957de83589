"""Tests for the SIDCo compressor (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import SIDCo, StageControllerConfig
from repro.gradients import evolving_gradients, laplace_gradient, realistic_gradient


class TestConstruction:
    def test_variant_names(self):
        assert SIDCo.from_variant("sidco-e").sid == "exponential"
        assert SIDCo.from_variant("SIDCO-GP").sid == "gamma"
        assert SIDCo.from_variant("sidco-p").sid == "gpareto"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            SIDCo.from_variant("sidco-x")

    def test_invalid_sid_rejected(self):
        with pytest.raises(ValueError):
            SIDCo(sid="gaussian")

    def test_invalid_first_stage_ratio_rejected(self):
        with pytest.raises(ValueError):
            SIDCo(first_stage_ratio=1.5)

    def test_name_reflects_variant(self):
        assert SIDCo("exponential").name == "sidco-e"
        assert SIDCo("gamma").name == "sidco-gp"
        assert SIDCo("gpareto").name == "sidco-p"


class TestCompression:
    def test_exact_on_matching_sid(self):
        # Laplace gradients + exponential SIDCo: even single-stage is accurate.
        gradient = laplace_gradient(400_000, scale=1e-3, seed=0)
        result = SIDCo("exponential").compress(gradient, 0.01)
        assert abs(result.estimation_quality - 1.0) < 0.1

    @pytest.mark.parametrize("variant", ["sidco-e", "sidco-gp", "sidco-p"])
    @pytest.mark.parametrize("ratio", [0.01, 0.001])
    def test_adaptation_converges_on_mixture_gradients(self, variant, ratio):
        compressor = SIDCo.from_variant(variant)
        qualities = []
        for i in range(40):
            gradient = realistic_gradient(150_000, seed=100 + i)
            qualities.append(compressor.compress(gradient, ratio).estimation_quality)
        steady_state = np.mean(qualities[-10:])
        assert 0.7 <= steady_state <= 1.3, f"{variant} at {ratio}: {steady_state}"

    def test_stage_count_grows_for_aggressive_ratio(self):
        compressor = SIDCo("exponential")
        for i in range(15):
            compressor.compress(realistic_gradient(100_000, seed=i), 0.001)
        assert compressor.num_stages >= 2

    def test_stage_count_stays_one_for_moderate_ratio_on_matching_sid(self):
        compressor = SIDCo("exponential")
        for i in range(15):
            compressor.compress(laplace_gradient(100_000, scale=1e-3, seed=i), 0.1)
        assert compressor.num_stages == 1

    def test_metadata_reports_stages(self, medium_gradient):
        result = SIDCo("exponential").compress(medium_gradient, 0.01)
        assert result.metadata["sid"] == "exponential"
        assert result.metadata["stages_used"] >= 1
        assert result.metadata["stages_used"] <= result.metadata["num_stages_configured"]

    def test_reset_restores_single_stage(self):
        compressor = SIDCo("exponential")
        for i in range(15):
            compressor.compress(realistic_gradient(100_000, seed=i), 0.001)
        assert compressor.num_stages > 1
        compressor.reset()
        assert compressor.num_stages == 1

    def test_handles_evolving_sparsity(self):
        # Gradients become sparser over "training" (Figure 2); quality should
        # remain near the target once the controller settles.
        compressor = SIDCo("exponential")
        gradients = evolving_gradients(100_000, 50, seed=3)
        qualities = [compressor.compress(g, 0.001).estimation_quality for g in gradients]
        assert 0.6 <= np.mean(qualities[-10:]) <= 1.4

    def test_threshold_selection_is_consistent(self, medium_gradient):
        result = SIDCo("exponential").compress(medium_gradient, 0.01)
        dense = result.sparse.to_dense()
        kept_mask = dense != 0.0
        assert np.all(np.abs(medium_gradient[kept_mask]) >= result.threshold - 1e-15)
        assert np.all(np.abs(medium_gradient[~kept_mask]) < result.threshold + 1e-15)

    def test_custom_controller_config(self):
        cfg = StageControllerConfig(adaptation_interval=2, max_stages=3, initial_stages=2)
        compressor = SIDCo("exponential", controller=cfg)
        assert compressor.num_stages == 2
        compressor.compress(realistic_gradient(50_000, seed=0), 0.001)
        assert compressor.controller.config.max_stages == 3

    def test_ops_are_cheaper_than_topk(self, medium_gradient):
        from repro.compressors import TopK
        from repro.perfmodel import GPU_V100

        sidco_result = SIDCo("exponential").compress(medium_gradient, 0.01)
        topk_result = TopK().compress(medium_gradient, 0.01)
        assert GPU_V100.trace_cost(sidco_result.ops) < GPU_V100.trace_cost(topk_result.ops)


@pytest.mark.parametrize("variant", ["sidco-e", "sidco-gp", "sidco-p"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteGradients:
    """A NaN or infinite element is rejected rather than silently mis-selected."""

    @staticmethod
    def _gradient(bad):
        gradient = realistic_gradient(20_000, seed=4)
        gradient[12_345] = bad
        return gradient

    def test_unbucketed_compress_raises(self, variant, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            SIDCo.from_variant(variant).compress(self._gradient(bad), 0.01)

    def test_fit_all_buckets_raises(self, variant, bad):
        from repro.pipeline import BucketLayout

        layout = BucketLayout(total_size=20_000, bucket_size=4096)
        with pytest.raises(ValueError, match="NaN or infinite"):
            SIDCo.from_variant(variant).fit_all_buckets(self._gradient(bad), layout, 0.01)

    def test_pipeline_raises(self, variant, bad):
        from repro.pipeline import CompressionPipeline

        pipeline = CompressionPipeline(SIDCo.from_variant(variant), bucket_bytes=16 * 1024)
        with pytest.raises(ValueError, match="NaN or infinite"):
            pipeline.compress(self._gradient(bad), 0.01)


@pytest.mark.parametrize("bucketed", [False, True], ids=["whole", "bucketed"])
@pytest.mark.parametrize(
    "variant, stages", [("sidco-p", 1), ("sidco-gp", 2), ("sidco-gp", 3)]
)
@pytest.mark.parametrize("size", [4096, 12_345])
def test_degenerate_stage_fit_selects_nothing(variant, stages, bucketed, size):
    """A constant magnitude leaves the GP fit no variance: the bucket's threshold is +inf.

    The rule is one for both layouts: the call returns a valid, empty
    selection and never raises.
    """
    gradient = np.where(realistic_gradient(size, seed=6) < 0.0, -0.01, 0.01)
    compressor = SIDCo.from_variant(variant, controller=StageControllerConfig(initial_stages=stages))
    if bucketed:
        from repro.pipeline import CompressionPipeline

        compressor = CompressionPipeline(compressor, bucket_bytes=4 * 1024)
    for _ in range(2):
        result = compressor.compress(gradient, 0.01)
        assert result.sparse.dense_size == size
        assert result.sparse.nnz == 0
        assert np.all(np.isfinite(result.sparse.values))
