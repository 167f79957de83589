"""Tests for the adaptive stage controller."""

import pytest

from repro.core.stages import StageController, StageControllerConfig


class TestConfigValidation:
    def test_defaults_match_paper(self):
        cfg = StageControllerConfig()
        assert cfg.adaptation_interval == 5
        assert cfg.eps_high == pytest.approx(0.2)
        assert cfg.eps_low == pytest.approx(0.2)
        assert cfg.initial_stages == 1
        assert cfg.error_tolerance == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"adaptation_interval": 0},
            {"eps_high": 1.0},
            {"eps_low": -0.1},
            {"max_stages": 0},
            {"initial_stages": 0},
            {"initial_stages": 20, "max_stages": 5},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StageControllerConfig(**kwargs)


class TestAdaptation:
    def test_no_change_within_tolerance(self):
        controller = StageController(StageControllerConfig(adaptation_interval=2))
        for _ in range(10):
            controller.observe(achieved_k=105, target_k=100)
        assert controller.num_stages == 1

    def test_adds_stage_on_over_selection(self):
        controller = StageController(StageControllerConfig(adaptation_interval=3))
        for _ in range(3):
            controller.observe(achieved_k=500, target_k=100)
        assert controller.num_stages == 2

    def test_adds_stage_on_under_selection(self):
        controller = StageController(StageControllerConfig(adaptation_interval=3))
        for _ in range(3):
            controller.observe(achieved_k=10, target_k=100)
        assert controller.num_stages == 2

    def test_paper_pseudocode_direction_variant(self):
        cfg = StageControllerConfig(adaptation_interval=1, initial_stages=3, paper_pseudocode_direction=True)
        controller = StageController(cfg)
        controller.observe(achieved_k=500, target_k=100)  # over-selection -> decrement
        assert controller.num_stages == 2
        controller.observe(achieved_k=10, target_k=100)  # under-selection -> increment
        assert controller.num_stages == 3

    def test_clamped_at_max_stages(self):
        cfg = StageControllerConfig(adaptation_interval=1, max_stages=3)
        controller = StageController(cfg)
        for _ in range(10):
            controller.observe(achieved_k=10_000, target_k=100)
        assert controller.num_stages == 3

    def test_clamped_at_one_stage(self):
        cfg = StageControllerConfig(adaptation_interval=1, initial_stages=1, paper_pseudocode_direction=True)
        controller = StageController(cfg)
        for _ in range(5):
            controller.observe(achieved_k=10_000, target_k=100)
        assert controller.num_stages == 1

    def test_window_averaging(self):
        # A single outlier inside the window does not trigger adaptation if the
        # average stays within tolerance.
        controller = StageController(StageControllerConfig(adaptation_interval=5))
        observations = [100, 100, 100, 100, 150]  # mean = 110 < 1.2 * 100
        for k in observations:
            controller.observe(achieved_k=k, target_k=100)
        assert controller.num_stages == 1

    def test_adaptation_only_every_q_iterations(self):
        controller = StageController(StageControllerConfig(adaptation_interval=5))
        for i in range(4):
            controller.observe(achieved_k=1000, target_k=100)
            assert controller.num_stages == 1  # not yet adapted
        controller.observe(achieved_k=1000, target_k=100)
        assert controller.num_stages == 2

    def test_invalid_target_rejected(self):
        controller = StageController()
        with pytest.raises(ValueError):
            controller.observe(achieved_k=10, target_k=0)

    def test_observe_returns_each_decision(self):
        controller = StageController(StageControllerConfig(adaptation_interval=1))
        decisions = [
            controller.observe(achieved_k=1000, target_k=100),
            controller.observe(achieved_k=100, target_k=100),
        ]
        assert decisions == [2, 2]
