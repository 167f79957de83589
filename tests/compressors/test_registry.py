"""Tests for the compressor registry."""

import pytest

from repro.compressors import (
    PAPER_COMPRESSORS,
    SIDCO_VARIANTS,
    Compressor,
    available_compressors,
    create_compressor,
)
from repro.core import SIDCo


class TestRegistry:
    def test_all_paper_compressors_available(self):
        names = available_compressors()
        for name in PAPER_COMPRESSORS + SIDCO_VARIANTS + ("none", "randomk", "hard_threshold"):
            assert name in names

    def test_create_returns_compressor_instances(self):
        for name in available_compressors():
            assert isinstance(create_compressor(name), Compressor)

    def test_sidco_variants_map_to_sids(self):
        assert create_compressor("sidco-e").sid == "exponential"
        assert create_compressor("sidco-gp").sid == "gamma"
        assert create_compressor("sidco-p").sid == "gpareto"
        assert isinstance(create_compressor("sidco-e"), SIDCo)

    def test_kwargs_forwarded(self):
        dgc = create_compressor("dgc", sample_ratio=0.05)
        assert dgc.sample_ratio == 0.05

    def test_case_insensitive(self):
        assert create_compressor("TopK").name == "topk"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_compressor("does-not-exist")

    def test_unknown_name_error_lists_every_registered_compressor(self):
        # Mirrors get_network/get_topology: the error is self-documenting and
        # names every registry key.
        with pytest.raises(ValueError, match="unknown compressor") as excinfo:
            create_compressor("does-not-exist")
        message = str(excinfo.value)
        for name in available_compressors():
            assert name in message, name
        for name in PAPER_COMPRESSORS:
            assert name in message, name
