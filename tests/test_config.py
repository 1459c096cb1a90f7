"""Tests for GSIConfig validation and presets."""

import pytest

from repro.core.config import GSIConfig
from repro.errors import ConfigError


class TestValidation:
    def test_default_is_valid(self):
        GSIConfig()

    def test_signature_bits_must_be_multiple_of_32(self):
        with pytest.raises(ConfigError):
            GSIConfig(signature_bits=100)

    def test_signature_bits_upper_bound(self):
        with pytest.raises(ConfigError):
            GSIConfig(signature_bits=1024)

    def test_signature_bits_lower_bound(self):
        with pytest.raises(ConfigError):
            GSIConfig(signature_bits=32)

    def test_gpn_bounds(self):
        with pytest.raises(ConfigError):
            GSIConfig(gpn=1)
        with pytest.raises(ConfigError):
            GSIConfig(gpn=17)
        GSIConfig(gpn=2)

    def test_lb_threshold_ordering(self):
        with pytest.raises(ConfigError):
            GSIConfig(use_load_balance=True, w1=100, w3=256)
        GSIConfig(use_load_balance=True, w1=4096, w3=256)

    def test_lb_thresholds_ignored_when_disabled(self):
        GSIConfig(use_load_balance=False, w1=100, w3=256)

    @pytest.mark.parametrize("bits", [64, 128, 192, 256, 320, 384, 448, 512])
    def test_table5_sweep_values_all_valid(self, bits):
        GSIConfig(signature_bits=bits)


class TestPresets:
    def test_baseline_has_nothing(self):
        c = GSIConfig.baseline()
        assert not c.use_pcsr
        assert not c.use_prealloc_combine
        assert not c.use_gpu_set_ops
        assert not c.use_write_cache
        assert c.storage_kind == "csr"

    def test_ds_adds_pcsr(self):
        c = GSIConfig.with_ds()
        assert c.use_pcsr and not c.use_prealloc_combine
        assert c.storage_kind == "pcsr"

    def test_pc_adds_prealloc(self):
        c = GSIConfig.with_pc()
        assert c.use_pcsr and c.use_prealloc_combine
        assert not c.use_gpu_set_ops

    def test_so_is_full_gsi(self):
        c = GSIConfig.with_so()
        assert c.use_gpu_set_ops and c.use_write_cache
        assert not c.use_load_balance

    def test_gsi_equals_with_so(self):
        assert GSIConfig.gsi() == GSIConfig.with_so()

    def test_opt_has_everything(self):
        c = GSIConfig.gsi_opt()
        assert c.use_load_balance and c.use_duplicate_removal

    def test_lb_config_roundtrip(self):
        c = GSIConfig(use_load_balance=True, w1=8192, w3=192)
        lb = c.load_balance_config()
        assert lb.w1 == 8192 and lb.w3 == 192

    def test_lb_config_none_when_disabled(self):
        assert GSIConfig().load_balance_config() is None
