import math

import numpy as np
import pytest

from parcot.costmodel import (
    CostModelParams,
    compute_time,
    load_profile,
    memory_time,
    params_from_profile,
    predict_decode_time,
    predict_step_time,
)
from parcot.errors import ConfigError


def params(**overrides):
    base = dict(
        bytes_per_weight_pass=8.0e9,
        kv_bytes_per_token_per_slot=28672,
        flops_per_token=3.0e9,
        memory_bandwidth=2.0e12,
        compute_throughput=3.12e14,
        paths=4,
        tokens_per_path=4096,
    )
    base.update(overrides)
    return CostModelParams(**base)


class TestRoofline:
    def test_infinite_compute_leaves_memory_time(self):
        p = params(compute_throughput=1e30)
        assert predict_step_time(p) == memory_time(p)

    def test_doubling_bandwidth_halves_memory_bound_time(self):
        slow = params()
        fast = params(memory_bandwidth=2 * slow.memory_bandwidth)
        assert predict_step_time(slow) == pytest.approx(2 * predict_step_time(fast))

    def test_compute_bound_regime_pins_to_compute(self):
        p = params(compute_throughput=1.0, flops_per_token=1e12)
        assert predict_step_time(p) == compute_time(p)

    def test_weight_dominated_regime_scales_sublinearly(self):
        # kv terms tiny next to the weight pass: 16 paths < 2x one path
        one = params(paths=1, tokens_per_path=1024)
        sixteen = params(paths=16, tokens_per_path=1024)
        assert predict_step_time(sixteen) / predict_step_time(one) < 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            params(memory_bandwidth=0)
        with pytest.raises(ConfigError):
            params(paths=0)


FIGURES = [
    "bytes_per_weight_pass", "kv_bytes_per_token_per_slot", "flops_per_token",
    "memory_bandwidth", "compute_throughput",
]


class TestInputChecks:
    @pytest.mark.parametrize("field", FIGURES)
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, np.float32("nan"), 0.0, -1.0, True, "2e12", None]
    )
    def test_figure_must_be_finite_and_positive(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be finite and positive"):
            params(**{field: bad})

    @pytest.mark.parametrize("field", ["paths", "tokens_per_path"])
    @pytest.mark.parametrize(
        "bad", [2.5, 2.0, True, np.bool_(True), np.float64(4), math.nan, 0, -1, "2", None]
    )
    def test_counts_must_be_positive_integers(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be a positive integer"):
            params(**{field: bad})

    def test_numpy_values_accepted(self):
        p = params(paths=np.int64(4), tokens_per_path=np.uint16(4096), flops_per_token=np.float32(3e9))
        assert type(p.paths) is int and type(p.tokens_per_path) is int
        assert p == params(flops_per_token=float(np.float32(3e9)))
        assert predict_decode_time(p) == predict_decode_time(params(flops_per_token=p.flops_per_token))

    def test_nan_profile_refused(self):
        profile = dict(load_profile(), memory_bandwidth=math.nan)
        with pytest.raises(ConfigError, match="memory_bandwidth must be finite and positive"):
            params_from_profile(profile, 1, 1024)


class TestMonotonicity:
    def test_step_time_non_decreasing_in_each_parameter(self):
        base = params()
        base_time = predict_step_time(base)
        grows = dict(
            paths=8,
            tokens_per_path=8192,
            bytes_per_weight_pass=1.6e10,
            kv_bytes_per_token_per_slot=57344,
            flops_per_token=6.0e9,
        )
        for field, value in grows.items():
            assert predict_step_time(params(**{field: value})) >= base_time, field

    def test_decode_time_monotone_in_length(self):
        times = [
            predict_decode_time(params(tokens_per_path=n)) for n in (256, 512, 1024)
        ]
        assert times == sorted(times)
        assert times[0] >= predict_step_time(params(tokens_per_path=1)) * 256


class TestProfile:
    def test_packaged_profile_loads(self):
        profile = load_profile()
        assert profile["format"] == "ptprofile-1"
        assert profile["kv_bytes_per_token_per_slot"] == 28672

    def test_sixteen_paths_under_twice_one_path(self):
        profile = load_profile()
        for length in (1024, 4096, 16384):
            one = predict_step_time(params_from_profile(profile, 1, length))
            sixteen = predict_step_time(params_from_profile(profile, 16, length))
            assert sixteen / one < 2.0, length

    def test_ratio_grows_with_length(self):
        profile = load_profile()
        ratios = []
        for length in (1024, 4096, 16384):
            one = predict_step_time(params_from_profile(profile, 1, length))
            sixteen = predict_step_time(params_from_profile(profile, 16, length))
            ratios.append(sixteen / one)
        assert ratios == sorted(ratios)
        assert math.isclose(ratios[0], 1.0, abs_tol=0.2)

    def test_unknown_format_rejected(self, tmp_path):
        bad = tmp_path / "profile.json"
        bad.write_text('{"format": "other"}')
        with pytest.raises(ConfigError):
            load_profile(str(bad))
