import pytest

import scalefit as sf
from scalefit.errors import DataError


class TestParamCount:
    def test_bert_base(self):
        assert sf.param_count(12, 768) == 84_934_656

    def test_smallest_scale(self):
        assert sf.param_count(1, 32) == 12_288

    def test_eight_layer_ar32(self):
        assert sf.param_count(8, 256) == 6_291_456
        ratio = sf.param_count(12, 768) / sf.param_count(8, 256)
        assert 13.4 <= ratio <= 13.6

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            sf.param_count(0, 32)
        with pytest.raises(DataError):
            sf.param_count(3, -1)

    def test_monotone_in_each_argument(self):
        for L in range(1, 20):
            assert sf.param_count(L + 1, 64) > sf.param_count(L, 64)
        for H in range(1, 200, 7):
            assert sf.param_count(3, H + 1) > sf.param_count(3, H)


class TestFlops:
    def test_zero_tokens(self):
        assert sf.flops(85_000_000, 0) == 0

    def test_unit_case(self):
        assert sf.flops(1, 1) == 6

    def test_smallest_scale_million_tokens(self):
        assert sf.flops(12_288, 1_000_000) == 73_728_000_000

    def test_linear_in_tokens(self):
        for a, b in [(0, 5), (17, 29), (1000, 2345)]:
            assert sf.flops(12_288, a + b) == sf.flops(12_288, a) + sf.flops(12_288, b)

    def test_estimate_invariant(self):
        est = sf.ComputeEstimate(12_288, 10)
        assert est.flops == 6 * 12_288 * 10

    @pytest.mark.parametrize("params, tokens", [(12_288, 0), (1, 1), (85_000_000, 1_000_000)])
    def test_estimate_derives_flops(self, params, tokens):
        est = sf.ComputeEstimate(params, tokens)
        assert est.flops == sf.flops(params, tokens)
        assert est == sf.ComputeEstimate(params=params, tokens=tokens)

    @pytest.mark.parametrize("params, tokens", [(0, 10), (-5, 10), (10, -1)])
    def test_estimate_rejects_bad_counts(self, params, tokens):
        with pytest.raises(DataError):
            sf.ComputeEstimate(params, tokens)

    def test_estimate_takes_no_flops(self):
        with pytest.raises(TypeError):
            sf.ComputeEstimate(params=10, tokens=10, flops=600)


class TestSavingsRatio:
    def test_ar32_sweep_vs_twelve_layer(self):
        small = sf.scale_ladder(32, range(1, 9))
        large = sf.ScaleSpec.from_dims(12, 768)
        assert sum(s.params for s in small) == 15_925_248
        ratio = sf.savings_ratio(small, large)
        assert ratio == 84_934_656 / 15_925_248
        assert 5.3 <= ratio <= 5.4

    def test_identity(self):
        scale = sf.ScaleSpec.from_dims(4, 128)
        assert sf.savings_ratio([scale], scale) == 1.0

    def test_two_halves(self):
        small = [sf.ScaleSpec.from_params(500), sf.ScaleSpec.from_params(500)]
        large = sf.ScaleSpec.from_params(1000)
        assert sf.savings_ratio(small, large, "equal_tokens") == 1.0

    def test_supplied_tokens(self):
        small = [sf.ScaleSpec.from_params(100), sf.ScaleSpec.from_params(200)]
        large = sf.ScaleSpec.from_params(1000)
        ratio = sf.savings_ratio(
            small, large, "supplied_tokens", small_tokens=[10, 5], large_tokens=4
        )
        # 6*1000*4 / (6*100*10 + 6*200*5) = 24000 / 12000
        assert ratio == 2.0

    def test_supplied_tokens_requires_counts(self):
        small = [sf.ScaleSpec.from_params(100)]
        large = sf.ScaleSpec.from_params(1000)
        with pytest.raises(DataError, match="token counts required"):
            sf.savings_ratio(small, large, "supplied_tokens")

    def test_empty_small_rejected(self):
        with pytest.raises(DataError, match="nonempty"):
            sf.savings_ratio([], sf.ScaleSpec.from_params(10))
