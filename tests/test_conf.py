import numpy as np
import pytest

from oracle import GaussianPrimitive, confidence, entropy
from splatmem import conf
from splatmem.conf import confidence_values

RNG = np.random.default_rng(3)


def entropy_oracle(logits):
    """Direct summation oracle: softmax then -sum p log p."""
    e = np.exp(logits - np.max(logits))
    p = e / e.sum()
    return float(-(p * np.log(p)).sum())


def prim(logits, opacity=1.0):
    return GaussianPrimitive((0, 0, 0), (0.1, 0.1, 0.1), (1, 0, 0, 0),
                             opacity, logits)


class TestEntropy:
    def test_one_hot_near_zero(self):
        logits = np.zeros(11)
        logits[3] = 50.0
        assert entropy(logits) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_11(self):
        assert entropy(np.zeros(11)) == pytest.approx(np.log(11), abs=1e-12)
        assert entropy(np.full(11, 2.5)) == pytest.approx(2.39790, abs=1e-5)

    def test_uniform_2(self):
        assert entropy(np.zeros(2)) == pytest.approx(np.log(2), abs=1e-12)
        assert entropy(np.zeros(2)) == pytest.approx(0.69315, abs=1e-5)

    def test_matches_direct_summation(self):
        for _ in range(50):
            logits = RNG.normal(size=11) * 3
            assert entropy(logits) == pytest.approx(entropy_oracle(logits), abs=1e-10)

    def test_shift_invariance(self):
        for _ in range(20):
            logits = RNG.normal(size=11)
            shift = RNG.uniform(-30, 30)
            assert entropy(logits + shift) == pytest.approx(entropy(logits), abs=1e-9)

    def test_extreme_logits_stay_finite(self):
        assert np.isfinite(entropy(np.array([1e4, -1e4, 0.0])))


class TestConfidence:
    def test_one_hot_full_opacity(self):
        logits = np.zeros(11)
        logits[0] = 50.0
        assert confidence(prim(logits, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_11_defaults(self):
        # (1 - ln(11)/3)^3 with the entropy oracle
        h = entropy_oracle(np.zeros(11))
        expect = (1.0 - h / 3.0) ** 3
        got = confidence(prim(np.zeros(11), 1.0))
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.008084, abs=1e-5)

    def test_linear_in_opacity(self):
        got = confidence(prim(np.zeros(11), 0.5))
        assert got == pytest.approx(0.004042, abs=1e-5)

    def test_entropy_above_hmax_gives_zero(self):
        # 25 uniform logits have entropy ln 25 > 3, which the clip caps at H_MAX
        assert entropy(np.zeros(25)) > conf.H_MAX
        assert confidence(prim(np.zeros(25), 1.0)) == 0.0

    def test_monotone_in_entropy(self):
        peaks = np.linspace(6, 0, 10)
        hs, values = [], []
        for p in peaks:
            logits = np.zeros(11)
            logits[0] = p
            hs.append(entropy(logits))
            values.append(confidence(prim(logits)))
        # a lower peak has strictly higher entropy, and no higher confidence
        assert all(h1 < h2 for h1, h2 in zip(hs, hs[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_range(self):
        for _ in range(30):
            logits = RNG.normal(size=11) * 4
            c = confidence(prim(logits, RNG.uniform(0, 1)))
            assert 0.0 <= c <= 1.0

    def test_defaults_pinned(self):
        assert conf.H_MAX == 3.0
        assert conf.SHARPNESS == 3.0


class TestConfidenceBatch:
    def test_no_normalization_matches_elementwise(self):
        prims = [prim(RNG.normal(size=11), RNG.uniform(0, 1)) for _ in range(8)]
        got = confidence_values(np.stack([g.logits for g in prims]),
                                np.array([g.opacity for g in prims]))
        for g, c in zip(prims, got):
            assert c == pytest.approx(confidence(g), abs=1e-12)
