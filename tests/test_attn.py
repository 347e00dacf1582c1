import hashlib

import numpy as np
import pytest

from splatmem.attn import (
    EncoderWeights,
    PrimitiveBatch,
    cca,
    dte_step,
    init_weights,
    load_weights,
    mha,
    save_weights,
    temporal_encoder_block,
)
from splatmem.errors import FormatError, InvalidInputError

RNG = np.random.default_rng(23)
D = 32

# Frozen regression fixtures, generated once from the implementation.
WTS_SHA256_SEED42 = "d7d7fec1aae2ac9fa0f01aab85c73d3fed1577ea0f78129d8a5eda8eff2d5046"
BLOCK_MEAN0 = np.array([1.61102916, -1.41003636, -1.63985164])
BLOCK_FEAT0 = np.array([0.21425894, 0.10949044, 2.32181699, -0.12007509])
BLOCK_OPAC = np.array([0.12660995, 0.3662366, 0.50843483])
DTE_A_MEAN1 = np.array([3.37836593, -3.33920301, -4.38904249])
DTE_B_LOGITS2 = np.array([-7.52949616, 3.47856484, 5.01320981])
DTE_A_CONF = np.array([2.17167478e-04, 9.44262787e-02, 3.30752273e-01])


def fixed_batch(seed, n=3, d=D):
    rng = np.random.default_rng(seed)
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return PrimitiveBatch(
        means=rng.uniform(0, 1, (n, 3)),
        scales=rng.uniform(0.02, 0.1, (n, 3)),
        rotations=quats,
        opacities=rng.uniform(0.2, 0.9, n),
        logits=rng.normal(size=(n, 11)),
        features=rng.normal(size=(n, d)),
        confidences=rng.uniform(0.1, 1.0, n),
    )


def mha_reference(Q, K, V, n_heads):
    """Independent re-derivation: per-head loops and explicit softmax."""
    n, d = Q.shape
    dh = d // n_heads
    out = np.zeros((n, d))
    for h in range(n_heads):
        qs = Q[:, h * dh : (h + 1) * dh]
        ks = K[:, h * dh : (h + 1) * dh]
        vs = V[:, h * dh : (h + 1) * dh]
        for i in range(n):
            scores = np.array([qs[i] @ ks[j] for j in range(len(ks))]) / np.sqrt(dh)
            scores -= scores.max()
            w = np.exp(scores)
            w /= w.sum()
            out[i, h * dh : (h + 1) * dh] = sum(w[j] * vs[j] for j in range(len(vs)))
    return out


def mha_materialised(Q, K, V, n_heads):
    """The (H, N, M) score-tensor attention that the blocked mha replaced."""
    n, d = Q.shape
    m = K.shape[0]
    dh = d // n_heads
    qh = Q.reshape(n, n_heads, dh).transpose(1, 0, 2)
    kh = K.reshape(m, n_heads, dh).transpose(1, 0, 2)
    vh = V.reshape(m, n_heads, dh).transpose(1, 0, 2)
    scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(dh)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    return (attn @ vh).transpose(1, 0, 2).reshape(n, d)


class TestInitWeights:
    def test_deterministic(self):
        a = init_weights(seed=5)
        b = init_weights(seed=5)
        for name in EncoderWeights.MATRIX_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_weights(self):
        a = init_weights(seed=5)
        b = init_weights(seed=6)
        assert not np.array_equal(a.w_q, b.w_q)

    def test_golden_checksum_seed42(self, tmp_path):
        w = init_weights(32, 4, 64, 12, seed=42)
        path = tmp_path / "w.wts"
        save_weights(path, w)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == WTS_SHA256_SEED42

    def test_divisibility_enforced(self):
        with pytest.raises(InvalidInputError):
            init_weights(d_model=30, n_heads=4)

    def test_bad_dims(self):
        with pytest.raises(InvalidInputError):
            init_weights(d_model=0)

    def test_roundtrip(self, tmp_path):
        w = init_weights(seed=9)
        path = tmp_path / "w.wts"
        save_weights(path, w)
        w2 = load_weights(path)
        for name in EncoderWeights.MATRIX_FIELDS:
            assert np.array_equal(getattr(w, name), getattr(w2, name))
        assert (w2.d_model, w2.n_heads, w2.d_ff, w2.n_classes, w2.seed) == (
            w.d_model, w.n_heads, w.d_ff, w.n_classes, w.seed)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.wts"
        w = init_weights(seed=1)
        save_weights(path, w)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_weights(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "w.wts"
        save_weights(path, init_weights(seed=1))
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(FormatError):
            load_weights(path)


class TestMha:
    def test_single_key_returns_value_row(self):
        Q = RNG.normal(size=(4, D))
        K = RNG.normal(size=(1, D))
        V = RNG.normal(size=(1, D))
        out = mha(Q, K, V, 4)
        for i in range(4):
            assert np.allclose(out[i], V[0], atol=1e-12)

    def test_identical_keys_average_values(self):
        Q = RNG.normal(size=(3, D))
        K = np.tile(RNG.normal(size=(1, D)), (5, 1))
        V = RNG.normal(size=(5, D))
        out = mha(Q, K, V, 4)
        assert np.allclose(out, np.tile(V.mean(axis=0), (3, 1)), atol=1e-12)

    def test_matches_reference(self):
        Q = RNG.normal(size=(4, D))
        K = RNG.normal(size=(6, D))
        V = RNG.normal(size=(6, D))
        for heads in (1, 2, 4, 8):
            assert np.allclose(mha(Q, K, V, heads),
                               mha_reference(Q, K, V, heads), atol=1e-9)

    def test_empty_keys_rejected(self):
        with pytest.raises(InvalidInputError):
            mha(RNG.normal(size=(2, D)), np.zeros((0, D)), np.zeros((0, D)), 4)

    def test_finite_under_extreme_scores(self):
        Q = np.full((2, D), 1e3)
        K = np.full((3, D), 1e3)
        V = RNG.normal(size=(3, D))
        assert np.all(np.isfinite(mha(Q, K, V, 4)))

    # Query counts around the 128-row block and key counts of the sizes an
    # embodied frame sees. Normalising after the product with V reorders
    # rounding only: outputs agree to rtol 1e-12, and atol 1e-14 covers
    # outputs that cancel to near zero.
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 823])
    @pytest.mark.parametrize("m", [1, 609, 1200])
    def test_matches_materialised_softmax(self, n, m):
        rng = np.random.default_rng(n * 10007 + m)
        Q, K, V = (rng.normal(size=(r, D)) for r in (n, m, m))
        np.testing.assert_allclose(mha(Q, K, V, 4), mha_materialised(Q, K, V, 4),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_for_scores_near_1e3(self, sign):
        # scores q.k / sqrt(dh) = sqrt(dh) * amp**2 of about +-1e3: exp
        # overflows or underflows unless each block subtracts its row max
        rng = np.random.default_rng(5)
        amp = np.sqrt(1e3 / np.sqrt(D // 4))
        Q = np.full((300, D), sign * amp)
        K = amp * rng.normal(1.0, 0.01, size=(200, D))
        V = rng.normal(size=(200, D))
        out = mha(Q, K, V, 4)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, mha_materialised(Q, K, V, 4),
                                   rtol=1e-12, atol=1e-14)


class TestCca:
    def test_unit_confidence_equals_plain_cross_attention(self):
        w = init_weights(seed=11)
        q = fixed_batch(1, n=4)
        kv = fixed_batch(2, n=6)
        q.confidences[:] = 1.0
        kv.confidences[:] = 1.0
        got = cca(q, kv, w)
        plain = mha(q.features @ w.w_q, kv.features @ w.w_k,
                    kv.features @ w.w_v, w.n_heads) @ w.w_o
        assert np.max(np.abs(got - plain)) <= 1e-9

    def test_zero_key_confidence_zeroes_output(self):
        w = init_weights(seed=12)
        q = fixed_batch(3, n=4)
        kv = fixed_batch(4, n=5)
        kv.confidences[:] = 0.0
        assert np.max(np.abs(cca(q, kv, w))) == 0.0

    def test_zero_conf_key_value_is_ignored(self):
        # with one key's confidence at zero, its value projection input is
        # irrelevant as long as its key stays fixed
        w = init_weights(seed=13)
        q = fixed_batch(5, n=3)
        kv = fixed_batch(6, n=4)
        kv.confidences[2] = 0.0
        base = cca(q, kv, w)
        kv2 = kv.copy()
        # perturbing the feature row would change K too; instead verify via
        # the formula: V' row 2 is exactly zero
        V = (kv.features @ w.w_v) * kv.confidences[:, None]
        assert np.max(np.abs(V[2])) == 0.0
        got = mha(q.features @ w.w_q, kv.features @ w.w_k, V, w.n_heads)
        got = (got * q.confidences[:, None]) @ w.w_o
        assert np.allclose(base, got, atol=1e-12)

    def test_query_confidence_scales_rows(self):
        w = init_weights(seed=14)
        q = fixed_batch(7, n=3)
        kv = fixed_batch(8, n=3)
        q.confidences[:] = 1.0
        full = cca(q, kv, w)
        q2 = q.copy()
        q2.confidences = np.array([0.5, 1.0, 0.25])
        scaled = cca(q2, kv, w)
        # scaling happens before W_o, so rows scale exactly
        assert np.allclose(scaled, (q2.confidences[:, None]
                                    * (full @ np.linalg.inv(w.w_o))) @ w.w_o,
                           atol=1e-9)

    def test_empty_batch_rejected(self):
        w = init_weights(seed=15)
        with pytest.raises(InvalidInputError):
            cca(PrimitiveBatch.empty(D), fixed_batch(1), w)

    def test_feature_width_mismatch_rejected(self):
        w = init_weights(seed=16)
        q = fixed_batch(1, d=16)
        with pytest.raises(InvalidInputError):
            cca(q, q, w)


class TestTemporalEncoderBlock:
    def test_zero_refinement_keeps_attributes(self):
        w = init_weights(seed=17).with_zero_refinement()
        q = fixed_batch(9)
        kv = fixed_batch(10)
        out = temporal_encoder_block(q, kv, w)
        assert np.array_equal(out.means, q.means)
        assert np.array_equal(out.scales, q.scales)
        assert np.allclose(out.rotations, q.rotations, atol=1e-15)
        assert np.allclose(out.opacities, q.opacities, atol=1e-9)
        assert np.array_equal(out.logits, q.logits)
        assert not np.array_equal(out.features, q.features)

    def test_zero_conf_keys_and_zero_ffn_is_pure_residual(self):
        w = init_weights(seed=18).with_zero_refinement()
        w.ffn_w1 = np.zeros_like(w.ffn_w1)
        w.ffn_b1 = np.zeros_like(w.ffn_b1)
        w.ffn_w2 = np.zeros_like(w.ffn_w2)
        w.ffn_b2 = np.zeros_like(w.ffn_b2)
        q = fixed_batch(11)
        kv = fixed_batch(12)
        kv.confidences[:] = 0.0
        out = temporal_encoder_block(q, kv, w)
        assert np.allclose(out.features, q.features, atol=1e-12)

    def test_golden_fixture(self):
        w = init_weights(32, 4, 64, 12, seed=42)
        out = temporal_encoder_block(fixed_batch(100), fixed_batch(200), w)
        assert np.allclose(out.means[0], BLOCK_MEAN0, atol=1e-7)
        assert np.allclose(out.features[0, :4], BLOCK_FEAT0, atol=1e-7)
        assert np.allclose(out.opacities, BLOCK_OPAC, atol=1e-7)

    def test_outputs_finite_and_valid(self):
        w = init_weights(seed=19)
        out = temporal_encoder_block(fixed_batch(13), fixed_batch(14), w)
        assert np.all(np.isfinite(out.features))
        assert np.all(out.scales > 0)
        assert np.all((out.opacities > 0) & (out.opacities < 1))
        assert np.allclose(np.linalg.norm(out.rotations, axis=1), 1.0, atol=1e-12)
        assert np.all(out.confidences >= 0) and np.all(out.confidences <= 1)


class TestDteStep:
    def test_identical_batches_give_identical_streams(self):
        w = init_weights(seed=20)
        cur = fixed_batch(15)
        hist = fixed_batch(15)
        a, b = dte_step(cur, hist, w, n_blocks=2)
        assert np.allclose(a.features, b.features, atol=1e-12)
        assert np.allclose(a.means, b.means, atol=1e-12)

    def test_swap_symmetry_exact(self):
        w = init_weights(seed=21)
        cur = fixed_batch(16, n=4)
        hist = fixed_batch(17, n=5)
        a1, b1 = dte_step(cur, hist, w, n_blocks=3)
        a2, b2 = dte_step(hist, cur, w, n_blocks=3)
        assert np.array_equal(a1.features, b2.features)
        assert np.array_equal(b1.features, a2.features)
        assert np.array_equal(a1.means, b2.means)

    def test_empty_history_is_self_attention(self):
        w = init_weights(seed=22)
        cur = fixed_batch(18)
        a, hist_out = dte_step(cur, PrimitiveBatch.empty(D), w, n_blocks=2)
        manual = cur
        for _ in range(2):
            manual = temporal_encoder_block(manual, manual, w)
        assert np.array_equal(a.features, manual.features)
        assert len(hist_out) == 0

    def test_golden_fixture(self):
        w = init_weights(32, 4, 64, 12, seed=42)
        a, b = dte_step(fixed_batch(100), fixed_batch(200), w, n_blocks=2)
        assert np.allclose(a.means[1], DTE_A_MEAN1, atol=1e-7)
        assert np.allclose(b.logits[2, :3], DTE_B_LOGITS2, atol=1e-7)
        assert np.allclose(a.confidences, DTE_A_CONF, atol=1e-9)

    def test_deterministic_bitwise(self):
        w = init_weights(seed=24)
        r1 = dte_step(fixed_batch(19), fixed_batch(20), w, 2)
        r2 = dte_step(fixed_batch(19), fixed_batch(20), w, 2)
        assert np.array_equal(r1[0].features, r2[0].features)
        assert np.array_equal(r1[1].logits, r2[1].logits)

    def test_empty_current_rejected(self):
        w = init_weights(seed=25)
        with pytest.raises(InvalidInputError):
            dte_step(PrimitiveBatch.empty(D), fixed_batch(1), w)
