import hashlib
import struct

import numpy as np
import pytest

from splatmem.attn import (_EXP2_LIMIT, D_FF, ENCODER_SEED, N_BLOCKS, N_HEADS, cca,
                           dte_step, init_weights, mha, temporal_encoder_block)
from splatmem.conf import confidence_values
from splatmem.core import D_MODEL, PrimitiveBatch
from splatmem.errors import InvalidInputError

RNG = np.random.default_rng(23)
D = 32
# The weight arrays of an EncoderWeights, in the order init_weights draws them.
WEIGHT_FIELDS = ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_b1", "ffn_w2",
                 "ffn_b2")
ATTRIBUTE_FIELDS = ("means", "scales", "rotations", "opacities", "logits")

# Frozen regression fixtures, generated once from the implementation.
# WTS_SHA256_SEED42 is the digest of the seed-42 bundle: a "<4sI3IQ" header
# (magic, version 2, d_model, N_HEADS, D_FF, seed), then each array as
# row-major little-endian float32. It was computed from the bundle that
# also drew a refinement head after these eight arrays, so their bytes are
# the ones that bundle had.
WTS_SHA256_SEED42 = "aa02fb4b8e8ca29124cbe99d4115d41780de8d0a3be87c55cecdaaa98800590d"
# The block fixture dates from the post-norm and float32 attention; the
# DTE fixtures from when the encoder stopped refining attributes.
BLOCK_FEAT0 = np.array([0.31433273, 0.25753584, 1.83392121, -0.05493216])
DTE_A_FEAT1 = np.array([-0.09193932, -0.01625087, 1.11204482, 0.97607595])
DTE_B_FEAT2 = np.array([1.11895189, -0.62157731, -0.30737787, -0.28527078])
EPS32 = float(np.finfo(np.float32).eps)


# Logit rows of entropy exactly 0: a row with them has its opacity as its
# confidence, bit for bit.
CERTAIN_LOGITS = np.eye(1, 11) * 1e3


def fixed_batch(seed, n=3, d=D):
    """A seeded batch with certain logits, so each row's confidence is its
    opacity. The opacities are the last draw, after two draws that are
    discarded: the fixtures above were pinned on this stream of draws."""
    rng = np.random.default_rng(seed)
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    means = rng.uniform(0, 1, (n, 3))
    scales = rng.uniform(0.02, 0.1, (n, 3))
    rng.uniform(0.2, 0.9, n)
    rng.normal(size=(n, 11))
    features = rng.normal(size=(n, d))
    opacities = rng.uniform(0.1, 1.0, n)
    return PrimitiveBatch(means, scales, quats, opacities,
                          np.repeat(CERTAIN_LOGITS, n, axis=0), features)


def stream(b):
    """The arrays of a batch that the encoder reads: features, confidences."""
    return b.features, b.confidences


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


def float32_atol(Q, K, V, n_heads):
    """How far the float32 mha may be from a float64 reference.

    Rounding Q / sqrt(dh) and K to float32 moves a score s by about
    eps32 * |s|, which moves each softmax weight by that relative amount;
    rounding V and the products adds eps32 relative to the values. So the
    output may move by eps32 * (1 + max|s|) * max|V|; twice that is the
    bound (measured: at most 0.2 times it on the cases below).
    """
    dh = Q.shape[1] // n_heads
    s = max(np.abs(Q[:, h * dh:(h + 1) * dh] @ K[:, h * dh:(h + 1) * dh].T).max()
            for h in range(n_heads)) / np.sqrt(dh)
    return 2 * EPS32 * (1 + s) * np.abs(V).max()


def exp2_bounds(Q, K, V, n_heads):
    """Per head, the bound on log2 of the value product that mha compares
    with _EXP2_LIMIT: max|q_r| * max|k_j - k_0| in base-2 score units,
    plus log2(M * max(max|V_h|, 1))."""
    dh = Q.shape[1] // n_heads
    out = []
    for h in range(n_heads):
        c = slice(h * dh, (h + 1) * dh)
        qk = (np.linalg.norm(Q[:, c], axis=1).max() * np.log2(np.e) / np.sqrt(dh)
              * np.linalg.norm(K[:, c] - K[0, c], axis=1).max())
        out.append(qk + np.log2(len(K) * max(np.abs(V[:, c]).max(), 1.0)))
    return np.array(out)


def shifted_key_case(case, n, m):
    """Inputs where the keys relative to the first key matter: a large
    offset shared by all keys, a first key six times the others, or a
    first key that holds each row's maximum score in every head."""
    rng = np.random.default_rng(n * 7 + m)
    Q, K, V = (rng.normal(size=(r, D)) for r in (n, m, m))
    if case == "shared_offset":
        K += 50.0
    elif case == "outlier_first_key":
        K[0] *= 6.0
    else:
        Q = np.abs(Q)
        K[0] = 6.0
    return Q, K, V


class TestInitWeights:
    def test_deterministic(self):
        a = init_weights(seed=5)
        b = init_weights(seed=5)
        for name in WEIGHT_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_weights(self):
        a = init_weights(seed=5)
        b = init_weights(seed=6)
        assert not np.array_equal(a.w_q, b.w_q)

    def test_golden_checksum_seed42(self):
        # the weights every run draws
        w = init_weights(ENCODER_SEED)
        raw = struct.pack("<4sI3IQ", b"TGSW", 2, D_MODEL, N_HEADS, D_FF, ENCODER_SEED)
        for name in WEIGHT_FIELDS:
            raw += np.ascontiguousarray(getattr(w, name), dtype="<f4").tobytes()
        assert hashlib.sha256(raw).hexdigest() == WTS_SHA256_SEED42


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
            np.testing.assert_allclose(mha(Q, K, V, heads), mha_reference(Q, K, V, heads),
                                       rtol=0, atol=float32_atol(Q, K, V, heads))

    @pytest.mark.parametrize("m", [3, 7, 12, 1000])
    def test_identical_keys_give_the_rounded_float32_mean(self, m):
        # Eighths sum exactly in float32 and every score is 0, so deferred
        # normalisation divides the exact sum once: the result is the
        # float32 mean bit for bit. Dividing each weight 1/m before the
        # product with V rounds m times and misses it by an ulp or more.
        rng = np.random.default_rng(m)
        Q = rng.normal(size=(4, D))
        K = np.tile(rng.normal(size=(1, D)), (m, 1))
        V = rng.integers(-64, 64, size=(m, D)) / 8.0
        mean32 = V.sum(axis=0).astype(np.float32) / np.float32(m)
        assert np.array_equal(mha(Q, K, V, 4), np.tile(mean32, (4, 1)))

    def test_empty_keys_rejected(self):
        with pytest.raises(InvalidInputError):
            mha(RNG.normal(size=(2, D)), np.zeros((0, D)), np.zeros((0, D)), 4)

    def test_finite_under_extreme_scores(self):
        # identical keys all score exactly 0 relative to the first key, so
        # the heads' bounds are a few units and no row subtracts its max
        Q = np.full((2, D), 1e3)
        K = np.full((3, D), 1e3)
        V = RNG.normal(size=(3, D))
        assert np.all(np.isfinite(mha(Q, K, V, 4)))

    # Query counts around the 128-row block and key counts of the sizes an
    # embodied frame sees. The float32 attention agrees with the float64
    # score tensor within float32_atol.
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 823])
    @pytest.mark.parametrize("m", [1, 609, 1200])
    def test_matches_materialised_softmax(self, n, m):
        rng = np.random.default_rng(n * 10007 + m)
        Q, K, V = (rng.normal(size=(r, D)) for r in (n, m, m))
        np.testing.assert_allclose(mha(Q, K, V, 4), mha_materialised(Q, K, V, 4),
                                   rtol=0, atol=float32_atol(Q, K, V, 4))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_for_scores_near_1e3(self, sign):
        # scores q.k / sqrt(dh) = sqrt(dh) * amp**2 of about +-1e3; the keys
        # differ by 1%, so relative to the first key the heads' bounds are
        # 35-48, under _EXP2_LIMIT, and no row subtracts its max (only
        # test_one_head_past_the_guard takes that path)
        rng = np.random.default_rng(5)
        amp = np.sqrt(1e3 / np.sqrt(D // 4))
        Q = np.full((300, D), sign * amp)
        K = amp * rng.normal(1.0, 0.01, size=(200, D))
        V = rng.normal(size=(200, D))
        out = mha(Q, K, V, 4)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, mha_materialised(Q, K, V, 4),
                                   rtol=0, atol=float32_atol(Q, K, V, 4))

    # Every case stays below the guard, so no row subtracts its max.
    @pytest.mark.parametrize("case", ["shared_offset", "outlier_first_key",
                                      "first_key_row_max"])
    @pytest.mark.parametrize("n", [127, 129, 588])
    @pytest.mark.parametrize("m", [588, 1151])
    def test_keys_relative_to_the_first_key(self, case, n, m):
        Q, K, V = shifted_key_case(case, n, m)
        bounds = exp2_bounds(Q, K, V, 4)
        assert bounds.max() < _EXP2_LIMIT
        if case == "outlier_first_key":
            assert bounds.max() > 0.5 * _EXP2_LIMIT
        if case == "first_key_row_max":
            for h in range(4):
                c = slice(8 * h, 8 * h + 8)
                s = Q[:, c] @ K[:, c].T
                assert np.all(s[:, :1] >= s)
        np.testing.assert_allclose(mha(Q, K, V, 4), mha_materialised(Q, K, V, 4),
                                   rtol=0, atol=float32_atol(Q, K, V, 4))

    @pytest.mark.parametrize("n,m", [(127, 588), (588, 1151)])
    def test_one_head_past_the_guard(self, n, m):
        # head 0's scores reach about 2**200: exp2 overflows float32 there
        # unless that head subtracts its row max
        rng = np.random.default_rng(n + m)
        Q, K, V = (rng.normal(size=(r, D)) for r in (n, m, m))
        Q[:, :8] *= 12.0
        bounds = exp2_bounds(Q, K, V, 4)
        assert bounds[0] > 2 * _EXP2_LIMIT and np.all(bounds[1:] < _EXP2_LIMIT)
        out = mha(Q, K, V, 4)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, mha_materialised(Q, K, V, 4),
                                   rtol=0, atol=float32_atol(Q, K, V, 4))

    @pytest.mark.parametrize("n,m", [(127, 588), (588, 1151)])
    @pytest.mark.parametrize("side", [-0.5, 0.5])
    def test_either_side_of_the_guard(self, n, m, side):
        # Q scaled so that the largest head bound is _EXP2_LIMIT + side
        rng = np.random.default_rng(n + m)
        Q, K, V = (rng.normal(size=(r, D)) for r in (n, m, m))
        log_terms = exp2_bounds(0 * Q, K, V, 4)
        score_terms = exp2_bounds(Q, K, V, 4) - log_terms
        h = np.argmax(score_terms)
        Q *= (_EXP2_LIMIT + side - log_terms[h]) / score_terms[h]
        bounds = exp2_bounds(Q, K, V, 4)
        assert bounds.max() == pytest.approx(_EXP2_LIMIT + side, abs=1e-9)
        np.testing.assert_allclose(mha(Q, K, V, 4), mha_materialised(Q, K, V, 4),
                                   rtol=0, atol=float32_atol(Q, K, V, 4))


class TestCca:
    def test_unit_confidence_equals_plain_cross_attention(self):
        w = init_weights(seed=11)
        q = fixed_batch(1, n=4)
        kv = fixed_batch(2, n=6)
        got = cca(q.features, np.ones(4), kv.features, np.ones(6), w)
        plain = mha(q.features @ w.w_q, kv.features @ w.w_k,
                    kv.features @ w.w_v, N_HEADS) @ w.w_o
        assert np.max(np.abs(got - plain)) <= 1e-9

    def test_zero_key_confidence_zeroes_output(self):
        w = init_weights(seed=12)
        q = fixed_batch(3, n=4)
        kv = fixed_batch(4, n=5)
        assert np.max(np.abs(cca(*stream(q), kv.features, np.zeros(5), w))) == 0.0

    def test_zero_conf_key_value_is_ignored(self):
        # with one key's confidence at zero, its value projection input is
        # irrelevant as long as its key stays fixed
        w = init_weights(seed=13)
        q = fixed_batch(5, n=3)
        kv = fixed_batch(6, n=4)
        kc = kv.confidences
        kc[2] = 0.0
        base = cca(*stream(q), kv.features, kc, w)
        # perturbing the feature row would change K too; instead verify via
        # the formula: V' row 2 is exactly zero
        V = (kv.features @ w.w_v) * kc[:, None]
        assert np.max(np.abs(V[2])) == 0.0
        got = mha(q.features @ w.w_q, kv.features @ w.w_k, V, N_HEADS)
        got = (got * q.confidences[:, None]) @ w.w_o
        assert np.allclose(base, got, atol=1e-12)

    def test_query_confidence_scales_rows(self):
        w = init_weights(seed=14)
        q = fixed_batch(7, n=3)
        kv = fixed_batch(8, n=3)
        full = cca(q.features, np.ones(3), *stream(kv), w)
        qc = np.array([0.5, 1.0, 0.25])
        scaled = cca(q.features, qc, *stream(kv), w)
        # scaling happens before W_o, so rows scale exactly
        assert np.allclose(scaled, (qc[:, None] * (full @ np.linalg.inv(w.w_o))) @ w.w_o,
                           atol=1e-9)

    def test_empty_batch_rejected(self):
        w = init_weights(seed=15)
        with pytest.raises(InvalidInputError):
            cca(*stream(PrimitiveBatch.empty(12)), *stream(fixed_batch(1)), w)

    def test_feature_width_mismatch_rejected(self):
        w = init_weights(seed=16)
        q = fixed_batch(1, d=16)
        with pytest.raises(InvalidInputError):
            cca(*stream(q), *stream(q), w)


class TestTemporalEncoderBlock:
    def test_returns_refined_feature_rows(self):
        w = init_weights(seed=17)
        q = fixed_batch(9)
        out = temporal_encoder_block(*stream(q), *stream(fixed_batch(10)), w)
        assert out.shape == q.features.shape
        assert not np.array_equal(out, q.features)

    def test_zero_conf_keys_and_zero_ffn_is_pure_residual(self):
        w = init_weights(seed=18)
        w.ffn_w1 = np.zeros_like(w.ffn_w1)
        w.ffn_b1 = np.zeros_like(w.ffn_b1)
        w.ffn_w2 = np.zeros_like(w.ffn_w2)
        w.ffn_b2 = np.zeros_like(w.ffn_b2)
        q = fixed_batch(11)
        kv = fixed_batch(12)
        out = temporal_encoder_block(*stream(q), kv.features, np.zeros(len(kv)), w)
        # with no attention and no FFN the block only normalises x twice
        x = q.features
        for _ in range(2):
            x = x - x.mean(axis=1, keepdims=True)
            x = x / np.sqrt(np.var(x, axis=1, keepdims=True) + 1e-5)
        assert np.allclose(out, x, atol=1e-12)

    def test_golden_fixture(self):
        w = init_weights(seed=42)
        out = temporal_encoder_block(*stream(fixed_batch(100)), *stream(fixed_batch(200)), w)
        assert np.allclose(out[0, :4], BLOCK_FEAT0, atol=1e-7)

    def test_outputs_finite_and_valid(self):
        w = init_weights(seed=19)
        out = temporal_encoder_block(*stream(fixed_batch(13)), *stream(fixed_batch(14)), w)
        assert np.all(np.isfinite(out))
        # post-norm rows have zero mean and RMS at most 1
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
        assert np.sqrt((out ** 2).mean(axis=1)).max() <= 1.0


class TestDteStep:
    def test_identical_batches_give_identical_streams(self):
        w = init_weights(seed=20)
        cur = fixed_batch(15)
        hist = fixed_batch(15)
        a, b = dte_step(cur, hist, w)
        assert np.allclose(a.features, b.features, atol=1e-12)

    def test_swap_symmetry_exact(self):
        w = init_weights(seed=21)
        cur = fixed_batch(16, n=4)
        hist = fixed_batch(17, n=5)
        a1, b1 = dte_step(cur, hist, w)
        a2, b2 = dte_step(hist, cur, w)
        assert np.array_equal(a1.features, b2.features)
        assert np.array_equal(b1.features, a2.features)

    def test_empty_history_is_self_attention(self):
        w = init_weights(seed=22)
        cur = fixed_batch(18)
        a, hist_out = dte_step(cur, PrimitiveBatch.empty(12), w)
        f, c = stream(cur)
        for _ in range(N_BLOCKS):
            f = temporal_encoder_block(f, c, f, c, w)
        assert np.array_equal(a.features, f)
        assert len(hist_out) == 0

    def test_streams_weigh_by_the_confidences_of_logits_and_opacity(self):
        # uncertain logits: each row's confidence is below its opacity
        w = init_weights(seed=27)
        rng = np.random.default_rng(27)
        cur, hist = fixed_batch(21, n=4), fixed_batch(22, n=6)
        cur.logits, hist.logits = rng.normal(size=(4, 11)), rng.normal(size=(6, 11))
        a, b = dte_step(cur, hist, w)
        ac = confidence_values(cur.logits, cur.opacities)
        bc = confidence_values(hist.logits, hist.opacities)
        assert np.all(ac < cur.opacities) and np.all(bc < hist.opacities)
        fa, fb = cur.features, hist.features
        for _ in range(N_BLOCKS):
            fa, fb = (temporal_encoder_block(fa, ac, fb, bc, w),
                      temporal_encoder_block(fb, bc, fa, ac, w))
        assert np.array_equal(a.features, fa)
        assert np.array_equal(b.features, fb)

    @pytest.mark.parametrize("n_hist", [0, 5])
    def test_only_features_change(self, n_hist):
        # every other attribute passes through as the very same array
        w = init_weights(seed=17)
        cur = fixed_batch(9)
        hist = fixed_batch(10, n=5) if n_hist else PrimitiveBatch.empty(12)
        a, b = dte_step(cur, hist, w)
        for out, given in ((a, cur), (b, hist)):
            for name in ATTRIBUTE_FIELDS:
                assert getattr(out, name) is getattr(given, name), name
        assert not np.array_equal(a.features, cur.features)

    def test_golden_fixture(self):
        w = init_weights(seed=42)
        cur, hist = fixed_batch(100), fixed_batch(200)
        a, b = dte_step(cur, hist, w)
        assert np.allclose(a.features[1, :4], DTE_A_FEAT1, atol=1e-7)
        assert np.allclose(b.features[2, :4], DTE_B_FEAT2, atol=1e-7)
        for out, given in ((a, cur), (b, hist)):
            for name in ATTRIBUTE_FIELDS:
                assert np.array_equal(getattr(out, name), getattr(given, name)), name

    def test_features_stay_bounded_over_200_steps(self):
        # Without the post-norms features grow about 4x per step and pass
        # float32 range long before 200 steps.
        w = init_weights(seed=26)
        a, b = fixed_batch(30, n=40), fixed_batch(31, n=60)
        for _ in range(200):
            a, b = dte_step(a, b, w)
        for out in (a, b):
            assert np.all(np.isfinite(out.features))
            assert np.sqrt((out.features ** 2).mean(axis=1)).max() <= 1 + 1e-6

    def test_deterministic_bitwise(self):
        w = init_weights(seed=24)
        r1 = dte_step(fixed_batch(19), fixed_batch(20), w)
        r2 = dte_step(fixed_batch(19), fixed_batch(20), w)
        assert np.array_equal(r1[0].features, r2[0].features)
        assert np.array_equal(r1[1].features, r2[1].features)

    def test_empty_current_returns_both_inputs(self):
        w = init_weights(seed=25)
        current = PrimitiveBatch.empty(12)
        for history in (fixed_batch(1), PrimitiveBatch.empty(12)):
            a, b = dte_step(current, history, w)
            assert a is current and b is history
