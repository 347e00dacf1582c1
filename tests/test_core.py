import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (Covariance, GaussianPrimitive, covariance, density, kernel, pack_cells,
                    project, quat_to_rotation)
from splatmem.core import CameraFrame, cell_key, quats_to_rotations
from splatmem.errors import InvalidInputError, InvariantError

RNG = np.random.default_rng(7)


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def rodrigues(axis, angle):
    """Independent rotation oracle from the axis-angle formula."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([
        [0, -axis[2], axis[1]],
        [axis[2], 0, -axis[0]],
        [-axis[1], axis[0], 0],
    ])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def make_primitive(mean=(0, 0, 0), scale=(1, 1, 1), quat=(1, 0, 0, 0), opacity=1.0,
                   logits=None):
    if logits is None:
        logits = np.zeros(11)
    return GaussianPrimitive(mean, scale, quat, opacity, logits)


class TestQuatToRotation:
    def test_identity(self):
        assert np.allclose(quat_to_rotation([1, 0, 0, 0]), np.eye(3))

    def test_pi_about_z(self):
        R = quat_to_rotation([0, 0, 0, 1])
        assert np.allclose(np.diag(R), [-1, -1, 1])
        assert np.allclose(R, np.diag([-1, -1, 1]))

    def test_90deg_about_y_matches_rodrigues(self):
        R = quat_to_rotation([0.7071, 0, 0.7071, 0])
        expect = rodrigues([0, 1, 0], np.pi / 2)
        assert np.allclose(R, expect, atol=1e-6)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-6)

    def test_random_quats_match_rodrigues(self):
        for _ in range(50):
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = RNG.uniform(-np.pi, np.pi)
            q = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis])
            assert np.allclose(quat_to_rotation(q), rodrigues(axis, angle), atol=1e-9)

    def test_orthonormal_det_one(self):
        for _ in range(20):
            R = quat_to_rotation(random_unit_quat(RNG))
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-9)
            assert np.isclose(np.linalg.det(R), 1.0, atol=1e-9)

    def test_double_cover(self):
        for _ in range(10):
            q = random_unit_quat(RNG)
            assert np.allclose(quat_to_rotation(q), quat_to_rotation(-q))

    def test_renormalizes_slightly_off_unit(self):
        q = np.array([1 + 5e-4, 0, 0, 0])
        assert np.allclose(quat_to_rotation(q), np.eye(3))

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidInputError):
            quat_to_rotation([0, 0, 0, 0])

    def test_batched_matches_single(self):
        qs = np.stack([random_unit_quat(RNG) for _ in range(8)])
        batched = quats_to_rotations(qs)
        for i in range(8):
            assert np.allclose(batched[i], quat_to_rotation(qs[i]))


class TestCovariance:
    def test_diagonal_case(self):
        c = covariance([1, 2, 3], [1, 0, 0, 0])
        assert np.allclose(c.matrix, np.diag([1, 4, 9]))

    def test_isotropic_invariance(self):
        for _ in range(10):
            c = covariance([1, 1, 1], random_unit_quat(RNG))
            assert np.allclose(c.matrix, np.eye(3), atol=1e-12)

    def test_90deg_about_z_explicit_product(self):
        # oracle: explicit R S S^T R^T with R from the rotation matrix
        q = np.array([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])
        R = rodrigues([0, 0, 1], np.pi / 2)
        S = np.diag([1, 2, 1])
        expect = R @ S @ S.T @ R.T
        c = covariance([1, 2, 1], q)
        assert np.allclose(c.matrix, expect, atol=1e-9)
        assert np.allclose(c.matrix, np.diag([4, 1, 1]), atol=1e-9)

    def test_eigenvalues_are_squared_scales(self):
        for _ in range(25):
            s = RNG.uniform(0.2, 3.0, size=3)
            c = covariance(s, random_unit_quat(RNG))
            eig = np.sort(np.linalg.eigvalsh(c.matrix))
            assert np.allclose(eig, np.sort(s**2), atol=1e-6)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(InvalidInputError):
            covariance([1, 0, 1], [1, 0, 0, 0])
        with pytest.raises(InvalidInputError):
            covariance([1, -2, 1], [1, 0, 0, 0])

    def test_type_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(InvalidInputError):
            Covariance(m)


class TestKernel:
    def test_one_at_mean(self):
        g = make_primitive(mean=(0.3, -0.2, 1.0), scale=(0.5, 1.5, 2.0),
                           quat=random_unit_quat(RNG))
        assert kernel(g.mean, g) == pytest.approx(1.0)

    def test_isotropic_unit_offset(self):
        g = make_primitive()
        for d in (np.array([1, 0, 0]), np.array([0, 1, 0]),
                  np.array([0.6, 0.8, 0.0])):
            assert kernel(g.mean + d, g) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_matches_dense_solve_oracle(self):
        g = make_primitive(scale=(1, 2, 3), quat=random_unit_quat(RNG))
        sigma = g.covariance().matrix
        for _ in range(20):
            x = RNG.normal(size=3) * 2
            d = x - g.mean
            expect = np.exp(-0.5 * d @ np.linalg.solve(sigma, d))
            assert kernel(x, g) == pytest.approx(expect, rel=1e-9)

    def test_monotone_along_ray(self):
        g = make_primitive(scale=(0.5, 1.0, 2.0), quat=random_unit_quat(RNG))
        direction = RNG.normal(size=3)
        ts = np.linspace(0.1, 4.0, 25)
        vals = [kernel(g.mean + t * direction, g) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDensity:
    def test_unit_scale_peak(self):
        g = make_primitive()
        assert density(g.mean, g) == pytest.approx((2 * np.pi) ** -1.5, abs=1e-12)
        assert density(g.mean, g) == pytest.approx(0.0634936, abs=1e-6)

    def test_determinant_scaling(self):
        g = make_primitive(scale=(2, 2, 2))
        assert density(g.mean, g) == pytest.approx((2 * np.pi) ** -1.5 / 8, abs=1e-12)
        assert density(g.mean, g) == pytest.approx(0.0079367, abs=1e-6)

    def test_riemann_sum_integrates_to_one(self):
        g = make_primitive(scale=(0.6, 0.9, 0.7), quat=random_unit_quat(RNG))
        h = 0.1
        xs = np.arange(-4, 4, h) + h / 2
        X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        d = pts - g.mean
        inv = g.inv_covariance()
        vals = np.exp(-0.5 * np.einsum("ni,ij,nj->n", d, inv, d))
        total = vals.sum() * h**3 / ((2 * np.pi) ** 1.5 * np.prod(g.scale))
        assert total == pytest.approx(1.0, rel=0.02)

    def test_central_symmetry(self):
        g = make_primitive(mean=(0.5, 0.1, -0.3), scale=(0.5, 1.2, 0.8),
                           quat=random_unit_quat(RNG))
        for _ in range(10):
            x = RNG.normal(size=3)
            assert density(x, g) == pytest.approx(density(2 * g.mean - x, g), rel=1e-12)


class TestGaussianPrimitive:
    def test_scale_clamped(self):
        g = make_primitive(scale=(1e-6, 1, 1))
        assert g.scale[0] == 1e-4

    def test_opacity_bounds(self):
        with pytest.raises(InvalidInputError):
            make_primitive(opacity=1.5)
        with pytest.raises(InvalidInputError):
            make_primitive(opacity=-0.1)

    def test_rotation_renormalized(self):
        g = make_primitive(quat=(2, 0, 0, 0))
        assert np.allclose(g.rotation, [1, 0, 0, 0])

    def test_inv_covariance_closed_form(self):
        g = make_primitive(scale=(0.5, 1.0, 2.0), quat=random_unit_quat(RNG))
        assert np.allclose(g.inv_covariance() @ g.covariance().matrix, np.eye(3),
                           atol=1e-9)


class TestCameraFrame:
    def make_frame(self):
        K = np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]])
        return CameraFrame(K, np.eye(4), 640, 480, 0.1, 10.0)

    def test_projection_center(self):
        f = self.make_frame()
        uv, z = project(f, np.array([[0, 0, 2.0]]))
        assert np.allclose(uv[0], [320, 240])
        assert z[0] == pytest.approx(2.0)

    def test_contains_depth_range(self):
        f = self.make_frame()
        pts = np.array([[0, 0, 1.0], [0, 0, -1.0], [0, 0, 20.0], [0, 0, 0.05]])
        assert list(f.contains(pts)) == [True, False, False, False]

    def test_invalid_pose_rejected(self):
        P = np.eye(4)
        P[0, 0] = 2.0
        with pytest.raises(InvalidInputError):
            CameraFrame(np.eye(3) * 100, P, 10, 10, 0.1, 1.0)

    def test_near_far_ordering(self):
        # 0 < near < far; NaN fails both comparisons
        for near, far in [(5.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (0.1, np.nan)]:
            with pytest.raises(InvalidInputError):
                CameraFrame(np.eye(3) * 100, np.eye(4), 10, 10, near, far)

    @pytest.mark.parametrize("part,index,value", [
        ("pose", (0, 3), np.nan), ("pose", (0, 0), np.nan),
        ("intrinsics", (0, 2), np.inf), ("intrinsics", (0, 0), np.inf),
    ], ids=["nan_translation", "nan_rotation", "inf_principal_point", "inf_focal_length"])
    def test_non_finite_pose_or_intrinsics_rejected(self, part, index, value):
        arrays = {"intrinsics": np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]]),
                  "pose": np.eye(4)}
        arrays[part][index] = value
        with pytest.raises(InvalidInputError, match="finite"):
            CameraFrame(arrays["intrinsics"], arrays["pose"], 640, 480, 0.1, 10.0)

    def test_pixel_ray_roundtrip(self):
        f = self.make_frame()
        pix = np.array([[100.5, 400.5], [320.0, 240.0]])
        origin, dirs = f.pixel_rays(pix)
        pts = origin + 3.0 * dirs
        uv, z = project(f, pts)
        assert np.allclose(uv, pix, atol=1e-9)
        assert np.allclose(z, 3.0)


# A key holds cell indices in [LO, HI). AXIS draws the range edges, and
# values that repeat across draws, often.
LO, HI = -(1 << 20), 1 << 20
AXIS = st.one_of(st.sampled_from([LO, LO + 1, -1, 0, HI - 1]), st.integers(LO, HI - 1))
TRIPLE = st.tuples(AXIS, AXIS, AXIS)


class TestCellKey:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TRIPLE, min_size=1, max_size=40))
    def test_key_order_is_lexicographic_triple_order(self, triples):
        cells = np.array(triples, dtype=np.int64)
        keys = pack_cells(cells)
        assert keys.shape == (len(cells),) and keys.dtype == np.int64
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(cells.T[::-1]))
        _, key_inverse = np.unique(keys, return_inverse=True)
        _, cell_inverse = np.unique(cells, axis=0, return_inverse=True)
        assert np.array_equal(key_inverse, cell_inverse.reshape(-1))

    @settings(max_examples=100, deadline=None)
    @given(TRIPLE, st.integers(0, 2), st.sampled_from([LO - 1, HI]))
    def test_index_past_either_edge_raises(self, triple, axis, past):
        cells = np.array([triple, triple])
        cells[1, axis] = past
        with pytest.raises(InvariantError, match="cell size 0.125 m"):
            pack_cells(cells)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e30])
    def test_point_past_int64_or_not_finite_raises(self, value):
        with pytest.raises(InvariantError):
            cell_key([[0.0, value, 0.0]], 0.12)

    def test_reach_at_the_default_cell(self):
        # about 125 km from the origin at the 0.12 m fusion cell
        assert len(cell_key([[125829.0, -125829.0, 0.0]], 0.12)) == 1
        for x in (125830.0, -125830.0):
            with pytest.raises(InvariantError, match=r"cell size 0.12 m.*\(125829 m\)"):
                cell_key([[x, 0.0, 0.0]], 0.12)
