"""Grid geometry: the one validity check and the one voxel-span rule."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatmem.errors import FormatError, InvalidInputError
from splatmem.grid import (LABEL_MODE, MAX_CLASSES, MAX_GRID_CELLS, PROB_MODE, VoxelGrid,
                           check_geometry, load_vgrid)

INF = float("inf")
NAN = float("nan")


@st.composite
def grids_and_boxes(draw):
    """A grid of 1-9 voxels a side and a box [lo, hi] per axis. Voxel sizes
    are powers of two from 2^-30 to 2^3 and origins multiples of 1/64, and
    finite bounds lie on multiples of an eighth of a voxel from the origin,
    so centres, bounds and both sides' arithmetic are exact. Half of the
    finite bounds lie on a voxel centre. They reach four voxels past the
    grid on either side; the other bounds are +-inf and +-1e300, which at
    the smallest voxels overflow the index to inf. Three boxes in four
    have lo <= hi."""
    dims = tuple(draw(st.integers(1, 9)) for _ in range(3))
    vs = 2.0 ** draw(st.integers(-30, 3))
    origin = np.array([draw(st.integers(-512, 512)) / 64 for _ in range(3)])

    def bound(a):
        reach = dims[a] + 4
        eighths = st.one_of(st.integers(-reach, reach).map(lambda k: 8 * k + 4),
                            st.integers(-8 * reach, 8 * reach))
        finite = eighths.map(lambda m: origin[a] + m / 8 * vs)
        return draw(st.one_of(finite, finite, finite,
                              st.sampled_from([-INF, INF, -1e300, 1e300])))

    lo, hi = np.array([[bound(a) for _ in range(2)] for a in range(3)]).T
    if draw(st.integers(0, 3)):
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    return VoxelGrid.empty_labels(origin, vs, dims), lo, hi


class TestVoxelSpan:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(grids_and_boxes())
    def test_span_is_the_voxels_whose_centres_lie_in_the_box(self, case):
        grid, lo, hi = case
        i0, i1 = grid.voxel_span(lo, hi)
        assert i0.dtype == i1.dtype == np.int64
        for a, centres in enumerate(grid.axis_centers()):
            inside = np.flatnonzero((centres >= lo[a]) & (centres <= hi[a]))
            assert 0 <= i0[a] <= grid.dims[a] and -1 <= i1[a] <= grid.dims[a] - 1
            if inside.size:
                assert (i0[a], i1[a]) == (inside[0], inside[-1])
            else:
                assert i0[a] > i1[a]

    def test_centres_on_the_faces_are_inside(self):
        grid = VoxelGrid.empty_labels((0.5, -1.0, 0.0), 0.25, (8, 8, 8))
        lo = grid.origin + np.array([2.5, 0.5, 7.5]) * 0.25  # centres 2, 0 and 7
        hi = grid.origin + np.array([4.5, 0.5, 9.0]) * 0.25  # centres 4 and 0
        i0, i1 = grid.voxel_span(lo, hi)
        assert i0.tolist() == [2, 0, 7] and i1.tolist() == [4, 0, 7]

    @pytest.mark.parametrize("lo,hi,want", [
        (-INF, INF, ([0] * 3, [3] * 3)),
        (-1e300, 1e300, ([0] * 3, [3] * 3)),
        (INF, INF, ([4] * 3, [3] * 3)),
        (-INF, -1e300, ([0] * 3, [-1] * 3)),
        (1e300, -1e300, ([4] * 3, [-1] * 3)),
    ])
    @pytest.mark.parametrize("voxel_size", [0.1, 1e-300])
    def test_unbounded_boxes_clamp_to_the_grid(self, lo, hi, want, voxel_size):
        # at 1e-300 m a 1e300 bound is 1e600 voxels out, past float range
        grid = VoxelGrid.empty_labels((0.0, 0.0, 0.0), voxel_size, (4, 4, 4))
        i0, i1 = grid.voxel_span(np.full(3, lo), np.full(3, hi))
        assert (i0.tolist(), i1.tolist()) == want

    def test_spans_of_many_boxes(self):
        grid = VoxelGrid.empty_labels((0.0, 0.0, 0.0), 0.5, (4, 2, 3))
        lo = np.array([[0.0, 0.0, 0.0], [-9.0, 0.3, 5.0]])
        hi = np.array([[1.0, 0.7, 0.25], [9.0, 0.6, 9.0]])
        i0, i1 = grid.voxel_span(lo, hi)
        assert i0.tolist() == [[0, 0, 0], [0, 1, 3]]
        assert i1.tolist() == [[1, 0, 0], [3, 0, 2]]


def test_voxel_of_keeps_points_off_the_grid_off_it():
    grid = VoxelGrid.empty_labels((0.0, -1.0, 0.0), 0.5, (4, 2, 3))
    points = [[0.1, -0.9, 1.4], [-0.1, 0.01, 1.5], [1e300, -1e300, 7.0], [2.0, 0.0, -1e-9]]
    ijk = grid.voxel_of(points)
    assert ijk.tolist() == [[0, 0, 2], [-1, 2, 3], [4, -1, 3], [4, 2, -1]]
    assert grid.in_bounds(ijk).tolist() == [True, False, False, False]


class TestCheckGeometry:
    @pytest.mark.parametrize("origin,voxel_size,dims,classes", [
        ((0, 0, 0), 0.1, (1, 1, 1), 2),
        ((-1e300, 0, 1e300), 1e-300, (3.0, 2.0, 1.0), MAX_CLASSES // 2**10),
        ((0, 0, 0), 1e300, (2**9, 2**9, 2**5), MAX_GRID_CELLS // 2**23),  # at the bound
    ])
    def test_valid_geometry_passes(self, origin, voxel_size, dims, classes):
        check_geometry(origin, voxel_size, dims, classes)

    @pytest.mark.parametrize("origin,voxel_size,dims,classes", [
        ((NAN, 0, 0), 0.1, (2, 2, 2), 12),
        ((0, INF, 0), 0.1, (2, 2, 2), 12),
        ((0, 0, -INF), 0.1, (2, 2, 2), 12),
        ((0, 0), 0.1, (2, 2, 2), 12),
        ((0, 0, 0), 0.0, (2, 2, 2), 12),
        ((0, 0, 0), -0.1, (2, 2, 2), 12),
        ((0, 0, 0), NAN, (2, 2, 2), 12),
        ((0, 0, 0), INF, (2, 2, 2), 12),
        ((0, 0, 0), 0.1, (0, 2, 2), 12),
        ((0, 0, 0), 0.1, (2, 0.5, 2), 12),
        ((0, 0, 0), 0.1, (2, 2, NAN), 12),
        ((0, 0, 0), 0.1, (2, 2), 12),
        ((0, 0, 0), 0.1, (2, 2, 2), 1),
        ((0, 0, 0), 0.1, (2, 2, 2), MAX_CLASSES + 1),
        ((0, 0, 0), 0.1, (2**9, 2**9, 2**5), MAX_GRID_CELLS // 2**23 + 1),
        ((0, 0, 0), 0.1, (1e200, 1e200, 1e200), 2),      # the product is inf
        ((0, 0, 0), 0.1, (INF, 1, 1), 2),
    ])
    def test_invalid_geometry_raises(self, origin, voxel_size, dims, classes):
        with pytest.raises(InvalidInputError):
            check_geometry(origin, voxel_size, dims, classes)

    def test_every_grid_passes_it(self):
        with pytest.raises(InvalidInputError, match="origin"):
            VoxelGrid((NAN, 0, 0), 0.1, (1, 1, 1), np.zeros((1, 1, 1)), LABEL_MODE)
        with pytest.raises(InvalidInputError, match="classes"):
            VoxelGrid((0, 0, 0), 0.1, (1, 1, 1), np.ones((1, 1, 1, 1)), PROB_MODE, 1)

    def test_empty_labels_checks_before_it_allocates(self):
        # 1e30 voxels a side would overflow the allocation's size
        with pytest.raises(InvalidInputError, match="exceed"):
            VoxelGrid.empty_labels((0, 0, 0), 0.1, (1e30, 1e30, 1e30))


def test_vgrid_header_past_the_bound_is_a_format_error(tmp_path):
    # the header alone names 2^60 voxels; no payload is read
    path = tmp_path / "big.vgrid"
    path.write_bytes(struct.pack("<4sIBI3I3dd", b"VGRD", 1, LABEL_MODE, 12,
                                 2**20, 2**20, 2**20, 0.0, 0.0, 0.0, 0.1))
    with pytest.raises(FormatError, match="vgrid header: .* exceed"):
        load_vgrid(path)
