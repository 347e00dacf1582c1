"""Grid geometry: the one validity check and the one voxel-span rule,
and the `.vgrid` payload."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatmem.core import NUM_CLASSES
from splatmem.errors import FormatError, InvalidInputError
from splatmem.grid import (_PAYLOAD_DTYPE, CENTRE_BITS, LABEL_MODE, MAX_CLASSES,
                           MAX_GRID_CELLS, PROB_MODE, VoxelGrid, check_geometry, load_vgrid,
                           save_vgrid)

INF = float("inf")
NAN = float("nan")
HEADER = "<4sIBI3I3dd"


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
    return VoxelGrid.empty_labels(origin, vs, dims, NUM_CLASSES), lo, hi


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
        grid = VoxelGrid.empty_labels((0.5, -1.0, 0.0), 0.25, (8, 8, 8), NUM_CLASSES)
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
        grid = VoxelGrid.empty_labels((0.0, 0.0, 0.0), voxel_size, (4, 4, 4), NUM_CLASSES)
        i0, i1 = grid.voxel_span(np.full(3, lo), np.full(3, hi))
        assert (i0.tolist(), i1.tolist()) == want

    def test_spans_of_many_boxes(self):
        grid = VoxelGrid.empty_labels((0.0, 0.0, 0.0), 0.5, (4, 2, 3), NUM_CLASSES)
        lo = np.array([[0.0, 0.0, 0.0], [-9.0, 0.3, 5.0]])
        hi = np.array([[1.0, 0.7, 0.25], [9.0, 0.6, 9.0]])
        i0, i1 = grid.voxel_span(lo, hi)
        assert i0.tolist() == [[0, 0, 0], [0, 1, 3]]
        assert i1.tolist() == [[1, 0, 0], [3, 0, 2]]


def test_voxel_of_keeps_points_off_the_grid_off_it():
    grid = VoxelGrid.empty_labels((0.0, -1.0, 0.0), 0.5, (4, 2, 3), NUM_CLASSES)
    points = [[0.1, -0.9, 1.4], [-0.1, 0.01, 1.5], [1e300, -1e300, 7.0], [2.0, 0.0, -1e-9]]
    ijk = grid.voxel_of(points)
    assert ijk.tolist() == [[0, 0, 2], [-1, 2, 3], [4, -1, 3], [4, 2, -1]]


class TestCheckGeometry:
    @pytest.mark.parametrize("origin,voxel_size,dims,classes", [
        ((0, 0, 0), 0.1, (1, 1, 1), 2),
        # about the farthest origin at which 1e-300 m voxels keep 2^20 steps
        ((-1e-291, 0, 1e-291), 1e-300, (3.0, 2.0, 1.0), MAX_CLASSES // 2**10),
        ((0, 0, 0), 1e300, (2**9, 2**9, 2**5), MAX_GRID_CELLS // 2**23),  # at the bound
        ((-1e300, 0, 1e300), 1e291, (3.0, 2.0, 1.0), 12),
        # the float64 step below 2^33 is 2^-20, exactly the bound at 1 m voxels
        ((2.0**33 - 3, 0, 0), 1.0, (2, 1, 1), 12),
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
        # voxel centres that coincide in float64: at 1.35e17 m the step is
        # 16 m, and at 1e300 m it is 1.5e284 m
        ((1.35e17, 0, 0), 0.1, (5, 4, 3), 12),
        ((-1e300, 0, 1e300), 1e-300, (3.0, 2.0, 1.0), MAX_CLASSES // 2**10),
        ((0, 0, 0), 5e-324, (1, 1, 1), 2),              # a step is the whole voxel
        ((2.0**33 - 2, 0, 0), 1.0, (2, 1, 1), 12),      # reaches 2^33, where the step is 2^-19
        ((0, 0, 0), 1e306, (2**9, 1, 1), 2),            # reaches past float range
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
            VoxelGrid.empty_labels((0, 0, 0), 0.1, (1e30, 1e30, 1e30), NUM_CLASSES)


@st.composite
def geometries(draw):
    """An origin, a voxel size from the smallest subnormal to 1e300 and 1-64
    voxels a side. Half of the origins are any finite floats; the other
    half lie within a factor of 8 of voxel_size x 2^(CENTRE_BITS + 52),
    where the float64 step reaches the bound."""
    vs = draw(st.floats(5e-324, 1e300))
    dims = tuple(draw(st.integers(1, 64)) for _ in range(3))
    if draw(st.booleans()):
        origin = [draw(st.floats(allow_nan=False, allow_infinity=False)) for _ in range(3)]
    else:
        e = math.frexp(vs)[1] + CENTRE_BITS + 52
        origin = [math.ldexp(draw(st.floats(-1, 1)), min(e + draw(st.integers(-3, 3)), 1023))
                  for _ in range(3)]
    return origin, vs, dims


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(geometries())
def test_accepted_grids_keep_their_centres_apart(geometry):
    origin, vs, dims = geometry
    try:
        check_geometry(origin, vs, dims, 2)
    except InvalidInputError:
        return
    for centres in VoxelGrid.empty_labels(origin, vs, dims, 2).axis_centers():
        assert np.all(np.diff(centres) > 0)


def test_vgrid_header_past_the_bound_is_a_format_error(tmp_path):
    # the header alone names 2^60 voxels; no payload is read
    path = tmp_path / "big.vgrid"
    path.write_bytes(struct.pack("<4sIBI3I3dd", b"VGRD", 1, LABEL_MODE, 12,
                                 2**20, 2**20, 2**20, 0.0, 0.0, 0.0, 0.1))
    with pytest.raises(FormatError, match="vgrid header: .* exceed"):
        load_vgrid(path)


def test_vgrid_header_whose_centres_coincide_is_a_format_error(tmp_path):
    # 0.1 m voxels at 1.35e17 m, where the float64 step is 16 m
    path = tmp_path / "far.vgrid"
    path.write_bytes(struct.pack(HEADER, b"VGRD", 1, LABEL_MODE, 12,
                                 5, 4, 3, 1.35e17, 0.0, 0.0, 0.1))
    with pytest.raises(FormatError, match="vgrid header: .* coincide"):
        load_vgrid(path)


@pytest.mark.parametrize("mode", [PROB_MODE, LABEL_MODE])
def test_vgrid_payload_is_the_swapped_grid(tmp_path, mode):
    # the bytes of the copy save_vgrid once made with tobytes()
    rng = np.random.default_rng(7)
    dims = (5, 4, 3)
    values = (rng.dirichlet(np.ones(12), dims) if mode == PROB_MODE
              else rng.integers(0, 12, dims))
    grid = VoxelGrid((0.1, -0.2, 0.3), 0.08, dims, values, mode, 12)
    save_vgrid(tmp_path / "g.vgrid", grid)
    want = grid.values.swapaxes(0, 2).astype(_PAYLOAD_DTYPE[mode]).tobytes()
    assert (tmp_path / "g.vgrid").read_bytes()[struct.calcsize(HEADER):] == want


def vgrid_file(mode: int) -> bytes:
    """A valid 2 x 3 x 2 grid of 12 classes."""
    dims = (2, 3, 2)
    values = (np.full(dims + (12,), 1 / 12) if mode == PROB_MODE
              else np.arange(12).reshape(dims) % 12)
    grid = VoxelGrid((0.1, -0.2, 0.3), 0.08, dims, values, mode, 12)
    return struct.pack(HEADER, b"VGRD", 1, mode, 12, *dims, *grid.origin,
                       grid.voxel_size) + values.swapaxes(0, 2).astype(
                           _PAYLOAD_DTYPE[mode]).tobytes()


def reads_or_format_error(raw: bytes) -> bool:
    """Whether `load_vgrid` reads `raw`; False on a FormatError, and any
    other exception or warning fails the calling test."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.vgrid"
        path.write_bytes(raw)
        try:
            load_vgrid(path)
        except FormatError:
            return False
    return True


MODES = st.sampled_from([PROB_MODE, LABEL_MODE])
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestFuzzLoadVgrid:
    """Malformed files end in a FormatError and nothing else."""

    @FUZZ
    @given(MODES, st.data())
    def test_truncation(self, mode, data):
        raw = vgrid_file(mode)
        cut = raw[:data.draw(st.integers(0, len(raw) - 1))]
        assert not reads_or_format_error(cut)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(MODES, st.integers(0, struct.calcsize(HEADER) * 8 - 1))
    def test_header_bit_flip(self, mode, bit):
        raw = bytearray(vgrid_file(mode))
        raw[bit // 8] ^= 1 << bit % 8
        reads_or_format_error(bytes(raw))

    @FUZZ
    @given(st.data(), st.sampled_from([0x7FC00000, 0x7FA00000, 0xFFC00001, 0x7F800000,
                                       0xFF800000]))
    def test_non_finite_probability(self, data, bits):
        raw = bytearray(vgrid_file(PROB_MODE))
        n = (len(raw) - struct.calcsize(HEADER)) // 4
        at = struct.calcsize(HEADER) + 4 * data.draw(st.integers(0, n - 1))
        struct.pack_into("<I", raw, at, bits)
        assert not reads_or_format_error(bytes(raw))

    @FUZZ
    @given(st.data(), st.integers(12, 2**16 - 1))
    def test_label_past_the_classes(self, data, label):
        raw = bytearray(vgrid_file(LABEL_MODE))
        n = (len(raw) - struct.calcsize(HEADER)) // 2
        at = struct.calcsize(HEADER) + 2 * data.draw(st.integers(0, n - 1))
        struct.pack_into("<H", raw, at, label)
        assert not reads_or_format_error(bytes(raw))

    @FUZZ
    @given(MODES, st.sampled_from([9, 13, 17, 21]), st.integers(MAX_CLASSES + 1, 2**32 - 1))
    def test_huge_count(self, mode, offset, value):
        raw = bytearray(vgrid_file(mode))
        struct.pack_into("<I", raw, offset, value)  # C, then the dims
        assert not reads_or_format_error(bytes(raw))
