"""Volume estimation tests: voxel counting, ABC/2 calipers, method table."""
import json

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from hemoseg.phantoms import rasterize_ellipsoid
from hemoseg.volumes import SegMask
from hemoseg.volumetry import (
    TadaMeasurement,
    _candidates,
    compare_methods,
    perpendicular_width,
    slice_extremes,
    tada_measure,
    tada_volume_ml,
    volume_mae,
    voxel_volume_ml,
)

from oracles import tada_b_scan, tada_extremes_scan


def mask_from(vox, spacing):
    return SegMask(np.asarray(vox, dtype=np.uint8), tuple(spacing))


def ellipsoid_mask(semi_mm, spacing, pad_mm=3.0, center_on_grid_line=True):
    """Rasterized ellipsoid centered either on a grid line or a cell center."""
    semi = np.asarray(semi_mm, dtype=np.float64)
    sp = np.asarray(spacing, dtype=np.float64)
    shape = tuple(int(np.ceil((2 * s + 2 * pad_mm) / p)) for s, p in zip(semi, sp))
    center = []
    for ax in range(3):
        k = round(shape[ax] / 2.0)
        center.append(k * sp[ax] if center_on_grid_line else (k + 0.5) * sp[ax])
    vox = rasterize_ellipsoid(shape, tuple(sp), np.asarray(center), semi)
    return SegMask(vox.astype(np.uint8), tuple(sp))


class TestVoxelVolume:
    def test_count_times_voxel_volume(self):
        vox = np.zeros((4, 40, 40), dtype=np.uint8)
        vox.ravel()[:1000] = 1
        v = voxel_volume_ml(mask_from(vox, (5.0, 0.518, 0.518)))
        assert v == pytest.approx(1.34162, abs=1e-6)

    def test_empty_mask_is_zero(self):
        assert voxel_volume_ml(mask_from(np.zeros((2, 4, 4)), (1, 1, 1))) == 0.0

    def test_additive_over_disjoint_lesions(self):
        a = np.zeros((6, 10, 10), dtype=np.uint8)
        b = np.zeros_like(a)
        a[1:3, 2:5, 2:5] = 1
        b[4:6, 6:9, 6:9] = 1
        va = voxel_volume_ml(mask_from(a, (2, 1, 1)))
        vb = voxel_volume_ml(mask_from(b, (2, 1, 1)))
        vab = voxel_volume_ml(mask_from(a | b, (2, 1, 1)))
        assert vab == pytest.approx(va + vb, rel=1e-12)

    def test_flip_and_translation_invariant(self):
        vox = np.zeros((5, 8, 8), dtype=np.uint8)
        vox[1:4, 2:6, 3:7] = 1
        base = voxel_volume_ml(mask_from(vox, (3, 1, 1)))
        assert voxel_volume_ml(mask_from(vox[::-1], (3, 1, 1))) == base
        assert voxel_volume_ml(mask_from(np.roll(vox, 1, axis=2), (3, 1, 1))) == base

    def test_ellipsoid_matches_analytic_within_2pct(self):
        m = ellipsoid_mask((20.0, 15.0, 10.0), (1.0, 1.0, 1.0))
        analytic = 4.0 / 3.0 * np.pi * 20 * 15 * 10 / 1000.0
        assert voxel_volume_ml(m) == pytest.approx(analytic, rel=0.02)


def random_blob_points(rng, spacing):
    """A random filled ellipse of voxel centers, tilted, a few hundred points."""
    semi = rng.uniform(3.0, 9.0, size=2)
    theta = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    grid = np.argwhere(np.ones((24, 24), dtype=bool)).astype(np.float64)
    center = np.array([12.0, 12.0]) + rng.uniform(-2, 2, size=2)
    rel = (grid - center) * np.asarray(spacing)
    local = rel @ rot
    inside = (local[:, 0] / semi[0]) ** 2 + (local[:, 1] / semi[1]) ** 2 <= 1.0
    pts = np.argwhere(np.ones((24, 24), dtype=bool))[inside]
    return pts if len(pts) >= 2 else np.array([[3, 3], [5, 9]])


def scattered_points(rng):
    """Two to four small random blobs at random places on a 64x64 slice,
    merged into one point set (overlaps counted once) in shuffled order."""
    blobs = []
    for _ in range(rng.integers(2, 5)):
        blob = random_blob_points(rng, (2.0, 2.0))
        blobs.append(blob - blob.min(axis=0) + rng.integers(0, 40, size=2))
    return rng.permutation(np.unique(np.concatenate(blobs), axis=0))


def assert_matches_scan(pts, spacing, scan_pts=None):
    """slice_extremes and perpendicular_width on ``pts`` equal the
    exhaustive scans on ``scan_pts`` (default ``pts``) bit for bit."""
    scan_pts = pts if scan_pts is None else scan_pts
    a, pair = slice_extremes(pts, spacing)
    a_ref, pair_ref = tada_extremes_scan(scan_pts, spacing)
    assert (a, pair) == (a_ref, pair_ref)
    assert perpendicular_width(pts, spacing, pair) == tada_b_scan(scan_pts, spacing, pair_ref)
    return a, pair


SPACINGS = [(1.0, 1.0), (0.7, 1.3), (0.45, 0.9), (1.0, 0.3)]


class TestSliceExtremesAgainstScan:
    def test_random_blobs_match_exhaustive_scan_exactly(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            spacing = (1.0, 1.0) if trial % 2 == 0 else (0.7, 1.3)
            pts = random_blob_points(rng, spacing)
            a, pair = slice_extremes(pts, spacing)
            a_ref, pair_ref = tada_extremes_scan(pts, spacing)
            assert a == a_ref, f"trial {trial}: {a} != {a_ref}"
            assert pair == pair_ref, f"trial {trial}"
            b = perpendicular_width(pts, spacing, pair)
            b_ref = tada_b_scan(pts, spacing, pair_ref)
            assert b == b_ref, f"trial {trial}: {b} != {b_ref}"

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_scattered_shuffled_point_sets_match_scan(self, spacing):
        rng = np.random.default_rng(31)
        for _ in range(6):
            pts = scattered_points(rng)
            a, pair = assert_matches_scan(pts, spacing)
            assert slice_extremes(pts[::-1], spacing) == (a, pair)

    @pytest.mark.parametrize("spacing", SPACINGS)
    @pytest.mark.parametrize("length", [2, 3, 7, 20])
    def test_diagonal_lines_match_scan(self, spacing, length):
        k = np.arange(length)
        rng = np.random.default_rng(length)
        for pts in (np.stack([k + 3, k + 5], axis=1), np.stack([k + 3, length + 5 - k], axis=1)):
            assert len(_candidates(pts)) == length  # every point is first and last in its row and column
            assert_matches_scan(rng.permutation(pts), spacing)

    @pytest.mark.parametrize("spacing", SPACINGS)
    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 9), (5, 5), (7, 3), (12, 20)])
    def test_filled_rectangles_match_scan(self, spacing, rows, cols):
        pts = np.argwhere(np.ones((rows, cols), dtype=bool)) + (4, 6)
        a, pair = assert_matches_scan(np.random.default_rng(rows * cols).permutation(pts), spacing)
        # both diagonals tie; the pair starting at the top-left corner wins
        assert pair == ((4, 6), (rows + 3, cols + 5))

    def test_filled_512_disc_matches_scan_over_hull_vertices(self):
        # The scan over the disc's 205k points would take hours; its hull
        # vertices hold every longest pair and both ends of the width.
        r, c = np.mgrid[:512, :512]
        pts = np.argwhere((r - 255.5) ** 2 + (c - 255.5) ** 2 <= 255.5**2)
        hull = pts[np.sort(ConvexHull(pts).vertices)]
        for spacing in [(0.45, 0.45), (0.45, 0.9)]:
            a, _ = assert_matches_scan(pts, spacing, scan_pts=hull)
            assert a == pytest.approx(511 * max(spacing), rel=0.01)

    def test_candidates_include_every_hull_vertex(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            spacing = SPACINGS[trial % len(SPACINGS)]
            pts = random_blob_points(rng, spacing) if trial % 2 else scattered_points(rng)
            cand = {tuple(p) for p in _candidates(pts)}
            assert {tuple(p) for p in pts[ConvexHull(pts).vertices]} <= cand
            rows, cols = np.ptp(pts, axis=0) + 1
            assert len(cand) <= 2 * min(rows, cols)

    def test_tie_broken_toward_smallest_pair(self):
        # square corners: both diagonals have the same length
        pts = np.array([[0, 0], [0, 6], [6, 0], [6, 6]])
        a, pair = slice_extremes(pts, (1.0, 1.0))
        a_ref, pair_ref = tada_extremes_scan(pts, (1.0, 1.0))
        assert (a, pair) == (a_ref, pair_ref)
        assert pair == ((0, 0), (6, 6))

    def test_collinear_points_fall_back(self):
        pts = np.array([[2, c] for c in range(1, 11)])
        a, pair = slice_extremes(pts, (1.0, 1.0))
        assert a == 9.0
        assert pair == ((2, 1), (2, 10))

    def test_two_points(self):
        a, pair = slice_extremes(np.array([[0, 0], [3, 4]]), (1.0, 1.0))
        assert a == 5.0
        assert pair == ((0, 0), (3, 4))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            slice_extremes(np.array([[1, 1]]), (1.0, 1.0))


class TestTadaMeasure:
    def test_box_matches_scan_and_depth(self):
        vox = np.zeros((4, 30, 50), dtype=np.uint8)
        vox[1:3, 5:25, 5:45] = 1  # 20 x 40 voxel footprint on 2 slices
        m = mask_from(vox, (5.0, 1.0, 1.0))
        meas = tada_measure(m)
        pts = np.argwhere(vox[1] > 0)
        a_ref, pair_ref = tada_extremes_scan(pts, (1.0, 1.0))
        assert meas.a_mm == a_ref == np.hypot(19.0, 39.0)
        assert meas.b_mm == tada_b_scan(pts, (1.0, 1.0), pair_ref)
        assert meas.c_mm == 10.0
        assert meas.slice_index == 1

    def test_maximal_area_slice_selected(self):
        vox = np.zeros((5, 20, 20), dtype=np.uint8)
        vox[1, 4:8, 4:8] = 1  # 16 voxels
        vox[3, 2:12, 2:12] = 1  # 100 voxels
        meas = tada_measure(mask_from(vox, (5.0, 1.0, 1.0)))
        assert meas.slice_index == 3
        assert meas.a_mm == np.hypot(9.0, 9.0)

    def test_area_tie_takes_lowest_slice(self):
        vox = np.zeros((5, 20, 20), dtype=np.uint8)
        vox[1, 2:6, 2:10] = 1  # 32 voxels, wide
        vox[3, 2:10, 2:6] = 1  # 32 voxels, tall
        meas = tada_measure(mask_from(vox, (5.0, 1.0, 1.0)))
        assert meas.slice_index == 1

    def test_depth_counts_noncontiguous_slices(self):
        vox = np.zeros((8, 10, 10), dtype=np.uint8)
        for z in (0, 2, 5):
            vox[z, 4:6, 4:6] = 1
        meas = tada_measure(mask_from(vox, (4.0, 1.0, 1.0)))
        assert meas.c_mm == 12.0

    def test_single_voxel_degenerate(self):
        vox = np.zeros((3, 6, 6), dtype=np.uint8)
        vox[1, 2, 3] = 1
        meas = tada_measure(mask_from(vox, (5.0, 0.5, 2.0)))
        assert meas.a_mm == 2.0 and meas.b_mm == 0.5 and meas.c_mm == 5.0
        assert tada_volume_ml(meas) == pytest.approx(5.0 * 0.5 * 2.0 / 2000.0)

    def test_single_row_line_is_one_voxel_wide(self):
        vox = np.zeros((2, 8, 16), dtype=np.uint8)
        vox[0, 3, 2:12] = 1
        meas = tada_measure(mask_from(vox, (5.0, 1.0, 1.0)))
        assert meas.a_mm == 9.0
        assert meas.b_mm == 1.0

    def test_width_capped_at_length(self):
        # two voxels 1 mm apart across columns, rows spaced 5 mm: the
        # one-voxel row support would exceed A and must be clamped
        vox = np.zeros((1, 4, 4), dtype=np.uint8)
        vox[0, 1, 1:3] = 1
        meas = tada_measure(mask_from(vox, (3.0, 5.0, 1.0)))
        assert meas.a_mm == 1.0
        assert meas.b_mm == 1.0

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError, match="empty"):
            tada_measure(mask_from(np.zeros((2, 4, 4)), (1, 1, 1)))


class TestTadaVolume:
    def test_hand_arithmetic(self):
        assert tada_volume_ml(TadaMeasurement(40.0, 20.0, 10.0, 0)) == 4.0

    def test_measurement_validation(self):
        with pytest.raises(ValueError, match="A >= B"):
            TadaMeasurement(2.0, 3.0, 1.0, 0)
        with pytest.raises(ValueError, match="C > 0"):
            TadaMeasurement(3.0, 2.0, 0.0, 0)

    def test_ellipsoid_underestimate_reproduced(self):
        # full axes 40 x 30 x 20 mm: ABC/2 = 12.0 ml vs analytic 12.566 ml
        m = ellipsoid_mask((10.0, 15.0, 20.0), (0.25, 0.25, 0.25))
        tada = tada_volume_ml(tada_measure(m))
        assert tada == pytest.approx(12.0, rel=0.01)
        analytic = 4.0 / 3.0 * np.pi * 10 * 15 * 20 / 1000.0
        assert voxel_volume_ml(m) == pytest.approx(analytic, rel=0.02)
        assert tada < voxel_volume_ml(m)

    def test_disk_both_extents_near_diameter(self):
        m = ellipsoid_mask((2.0, 10.0, 10.0), (0.5, 0.5, 0.5))
        meas = tada_measure(m)
        assert meas.a_mm == pytest.approx(20.0, abs=1.0)
        assert meas.b_mm == pytest.approx(20.0, abs=1.0)

    def test_box_90_degree_rotation_invariance(self):
        vox = np.zeros((3, 40, 40), dtype=np.uint8)
        vox[1, 5:17, 5:35] = 1
        m = mask_from(vox, (5.0, 1.0, 1.0))
        rot = mask_from(np.rot90(vox, axes=(1, 2)).copy(), (5.0, 1.0, 1.0))
        v0 = tada_volume_ml(tada_measure(m))
        v1 = tada_volume_ml(tada_measure(rot))
        assert v1 == pytest.approx(v0, rel=1e-12)


class TestVolumeMae:
    def test_hand_example(self):
        assert volume_mae([10.0, 5.0], [8.0, 9.0]) == 3.0

    def test_identical_lists_zero(self):
        assert volume_mae([1.5, 2.5, 3.5], [1.5, 2.5, 3.5]) == 0.0

    def test_single_pair(self):
        assert volume_mae([9.409], [7.167]) == pytest.approx(2.242)

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        a, b = rng.uniform(0, 50, size=10), rng.uniform(0, 50, size=10)
        assert volume_mae(a, b) == volume_mae(b, a)

    def test_validation(self):
        with pytest.raises(ValueError):
            volume_mae([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            volume_mae([], [])


class TestCompareMethods:
    def _entries(self):
        sol = np.zeros((6, 20, 20), dtype=np.uint8)
        sol[2:5, 6:14, 6:14] = 1
        sca = np.zeros((6, 20, 20), dtype=np.uint8)
        sca[1, 2:5, 2:5] = 1
        sca[4, 14:18, 14:18] = 1
        sp = (5.0, 1.0, 1.0)
        return [
            {"case_id": "s0", "pred": mask_from(sol, sp), "gt": mask_from(sol, sp), "lesion_class": "solitary", "model_seconds": 0.5},
            {"case_id": "s1", "pred": mask_from(sca, sp), "gt": mask_from(sca, sp), "lesion_class": "scattered", "model_seconds": 0.7},
        ]

    def test_perfect_predictions_zero_model_mae(self):
        report = compare_methods(self._entries())
        assert report.model_mae_ml == {"solitary": 0.0, "scattered": 0.0, "all": 0.0}

    def test_scattered_has_empty_tada_cell(self):
        report = compare_methods(self._entries())
        scattered = [c for c in report.cases if c.lesion_class == "scattered"]
        assert all(c.tada_volume_ml is None for c in scattered)
        assert "scattered" not in report.tada_mae_ml
        table = report.to_text()
        tada_row = [l for l in table.splitlines() if l.startswith("tada-abc2")][0]
        assert "-" in tada_row

    def test_solitary_tada_measured_on_gt(self):
        report = compare_methods(self._entries())
        sol = [c for c in report.cases if c.lesion_class == "solitary"][0]
        gt = self._entries()[0]["gt"]
        expected = tada_volume_ml(tada_measure(gt))
        assert sol.tada_volume_ml == pytest.approx(expected)
        assert sol.tada_seconds is not None and sol.tada_seconds >= 0
        assert sol.tada_abs_error_ml == pytest.approx(abs(expected - voxel_volume_ml(gt)))

    def test_json_roundtrip_and_fields(self):
        report = compare_methods(self._entries())
        payload = json.loads(report.to_json())
        assert set(payload) == {"cases", "model_mae_ml", "tada_mae_ml"}
        assert payload["cases"][0]["case_id"] == "s0"
        assert payload["cases"][0]["model_seconds"] == 0.5

    def test_perfect_model_beats_tada_on_ellipsoids(self):
        entries = []
        for i, semi in enumerate([(8.0, 10.0, 12.0), (6.0, 9.0, 7.0), (10.0, 14.0, 11.0)]):
            gt = ellipsoid_mask(semi, (1.0, 1.0, 1.0))
            entries.append({"case_id": f"e{i}", "pred": gt, "gt": gt, "lesion_class": "solitary"})
        report = compare_methods(entries)
        assert report.model_mae_ml["solitary"] == 0.0
        assert report.tada_mae_ml["solitary"] > 0.0
