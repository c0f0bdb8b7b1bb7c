"""Sliding-window decomposition/recomposition and cascade inference tests."""
import numpy as np
import pytest

from hemoseg.augment import hu_window, zscore_normalize
from hemoseg.autodiff import ShapeError, Tensor, softmax_channels
from hemoseg.inference import (
    RoiBox,
    cascade_infer,
    decompose,
    extract_roi,
    predict_mask,
    recompose_average,
    sliding_window_predict,
    timed_predict,
)
from hemoseg.model import CascadeConfig, UNet3DConfig
from hemoseg.volumes import SegMask, VolumeImage, resize_trilinear


class FakeStage:
    """Stands in for a trained network: fg where the normalized input is bright.

    Because patches are z-scored before the model sees them, a small bright
    blob sits far above one standard deviation while background sits below,
    so thresholding at z > 1 recovers the blob without any training.
    """

    def __init__(self, patch_shape, fg_value=1.0):
        self.config = UNet3DConfig(
            levels=1,
            channels_per_level=(4,),
            downsample_factors_per_level=((1, 1, 1),),
            input_patch_shape=tuple(patch_shape),
        )
        self.fg_value = fg_value
        self.calls = 0

    def eval(self):
        return self

    def __call__(self, t):
        self.calls += 1
        x = t.data
        fg = (x[:, 0] > 1.0).astype(np.float32)
        probs = np.stack([1.0 - fg, fg], axis=1)
        return {"final": Tensor(probs), "aux": []}


class ConstantStage(FakeStage):
    def __init__(self, patch_shape, probs=(0.25, 0.75)):
        super().__init__(patch_shape)
        self.probs = probs

    def __call__(self, t):
        self.calls += 1
        n = t.data.shape[0]
        out = np.empty((n, 2) + tuple(self.config.input_patch_shape), dtype=np.float32)
        out[:, 0] = self.probs[0]
        out[:, 1] = self.probs[1]
        return {"final": Tensor(out), "aux": []}


class TestDecompose:
    def test_half_stride_grid(self):
        grid = decompose((16, 320, 320), (8, 160, 160), (4, 80, 80))
        per_axis = sorted({o[0] for o in grid.origins})
        assert per_axis == [0, 4, 8]
        assert len(grid.origins) == 27

    def test_exact_tiling_origins(self):
        grid = decompose((16, 320, 320), (8, 160, 160), (8, 160, 160))
        assert sorted(grid.origins) == [
            (d, h, w) for d in (0, 8) for h in (0, 160) for w in (0, 160)
        ]

    def test_single_patch_when_window_equals_volume(self):
        grid = decompose((8, 32, 32), (8, 32, 32), (4, 16, 16))
        assert grid.origins == [(0, 0, 0)]

    def test_final_origin_clamped_flush(self):
        grid = decompose((10, 4, 4), (4, 4, 4), (4, 4, 4))
        assert sorted({o[0] for o in grid.origins}) == [0, 4, 6]

    def test_window_larger_than_volume_rejected(self):
        with pytest.raises(ShapeError, match="pad"):
            decompose((4, 16, 16), (8, 16, 16), (4, 8, 8))

    def test_bad_stride_rejected(self):
        with pytest.raises(ShapeError):
            decompose((8, 16, 16), (4, 8, 8), (0, 4, 4))
        with pytest.raises(ShapeError):
            decompose((8, 16, 16), (4, 8, 8), (5, 4, 4))

    def test_every_voxel_covered_random_shapes(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            shape = tuple(int(rng.integers(4, 20)) for _ in range(3))
            window = tuple(int(rng.integers(2, s + 1)) for s in shape)
            stride = tuple(int(rng.integers(1, w + 1)) for w in window)
            grid = decompose(shape, window, stride)
            count = np.zeros(shape, dtype=np.int64)
            for o in grid.origins:
                count[tuple(slice(a, a + w) for a, w in zip(o, window))] += 1
            assert count.min() >= 1

    def test_origins_stay_inside_volume(self):
        grid = decompose((10, 11, 12), (4, 4, 4), (3, 3, 3))
        for o in grid.origins:
            assert all(0 <= o[ax] <= grid.volume_shape[ax] - 4 for ax in range(3))


class TestRecompose:
    def test_constant_patches_exact(self):
        grid = decompose((6, 6, 6), (4, 4, 4), (2, 2, 2))
        patches = [np.full((2, 4, 4, 4), 0.37, dtype=np.float64) for _ in grid.origins]
        out = recompose_average(patches, grid, 2)
        assert (out == 0.37).all()

    def test_agreeing_patches_leave_no_seams(self):
        # every patch reports the value of a global coordinate function, so
        # overlaps agree exactly and the mean must reproduce the function
        shape = (6, 8, 8)
        grid = decompose(shape, (4, 4, 4), (2, 3, 3))
        d, h, w = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in shape], indexing="ij")
        field = 0.125 * d + 0.0625 * h + 0.03125 * w + 0.1
        patches = []
        for o in grid.origins:
            region = tuple(slice(a, a + 4) for a in o)
            patches.append(field[region][None])
        out = recompose_average(patches, grid, 1)
        np.testing.assert_array_equal(out[0], field)

    def test_two_patch_overlap_is_mean(self):
        grid = decompose((4, 4, 6), (4, 4, 4), (4, 4, 2))
        assert grid.origins == [(0, 0, 0), (0, 0, 2)]
        a = np.full((1, 4, 4, 4), 0.25)
        b = np.full((1, 4, 4, 4), 0.75)
        out = recompose_average([a, b], grid, 1)
        assert (out[0, :, :, :2] == 0.25).all()
        assert (out[0, :, :, 2:4] == 0.5).all()
        assert (out[0, :, :, 4:] == 0.75).all()

    def test_patch_count_mismatch(self):
        grid = decompose((4, 4, 4), (4, 4, 4), (4, 4, 4))
        with pytest.raises(ValueError, match="1 grid origins"):
            recompose_average([], grid, 1)

    def test_patch_shape_mismatch(self):
        grid = decompose((4, 4, 4), (4, 4, 4), (4, 4, 4))
        with pytest.raises(ShapeError):
            recompose_average([np.zeros((1, 2, 4, 4))], grid, 1)


class TestExtractRoi:
    def test_quarter_margin_grows_each_side(self):
        mask = np.zeros((8, 8, 8), dtype=np.uint8)
        mask[2:6, 2:6, 2:6] = 1
        box = extract_roi(mask, (0.25, 0.25, 0.25))
        assert box.lo == (1, 1, 1) and box.hi == (7, 7, 7)

    def test_zero_margin_is_tight(self):
        mask = np.zeros((5, 6, 7), dtype=np.uint8)
        mask[1, 2:4, 3] = 1
        box = extract_roi(mask, (0.0, 0.0, 0.0))
        assert box.lo == (1, 2, 3) and box.hi == (2, 4, 4)

    def test_margin_clamped_at_volume_bounds(self):
        mask = np.zeros((4, 4, 4), dtype=np.uint8)
        mask[0:4, 0:4, 0:4] = 1
        box = extract_roi(mask, (0.5, 0.5, 0.5))
        assert box.lo == (0, 0, 0) and box.hi == (4, 4, 4)

    def test_single_voxel(self):
        # fractional margins round outward: floor on the low side, ceil high
        mask = np.zeros((4, 4, 4), dtype=np.uint8)
        mask[1, 2, 3] = 1
        box = extract_roi(mask, (0.25, 0.25, 0.25))
        assert box.lo == (0, 1, 2) and box.hi == (3, 4, 4)

    def test_empty_mask_gives_none(self):
        assert extract_roi(np.zeros((4, 4, 4), np.uint8), (0.25,) * 3) is None

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            RoiBox(lo=(0, 0, 0), hi=(0, 4, 4))

    def test_box_helpers(self):
        box = RoiBox(lo=(1, 2, 3), hi=(4, 6, 8))
        assert box.extents == (3, 4, 5)
        vol = np.zeros((8, 8, 8))
        vol[box.slices()] = 1
        assert vol.sum() == 3 * 4 * 5


def bright_blob_image(shape=(12, 48, 48), spacing=(5.0, 1.0, 1.0), lo=(4, 16, 20), hi=(7, 28, 33)):
    """Lesion-like HU image: blob at the window ceiling, background at the floor."""
    hu = np.full(shape, -5.0, dtype=np.float32)
    region = tuple(slice(a, b) for a, b in zip(lo, hi))
    hu[region] = 85.0
    gt = np.zeros(shape, dtype=np.uint8)
    gt[region] = 1
    return VolumeImage(hu, spacing), SegMask(gt, spacing)


def dice(a, b):
    inter = np.logical_and(a > 0, b > 0).sum()
    denom = (a > 0).sum() + (b > 0).sum()
    return 2.0 * inter / denom if denom else 1.0


class TestSlidingWindow:
    def test_output_shape_matches_image(self):
        img, _ = bright_blob_image()
        probs = sliding_window_predict(ConstantStage((8, 32, 32)), img)
        assert probs.shape == (2, 12, 48, 48)

    def test_constant_model_recomposes_exactly(self):
        # 0.25 and 0.75 are exact in float32 and float64, so any seam or
        # double-count in the overlap averaging would show up as inequality
        img, _ = bright_blob_image()
        probs = sliding_window_predict(ConstantStage((8, 32, 32), (0.25, 0.75)), img)
        assert (probs[0] == 0.25).all() and (probs[1] == 0.75).all()

    def test_small_volume_padded_then_cropped(self):
        img, _ = bright_blob_image(shape=(4, 20, 20), lo=(1, 4, 4), hi=(3, 10, 10))
        probs = sliding_window_predict(ConstantStage((8, 32, 32)), img)
        assert probs.shape == (2, 4, 20, 20)

    def test_threshold_model_finds_blob(self):
        img, gt = bright_blob_image()
        mask = predict_mask(FakeStage((8, 32, 32)), img)
        assert dice(mask.voxels, gt.voxels) > 0.95

    def test_explicit_stride_reduces_patch_count(self):
        img, _ = bright_blob_image(shape=(12, 64, 64), lo=(4, 20, 20), hi=(7, 32, 36))
        dense = ConstantStage((8, 32, 32))
        sliding_window_predict(dense, img)
        sparse = ConstantStage((8, 32, 32))
        sliding_window_predict(sparse, img, stride=(8, 32, 32))
        assert sparse.calls < dense.calls


def toy_fake_cascade_cfg(stage2_shape=(8, 32, 32)):
    stage1 = UNet3DConfig(
        levels=1,
        channels_per_level=(4,),
        downsample_factors_per_level=((1, 1, 1),),
        input_patch_shape=(8, 32, 32),
    )
    return CascadeConfig(
        stage1=stage1,
        stage2=UNet3DConfig(
            levels=1,
            channels_per_level=(4,),
            downsample_factors_per_level=((1, 1, 1),),
            input_patch_shape=tuple(stage2_shape),
        ),
        stage2_input_shape=tuple(stage2_shape),
    )


class TestCascade:
    def test_recovers_blob_and_box_contains_it(self):
        img, gt = bright_blob_image()
        cfg = toy_fake_cascade_cfg()
        mask, box = cascade_infer(FakeStage((8, 32, 32)), FakeStage((8, 32, 32)), img, cfg)
        assert box is not None
        assert dice(mask.voxels, gt.voxels) > 0.85
        idx = np.argwhere(gt.voxels > 0)
        assert (idx.min(axis=0) >= np.array(box.lo)).all()
        assert (idx.max(axis=0) < np.array(box.hi)).all()

    def test_mask_zero_outside_box(self):
        img, _ = bright_blob_image()
        cfg = toy_fake_cascade_cfg()
        mask, box = cascade_infer(FakeStage((8, 32, 32)), FakeStage((8, 32, 32)), img, cfg)
        outside = np.ones(mask.voxels.shape, dtype=bool)
        outside[box.slices()] = False
        assert mask.voxels[outside].sum() == 0

    def test_empty_coarse_mask_short_circuits(self):
        img = VolumeImage(np.full((12, 48, 48), -5.0, dtype=np.float32), (5.0, 1.0, 1.0))
        stage2 = FakeStage((8, 32, 32))
        mask, box = cascade_infer(FakeStage((8, 32, 32)), stage2, img, toy_fake_cascade_cfg())
        assert box is None
        assert mask.voxels.sum() == 0
        assert stage2.calls == 0

    def test_windowing_the_roi_crop_keeps_the_mask(self):
        img, _ = bright_blob_image()
        noise = np.random.default_rng(5).normal(0.0, 20.0, img.shape).astype(np.float32)
        img = VolumeImage(img.voxels + noise, img.spacing_mm)
        cfg = toy_fake_cascade_cfg()
        # reference: the cascade composed from its parts, stage 2 cropping the windowed volume
        probs1 = sliding_window_predict(FakeStage((8, 32, 32)), img)
        box = extract_roi(np.argmax(probs1, axis=0) == 1, cfg.roi_margin_fraction)
        roi = hu_window(img).voxels.astype(np.float64)[box.slices()]
        x = zscore_normalize(resize_trilinear(roi, cfg.stage2_input_shape))[None, None]
        fine = FakeStage((8, 32, 32))(Tensor(x))["final"].data[0]
        want = np.zeros(img.shape, dtype=np.uint8)
        want[box.slices()] = resize_trilinear(fine[1], box.extents) > 0.5
        assert want.sum() > 0

        mask, got_box = cascade_infer(FakeStage((8, 32, 32)), FakeStage((8, 32, 32)), img, cfg)
        assert got_box == box
        np.testing.assert_array_equal(mask.voxels, want)

    def test_spacing_carried_through(self):
        img, _ = bright_blob_image(spacing=(4.0, 0.5, 0.5))
        mask, _ = cascade_infer(
            FakeStage((8, 32, 32)), FakeStage((8, 32, 32)), img, toy_fake_cascade_cfg()
        )
        assert mask.spacing_mm == (4.0, 0.5, 0.5)


class TestTimedPredict:
    def test_single_mode_info(self):
        img, _ = bright_blob_image()
        mask, seconds, info = timed_predict(img, FakeStage((8, 32, 32)))
        assert info["mode"] == "single"
        assert info["roi_box"] is None
        assert info["patch_count"] == len(decompose((12, 48, 48), (8, 32, 32), (4, 16, 16)).origins)
        assert seconds > 0
        assert mask.voxels.shape == (12, 48, 48)

    def test_cascade_mode_info(self):
        img, _ = bright_blob_image()
        mask, seconds, info = timed_predict(
            img, FakeStage((8, 32, 32)), FakeStage((8, 32, 32)), toy_fake_cascade_cfg()
        )
        assert info["mode"] == "cascade"
        lo, hi = info["roi_box"]
        assert RoiBox(lo=tuple(lo), hi=tuple(hi)).extents > (0, 0, 0)
