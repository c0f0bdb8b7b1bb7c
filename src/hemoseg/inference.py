"""Sliding-window whole-volume prediction and two-stage cascade inference."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .augment import PAD_VALUE, hu_window, lead_padding, pad_to_shape, zscore_normalize
from .autodiff import ShapeError, Tensor
from .model import NUM_CLASSES
from .volumes import SegMask, VolumeImage, resize_trilinear


@dataclass
class PatchGrid:
    window: tuple[int, int, int]
    origins: list[tuple[int, int, int]]
    volume_shape: tuple[int, int, int]


@dataclass
class RoiBox:
    """Half-open per-axis voxel bounds [lo, hi)."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self):
        self.lo = tuple(int(v) for v in self.lo)
        self.hi = tuple(int(v) for v in self.hi)
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"degenerate box {self.lo}..{self.hi}")

    @property
    def extents(self) -> tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def slices(self) -> tuple[slice, slice, slice]:
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))


def _axis_origins(n: int, w: int, s: int) -> list[int]:
    origins = list(range(0, n - w + 1, s))
    if origins[-1] != n - w:
        origins.append(n - w)
    return origins


def decompose(volume_shape, window, stride) -> PatchGrid:
    """Tile a volume with stride-spaced windows, last window clamped flush.

    Every voxel ends up inside at least one window; origins never exceed
    volume bounds.
    """
    volume_shape = tuple(int(v) for v in volume_shape)
    window = tuple(int(v) for v in window)
    stride = tuple(int(v) for v in stride)
    for ax in range(3):
        if not 1 <= window[ax] <= volume_shape[ax]:
            raise ShapeError(
                f"window {window} must fit inside volume {volume_shape} (pad the volume first)"
            )
        if not 1 <= stride[ax] <= window[ax]:
            raise ShapeError(f"stride {stride} must be in [1, window] to guarantee coverage")
    per_axis = [_axis_origins(volume_shape[ax], window[ax], stride[ax]) for ax in range(3)]
    origins = [(d, h, w) for d in per_axis[0] for h in per_axis[1] for w in per_axis[2]]
    return PatchGrid(window=window, origins=origins, volume_shape=volume_shape)


def recompose_average(patch_probs, grid: PatchGrid, num_channels: int) -> np.ndarray:
    """Per-voxel arithmetic mean of all covering patches.

    ``patch_probs`` is any iterable of patches, one per grid origin in
    order; a generator is consumed as the mean is built, so the patches are
    never held at once.  A patch count that differs from the origin count
    raises ValueError once the patches run out.

    Uses an incremental (running) mean, so voxels whose covering patches all
    agree come out exactly equal to that value: no seams from float division.
    """
    mean = np.zeros((num_channels,) + grid.volume_shape, dtype=np.float64)
    count = np.zeros(grid.volume_shape, dtype=np.int64)
    patches = iter(patch_probs)
    got = 0
    for origin, prob in zip(grid.origins, patches):
        got += 1
        prob = np.asarray(prob, dtype=np.float64)
        if prob.shape != (num_channels,) + grid.window:
            raise ShapeError(f"patch shape {prob.shape} != {(num_channels,) + grid.window}")
        region = tuple(slice(o, o + w) for o, w in zip(origin, grid.window))
        count[region] += 1
        mean[(slice(None),) + region] += (prob - mean[(slice(None),) + region]) / count[region]
    got += sum(1 for _ in patches)  # any patches past the last origin
    if got != len(grid.origins):
        raise ValueError(f"got {got} patches for {len(grid.origins)} grid origins")
    if count.min() < 1:
        raise RuntimeError("grid left voxels uncovered")
    return mean


def _window_grid(volume_shape, window, stride=None) -> PatchGrid:
    """The sliding-window grid over a volume padded up to the window; the
    stride defaults to half the window (at least 1) per axis."""
    window = tuple(window)
    if stride is None:
        stride = tuple(max(1, w // 2) for w in window)
    padded = tuple(max(n, w) for n, w in zip(volume_shape, window))
    return decompose(padded, window, stride)


def sliding_window_predict(model, image: VolumeImage, stride=None, info=None) -> np.ndarray:
    """Whole-volume class probabilities [C,D,H,W] from overlapping patches.

    The image is HU-windowed once; each patch is z-score normalized
    independently, exactly as during training.  Patch outputs stream into
    the running mean one at a time.  The model is switched to eval mode;
    its batch-norm statistics must already be populated.
    Raises FloatingPointError when the recomposed probabilities are not all
    finite, as when the image holds NaN voxels (windowing clamps infinities)
    or the weights are not finite.  A dict passed as ``info`` gets the
    number of windows run as ``patch_count``.
    """
    model.eval()
    window = tuple(model.config.input_patch_shape)
    windowed = hu_window(image).voxels.astype(np.float64)
    grid = _window_grid(windowed.shape, window, stride)
    if info is not None:
        info["patch_count"] = len(grid.origins)
    padded = pad_to_shape(windowed, grid.volume_shape, PAD_VALUE)
    lead = lead_padding(windowed.shape, grid.volume_shape)

    def patches():
        for origin in grid.origins:
            region = tuple(slice(o, o + w) for o, w in zip(origin, window))
            x = zscore_normalize(padded[region])[None, None]
            yield model(Tensor(x))["final"].data[0]

    probs = recompose_average(patches(), grid, NUM_CLASSES)
    if not np.isfinite(probs).all():
        raise FloatingPointError("non-finite sliding-window probabilities (NaN voxels in the image, or bad weights)")
    crop = tuple(slice(l, l + n) for l, n in zip(lead, windowed.shape))
    return probs[(slice(None),) + crop]


def predict_mask(model, image: VolumeImage, stride=None, info=None) -> SegMask:
    probs = sliding_window_predict(model, image, stride=stride, info=info)
    return SegMask((np.argmax(probs, axis=0) == 1).astype(np.uint8), image.spacing_mm)


def extract_roi(mask: np.ndarray, margin_fraction) -> RoiBox | None:
    """Tight foreground bounding box grown by a per-axis fraction per side."""
    mask = np.asarray(mask)
    idx = np.argwhere(mask > 0)
    if len(idx) == 0:
        return None
    lo = idx.min(axis=0)
    hi = idx.max(axis=0) + 1
    extent = hi - lo
    out_lo, out_hi = [], []
    for ax in range(3):
        m = margin_fraction[ax] * float(extent[ax])  # a huge margin makes inf here, clamped below
        out_lo.append(int(max(0.0, np.floor(lo[ax] - m))))
        out_hi.append(int(min(mask.shape[ax], np.ceil(hi[ax] + m))))
    return RoiBox(lo=tuple(out_lo), hi=tuple(out_hi))


def cascade_infer(
    stage1, stage2, image: VolumeImage, cascade_cfg, stride1=None, info=None
) -> tuple[SegMask, RoiBox | None]:
    """Coarse localization, ROI crop/resize, fine segmentation, paste-back.

    Stage 1 runs sliding-window over the whole volume; its argmax mask
    yields an enlarged ROI.  The ROI crop alone is HU-windowed (windowing is
    elementwise, so this equals cropping the windowed volume), resized to
    the stage-2 input shape, normalized, segmented, and the foreground
    probability is resized back and thresholded at 0.5.  An empty coarse
    mask short-circuits to an all-background mask.

    stride1 overrides the stage-1 window stride, and ``info`` is passed to
    stage 1's ``sliding_window_predict``.  Denser overlap pays off
    here: each window normalizes its own patch, so isolated false-positive
    specks rarely survive averaging across several window alignments, and
    the ROI box stays tight around the real lesions.
    """
    stage2.eval()
    probs1 = sliding_window_predict(stage1, image, stride=stride1, info=info)
    coarse = np.argmax(probs1, axis=0) == 1
    box = extract_roi(coarse, cascade_cfg.roi_margin_fraction)
    if box is None:
        return SegMask(np.zeros(image.shape, dtype=np.uint8), image.spacing_mm), None
    roi = hu_window(VolumeImage(image.voxels[box.slices()], image.spacing_mm)).voxels.astype(np.float64)
    x = zscore_normalize(resize_trilinear(roi, stage2.config.input_patch_shape))[None, None]
    fine = stage2(Tensor(x))["final"].data[0]
    fg_back = resize_trilinear(fine[1], box.extents)
    out = np.zeros(image.shape, dtype=np.uint8)
    out[box.slices()] = fg_back > 0.5
    return SegMask(out, image.spacing_mm), box


def timed_predict(image: VolumeImage, stage1, stage2=None, cascade_cfg=None, stride=None):
    """Run single-stage or cascade prediction; returns (mask, seconds, info)."""
    t0 = time.perf_counter()
    info = {}
    if stage2 is not None:
        mask, box = cascade_infer(stage1, stage2, image, cascade_cfg, stride1=stride, info=info)
        info.update(mode="cascade", roi_box=None if box is None else [list(box.lo), list(box.hi)])
    else:
        mask = predict_mask(stage1, image, stride=stride, info=info)
        info.update(mode="single", roi_box=None)
    return mask, time.perf_counter() - t0, info
