"""HU windowing, training-time augmentation, and patch normalization.

The augmentation pipeline runs on windowed [0,1] images in a fixed order:
axial rotation, flips, additive noise, in-plane smoothing, contrast, crop.
Geometric steps apply to image and mask together (linear vs. nearest
interpolation); intensity steps touch the image only.  Z-score
normalization is a separate step applied to the cropped patch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .volumes import VolumeImage

HU_WINDOW_WIDTH = 90.0  # the brain window every stage sees: [-5, 85] HU
HU_WINDOW_LEVEL = 40.0
PAD_VALUE = 0.0  # windowed value of air, used when padding to a crop shape


def hu_window(image: VolumeImage) -> VolumeImage:
    """Clamp HU to the brain window [level - width/2, level + width/2], then map to [0,1]."""
    lo = HU_WINDOW_LEVEL - HU_WINDOW_WIDTH / 2.0
    hi = HU_WINDOW_LEVEL + HU_WINDOW_WIDTH / 2.0
    out = (np.clip(image.voxels, lo, hi) - lo) / (hi - lo)
    return VolumeImage(out.astype(np.float32), image.spacing_mm)


def zscore_normalize(patch: np.ndarray) -> np.ndarray:
    """Zero-mean unit-std patch; the std is floored at 1e-8 so constants map to 0."""
    patch = np.asarray(patch, dtype=np.float64)
    std = max(float(patch.std()), 1e-8)
    return ((patch - patch.mean()) / std).astype(np.float32)


@dataclass
class AugmentPolicy:
    rotate_prob: float = 1.0
    rotate_degrees: float = 30.0
    flip_prob: float = 0.5
    noise_prob: float = 0.5
    noise_sigma_range: tuple[float, float] = (0.0, 0.1)
    smooth_prob: float = 0.5
    smooth_sigma_range: tuple[float, float] = (0.5, 1.0)
    contrast_prob: float = 0.5
    contrast_range: tuple[float, float] = (0.75, 1.25)
    crop_shape: tuple[int, int, int] = (8, 32, 32)
    fg_bias_prob: float = 0.5

    @classmethod
    def disabled(cls, crop_shape) -> "AugmentPolicy":
        """Everything off: output equals input apart from the crop."""
        return cls(
            rotate_prob=0.0,
            flip_prob=0.0,
            noise_prob=0.0,
            smooth_prob=0.0,
            contrast_prob=0.0,
            crop_shape=tuple(crop_shape),
            fg_bias_prob=0.0,
        )

    @classmethod
    def geometric_only(cls, crop_shape) -> "AugmentPolicy":
        return cls(
            noise_prob=0.0,
            smooth_prob=0.0,
            contrast_prob=0.0,
            crop_shape=tuple(crop_shape),
        )


def pad_to_shape(vol: np.ndarray, shape, pad_value: float):
    """Pad symmetrically (extra voxel trailing) so every extent reaches shape."""
    pads = []
    for have, want in zip(vol.shape, shape):
        extra = max(0, want - have)
        pads.append((extra // 2, extra - extra // 2))
    if any(p != (0, 0) for p in pads):
        vol = np.pad(vol, pads, constant_values=pad_value)
    return vol


def random_crop(image, mask, crop_shape, rng, fg_bias_prob=0.5):
    """Cut an aligned patch pair, optionally centered on a foreground voxel."""
    image = pad_to_shape(np.asarray(image), crop_shape, PAD_VALUE)
    mask = pad_to_shape(np.asarray(mask), crop_shape, 0)
    fg = np.argwhere(mask > 0)
    origin = []
    if len(fg) > 0 and rng.random() < fg_bias_prob:
        center = fg[rng.integers(len(fg))]
        for ax in range(3):
            o = int(center[ax]) - crop_shape[ax] // 2
            origin.append(int(np.clip(o, 0, image.shape[ax] - crop_shape[ax])))
    else:
        for ax in range(3):
            origin.append(int(rng.integers(image.shape[ax] - crop_shape[ax] + 1)))
    sl = tuple(slice(o, o + c) for o, c in zip(origin, crop_shape))
    return np.ascontiguousarray(image[sl]), np.ascontiguousarray(mask[sl])


def augment(image: np.ndarray, mask: np.ndarray, rng, policy: AugmentPolicy):
    """Apply the augmentation pipeline; returns a (image, mask) patch pair."""
    img = np.asarray(image, dtype=np.float64)
    msk = np.asarray(mask)
    if img.shape != msk.shape:
        raise ValueError(f"image {img.shape} and mask {msk.shape} must be paired")

    if rng.random() < policy.rotate_prob:
        angle = rng.uniform(-policy.rotate_degrees, policy.rotate_degrees)
        img = ndimage.rotate(img, angle, axes=(1, 2), reshape=False, order=1, mode="constant", cval=PAD_VALUE)
        msk = ndimage.rotate(msk, angle, axes=(1, 2), reshape=False, order=0, mode="constant", cval=0)

    if rng.random() < policy.flip_prob:  # vertical: rows
        img = img[:, ::-1, :]
        msk = msk[:, ::-1, :]
    if rng.random() < policy.flip_prob:  # horizontal: columns
        img = img[:, :, ::-1]
        msk = msk[:, :, ::-1]

    if rng.random() < policy.noise_prob:
        sigma = rng.uniform(*policy.noise_sigma_range)
        img = img + rng.normal(0.0, 1.0, size=img.shape) * sigma

    if rng.random() < policy.smooth_prob:
        sigma = rng.uniform(*policy.smooth_sigma_range)
        img = ndimage.gaussian_filter(img, sigma=(0.0, sigma, sigma))

    if rng.random() < policy.contrast_prob:
        factor = rng.uniform(*policy.contrast_range)
        mean = img.mean()
        img = mean + factor * (img - mean)

    img, msk = random_crop(img, msk, policy.crop_shape, rng, policy.fg_bias_prob)
    return img.astype(np.float32), msk.astype(np.uint8)
