"""HU windowing, training-time augmentation, and patch normalization.

The augmentation draws its decisions on windowed [0,1] images in a fixed
order: axial rotation, flips, additive noise, in-plane smoothing, crop.  It
computes only the patch, never the whole augmented volume: the crop, plus
the smoothing halo, is sampled from the input through the rotated and
flipped coordinates (linear for the image, nearest for the mask, 0 outside),
then noise is added and smoothed there (the patch-sized coordinate grid of
nnU-Net's spatial augmentation, Isensee et al. 2021).  Without noise the
patch equals, to rounding, the crop of the whole volume rotated, flipped
and smoothed in that order.  Intensity steps touch the image only.  Z-score normalization is a
separate step applied to the cropped patch.

Only training augments, so ``scipy.ndimage`` and ``scipy.special`` are
imported at the first rotation or smoothing, not with this module: the
inference, evaluation and volumetry paths load no scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Zero-mean unit-std patch; the std is floored at 1e-8 so constants map to 0.
    Centres once and takes the std from the centred patch, as ``np.std`` does."""
    patch = np.asarray(patch, dtype=np.float64)
    centred = patch - patch.mean()
    std = max(float(np.sqrt(np.square(centred).mean())), 1e-8)
    return (centred / std).astype(np.float32)


@dataclass
class AugmentPolicy:
    rotate_prob: float = 1.0
    rotate_degrees: float = 30.0
    flip_prob: float = 0.5
    noise_prob: float = 0.5
    noise_sigma_range: tuple[float, float] = (0.0, 0.1)
    smooth_prob: float = 0.5
    smooth_sigma_range: tuple[float, float] = (0.5, 1.0)
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
            crop_shape=tuple(crop_shape),
            fg_bias_prob=0.0,
        )

    @classmethod
    def geometric_only(cls, crop_shape) -> "AugmentPolicy":
        return cls(
            noise_prob=0.0,
            smooth_prob=0.0,
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


def _lead(shape, crop_shape) -> list[int]:
    """The leading padding per axis that ``pad_to_shape`` adds to reach crop_shape."""
    return [max(0, c - n) // 2 for n, c in zip(shape, crop_shape)]


def _crop_origin(mask, crop_shape, rng, fg_bias_prob, place=None):
    """Origin of a crop of the mask padded to at least ``crop_shape``:
    centred on a random foreground voxel with probability ``fg_bias_prob``,
    uniform otherwise.  ``place`` moves the chosen voxel first (default: it
    stays where it is)."""
    padded = [max(n, c) for n, c in zip(mask.shape, crop_shape)]
    fg = np.flatnonzero(mask > 0)
    if len(fg) > 0 and rng.random() < fg_bias_prob:
        centre = np.unravel_index(fg[rng.integers(len(fg))], mask.shape)
        centre = place(centre) if place is not None else centre
        lead = _lead(mask.shape, crop_shape)
        return [int(np.clip(int(i) + p - c // 2, 0, n - c)) for i, p, c, n in zip(centre, lead, crop_shape, padded)]
    return [int(rng.integers(n - c + 1)) for n, c in zip(padded, crop_shape)]


def random_crop(image, mask, crop_shape, rng, fg_bias_prob=0.5):
    """Cut an aligned patch pair, optionally centered on a foreground voxel."""
    origin = _crop_origin(np.asarray(mask), crop_shape, rng, fg_bias_prob)
    image = pad_to_shape(np.asarray(image), crop_shape, PAD_VALUE)
    mask = pad_to_shape(np.asarray(mask), crop_shape, 0)
    sl = tuple(slice(o, o + c) for o, c in zip(origin, crop_shape))
    return np.ascontiguousarray(image[sl]), np.ascontiguousarray(mask[sl])


class _Geometry:
    """The rotation and flips of one sample, as ``ndimage.rotate(vol, angle,
    axes=(1, 2), reshape=False)`` followed by row and column flips: the
    rotation turns each axial plane about its centre."""

    def __init__(self, shape, angle, flips):
        self.shape, self.angle, self.flips = tuple(shape), angle, flips
        if angle is not None:
            from scipy import special

            c, s = special.cosdg(angle), special.sindg(angle)
            self.rot = np.array([[c, s], [-s, c]])
            centre = (np.asarray(self.shape[1:]) - 1) / 2.0
            self.offset = centre - self.rot @ centre  # ndimage.rotate's, so the grids agree to rounding

    def _unflip(self, ax, i):
        """Row (ax 1) or column (ax 2) index i across that axis's flip, either way."""
        return self.shape[ax] - 1 - i if self.flips[ax - 1] else i

    def place(self, voxel):
        """Where input voxel (z, y, x) lands in the augmented volume, rounded."""
        z, y, x = voxel
        if self.angle is not None:
            y, x = self.rot.T @ (np.array([y, x], dtype=np.float64) - self.offset)
        return z, int(np.rint(self._unflip(1, y))), int(np.rint(self._unflip(2, x)))

    def sample(self, image, mask, region):
        """The augmented volume's [lo, hi) ``region`` per axis, of image (float64) and mask."""
        zs, ys, xs = (np.arange(lo, hi) for lo, hi in region)
        ys, xs = self._unflip(1, ys), self._unflip(2, xs)
        if self.angle is None:
            grid = np.ix_(zs, ys, xs)
            return image[grid].astype(np.float64, copy=False), mask[grid]
        from scipy import ndimage

        y, x = ys[:, None].astype(np.float64), xs[None, :].astype(np.float64)
        coords = np.empty((3, len(zs), len(ys), len(xs)))
        coords[0] = zs[:, None, None]
        coords[1] = y * self.rot[0, 0] + x * self.rot[0, 1] + self.offset[0]
        coords[2] = y * self.rot[1, 0] + x * self.rot[1, 1] + self.offset[1]
        return (
            ndimage.map_coordinates(image, coords, np.float64, order=1, mode="constant", cval=PAD_VALUE),
            ndimage.map_coordinates(mask, coords, order=0, mode="constant", cval=0),
        )


def _patch(image, mask, geometry, origin, crop_shape, smooth_sigma=None, noise=None):
    """The crop at ``origin`` (in the volume padded to ``crop_shape`` as
    ``pad_to_shape`` pads) of the volume transformed by ``geometry``, then
    noised by ``noise(shape)`` and smoothed in-plane by ``smooth_sigma``
    (each step skipped when None).  Only the crop and the smoothing halo
    are computed; voxels of the padding are ``PAD_VALUE`` and 0."""
    crop = [(o - p, o - p + c) for o, p, c in zip(origin, _lead(image.shape, crop_shape), crop_shape)]
    inside = [(max(lo, 0), min(hi, n)) for (lo, hi), n in zip(crop, image.shape)]
    halo = (0,) + (int(4.0 * smooth_sigma + 0.5),) * 2 if smooth_sigma is not None else (0, 0, 0)
    region = [(max(lo - h, 0), min(hi + h, n)) for (lo, hi), h, n in zip(inside, halo, image.shape)]
    img, msk = geometry.sample(image, mask, region)
    if noise is not None:
        img = img + noise(img.shape)
    if smooth_sigma is not None:
        from scipy import ndimage

        img = ndimage.gaussian_filter(img, sigma=(0.0, smooth_sigma, smooth_sigma))
    out_img = np.full(crop_shape, PAD_VALUE, dtype=img.dtype)
    out_msk = np.zeros(crop_shape, dtype=msk.dtype)
    dst = tuple(slice(lo - c0, hi - c0) for (lo, hi), (c0, _) in zip(inside, crop))
    src = tuple(slice(lo - r0, hi - r0) for (lo, hi), (r0, _) in zip(inside, region))
    out_img[dst] = img[src]
    out_msk[dst] = msk[src]
    return out_img, out_msk


def augment(image: np.ndarray, mask: np.ndarray, rng, policy: AugmentPolicy):
    """Apply the augmentation pipeline; returns a (image, mask) patch pair.

    Draws, in order: the rotation and its angle, the two flips, the noise
    and its sigma, the smoothing and its sigma, then the crop (the
    foreground-biased centre is a voxel of the input mask, carried through
    the rotation and flips), then the noise values over the crop and its
    smoothing halo.
    """
    img = np.asarray(image)  # widened to float64 only where sampled
    msk = np.asarray(mask)
    if img.shape != msk.shape:
        raise ValueError(f"image {img.shape} and mask {msk.shape} must be paired")
    angle = rng.uniform(-policy.rotate_degrees, policy.rotate_degrees) if rng.random() < policy.rotate_prob else None
    flips = (rng.random() < policy.flip_prob, rng.random() < policy.flip_prob)  # rows, columns
    noise_sigma = rng.uniform(*policy.noise_sigma_range) if rng.random() < policy.noise_prob else None
    smooth_sigma = rng.uniform(*policy.smooth_sigma_range) if rng.random() < policy.smooth_prob else None
    geometry = _Geometry(img.shape, angle, flips)
    origin = _crop_origin(msk, policy.crop_shape, rng, policy.fg_bias_prob, geometry.place)

    def noise(shape):
        return rng.normal(0.0, 1.0, size=shape) * noise_sigma

    img, msk = _patch(
        img, msk, geometry, origin, policy.crop_shape, smooth_sigma, None if noise_sigma is None else noise
    )
    return img.astype(np.float32), msk.astype(np.uint8)
