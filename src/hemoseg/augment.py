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

The module runs on numpy alone.  Three private ports do the arithmetic of
the scipy routines the augmentation was first written with, operation for
operation and in the same order, so IEEE rounding gives scipy's bits (the
tests pin each one to scipy): ``_degree_trig`` is Cephes' ``cosdg`` and
``sindg``, which ``scipy.special`` wraps and ``ndimage.rotate`` calls;
``_sample_planes`` is ``ndimage.map_coordinates`` with ``mode="constant"``
(linear for the image, nearest for the mask) on a grid whose z coordinates
are whole planes; ``_smooth_in_plane`` is ``ndimage.gaussian_filter`` with
sigma ``(0, s, s)`` and its default ``reflect`` boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .volumes import VolumeImage

HU_WINDOW_WIDTH = 90.0  # the brain window every stage sees: [-5, 85] HU
HU_WINDOW_LEVEL = 40.0
PAD_VALUE = 0.0  # windowed value of air, used when padding to a crop shape
ROTATE_DEGREES = 30.0  # the axial angle is uniform in [-30, 30] degrees
NOISE_SIGMA_RANGE = (0.0, 0.1)  # additive Gaussian noise on the [0, 1] windowed scale
SMOOTH_SIGMA_RANGE = (0.5, 1.0)  # in-plane Gaussian smoothing, in voxels


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
    flip_prob: float = 0.5
    noise_prob: float = 0.5
    smooth_prob: float = 0.5
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


def lead_padding(shape, target) -> list[int]:
    """Per-axis leading padding that brings ``shape`` up to ``target``: half the shortfall, rounded down."""
    return [max(0, t - n) // 2 for n, t in zip(shape, target)]


def pad_to_shape(vol: np.ndarray, shape, pad_value: float):
    """Pad symmetrically (``lead_padding`` before) so every extent reaches shape."""
    leads = lead_padding(vol.shape, shape)
    pads = [(lead, max(0, want - have) - lead) for have, want, lead in zip(vol.shape, shape, leads)]
    if any(p != (0, 0) for p in pads):
        vol = np.pad(vol, pads, constant_values=pad_value)
    return vol


def _crop_origin(mask, crop_shape, rng, fg_bias_prob, place):
    """Origin of a crop of the mask padded to at least ``crop_shape``:
    centred on a random foreground voxel, moved by ``place``, with
    probability ``fg_bias_prob``; uniform otherwise."""
    padded = [max(n, c) for n, c in zip(mask.shape, crop_shape)]
    fg = np.flatnonzero(mask > 0)
    if len(fg) > 0 and rng.random() < fg_bias_prob:
        centre = place(np.unravel_index(fg[rng.integers(len(fg))], mask.shape))
        lead = lead_padding(mask.shape, crop_shape)
        return [int(np.clip(int(i) + p - c // 2, 0, n - c)) for i, p, c, n in zip(centre, lead, crop_shape, padded)]
    return [int(rng.integers(n - c + 1)) for n, c in zip(padded, crop_shape)]


# Cephes sindg.c's coefficients: on one 45-degree octant, in radians z,
# sin z = z + z^3 P(z^2) and cos z = 1 - z^2 Q(z^2)
_SINCOF = (1.58962301572218447952e-10, -2.50507477628503540135e-8, 2.75573136213856773549e-6,
           -1.98412698295895384658e-4, 8.33333333332211858862e-3, -1.66666666666666307295e-1)
_COSCOF = (1.13678171382044553091e-11, -2.08758833757683644217e-9, 2.75573155429816611547e-7,
           -2.48015872936186303776e-5, 1.38888888888806666760e-3, -4.16666666666666348141e-2,
           4.99999999999999999798e-1)
_PI180 = 1.74532925199432957692e-2  # pi / 180


def _polevl(x, coefs):
    """Cephes ``polevl``: the polynomial with coefficients highest power first, by Horner's rule."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _degree_trig(x: float, cosine: bool) -> float:
    """Cephes ``cosdg`` (cosine) or ``sindg`` of x degrees, step for step.
    The argument is reduced by whole multiples of 45 degrees before it is
    turned into radians, so multiples of 90 give exact 0 and +-1.
    ``np.cos(np.deg2rad(x))`` differs from it by an ulp on some angles."""
    sign = 1.0
    if x < 0:
        x, sign = -x, (1.0 if cosine else -1.0)
    y = float(math.floor(x / 45.0))
    z = y - math.ldexp(math.floor(math.ldexp(y, -4)), 4)  # y mod 16
    j = int(z)
    if j & 1:  # map zeros to the origin
        j, y = j + 1, y + 1.0
    j &= 7
    if j > 3:
        sign, j = -sign, j - 4
    if cosine and j > 1:
        sign = -sign
    z = (x - y * 45.0) * _PI180
    zz = z * z
    if (j in (1, 2)) != cosine:
        y = 1.0 - zz * _polevl(zz, _COSCOF)
    else:
        y = z + z * (zz * _polevl(zz, _SINCOF))
    return -y if sign < 0 else y


def _axis_taps(c, n):
    """Coordinates c on an axis of extent n as scipy's ``mode="constant"``
    reads them: whether each lies in [0, n-1] (the fill value anywhere else,
    however close), its two linear taps (index, weight), and its nearest
    index, floor(c + 0.5).  The weights are 1 - t and 1 - (1 - t), not t:
    scipy takes the last weight as 1 minus the others.  Indices are clamped
    into the axis, so points outside read some voxel, later overwritten."""
    c0 = np.floor(c)
    i0 = np.clip(c0, 0, n - 1).astype(np.intp)
    w0 = 1.0 - (c - c0)
    taps = ((i0, w0), (np.minimum(i0 + 1, n - 1), 1.0 - w0))
    return (c >= 0) & (c <= n - 1), taps, np.clip(np.floor(c + 0.5), 0, n - 1).astype(np.intp)


def _sample_planes(image, mask, y, x):
    """``ndimage.map_coordinates`` at (z, y, x) for every plane z of image
    and mask and every in-plane point (y, x), ``mode="constant"``: the
    image linear into float64 (``PAD_VALUE`` outside), the mask nearest in
    its dtype (0 outside).  The linear value sums ``v * wy * wx`` over the
    corners (y0, x0), (y0, x1), (y1, x0), (y1, x1) in that order, from 0,
    as scipy's spline loop does; a whole-plane z has weights (1, 0), which
    change no bit of it."""
    planes, ny, nx = image.shape
    inside_y, taps_y, near_y = _axis_taps(y, ny)
    inside_x, taps_x, near_x = _axis_taps(x, nx)
    img = np.zeros((planes,) + y.shape)
    flat = image.reshape(planes, ny * nx)
    for (iy, wy), (ix, wx) in product(taps_y, taps_x):
        img += np.take(flat, iy * nx + ix, axis=1) * wy * wx  # float32 values widen exactly
    msk = np.take(mask.reshape(planes, ny * nx), near_y * nx + near_x, axis=1)
    outside = ~(inside_y & inside_x)
    if outside.any():
        img[:, outside] = PAD_VALUE
        msk[:, outside] = 0
    return img, msk


class _Geometry:
    """The rotation and flips of one sample, as ``ndimage.rotate(vol, angle,
    axes=(1, 2), reshape=False)`` followed by row and column flips: the
    rotation turns each axial plane about its centre.  Its matrix is
    ``ndimage.rotate``'s, from the same degree trig (``_degree_trig``).
    An angle of 0 gives exact cos 1 and sin 0, a zero offset and linear
    weights (1, 0), so the sample is the unrotated volume bit for bit."""

    def __init__(self, shape, angle: float, flips):
        self.shape, self.flips = tuple(shape), flips
        c, s = _degree_trig(angle, cosine=True), _degree_trig(angle, cosine=False)
        self.rot = np.array([[c, s], [-s, c]])
        centre = (np.asarray(self.shape[1:]) - 1) / 2.0
        self.offset = centre - self.rot @ centre  # ndimage.rotate's, so the grids agree to rounding

    def _unflip(self, ax, i):
        """Row (ax 1) or column (ax 2) index i across that axis's flip, either way."""
        return self.shape[ax] - 1 - i if self.flips[ax - 1] else i

    def place(self, voxel):
        """Where input voxel (z, y, x) lands in the augmented volume, rounded."""
        z, y, x = voxel
        y, x = self.rot.T @ (np.array([y, x], dtype=np.float64) - self.offset)
        return z, int(np.rint(self._unflip(1, y))), int(np.rint(self._unflip(2, x)))

    def sample(self, image, mask, region):
        """The augmented volume's [lo, hi) ``region`` per axis, of image (float64) and mask."""
        zs, ys, xs = (np.arange(lo, hi) for lo, hi in region)
        ys, xs = self._unflip(1, ys), self._unflip(2, xs)
        y, x = ys[:, None].astype(np.float64), xs[None, :].astype(np.float64)
        planes = slice(*region[0])
        return _sample_planes(
            image[planes],
            mask[planes],
            y * self.rot[0, 0] + x * self.rot[0, 1] + self.offset[0],
            y * self.rot[1, 0] + x * self.rot[1, 1] + self.offset[1],
        )


def _smoothing_radius(sigma: float) -> int:
    """Half-width of the Gaussian kernel: scipy's default truncation at 4 sigma."""
    return int(4.0 * sigma + 0.5)


def _smooth_in_plane(img, sigma: float):
    """``ndimage.gaussian_filter(img, (0, sigma, sigma))`` of a float64 volume:
    a 1-D Gaussian along rows, then columns, each padded by reflection
    (``reflect`` in scipy, ``symmetric`` in ``np.pad``) and summed as
    scipy's ``correlate1d`` sums a symmetric kernel: the centre tap, then
    the mirrored pairs from the outermost in.  A sigma at or below 1e-15
    leaves the axis alone, as scipy does."""
    if sigma <= 1e-15:
        return img
    r = _smoothing_radius(sigma)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    for axis in (1, 2):
        padded = np.pad(img, [(0, 0)] * axis + [(r, r)] + [(0, 0)] * (2 - axis), mode="symmetric")
        taps = [padded[(slice(None),) * axis + (slice(k, k + img.shape[axis]),)] for k in range(2 * r + 1)]
        img = taps[r] * w[r]
        for j in range(r, 0, -1):
            img += (taps[r - j] + taps[r + j]) * w[r - j]
    return img


def _patch(image, mask, geometry, origin, crop_shape, smooth_sigma=None, noise=None):
    """The crop at ``origin`` (in the volume padded to ``crop_shape`` as
    ``pad_to_shape`` pads) of the volume transformed by ``geometry``, then
    noised by ``noise(shape)`` and smoothed in-plane by ``smooth_sigma``
    (each step skipped when None).  Only the crop and the smoothing halo
    are computed; voxels of the padding are ``PAD_VALUE`` and 0."""
    crop = [(o - p, o - p + c) for o, p, c in zip(origin, lead_padding(image.shape, crop_shape), crop_shape)]
    inside = [(max(lo, 0), min(hi, n)) for (lo, hi), n in zip(crop, image.shape)]
    halo = (0,) + (_smoothing_radius(smooth_sigma),) * 2 if smooth_sigma is not None else (0, 0, 0)
    region = [(max(lo - h, 0), min(hi + h, n)) for (lo, hi), h, n in zip(inside, halo, image.shape)]
    img, msk = geometry.sample(image, mask, region)
    if noise is not None:
        img = img + noise(img.shape)
    if smooth_sigma is not None:
        img = _smooth_in_plane(img, smooth_sigma)
    out_img = np.full(crop_shape, PAD_VALUE, dtype=img.dtype)
    out_msk = np.zeros(crop_shape, dtype=msk.dtype)
    dst = tuple(slice(lo - c0, hi - c0) for (lo, hi), (c0, _) in zip(inside, crop))
    src = tuple(slice(lo - r0, hi - r0) for (lo, hi), (r0, _) in zip(inside, region))
    out_img[dst] = img[src]
    out_msk[dst] = msk[src]
    return out_img, out_msk


def augment(image: np.ndarray, mask: np.ndarray, rng, policy: AugmentPolicy):
    """Apply the augmentation pipeline; returns a (image, mask) patch pair.

    Draws, in order: the rotation and its angle (a sample that is not
    rotated is sampled at angle 0), the two flips, the noise and its sigma,
    the smoothing and its sigma, then the crop (the foreground-biased
    centre is a voxel of the input mask, carried through the rotation and
    flips), then the noise values over the crop and its smoothing halo.
    """
    img = np.asarray(image)  # widened to float64 only where sampled
    msk = np.asarray(mask)
    if img.shape != msk.shape:
        raise ValueError(f"image {img.shape} and mask {msk.shape} must be paired")
    angle = rng.uniform(-ROTATE_DEGREES, ROTATE_DEGREES) if rng.random() < policy.rotate_prob else 0.0
    flips = (rng.random() < policy.flip_prob, rng.random() < policy.flip_prob)  # rows, columns
    noise_sigma = rng.uniform(*NOISE_SIGMA_RANGE) if rng.random() < policy.noise_prob else None
    smooth_sigma = rng.uniform(*SMOOTH_SIGMA_RANGE) if rng.random() < policy.smooth_prob else None
    geometry = _Geometry(img.shape, angle, flips)
    origin = _crop_origin(msk, policy.crop_shape, rng, policy.fg_bias_prob, geometry.place)

    def noise(shape):
        return rng.normal(0.0, 1.0, size=shape) * noise_sigma

    img, msk = _patch(
        img, msk, geometry, origin, policy.crop_shape, smooth_sigma, None if noise_sigma is None else noise
    )
    return img.astype(np.float32), msk.astype(np.uint8)
