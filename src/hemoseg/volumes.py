"""Volume containers, the RVOL interchange format, and grid resampling.

RVOL layout, all little-endian:

    bytes 0-3    magic "RVOL"
    byte  4      version, u8, currently 1
    byte  5      dtype code, u8: 0 = float32 image, 1 = uint8 mask
    bytes 6-17   dims, 3 x u32: D, H, W
    bytes 18-41  spacing, 3 x float64 mm: slice, row, col
    bytes 42-    voxel payload, row-major with W fastest

The 42-byte header plus D*H*W*itemsize payload make the format bit-exact:
writing a volume read from disk reproduces the file byte for byte.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"RVOL"
VERSION = 1
HEADER = struct.Struct("<4sBB3I3d")
DTYPE_IMAGE = 0
DTYPE_MASK = 1


class RvolError(Exception):
    """Base class for RVOL format violations."""


class RvolBadMagic(RvolError):
    pass


class RvolUnknownVersion(RvolError):
    pass


class RvolUnknownDtype(RvolError):
    pass


class RvolTruncated(RvolError):
    pass


@dataclass
class VolumeImage:
    voxels: np.ndarray
    spacing_mm: tuple[float, float, float]

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.float32)
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        _check_geometry(self.voxels, self.spacing_mm)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.voxels.shape


@dataclass
class SegMask:
    voxels: np.ndarray
    spacing_mm: tuple[float, float, float]

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.uint8)
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        _check_geometry(self.voxels, self.spacing_mm)
        if self.voxels.size and self.voxels.max() > 1:
            raise ValueError(f"mask values must be 0/1, found {self.voxels.max()}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.voxels.shape


def _check_geometry(voxels: np.ndarray, spacing: tuple[float, float, float]) -> None:
    if voxels.ndim != 3 or min(voxels.shape) < 1:
        raise ValueError(f"need a (D,H,W) grid with positive extents, got {voxels.shape}")
    if len(spacing) != 3 or any(s <= 0 for s in spacing):
        raise ValueError(f"spacing components must be positive, got {spacing}")


def write_file_atomic(path, chunks) -> Path:
    """Write the byte chunks to ``path`` through a temporary file beside it.

    The temporary file replaces ``path`` in one ``os.replace`` only once
    every byte is written, so a process killed or failing mid-write leaves
    the previous file intact; a failed write removes the temporary file.
    (No fsync: this guards against the process dying, not the machine.)
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_rvol(path, volume) -> None:
    """Serialize a VolumeImage (float32) or SegMask (uint8) to RVOL."""
    if isinstance(volume, VolumeImage):
        code, payload = DTYPE_IMAGE, volume.voxels.astype("<f4", copy=False)
    elif isinstance(volume, SegMask):
        code, payload = DTYPE_MASK, volume.voxels.astype(np.uint8, copy=False)
    else:
        raise TypeError(f"cannot serialize {type(volume).__name__}")
    d, h, w = volume.voxels.shape
    header = HEADER.pack(MAGIC, VERSION, code, d, h, w, *volume.spacing_mm)
    write_file_atomic(path, (header, np.ascontiguousarray(payload).tobytes()))


def read_rvol(path):
    """Parse an RVOL file into a VolumeImage or SegMask."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER.size:
        if raw[:4] != MAGIC:
            raise RvolBadMagic(f"{path}: not an RVOL file")
        raise RvolTruncated(f"{path}: header needs {HEADER.size} bytes, file has {len(raw)}")
    magic, version, code, d, h, w, sd, sh, sw = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise RvolBadMagic(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise RvolUnknownVersion(f"{path}: unsupported version {version}")
    if code == DTYPE_IMAGE:
        dtype, itemsize = np.dtype("<f4"), 4
    elif code == DTYPE_MASK:
        dtype, itemsize = np.dtype(np.uint8), 1
    else:
        raise RvolUnknownDtype(f"{path}: unknown dtype code {code}")
    need = d * h * w * itemsize
    body = raw[HEADER.size :]
    if len(body) != need:
        raise RvolTruncated(f"{path}: payload has {len(body)} bytes, header promises {need}")
    voxels = np.frombuffer(body, dtype=dtype).reshape(d, h, w)
    try:
        if code == DTYPE_IMAGE:
            return VolumeImage(voxels=voxels.astype(np.float32), spacing_mm=(sd, sh, sw))
        return SegMask(voxels=voxels.copy(), spacing_mm=(sd, sh, sw))
    except ValueError as exc:  # geometry or mask values the containers refuse
        raise RvolError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# resampling to arbitrary target shapes (numpy volumes, no gradients)


def _linear_axis_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Interpolation rows mapping output sample i to (i+0.5)*n_in/n_out - 0.5."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w1 = src - i0
    m = np.zeros((n_out, n_in))
    m[np.arange(n_out), i0] += 1.0 - w1
    m[np.arange(n_out), i1] += w1
    return m


def resize_trilinear(vol: np.ndarray, target_shape: tuple[int, int, int]) -> np.ndarray:
    """Trilinear resample of a (D,H,W) grid to any positive target shape."""
    vol = np.asarray(vol, dtype=np.float64)
    if vol.ndim != 3:
        raise ValueError(f"need a 3-d volume, got {vol.shape}")
    if min(target_shape) < 1:
        raise ValueError(f"bad target shape {target_shape}")
    out = vol
    for ax in range(3):
        if out.shape[ax] != target_shape[ax]:
            m = _linear_axis_matrix(out.shape[ax], target_shape[ax])
            out = np.moveaxis(np.tensordot(m, out, axes=([1], [ax])), 0, ax)
    return out


def resize_nearest(vol: np.ndarray, target_shape: tuple[int, int, int]) -> np.ndarray:
    """Nearest-neighbor resample; keeps label values intact."""
    vol = np.asarray(vol)
    if vol.ndim != 3:
        raise ValueError(f"need a 3-d volume, got {vol.shape}")
    if min(target_shape) < 1:
        raise ValueError(f"bad target shape {target_shape}")
    idx = []
    for ax in range(3):
        pos = (np.arange(target_shape[ax]) + 0.5) * (vol.shape[ax] / target_shape[ax])
        idx.append(np.minimum(pos.astype(np.intp), vol.shape[ax] - 1))
    return vol[np.ix_(idx[0], idx[1], idx[2])]
