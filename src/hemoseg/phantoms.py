"""Synthetic head-CT phantoms: a brain ellipsoid with hyperdense lesions.

Each phantom is a (D,H,W) HU volume plus a binary lesion mask.  The brain is
an axis-aligned ellipsoid of soft-tissue density inside air; lesions are
brighter ellipsoids placed fully inside the brain by rejection sampling.
Voxel (d,h,w) is classified by its center point (index + 0.5) * spacing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .volumes import SegMask, VolumeImage, write_file_atomic, write_rvol
from .volumetry import SCATTERED, SOLITARY

AIR_HU = -1000.0
BRAIN_FRACTION = 0.92  # brain semi-axes as a fraction of the half-extents


class PhantomError(RuntimeError):
    """Raised when a spec cannot be realized (lesion does not fit)."""


@dataclass
class PhantomSpec:
    shape: tuple[int, int, int] = (16, 64, 64)
    spacing_mm: tuple[float, float, float] = (5.0, 1.0, 1.0)
    lesion_count_range: tuple[int, int] = (1, 3)
    semi_axes_mm_range: tuple[float, float] = (6.0, 14.0)
    lesion_hu_range: tuple[float, float] = (60.0, 80.0)
    background_hu: float = 40.0
    noise_sigma_hu: float = 2.0
    seed: int = 0

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if min(self.shape) < 1 or not all(0 < s < np.inf for s in self.spacing_mm):
            raise ValueError(f"bad geometry: shape {self.shape}, spacing_mm {self.spacing_mm}")
        if not (0 <= self.lesion_count_range[0] <= self.lesion_count_range[1]):
            raise ValueError(f"bad lesion count range {self.lesion_count_range}")
        if not (0 < self.semi_axes_mm_range[0] <= self.semi_axes_mm_range[1] < np.inf):
            raise ValueError(f"bad semi_axes_mm_range {self.semi_axes_mm_range}")
        if not 0 <= self.noise_sigma_hu < np.inf:
            raise ValueError(f"noise_sigma_hu must be finite and >= 0, got {self.noise_sigma_hu}")
        if not np.isfinite([*self.lesion_hu_range, self.background_hu]).all():
            raise ValueError(f"lesion_hu_range {self.lesion_hu_range}, background_hu {self.background_hu}: not finite")


def _center_coords(shape, spacing):
    axes = [(np.arange(n) + 0.5) * s for n, s in zip(shape, spacing)]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def rasterize_ellipsoid(shape, spacing, center_mm, semi_axes_mm) -> np.ndarray:
    """Boolean mask of voxels whose centers lie inside the ellipsoid."""
    zz, yy, xx = _center_coords(shape, spacing)
    q = (
        ((zz - center_mm[0]) / semi_axes_mm[0]) ** 2
        + ((yy - center_mm[1]) / semi_axes_mm[1]) ** 2
        + ((xx - center_mm[2]) / semi_axes_mm[2]) ** 2
    )
    return q <= 1.0


def generate_phantom(spec: PhantomSpec) -> tuple[VolumeImage, SegMask, dict]:
    """Build one phantom; returns (image, mask, record).

    The record carries derived facts for manifests: lesion count, the
    solitary/scattered class tag, and the analytic lesion volume in ml.
    Identical specs (seed included) produce bit-identical volumes.
    """
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(int(spec.seed)))
    shape, spacing = spec.shape, spec.spacing_mm
    extent_mm = np.array([n * s for n, s in zip(shape, spacing)])
    brain_center = extent_mm / 2.0
    brain_semi = BRAIN_FRACTION * extent_mm / 2.0

    hu = np.full(shape, AIR_HU, dtype=np.float64)
    brain = rasterize_ellipsoid(shape, spacing, brain_center, brain_semi)
    hu[brain] = spec.background_hu

    mask = np.zeros(shape, dtype=np.uint8)
    count = int(rng.integers(spec.lesion_count_range[0], spec.lesion_count_range[1] + 1))
    analytic_ml = 0.0
    for _ in range(count):
        lo, hi = spec.semi_axes_mm_range
        for _attempt in range(1000):
            semi = rng.uniform(lo, hi, size=3)
            semi[0] = max(semi[0], spacing[0])  # keep at least one slice of depth support
            center = rng.uniform(brain_center - brain_semi, brain_center + brain_semi)
            # containment in brain-normalized space (brain = unit ball there):
            # every lesion point is within ||c'|| + max(s') of the origin
            c_norm = (center - brain_center) / brain_semi
            if np.linalg.norm(c_norm) + np.max(semi / brain_semi) <= 1.0:
                break
        else:
            raise PhantomError(
                f"no placement found for a lesion with semi-axes up to {hi} mm "
                f"inside a brain of semi-axes {np.round(brain_semi, 1)} mm"
            )
        intensity = rng.uniform(*spec.lesion_hu_range)
        lesion = rasterize_ellipsoid(shape, spacing, center, semi)
        hu[lesion] = intensity
        mask[lesion] = 1
        analytic_ml += 4.0 / 3.0 * np.pi * semi[0] * semi[1] * semi[2] / 1000.0

    if spec.noise_sigma_hu > 0:
        hu += rng.normal(0.0, spec.noise_sigma_hu, size=shape)

    record = {
        "lesion_count": count,
        "lesion_class": SOLITARY if count == 1 else SCATTERED,
        "analytic_lesion_ml": analytic_ml,
    }
    return VolumeImage(hu.astype(np.float32), spacing), SegMask(mask, spacing), record


def case_paths(directory, case_id: str) -> tuple[Path, Path]:
    d = Path(directory)
    return d / f"case_{case_id}_img.rvol", d / f"case_{case_id}_msk.rvol"


def case_ids(directory, kind: str) -> list[str]:
    """Sorted ids of the ``case_<id>_<kind>.rvol`` files in a directory, kind "img" or "msk"."""
    return sorted(p.name[len("case_") : -len(f"_{kind}.rvol")] for p in Path(directory).glob(f"case_*_{kind}.rvol"))


def generate_dataset(out_dir, count: int, seed: int, template: PhantomSpec) -> list[dict]:
    """Write ``count`` phantom pairs plus dataset.json; returns the case records."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cases = []
    for i in range(count):
        case_seed = int(np.random.SeedSequence([int(seed), i]).generate_state(1)[0])
        spec = replace(template, seed=case_seed)
        image, mask, record = generate_phantom(spec)
        case_id = f"{i:04d}"
        img_path, msk_path = case_paths(out, case_id)
        write_rvol(img_path, image)
        write_rvol(msk_path, mask)
        record.update({"case_id": case_id, "seed": case_seed})
        cases.append(record)
    listing = json.dumps({"count": count, "seed": int(seed), "cases": cases}, indent=2, sort_keys=True)
    write_file_atomic(out / "dataset.json", [listing.encode()])
    return cases


def list_cases(directory) -> list[str]:
    """Case ids present as full image/mask pairs, sorted."""
    return sorted(set(case_ids(directory, "img")) & set(case_ids(directory, "msk")))
