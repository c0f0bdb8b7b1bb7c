"""Hemorrhage volumetry: voxel counting and the bedside ABC/2 estimate.

Two estimators of bleed volume from a binary mask:

* voxel counting: foreground count times the physical voxel volume, and
* the ABC/2 rule: on the axial slice with the largest bleed area, A is the
  longest in-plane extent, B the widest extent perpendicular to A; C is the
  bleed depth (slices containing foreground times slice spacing).  The
  estimate is A*B*C/2, the standard simplification of the ellipsoid volume.

A and B are measured between foreground voxel centers in millimetres.  The
longest pair is searched, with numpy alone, among the points that are first
or last in their row and also in their column (no convex hull: any other
point lies strictly between two points of the set, so it ends no longest
pair); distances and tie-breaks match a brute-force scan exactly.  ABC/2 is
only reported for solitary lesions; scattered bleeds get no such estimate.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .volumes import SegMask

LESION_CLASSES = ("solitary", "scattered")  # ABC/2 is reported for the first only
SOLITARY, SCATTERED = LESION_CLASSES


@dataclass
class TadaMeasurement:
    """ABC/2 calipers: A, B on the maximal-area slice, C across slices."""

    a_mm: float
    b_mm: float
    c_mm: float
    slice_index: int

    def __post_init__(self):
        if not (self.a_mm >= self.b_mm > 0.0):
            raise ValueError(f"need A >= B > 0, got A={self.a_mm}, B={self.b_mm}")
        if self.c_mm <= 0.0:
            raise ValueError(f"need C > 0, got {self.c_mm}")


def voxel_volume_ml(mask: SegMask) -> float:
    """Foreground voxel count times voxel volume, in millilitres."""
    count = int(np.count_nonzero(mask.voxels))
    voxel_mm3 = float(np.prod(np.asarray(mask.spacing_mm, dtype=np.float64)))
    return count * voxel_mm3 / 1000.0


def _candidates(pts):
    """The points of ``pts`` (int, (m, 2)) that are first or last in their
    row and also first or last in their column, sorted by row, then column."""

    def ends(key, other):
        order = np.lexsort((other, key))
        k = key[order]
        change = k[1:] != k[:-1]
        out = np.empty(len(key), dtype=bool)
        out[order] = np.r_[True, change] | np.r_[change, True]
        return out

    cand = pts[ends(pts[:, 0], pts[:, 1]) & ends(pts[:, 1], pts[:, 0])]
    return cand[np.lexsort((cand[:, 1], cand[:, 0]))]


def slice_extremes(points_rc, spacing_rc):
    """Widest center-to-center pair on a slice: (distance_mm, index pair).

    The returned pair is the lexicographically smallest among maximizers,
    each pair itself sorted.  Matches an exhaustive scan bit for bit: the
    same subtract-scale-hypot arithmetic runs here, over all pairs of
    candidates at once.  The candidates are the points that are first or
    last in their row and also first or last in their column, at most
    2*min(rows, cols) of them.  Any other point p lies strictly between two
    points q1, q2 of its row or column; squared distance is strictly convex
    along that line, so for every x, |x - p| < max(|x - q1|, |x - q2|) and p
    ends no longest pair, tied ones included.  Anisotropic spacing scales
    the line but keeps p between q1 and q2.
    """
    pts = np.asarray(points_rc, dtype=np.int64)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    cand = _candidates(pts)
    fp = cand.astype(np.float64)
    sp = np.asarray(spacing_rc, dtype=np.float64)
    # dist[i, j] == dist[j, i] bit for bit: a - b == -(b - a) and hypot ignores signs.
    dist = np.hypot((fp[None, :, 0] - fp[:, None, 0]) * sp[0], (fp[None, :, 1] - fp[:, None, 1]) * sp[1])
    best = dist.max()
    # cand is sorted, so the first maximizer in row-major order has i <= j
    # and the smallest (cand[i], cand[j]).
    i, j = np.unravel_index(np.argmax(dist == best), dist.shape)
    pair = (int(cand[i, 0]), int(cand[i, 1])), (int(cand[j, 0]), int(cand[j, 1]))
    return float(best), pair


def _perpendicular_unit(a_pair, spacing_rc):
    (r0, c0), (r1, c1) = a_pair
    sp = np.asarray(spacing_rc, dtype=np.float64)
    d = np.array([(r1 - r0) * sp[0], (c1 - c0) * sp[1]])
    d /= np.hypot(d[0], d[1])
    return np.array([-d[1], d[0]])


def perpendicular_width(points_rc, spacing_rc, a_pair) -> float:
    """Extent of the point set projected onto the axis perpendicular to A."""
    sp = np.asarray(spacing_rc, dtype=np.float64)
    u = _perpendicular_unit(a_pair, spacing_rc)
    pts = np.asarray(points_rc, dtype=np.float64) * sp
    proj = pts[:, 0] * u[0] + pts[:, 1] * u[1]
    return float(proj.max() - proj.min())


def tada_measure(mask: SegMask) -> TadaMeasurement:
    """Measure A, B, C on a nonempty mask.

    Maximal-area slice ties resolve to the lowest index.  B is floored at
    the one-voxel footprint width along the perpendicular (a line of voxels
    is one voxel wide, not zero) and capped at A.
    """
    vox = mask.voxels
    per_slice = vox.reshape(vox.shape[0], -1).astype(np.int64).sum(axis=1)
    if per_slice.sum() == 0:
        raise ValueError("empty mask: nothing to measure")
    slice_index = int(np.argmax(per_slice))
    points = np.argwhere(vox[slice_index] > 0)
    in_plane = (float(mask.spacing_mm[1]), float(mask.spacing_mm[2]))
    if len(points) == 1:
        a = max(in_plane)
        b = min(in_plane)
    else:
        a, pair = slice_extremes(points, in_plane)
        u = _perpendicular_unit(pair, in_plane)
        voxel_support = abs(u[0]) * in_plane[0] + abs(u[1]) * in_plane[1]
        b = min(max(perpendicular_width(points, in_plane, pair), voxel_support), a)
    c = int((per_slice > 0).sum()) * float(mask.spacing_mm[0])
    return TadaMeasurement(a_mm=a, b_mm=b, c_mm=c, slice_index=slice_index)


def tada_volume_ml(m: TadaMeasurement) -> float:
    return m.a_mm * m.b_mm * m.c_mm / 2.0 / 1000.0


def volume_mae(predictions_ml, truths_ml) -> float:
    """Mean absolute volume error over paired cases, in millilitres."""
    p = np.asarray(predictions_ml, dtype=np.float64)
    t = np.asarray(truths_ml, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"need equally long 1-d lists, got {p.shape} and {t.shape}")
    if len(p) == 0:
        raise ValueError("need at least one case")
    return float(np.abs(p - t).mean())


@dataclass
class CaseVolumes:
    case_id: str
    lesion_class: str
    gt_volume_ml: float
    model_volume_ml: float
    model_abs_error_ml: float
    model_seconds: float | None
    tada_volume_ml: float | None
    tada_abs_error_ml: float | None
    tada_seconds: float | None


@dataclass
class VolumetryReport:
    cases: list[CaseVolumes]
    model_mae_ml: dict[str, float]
    tada_mae_ml: dict[str, float]

    def to_json(self) -> str:
        return json.dumps({**vars(self), "cases": [vars(c) for c in self.cases]}, indent=2, sort_keys=True)

    def to_text(self) -> str:
        """Aligned table: per-method volume MAE by lesion class plus timing."""

        def fmt(v, width=18, nd=3):
            return " " * (width - 1) + "-" if v is None else f"{v:>{width}.{nd}f}"

        classes = [*LESION_CLASSES, "all"]
        header = f"{'method':<18}" + "".join(f"{'mae_' + c + '_ml':>18}" for c in classes) + f"{'mean_seconds':>14}"
        lines = [header]
        for method, mae, secs in (
            ("voxel-count", self.model_mae_ml, [c.model_seconds for c in self.cases]),
            ("tada-abc2", self.tada_mae_ml, [c.tada_seconds for c in self.cases]),
        ):
            known = [s for s in secs if s is not None]
            mean_s = sum(known) / len(known) if known else None
            row = f"{method:<18}" + "".join(fmt(mae.get(c)) for c in classes) + fmt(mean_s, 14, 4)
            lines.append(row)
        return "\n".join(lines) + "\n"


def compare_methods(entries) -> VolumetryReport:
    """Per-case volume comparison feeding the method-versus-method table.

    entries: dicts with keys case_id, pred (SegMask), gt (SegMask),
    lesion_class ("solitary" | "scattered"), and optionally model_seconds
    (upstream segmentation wall time).  The ABC/2 column is measured on the
    ground-truth mask (the bedside method estimates the actual bleed) and
    only for solitary lesions; scattered cases keep an empty cell.
    """
    cases = []
    for e in entries:
        gt_ml = voxel_volume_ml(e["gt"])
        model_ml = voxel_volume_ml(e["pred"])
        tada_ml = tada_sec = tada_err = None
        if e["lesion_class"] == SOLITARY and e["gt"].voxels.any():
            t0 = time.perf_counter()
            tada_ml = tada_volume_ml(tada_measure(e["gt"]))
            tada_sec = time.perf_counter() - t0
            tada_err = abs(tada_ml - gt_ml)
        cases.append(
            CaseVolumes(
                case_id=str(e["case_id"]),
                lesion_class=e["lesion_class"],
                gt_volume_ml=gt_ml,
                model_volume_ml=model_ml,
                model_abs_error_ml=abs(model_ml - gt_ml),
                model_seconds=e.get("model_seconds"),
                tada_volume_ml=tada_ml,
                tada_abs_error_ml=tada_err,
                tada_seconds=tada_sec,
            )
        )

    groups = {cls: [c for c in cases if c.lesion_class == cls] for cls in LESION_CLASSES}
    groups["all"] = cases

    def maes(estimate) -> dict[str, float]:
        """volume_mae per group over the cases the method estimated; groups with none are left out."""
        pairs = {
            g: [(estimate(r), r.gt_volume_ml) for r in rows if estimate(r) is not None] for g, rows in groups.items()
        }
        return {g: volume_mae(*zip(*p)) for g, p in pairs.items() if p}

    return VolumetryReport(
        cases=cases,
        model_mae_ml=maes(lambda r: r.model_volume_ml),
        tada_mae_ml=maes(lambda r: r.tada_volume_ml),
    )
