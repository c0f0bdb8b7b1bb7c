"""Segmentation losses, their deep-supervision aggregation, and mask metrics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, clamp_min, div, log, mul, slice_channels

DICE_EPSILON = 1e-5  # smooths the Dice ratio; an empty target and prediction give loss 0


@dataclass
class LossReport:
    """total is the differentiable sum; per_level holds (level, dice, ce) floats."""

    total: Tensor
    per_level: list[tuple[int, float, float]]

    @property
    def total_value(self) -> float:
        return float(self.total.item())


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """[N,D,H,W] integer labels to [N,C,D,H,W] float32 indicator planes."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels outside [0, {num_classes}): found {labels.min()}..{labels.max()}")
    out = np.zeros((labels.shape[0], num_classes) + labels.shape[1:], dtype=np.float32)
    for c in range(num_classes):
        out[:, c] = labels == c
    return out


def downsample_labels(labels: np.ndarray, target_spatial: tuple[int, int, int]) -> np.ndarray:
    """Nearest-neighbor label downsampling by integer per-axis factors.

    Samples the corner voxel of each factor-sized cell, so solid regions
    stay solid up to one voxel of boundary movement per halving.
    """
    labels = np.asarray(labels)
    spatial = labels.shape[1:]
    factors = []
    for ax, (full, small) in enumerate(zip(spatial, target_spatial)):
        if small < 1 or full % small != 0:
            raise ShapeError(
                f"cannot downsample axis {ax} extent {full} to {small}: not an integer factor"
            )
        factors.append(full // small)
    fd, fh, fw = factors
    return labels[:, ::fd, ::fh, ::fw]


def dice_loss(prob: Tensor, target_onehot: np.ndarray) -> Tensor:
    """1 - (2*intersection + eps)/(sum p + sum g + eps) over the foreground channel, eps = ``DICE_EPSILON``.

    Sums run over the whole batch before the ratio (batch-Dice), which
    weights samples by their voxel counts rather than equally.
    """
    target = np.asarray(target_onehot)
    if prob.shape != target.shape:
        raise ShapeError(f"dice_loss: prob {prob.shape} vs target {target.shape}")
    p_fg = slice_channels(prob, 1, 2)
    g_fg = Tensor(np.ascontiguousarray(target[:, 1:2]).astype(prob.data.dtype))
    inter = mul(p_fg, g_fg).sum()
    denom = p_fg.sum() + float(g_fg.data.sum(dtype=np.float64))
    return 1.0 - div(inter * 2.0 + DICE_EPSILON, denom + DICE_EPSILON)


def ce_loss(prob: Tensor, target_index: np.ndarray) -> Tensor:
    """Mean negative log-probability of the labelled class, clamped at 1e-12."""
    labels = np.asarray(target_index)
    if labels.shape != (prob.shape[0],) + prob.shape[2:]:
        raise ShapeError(f"ce_loss: labels {labels.shape} vs prob {prob.shape}")
    picks = one_hot(labels, prob.shape[1]).astype(prob.data.dtype)
    picked = mul(log(clamp_min(prob, 1e-12)), Tensor(picks)).sum()
    return picked * (-1.0 / labels.size)


def deep_supervision_loss(outputs: dict, labels: np.ndarray) -> LossReport:
    """Dice + CE at the final head and every aux head, summed unweighted.

    Aux targets are nearest-neighbor downsamplings of the full-resolution
    labels to each head's shape.
    """
    labels = np.asarray(labels)
    entries = [(0, outputs["final"])] + list(outputs["aux"])
    total = None
    per_level = []
    for level, prob in entries:
        lab = labels if prob.shape[2:] == labels.shape[1:] else downsample_labels(labels, prob.shape[2:])
        d = dice_loss(prob, one_hot(lab, prob.shape[1]))
        c = ce_loss(prob, lab)
        s = d + c
        total = s if total is None else total + s
        per_level.append((level, float(d.item()), float(c.item())))
    return LossReport(total=total, per_level=per_level)


def confusion(pred_mask: np.ndarray, gt_mask: np.ndarray) -> ConfusionCounts:
    pred = np.asarray(pred_mask)
    gt = np.asarray(gt_mask)
    if pred.shape != gt.shape:
        raise ShapeError(f"confusion: {pred.shape} vs {gt.shape}")
    for name, m in (("pred", pred), ("gt", gt)):
        vals = np.unique(m)
        if not np.all(np.isin(vals, (0, 1))):
            raise ValueError(f"{name} mask is not binary: values {vals[:5]}")
    p = pred.astype(bool)
    g = gt.astype(bool)
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = int(np.count_nonzero(~p & ~g))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _ratio(num: int, den: int, both_empty: bool) -> float:
    if den == 0:
        return 1.0 if both_empty else 0.0
    return num / den


def metrics(counts: ConfusionCounts) -> dict:
    """dsc, iou, precision, recall as fractions; 0/0 is 1 only when both masks are empty."""
    both_empty = counts.tp + counts.fp == 0 and counts.tp + counts.fn == 0
    return {
        "dsc": _ratio(2 * counts.tp, 2 * counts.tp + counts.fp + counts.fn, both_empty),
        "iou": _ratio(counts.tp, counts.tp + counts.fp + counts.fn, both_empty),
        "precision": _ratio(counts.tp, counts.tp + counts.fp, both_empty),
        "recall": _ratio(counts.tp, counts.tp + counts.fn, both_empty),
    }
