"""Loss formulas against hand arithmetic and loop oracles."""
import numpy as np
import pytest

import oracles
from hemoseg.autodiff import ShapeError, Tensor
from hemoseg.losses import (
    ConfusionCounts,
    confusion,
    ce_loss,
    deep_supervision_loss,
    dice_loss,
    downsample_labels,
    metrics,
    one_hot,
)
from hemoseg.model import build_unet, toy_config

EPS = 1e-5


def random_prob(rng, shape):
    """A valid 2-class probability field with channels summing to 1."""
    p = rng.uniform(0.05, 0.95, size=(shape[0], 1) + shape[1:])
    return np.concatenate([1.0 - p, p], axis=1)


class TestDiceLoss:
    def test_perfect_overlap_near_zero(self, rng):
        labels = (rng.random((1, 5, 6, 6)) < 0.6).astype(np.int64)
        assert labels.sum() >= 100
        oh = one_hot(labels, 2)
        loss = dice_loss(Tensor(oh.astype(np.float64)), oh)
        assert loss.item() < 1e-4

    def test_zero_overlap_near_one(self):
        labels = np.zeros((1, 4, 4, 4), dtype=np.int64)
        labels[0, :2] = 1
        oh = one_hot(labels, 2)
        flipped = oh[:, ::-1]  # foreground prob exactly where target is background
        loss = dice_loss(Tensor(np.ascontiguousarray(flipped, dtype=np.float64)), oh)
        assert loss.item() >= 1.0 - 1e-4

    def test_uniform_half_hand_formula(self, rng):
        labels = (rng.random((2, 4, 4, 4)) < 0.3).astype(np.int64)
        n = labels.size
        k = int(labels.sum())
        prob = np.full((2, 2, 4, 4, 4), 0.5)
        loss = dice_loss(Tensor(prob), one_hot(labels, 2))
        assert loss.item() == pytest.approx(1.0 - (k + EPS) / (0.5 * n + k + EPS), rel=1e-6)

    def test_bounded_in_unit_interval(self, rng):
        for _ in range(10):
            shape = (2, 3, 4, 4)
            prob = random_prob(rng, shape)
            labels = (rng.random(shape) < rng.random()).astype(np.int64)
            v = dice_loss(Tensor(prob), one_hot(labels, 2)).item()
            assert 0.0 <= v <= 1.0

    def test_permutation_invariant(self, rng):
        shape = (1, 3, 4, 4)
        prob = random_prob(rng, shape)
        labels = (rng.random(shape) < 0.4).astype(np.int64)
        v1 = dice_loss(Tensor(prob), one_hot(labels, 2)).item()
        perm = rng.permutation(labels.size)
        prob_p = prob.reshape(2, -1)[:, perm].reshape(prob.shape)
        labels_p = labels.reshape(-1)[perm].reshape(labels.shape)
        v2 = dice_loss(Tensor(prob_p), one_hot(labels_p, 2)).item()
        assert v1 == pytest.approx(v2, rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dice_loss(Tensor(np.zeros((1, 2, 2, 2, 2))), np.zeros((1, 2, 2, 2, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        labels = (rng.random((1, 2, 3, 3)) < 0.4).astype(np.int64)
        oh = one_hot(labels, 2)
        prob = rng.uniform(0.1, 0.9, size=(1, 2, 2, 3, 3))

        def build(leaves):
            return dice_loss(leaves[0], oh)

        oracles.gradcheck(build, [prob], rtol=1e-3, atol=1e-7)


class TestCeLoss:
    def test_perfect_prediction_zero(self):
        labels = np.array([[[[0, 1]]]], dtype=np.int64)
        prob = one_hot(labels, 2).astype(np.float64)
        assert ce_loss(Tensor(prob), labels).item() == 0.0

    def test_uniform_is_ln2(self):
        labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
        prob = np.full((1, 2, 2, 2, 2), 0.5)
        assert ce_loss(Tensor(prob), labels).item() == pytest.approx(np.log(2), rel=1e-6)

    def test_matches_scalar_loop(self, rng):
        shape = (2, 3, 3, 3)
        prob = random_prob(rng, shape)
        labels = (rng.random(shape) < 0.5).astype(np.int64)
        got = ce_loss(Tensor(prob), labels).item()
        acc = 0.0
        for n in range(shape[0]):
            for d in range(shape[1]):
                for h in range(shape[2]):
                    for w in range(shape[3]):
                        acc -= np.log(max(prob[n, labels[n, d, h, w], d, h, w], 1e-12))
        assert got == pytest.approx(acc / labels.size, rel=1e-6)

    def test_label_out_of_range(self):
        prob = np.full((1, 2, 1, 1, 1), 0.5)
        with pytest.raises(ValueError):
            ce_loss(Tensor(prob), np.array([[[[2]]]], dtype=np.int64))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(67)
        labels = (rng.random((1, 2, 2, 2)) < 0.5).astype(np.int64)
        prob = rng.uniform(0.1, 0.9, size=(1, 2, 2, 2, 2))

        def build(leaves):
            return ce_loss(leaves[0], labels)

        oracles.gradcheck(build, [prob], rtol=1e-3, atol=1e-7)


class TestDeepSupervision:
    def test_no_aux_degenerates_to_final_loss(self, rng):
        shape = (1, 2, 4, 4)
        prob = random_prob(rng, shape)
        labels = (rng.random(shape) < 0.4).astype(np.int64)
        report = deep_supervision_loss({"final": Tensor(prob), "aux": []}, labels)
        d = dice_loss(Tensor(prob), one_hot(labels, 2)).item()
        c = ce_loss(Tensor(prob), labels).item()
        assert len(report.per_level) == 1
        assert report.total_value == pytest.approx(d + c, rel=1e-6)

    def test_total_is_unweighted_sum(self, rng):
        labels = (rng.random((1, 4, 8, 8)) < 0.3).astype(np.int64)
        outputs = {
            "final": Tensor(random_prob(rng, (1, 4, 8, 8))),
            "aux": [
                (1, Tensor(random_prob(rng, (1, 4, 4, 4)))),
                (2, Tensor(random_prob(rng, (1, 2, 2, 2)))),
            ],
        }
        report = deep_supervision_loss(outputs, labels)
        assert [l for l, _, _ in report.per_level] == [0, 1, 2]
        assert report.total_value == pytest.approx(
            sum(d + c for _, d, c in report.per_level), rel=1e-6
        )

    def test_aux_shape_must_divide_labels(self, rng):
        labels = np.zeros((1, 4, 9, 9), dtype=np.int64)
        outputs = {
            "final": Tensor(random_prob(rng, (1, 4, 9, 9))),
            "aux": [(1, Tensor(random_prob(rng, (1, 2, 4, 4))))],
        }
        with pytest.raises(ShapeError):
            deep_supervision_loss(outputs, labels)

    def test_backward_reaches_all_heads(self, rng):
        net = build_unet(toy_config(), seed=3)
        x = Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32))
        labels = (rng.random((1, 8, 32, 32)) < 0.2).astype(np.int64)
        report = deep_supervision_loss(net(x), labels)
        report.total.backward()
        missing = [n for n, p in net.named_parameters() if p.grad is None]
        assert missing == []

    def test_solid_cube_stays_solid_after_downsampling(self):
        labels = np.zeros((1, 8, 8, 8), dtype=np.int64)
        labels[0, 2:6, 2:6, 2:6] = 1
        small = downsample_labels(labels, (4, 4, 4))[0]
        idx = np.argwhere(small)
        lo, hi = idx.min(axis=0), idx.max(axis=0) + 1
        assert np.all(small[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] == 1)
        assert small.sum() == np.prod(hi - lo)


class TestConfusionAndMetrics:
    def test_counts_partition_volume(self, rng):
        pred = (rng.random((4, 5, 5)) < 0.5).astype(np.uint8)
        gt = (rng.random((4, 5, 5)) < 0.5).astype(np.uint8)
        c = confusion(pred, gt)
        assert c.total == pred.size

    def test_hand_counts(self):
        pred = np.array([[[1, 1, 0, 0]]], dtype=np.uint8)
        gt = np.array([[[1, 0, 1, 0]]], dtype=np.uint8)
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            confusion(np.array([[[2]]]), np.array([[[1]]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            confusion(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))

    def test_identical_masks_score_one(self, rng):
        m = (rng.random((3, 4, 4)) < 0.4).astype(np.uint8)
        vals = metrics(confusion(m, m))
        assert vals == {"dsc": 1.0, "iou": 1.0, "precision": 1.0, "recall": 1.0}

    def test_empty_pred_nonempty_gt(self):
        gt = np.zeros((2, 3, 3), dtype=np.uint8)
        gt[0, 0, 0] = 1
        vals = metrics(confusion(np.zeros_like(gt), gt))
        assert vals["dsc"] == 0.0 and vals["recall"] == 0.0
        assert vals["precision"] == 0.0 and vals["iou"] == 0.0

    def test_both_empty_score_one(self):
        z = np.zeros((2, 2, 2), dtype=np.uint8)
        assert metrics(confusion(z, z)) == {"dsc": 1.0, "iou": 1.0, "precision": 1.0, "recall": 1.0}

    def test_dilated_cube_matches_voxel_loop(self):
        gt = np.zeros((10, 10, 10), dtype=np.uint8)
        gt[3:7, 3:7, 3:7] = 1
        pred = np.zeros_like(gt)
        pred[2:8, 2:8, 2:8] = 1
        tp = fp = fn = tn = 0
        for d in range(10):
            for h in range(10):
                for w in range(10):
                    if pred[d, h, w] and gt[d, h, w]:
                        tp += 1
                    elif pred[d, h, w]:
                        fp += 1
                    elif gt[d, h, w]:
                        fn += 1
                    else:
                        tn += 1
        got = metrics(confusion(pred, gt))
        assert got["dsc"] == 2 * tp / (2 * tp + fp + fn)
        assert got["iou"] == tp / (tp + fp + fn)
        assert got["precision"] == tp / (tp + fp)
        assert got["recall"] == tp / (tp + fn)

    def test_swapping_masks_swaps_precision_recall(self, rng):
        pred = (rng.random((3, 5, 5)) < 0.4).astype(np.uint8)
        gt = (rng.random((3, 5, 5)) < 0.4).astype(np.uint8)
        a = metrics(confusion(pred, gt))
        b = metrics(confusion(gt, pred))
        assert a["precision"] == b["recall"] and a["recall"] == b["precision"]
        assert a["dsc"] == b["dsc"] and a["iou"] == b["iou"]

    def test_dice_loss_agrees_with_direct_formula(self, rng):
        shape = (1, 3, 4, 4)
        prob = random_prob(rng, shape)
        labels = (rng.random(shape) < 0.4).astype(np.int64)
        got = dice_loss(Tensor(prob), one_hot(labels, 2)).item()
        want = oracles.dice_loss_direct(prob[:, 1], labels.astype(float), EPS)
        assert got == pytest.approx(want, rel=1e-6)
