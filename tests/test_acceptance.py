"""Package-level acceptance suite.

Each test here is one promised property of the pipeline, checked at its
stated tolerance; run with -v to get one pass/fail line per property.
The trained-cascade fixture is session-scoped because two tests share it
and training dominates the runtime.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    conv3d_grad_loops,
    conv3d_grad_windows,
    conv3d_loops,
    conv3d_windows,
    conv_then_batch_norm_eval,
    gradcheck,
    tada_b_scan,
    tada_extremes_scan,
)
from test_volumetry import ellipsoid_mask

from hemoseg import autodiff as ad
from hemoseg.autodiff import BatchNormStats, Tensor
from hemoseg.augment import AugmentPolicy, augment, hu_window, zscore_normalize
from hemoseg.inference import decompose, recompose_average, sliding_window_predict, timed_predict
from hemoseg.losses import ce_loss, confusion, deep_supervision_loss, dice_loss, metrics, one_hot
from hemoseg.model import UNet3DConfig, build_unet, fullres_config, shape_trace, toy_cascade_config, toy_config
from hemoseg.optim import AdamW, CosineWarmRestarts
from hemoseg.phantoms import PhantomSpec, generate_phantom
from hemoseg.training import (
    TrainConfig,
    load_checkpoint,
    load_stage_checkpoint,
    overfit_fixed_batch,
    save_checkpoint,
    train_cascade,
)
from hemoseg.volumes import SegMask, VolumeImage, read_rvol, write_rvol
from hemoseg.volumetry import compare_methods, tada_measure, tada_volume_ml, volume_mae, voxel_volume_ml

GRAD_SEEDS = 20
# Denser stage-1 overlap for localization: per-patch normalization means
# isolated false-positive specks rarely agree across window alignments, so
# averaging keeps the ROI box tight around the real lesions.
EVAL_STRIDE = (4, 8, 8)


# ---------------------------------------------------------------------------
# shared heavyweight fixture: one trained toy cascade


@pytest.fixture(scope="session")
def trained_cascade(tmp_path_factory):
    """Train the toy cascade on 8 phantoms; keep 4 held out.

    The stage-2 input shape preserves the full slice count so the crop's
    5 mm inter-slice axis is never resampled; only the in-plane axes are.
    """
    t0 = time.perf_counter()
    spec = PhantomSpec()
    cases = [generate_phantom(replace(spec, seed=100 + i)) for i in range(12)]
    train = [(img, msk) for img, msk, _ in cases[:8]]
    held = [(img, msk) for img, msk, _ in cases[8:]]
    ccfg = toy_cascade_config()
    cfg = TrainConfig(
        epochs=10,
        steps_per_epoch=120,
        seed=0,
        checkpoint_path=str(tmp_path_factory.mktemp("acc_cascade") / "run.hsck"),
    )
    p1, p2 = train_cascade(train, ccfg, cfg)
    stage1, _, _ = load_stage_checkpoint(p1)
    stage2, _, _ = load_stage_checkpoint(p2)
    return {
        "stage1": stage1,
        "stage2": stage2,
        "ccfg": ccfg,
        "held": held,
        "setup_seconds": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# gradients


def _central_diff_at(f, arr, flat_index, eps=1e-5):
    flat = arr.reshape(-1)
    orig = flat[flat_index]
    flat[flat_index] = orig + eps
    fp = f()
    flat[flat_index] = orig - eps
    fm = f()
    flat[flat_index] = orig
    return (fp - fm) / (2 * eps)


def _op_suite(seed):
    """Finite-difference check of each differentiable op in isolation."""
    rng = np.random.default_rng(seed)

    def away_from(kink, shape, gap=0.15):
        x = rng.uniform(gap, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        return x + kink

    a = rng.standard_normal((3, 4))
    b = rng.uniform(0.7, 1.5, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
    gradcheck(lambda l: (l[0] + l[1]).sum(), [a, b], rtol=1e-3, atol=1e-8)
    gradcheck(lambda l: (l[0] * l[1]).sum(), [a, b], rtol=1e-3, atol=1e-8)
    gradcheck(lambda l: (l[0] / l[1]).sum(), [a, b], rtol=1e-3, atol=1e-8)
    gradcheck(lambda l: ((l[0] * 2.5 + 1.25) - l[0] * 0.5).mean(), [a], rtol=1e-3, atol=1e-8)
    gradcheck(lambda l: ad.relu(l[0]).sum(), [away_from(0.0, (4, 5))], rtol=1e-3, atol=1e-8)
    gradcheck(lambda l: ad.log(l[0]).sum(), [rng.uniform(0.5, 2.0, size=(4, 5))], rtol=1e-3, atol=1e-8)
    gradcheck(lambda l: ad.clamp_min(l[0], 0.3).sum(), [away_from(0.3, (4, 5))], rtol=1e-3, atol=1e-8)

    p, q = rng.standard_normal((1, 2, 2, 3, 3)), rng.standard_normal((1, 1, 2, 3, 3))
    w5 = rng.standard_normal((1, 3, 2, 3, 3))
    gradcheck(
        lambda l: (ad.slice_channels(ad.concat_channels(l[0], l[1]), 1, 3) * Tensor(w5[:, :2])).sum(),
        [p, q],
        rtol=1e-3,
        atol=1e-8,
    )
    gradcheck(lambda l: (ad.softmax_channels(l[0]) * Tensor(w5)).sum(), [rng.standard_normal((1, 3, 2, 3, 3))],
              rtol=1e-3, atol=1e-8)

    x = rng.standard_normal((1, 2, 3, 5, 5))
    w = rng.standard_normal((2, 2, 3, 3, 3))
    bias = rng.standard_normal((2,))
    gradcheck(lambda l: ad.conv3d(l[0], l[1], l[2], (1, 1, 1), (1, 1, 1)).sum(), [x, w, bias],
              rtol=1e-3, atol=1e-8)
    gradcheck(lambda l: ad.conv3d(l[0], l[1], l[2], (1, 2, 2), (1, 1, 1)).sum(), [x, w, bias],
              rtol=1e-3, atol=1e-8)
    x_even = rng.standard_normal((1, 2, 3, 4, 4))
    gradcheck(lambda l: ad.conv3d_strided_down(l[0], l[1], l[2], (1, 2, 2)).sum(), [x_even, w, bias],
              rtol=1e-3, atol=1e-8)

    up_w = rng.standard_normal((1, 2, 2, 6, 6))
    gradcheck(lambda l: (ad.upsample_trilinear(l[0], (1, 2, 2)) * Tensor(up_w)).sum(),
              [rng.standard_normal((1, 2, 2, 3, 3))], rtol=1e-3, atol=1e-8)

    bn_x = rng.standard_normal((2, 2, 2, 3, 3))
    bn_w = rng.standard_normal((2, 2, 2, 3, 3))
    gamma, beta = rng.uniform(0.5, 1.5, size=2), rng.standard_normal((2,))
    gradcheck(
        lambda l: (ad.batch_norm3d(l[0], l[1], l[2], BatchNormStats(2, np.float64)) * Tensor(bn_w)).sum(),
        [bn_x, gamma, beta],
        rtol=1e-3,
        atol=1e-8,
    )

    logits = rng.standard_normal((1, 2, 2, 4, 4))
    labels = (rng.random((1, 2, 4, 4)) < 0.4).astype(np.int64)
    onehot = one_hot(labels, 2)
    gradcheck(lambda l: dice_loss(ad.softmax_channels(l[0]), onehot), [logits], rtol=1e-3, atol=1e-8)
    gradcheck(lambda l: ce_loss(ad.softmax_channels(l[0]), labels), [logits], rtol=1e-3, atol=1e-8)


def _composed_network_fd(seed):
    """Spot-check the full network's analytic gradients against central FD.

    Central differences only measure a derivative where the loss is locally
    smooth; a coordinate whose +-eps interval crosses a relu threshold
    (common for batch-norm scales, where one scalar shifts a whole channel)
    yields an estimate that depends on the step size.  Each sampled index is
    therefore screened by comparing two step sizes, purely from numeric
    values, and non-smooth points are resampled rather than compared.
    """
    rng = np.random.default_rng(seed)
    model = build_unet(toy_config(), seed=seed)
    for _, par in model.named_parameters():
        par.data = par.data.astype(np.float64)
    model.train()
    x = rng.standard_normal((1, 1, 8, 32, 32))
    labels = (rng.random((1, 8, 32, 32)) < 0.3).astype(np.int64)

    xt = Tensor(x, requires_grad=True)
    report = deep_supervision_loss(model(xt), labels)
    report.total.backward()

    def loss_value():
        return deep_supervision_loss(model(Tensor(x)), labels).total_value

    def check_tensor(label, arr, grad):
        accepted = 0
        worst = 0.0
        for flat in rng.integers(0, arr.size, size=8):
            d1 = _central_diff_at(loss_value, arr, int(flat), eps=1e-5)
            d2 = _central_diff_at(loss_value, arr, int(flat), eps=5e-6)
            if abs(d1 - d2) > 1e-4 * max(abs(d1), abs(d2), 1e-3):
                continue  # relu kink inside the stencil, unmeasurable point
            ana = grad.reshape(-1)[int(flat)]
            worst = max(worst, abs(ana - d2) / max(abs(d2), abs(ana), 1e-6))
            accepted += 1
            if accepted == 2:
                break
        assert accepted >= 1, f"no smooth sample point found in {label}"
        return worst

    params = dict(model.named_parameters())
    worst = 0.0
    for name in rng.choice(sorted(params), size=3, replace=False):
        par = params[name]
        worst = max(worst, check_tensor(name, par.data, par.grad))
    worst = max(worst, check_tensor("input", x, xt.grad))
    return worst


def test_gradients_match_finite_differences_for_all_ops_and_network():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(GRAD_SEEDS):
        _op_suite(seed)
        worst = max(worst, _composed_network_fd(seed))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-3, f"worst composed-network relative error {worst:g}"
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# shapes and convolution


def test_encoder_shape_trace_reaches_4x5x5_bottleneck():
    trace = shape_trace(fullres_config())
    assert trace[0] == (16, 320, 320)
    assert trace[-1] == (4, 5, 5)


def test_conv3d_matches_loop_oracle_on_fifty_shapes():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        spatial = tuple(int(rng.integers(3, 7)) for _ in range(3))
        stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
        padding = tuple(int(rng.integers(0, 2)) for _ in range(3))
        kernel = tuple(int(rng.integers(1, min(4, s + 2 * p) + 1)) for s, p in zip(spatial, padding))
        x = rng.standard_normal((n, cin) + spatial)
        w = rng.standard_normal((cout, cin) + kernel)
        b = rng.standard_normal((cout,))
        got = ad.conv3d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
        want = conv3d_loops(x, w, b, stride, padding)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-6)
        assert rel.max() <= 1e-5, f"conv mismatch {rel.max():g} on x{x.shape} w{w.shape} s{stride} p{padding}"


def test_conv3d_gradients_match_loop_oracle_on_fifty_shapes():
    rng = np.random.default_rng(78)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        spatial = tuple(int(rng.integers(3, 7)) for _ in range(3))
        stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
        padding = tuple(int(rng.integers(0, 2)) for _ in range(3))
        kernel = tuple(int(rng.integers(1, min(3, s + 2 * p) + 1)) for s, p in zip(spatial, padding))
        x = Tensor(rng.standard_normal((n, cin) + spatial), requires_grad=True)
        w = Tensor(rng.standard_normal((cout, cin) + kernel), requires_grad=True)
        b = Tensor(rng.standard_normal((cout,)), requires_grad=True)
        out = ad.conv3d(x, w, b, stride, padding)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        wants = conv3d_grad_loops(x.data, w.data, g, stride, padding)
        for name, got, want in zip(("input", "weight", "bias"), (x.grad, w.grad, b.grad), wants):
            assert got.shape == want.shape
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-6)
            assert rel.max() <= 1e-5, (
                f"conv {name} gradient mismatch {rel.max():g} on x{x.shape} w{w.shape} s{stride} p{padding}"
            )


def _toy_cascade_conv_calls(monkeypatch):
    """Every distinct conv3d call of the toy cascade, as (input shape, weight
    shape, stride, padding): train forwards at batch 2 and eval forwards at
    batch 1, with the stage-1 and the stage-2 patch shape."""
    calls = {}
    real = ad.conv3d

    def record(x, weight, bias=None, stride=(1, 1, 1), padding=(0, 0, 0)):
        calls[(x.shape, weight.shape, tuple(stride), tuple(padding))] = None
        return real(x, weight, bias, stride, padding)

    monkeypatch.setattr(ad, "conv3d", record)
    rng = np.random.default_rng(80)
    ccfg = toy_cascade_config()
    for cfg in (ccfg.stage1, ccfg.stage2):
        model = build_unet(cfg, seed=0)
        model(Tensor(rng.standard_normal((2, 1) + cfg.input_patch_shape).astype(np.float32)))
        model.eval()(Tensor(rng.standard_normal((1, 1) + cfg.input_patch_shape).astype(np.float32)))
    monkeypatch.undo()
    return list(calls)


def test_conv3d_matches_window_oracle_on_toy_cascade_shapes(monkeypatch):
    rng = np.random.default_rng(79)
    for _ in range(5):  # the window oracle itself against the loop oracle
        x = rng.standard_normal((2, 2, 4, 5, 6))
        w = rng.standard_normal((3, 2, 3, 2, 3))
        b = rng.standard_normal(3)
        stride = tuple(int(v) for v in rng.integers(1, 3, size=3))
        np.testing.assert_allclose(conv3d_windows(x, w, b, stride, (1, 0, 1)),
                                   conv3d_loops(x, w, b, stride, (1, 0, 1)), rtol=1e-12, atol=1e-12)
        g = rng.standard_normal(conv3d_loops(x, w, b, stride, (1, 0, 1)).shape)
        for got, want in zip(conv3d_grad_windows(x, w, g, stride, (1, 0, 1)),
                             conv3d_grad_loops(x, w, g, stride, (1, 0, 1))):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    calls = _toy_cascade_conv_calls(monkeypatch)
    assert {xs[0] for xs, *_ in calls} == {1, 2}
    assert {xs[2:] for xs, *_ in calls} >= {(8, 32, 32), (16, 32, 32)}
    assert min(xs[1] for xs, *_ in calls) == 1 and max(xs[1] for xs, *_ in calls) == 32
    assert {stride for _, _, stride, _ in calls} == {(1, 1, 1), (1, 2, 2), (2, 2, 2)}
    pointwise = {stride for _, ws, stride, _ in calls if ws[2:] == (1, 1, 1)}
    assert pointwise == {(1, 1, 1), (1, 2, 2), (2, 2, 2)}
    for xs, ws, stride, padding in calls:
        x = Tensor(rng.standard_normal(xs), requires_grad=True)
        w = Tensor(rng.standard_normal(ws), requires_grad=True)
        b = Tensor(rng.standard_normal(ws[0]), requires_grad=True)
        out = ad.conv3d(x, w, b, stride, padding)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        wants = (conv3d_windows(x.data, w.data, b.data, stride, padding),) + conv3d_grad_windows(
            x.data, w.data, g, stride, padding
        )
        for name, got, want in zip(("output", "input gradient", "weight gradient", "bias gradient"),
                                   (out.data, x.grad, w.grad, b.grad), wants):
            assert got.shape == want.shape
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-6)
            assert rel.max() <= 1e-5, f"conv {name} mismatch {rel.max():g} on x{xs} w{ws} s{stride} p{padding}"


# ---------------------------------------------------------------------------
# training behavior


def _fixed_overfit_batch():
    spec = PhantomSpec()
    img, msk, _ = generate_phantom(replace(spec, seed=500))
    policy = AugmentPolicy.disabled((8, 32, 32))
    policy.fg_bias_prob = 1.0
    rng = np.random.default_rng(9)
    xs, ys = [], []
    for _ in range(2):
        xi, yi = augment(hu_window(img).voxels.astype(np.float64), msk.voxels, rng, policy)
        xs.append(zscore_normalize(xi))
        ys.append(yi.astype(np.int64))
    return np.stack(xs)[:, None], np.stack(ys)


def test_overfit_single_batch_reaches_low_dice_deterministically():
    t0 = time.perf_counter()
    x, y = _fixed_overfit_batch()
    model = build_unet(toy_config(), seed=7)
    history = overfit_fixed_batch(model, x, y, steps=300, lr=1e-2)
    final_dice = [d for level, d, _ in history[-1].per_level if level == 0][0]
    assert final_dice < 0.1, f"final full-resolution dice loss {final_dice:.4f}"

    rerun = build_unet(toy_config(), seed=7)
    history2 = overfit_fixed_batch(rerun, x, y, steps=300, lr=1e-2)
    assert [r.total_value for r in history] == [r.total_value for r in history2]
    for (name, p), (_, q) in zip(model.named_parameters(), rerun.named_parameters()):
        assert np.array_equal(p.data, q.data), f"weights diverged at {name}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"overfit check took {elapsed:.0f}s"


def test_scheduler_and_optimizer_hand_checks():
    sched = CosineWarmRestarts(eta_max=1e-2, eta_min=1e-5, t_0=10, t_mult=2)
    assert sched.lr_at(0.0) == 1e-2
    assert sched.restart_times(70) == [10, 30, 70]

    p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    p.grad = np.array([1.0], dtype=np.float64)
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
    opt.step()
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    assert abs(float(p.data[0]) - expected) <= 1e-10


# ---------------------------------------------------------------------------
# cascade end to end


def _mean_dsc(pairs, stage1, stage2=None, ccfg=None):
    vals = []
    for img, msk in pairs:
        mask, _, _ = timed_predict(img, stage1, stage2, ccfg, stride=EVAL_STRIDE)
        vals.append(metrics(confusion(mask.voxels, msk.voxels))["dsc"])
    return float(np.mean(vals)), vals


@pytest.mark.slow
def test_cascade_beats_bar_and_single_stage_on_held_out_phantoms(trained_cascade):
    t0 = time.perf_counter()
    tc = trained_cascade
    single_mean, single = _mean_dsc(tc["held"], tc["stage1"])
    cascade_mean, cascade = _mean_dsc(tc["held"], tc["stage1"], tc["stage2"], tc["ccfg"])
    elapsed = tc["setup_seconds"] + (time.perf_counter() - t0)
    assert cascade_mean >= 0.80, f"cascade mean DSC {cascade_mean:.4f} (per case {cascade})"
    assert cascade_mean >= single_mean - 0.01, (
        f"cascade mean DSC {cascade_mean:.4f} degraded vs single-stage {single_mean:.4f}"
    )
    assert elapsed < 1200, f"cascade train+eval took {elapsed:.0f}s"


@pytest.mark.slow
def test_folded_eval_forward_matches_unfolded_on_held_out_phantoms(trained_cascade, monkeypatch):
    from hemoseg import model

    tc = trained_cascade

    def run():
        out = []
        for img, _ in tc["held"]:
            probs = sliding_window_predict(tc["stage1"], img, stride=EVAL_STRIDE)
            mask, _, _ = timed_predict(img, tc["stage1"], tc["stage2"], tc["ccfg"], stride=EVAL_STRIDE)
            out.append((probs, mask.voxels))
        return out

    folded = run()
    # every conv followed by the eval batch-norm oracle, unfolded
    monkeypatch.setattr(model, "_conv_bn", conv_then_batch_norm_eval)
    for (probs, mask), (want_probs, want_mask) in zip(folded, run()):
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(mask, want_mask)


# ---------------------------------------------------------------------------
# sliding-window invariants


class _ProbeModel:
    """Minimal model stand-in: probabilities from a fixed function of input."""

    def __init__(self, patch_shape, fn):
        self.config = UNet3DConfig(
            levels=1,
            channels_per_level=(4,),
            downsample_factors_per_level=((1, 1, 1),),
            input_patch_shape=tuple(patch_shape),
        )
        self.fn = fn

    def eval(self):
        return self

    def __call__(self, t):
        fg = self.fn(t.data[:, 0])
        return {"final": Tensor(np.stack([1.0 - fg, fg], axis=1)), "aux": []}


def test_sliding_window_recomposition_invariants():
    # constant predictor: overlap averaging must be exactly seam-free
    const = _ProbeModel((4, 8, 8), lambda x: np.full_like(x, 0.75))
    image = VolumeImage(np.zeros((6, 20, 20), dtype=np.float32), (5.0, 1.0, 1.0))
    probs = sliding_window_predict(const, image)
    assert np.all(probs[1] == 0.75) and np.all(probs[0] == 0.25)

    # coordinate-function predictor: recomposition equals direct evaluation
    window, stride = (4, 8, 8), (2, 4, 4)
    shape = (6, 20, 20)
    grid = decompose(shape, window, stride)
    d, h, w = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in shape], indexing="ij")
    field = 0.0078125 * d + 0.001953125 * h + 0.0009765625 * w + 0.0625
    patches = []
    for origin in grid.origins:
        sl = tuple(slice(o, o + w) for o, w in zip(origin, window))
        fg = field[sl]
        patches.append(np.stack([1.0 - fg, fg]))
    recomposed = recompose_average(patches, grid, 2)
    assert np.array_equal(recomposed[1], field)


# ---------------------------------------------------------------------------
# volumetry


def test_volumetry_oracles_ellipsoid_and_scan():
    # voxel counting on a rasterized ellipsoid vs the analytic volume, 1 mm grid
    mask = ellipsoid_mask((10.0, 15.0, 20.0), (1.0, 1.0, 1.0))
    analytic_ml = 4.0 / 3.0 * np.pi * 10.0 * 15.0 * 20.0 / 1000.0
    assert abs(voxel_volume_ml(mask) - analytic_ml) / analytic_ml <= 0.02

    # bedside formula extremes equal the exhaustive pairwise scan, bit for bit
    rng = np.random.default_rng(41)
    for trial in range(10):
        raw = np.unique(rng.integers(0, 18, size=(30, 2)), axis=0)
        if len(raw) < 2:
            continue
        spacing = (0.7, 1.3) if trial % 2 else (1.0, 1.0)
        vox = np.zeros((1, 18, 18), dtype=np.uint8)
        vox[0, raw[:, 0], raw[:, 1]] = 1
        pts = np.argwhere(vox[0] > 0)
        m = tada_measure(SegMask(vox, (5.0,) + spacing))
        a_scan, pair = tada_extremes_scan(pts, spacing)
        assert m.a_mm == a_scan
        assert m.b_mm == tada_b_scan(pts, spacing, pair)

    # the classic 40 x 30 x 20 mm ellipsoid: ABC/2 lands on 12.0 ml, under
    # the analytic 12.566 ml by about 4.5 percent
    fine = ellipsoid_mask((10.0, 20.0, 15.0), (0.25, 0.25, 0.25))
    tada_ml = tada_volume_ml(tada_measure(fine))
    assert abs(tada_ml - 12.0) / 12.0 <= 0.01
    assert tada_ml < voxel_volume_ml(fine)


def test_volume_mae_hand_value_exact():
    assert volume_mae([10.0, 5.0], [8.0, 9.0]) == 3.0


@pytest.mark.slow
def test_model_volume_error_beats_bedside_formula(trained_cascade):
    tc = trained_cascade
    spec = PhantomSpec(lesion_count_range=(1, 1))
    entries = []
    dscs = []
    for i in range(20):
        img, msk, info = generate_phantom(replace(spec, seed=300 + i))
        assert info["lesion_class"] == "solitary"
        pred, seconds, _ = timed_predict(img, tc["stage1"], tc["stage2"], tc["ccfg"], stride=EVAL_STRIDE)
        dscs.append(metrics(confusion(pred.voxels, msk.voxels))["dsc"])
        entries.append({
            "case_id": f"{i:04d}",
            "pred": pred,
            "gt": msk,
            "lesion_class": "solitary",
            "model_seconds": seconds,
        })
    mean_dsc = float(np.mean(dscs))
    assert mean_dsc >= 0.9, f"trained model mean DSC {mean_dsc:.4f} below the 0.9 gate"
    report = compare_methods(entries)
    model_mae = report.model_mae_ml["all"]
    tada_mae = report.tada_mae_ml["all"]
    assert model_mae < tada_mae, f"model MAE {model_mae:.3f} ml vs bedside-formula MAE {tada_mae:.3f} ml"


# ---------------------------------------------------------------------------
# file formats


def test_file_formats_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    image = VolumeImage(rng.normal(40, 10, size=(4, 6, 6)).astype(np.float32), (5.0, 0.5, 0.5))
    mask = SegMask((rng.random((4, 6, 6)) < 0.3).astype(np.uint8), (5.0, 0.5, 0.5))
    for name, vol in (("img.rvol", image), ("msk.rvol", mask)):
        first = tmp_path / name
        write_rvol(first, vol)
        again = tmp_path / ("again_" + name)
        write_rvol(again, read_rvol(first))
        assert first.read_bytes() == again.read_bytes()

    arrays = {
        "w": rng.standard_normal((3, 2)).astype(np.float32),
        "step": np.array(17, dtype=np.int64),
        "mask": (rng.random(5) < 0.5).astype(np.uint8),
    }
    meta = {"note": "roundtrip", "lr": 1e-2}
    first = tmp_path / "a.hsck"
    save_checkpoint(first, arrays, meta)
    loaded, meta2 = load_checkpoint(first)
    again = tmp_path / "b.hsck"
    save_checkpoint(again, loaded, meta2)
    assert first.read_bytes() == again.read_bytes()
