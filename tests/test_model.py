"""Network construction, shape arithmetic, and forward-pass behaviour."""
import sys
import threading

import numpy as np
import pytest

import oracles
from hemoseg import autodiff as ad
from hemoseg import model
from hemoseg.autodiff import ShapeError, Tensor, mul
from hemoseg.inference import sliding_window_predict
from hemoseg.model import (
    CascadeConfig,
    ConfigError,
    UNet3DConfig,
    build_unet,
    fullres_config,
    shape_trace,
    toy_cascade_config,
    toy_config,
)
from hemoseg.volumes import VolumeImage


def levels1_config():
    return UNet3DConfig(
        levels=1,
        channels_per_level=(8,),
        downsample_factors_per_level=((1, 1, 1),),
        input_patch_shape=(4, 8, 8),
        deep_supervision_levels=frozenset({0}),
    )


class TestShapeTrace:
    def test_reference_contraction(self):
        trace = shape_trace(fullres_config())
        assert trace == [
            (16, 320, 320),
            (16, 160, 160),
            (16, 80, 80),
            (16, 40, 40),
            (16, 20, 20),
            (8, 10, 10),
            (4, 5, 5),
        ]

    def test_bottleneck_is_4_5_5(self):
        assert shape_trace(fullres_config())[-1] == (4, 5, 5)

    def test_unit_factors_keep_shape(self):
        cfg = UNet3DConfig(
            levels=2,
            channels_per_level=(4, 8),
            downsample_factors_per_level=((1, 1, 1), (1, 1, 1)),
            input_patch_shape=(3, 7, 7),
        )
        assert shape_trace(cfg) == [(3, 7, 7)] * 3

    def test_depth_cannot_halve_six_times(self):
        cfg = UNet3DConfig(
            levels=6,
            channels_per_level=(32, 64, 128, 256, 320, 320),
            downsample_factors_per_level=((2, 2, 2),) * 6,
            input_patch_shape=(16, 320, 320),
        )
        with pytest.raises(ConfigError, match="depth.*level 5"):
            shape_trace(cfg)

    def test_error_names_axis_and_level(self):
        cfg = UNet3DConfig(
            levels=2,
            channels_per_level=(4, 8),
            downsample_factors_per_level=((1, 2, 2), (1, 2, 2)),
            input_patch_shape=(4, 6, 8),
        )
        with pytest.raises(ConfigError, match="height.*level 2"):
            shape_trace(cfg)


class TestConfigValidation:
    def test_channel_count_must_match_levels(self):
        cfg = toy_config()
        cfg.channels_per_level = (8, 16)
        with pytest.raises(ConfigError, match="channel"):
            cfg.validate()

    def test_one_factor_triple_per_level(self):
        cfg = toy_config()
        cfg.downsample_factors_per_level = ((1, 2, 2), (2, 2, 2))
        with pytest.raises(ConfigError, match="factor"):
            cfg.validate()

    def test_supervision_cannot_reach_bottleneck(self):
        cfg = toy_config()
        cfg.deep_supervision_levels = frozenset({0, 3})
        with pytest.raises(ConfigError, match="bottleneck"):
            cfg.validate()

    def test_supervision_must_include_top(self):
        cfg = toy_config()
        cfg.deep_supervision_levels = frozenset({1, 2})
        with pytest.raises(ConfigError, match="top"):
            cfg.validate()

    def test_cascade_negative_margin(self):
        cas = toy_cascade_config()
        cas.roi_margin_fraction = (-0.1, 0.25, 0.25)
        with pytest.raises(ConfigError, match="margin"):
            cas.validate()

    def test_cascade_stage2_shape_must_match(self):
        cas = toy_cascade_config()
        cas.stage2_input_shape = (16, 64, 64)
        with pytest.raises(ConfigError, match="stage2"):
            cas.validate()

    def test_toy_and_fullres_configs_valid(self):
        toy_config().validate()
        fullres_config().validate()
        toy_cascade_config().validate()


class TestBuild:
    def test_same_seed_bitwise_identical(self):
        a = build_unet(toy_config(), seed=99)
        b = build_unet(toy_config(), seed=99)
        pa, pb = dict(a.named_parameters()), dict(b.named_parameters())
        assert pa.keys() == pb.keys()
        for k in pa:
            np.testing.assert_array_equal(pa[k].data, pb[k].data)

    def test_different_seed_differs(self):
        a = build_unet(toy_config(), seed=1)
        b = build_unet(toy_config(), seed=2)
        diffs = [
            not np.array_equal(ta.data, tb.data)
            for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters())
            if ta.size > 1
        ]
        assert any(diffs)

    def test_parameter_count_pure_function_of_config(self):
        a = build_unet(toy_config(), seed=1)
        b = build_unet(toy_config(), seed=7)
        assert a.parameter_count() == b.parameter_count()

    def test_doubling_channels_changes_count_not_shapes(self, rng):
        cfg2 = toy_config()
        cfg2.channels_per_level = tuple(2 * c for c in toy_config().channels_per_level)
        small = build_unet(toy_config(), seed=3)
        big = build_unet(cfg2, seed=3)
        assert big.parameter_count() > small.parameter_count()
        x = Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32))
        outs, outb = small(x), big(x)
        assert outs["final"].shape == outb["final"].shape
        for (la, ta), (lb, tb) in zip(outs["aux"], outb["aux"]):
            assert la == lb and ta.shape == tb.shape


class TestForward:
    def test_toy_output_shapes(self, rng):
        net = build_unet(toy_config(), seed=5)
        x = Tensor(rng.normal(size=(2, 1, 8, 32, 32)).astype(np.float32))
        out = net(x)
        assert out["final"].shape == (2, 2, 8, 32, 32)
        assert [(l, t.shape) for l, t in out["aux"]] == [
            (1, (2, 2, 8, 16, 16)),
            (2, (2, 2, 4, 8, 8)),
        ]

    def test_zero_input_gives_valid_distributions(self):
        net = build_unet(toy_config(), seed=5)
        out = net(Tensor(np.zeros((1, 1, 8, 32, 32), dtype=np.float32)))
        for t in [out["final"]] + [t for _, t in out["aux"]]:
            assert np.all(np.isfinite(t.data))
            np.testing.assert_allclose(t.data.sum(axis=1), 1.0, atol=1e-5)

    def test_single_level_is_two_convs_at_full_resolution(self, rng):
        net = build_unet(levels1_config(), seed=5)
        x = Tensor(rng.normal(size=(1, 1, 4, 8, 8)).astype(np.float32))
        out = net(x)
        assert out["final"].shape == (1, 2, 4, 8, 8)
        assert out["aux"] == []
        conv_weights = [n for n, t in net.named_parameters() if n.endswith("conv1.weight") or n.endswith("conv2.weight")]
        assert len(conv_weights) == 2

    def test_shape_mismatch_rejected(self):
        net = build_unet(toy_config(), seed=5)
        with pytest.raises(ShapeError):
            net(Tensor(np.zeros((1, 1, 8, 32, 16), dtype=np.float32)))
        with pytest.raises(ShapeError):
            net(Tensor(np.zeros((1, 2, 8, 32, 32), dtype=np.float32)))

    def test_eval_forward_deterministic(self, rng):
        net = build_unet(toy_config(), seed=5)
        x = Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32))
        net(x)  # one train-mode pass to populate running stats
        net.eval()
        a = net(x)["final"].data
        b = net(x)["final"].data
        np.testing.assert_array_equal(a, b)

    def test_state_roundtrip_preserves_eval_output(self, rng):
        net = build_unet(toy_config(), seed=5)
        x = Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32))
        net(x)
        net.eval()
        want = net(x)["final"].data
        state = {k: v.copy() for k, v in net.state_arrays().items()}
        other = build_unet(toy_config(), seed=6)
        other(Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32)))
        other.load_state_arrays(state)
        other.eval()
        np.testing.assert_array_equal(other(x)["final"].data, want)

    def test_load_rejects_mismatched_names(self):
        net = build_unet(toy_config(), seed=5)
        state = net.state_arrays()
        state.pop(sorted(state)[0])
        with pytest.raises(ConfigError, match="state mismatch"):
            net.load_state_arrays(state)

    def test_load_checks_every_shape_before_writing(self):
        net = build_unet(toy_config(), seed=5)
        before = {k: v.copy() for k, v in net.state_arrays().items()}
        state = {k: np.full_like(v, 7) for k, v in before.items()}
        state["dec.0.block.bn1.running_var"] = np.ones(1, dtype=np.float32)
        with pytest.raises(ConfigError, match="dec.0.block.bn1.running_var"):
            net.load_state_arrays(state)
        assert all(np.array_equal(v, before[k]) for k, v in net.state_arrays().items())

    def test_batches_tracked_is_a_buffer(self, rng):
        net = build_unet(toy_config(), seed=5)
        net(Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32)))
        tracked = {k: v for k, v in net.named_buffers() if k.endswith("batches_tracked")}
        assert tracked and all(v.dtype == np.int64 and v.tolist() == [1] for v in tracked.values())
        other = build_unet(toy_config(), seed=6)
        other.load_state_arrays({k: v.copy() for k, v in net.state_arrays().items()})
        assert all(v.tolist() == [1] for k, v in other.named_buffers() if k.endswith("batches_tracked"))


def trained_stats_net(rng, seed=5):
    """A toy net whose batch norms carry non-trivial parameters and running
    stats; gamma and beta spread about as much as in trained weights (std 0.15)."""
    net = build_unet(toy_config(), seed=seed)
    for name, t in net.named_parameters():
        if name.endswith((".gamma", ".beta")):
            t.data += rng.normal(0, 0.15, size=t.shape)
    for _ in range(3):
        net(Tensor(rng.normal(size=(2, 1, 8, 32, 32)).astype(np.float32)))
    return net.eval()


class TestEvalForward:
    def test_builds_no_graph_and_only_the_final_head(self, rng, monkeypatch):
        built = []

        class CountingRecord(ad.OpRecord):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(ad, "OpRecord", CountingRecord)
        net = build_unet(toy_config(), seed=5)
        x = Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32))
        net(x)
        assert built  # the counter sees train-mode records
        built.clear()
        out = net.eval()(x)
        assert built == []
        assert out["aux"] == []
        assert out["final"].record is None and out["final"].shape == (1, 2, 8, 32, 32)

    def test_matches_the_unfolded_conv_then_batch_norm(self, rng, monkeypatch):
        # float64 throughout, so the two paths differ by rounding only; in
        # float32 each is about 7e-7 from the exact value on this untrained
        # net (the acceptance suite compares them on trained weights)
        net = trained_stats_net(rng)
        for _, t in net.named_parameters():
            t.data = t.data.astype(np.float64)
        for _, mod in net.named_modules():
            if isinstance(mod, model.BatchNorm3dLayer):
                mod.stats.mean, mod.stats.var = mod.stats.mean.astype(np.float64), mod.stats.var.astype(np.float64)
        x = Tensor(rng.normal(size=(2, 1, 8, 32, 32)))
        folded = net(x)["final"].data
        # the same forward with every conv followed by the eval batch-norm oracle
        monkeypatch.setattr(model, "_conv_bn", oracles.conv_then_batch_norm_eval)
        unfolded = net(x)["final"].data
        assert folded.dtype == unfolded.dtype == np.float64
        assert not np.array_equal(folded, unfolded)  # the reference path really ran
        np.testing.assert_allclose(folded, unfolded, rtol=0, atol=1e-12)

    def test_eval_before_any_train_step_raises(self):
        net = build_unet(toy_config(), seed=5).eval()
        with pytest.raises(RuntimeError, match="eval mode before any running-stat update"):
            net(Tensor(np.zeros((1, 1, 8, 32, 32), dtype=np.float32)))

    def test_threads_sharing_one_model_match_a_serial_run(self, rng):
        net = trained_stats_net(rng)
        workers = 4
        xs = [Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32)) for _ in range(2 * workers)]
        serial = [net(x)["final"].data for x in xs]
        threaded = [None] * len(xs)

        def work(start):
            for i in range(start, len(xs), workers):
                threaded[i] = net(xs[i])["final"].data

        threads = [threading.Thread(target=work, args=(s,)) for s in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)


def fresh_eval_output(net, x):
    """The eval output of a newly built net holding ``net``'s state."""
    other = build_unet(net.config, seed=net.seed + 1)
    other.load_state_arrays({k: v.copy() for k, v in net.state_arrays().items()})
    return other.eval()(x)["final"].data


class TestStoredFolds:
    def test_one_fold_per_batch_norm_per_sliding_window_call(self, rng, monkeypatch):
        net = trained_stats_net(rng)
        n_bn = sum(isinstance(m, model.BatchNorm3dLayer) for _, m in net.named_modules())
        folds = []
        real_fold = model.BatchNorm3dLayer.fold

        def counting_fold(bn, conv):
            folds.append(bn)
            return real_fold(bn, conv)

        monkeypatch.setattr(model.BatchNorm3dLayer, "fold", counting_fold)
        image = VolumeImage(rng.normal(40.0, 20.0, size=(12, 48, 48)).astype(np.float32), (5.0, 1.0, 1.0))
        calls = []
        real_forward = model.UNet3D.forward
        monkeypatch.setattr(model.UNet3D, "__call__", lambda self, x: calls.append(x) or real_forward(self, x))
        sliding_window_predict(net, image)
        assert len(calls) > 1
        assert len(folds) == n_bn and len(set(map(id, folds))) == n_bn
        sliding_window_predict(net, image)  # eval() again: a second call folds afresh
        assert len(folds) == 2 * n_bn

    def test_load_in_eval_mode_matches_a_fresh_net(self, rng):
        net = trained_stats_net(rng)
        x = Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32))
        before = net(x)["final"].data  # stores the folds of the old state
        donor = trained_stats_net(rng, seed=9)
        net.load_state_arrays({k: v.copy() for k, v in donor.state_arrays().items()})
        assert not net.training
        after = net(x)["final"].data
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, fresh_eval_output(donor, x))

    def test_parameter_edit_shows_after_eval(self, rng):
        net = trained_stats_net(rng)
        x = Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32))
        before = net(x)["final"].data
        net.enc[0].bn1.gamma.data *= 1.5
        np.testing.assert_array_equal(net(x)["final"].data, before)  # folds stored until eval()
        after = net.eval()(x)["final"].data
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, fresh_eval_output(net, x))

    def test_threads_racing_on_the_first_fold_match_a_serial_run(self, rng):
        net = trained_stats_net(rng)
        xs = [Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32)) for _ in range(8)]
        serial = [net(x)["final"].data for x in xs]
        net.eval()  # drops the folds, so every thread's first forward races to fold
        threaded = [None] * len(xs)

        def work(i):
            threaded[i] = net(xs[i])["final"].data

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)

    def test_train_step_then_eval_refolds(self, rng):
        net = trained_stats_net(rng)
        x = Tensor(rng.normal(size=(1, 1, 8, 32, 32)).astype(np.float32))
        before = net(x)["final"].data
        net.train()(Tensor(rng.normal(size=(2, 1, 8, 32, 32)).astype(np.float32)))  # moves the running stats
        after = net.eval()(x)["final"].data
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, fresh_eval_output(net, x))


class TestOverfitSmoke:
    def test_fifty_sgd_steps_reduce_loss(self):
        rng = np.random.default_rng(77)
        net = build_unet(toy_config(), seed=13)
        x = Tensor(rng.normal(size=(2, 1, 8, 32, 32)).astype(np.float32))
        target = np.zeros((2, 2, 8, 32, 32), dtype=np.float32)
        fg = rng.random((2, 8, 32, 32)) < 0.2
        target[:, 1][fg] = 1.0
        target[:, 0] = 1.0 - target[:, 1]
        t = Tensor(target)

        def loss_value():
            diff = net(x)["final"] - t
            return mul(diff, diff).mean()

        first = loss_value().item()
        for _ in range(50):
            net.zero_grad()
            loss = loss_value()
            loss.backward()
            for p in net.parameters():
                if p.grad is not None:  # aux heads are unused by this final-only loss
                    p.data -= 0.05 * p.grad
        last = loss_value().item()
        assert last < first * 0.9
