"""Optimizer, scheduler, checkpoint format, and training-loop tests."""
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from hemoseg.autodiff import Tensor, mul
from hemoseg.inference import RoiBox, extract_roi
from hemoseg.model import build_unet, toy_cascade_config, toy_config
from hemoseg.optim import AdamW, CosineWarmRestarts, MissingGradient
from hemoseg.phantoms import PhantomSpec, generate_phantom
from hemoseg.training import (
    CheckpointError,
    CkptBadMagic,
    CkptTruncated,
    CkptUnknownDtype,
    CkptUnknownVersion,
    TrainConfig,
    TrainingAbort,
    config_from_dict,
    config_to_dict,
    load_checkpoint,
    load_stage_checkpoint,
    overfit_fixed_batch,
    resume_stage,
    save_checkpoint,
    save_stage_checkpoint,
    stage2_training_box,
    train_cascade,
    train_stage,
    train_stage2,
)


def adamw_reference(params, grads, lr, betas, eps, wd, steps):
    """Straight-line re-statement of the update rule, float64 throughout."""
    p = [np.array(x, dtype=np.float64) for x in params]
    m = [np.zeros_like(x) for x in p]
    v = [np.zeros_like(x) for x in p]
    for t in range(1, steps + 1):
        for i in range(len(p)):
            g = np.asarray(grads[i], dtype=np.float64)
            p[i] = p[i] * (1.0 - lr * wd)
            m[i] = betas[0] * m[i] + (1.0 - betas[0]) * g
            v[i] = betas[1] * v[i] + (1.0 - betas[1]) * g * g
            mhat = m[i] / (1.0 - betas[0] ** t)
            vhat = v[i] / (1.0 - betas[1] ** t)
            p[i] = p[i] - lr * mhat / (np.sqrt(vhat) + eps)
    return p


class TestAdamW:
    def test_single_step_hand_value(self):
        # p=1, g=1, lr=0.1, no decay: mhat=vhat=1, so p -> 1 - 0.1/(1+eps)
        p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
        p.grad = np.array([1.0], dtype=np.float64)
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
        opt.step()
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        assert abs(p.data[0] - expected) < 1e-12

    def test_matches_reference_over_steps(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 4)).astype(np.float64)
        grad = rng.normal(size=(3, 4)).astype(np.float64)
        p = Tensor(data.copy(), requires_grad=True)
        opt = AdamW([("w", p)], lr=0.05, weight_decay=1e-4)
        for _ in range(7):
            p.grad = grad.copy()
            opt.step()
        (want,) = adamw_reference([data], [grad], 0.05, (0.9, 0.999), 1e-8, 1e-4, 7)
        np.testing.assert_allclose(p.data, want, rtol=1e-12)

    def test_zero_grad_decay_shrinks(self):
        p = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
        p.grad = np.zeros(1)
        opt = AdamW([("p", p)], lr=0.5, weight_decay=0.1)
        opt.step()
        # decay factor applies, then the moment update contributes nothing
        assert abs(p.data[0] - 2.0 * (1 - 0.5 * 0.1)) < 1e-15

    def test_missing_gradient_raises(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW([("p", p)], lr=0.1)
        with pytest.raises(MissingGradient, match="p"):
            opt.step()

    def test_duplicate_names_rejected(self):
        p = Tensor(np.ones(1), requires_grad=True)
        q = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError, match="duplicate"):
            AdamW([("p", p), ("p", q)])

    def test_quadratic_descent(self):
        target = np.array([3.0, -1.0, 0.5], dtype=np.float32)
        p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
        losses = []
        for _ in range(150):
            opt.zero_grad()
            diff = p - Tensor(target)
            loss = mul(diff, diff).sum()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        # Adam keeps a roughly lr-sized oscillation around the optimum
        assert losses[-1] < losses[0] * 1e-2
        np.testing.assert_allclose(p.data, target, atol=0.2)

    def test_state_roundtrip_continues_identically(self):
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=(2, 2)) for _ in range(6)]
        pa = Tensor(np.ones((2, 2)), requires_grad=True)
        oa = AdamW([("w", pa)], lr=0.02)
        for g in grads:
            pa.grad = g.copy()
            oa.step()
        pb = Tensor(np.ones((2, 2)), requires_grad=True)
        ob = AdamW([("w", pb)], lr=0.02)
        for g in grads[:3]:
            pb.grad = g.copy()
            ob.step()
        state = {k: v.copy() for k, v in ob.state_arrays().items()}
        pc = Tensor(pb.data.copy(), requires_grad=True)
        oc = AdamW([("w", pc)], lr=0.02)
        oc.load_state_arrays(state)
        for g in grads[3:]:
            pc.grad = g.copy()
            oc.step()
        np.testing.assert_array_equal(pa.data, pc.data)


class TestScheduler:
    def test_initial_lr_is_eta_max(self):
        sched = CosineWarmRestarts(eta_max=1e-2, eta_min=1e-5, t_0=10, t_mult=2)
        assert sched.lr_at(0.0) == pytest.approx(1e-2, abs=0)

    def test_midpoint_of_first_cycle(self):
        sched = CosineWarmRestarts(eta_max=1e-2, eta_min=1e-5, t_0=10, t_mult=2)
        want = 1e-5 + 0.5 * (1e-2 - 1e-5)
        assert sched.lr_at(5.0) == pytest.approx(want, rel=1e-12)

    def test_restart_returns_to_eta_max(self):
        sched = CosineWarmRestarts(eta_max=1e-2, eta_min=1e-5, t_0=10, t_mult=2)
        for t in (10.0, 30.0, 70.0):
            assert sched.lr_at(t) == pytest.approx(1e-2, rel=1e-12)

    def test_restart_times_follow_doubling(self):
        sched = CosineWarmRestarts(t_0=10, t_mult=2)
        assert sched.restart_times(70.0) == [10.0, 30.0, 70.0]
        assert sched.restart_times(69.9) == [10.0, 30.0]

    def test_bounds_hold_on_dense_sweep(self):
        sched = CosineWarmRestarts(eta_max=1e-2, eta_min=1e-5, t_0=10, t_mult=2)
        for t in np.linspace(0.0, 75.0, 1501):
            lr = sched.lr_at(float(t))
            assert 1e-5 - 1e-15 <= lr <= 1e-2 + 1e-15

    def test_approaches_eta_min_at_cycle_end(self):
        sched = CosineWarmRestarts(eta_max=1e-2, eta_min=1e-5, t_0=10, t_mult=1)
        assert sched.lr_at(10.0 - 1e-9) == pytest.approx(1e-5, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineWarmRestarts(t_0=0)
        with pytest.raises(ValueError):
            CosineWarmRestarts(t_mult=0)
        with pytest.raises(ValueError):
            CosineWarmRestarts(eta_max=1e-5, eta_min=1e-2)
        with pytest.raises(ValueError):
            CosineWarmRestarts().lr_at(-1.0)


class TestCheckpointFormat:
    def _arrays(self):
        rng = np.random.default_rng(9)
        return {
            "a.weight": rng.normal(size=(2, 3)).astype(np.float32),
            "b.flag": np.array([1, 0, 1], dtype=np.uint8),
            "b.count": np.array([42], dtype=np.int64),
            "c.wide": rng.normal(size=(4,)).astype(np.float64),
        }

    def test_roundtrip_values_and_meta(self, tmp_path):
        arrays = self._arrays()
        meta = {"stage": "1", "nested": {"k": [1, 2]}}
        path = save_checkpoint(tmp_path / "x.hsck", arrays, meta)
        loaded, got_meta = load_checkpoint(path)
        assert got_meta == meta
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert loaded[k].dtype == arrays[k].dtype
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_second_save_is_byte_identical(self, tmp_path):
        arrays = self._arrays()
        p1 = save_checkpoint(tmp_path / "a.hsck", arrays, {"m": 1})
        loaded, meta = load_checkpoint(p1)
        p2 = save_checkpoint(tmp_path / "b.hsck", loaded, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.hsck"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(CkptBadMagic):
            load_checkpoint(p)

    def test_unknown_version(self, tmp_path):
        p = save_checkpoint(tmp_path / "x.hsck", {"a": np.zeros(1, np.float32)}, {})
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(CkptUnknownVersion):
            load_checkpoint(p)

    def test_unknown_dtype_code(self, tmp_path):
        p = save_checkpoint(tmp_path / "x.hsck", {"a": np.zeros(1, np.float32)}, {})
        raw = bytearray(p.read_bytes())
        # first record is "__meta__": header(9) + name_len(2) + name(8) -> dtype byte
        raw[9 + 2 + len(b"__meta__")] = 7
        p.write_bytes(bytes(raw))
        with pytest.raises(CkptUnknownDtype):
            load_checkpoint(p)

    def test_unsupported_dtype_refused_before_writing(self, tmp_path):
        arrays = {**self._arrays(), "d.index": np.arange(3, dtype=np.int32)}
        with pytest.raises(CkptUnknownDtype, match="'d.index' has dtype int32"):
            save_checkpoint(tmp_path / "out" / "x.hsck", arrays, {})
        assert not (tmp_path / "out").exists()

    def test_truncation(self, tmp_path):
        p = save_checkpoint(tmp_path / "x.hsck", self._arrays(), {"m": 1})
        raw = p.read_bytes()
        p.write_bytes(raw[:5])
        with pytest.raises(CkptTruncated):
            load_checkpoint(p)
        p.write_bytes(raw[: len(raw) - 3])
        with pytest.raises(CkptTruncated):
            load_checkpoint(p)

    def test_bytes_after_the_last_record(self, tmp_path):
        p = save_checkpoint(tmp_path / "x.hsck", self._arrays(), {"m": 1})
        p.write_bytes(p.read_bytes() + bytes(4))
        with pytest.raises(CheckpointError, match="x.hsck: 4 bytes after the last record"):
            load_checkpoint(p)

    @staticmethod
    def _records(names):
        """An HSCK file of one-element float32 records, in the order given."""
        raw = struct.pack("<4sBI", b"HSCK", 1, len(names))
        for i, name in enumerate(names):
            raw += struct.pack("<H", len(name)) + name.encode() + struct.pack("<BBIf", 0, 1, 1, float(i))
        return raw

    def test_records_out_of_name_order(self, tmp_path):
        p = tmp_path / "x.hsck"
        p.write_bytes(self._records(["a", "c", "b"]))
        with pytest.raises(CheckpointError, match="x.hsck: record 'b' out of name order, after 'c'"):
            load_checkpoint(p)

    def test_duplicate_record_names(self, tmp_path):
        p = tmp_path / "x.hsck"
        p.write_bytes(self._records(["a", "b", "b"]))
        with pytest.raises(CheckpointError, match="x.hsck: duplicate record 'b'"):
            load_checkpoint(p)
        p.write_bytes(self._records(["a", "b"]))
        assert load_checkpoint(p)[0] == {"a": np.zeros(1, np.float32), "b": np.ones(1, np.float32)}

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, fill_disk):
        path = save_checkpoint(tmp_path / "x.hsck", self._arrays(), {"m": 1})
        before = path.read_bytes()
        cut = fill_disk()
        with pytest.raises(OSError):
            save_checkpoint(path, {"a.weight": np.ones((64, 64), np.float32)}, {"m": 2})
        assert len(cut) == 1 and cut[0].parent == tmp_path
        assert path.read_bytes() == before
        loaded, meta = load_checkpoint(path)
        assert meta == {"m": 1}
        np.testing.assert_array_equal(loaded["a.weight"], self._arrays()["a.weight"])
        assert [p.name for p in tmp_path.iterdir()] == ["x.hsck"]

    def test_float64_in_payload_kept(self, tmp_path):
        arr = {"x": np.array([math.pi], dtype=np.float64)}
        loaded, _ = load_checkpoint(save_checkpoint(tmp_path / "x.hsck", arr, {}))
        assert loaded["x"].dtype == np.float64
        assert loaded["x"][0] == math.pi


class TestConfigDict:
    def test_roundtrip(self):
        cfg = toy_config()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_dict_is_json_safe(self):
        import json

        json.dumps(config_to_dict(toy_config()))


class TestStageCheckpoint:
    def test_model_roundtrip_same_outputs(self, tmp_path):
        model = build_unet(toy_config(), seed=4)
        x = np.random.default_rng(1).normal(size=(1, 1, 8, 32, 32)).astype(np.float32)
        model.train()
        model(Tensor(x))  # populate batch-norm statistics
        model.eval()
        before = model(Tensor(x))["final"].data
        path = save_stage_checkpoint(tmp_path / "m.hsck", model, None, {"next_step": 0})
        again, optim_arrays, meta = load_stage_checkpoint(path)
        assert optim_arrays == {}
        assert meta["train"]["next_step"] == 0
        again.eval()
        np.testing.assert_array_equal(again(Tensor(x))["final"].data, before)


def phantom_dataset(n, base_seed=0):
    cases = [generate_phantom(PhantomSpec(seed=base_seed + i)) for i in range(n)]
    return [(img, msk) for img, msk, _ in cases]


class TestTrainStage:
    def test_empty_dataset_rejected(self, tmp_path):
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, checkpoint_path=str(tmp_path / "c.hsck"))
        with pytest.raises(ValueError, match="empty"):
            train_stage(build_unet(toy_config(), seed=0), [], cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0).validate()

    def test_loss_drops_and_log_written(self, tmp_path):
        dataset = phantom_dataset(2)
        cfg = TrainConfig(
            epochs=2,
            steps_per_epoch=4,
            batch_size=2,
            seed=11,
            checkpoint_path=str(tmp_path / "c.hsck"),
            log_path=str(tmp_path / "log.jsonl"),
        )
        model = build_unet(toy_config(), seed=11)
        path, history = train_stage(model, dataset, cfg)
        assert path.exists()
        assert history[-1].total_value < history[0].total_value
        import json

        lines = [json.loads(l) for l in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert [l["step"] for l in lines] == list(range(8))
        assert all(set(l) >= {"stage", "step", "lr", "total", "per_level"} for l in lines)

    def test_nan_aborts_with_context(self, tmp_path):
        dataset = phantom_dataset(1)
        model = build_unet(toy_config(), seed=0)
        name, first = next(iter(model.named_parameters()))
        first.data[...] = np.nan
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, checkpoint_path=str(tmp_path / "c.hsck"))
        with pytest.raises(TrainingAbort) as err:
            train_stage(model, dataset, cfg)
        assert err.value.step == 0
        assert err.value.lr == pytest.approx(cfg.lr)

    def test_non_finite_weights_abort_before_the_checkpoint(self, tmp_path):
        # a step whose update overflows the weights ends the run before the
        # epoch-end checkpoint, which would otherwise hold them
        dataset = phantom_dataset(1)
        cfg = TrainConfig(epochs=2, steps_per_epoch=1, lr=1e300, checkpoint_path=str(tmp_path / "c.hsck"))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingAbort) as err:
            train_stage(build_unet(toy_config(), seed=0), dataset, cfg)
        assert err.value.step == 0 and err.value.array == "enc.0.conv1.weight"
        assert "non-finite enc.0.conv1.weight after step 0" in str(err.value)
        assert not (tmp_path / "c.hsck").exists()

    def test_resume_matches_straight_run(self, tmp_path):
        dataset = phantom_dataset(2, base_seed=5)

        def cfg(epochs, name):
            return TrainConfig(
                epochs=epochs,
                steps_per_epoch=2,
                batch_size=1,
                seed=21,
                checkpoint_path=str(tmp_path / name),
            )

        straight = build_unet(toy_config(), seed=21)
        _, hist_a = train_stage(straight, dataset, cfg(2, "a.hsck"))

        interrupted = build_unet(toy_config(), seed=21)
        train_stage(interrupted, dataset, cfg(1, "b.hsck"))
        _, hist_b = resume_stage(tmp_path / "b.hsck", dataset, cfg(2, "b.hsck"))

        assert [h.total_value for h in hist_a[2:]] == [h.total_value for h in hist_b]
        final, _, _ = load_stage_checkpoint(tmp_path / "b.hsck")
        sa, sb = straight.state_arrays(), final.state_arrays()
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)

    def test_resume_refuses_a_different_trajectory(self, tmp_path):
        dataset = phantom_dataset(1, base_seed=5)
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, batch_size=1, seed=21, checkpoint_path=str(tmp_path / "c.hsck"))
        train_stage(build_unet(toy_config(), seed=21), dataset, cfg)
        before = (tmp_path / "c.hsck").read_bytes()
        with pytest.raises(ValueError, match="seed is 22 but the checkpoint's run used 21"):
            resume_stage(tmp_path / "c.hsck", dataset, replace(cfg, epochs=2, seed=22))
        with pytest.raises(ValueError, match="lr"):
            resume_stage(tmp_path / "c.hsck", dataset, replace(cfg, epochs=2, lr=cfg.lr / 2))
        assert (tmp_path / "c.hsck").read_bytes() == before

    def test_resume_refuses_train_metadata_that_is_not_an_object(self, tmp_path):
        dataset = phantom_dataset(1, base_seed=5)
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, batch_size=1, seed=21, checkpoint_path=str(tmp_path / "c.hsck"))
        train_stage(build_unet(toy_config(), seed=21), dataset, cfg)
        arrays, meta = load_checkpoint(tmp_path / "c.hsck")
        save_checkpoint(tmp_path / "c.hsck", arrays, {**meta, "train": ["stage", "1"]})
        with pytest.raises(CheckpointError, match="c.hsck: malformed train metadata: a list, not an object"):
            resume_stage(tmp_path / "c.hsck", dataset, replace(cfg, epochs=2))

    @pytest.mark.parametrize("next_step", [None, "x", 1.0, True, -1])
    def test_resume_refuses_a_missing_or_non_integer_next_step(self, tmp_path, next_step):
        dataset = phantom_dataset(1, base_seed=5)
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, batch_size=1, seed=21, checkpoint_path=str(tmp_path / "c.hsck"))
        train_stage(build_unet(toy_config(), seed=21), dataset, cfg)
        arrays, meta = load_checkpoint(tmp_path / "c.hsck")
        if next_step is None:
            del meta["train"]["next_step"]
        else:
            meta["train"]["next_step"] = next_step
        save_checkpoint(tmp_path / "c.hsck", arrays, meta)
        with pytest.raises(CheckpointError, match=f"c.hsck: train metadata next_step is {next_step!r}"):
            resume_stage(tmp_path / "c.hsck", dataset, replace(cfg, epochs=2))

    def test_resume_refuses_a_stage2_checkpoint(self, tmp_path):
        dataset = phantom_dataset(1, base_seed=5)
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, batch_size=1, seed=21, checkpoint_path=str(tmp_path / "c.hsck"))
        cascade = toy_cascade_config()
        train_stage2(build_unet(cascade.stage2, seed=22), dataset, cascade, cfg)
        with pytest.raises(ValueError, match="stage '2'"):
            resume_stage(tmp_path / "c.hsck", dataset, replace(cfg, epochs=2))


class TestStage2Box:
    def test_zero_margin_zero_jitter_is_tight_bbox(self):
        mask = np.zeros((10, 12, 14), dtype=np.uint8)
        mask[2:5, 3:9, 4:6] = 1
        box = stage2_training_box(mask, (0.0, 0.0, 0.0), 0.0, np.random.default_rng(0))
        assert box.lo == (2, 3, 4) and box.hi == (5, 9, 6)

    def test_matches_extract_roi_without_jitter(self):
        mask = np.zeros((8, 16, 16), dtype=np.uint8)
        mask[1:4, 2:10, 5:12] = 1
        margin = (0.25, 0.25, 0.25)
        box = stage2_training_box(mask, margin, 0.0, np.random.default_rng(0))
        assert box == extract_roi(mask, margin)

    def test_jitter_stays_in_bounds(self):
        mask = np.zeros((8, 16, 16), dtype=np.uint8)
        mask[2:6, 4:12, 4:12] = 1
        rng = np.random.default_rng(7)
        for _ in range(100):
            box = stage2_training_box(mask, (0.25,) * 3, 0.1, rng)
            assert isinstance(box, RoiBox)
            for ax in range(3):
                assert 0 <= box.lo[ax] < box.hi[ax] <= mask.shape[ax]

    def test_empty_mask_gives_none(self):
        assert stage2_training_box(np.zeros((4, 4, 4), np.uint8), (0.25,) * 3, 0.1, np.random.default_rng(0)) is None


class TestTrainCascade:
    def test_produces_two_loadable_checkpoints(self, tmp_path):
        dataset = phantom_dataset(2, base_seed=30)
        cfg = TrainConfig(
            epochs=1,
            steps_per_epoch=2,
            batch_size=1,
            seed=30,
            checkpoint_path=str(tmp_path / "run.hsck"),
        )
        p1, p2 = train_cascade(dataset, toy_cascade_config(), cfg)
        assert p1.name == "run_stage1.hsck" and p2.name == "run_stage2.hsck"
        s1, _, meta1 = load_stage_checkpoint(p1)
        s2, _, meta2 = load_stage_checkpoint(p2)
        assert meta1["train"]["stage"] == "1"
        assert meta2["train"]["stage"] == "2"
        assert tuple(s2.config.input_patch_shape) == toy_cascade_config().stage2_input_shape

    def test_runs_the_stage_functions(self, tmp_path):
        dataset = phantom_dataset(2, base_seed=40)
        ccfg = toy_cascade_config()

        def cfg(name):
            return TrainConfig(epochs=1, steps_per_epoch=2, batch_size=1, seed=40, checkpoint_path=str(tmp_path / name))

        p1, p2 = train_cascade(dataset, ccfg, cfg("run.hsck"))
        q1, _ = train_stage(build_unet(ccfg.stage1, seed=40), dataset, cfg("one.hsck"))
        q2, _ = train_stage2(build_unet(ccfg.stage2, seed=41), dataset, ccfg, cfg("two.hsck"))
        for cascade_path, stage_path in ((p1, q1), (p2, q2)):
            a, b = load_checkpoint(cascade_path)[0], load_checkpoint(stage_path)[0]
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a), cascade_path.name

    def test_all_empty_masks_rejected(self, tmp_path):
        from hemoseg.volumes import SegMask, VolumeImage

        img = VolumeImage(np.zeros((8, 32, 32), np.float32), (5.0, 1.0, 1.0))
        msk = SegMask(np.zeros((8, 32, 32), np.uint8), (5.0, 1.0, 1.0))
        cfg = TrainConfig(
            epochs=1, steps_per_epoch=1, batch_size=1, checkpoint_path=str(tmp_path / "r.hsck")
        )
        with pytest.raises(ValueError, match="foreground"):
            train_cascade([(img, msk)], toy_cascade_config(), cfg)
        assert not list(tmp_path.glob("*_stage1.hsck")), "stage 1 trained before the dataset was refused"


class TestOverfitFixedBatch:
    def test_descent_on_fixed_batch(self):
        dataset = phantom_dataset(1, base_seed=2)
        from hemoseg.augment import AugmentPolicy, augment, hu_window, zscore_normalize

        img, msk = dataset[0]
        rng = np.random.default_rng(5)
        policy = AugmentPolicy.disabled((8, 32, 32))
        policy.fg_bias_prob = 1.0
        xi, yi = augment(hu_window(img).voxels.astype(np.float64), msk.voxels, rng, policy)
        x = zscore_normalize(xi)[None, None]
        y = yi.astype(np.int64)[None]
        model = build_unet(toy_config(), seed=5)
        history = overfit_fixed_batch(model, x, y, steps=30, lr=1e-2)
        assert history[-1].total_value < history[0].total_value
