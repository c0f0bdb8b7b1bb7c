"""End-to-end tests of the command-line interface.

Each command runs in-process through hemoseg.cli.main so exit codes and
stdout can be asserted directly.  A tiny cascade is trained once per
session and shared by the inference tests.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hemoseg
from hemoseg.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from hemoseg.losses import confusion, metrics
from hemoseg.training import load_checkpoint, load_stage_checkpoint, save_checkpoint
from hemoseg.volumes import SegMask, VolumeImage, read_rvol, write_rvol
from hemoseg.volumetry import tada_measure, tada_volume_ml, voxel_volume_ml

FAST_TRAIN = ["--set", "train.epochs=1", "--set", "train.steps_per_epoch=2"]


@pytest.fixture(scope="session")
def phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    assert main(["gen-phantoms", "--out", str(out), "--count", "3", "--seed", "11"]) == EXIT_OK
    return out


@pytest.fixture(scope="session")
def cascade_ckpts(tmp_path_factory, phantom_dir):
    out = tmp_path_factory.mktemp("cli_train") / "run.hsck"
    rc = main(["train", "--data", str(phantom_dir), "--stage", "cascade",
               "--out", str(out), "--seed", "5", *FAST_TRAIN])
    assert rc == EXIT_OK
    return out.with_name("run_stage1.hsck"), out.with_name("run_stage2.hsck")


class TestGenPhantoms:
    def test_writes_pairs_and_manifest(self, phantom_dir):
        imgs = sorted(phantom_dir.glob("case_*_img.rvol"))
        msks = sorted(phantom_dir.glob("case_*_msk.rvol"))
        assert len(imgs) == 3 and len(msks) == 3
        assert (phantom_dir / "dataset.json").exists()
        manifest = json.loads((phantom_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-phantoms"
        assert manifest["seed"] == 11
        assert manifest["wall_seconds"] >= 0
        assert any(p.endswith("case_0000_img.rvol") for p in manifest["outputs"])

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["gen-phantoms", "--out", str(d), "--count", "2", "--seed", "4"]) == EXIT_OK
        for name in ("case_0000_img.rvol", "case_0001_msk.rvol"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_count_zero(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["gen-phantoms", "--out", str(out), "--count", "0", "--seed", "0"]) == EXIT_OK
        assert list(out.glob("case_*.rvol")) == []
        assert (out / "manifest.json").exists()

    def test_negative_count_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen-phantoms", "--out", str(tmp_path / "x"), "--count", "-1", "--seed", "0"])
        assert rc == EXIT_USAGE
        assert "count" in capsys.readouterr().err

    def test_settings_override_spec(self, tmp_path):
        out = tmp_path / "small"
        rc = main(["gen-phantoms", "--out", str(out), "--count", "1", "--seed", "0",
                   "--set", "phantom.shape=8,32,32"])
        assert rc == EXIT_OK
        img = read_rvol(out / "case_0000_img.rvol")
        assert img.voxels.shape == (8, 32, 32)

    def test_bad_override_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen-phantoms", "--out", str(tmp_path / "x"), "--count", "1",
                   "--seed", "0", "--set", "phantom.shape=not-a-shape"])
        assert rc == EXIT_USAGE
        assert "phantom.shape" in capsys.readouterr().err


class TestTrain:
    def test_stage1_checkpoint_loadable(self, tmp_path, phantom_dir):
        out = tmp_path / "s1.hsck"
        rc = main(["train", "--data", str(phantom_dir), "--stage", "1",
                   "--out", str(out), "--seed", "2", *FAST_TRAIN])
        assert rc == EXIT_OK
        model, optim, meta = load_stage_checkpoint(out)
        assert meta["train"]["stage"] == "1"
        assert meta["model"]["seed"] == 2
        assert optim  # optimizer moments ride along for resume
        manifest = json.loads((tmp_path / "s1_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert str(out) in manifest["outputs"]

    def test_cascade_writes_both_stages(self, cascade_ckpts):
        p1, p2 = cascade_ckpts
        assert p1.exists() and p2.exists()
        _, _, meta2 = load_stage_checkpoint(p2)
        assert meta2["train"]["stage"] == "2"
        assert "cascade" in meta2["train"]

    def test_missing_data_dir(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--stage", "1",
                   "--out", str(tmp_path / "x.hsck")])
        assert rc == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    def test_dir_without_cases(self, tmp_path, capsys):
        empty = tmp_path / "cases"
        empty.mkdir()
        rc = main(["train", "--data", str(empty), "--stage", "1",
                   "--out", str(tmp_path / "x.hsck")])
        assert rc == EXIT_USAGE
        assert "case_" in capsys.readouterr().err

    def test_config_file_feeds_training(self, tmp_path, phantom_dir):
        cfgfile = tmp_path / "train.cfg"
        cfgfile.write_text("# quick run\ntrain.epochs = 1\ntrain.steps_per_epoch = 1\n")
        out = tmp_path / "cfg.hsck"
        rc = main(["train", "--data", str(phantom_dir), "--stage", "1",
                   "--out", str(out), "--config", str(cfgfile)])
        assert rc == EXIT_OK
        _, _, meta = load_stage_checkpoint(out)
        assert meta["train"]["next_step"] == 1

    def test_log_into_a_missing_directory(self, tmp_path, phantom_dir):
        log = tmp_path / "runs" / "s1.jsonl"
        rc = main(["train", "--data", str(phantom_dir), "--stage", "1", "--out", str(tmp_path / "s1.hsck"),
                   "--log", str(log), *FAST_TRAIN])
        assert rc == EXIT_OK
        lines = log.read_text().splitlines()
        assert [json.loads(line)["step"] for line in lines] == [0, 1]


class TestInfer:
    def test_cascade_outputs(self, tmp_path, phantom_dir, cascade_ckpts):
        p1, p2 = cascade_ckpts
        out = tmp_path / "pred" / "case_0000_msk.rvol"
        rc = main(["infer", "--model", f"{p1},{p2}",
                   "--input", str(phantom_dir / "case_0000_img.rvol"),
                   "--output", str(out)])
        assert rc == EXIT_OK
        mask = read_rvol(out)
        assert isinstance(mask, SegMask)
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["mode"] == "cascade"
        assert sidecar["volume_ml"] == pytest.approx(voxel_volume_ml(mask))
        assert sidecar["seconds"] > 0
        assert (tmp_path / "pred" / "case_0000_msk_manifest.json").exists()

    def test_single_stage_mode(self, tmp_path, phantom_dir, cascade_ckpts):
        out = tmp_path / "case_0000_msk.rvol"
        rc = main(["infer", "--model", str(cascade_ckpts[0]),
                   "--input", str(phantom_dir / "case_0000_img.rvol"),
                   "--output", str(out)])
        assert rc == EXIT_OK
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["mode"] == "single"
        assert sidecar["roi_box"] is None

    def test_corrupt_input_is_data_error(self, tmp_path, cascade_ckpts, capsys):
        bad = tmp_path / "bad.rvol"
        bad.write_bytes(b"GARBAGE")
        rc = main(["infer", "--model", str(cascade_ckpts[0]),
                   "--input", str(bad), "--output", str(tmp_path / "o.rvol")])
        assert rc == EXIT_DATA
        assert "data format" in capsys.readouterr().err

    def test_mask_as_input_is_usage_error(self, tmp_path, phantom_dir, cascade_ckpts):
        rc = main(["infer", "--model", str(cascade_ckpts[0]),
                   "--input", str(phantom_dir / "case_0000_msk.rvol"),
                   "--output", str(tmp_path / "o.rvol")])
        assert rc == EXIT_USAGE

    def test_three_checkpoints_is_usage_error(self, tmp_path, phantom_dir, cascade_ckpts):
        p1, _ = cascade_ckpts
        rc = main(["infer", "--model", f"{p1},{p1},{p1}",
                   "--input", str(phantom_dir / "case_0000_img.rvol"),
                   "--output", str(tmp_path / "o.rvol")])
        assert rc == EXIT_USAGE

    def test_truncated_checkpoint_is_data_error(self, tmp_path, phantom_dir, cascade_ckpts):
        stub = tmp_path / "stub.hsck"
        stub.write_bytes(cascade_ckpts[0].read_bytes()[:20])
        rc = main(["infer", "--model", str(stub),
                   "--input", str(phantom_dir / "case_0000_img.rvol"),
                   "--output", str(tmp_path / "o.rvol")])
        assert rc == EXIT_DATA


class TestEval:
    def test_perfect_predictions(self, tmp_path, phantom_dir, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        for p in phantom_dir.glob("case_*_msk.rvol"):
            (pred / p.name).write_bytes(p.read_bytes())
        out = tmp_path / "metrics.json"
        rc = main(["eval", "--pred", str(pred), "--gt", str(phantom_dir), "--out", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["case_count"] == 3
        for m in payload["cases"].values():
            assert m["dsc"] == 1.0 and m["iou"] == 1.0
        assert payload["mean"]["dsc"] == 1.0
        assert json.loads(capsys.readouterr().out) == payload

    def test_matches_library_metrics(self, tmp_path, phantom_dir, capsys):
        # flip one prediction to all-background and check against a direct
        # confusion-matrix computation
        pred = tmp_path / "pred"
        pred.mkdir()
        names = sorted(p.name for p in phantom_dir.glob("case_*_msk.rvol"))
        for name in names[1:]:
            (pred / name).write_bytes((phantom_dir / name).read_bytes())
        gt0 = read_rvol(phantom_dir / names[0])
        write_rvol(pred / names[0], SegMask(np.zeros_like(gt0.voxels), gt0.spacing_mm))
        rc = main(["eval", "--pred", str(pred), "--gt", str(phantom_dir)])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        expected = metrics(confusion(np.zeros_like(gt0.voxels), gt0.voxels))
        case0 = payload["cases"][names[0][5:-9]]
        assert case0 == pytest.approx(expected)

    def test_mismatched_case_sets(self, tmp_path, phantom_dir, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        names = sorted(p.name for p in phantom_dir.glob("case_*_msk.rvol"))
        (pred / names[0]).write_bytes((phantom_dir / names[0]).read_bytes())
        rc = main(["eval", "--pred", str(pred), "--gt", str(phantom_dir)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "0001" in err and "0002" in err

    def test_empty_dirs_are_usage_error(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert main(["eval", "--pred", str(a), "--gt", str(b)]) == EXIT_USAGE


class TestVolume:
    def test_hand_checked_single_voxel(self, tmp_path, capsys):
        vox = np.zeros((4, 4, 4), dtype=np.uint8)
        vox[1, 2, 2] = 1
        path = tmp_path / "one.rvol"
        write_rvol(path, SegMask(vox, (5.0, 0.5, 2.0)))
        rc = main(["volume", "--mask", str(path), "--method", "both"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["voxel"]["volume_ml"] == pytest.approx(0.005)
        # A spans the wider in-plane axis, B the narrower, C one slice
        assert payload["tada"]["a_mm"] == 2.0
        assert payload["tada"]["b_mm"] == 0.5
        assert payload["tada"]["c_mm"] == 5.0
        assert payload["tada"]["volume_ml"] == pytest.approx(2.0 * 0.5 * 5.0 / 2000.0)

    def test_matches_library_routines(self, tmp_path, phantom_dir, capsys):
        path = phantom_dir / "case_0000_msk.rvol"
        rc = main(["volume", "--mask", str(path), "--method", "both"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        mask = read_rvol(path)
        assert payload["voxel"]["volume_ml"] == pytest.approx(voxel_volume_ml(mask))
        assert payload["tada"]["volume_ml"] == pytest.approx(tada_volume_ml(tada_measure(mask)))

    def test_empty_mask_reports_no_lesion(self, tmp_path, capsys):
        path = tmp_path / "empty.rvol"
        write_rvol(path, SegMask(np.zeros((4, 8, 8), dtype=np.uint8), (1.0, 1.0, 1.0)))
        rc = main(["volume", "--mask", str(path), "--method", "both"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["tada"] == {"status": "no lesion"}
        assert payload["voxel"]["volume_ml"] == 0.0

    def test_voxel_only_omits_tada(self, tmp_path, capsys):
        path = tmp_path / "m.rvol"
        write_rvol(path, SegMask(np.ones((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0)))
        rc = main(["volume", "--mask", str(path), "--method", "voxel", "--out",
                   str(tmp_path / "vol.json")])
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "vol.json").read_text())
        assert "tada" not in payload
        assert payload["voxel"]["volume_ml"] == pytest.approx(0.008)

    def test_missing_mask_is_usage_error(self, tmp_path):
        assert main(["volume", "--mask", str(tmp_path / "nope.rvol")]) == EXIT_USAGE


class TestCompareTada:
    def test_table_and_reports(self, tmp_path, phantom_dir, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        for p in phantom_dir.glob("case_*_msk.rvol"):
            (pred / p.name).write_bytes(p.read_bytes())
        out = tmp_path / "report.json"
        rc = main(["compare-tada", "--pred", str(pred), "--gt", str(phantom_dir),
                   "--out", str(out)])
        assert rc == EXIT_OK
        table = capsys.readouterr().out
        header = table.splitlines()[0].split()
        assert header == ["method", "mae_solitary_ml", "mae_scattered_ml", "mae_all_ml",
                          "mean_seconds"]
        assert table.splitlines()[1].startswith("voxel-count")
        assert table.splitlines()[2].startswith("tada-abc2")
        payload = json.loads(out.read_text())
        # identical predictions make the model's volume error exactly zero
        assert payload["model_mae_ml"]["all"] == 0.0
        assert (tmp_path / "report.txt").read_text() == table
        assert (tmp_path / "report_manifest.json").exists()

    def test_sidecar_seconds_feed_table(self, tmp_path, phantom_dir, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        for p in phantom_dir.glob("case_*_msk.rvol"):
            (pred / p.name).write_bytes(p.read_bytes())
            pred.joinpath(p.name).with_suffix(".json").write_text(
                json.dumps({"seconds": 2.5}))
        out = tmp_path / "r.json"
        rc = main(["compare-tada", "--pred", str(pred), "--gt", str(phantom_dir),
                   "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert all(c["model_seconds"] == 2.5 for c in payload["cases"])

    def test_mismatched_sets(self, tmp_path, phantom_dir, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        rc = main(["compare-tada", "--pred", str(pred), "--gt", str(phantom_dir)])
        assert rc == EXIT_DATA
        assert "missing from predictions" in capsys.readouterr().err


def _file_states(root: Path) -> dict[Path, tuple]:
    # an atomic write replaces the inode; an append changes size and mtime
    return {p: (p.stat().st_ino, p.stat().st_mtime_ns, p.stat().st_size) for p in root.rglob("*") if p.is_file()}


class TestManifest:
    def test_lists_exactly_the_files_written(self, tmp_path, capsys):
        data, runs, pred, rep = (tmp_path / d for d in ("data", "runs", "pred", "rep"))
        runs.mkdir()
        regen = tmp_path / "regen"
        commands = [
            (["gen-phantoms", "--out", str(data), "--count", "2", "--seed", "7"], data / "manifest.json"),
            (["gen-phantoms", "--out", str(regen), "--count", "2", "--seed", "7"], regen / "manifest.json"),
            # a smaller rerun into the same directory lists only its own cases
            (["gen-phantoms", "--out", str(regen), "--count", "1", "--seed", "7"], regen / "manifest.json"),
            (["train", "--data", str(data), "--stage", "1", "--out", str(runs / "s1.hsck"), "--seed", "1",
              "--log", str(runs / "s1.jsonl"), *FAST_TRAIN], runs / "s1_manifest.json"),
            (["train", "--data", str(data), "--stage", "cascade", "--out", str(runs / "c.hsck"), "--seed", "1",
              *FAST_TRAIN], runs / "c_manifest.json"),
            *[(["infer", "--model", str(runs / "s1.hsck"), "--input", str(data / f"case_{i}_img.rvol"),
                "--output", str(pred / f"case_{i}_msk.rvol")], pred / f"case_{i}_msk_manifest.json")
              for i in ("0000", "0001")],
            (["eval", "--pred", str(pred), "--gt", str(data), "--out", str(rep / "e.json")], rep / "e_manifest.json"),
            (["volume", "--mask", str(pred / "case_0000_msk.rvol"), "--out", str(rep / "v.json")],
             rep / "v_manifest.json"),
            (["compare-tada", "--pred", str(pred), "--gt", str(data), "--out", str(rep / "c.json")],
             rep / "c_manifest.json"),
        ]
        for argv, manifest_path in commands:
            before = _file_states(tmp_path)
            assert main(argv) == EXIT_OK
            after = _file_states(tmp_path)
            written = {p for p, state in after.items() if before.get(p) != state}
            manifest = json.loads(manifest_path.read_text())
            assert manifest["argv"] == argv
            assert manifest["command"] == argv[0]
            assert {Path(p) for p in manifest["outputs"]} | {manifest_path} == written, argv[0]
        capsys.readouterr()

    def test_failed_report_write_keeps_previous_files(self, tmp_path, phantom_dir, fill_disk, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        for p in phantom_dir.glob("case_*_msk.rvol"):
            (pred / p.name).write_bytes(p.read_bytes())
        rep = tmp_path / "rep"
        out = rep / "metrics.json"
        assert main(["eval", "--pred", str(pred), "--gt", str(phantom_dir), "--out", str(out)]) == EXIT_OK
        previous = {p: p.read_bytes() for p in rep.iterdir()}
        assert set(previous) == {out, rep / "metrics_manifest.json"}
        first = sorted(pred.glob("case_*_msk.rvol"))[0]
        gt = read_rvol(first)
        write_rvol(first, SegMask(np.zeros_like(gt.voxels), gt.spacing_mm))  # the new report would differ
        capsys.readouterr()
        cut = fill_disk()
        assert main(["eval", "--pred", str(pred), "--gt", str(phantom_dir), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "No space left on device" in err and "Traceback" not in err
        assert cut
        assert {p: p.read_bytes() for p in rep.iterdir()} == previous


class TestParser:
    def test_no_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["volume", "--mask", "x", "--frobnicate"])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC) == (0, 2, 3, 4)


# Bad invocations, run as a separate process so stderr shows whether a
# traceback escaped: (id, argv template, expected exit code, stderr must name).
BAD_INVOCATIONS = [
    ("unknown-key-set", ["train", "--data", "{data}", "--out", "{tmp}/x.hsck", "--set", "train.epoch=1"],
     EXIT_USAGE, "train.epochs"),
    ("unknown-key-config", ["train", "--data", "{data}", "--out", "{tmp}/x.hsck", "--config", "{cfg}"],
     EXIT_USAGE, "train.epochs"),
    ("removed-train-patch", ["train", "--data", "{data}", "--out", "{tmp}/x.hsck", "--set", "train.patch=8,16,16"],
     EXIT_USAGE, "model.patch"),
    ("zero-epochs", ["train", "--data", "{data}", "--out", "{tmp}/x.hsck", "--set", "train.epochs=0"],
     EXIT_USAGE, "positive"),
    ("zero-restart-period", ["train", "--data", "{data}", "--out", "{tmp}/x.hsck", "--set", "train.t_0=0"],
     EXIT_USAGE, "t_0"),
    ("two-axis-shape", ["gen-phantoms", "--out", "{tmp}/g", "--count", "1", "--set", "phantom.shape=8,32"],
     EXIT_USAGE, "phantom.shape"),
    ("stage2-no-foreground", ["train", "--data", "{empty}", "--stage", "2", "--out", "{tmp}/x.hsck", *FAST_TRAIN],
     EXIT_USAGE, "foreground"),
    ("zero-stride", ["infer", "--model", "{ckpt}", "--input", "{image}", "--output", "{tmp}/o.rvol",
                     "--set", "infer.stride=0,8,8"], EXIT_USAGE, "infer.stride"),
    ("stride-over-window", ["infer", "--model", "{ckpt}", "--input", "{image}", "--output", "{tmp}/o.rvol",
                            "--set", "infer.stride=100,8,8"], EXIT_USAGE, "window"),
    ("mask-payload-two", ["volume", "--mask", "{two}"], EXIT_DATA, "0/1"),
    ("bn-var-shape-1", ["infer", "--model", "{var1}", "--input", "{image}", "--output", "{tmp}/o.rvol"],
     EXIT_DATA, "var1.hsck: shape mismatch for dec.0.block.bn1.running_var"),
    ("bn-var-shape-3", ["infer", "--model", "{var3}", "--input", "{image}", "--output", "{tmp}/o.rvol"],
     EXIT_DATA, "var3.hsck: shape mismatch for dec.0.block.bn1.running_var"),
    ("cascade-swapped", ["infer", "--model", "{s2},{ckpt}", "--input", "{image}", "--output", "{tmp}/o.rvol"],
     EXIT_USAGE, "run_stage2.hsck: --model slot 1 needs a stage-1 checkpoint"),
    ("cascade-stage1-twice", ["infer", "--model", "{ckpt},{ckpt}", "--input", "{image}", "--output", "{tmp}/o.rvol"],
     EXIT_USAGE, "run_stage1.hsck: --model slot 2 needs a stage-2 checkpoint"),
    ("nan-image", ["infer", "--model", "{ckpt},{s2}", "--input", "{nan}", "--output", "{tmp}/o.rvol"],
     EXIT_NUMERIC, "non-finite"),
    *[(f"meta-{name}", ["infer", "--model", f"{{{name}}}", "--input", "{image}", "--output", "{tmp}/o.rvol"],
       EXIT_DATA, f"{name}.hsck: malformed model metadata")
      for name in ("no_levels", "string_levels", "unknown_key", "string_seed", "list_model")],
    ("eval-grid-mismatch", ["eval", "--pred", "{tiny}", "--gt", "{data}"], EXIT_DATA, "case 0000: prediction grid"),
    ("compare-tada-grid-mismatch", ["compare-tada", "--pred", "{tiny}", "--gt", "{data}"],
     EXIT_DATA, "case 0000: prediction grid"),
    ("train-out-directory", ["train", "--data", "{data}", "--out", "{tmp}", "--log", "{tmp}/log.jsonl", *FAST_TRAIN],
     EXIT_USAGE, "output path is a directory"),
    ("infer-output-directory", ["infer", "--model", "{ckpt}", "--input", "{image}", "--output", "{tmp}"],
     EXIT_USAGE, "output path is a directory"),
    ("gen-phantoms-out-file", ["gen-phantoms", "--out", "{cfg}", "--count", "1"], EXIT_USAGE, "is a file"),
    ("removed-in-channels", ["train", "--data", "{data}", "--out", "{tmp}/x.hsck", "--set", "model.in_channels=2"],
     EXIT_USAGE, "model.in_channels"),
    *[(f"train-meta-{name}", ["infer", "--model", f"{{ckpt}},{{{name}}}", "--input", "{image}",
                              "--output", "{tmp}/o.rvol"], EXIT_DATA, f"{name}.hsck: malformed train metadata")
      for name in ("list_train", "int_stage2_shape")],
]


@pytest.fixture(scope="session")
def no_foreground_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_empty")
    rc = main(["gen-phantoms", "--out", str(out), "--count", "2", "--seed", "3", "--set", "phantom.lesion_count=0,0"])
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="session")
def bad_inputs(tmp_path_factory, cascade_ckpts, phantom_dir):
    """Stage-1 checkpoints with one batch-norm buffer reshaped or with malformed
    model metadata, stage-2 checkpoints with malformed train metadata, an
    all-NaN image, and masks on a smaller grid than the phantoms' for every
    phantom case."""
    out = tmp_path_factory.mktemp("cli_bad")
    arrays, meta = load_checkpoint(cascade_ckpts[0])
    for n in (1, 3):
        bad = dict(arrays, **{"dec.0.block.bn1.running_var": np.ones(n, dtype=np.float32)})
        save_checkpoint(out / f"var{n}.hsck", bad, meta)
    metas = {name: json.loads(json.dumps(meta)) for name in
             ("no_levels", "string_levels", "unknown_key", "string_seed", "list_model")}
    del metas["no_levels"]["model"]["config"]["levels"]
    metas["string_levels"]["model"]["config"]["levels"] = "3"
    metas["unknown_key"]["model"]["config"]["depth"] = 3
    metas["string_seed"]["model"]["seed"] = "x"
    metas["list_model"]["model"] = []
    for name, bad_meta in metas.items():
        save_checkpoint(out / f"{name}.hsck", arrays, bad_meta)
    arrays2, meta2 = load_checkpoint(cascade_ckpts[1])
    train_metas = {name: json.loads(json.dumps(meta2)) for name in ("list_train", "int_stage2_shape")}
    train_metas["list_train"]["train"] = []
    train_metas["int_stage2_shape"]["train"]["cascade"]["stage2_input_shape"] = 5
    for name, bad_meta in train_metas.items():
        save_checkpoint(out / f"{name}.hsck", arrays2, bad_meta)
    write_rvol(out / "nan.rvol", VolumeImage(np.full((16, 64, 64), np.nan, np.float32), (5.0, 1.0, 1.0)))
    tiny = out / "tiny"
    tiny.mkdir()
    for p in phantom_dir.glob("case_*_msk.rvol"):
        write_rvol(tiny / p.name, SegMask(np.ones((2, 3, 3), np.uint8), (5.0, 1.0, 1.0)))
    return {"var1": out / "var1.hsck", "var3": out / "var3.hsck", "nan": out / "nan.rvol", "tiny": tiny,
            **{name: out / f"{name}.hsck" for name in (*metas, *train_metas)}}


@pytest.mark.parametrize("argv,code,names", [c[1:] for c in BAD_INVOCATIONS], ids=[c[0] for c in BAD_INVOCATIONS])
def test_bad_invocation_exit_code(
    argv, code, names, tmp_path, phantom_dir, cascade_ckpts, no_foreground_dir, bad_inputs
):
    (tmp_path / "typo.cfg").write_text("train.epoch = 1\n")
    two = tmp_path / "two.rvol"
    write_rvol(two, SegMask(np.zeros((2, 3, 3), np.uint8), (5.0, 1.0, 1.0)))
    two.write_bytes(two.read_bytes()[:-1] + b"\x02")
    places = {
        "tmp": tmp_path,
        "data": phantom_dir,
        "empty": no_foreground_dir,
        "cfg": tmp_path / "typo.cfg",
        "ckpt": cascade_ckpts[0],
        "s2": cascade_ckpts[1],
        **bad_inputs,
        "image": phantom_dir / "case_0000_img.rvol",
        "two": two,
    }
    env = {**os.environ, "PYTHONPATH": str(Path(hemoseg.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "hemoseg.cli", *(a.format(**places) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert names in proc.stderr
