"""Command-line front end: phantom generation, training, inference, reports.

Exit codes are stable: 0 success, 2 usage problems (bad flags, missing
inputs, malformed config), 3 data-format problems (corrupt volume or
checkpoint files, mismatched case sets), 4 numeric failures (non-finite
loss, failed phantom placement).

Every command that produces files also writes a run manifest JSON next to
its outputs: the command line, the fully resolved configuration, seed,
input/output paths, tool version, and wall time.  A run can be repeated
from its manifest alone.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigFileError,
    apply_overrides,
    cascade_config_from,
    infer_stride_from,
    load_settings,
    phantom_spec_from,
    train_config_from,
)
from .inference import timed_predict
from .losses import confusion, metrics
from .model import CascadeConfig, ConfigError, build_unet
from .phantoms import PhantomError, case_paths, generate_dataset, list_cases
from .training import (
    CheckpointError,
    DatasetError,
    TrainingAbort,
    load_stage_checkpoint,
    train_cascade,
    train_stage,
    train_stage2,
)
from .volumes import RvolError, SegMask, read_rvol, write_rvol
from .volumetry import compare_methods, tada_measure, tada_volume_ml, voxel_volume_ml

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(ValueError):
    """Bad invocation: missing inputs, inconsistent flags."""


def write_manifest(path, command: str, config: dict, seed, inputs, outputs, started: float) -> Path:
    manifest = {
        "command": command,
        "config": dict(sorted(config.items())),
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "wall_seconds": round(time.perf_counter() - started, 6),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _settings(args) -> dict[str, str]:
    settings = load_settings(args.config) if getattr(args, "config", None) else {}
    return apply_overrides(settings, getattr(args, "set", None))


def _read_mask(path) -> SegMask:
    volume = read_rvol(path)
    if not isinstance(volume, SegMask):
        raise RvolError(f"{path}: expected a mask volume, found an image volume")
    return volume


def _load_dataset(data_dir):
    d = Path(data_dir)
    if not d.is_dir():
        raise UsageError(f"data directory not found: {d}")
    cases = list_cases(d)
    if not cases:
        raise UsageError(f"no case_*_img.rvol / case_*_msk.rvol pairs in {d}")
    dataset = []
    for case_id in cases:
        img_path, msk_path = case_paths(d, case_id)
        dataset.append((read_rvol(img_path), _read_mask(msk_path)))
    return cases, dataset


def cmd_gen_phantoms(args) -> int:
    started = time.perf_counter()
    settings = _settings(args)
    if args.count < 0:
        raise UsageError(f"count must be >= 0, got {args.count}")
    spec = phantom_spec_from(settings, seed=args.seed)
    out = Path(args.out)
    generate_dataset(out, args.count, args.seed, spec)
    outputs = sorted(str(p) for p in out.glob("case_*.rvol"))
    write_manifest(
        out / "manifest.json",
        "gen-phantoms",
        settings,
        args.seed,
        [args.config] if args.config else [],
        outputs + [str(out / "dataset.json")],
        started,
    )
    print(f"wrote {args.count} phantom pairs to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.perf_counter()
    settings = _settings(args)
    _, dataset = _load_dataset(args.data)
    out = Path(args.out)
    overrides = {"checkpoint_path": str(out), "log_path": args.log}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = train_config_from(settings, **overrides)
    cascade_cfg = cascade_config_from(settings)
    if args.stage == "1":
        paths = [train_stage(build_unet(cascade_cfg.stage1, seed=cfg.seed), dataset, cfg)[0]]
    elif args.stage == "2":
        paths = [train_stage2(build_unet(cascade_cfg.stage2, seed=cfg.seed), dataset, cascade_cfg, cfg)[0]]
    else:
        paths = list(train_cascade(dataset, cascade_cfg, cfg))
    write_manifest(
        out.with_name(out.stem + "_manifest.json"),
        "train",
        settings,
        cfg.seed,
        [args.data] + ([args.config] if args.config else []),
        [str(p) for p in paths],
        started,
    )
    for p in paths:
        print(f"checkpoint: {p}")
    return EXIT_OK


def _cascade_from_checkpoints(stage1, stage2, meta2) -> CascadeConfig:
    info = meta2.get("train", {}).get("cascade", {})
    return CascadeConfig(
        stage1=stage1.config,
        stage2=stage2.config,
        stage2_input_shape=tuple(info.get("stage2_input_shape", stage2.config.input_patch_shape)),
        roi_margin_fraction=tuple(info.get("roi_margin_fraction", (0.25, 0.25, 0.25))),
    )


def cmd_infer(args) -> int:
    started = time.perf_counter()
    settings = _settings(args)
    ckpts = [p for p in args.model.split(",") if p]
    if len(ckpts) not in (1, 2):
        raise UsageError(f"--model takes one checkpoint or two comma-separated, got {args.model!r}")
    image = read_rvol(args.input)
    if isinstance(image, SegMask):
        raise UsageError(f"{args.input}: --input must be an image volume, not a mask")
    stride = infer_stride_from(settings)
    stage1, _, _ = load_stage_checkpoint(ckpts[0])
    if stride is not None and any(s > w for s, w in zip(stride, stage1.config.input_patch_shape)):
        raise UsageError(f"infer.stride {stride} exceeds the stage-1 window {stage1.config.input_patch_shape}")
    if len(ckpts) == 2:
        stage2, _, meta2 = load_stage_checkpoint(ckpts[1])
        cascade_cfg = _cascade_from_checkpoints(stage1, stage2, meta2)
        mask, seconds, info = timed_predict(image, stage1, stage2, cascade_cfg, stride=stride)
    else:
        mask, seconds, info = timed_predict(image, stage1, stride=stride)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_rvol(out, mask)
    sidecar = {
        "input": str(args.input),
        "mode": info["mode"],
        "roi_box": info["roi_box"],
        "patch_count": info["patch_count"],
        "seconds": round(seconds, 6),
        "volume_ml": voxel_volume_ml(mask),
        "foreground_voxels": int(mask.voxels.sum()),
    }
    sidecar_path = out.with_suffix(".json")
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(
        out.with_name(out.stem + "_manifest.json"),
        "infer",
        settings,
        None,
        [args.input] + ckpts,
        [str(out), str(sidecar_path)],
        started,
    )
    print(f"mask: {out} ({sidecar['volume_ml']:.3f} ml, {info['mode']})")
    return EXIT_OK


def _mask_cases(directory) -> dict[str, Path]:
    d = Path(directory)
    if not d.is_dir():
        raise UsageError(f"directory not found: {d}")
    return {p.name[5:-9]: p for p in sorted(d.glob("case_*_msk.rvol"))}


def _paired_cases(pred_dir, gt_dir):
    pred, gt = _mask_cases(pred_dir), _mask_cases(gt_dir)
    if set(pred) != set(gt):
        missing_pred = sorted(set(gt) - set(pred))
        missing_gt = sorted(set(pred) - set(gt))
        raise RvolError(
            f"case sets differ: missing from predictions {missing_pred}, missing from ground truth {missing_gt}"
        )
    if not pred:
        raise UsageError("no case_*_msk.rvol files to compare")
    return [(cid, pred[cid], gt[cid]) for cid in sorted(pred)]


def cmd_eval(args) -> int:
    started = time.perf_counter()
    pairs = _paired_cases(args.pred, args.gt)
    per_case = {}
    for cid, pred_path, gt_path in pairs:
        pred = _read_mask(pred_path)
        gt = _read_mask(gt_path)
        per_case[cid] = metrics(confusion(pred.voxels, gt.voxels))
    names = ("dsc", "iou", "precision", "recall")
    mean = {k: float(np.mean([m[k] for m in per_case.values()])) for k in names}
    payload = {"cases": per_case, "mean": mean, "case_count": len(per_case)}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        write_manifest(
            out.with_name(out.stem + "_manifest.json"),
            "eval",
            {},
            None,
            [args.pred, args.gt],
            [str(out)],
            started,
        )
    return EXIT_OK


def cmd_volume(args) -> int:
    started = time.perf_counter()
    mask = _read_mask(args.mask)
    payload = {"mask": str(args.mask), "spacing_mm": list(mask.spacing_mm)}
    empty = not mask.voxels.any()
    if args.method in ("voxel", "both"):
        payload["voxel"] = {"volume_ml": voxel_volume_ml(mask)}
    if args.method in ("tada", "both"):
        if empty:
            payload["tada"] = {"status": "no lesion"}
        else:
            m = tada_measure(mask)
            payload["tada"] = {
                "status": "ok",
                "a_mm": m.a_mm,
                "b_mm": m.b_mm,
                "c_mm": m.c_mm,
                "slice_index": m.slice_index,
                "volume_ml": tada_volume_ml(m),
            }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        write_manifest(
            out.with_name(out.stem + "_manifest.json"),
            "volume",
            {"method": args.method},
            None,
            [args.mask],
            [str(out)],
            started,
        )
    return EXIT_OK


def _lesion_classes(gt_dir) -> dict[str, str]:
    path = Path(gt_dir) / "dataset.json"
    if not path.exists():
        return {}
    with open(path) as fh:
        payload = json.load(fh)
    return {c["case_id"]: c.get("lesion_class", "solitary") for c in payload.get("cases", [])}


def cmd_compare_tada(args) -> int:
    started = time.perf_counter()
    pairs = _paired_cases(args.pred, args.gt)
    classes = _lesion_classes(args.gt)
    entries = []
    for cid, pred_path, gt_path in pairs:
        entry = {
            "case_id": cid,
            "pred": _read_mask(pred_path),
            "gt": _read_mask(gt_path),
            "lesion_class": classes.get(cid, "solitary"),
        }
        sidecar = pred_path.with_suffix(".json")
        if sidecar.exists():
            with open(sidecar) as fh:
                entry["model_seconds"] = json.load(fh).get("seconds")
        entries.append(entry)
    report = compare_methods(entries)
    print(report.to_text(), end="")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_json() + "\n")
        table_path = out.with_suffix(".txt")
        table_path.write_text(report.to_text())
        write_manifest(
            out.with_name(out.stem + "_manifest.json"),
            "compare-tada",
            {},
            None,
            [args.pred, args.gt],
            [str(out), str(table_path)],
            started,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemoseg",
        description="Two-stage 3D hemorrhage segmentation and volumetry on RVOL volumes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value settings file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one setting")

    p = sub.add_parser("gen-phantoms", help="generate a synthetic CT phantom dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, required=True, help="number of cases")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(run=cmd_gen_phantoms)

    p = sub.add_parser("train", help="train stage 1, stage 2, or the full cascade")
    p.add_argument("--data", required=True, help="dataset directory from gen-phantoms")
    p.add_argument("--stage", choices=("1", "2", "cascade"), default="1")
    p.add_argument("--out", required=True, help="checkpoint path (.hsck)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--log", default=None, help="JSONL per-step training log")
    common(p)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("infer", help="segment one volume with one or two checkpoints")
    p.add_argument("--model", required=True, help="CKPT for single-stage or CKPT1,CKPT2 for cascade")
    p.add_argument("--input", required=True, help="input image RVOL")
    p.add_argument("--output", required=True, help="output mask RVOL")
    common(p)
    p.set_defaults(run=cmd_infer)

    p = sub.add_parser("eval", help="segmentation metrics of predictions vs ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted case_*_msk.rvol")
    p.add_argument("--gt", required=True, help="directory of reference case_*_msk.rvol")
    p.add_argument("--out", default=None, help="write metrics JSON here")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("volume", help="volume of one mask by voxel count and/or ABC/2")
    p.add_argument("--mask", required=True, help="mask RVOL")
    p.add_argument("--method", choices=("voxel", "tada", "both"), default="both")
    p.add_argument("--out", default=None, help="write JSON report here")
    p.set_defaults(run=cmd_volume)

    p = sub.add_parser("compare-tada", help="volume-MAE table: voxel counting vs ABC/2")
    p.add_argument("--pred", required=True, help="directory of predicted masks")
    p.add_argument("--gt", required=True, help="dataset directory with ground truth + dataset.json")
    p.add_argument("--out", default=None, help="write JSON report here (.txt table beside it)")
    p.set_defaults(run=cmd_compare_tada)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (UsageError, ConfigFileError, ConfigError, DatasetError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RvolError, CheckpointError, json.JSONDecodeError) as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingAbort, PhantomError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
