"""Command-line front end: phantom generation, training, inference, reports.

Exit codes are stable: 0 success, 2 usage problems (bad flags, missing
inputs, malformed config, an output path that is a directory, any other
``OSError`` from a read or a write, such as a full disk), 3
data-format problems (corrupt volume or checkpoint files, mismatched case
sets or mask grids), 4 numeric failures (non-finite loss or inference
probabilities, failed phantom placement).

Each command returns what it made, and ``main`` writes the run manifest
JSON next to its outputs: the arguments ``main`` received (``argv``), the
settings given (``--config`` file plus ``--set``, not the resolved
configuration), seed, input/output paths, tool version, and wall time.
Every file but the appended ``train --log`` is written through
``volumes.write_file_atomic``, so a failed write leaves the previous file
intact.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
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
from .model import ConfigError, build_unet
from .phantoms import PhantomError, case_paths, generate_dataset, list_cases
from .training import (
    CheckpointError,
    DatasetError,
    TrainingAbort,
    load_cascade,
    load_stage_checkpoint,
    train_cascade,
    train_stage,
    train_stage2,
)
from .volumes import RvolError, SegMask, read_rvol, write_file_atomic, write_rvol
from .volumetry import compare_methods, tada_measure, tada_volume_ml, voxel_volume_ml

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(ValueError):
    """Bad invocation: missing inputs, inconsistent flags."""


@dataclass
class Made:
    """What a command wrote, for ``main`` to record in the manifest at ``manifest``."""

    manifest: Path
    inputs: list
    outputs: list
    config: dict = field(default_factory=dict)
    seed: int | None = None


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_file(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_file_atomic(path, [text.encode()])


def _manifest_beside(out: Path) -> Path:
    return out.with_name(out.stem + "_manifest.json")


def _refuse_directories(*paths) -> None:
    """Refuse, before any work, an output file path that names a directory."""
    for path in paths:
        if path is not None and Path(path).is_dir():
            raise UsageError(f"output path is a directory: {path}")


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
    return dataset


def cmd_gen_phantoms(args) -> Made:
    settings = _settings(args)
    if args.count < 0:
        raise UsageError(f"count must be >= 0, got {args.count}")
    spec = phantom_spec_from(settings, seed=args.seed)
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise UsageError(f"output directory is a file: {out}")
    records = generate_dataset(out, args.count, args.seed, spec)
    outputs = [p for r in records for p in case_paths(out, r["case_id"])] + [out / "dataset.json"]
    print(f"wrote {args.count} phantom pairs to {out}")
    return Made(out / "manifest.json", [args.config] if args.config else [], outputs, settings, args.seed)


def cmd_train(args) -> Made:
    settings = _settings(args)
    _refuse_directories(args.out, args.log)
    dataset = _load_dataset(args.data)
    out = Path(args.out)
    overrides = {"checkpoint_path": str(out), "log_path": args.log}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = train_config_from(settings, **overrides)
    cascade_cfg = cascade_config_from(settings)
    if args.log:
        Path(args.log).parent.mkdir(parents=True, exist_ok=True)
    if args.stage == "1":
        paths = [train_stage(build_unet(cascade_cfg.stage1, seed=cfg.seed), dataset, cfg)[0]]
    elif args.stage == "2":
        paths = [train_stage2(build_unet(cascade_cfg.stage2, seed=cfg.seed), dataset, cascade_cfg, cfg)[0]]
    else:
        paths = list(train_cascade(dataset, cascade_cfg, cfg))
    for p in paths:
        print(f"checkpoint: {p}")
    inputs = [args.data] + ([args.config] if args.config else [])
    return Made(_manifest_beside(out), inputs, paths + ([args.log] if args.log else []), settings, cfg.seed)


def cmd_infer(args) -> Made:
    settings = _settings(args)
    _refuse_directories(args.output)
    ckpts = [p for p in args.model.split(",") if p]
    if len(ckpts) not in (1, 2):
        raise UsageError(f"--model takes one checkpoint or two comma-separated, got {args.model!r}")
    image = read_rvol(args.input)
    if isinstance(image, SegMask):
        raise UsageError(f"{args.input}: --input must be an image volume, not a mask")
    stride = infer_stride_from(settings)
    models = load_cascade(ckpts) if len(ckpts) == 2 else load_stage_checkpoint(ckpts[0])[:1]
    window = models[0].config.input_patch_shape
    if stride is not None and any(s > w for s, w in zip(stride, window)):
        raise UsageError(f"infer.stride {stride} exceeds the stage-1 window {window}")
    mask, seconds, info = timed_predict(image, *models, stride=stride)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_rvol(out, mask)
    sidecar = {
        "input": str(args.input),
        **info,
        "seconds": round(seconds, 6),
        "volume_ml": voxel_volume_ml(mask),
        "foreground_voxels": int(mask.voxels.sum()),
    }
    sidecar_path = _write_file(out.with_suffix(".json"), _json(sidecar))
    print(f"mask: {out} ({sidecar['volume_ml']:.3f} ml, {info['mode']})")
    return Made(_manifest_beside(out), [args.input] + ckpts, [out, sidecar_path], settings)


def _mask_cases(directory) -> dict[str, Path]:
    d = Path(directory)
    if not d.is_dir():
        raise UsageError(f"directory not found: {d}")
    return {p.name[5:-9]: p for p in sorted(d.glob("case_*_msk.rvol"))}


def _mask_pairs(pred_dir, gt_dir):
    """Yield (case id, prediction path, prediction, ground truth) per case.

    The two directories must hold the same case ids, and each pair must
    share one grid (shape and spacing); RvolError names what differs.
    """
    pred, gt = _mask_cases(pred_dir), _mask_cases(gt_dir)
    if set(pred) != set(gt):
        missing_pred = sorted(set(gt) - set(pred))
        missing_gt = sorted(set(pred) - set(gt))
        raise RvolError(
            f"case sets differ: missing from predictions {missing_pred}, missing from ground truth {missing_gt}"
        )
    if not pred:
        raise UsageError("no case_*_msk.rvol files to compare")
    for cid in sorted(pred):
        p, g = _read_mask(pred[cid]), _read_mask(gt[cid])
        if p.voxels.shape != g.voxels.shape or p.spacing_mm != g.spacing_mm:
            raise RvolError(
                f"case {cid}: prediction grid {p.voxels.shape} at {p.spacing_mm} mm differs from "
                f"ground truth {g.voxels.shape} at {g.spacing_mm} mm"
            )
        yield cid, pred[cid], p, g


def cmd_eval(args) -> Made | None:
    _refuse_directories(args.out)
    per_case = {cid: metrics(confusion(p.voxels, g.voxels)) for cid, _, p, g in _mask_pairs(args.pred, args.gt)}
    names = ("dsc", "iou", "precision", "recall")
    mean = {k: float(np.mean([m[k] for m in per_case.values()])) for k in names}
    text = _json({"cases": per_case, "mean": mean, "case_count": len(per_case)})
    print(text, end="")
    if not args.out:
        return None
    out = _write_file(args.out, text)
    return Made(_manifest_beside(out), [args.pred, args.gt], [out])


def cmd_volume(args) -> Made | None:
    _refuse_directories(args.out)
    mask = _read_mask(args.mask)
    payload = {"mask": str(args.mask), "spacing_mm": list(mask.spacing_mm)}
    if args.method in ("voxel", "both"):
        payload["voxel"] = {"volume_ml": voxel_volume_ml(mask)}
    if args.method in ("tada", "both"):
        if not mask.voxels.any():
            payload["tada"] = {"status": "no lesion"}
        else:
            m = tada_measure(mask)
            payload["tada"] = {"status": "ok", **asdict(m), "volume_ml": tada_volume_ml(m)}
    text = _json(payload)
    print(text, end="")
    if not args.out:
        return None
    out = _write_file(args.out, text)
    return Made(_manifest_beside(out), [args.mask], [out], {"method": args.method})


def _lesion_classes(gt_dir) -> dict[str, str]:
    path = Path(gt_dir) / "dataset.json"
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    return {c["case_id"]: c.get("lesion_class", "solitary") for c in payload.get("cases", [])}


def cmd_compare_tada(args) -> Made | None:
    _refuse_directories(args.out)
    classes = _lesion_classes(args.gt)
    entries = []
    for cid, pred_path, pred, gt in _mask_pairs(args.pred, args.gt):
        entry = {"case_id": cid, "pred": pred, "gt": gt, "lesion_class": classes.get(cid, "solitary")}
        sidecar = pred_path.with_suffix(".json")
        if sidecar.exists():
            entry["model_seconds"] = json.loads(sidecar.read_text()).get("seconds")
        entries.append(entry)
    report = compare_methods(entries)
    print(report.to_text(), end="")
    if not args.out:
        return None
    out = _write_file(args.out, report.to_json() + "\n")
    table_path = _write_file(out.with_suffix(".txt"), report.to_text())
    return Made(_manifest_beside(out), [args.pred, args.gt], [out, table_path])


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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        made = args.run(args)
        if made is not None:
            manifest = {
                "argv": argv,
                "command": args.cmd,
                "config": made.config,
                "seed": made.seed,
                "inputs": [str(p) for p in made.inputs],
                "outputs": [str(p) for p in made.outputs],
                "tool_version": __version__,
                "wall_seconds": round(time.perf_counter() - started, 6),
            }
            _write_file(made.manifest, _json(manifest))
    except (UsageError, ConfigFileError, ConfigError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RvolError, CheckpointError, json.JSONDecodeError) as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingAbort, PhantomError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
