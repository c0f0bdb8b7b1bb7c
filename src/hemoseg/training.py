"""Training loops, the HSCK checkpoint container, and run resumption.

Checkpoint layout (HSCK), all little-endian:

    bytes 0-3   magic "HSCK"
    byte  4     version, u8, currently 1
    bytes 5-8   record count, u32
    records     name_len u16, name utf-8, dtype u8, ndim u8,
                dims ndim x u32, raw payload

dtype codes: 0 float32, 1 float64, 2 uint8, 3 int64; saving an array of
any other dtype raises CkptUnknownDtype, naming the record, before a byte
is written.  Records are sorted by name, so identical state always
serializes to identical bytes; the reader refuses names that are not
strictly increasing and bytes after the last record.  Run metadata (model
config, training position) rides along as a JSON blob in the reserved
"__meta__" record.

Every stochastic choice in a run is drawn from a fresh generator seeded by
(seed, stream, step), never from a long-lived stream.  Resuming from a
checkpoint therefore replays the exact trajectory of an uninterrupted run.

Each stage has one code path: ``train_stage`` (stage 1, patches cropped to
the model's input patch shape) and ``train_stage2`` (ground-truth ROIs)
take a built model, and ``train_cascade`` runs both on one windowed copy of
the dataset.  Every loop, ``overfit_fixed_batch`` included, goes through
the one step loop ``_run_steps``.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .augment import AugmentPolicy, augment, hu_window, zscore_normalize
from .inference import RoiBox, extract_roi
from .losses import deep_supervision_loss
from .model import CascadeConfig, ConfigError, UNet3D, UNet3DConfig, build_unet
from .optim import AdamW, CosineWarmRestarts
from .volumes import resize_nearest, resize_trilinear, write_file_atomic

CKPT_MAGIC = b"HSCK"
CKPT_VERSION = 1
_HEAD = struct.Struct("<4sBI")
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2, np.dtype(np.int64): 3}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
META_KEY = "__meta__"


class CheckpointError(Exception):
    pass


class CkptBadMagic(CheckpointError):
    pass


class CkptUnknownVersion(CheckpointError):
    pass


class CkptUnknownDtype(CheckpointError):
    pass


class CkptTruncated(CheckpointError):
    pass


class DatasetError(ValueError):
    """The dataset cannot train the stage: it is empty, or stage 2 finds no foreground."""


class TrainingAbort(RuntimeError):
    """Loss or state went non-finite; carries the diagnostic context.

    ``array`` names the first non-finite array of the checkpoint a step was
    about to write (None when the loss went non-finite)."""

    def __init__(self, step: int, lr: float, per_level, array: str | None = None):
        if array is None:
            msg = f"non-finite loss at step {step} (lr {lr:.3g}): per-level {per_level}"
        else:
            msg = f"non-finite {array} after step {step} (lr {lr:.3g}); no checkpoint written"
        super().__init__(msg)
        self.step = step
        self.lr = lr
        self.per_level = per_level
        self.array = array


@dataclass(frozen=True)
class StepRecord:
    """One optimizer step's numbers, detached from the autodiff graph.

    Keeping plain floats here matters: holding the loss Tensor itself would
    pin every step's full activation graph in memory for the whole run.
    """

    step: int
    lr: float
    total_value: float
    per_level: tuple[tuple[int, float, float], ...]


@dataclass
class TrainConfig:
    epochs: int = 10
    steps_per_epoch: int = 20
    batch_size: int = 2
    seed: int = 0
    checkpoint_path: str | None = "checkpoint.hsck"  # None: save no checkpoint
    log_path: str | None = None
    lr: float = 1e-2
    eta_min: float = 1e-5
    t_0: int = 10
    t_mult: int = 2
    weight_decay: float = 1e-4
    jitter_fraction: float = 0.1

    def validate(self) -> None:
        if min(self.epochs, self.steps_per_epoch, self.batch_size) < 1:
            raise ValueError("epochs, steps_per_epoch, and batch_size must be positive")
        for name in ("seed", "lr", "eta_min", "weight_decay", "jitter_fraction"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        CosineWarmRestarts(eta_max=self.lr, eta_min=self.eta_min, t_0=self.t_0, t_mult=self.t_mult)  # checks the schedule


# ---------------------------------------------------------------------------
# checkpoint container


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> Path:
    payload = dict(arrays)
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    payload[META_KEY] = np.frombuffer(meta_bytes, dtype=np.uint8)
    chunks = [_HEAD.pack(CKPT_MAGIC, CKPT_VERSION, len(payload))]
    for name in sorted(payload):
        arr = np.ascontiguousarray(payload[name])
        code = _DTYPE_CODES.get(arr.dtype)
        if code is None:
            raise CkptUnknownDtype(f"{path}: record {name!r} has dtype {arr.dtype}, which HSCK does not store")
        nb = name.encode()
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<BB", code, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_file_atomic(path, chunks)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and metadata of an HSCK file.  A file that does not parse
    (bad magic or version, a cut-short record, an unknown dtype code, a
    record name that is not UTF-8, records not in strictly increasing name
    order, so also a duplicate name, bytes after the last record, metadata
    that is not a UTF-8 JSON object) raises CheckpointError naming the
    file."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEAD.size:
        raise CkptTruncated(f"{path}: shorter than the {_HEAD.size}-byte header")
    magic, version, count = _HEAD.unpack_from(raw)
    if magic != CKPT_MAGIC:
        raise CkptBadMagic(f"{path}: bad magic {magic!r}")
    if version != CKPT_VERSION:
        raise CkptUnknownVersion(f"{path}: unsupported version {version}")
    pos = _HEAD.size
    arrays: dict[str, np.ndarray] = {}
    prev = None
    for _ in range(count):
        try:
            (nlen,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos : pos + nlen].decode()
            pos += nlen
            code, ndim = struct.unpack_from("<BB", raw, pos)
            pos += 2
            dims = struct.unpack_from(f"<{ndim}I", raw, pos)
            pos += 4 * ndim
        except struct.error as exc:
            raise CkptTruncated(f"{path}: record header cut short: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: a record name is not UTF-8: {exc}") from exc
        if name == prev:
            raise CheckpointError(f"{path}: duplicate record {name!r}")
        if prev is not None and name < prev:
            raise CheckpointError(f"{path}: record {name!r} out of name order, after {prev!r}")
        prev = name
        if code not in _CODE_DTYPES:
            raise CkptUnknownDtype(f"{path}: record {name!r} has unknown dtype code {code}")
        dtype = _CODE_DTYPES[code]
        nbytes = math.prod(dims) * dtype.itemsize  # Python ints: a product of u32 dims cannot wrap
        if pos + nbytes > len(raw):
            raise CkptTruncated(f"{path}: record {name!r} payload cut short")
        arrays[name] = np.frombuffer(raw[pos : pos + nbytes], dtype=dtype.newbyteorder("<")).reshape(dims).copy()
        pos += nbytes
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} bytes after the last record")
    meta_arr = arrays.pop(META_KEY, None)
    try:
        meta = json.loads(bytes(meta_arr).decode()) if meta_arr is not None else {}
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CheckpointError(f"{path}: malformed {META_KEY} record: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: malformed {META_KEY} record: a {type(meta).__name__}, not an object")
    return arrays, meta


def config_to_dict(cfg: UNet3DConfig) -> dict:
    """JSON-safe form of a model config: its fields, with the head set as a sorted list."""
    return {**asdict(cfg), "deep_supervision_levels": sorted(cfg.deep_supervision_levels)}


def config_from_dict(d: dict) -> UNet3DConfig:
    return UNet3DConfig(**d)


def save_stage_checkpoint(path, model: UNet3D, optimizer: AdamW | None, train_meta: dict) -> Path:
    arrays = model.state_arrays()
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
    meta = {
        "tool_version": __version__,
        "model": {"config": config_to_dict(model.config), "seed": model.seed},
        "train": train_meta,
    }
    return save_checkpoint(path, arrays, meta)


def load_stage_checkpoint(path) -> tuple[UNet3D, dict[str, np.ndarray], dict]:
    """Rebuild the model from a checkpoint; returns (model, optimizer arrays, meta).

    Model metadata that cannot build a model (a missing or mistyped field, a
    config that does not validate), state arrays whose names or shapes do
    not fit the model it builds, or ``train`` metadata that is not an object
    raise CheckpointError naming the file.  ``meta["train"]`` is {} when absent.
    """
    arrays, meta = load_checkpoint(path)
    if "model" not in meta:
        raise CheckpointError(f"{path}: no model metadata")
    if not isinstance(meta.setdefault("train", {}), dict):
        raise CheckpointError(f"{path}: malformed train metadata: a {type(meta['train']).__name__}, not an object")
    model_arrays = {k: v for k, v in arrays.items() if not k.startswith("optim.")}
    optim_arrays = {k: v for k, v in arrays.items() if k.startswith("optim.")}
    try:
        model = build_unet(config_from_dict(meta["model"]["config"]), seed=meta["model"]["seed"])
        model.load_state_arrays(model_arrays)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed model metadata: {type(exc).__name__}: {exc}") from exc
    return model, optim_arrays, meta


# ---------------------------------------------------------------------------
# batch assembly


def _window_dataset(dataset):
    if len(dataset) == 0:
        raise DatasetError("empty dataset")
    return [(hu_window(img).voxels, msk.voxels) for img, msk in dataset]


def _stage1_batch(prepared, cfg: TrainConfig, policy: AugmentPolicy, step: int):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, step]))
    xs, ys = [], []
    for _ in range(cfg.batch_size):
        img, msk = prepared[int(rng.integers(len(prepared)))]
        patch_img, patch_msk = augment(img, msk, rng, policy)
        xs.append(zscore_normalize(patch_img))
        ys.append(patch_msk.astype(np.int64))
    return np.stack(xs)[:, None], np.stack(ys)


def stage2_training_box(mask: np.ndarray, margin_fraction, jitter_fraction: float, rng):
    """GT-derived ROI for stage-2 training: margin-grown box with jittered bounds.

    Returns None for empty masks.  With zero jitter and zero margin this is
    exactly the tight bounding box.
    """
    box = extract_roi(mask, margin_fraction)
    if box is None:
        return None
    if jitter_fraction == 0:
        return box
    lo, hi = list(box.lo), list(box.hi)
    for ax in range(3):
        extent = hi[ax] - lo[ax]
        jlo = int(np.rint(rng.uniform(-jitter_fraction, jitter_fraction) * extent))
        jhi = int(np.rint(rng.uniform(-jitter_fraction, jitter_fraction) * extent))
        nlo = int(np.clip(lo[ax] + jlo, 0, mask.shape[ax] - 1))
        nhi = int(np.clip(hi[ax] + jhi, nlo + 1, mask.shape[ax]))
        lo[ax], hi[ax] = nlo, nhi
    return RoiBox(lo=tuple(lo), hi=tuple(hi))


def _stage2_batch(prepared, candidates, cascade_cfg, cfg: TrainConfig, step: int):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, step]))
    target = tuple(cascade_cfg.stage2_input_shape)
    xs, ys = [], []
    for _ in range(cfg.batch_size):
        img, msk = prepared[candidates[int(rng.integers(len(candidates)))]]
        box = stage2_training_box(msk, cascade_cfg.roi_margin_fraction, cfg.jitter_fraction, rng)
        roi_img = img[box.slices()]
        roi_msk = msk[box.slices()]
        xs.append(zscore_normalize(resize_trilinear(roi_img, target)))
        ys.append(resize_nearest(roi_msk, target).astype(np.int64))
    return np.stack(xs)[:, None], np.stack(ys)


# ---------------------------------------------------------------------------
# training loops


def _log_step(log_path, record: dict) -> None:
    if log_path is None:
        return
    with open(log_path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# TrainConfig fields that fix a run's trajectory: checkpoints record them and resume must match them
_TRAJECTORY_FIELDS = ("seed", "steps_per_epoch", "batch_size", "lr", "eta_min", "t_0", "t_mult", "weight_decay")


def _run_steps(model, make_batch, cfg: TrainConfig, stage_tag: str, optimizer=None, start_step=0, extra_meta=None):
    """The one step loop: batch, forward, loss, backward, update, log, and a
    checkpoint at every epoch end.  Returns the per-step records.  The loop
    runs in one ``autodiff.scratch_arena``, so its steps reuse the conv
    kernels' scratch buffers."""
    from .autodiff import Tensor, scratch_arena

    optimizer = optimizer or _make_optimizer(model, cfg)
    sched = CosineWarmRestarts(eta_max=cfg.lr, eta_min=cfg.eta_min, t_0=cfg.t_0, t_mult=cfg.t_mult)
    total_steps = cfg.epochs * cfg.steps_per_epoch
    history = []
    model.train()
    with scratch_arena():
        for step in range(start_step, total_steps):
            x, labels = make_batch(step)
            lr = sched.lr_at(step / cfg.steps_per_epoch)
            optimizer.lr = lr
            optimizer.zero_grad()
            report = deep_supervision_loss(model(Tensor(x.astype(np.float32))), labels)
            total = report.total_value
            if not np.isfinite(total):
                raise TrainingAbort(step, lr, report.per_level)
            report.total.backward()
            optimizer.step()
            history.append(StepRecord(step, lr, total, tuple(report.per_level)))
            _log_step(
                cfg.log_path,
                {
                    "stage": stage_tag,
                    "step": step,
                    "lr": lr,
                    "total": total,
                    "per_level": [[l, d, c] for l, d, c in report.per_level],
                },
            )
            epoch_end = (step + 1) % cfg.steps_per_epoch == 0 or step + 1 == total_steps
            if epoch_end and cfg.checkpoint_path is not None:
                bad = _first_non_finite(model, optimizer)
                if bad is not None:
                    raise TrainingAbort(step, lr, report.per_level, bad)
                train_meta = {
                    "stage": stage_tag,
                    "next_step": step + 1,
                    "epochs": cfg.epochs,
                    **{name: getattr(cfg, name) for name in _TRAJECTORY_FIELDS},
                    **(extra_meta or {}),
                }
                save_stage_checkpoint(cfg.checkpoint_path, model, optimizer, train_meta)
    return history


def _first_non_finite(model, optimizer) -> str | None:
    """The name of the first array a stage checkpoint of ``model`` and
    ``optimizer`` would hold that is not all finite, or None."""
    for arrays in (model.state_arrays(), optimizer.state_arrays()):
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                return name
    return None


def _make_optimizer(model, cfg: TrainConfig) -> AdamW:
    return AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)


def _train_stage1(model, prepared, cfg: TrainConfig, optimizer=None, start_step=0, extra_meta=None):
    policy = AugmentPolicy(crop_shape=tuple(model.config.input_patch_shape))
    history = _run_steps(
        model, lambda step: _stage1_batch(prepared, cfg, policy, step), cfg, "1", optimizer, start_step, extra_meta
    )
    return Path(cfg.checkpoint_path), history


def train_stage(model, dataset, cfg: TrainConfig):
    """Patch-sampled training of one network; returns (checkpoint path, history).

    dataset is a list of (VolumeImage in HU, SegMask) pairs; patches are
    cropped to the model's input patch shape.  Aborts with TrainingAbort if
    the loss goes non-finite.
    """
    cfg.validate()
    return _train_stage1(model, _window_dataset(dataset), cfg)


def resume_stage(checkpoint_path, dataset, cfg: TrainConfig):
    """Continue a stage-1 run from its checkpoint; replays the uninterrupted trajectory.

    Raises ValueError, naming the field, when one of ``_TRAJECTORY_FIELDS``
    of ``cfg`` differs from the checkpoint's recorded run (``epochs`` may
    grow), and when the checkpoint is not a stage-1 checkpoint; a missing
    or non-integer ``next_step`` raises CheckpointError naming the file.
    """
    model, optim_arrays, meta = load_stage_checkpoint(checkpoint_path)
    recorded = meta["train"]
    if recorded.get("stage") != "1":
        raise ValueError(f"{checkpoint_path}: stage {recorded.get('stage')!r} checkpoint; only stage 1 resumes")
    for name in _TRAJECTORY_FIELDS:
        if recorded.get(name) != getattr(cfg, name):
            raise ValueError(
                f"{checkpoint_path}: {name} is {getattr(cfg, name)!r} but the checkpoint's run used {recorded.get(name)!r}"
            )
    next_step = recorded.get("next_step")
    if not isinstance(next_step, int) or isinstance(next_step, bool) or next_step < 0:
        raise CheckpointError(f"{checkpoint_path}: train metadata next_step is {next_step!r}, not an integer >= 0")
    optimizer = _make_optimizer(model, cfg)
    if optim_arrays:
        optimizer.load_state_arrays(optim_arrays)
    cfg.validate()
    return _train_stage1(model, _window_dataset(dataset), cfg, optimizer, next_step)


def _derived_path(base, tag: str) -> Path:
    p = Path(base)
    suffix = p.suffix or ".hsck"
    return p.with_name(f"{p.stem}_{tag}{suffix}")


def _cascade_meta(cascade_cfg) -> dict:
    return {
        "cascade": {
            "roi_margin_fraction": list(cascade_cfg.roi_margin_fraction),
            "stage2_input_shape": list(cascade_cfg.stage2_input_shape),
        }
    }


def load_cascade(paths) -> tuple[UNet3D, UNet3D, CascadeConfig]:
    """Load a stage-1 and a stage-2 checkpoint as one cascade, checked before any forward.

    The first path must hold a stage-1 and the second a stage-2 checkpoint,
    and the cascade config they make (from the stage-2 ``train.cascade``
    metadata) must validate; otherwise ConfigError names the file.  ``train``
    metadata of the wrong type (not an object, a cascade field that is not
    a sequence of numbers) raises CheckpointError naming the file.
    """
    loaded = [load_stage_checkpoint(path) for path in paths]
    for path, (_, _, meta), want in zip(paths, loaded, ("1", "2")):
        got = meta["train"].get("stage")
        if got != want:
            raise ConfigError(f"{path}: --model slot {want} needs a stage-{want} checkpoint, this is stage {got!r}")
    (stage1, _, _), (stage2, _, meta2) = loaded
    try:
        info = meta2["train"].get("cascade", {})
        cascade_cfg = CascadeConfig(
            stage1=stage1.config,
            stage2=stage2.config,
            stage2_input_shape=tuple(info.get("stage2_input_shape", stage2.config.input_patch_shape)),
            roi_margin_fraction=tuple(info.get("roi_margin_fraction", CascadeConfig.roi_margin_fraction)),
        )
        cascade_cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{paths[1]}: {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{paths[1]}: malformed train metadata: {type(exc).__name__}: {exc}") from exc
    return stage1, stage2, cascade_cfg


def _stage2_candidates(prepared) -> list[int]:
    """Indices of the cases stage 2 can sample (nonempty masks); raises DatasetError if none."""
    candidates = [i for i, (_, msk) in enumerate(prepared) if msk.sum() > 0]
    if not candidates:
        raise DatasetError("no cases with foreground: stage 2 has nothing to train on")
    return candidates


def _train_stage2(model, prepared, candidates, cascade_cfg, cfg: TrainConfig):
    def batch(step):
        return _stage2_batch(prepared, candidates, cascade_cfg, cfg, step)

    history = _run_steps(model, batch, cfg, "2", extra_meta=_cascade_meta(cascade_cfg))
    return Path(cfg.checkpoint_path), history


def train_stage2(model, dataset, cascade_cfg, cfg: TrainConfig):
    """Train only the refinement network on ground-truth ROIs.

    Each sample is a margin-grown, jittered bounding box around a nonempty
    mask, resized to the stage-2 input shape.  Cases with empty masks are
    excluded.  Returns (checkpoint path, history).
    """
    cfg.validate()
    cascade_cfg.validate()
    prepared = _window_dataset(dataset)
    return _train_stage2(model, prepared, _stage2_candidates(prepared), cascade_cfg, cfg)


def train_cascade(dataset, cascade_cfg, cfg: TrainConfig):
    """Train both cascade stages; returns (stage-1 path, stage-2 path).

    Stage 1 is built with cfg.seed and stage 2 with cfg.seed + 1.  Stage 2
    sees ground-truth ROIs (margin-grown, jittered) resized to its input
    shape, so the stages train independently.  Cases with empty masks are
    excluded from stage-2 sampling; a dataset without any foreground is
    refused (DatasetError) before stage 1 starts.
    """
    cfg.validate()
    cascade_cfg.validate()
    prepared = _window_dataset(dataset)
    candidates = _stage2_candidates(prepared)
    cfg1 = replace(cfg, checkpoint_path=str(_derived_path(cfg.checkpoint_path, "stage1")))
    stage1 = build_unet(cascade_cfg.stage1, seed=cfg.seed)
    p1, _ = _train_stage1(stage1, prepared, cfg1, extra_meta=_cascade_meta(cascade_cfg))
    cfg2 = replace(cfg, checkpoint_path=str(_derived_path(cfg.checkpoint_path, "stage2")))
    stage2 = build_unet(cascade_cfg.stage2, seed=cfg.seed + 1)
    p2, _ = _train_stage2(stage2, prepared, candidates, cascade_cfg, cfg2)
    return p1, p2


def overfit_fixed_batch(model, x: np.ndarray, labels: np.ndarray, steps: int, lr=1e-2):
    """Repeatedly fit one fixed batch; returns the per-step records.

    Uses a constant learning rate and no weight decay, the cleanest setting
    for checking that the training machinery can drive the loss down.
    Writes no log and no checkpoint.
    """
    cfg = TrainConfig(epochs=1, steps_per_epoch=steps, lr=lr, eta_min=lr, weight_decay=0.0, checkpoint_path=None)
    return _run_steps(model, lambda step: (x, labels), cfg, "overfit")
