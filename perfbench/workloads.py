"""The two benchmark workloads: inputs from a seed, one unit of work, checks.

Each workload is a closed loop with one caller.  ``setup`` builds the
inputs from the seed (and may run several times; it always rebuilds the
same files), ``unit(i)`` does the i-th unit of work through the same
library functions the CLI commands call and returns a ``Unit``, and
``check(units)`` returns the correctness failures of a run with details for
its record.  ``reference`` (untraced) and ``comparable`` (traced) give the
outputs a traced unit must reproduce bit for bit.  A unit is one
``train_cascade`` call for train-cascade and one volume (infer, then eval
and compare-tada on its mask) for infer-cascade-dense.

Phantom datasets use the package's generator with dataset seed
``3 * seed + 1`` (train-cascade) or ``3 * seed + 2`` (infer-cascade-dense);
the fixed inference weights were trained on dataset seed 0, which no
workload seed maps to.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hemoseg import inference, losses, model, phantoms, training, volumes, volumetry

HERE = Path(__file__).resolve().parent
WEIGHTS = HERE / "weights"

# train-cascade: a fixed short schedule per unit, stage 1 then stage 2.
TRAIN_CASES = 4
TRAIN_EPOCHS = 2
TRAIN_STEPS_PER_EPOCH = 5
TRAIN_BATCH = 2
TRAIN_LOSS_WINDOW = 3  # steps averaged at each end of a stage for the loss-decrease check

# infer-cascade-dense: held-out volumes cycled through, one per unit; each
# is segmented, then scored and measured as the eval and compare-tada
# commands do.
INFER_POOL = 8
INFER_STRIDE = (4, 8, 8)
INFER_DSC_BAR = 0.85


@dataclass
class Unit:
    """What one unit of work did: operations, items, timings and outputs."""

    index: int
    attempted: int
    failed: int = 0
    items: int = 0
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    error: str | None = None


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _case_seeds(dataset_seed: int, count: int) -> list[int]:
    # the derivation phantoms.generate_dataset uses for its cases
    return [int(np.random.SeedSequence([dataset_seed, i]).generate_state(1)[0]) for i in range(count)]


def _read_dataset(directory: Path):
    pairs = []
    for case_id in phantoms.list_cases(directory):
        img_path, msk_path = phantoms.case_paths(directory, case_id)
        pairs.append((volumes.read_rvol(img_path), volumes.read_rvol(msk_path)))
    return pairs


class StampPath(os.PathLike):
    """Training log path that records the time whenever the step loop opens it.

    The step loop appends one JSONL line per finished step, so the stamps
    mark step ends without touching the package.
    """

    def __init__(self, path: Path):
        self.path = str(path)
        self.stamps: list[float] = []
        self.on_stamp = None

    def __fspath__(self) -> str:
        self.stamps.append(time.perf_counter())
        if self.on_stamp is not None:
            self.on_stamp()
        return self.path


# ---------------------------------------------------------------------------


class TrainCascade:
    name = "train-cascade"
    op = "train step"
    item = "sample"
    min_units = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work / self.name
        self.cascade_cfg = model.toy_cascade_config()
        self.steps_per_unit = 2 * TRAIN_EPOCHS * TRAIN_STEPS_PER_EPOCH

    def setup(self) -> None:
        work = _fresh_dir(self.work)
        phantoms.generate_dataset(work / "data", TRAIN_CASES, 3 * self.seed + 1, phantoms.PhantomSpec())
        self.dataset = _read_dataset(work / "data")
        self.log = StampPath(work / "log.jsonl")
        self.cfg = training.TrainConfig(
            epochs=TRAIN_EPOCHS,
            steps_per_epoch=TRAIN_STEPS_PER_EPOCH,
            batch_size=TRAIN_BATCH,
            seed=self.seed,
            checkpoint_path=str(work / "cascade.hsck"),
            log_path=self.log,
        )
        warm = training.TrainConfig(
            epochs=1, steps_per_epoch=1, batch_size=TRAIN_BATCH, seed=self.seed, checkpoint_path=str(work / "warm.hsck")
        )
        training.train_cascade(self.dataset, self.cascade_cfg, warm)

    def unit(self, index: int) -> Unit:
        log_file = Path(self.log.path)
        log_file.unlink(missing_ok=True)
        self.log.stamps = []
        unit = Unit(index, attempted=self.steps_per_unit)
        t0 = time.perf_counter()
        try:
            paths = training.train_cascade(self.dataset, self.cascade_cfg, self.cfg)
        except training.TrainingAbort as exc:
            unit.error = str(exc)
            paths = None
        except Exception as exc:  # any other failure ends the unit; the run reports it
            unit.error = f"{type(exc).__name__}: {exc}"
            paths = None
        unit.seconds = time.perf_counter() - t0
        done = len(self.log.stamps)
        unit.failed = self.steps_per_unit - done if paths is None else 0
        unit.items = TRAIN_BATCH * done
        unit.latencies = list(np.diff([t0] + self.log.stamps))
        unit.outputs["log"] = log_file.read_text() if log_file.exists() else ""
        if paths is not None:
            unit.outputs["paths"] = [str(p) for p in paths]
        return unit

    def reference(self, unit: Unit) -> dict:
        return self.comparable(unit)

    def comparable(self, unit: Unit, tracer=None) -> dict:
        """The outputs a traced unit must reproduce bit for bit: loss history, checkpoints.

        Call it right after the unit: the next unit overwrites the checkpoints.
        Units do not keep the checkpoint bytes, which would add to peak_rss_mb
        with every unit of the run.
        """
        checkpoints = [Path(p).read_bytes() for p in unit.outputs["paths"]] if "paths" in unit.outputs else None
        return {"log": unit.outputs["log"], "checkpoints": checkpoints}

    def check(self, units: list[Unit]) -> tuple[list[str], dict]:
        failures = []
        for u in units:
            if u.error:
                failures.append(f"unit {u.index}: {u.error}")
                continue
            records = [json.loads(line) for line in u.outputs["log"].splitlines()]
            values = [r["total"] for r in records] + [v for r in records for _, d, c in r["per_level"] for v in (d, c)]
            if not all(math.isfinite(v) for v in values):
                failures.append(f"unit {u.index}: non-finite loss in the log")
            for stage in ("1", "2"):
                totals = [r["total"] for r in records if r["stage"] == stage]
                first = float(np.mean(totals[:TRAIN_LOSS_WINDOW]))
                last = float(np.mean(totals[-TRAIN_LOSS_WINDOW:]))
                if not last < first:
                    failures.append(f"unit {u.index}: stage {stage} loss did not fall ({first:.4f} -> {last:.4f})")
        final = next((u for u in reversed(units) if "paths" in u.outputs), None)
        if final is None:
            failures.append("no unit wrote checkpoints")
        else:
            for path in final.outputs["paths"]:
                try:
                    training.load_stage_checkpoint(path)
                    arrays, meta = training.load_checkpoint(path)
                    again = training.save_checkpoint(self.work / "resaved.hsck", arrays, meta)
                except Exception as exc:  # a checkpoint that does not load fails the check
                    failures.append(f"{Path(path).name}: does not load: {type(exc).__name__}: {exc}")
                    continue
                if again.read_bytes() != Path(path).read_bytes():
                    failures.append(f"{Path(path).name}: re-saving is not byte-identical")
        return failures, {}


# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class InferCascadeDense:
    name = "infer-cascade-dense"
    op = "volume"
    item = "volume"
    min_units = INFER_POOL

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work / self.name

    def setup(self) -> None:
        work = _fresh_dir(self.work)
        dataset_seed = 3 * self.seed + 2
        records = phantoms.generate_dataset(work / "data", INFER_POOL, dataset_seed, phantoms.PhantomSpec())
        self.cases = phantoms.list_cases(work / "data")
        # as compare-tada reads them from the ground-truth directory's dataset.json
        self.lesion_class = {r["case_id"]: r["lesion_class"] for r in records}
        (work / "pred").mkdir()
        self.load_error = None
        try:
            record = json.loads((WEIGHTS / "weights.json").read_text())
            for name, digest in record["sha256"].items():
                if _sha256(WEIGHTS / name) != digest:
                    raise ValueError(f"{name}: sha256 differs from weights.json")
            self.stage1, _, _ = training.load_stage_checkpoint(WEIGHTS / record["stage1"])
            self.stage2, _, meta2 = training.load_stage_checkpoint(WEIGHTS / record["stage2"])
            cascade = meta2["train"]["cascade"]
        except Exception as exc:  # weights that fail to load fail every volume of the run
            self.load_error = f"weights failed to load: {type(exc).__name__}: {exc}"
            return
        trained_on = set(_case_seeds(record["dataset_seed"], record["dataset_count"]))
        if trained_on & set(_case_seeds(dataset_seed, INFER_POOL)):
            raise RuntimeError("a held-out phantom seed is among the weights' training seeds")
        # as the infer command builds it from the stage-2 checkpoint
        self.cascade_cfg = model.CascadeConfig(
            stage1=self.stage1.config,
            stage2=self.stage2.config,
            stage2_input_shape=tuple(cascade["stage2_input_shape"]),
            roi_margin_fraction=tuple(cascade["roi_margin_fraction"]),
        )
        warm_image = volumes.read_rvol(phantoms.case_paths(work / "data", self.cases[0])[0])
        inference.timed_predict(warm_image, self.stage1, self.stage2, self.cascade_cfg)

    def unit(self, index: int) -> Unit:
        case_id = self.cases[index % INFER_POOL]
        unit = Unit(index, attempted=1, items=1)
        if self.load_error:
            unit.failed, unit.items, unit.error = 1, 0, self.load_error
            return unit
        img_path, gt_path = phantoms.case_paths(self.work / "data", case_id)
        out_path = self.work / "pred" / f"case_{case_id}_msk.rvol"
        t0 = time.perf_counter()
        try:
            image = volumes.read_rvol(img_path)
            mask, seconds, info = inference.timed_predict(
                image, self.stage1, self.stage2, self.cascade_cfg, stride=INFER_STRIDE
            )
            volumes.write_rvol(out_path, mask)
            # eval, then compare-tada, on the mask just written
            pred, gt = volumes.read_rvol(out_path), volumes.read_rvol(gt_path)
            scores = losses.metrics(losses.confusion(pred.voxels, gt.voxels))
            lesion_class = self.lesion_class[case_id]
            entry = {"case_id": case_id, "pred": pred, "gt": gt, "lesion_class": lesion_class, "model_seconds": seconds}
            report = volumetry.compare_methods([entry])
        except Exception as exc:  # a failed volume is counted, the run goes on
            unit.failed, unit.items, unit.error = 1, 0, f"{type(exc).__name__}: {exc}"
            return unit
        unit.seconds = time.perf_counter() - t0
        unit.latencies = [unit.seconds]
        unit.outputs.update(
            case_id=case_id, mask=mask, image_shape=image.shape, info=info, scores=scores, case=report.cases[0]
        )
        return unit

    @staticmethod
    def _report(unit: Unit) -> dict:
        case = dict(vars(unit.outputs["case"]))
        for timing in ("model_seconds", "tada_seconds"):
            case.pop(timing)
        return {"scores": unit.outputs["scores"], "case": case}

    def reference(self, unit: Unit) -> dict:
        """Untraced outputs of a unit, with the stage-1 probabilities computed again."""
        image = volumes.read_rvol(phantoms.case_paths(self.work / "data", unit.outputs["case_id"])[0])
        probs = inference.sliding_window_predict(self.stage1, image, stride=INFER_STRIDE)
        return {"mask": unit.outputs["mask"].voxels.tobytes(), "probs": probs.tobytes(), **self._report(unit)}

    def comparable(self, unit: Unit, tracer) -> dict:
        """Mask, stage-1 probabilities (as the tracer saw them returned) and reports of a traced unit."""
        mask, probs = unit.outputs["mask"].voxels.tobytes(), tracer.last_window_probs.tobytes()
        return {"mask": mask, "probs": probs, **self._report(unit)}

    def expected_patches(self, volume_shape) -> int:
        """Stage-1 windows per volume from the shapes: stride-spaced origins plus a flush last one."""
        window = self.stage1.config.input_patch_shape
        count = 1
        for n, w, s in zip(volume_shape, window, INFER_STRIDE):
            n = max(n, w)
            origins = len(range(0, n - w + 1, s))
            count *= origins + (0 if (origins - 1) * s == n - w else 1)
        return count

    def check(self, units: list[Unit]) -> tuple[list[str], dict]:
        failures = [f"unit {u.index}: {u.error}" for u in units if u.error]
        dsc = {}
        for u in units:
            if u.error:
                continue
            expected = self.expected_patches(u.outputs["image_shape"])
            if u.outputs["info"]["patch_count"] != expected:
                failures.append(f"unit {u.index}: {u.outputs['info']['patch_count']} stage-1 patches, shapes give {expected}")
            vox = u.outputs["mask"].voxels
            if vox.shape != u.outputs["image_shape"] or vox.dtype != np.uint8 or not np.isin(vox, (0, 1)).all():
                failures.append(f"unit {u.index}: mask is not a binary uint8 volume shaped like the input")
                continue
            case_id = u.outputs["case_id"]
            if case_id in dsc:
                continue
            gt = volumes.read_rvol(phantoms.case_paths(self.work / "data", case_id)[1])
            overlap, sizes = np.count_nonzero(vox & gt.voxels), np.count_nonzero(vox) + np.count_nonzero(gt.voxels)
            dsc[case_id] = 2 * overlap / sizes if sizes else 1.0
            if u.outputs["scores"]["dsc"] != dsc[case_id]:
                failures.append(f"case {case_id}: eval DSC {u.outputs['scores']['dsc']}, overlap count gives {dsc[case_id]}")
            failures += check_volumetry(case_id, u.outputs["case"], vox, gt)
        if len(dsc) < INFER_POOL:
            failures.append(f"only {len(dsc)} of {INFER_POOL} held-out volumes were segmented")
        mean = float(np.mean(list(dsc.values()))) if dsc else 0.0
        if mean < INFER_DSC_BAR:
            failures.append(f"mean DSC {mean:.4f} below the bar {INFER_DSC_BAR}")
        return failures, {"dsc_mean": mean, "dsc_by_case": dsc, "dsc_bar": INFER_DSC_BAR}


# ---------------------------------------------------------------------------


def exhaustive_ab(points: np.ndarray, spacing_rc) -> tuple[float, float]:
    """ABC/2 A and B on one slice by scanning every pair of points.

    A is the largest center-to-center distance (ties go to the
    lexicographically smallest sorted pair); B is the largest separation of
    any two points measured across A, floored at one voxel's footprint and
    capped at A.
    """
    fp = points.astype(np.float64)
    sp = np.asarray(spacing_rc, dtype=np.float64)
    best, best_pair = -1.0, None
    for i in range(len(fp) - 1):
        d = np.hypot((fp[i + 1 :, 0] - fp[i, 0]) * sp[0], (fp[i + 1 :, 1] - fp[i, 1]) * sp[1])
        top = float(d.max())
        if top < best:
            continue
        for j in np.flatnonzero(d == top) + i + 1:
            pa, pb = tuple(points[i]), tuple(points[j])
            pair = (pa, pb) if pa <= pb else (pb, pa)
            if top > best or pair < best_pair:
                best, best_pair = top, pair
    (r0, c0), (r1, c1) = best_pair
    along = np.array([(r1 - r0) * sp[0], (c1 - c0) * sp[1]]) / best
    across = np.array([-along[1], along[0]])
    proj = (fp * sp) @ across
    width = 0.0
    for i in range(len(proj) - 1):
        width = max(width, float(np.abs(proj[i + 1 :] - proj[i]).max()))
    support = abs(across[0]) * sp[0] + abs(across[1]) * sp[1]
    return best, min(max(width, support), best)


def check_volumetry(case_id: str, case, pred_voxels: np.ndarray, gt) -> list[str]:
    """Voxel volumes must be count x voxel volume exactly; ABC/2's A and B
    must match an exhaustive pair scan of the slice it measures (checked on
    every ground truth, solitary or not)."""
    failures = []
    voxel_mm3 = float(np.prod(np.asarray(gt.spacing_mm, dtype=np.float64)))
    for label, voxels, got in (("gt", gt.voxels, case.gt_volume_ml), ("pred", pred_voxels, case.model_volume_ml)):
        if got != int(np.count_nonzero(voxels)) * voxel_mm3 / 1000.0:
            failures.append(f"case {case_id}: {label} volume {got} ml is not count x voxel volume")
    if gt.voxels.any():
        m = volumetry.tada_measure(gt)
        points = np.argwhere(gt.voxels[m.slice_index] > 0)
        a, b = exhaustive_ab(points, gt.spacing_mm[1:])
        if a != m.a_mm:
            failures.append(f"case {case_id}: A {m.a_mm} mm, exhaustive scan {a} mm")
        if abs(b - m.b_mm) > 1e-9 * a:
            failures.append(f"case {case_id}: B {m.b_mm} mm, exhaustive scan {b} mm")
    return failures


WORKLOADS = {w.name: w for w in (TrainCascade, InferCascadeDense)}
