"""Span tracing of the hemoseg package from outside it.

The tracer records a span around every call into a layer of the package by
replacing module attributes and class methods with timing wrappers, and
puts every original back on ``uninstall``.  Nothing in ``src/`` knows about
it.  Each span keeps its name, start, end, parent span and request id (the
benchmark's unit, step and stage); spans stay in memory until
``write_spans``.  Alongside the spans the tracer keeps per-request counters
computed from the shapes of the arguments and results it sees (conv FLOPs,
im2col bytes, OpRecords built, heads computed and read, window and ROI
voxels, ...), so the counts repeat exactly for repeated inputs.

Span names are ``<layer>.<what>``; the layer is the package module whose
code the span times (``volumes.resize_trilinear`` counts under ``volumes``
even when inference calls it).
"""
from __future__ import annotations

import functools
import json
import math
import time
import weakref
from collections import Counter, defaultdict

# Op kinds reported on their own; every other autodiff op is "other".
OP_KINDS = (
    "conv3d",
    "batch_norm3d",
    "upsample_trilinear",
    "relu",
    "add",
    "concat_channels",
    "softmax_channels",
)


class Tracer:
    """In-memory span recorder and the set of wrappers that feed it."""

    def __init__(self):
        # [name, start, end, parent index or -1, request]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None
        self.counters: dict = defaultdict(Counter)
        self._saved: list[tuple[object, str, object]] = []
        self._module_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._step_span: int | None = None
        self._step_counter = 0
        self.last_window_probs = None

    # -- spans and counters ------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        # An exception can leave inner spans (an open training step) on the
        # stack; they end where the enclosing span ends.
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == idx:
                break
        if self._step_span is not None and self._step_span not in self._stack:
            self._step_span = None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[self.request][key] += value

    def wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        if attr not in vars(owner):
            raise AttributeError(f"{getattr(owner, '__name__', owner)!r} has no attribute {attr!r} to trace")
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        self._replace(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- training steps ----------------------------------------------------
    # A step span opens when the step loop asks for its batch and closes
    # when the loop opens its JSONL log for that step (``end_step``).

    def begin_step(self, unit, stage: str) -> None:
        if self._step_span is not None:
            self.close(self._step_span)
        self.request = (unit, self._step_counter, stage)
        self._step_counter += 1
        self._step_span = self.open("training.step")

    def end_step(self) -> None:
        if self._step_span is not None:
            self.close(self._step_span)
            self._step_span = None
            self.request = (self.request[0], None, None)

    def begin_unit(self, unit) -> None:
        self.request = (unit, None, None)
        self._step_counter = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the hemoseg package; ``uninstall`` puts the originals back."""
        from hemoseg import autodiff as ad
        from hemoseg import inference, losses, model, optim, phantoms, training, volumes, volumetry

        tracer = self
        self._rvol_header_bytes = volumes.HEADER.size

        # autodiff: forward of every op the model and the losses call through
        self.patch(ad, "conv3d", "autodiff.conv3d.fwd", after=self._conv_counts)
        for op in OP_KINDS[1:]:
            self.patch(ad, op, f"autodiff.{op}.fwd")
        for op in ("clamp_min", "div", "log", "mul", "slice_channels"):
            self.patch(losses, op, "autodiff.other.fwd")
        self.patch(ad.Tensor, "sum", "autodiff.other.fwd")
        self.patch(ad.Tensor, "backward", "autodiff.backward")
        self._replace(ad, "OpRecord", self._record_class(ad.OpRecord))

        # model: every module call under its named_modules() name
        for cls in (model.Conv3dLayer, model.BatchNorm3dLayer, model.ResidualBlock, model.DecoderStage):
            self._replace(cls, "__call__", self._module_call(cls.__call__))
        self._replace(model.UNet3D, "__call__", self._net_call(model.UNet3D.__call__))

        # training, augmentation, losses, optimizer
        def batch(fn, stage):
            def traced(*args, **kwargs):
                tracer.begin_step(tracer.request[0], stage)
                idx = tracer.open(f"training.batch.stage{stage}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)

            return traced

        self._replace(training, "_stage1_batch", batch(training._stage1_batch, "1"))
        self._replace(training, "_stage2_batch", batch(training._stage2_batch, "2"))
        self.patch(training, "train_cascade", "training.train_cascade")
        self.patch(training, "save_checkpoint", "training.save_checkpoint", after=self._checkpoint_counts)
        self.patch(training, "load_stage_checkpoint", "training.load_stage_checkpoint")
        self.patch(training, "augment", "augment.augment", after=self._augment_counts)
        self.patch(training, "deep_supervision_loss", "losses.deep_supervision_loss")
        self.patch(training, "resize_trilinear", "volumes.resize_trilinear")
        self.patch(training, "resize_nearest", "volumes.resize_nearest")
        self.patch(optim.AdamW, "step", "optim.step")
        self.patch(losses, "confusion", "losses.confusion")
        self.patch(losses, "metrics", "losses.metrics")

        # inference
        self.patch(inference, "timed_predict", "inference.timed_predict")
        self.patch(inference, "cascade_infer", "inference.cascade_infer", after=self._roi_counts)
        self._replace(inference, "sliding_window_predict", self._window_call(inference.sliding_window_predict))
        self.patch(inference, "recompose_average", "inference.recompose_average")
        self.patch(inference, "resize_trilinear", "volumes.resize_trilinear")

        # volumes, volumetry, phantoms
        self.patch(volumes, "read_rvol", "volumes.read_rvol", after=self._read_counts)
        self.patch(volumes, "write_rvol", "volumes.write_rvol")
        self.patch(phantoms, "write_rvol", "volumes.write_rvol")
        self.patch(volumetry, "compare_methods", "volumetry.compare_methods")
        self.patch(volumetry, "tada_measure", "volumetry.tada_measure")
        self.patch(volumetry, "slice_extremes", "volumetry.slice_extremes", after=self._slice_counts)
        self.patch(phantoms, "generate_dataset", "phantoms.generate_dataset")
        self.patch(phantoms, "generate_phantom", "phantoms.generate_phantom")
        self.patch(phantoms, "rasterize_ellipsoid", "phantoms.rasterize_ellipsoid")

    # -- wrappers with counts ----------------------------------------------

    def _conv_counts(self, out, x, weight, *rest, **kwargs) -> None:
        n, c = x.shape[:2]
        k, _, kd, kh, kw = weight.shape
        rows = n * out.shape[2] * out.shape[3] * out.shape[4]
        depth = c * kd * kh * kw
        col_bytes = rows * depth * x.data.itemsize
        self.count("conv3d.calls")
        self.count("conv3d.flop", 2.0 * rows * k * depth)
        self.count("conv3d.col_bytes", col_bytes)
        info = getattr(out.record, "bwd_info", None)
        if info is not None:
            need_w = weight.requires_grad or weight.record is not None
            need_x = x.requires_grad or x.record is not None
            # backward: weight gradient g^T @ col, input gradient g @ W (col2im)
            info["flop"] = 2.0 * rows * k * depth * (int(need_w) + int(need_x))
            info["col_bytes"] = col_bytes if need_x else 0

    def _record_class(self, base):
        tracer = self

        class TracedRecord(base):
            """OpRecord that is counted and whose backward closure is timed."""

            __slots__ = ("bwd_info",)

            def __init__(self, op, parents, apply):
                tracer.count("autodiff.records")
                name = f"autodiff.{op if op in OP_KINDS else 'other'}.bwd"
                info = {}

                def timed_apply(g):
                    idx = tracer.open(name)
                    try:
                        apply(g)
                    finally:
                        tracer.close(idx)
                    if info:
                        tracer.count("conv3d.flop", info["flop"])
                        tracer.count("conv3d.col_bytes", info["col_bytes"])

                super().__init__(op, parents, timed_apply)
                self.bwd_info = info

        return TracedRecord

    def _module_call(self, fn):
        tracer = self

        def traced(mod, *args, **kwargs):
            name = tracer._module_names.get(mod, "?")
            if name.startswith("heads."):
                tracer.count("model.heads_computed")
            idx = tracer.open("model." + name)
            try:
                return fn(mod, *args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _net_call(self, fn):
        tracer = self

        class ReadCountingOutputs(dict):
            """The forward's output dict; counts each head the caller reads."""

            def __getitem__(self, key):
                value = dict.__getitem__(self, key)
                if key not in self._read:
                    self._read.add(key)
                    tracer.counters[self._request]["model.heads_read"] += 1 if key == "final" else len(value)
                return value

        def traced(net, *args, **kwargs):
            if net not in tracer._module_names:
                for name, mod in net.named_modules():
                    tracer._module_names[mod] = name or "net"
            tracer.count("model.forwards")
            idx = tracer.open("model.net")
            try:
                out = fn(net, *args, **kwargs)
            finally:
                tracer.close(idx)
            wrapped = ReadCountingOutputs(out)
            wrapped._read = set()
            wrapped._request = tracer.request
            return wrapped

        return traced

    def _window_call(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            before = tracer.counters[tracer.request]["model.forwards"]
            idx = tracer.open("inference.sliding_window_predict")
            try:
                probs = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            patches = tracer.counters[tracer.request]["model.forwards"] - before
            net, image = args[0], args[1]
            tracer.count("inference.window_patches", patches)
            tracer.count("inference.window_calls")
            tracer.count("inference.window_voxels", patches * math.prod(net.config.input_patch_shape))
            tracer.count("inference.volume_voxels", math.prod(image.shape))
            tracer.last_window_probs = probs
            return probs

        return traced

    def _roi_counts(self, out, stage1, stage2, image, *args, **kwargs) -> None:
        box = out[1]
        self.count("inference.roi_voxels", 0 if box is None else math.prod(box.extents))
        self.count("inference.cascade_voxels", math.prod(image.shape))

    def _checkpoint_counts(self, path, *args, **kwargs) -> None:
        self.count("training.checkpoints")
        self.count("training.checkpoint_bytes", path.stat().st_size)

    def _augment_counts(self, out, image, *args, **kwargs) -> None:
        self.count("augment.samples")
        self.count("augment.kept_voxels", out[0].size)
        self.count("augment.voxels", image.size)

    def _read_counts(self, volume, *args, **kwargs) -> None:
        # computed, not measured: RVOL header plus payload of what was parsed
        self.count("volumes.read_bytes", self._rvol_header_bytes + volume.voxels.nbytes)

    def _slice_counts(self, out, points, *args, **kwargs) -> None:
        self.count("volumetry.slice_points", len(points))

    # -- output ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, request]) + "\n")
