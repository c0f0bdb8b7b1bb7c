"""Dense tensors with reverse-mode automatic differentiation.

Implements exactly the operation set the 3D segmentation network needs:
3D convolution (optionally strided for downsampling), trilinear upsampling,
train-mode batch normalization (optionally with its ReLU fused in, so the
graph keeps no separate ReLU output), ReLU, residual add, channel concat/slice,
channel softmax, and the elementwise/reduction ops the losses are built from.
Data lives in row-major numpy buffers, float32 for training and inference,
float64 for gradient checking.

A graph is backpropagated once: ``Tensor.backward`` frees each node's
gradient and saved arrays as soon as its backward has run, so only leaves
keep ``.grad``, and a second backward through the same graph raises
RuntimeError.

Forward/backward of one graph is single-threaded; tensors may move between
threads but a graph must not be mutated concurrently.

A training loop runs inside ``scratch_arena()``, where the conv kernels
reuse their transient buffers from step to step.  Nothing an op returns or a
graph keeps points into the arena; outside it every call allocates its own.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading

import numpy as np

from .volumes import _linear_axis_matrix

_AXIS_NAMES = ("depth", "height", "width")

_finite_checks = False


def set_finite_checks(enabled: bool) -> None:
    """Enable NaN/Inf detection on every op output (costly; meant for tests)."""
    global _finite_checks
    _finite_checks = bool(enabled)


_arena = threading.local()


@contextlib.contextmanager
def scratch_arena():
    """Let this thread's conv kernels reuse their scratch buffers until exit.

    Each role of ``_scratch`` keeps one buffer that grows to the largest
    request: ``gather`` (gathered columns), ``acc`` (the accumulator, and in
    backward the gradient on the grid), ``prod`` (partial products) and
    ``parts`` (weight-gradient parts).  Consecutive train steps thus reuse
    memory instead of faulting fresh pages in: the caching-allocator idea
    of Paszke et al. 2019 (PyTorch, sec. 5.3), with one buffer per role
    rather than per shape.  Leaving the arena drops them all.  The buffers
    are per thread, so eval forwards on other threads share nothing.
    """
    outer = getattr(_arena, "buffers", None)
    _arena.buffers = {}
    try:
        yield
    finally:
        _arena.buffers = outer


def _scratch(role: str, shape, dtype) -> np.ndarray:
    """An uninitialized array for transient use: a view of the arena's ``role``
    buffer inside ``scratch_arena()``, a fresh array outside it.  A caller may
    hold one view per role at a time and must not return it."""
    buffers = getattr(_arena, "buffers", None)
    if buffers is None:
        return np.empty(shape, dtype=dtype)
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = buffers.get(role)
    if buf is None or buf.nbytes < nbytes:
        buf = buffers[role] = np.empty(nbytes, dtype=np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class OpRecord:
    """Backward-graph node: op kind, parent tensors, saved-context closure.

    Records form a DAG; ``Tensor.backward`` visits each exactly once in
    reverse topological order, then replaces it with a consumed marker.
    """

    __slots__ = ("op", "parents", "apply")

    def __init__(self, op, parents, apply):
        self.op = op
        self.parents = parents
        self.apply = apply


# The record of a node whose backward has run: it keeps no parents and no closure.
_CONSUMED = OpRecord("consumed", (), None)


class Tensor:
    """N-dimensional float array with an optional gradient record."""

    __slots__ = ("data", "requires_grad", "grad", "record")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.record: OpRecord | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item() requires a single-element tensor, got shape %r" % (self.shape,))
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def sum(self) -> "Tensor":
        x = self

        def backward(g):
            _accum(x, np.full_like(x.data, g.reshape(())), fresh=True)

        return _result(np.asarray(self.data.sum(dtype=self.dtype)), (x,), "sum", backward)

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    def backward(self) -> None:
        """Populate ``grad`` on every reachable requires_grad leaf, consuming the graph.

        Gradients accumulate additively across multiple uses of a tensor.
        The graph is backpropagated once: nodes are popped in reverse
        topological order, and once a node's backward has run its ``grad``
        is dropped and its record replaced by a consumed marker, so its
        gradient, its closure's saved arrays and, unless the caller holds
        the tensor, its data are freed while the rest of the graph runs.
        Only leaves keep ``grad``.  A later backward that reaches a consumed
        node raises RuntimeError before any gradient is accumulated.
        """
        if self.data.size != 1:
            raise ShapeError("backward requires a scalar loss, got shape %r" % (self.shape,))
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.record is _CONSUMED:
                raise RuntimeError("backward through a graph that was already backpropagated")
            seen.add(id(node))
            stack.append((node, True))
            if node.record is not None:
                for p in node.record.parents:
                    if id(p) not in seen:
                        stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node.record is None:
                continue
            if node.grad is not None:
                node.record.apply(node.grad)
            node.grad, node.record = None, _CONSUMED

    # -- operator sugar (Tensor or python scalar on either side) --

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return _scalar_add(self, float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return _scalar_mul(self, float(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, _scalar_mul(other, -1.0))
        return _scalar_add(self, -float(other))

    def __rsub__(self, other):
        return _scalar_add(_scalar_mul(self, -1.0), float(other))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return _scalar_mul(self, 1.0 / float(other))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g to t's gradient.  A first gradient is stored C-ordered in t's
    dtype, as a copy unless ``fresh`` says the op made g for this call and
    keeps no other reference to it.  So t owns its ``grad``, and t's
    backward may write into the array it receives."""
    if not (t.requires_grad or t.record is not None):
        return
    if t.grad is None:
        if fresh and isinstance(g, np.ndarray) and g.dtype == t.data.dtype and g.flags.c_contiguous:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype, copy=True, order="C")
    else:
        t.grad += g


def _result(data: np.ndarray, parents: tuple, op: str, backward) -> Tensor:
    if _finite_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by {op}")
    out = Tensor(data)
    for p in parents:
        if p.requires_grad or p.record is not None:
            out.record = OpRecord(op, parents, backward)
            break
    return out


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes must match exactly (residual connections)."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _result(a.data + b.data, (a, b), "add", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        _accum(a, g * b.data, fresh=True)
        _accum(b, g * a.data, fresh=True)

    return _result(a.data * b.data, (a, b), "mul", backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"div: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        _accum(a, g / b.data, fresh=True)
        _accum(b, -g * a.data / (b.data * b.data), fresh=True)

    return _result(a.data / b.data, (a, b), "div", backward)


def _scalar_add(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accum(a, g)

    return _result(a.data + a.data.dtype.type(s), (a,), "scalar_add", backward)


def _scalar_mul(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accum(a, g * a.data.dtype.type(s), fresh=True)

    return _result(a.data * a.data.dtype.type(s), (a,), "scalar_mul", backward)


def relu(x: Tensor) -> Tensor:
    """max(0, x); subgradient at 0 is 0.  NaN inputs stay NaN."""

    def backward(g):
        _accum(x, g * (x.data > 0), fresh=True)

    return _result(np.maximum(x.data, x.data.dtype.type(0)), (x,), "relu", backward)


def log(x: Tensor) -> Tensor:
    def backward(g):
        _accum(x, g / x.data, fresh=True)

    return _result(np.log(x.data), (x,), "log", backward)


def clamp_min(x: Tensor, lo: float) -> Tensor:
    """Elementwise max(x, lo); gradient passes through where x >= lo."""

    def backward(g):
        _accum(x, g * (x.data >= lo), fresh=True)

    return _result(np.maximum(x.data, x.data.dtype.type(lo)), (x,), "clamp_min", backward)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis (1); other extents must match."""
    if a.ndim != b.ndim or a.ndim < 2:
        raise ShapeError(f"concat_channels: ranks {a.ndim} vs {b.ndim}")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels: shape mismatch {a.shape} vs {b.shape}")
    ca = a.shape[1]

    def backward(g):
        _accum(a, g[:, :ca])
        _accum(b, g[:, ca:])

    return _result(np.concatenate([a.data, b.data], axis=1), (a, b), "concat_channels", backward)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Take channels [start, stop) along axis 1."""
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_channels: [{start}, {stop}) out of range for C={x.shape[1]}")

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        _accum(x, gx, fresh=True)

    return _result(np.ascontiguousarray(x.data[:, start:stop]), (x,), "slice_channels", backward)


def softmax_channels(x: Tensor) -> Tensor:
    """Per-position distribution over the channel axis, max-subtracted for stability."""
    if x.ndim < 2:
        raise ShapeError("softmax_channels needs a channel axis (ndim >= 2)")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        gy = g * y
        _accum(x, gy - y * gy.sum(axis=1, keepdims=True), fresh=True)

    return _result(y, (x,), "softmax_channels", backward)


# ---------------------------------------------------------------------------
# 3D convolution


def _conv_out_extent(n: int, k: int, s: int, p: int) -> int:
    return (n + 2 * p - k) // s + 1


_ALL = (slice(None), slice(None))
# Column block of the multi-matmul convs: the gathered rows and the accumulator
# of one block stay in cache across the lead taps' matmuls and accumulate passes.
# 512-640 KiB was fastest of 128 KiB-2 MiB and of no blocking on the toy
# cascade's stride-1 3x3x3 convs (2-vCPU Xeon, 4 MiB L2); see ROADMAP item 5.
# A block has at least _MIN_BLOCK_COLS columns however deep the gather is.
_BLOCK_BYTES = 1 << 19
_MIN_BLOCK_COLS = 256


def _weight_axes(stride) -> tuple[int, ...]:
    """The axes of a [K, C, kd, kh, kw] weight in the order of ``_ConvPlan``'s
    [lead taps, K, T*C] matrices, whose columns follow the gathered buffer's
    (tap, channel) rows: at stride 1 the lead taps are (kd, kh) and the
    gathered taps kw; a strided conv gathers every tap."""
    return (2, 3, 0, 4, 1) if tuple(stride) == (1, 1, 1) else (0, 2, 3, 4, 1)


def conv_weight_layout(w: np.ndarray, stride) -> np.ndarray:
    """``w`` [K, C, kd, kh, kw] copied into the memory order of the matmul
    matrices a conv at ``stride`` runs, as a view of the same shape, so
    that conv uses it without copying it again (a constant weight, laid out
    once for many calls)."""
    axes = _weight_axes(stride)
    return np.ascontiguousarray(w.transpose(axes)).transpose(np.argsort(axes))


class _ConvPlan:
    """How one conv splits its kernel taps between gathering and matmuls.

    The gathered taps sit side by side in the matmul's inner dimension: row
    (t, c) of the gathered [T*C, cols] buffer holds what gathered tap t
    reads of channel c at each grid position.  Each lead tap runs one
    matmul of depth T*C.

    At stride 1 the kw width taps are gathered, and the kd*kh others are
    the lead taps.  The grid is the whole padded input, flattened, so a tap
    is a shift: a width tap's rows are the padded input shifted by the tap
    (one contiguous copy), and a lead tap reads the columns [offset,
    offset + rows).  The output is the grid's [:do, :ho, :wo] corner; the
    other columns are computed and dropped.  A strided conv gathers every
    tap's step-sliced window onto the output grid and runs one matmul.

    Everything a call can derive from the shapes (and the input's item
    size) is computed here once; a plan holds no buffers, so threads may
    share it.
    """

    def __init__(self, xshape, wshape, stride, padding, itemsize):
        n, c, *ext = xshape
        k, _, kd, kh, kw = wshape
        self.n, self.c, self.k, self.ks, self.ext = n, c, k, (kd, kh, kw), tuple(ext)
        self.wshape, self.stride, self.padding = tuple(wshape), tuple(stride), tuple(padding)
        self.padded = tuple(e + 2 * p for e, p in zip(ext, padding))
        self.out = tuple(_conv_out_extent(e, kk, s, p) for e, kk, s, p in zip(ext, self.ks, stride, padding))
        self.stride1 = self.stride == (1, 1, 1)
        self.w_axes = _weight_axes(self.stride)
        self.w_unaxes = tuple(int(a) for a in np.argsort(self.w_axes))
        self.w_mat_shape = tuple(self.wshape[a] for a in self.w_axes)
        # where x lands in the padded [C, N, ...] buffer, and the part of x that lands
        self.pad_dst = _ALL + tuple(slice(max(p, 0), max(p, 0) + e + 2 * min(p, 0)) for e, p in zip(ext, padding))
        self.pad_src = _ALL + tuple(slice(max(-p, 0), e - max(-p, 0)) for e, p in zip(ext, padding))
        if self.stride1:
            self.grid = self.padded
            # lead tap (i, j) starts i planes and j rows into the flattened grid
            self.lead, lead_steps = (kd, kh), (self.grid[1] * self.grid[2], self.grid[2])
        else:
            self.grid, self.lead, lead_steps = self.out, (1,), (0,)
        self.offsets = tuple(
            sum(i * st for i, st in zip(tap, lead_steps)) for tap in itertools.product(*map(range, self.lead))
        )
        self.cols = n * self.grid[0] * self.grid[1] * self.grid[2]
        self.rows = self.cols - self.offsets[-1]
        depth = c * (kw if self.stride1 else kd * kh * kw)  # rows of the gathered buffer
        # the lead taps as one [*lead, depth, columns] view of the gathered buffer
        self.tap_strides = tuple(st * itemsize for st in lead_steps) + (self.cols * itemsize, itemsize)
        if self.stride1:
            # width tap l of the gather: columns [0, cols - l) copy the padded
            # input from column l on, the last l columns are zero
            self.shifts = tuple((slice(self.cols - l), slice(l, None), slice(self.cols - l, None))
                                for l in range(1, kw))
        else:
            # every tap's step-sliced window of the padded [C, N, Dp, Hp, Wp]
            # input, as a [kd, kh, kw, C, N, do, ho, wo] view
            dp, hp, wp = self.padded
            sd, sh, sw = self.stride
            self.windows = (self.ks + (c, n) + self.out,
                            tuple(st * itemsize for st in (hp * wp, wp, 1, n * dp * hp * wp, dp * hp * wp,
                                                           sd * hp * wp, sh * wp, sw)))
            self.tap_windows = tuple(
                _ALL + tuple(slice(i, i + s * m, s) for i, s, m in zip(tap, self.stride, self.grid))
                for tap in itertools.product(*map(range, self.ks))
            )
            self.inside = _ALL + tuple(slice(p, p + e) for p, e in zip(self.padding, self.ext))
        if len(self.offsets) == 1:
            self.blocks = ((0, self.rows),)  # a single matmul takes all columns at once
        else:
            step = max(_MIN_BLOCK_COLS, _BLOCK_BYTES // (itemsize * (depth + k)))
            self.blocks = tuple((s, min(s + step, self.rows)) for s in range(0, self.rows, step))
        # per column block: the accumulator's columns, the block's width and each lead tap's columns
        self.block_taps = tuple((slice(s, e), slice(e - s), tuple(slice(off + s, off + e) for off in self.offsets))
                                for s, e in self.blocks)
        self.grid_shape = (k, n) + self.grid
        self.corner = _ALL + tuple(slice(o) for o in self.out)
        self.out_shape = (n, k) + self.out
        self.bias_shape = (1, k, 1, 1, 1)
        self.back_pad = tuple(kk - 1 - p for kk, p in zip(self.ks, self.padding))

    def pad(self, x, xp=None):
        """[N,C,D,H,W] as a zero-padded [C,N,D+2pd,H+2ph,W+2pw] buffer, written
        into ``xp`` when given; a negative padding crops instead."""
        if xp is None:
            xp = np.zeros((self.c, self.n) + self.padded, dtype=x.dtype)
        else:
            xp.fill(0)
        xp[self.pad_dst] = x.transpose(1, 0, 2, 3, 4)[self.pad_src]
        return xp

    def weights(self, w):
        """The [lead taps, K, T*C] weight matrices: a copy, or a view of a
        weight from ``conv_weight_layout``."""
        return np.ascontiguousarray(w.transpose(self.w_axes)).reshape(len(self.offsets), self.k, -1)

    def gather(self, x):
        """The gathered [T*C, cols] buffer of input x [N,C,D,H,W]."""
        if self.stride1:
            # width tap 0 is the padded input itself; tap l is it shifted by l
            buf = _scratch("gather", (self.ks[2], self.c, self.cols), x.dtype)
            flat = self.pad(x, buf[0].reshape((self.c, self.n) + self.grid)).reshape(self.c, self.cols)
            for shifted, (dst, src, tail) in zip(buf[1:], self.shifts):
                shifted[:, dst] = flat[:, src]
                shifted[:, tail] = 0  # read only by dropped columns
            return buf.reshape(-1, self.cols)
        shape, strides = self.windows
        buf = _scratch("gather", shape, x.dtype)
        np.copyto(buf, np.ndarray(shape, x.dtype, self.pad(x), 0, strides))
        return buf.reshape(-1, self.cols)

    def lead_taps(self, cols, s, e):
        """Columns [s, e) of every lead tap of the gathered buffer ``cols``,
        as one [*lead, T*C, e - s] strided view of it: the lowered buffer
        shared by all taps of Cho and Brand 2017 (MEC), which a batched
        matmul runs tap by tap."""
        return np.ndarray(self.lead + (cols.shape[0], e - s), cols.dtype, cols, s * cols.itemsize, self.tap_strides)

    def on_grid(self, g):
        """Output gradient g [N,K,do,ho,wo] on the grid's columns, zero
        outside the output corner, as a [K, cols] array.  It takes the
        accumulator's scratch buffer: backward drops it before the stride-1
        input gradient's conv takes that buffer, and a strided input
        gradient takes none."""
        g_cols = _scratch("acc", self.grid_shape, g.dtype)
        g_cols.fill(0)
        g_cols[self.corner] = g.transpose(1, 0, 2, 3, 4)
        return g_cols.reshape(self.k, self.cols)

    def weight_grad(self, x, g_cols):
        """``cols @ g.T`` per lead tap, against the input gathered again,
        as a [K, C, kd, kh, kw] array: one batched matmul over the lead taps
        per column block.  (``g @ cols.T``, the same product transposed,
        runs up to 2x slower in OpenBLAS for K >= 16.)"""
        cols = self.gather(x)
        parts = _scratch("parts", (len(self.blocks),) + self.lead + (cols.shape[0], self.k), g_cols.dtype)
        for part, (s, e) in zip(parts, self.blocks):
            np.matmul(self.lead_taps(cols, s, e), g_cols[:, s:e].T, out=part)
        grad = parts.sum(axis=0).reshape(len(self.offsets), -1, self.k).transpose(0, 2, 1)
        return grad.reshape(self.w_mat_shape).transpose(self.w_unaxes)

    def strided_input_grad(self, w, g_cols):
        """Strided convs: ``W.T @ g``, each tap's rows added back where that
        tap read, as a [N,C,D,H,W] array (the adjoint of the gather)."""
        g_taps = np.matmul(self.weights(w)[0].T, g_cols).reshape((-1, self.c, self.n) + self.grid)
        gxp = np.zeros((self.c, self.n) + self.padded, dtype=g_taps.dtype)
        for g_tap, window in zip(g_taps, self.tap_windows):
            gxp[window] += g_tap
        return gxp[self.inside].transpose(1, 0, 2, 3, 4)


@functools.lru_cache(maxsize=256)
def _conv_plan(xshape, wshape, stride, padding, itemsize) -> _ConvPlan:
    """The ``_ConvPlan`` of one conv shape and input item size, built once: a
    plan is a pure function of them and is never changed after ``__init__``."""
    return _ConvPlan(xshape, wshape, stride, padding, itemsize)


def _conv_forward(x, w, b, stride, padding):
    """conv3d on arrays: x [N,C,D,H,W], w [K,C,kd,kh,kw], bias b or None;
    returns a C-contiguous [N,K,do,ho,wo] array."""
    plan = _conv_plan(x.shape, w.shape, tuple(stride), tuple(padding), x.itemsize)
    k, rows = plan.k, plan.rows
    dtype = np.result_type(x, w)
    cols = plan.gather(x)
    wmats = plan.weights(w)
    acc = _scratch("acc", (k, plan.cols), dtype)
    prod = None
    if len(wmats) == 1:
        np.matmul(wmats[0], cols, out=acc)
    elif len(plan.blocks) == 1:
        # all lead taps in one batched matmul, then one reduce that adds
        # them in tap order, as the per-block loop below does
        prod = _scratch("prod", plan.lead + (k, rows), dtype)
        np.matmul(wmats.reshape(plan.lead + (k, -1)), plan.lead_taps(cols, 0, rows), out=prod)
        np.add.reduce(prod.reshape(-1, k, rows), axis=0, out=acc[:, :rows])
    else:
        prod = _scratch("prod", (k, plan.blocks[0][1]), dtype)
        for acc_cols, width, taps in plan.block_taps:
            np.matmul(wmats[0], cols[:, taps[0]], out=acc[:, acc_cols])
            for wm, tap in zip(wmats[1:], taps[1:]):
                acc[:, acc_cols] += np.matmul(wm, cols[:, tap], out=prod[:, width])
    del cols, prod
    corner = acc.reshape(plan.grid_shape)[plan.corner].transpose(1, 0, 2, 3, 4)
    out = np.empty(plan.out_shape, dtype=dtype)
    if b is None:
        np.copyto(out, corner)
    else:
        np.add(corner, b.reshape(plan.bias_shape), out=out)
    return out


def _pointwise(x, w, b, stride, parents):
    """conv3d with a 1x1x1 kernel and no padding: one [K, C] @ [C, DHW]
    matmul per batch item on NCDHW, after a step-slice when strided."""
    n, c = x.shape[:2]
    k = w.shape[0]
    step = _ALL + tuple(slice(None, None, s) for s in stride)
    xs = x.data[step]  # a view
    out_ext = xs.shape[2:]
    wm = w.data.reshape(k, c)
    out = np.matmul(wm, xs.reshape(n, c, -1))
    if b is not None:
        out += b.data.reshape(k, 1)
    out = out.reshape((n, k) + out_ext)

    def backward(g):
        g3 = g.reshape(n, k, -1)
        if b is not None:
            _accum(b, g3.sum(axis=(0, 2)), fresh=True)
        if w.requires_grad or w.record is not None:
            _accum(w, sum(gi @ xi.T for gi, xi in zip(g3, xs.reshape(n, c, -1))).reshape(w.shape), fresh=True)
        if x.requires_grad or x.record is not None:
            gx = np.matmul(wm.T, g3).reshape((n, c) + out_ext)
            if out_ext != x.shape[2:]:
                full = np.zeros(x.shape, dtype=gx.dtype)
                full[step] = gx
                gx = full
            _accum(x, gx, fresh=True)

    return _result(out, parents, "conv3d", backward)


def conv3d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: tuple[int, int, int] = (1, 1, 1),
    padding: tuple[int, int, int] = (0, 0, 0),
) -> Tensor:
    """3D cross-correlation of [N,C,D,H,W] with [K,C,kd,kh,kw] kernels.

    Output extent per axis is floor((n + 2p - k) / s) + 1.  Differentiable
    w.r.t. input, weight, and bias.

    Two paths, both on the NCDHW layout, neither with an im2col matrix:

    - A pointwise conv (1x1x1 kernel, no padding) is one
      ``W[K, C] @ x.reshape(N, C, -1)`` matmul, after a step-slice when
      strided.  Backward: ``gw = sum_n g_n @ x_n.T`` and ``gx = W.T @ g``,
      written at the step positions of a zero buffer when strided.
    - A wider kernel gathers some of its taps into the matmul's inner
      dimension (``_ConvPlan``).  At stride 1 the kw width taps are copied
      side by side into one [kw*C, cols] buffer, each a shifted copy of
      the padded input, so a 3x3x3 conv runs 9 lead-tap matmuls of depth
      3C, each over a strided view of that buffer, instead of 27 of depth
      C.  A grid that fits one column block runs them as one batched
      matmul and adds the 9 products with one reduce; a larger grid runs
      them block by block, in cache, with 8 accumulate passes per block.
      A strided conv, the single-channel stem among them, gathers all its
      taps and runs one matmul.
      Backward gathers the input again: the weight gradient is
      ``cols @ g.T`` per lead tap, one batched matmul per column block.
      The input gradient is, at stride 1, the
      same forward kernel applied to ``g`` with the flipped,
      channel-swapped weight and padding k-1-p; at stride > 1, ``W.T @ g``
      with each tap's rows added back where that tap read.

    The backward closure keeps references to the input and the weight, no
    padded or gathered copy.  The gathered columns, the accumulator and the
    gradient on the grid (which reuses the accumulator's buffer, never live
    at the same time) are transients from ``_scratch``: inside
    ``scratch_arena()`` they reuse the arena's buffers, outside it the
    gathered buffer is freed before the output is allocated.  The output
    and the gradients are always fresh arrays.
    """
    if x.ndim != 5 or weight.ndim != 5:
        raise ShapeError(f"conv3d: need 5-d input and weight, got {x.shape} and {weight.shape}")
    n, c, d, h, w = x.shape
    k, cw, kd, kh, kw = weight.shape
    if c != cw:
        raise ShapeError(f"conv3d: input channels {c} != weight channels {cw}")
    if bias is not None and bias.shape != (k,):
        raise ShapeError(f"conv3d: bias shape {bias.shape} != ({k},)")
    if min(stride) < 1:
        raise ShapeError(f"conv3d: stride components must be >= 1, got {stride}")
    for name, ext, kk, pp in zip(_AXIS_NAMES, (d, h, w), (kd, kh, kw), padding):
        if ext + 2 * pp < kk:
            raise ShapeError(f"conv3d: kernel {kk} exceeds padded {name} extent {ext + 2 * pp}")

    parents = (x, weight) if bias is None else (x, weight, bias)
    if (kd, kh, kw) == (1, 1, 1) and tuple(padding) == (0, 0, 0):
        return _pointwise(x, weight, bias, stride, parents)
    out = _conv_forward(x.data, weight.data, None if bias is None else bias.data, stride, padding)

    def backward(g):
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3, 4)), fresh=True)
        need_w = weight.requires_grad or weight.record is not None
        need_x = x.requires_grad or x.record is not None
        plan = _conv_plan(x.shape, weight.shape, tuple(stride), tuple(padding), x.data.itemsize)
        g_cols = plan.on_grid(g) if need_w or (need_x and not plan.stride1) else None
        if need_w:
            _accum(weight, plan.weight_grad(x.data, g_cols), fresh=True)
        if need_x:
            if plan.stride1:
                del g_cols
                flipped = weight.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
                _accum(x, _conv_forward(g, flipped, None, (1, 1, 1), plan.back_pad), fresh=True)
            else:
                _accum(x, plan.strided_input_grad(weight.data, g_cols), fresh=True)

    return _result(out, parents, "conv3d", backward)


def conv3d_strided_down(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    factors: tuple[int, int, int],
) -> Tensor:
    """Downsampling convolution: stride = per-axis factor, 'same' padding.

    Requires odd kernels and each spatial extent divisible by its factor, so
    that output extents are exactly input // factor (depth can stay unpooled
    with a factor of 1 while the in-plane axes halve).
    """
    kd, kh, kw = weight.shape[2:]
    if kd % 2 == 0 or kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv3d_strided_down: kernel must be odd per axis, got {(kd, kh, kw)}")
    for name, ext, f in zip(_AXIS_NAMES, x.shape[2:], factors):
        if f < 1:
            raise ShapeError(f"conv3d_strided_down: factor {f} < 1 on {name} axis")
        if ext % f != 0:
            raise ShapeError(f"conv3d_strided_down: {name} extent {ext} not divisible by factor {f}")
    return conv3d(x, weight, bias, stride=factors, padding=(kd // 2, kh // 2, kw // 2))


# ---------------------------------------------------------------------------
# trilinear upsampling


@functools.lru_cache(maxsize=64)
def _upsample_axis_matrix(n_in: int, factor: int, dtype) -> np.ndarray:
    """``volumes._linear_axis_matrix(n_in, n_in * factor)`` in ``dtype``.

    Cached per (n_in, factor, dtype), so the matrix is read-only.
    """
    m = _linear_axis_matrix(n_in, n_in * factor).astype(dtype)
    m.flags.writeable = False
    return m


def _apply_axis_matrix(a: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    """``m`` [n_out, n_in] applied along ``axis`` of a 5-d array: one matmul
    on a reshape, batched over the axes before ``axis``; a C-contiguous
    result."""
    shape = a.shape
    if axis == 4:
        out = a.reshape(-1, shape[4]) @ m.T
    else:
        out = m @ a.reshape(-1, shape[axis], math.prod(shape[axis + 1 :]))
    return out.reshape(shape[:axis] + (m.shape[0],) + shape[axis + 1 :])


def upsample_trilinear(x: Tensor, factors: tuple[int, int, int]) -> Tensor:
    """Upsample [N,C,D,H,W] spatial extents by integer factors, trilinearly:
    the cached interpolation matrix of each upsampled axis, applied in depth,
    height, width order; backward applies their transposes the same way."""
    if x.ndim != 5:
        raise ShapeError(f"upsample_trilinear: need 5-d input, got {x.shape}")
    if min(factors) < 1:
        raise ShapeError(f"upsample_trilinear: factors must be >= 1, got {factors}")
    mats = [(2 + i, _upsample_axis_matrix(x.shape[2 + i], f, x.dtype)) for i, f in enumerate(factors) if f != 1]
    out = x.data
    for axis, m in mats:
        out = _apply_axis_matrix(out, m, axis)

    def backward(g):
        gx = g
        for axis, m in mats:
            gx = _apply_axis_matrix(gx, m.T, axis)
        _accum(x, gx, fresh=bool(mats))

    return _result(np.ascontiguousarray(out), (x,), "upsample_trilinear", backward)


# ---------------------------------------------------------------------------
# batch normalization


BN_MOMENTUM = 0.1
BN_EPSILON = 1e-5


class BatchNormStats:
    """Running mean/variance buffers, exponentially averaged by each train-mode
    call, and the count of those calls (an int64 [1] array, so it is saved and
    restored like the other buffers)."""

    __slots__ = ("mean", "var", "batches_tracked")

    def __init__(self, channels: int, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        self.batches_tracked = np.zeros(1, dtype=np.int64)


def batch_norm3d(x: Tensor, gamma: Tensor, beta: Tensor, stats: BatchNormStats, relu: bool = False) -> Tensor:
    """Train-mode per-channel normalization over (N, D, H, W), followed by
    a ReLU when ``relu`` is set.

    Normalizes by batch statistics, differentiates through them, and moves
    the running stats by ``BN_MOMENTUM`` toward the batch values.  Forward
    centres ``x`` once, takes the variance from the centred array and
    scales and shifts that array in place.  Backward takes ``sum(g)`` and
    ``sum(g * xhat)``, the beta and gamma gradients, and reuses them in the
    input gradient instead of reducing again.  The sums are numpy's
    pairwise ``.sum`` (``einsum`` made the float32 gamma gradient about 10x
    less accurate).  Backward keeps only the per-channel mean and inverse
    std (and the input, which the graph holds anyway) and recomputes the
    normalized input ``xhat`` with the forward's expression, so no
    full-size array is saved.  There is no eval mode here: at inference
    batch norm is a fixed affine map, which ``model.BatchNorm3dLayer.fold``
    folds into the preceding conv.

    With ``relu`` the op is ``relu(batch_norm3d(...))`` with one full-size
    array fewer in the graph, after In-Place Activated BatchNorm (Rota Bulo,
    Porzi and Kontschieder 2018): forward clamps its output in place, and
    backward masks the incoming gradient in place by ``out > 0`` (a node
    owns its ``grad``, see ``_accum``) before the batch-norm backward.  Both
    are the separate ``relu``'s arithmetic, so the results are bitwise the
    same; NaN stays NaN.
    """
    if x.ndim != 5:
        raise ShapeError(f"batch_norm3d: need 5-d input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm3d: gamma/beta must have shape ({c},)")
    axes = (0, 2, 3, 4)
    bshape = (1, c, 1, 1, 1)
    m = x.data.size // c
    mean = x.data.mean(axis=axes, keepdims=True)
    out = x.data - mean
    var = np.square(out).sum(axis=axes) / m
    stats.mean += BN_MOMENTUM * (mean.reshape(c).astype(stats.mean.dtype) - stats.mean)
    stats.var += BN_MOMENTUM * (var.astype(stats.var.dtype) - stats.var)
    stats.batches_tracked += 1
    inv_std = (1.0 / np.sqrt(var + x.data.dtype.type(BN_EPSILON))).reshape(bshape)
    out *= inv_std
    out *= gamma.data.reshape(bshape)
    out += beta.data.reshape(bshape)
    if relu:
        np.maximum(out, out.dtype.type(0), out=out)

    def backward(g):
        if relu:
            np.multiply(g, out > 0, out=g)
        xhat = x.data - mean
        xhat *= inv_std
        gx = g * xhat
        sum_g = g.sum(axis=axes).reshape(bshape)
        sum_g_xhat = gx.sum(axis=axes).reshape(bshape)
        _accum(beta, sum_g.reshape(c), fresh=True)
        _accum(gamma, sum_g_xhat.reshape(c), fresh=True)
        if x.requires_grad or x.record is not None:
            # gamma * inv_std / m * (m * g - sum(g) - xhat * sum(g * xhat))
            scale = gamma.data.reshape(bshape) * inv_std / x.data.dtype.type(m)
            xhat *= sum_g_xhat * scale
            xhat += sum_g * scale
            np.multiply(g, scale * x.data.dtype.type(m), out=gx)
            gx -= xhat
            _accum(x, gx, fresh=True)

    return _result(out, (x, gamma, beta), "batch_norm3d", backward)
