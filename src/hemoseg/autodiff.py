"""Dense tensors with reverse-mode automatic differentiation.

Implements exactly the operation set the 3D segmentation network needs:
3D convolution (optionally strided for downsampling), trilinear upsampling,
train-mode batch normalization, ReLU, residual add, channel concat/slice,
channel softmax, and the elementwise/reduction ops the losses are built from.
Data lives in row-major numpy buffers, float32 for training and inference,
float64 for gradient checking.

A graph is backpropagated once: ``Tensor.backward`` frees each node's
gradient and saved arrays as soon as its backward has run, so only leaves
keep ``.grad``, and a second backward through the same graph raises
RuntimeError.

Forward/backward of one graph is single-threaded; tensors may move between
threads but a graph must not be mutated concurrently.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .volumes import _linear_axis_matrix

__all__ = [
    "Tensor",
    "OpRecord",
    "ShapeError",
    "set_finite_checks",
    "conv3d",
    "conv3d_strided_down",
    "conv_weight_layout",
    "upsample_trilinear",
    "BatchNormStats",
    "batch_norm3d",
    "relu",
    "add",
    "mul",
    "div",
    "concat_channels",
    "slice_channels",
    "softmax_channels",
    "log",
    "clamp_min",
]

_AXIS_NAMES = ("depth", "height", "width")

_finite_checks = False


def set_finite_checks(enabled: bool) -> None:
    """Enable NaN/Inf detection on every op output (costly; meant for tests)."""
    global _finite_checks
    _finite_checks = bool(enabled)


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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
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
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_error(self)

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def sum(self) -> "Tensor":
        x = self

        def backward(g):
            _accum(x, np.full_like(x.data, g.reshape(())))

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

    def __neg__(self):
        return _scalar_mul(self, -1.0)

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


def _scalar_error(t):
    raise ShapeError("item() requires a single-element tensor, got shape %r" % (t.shape,))


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not (t.requires_grad or t.record is not None):
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True, order="C")
    else:
        t.grad += g


def _result(data: np.ndarray, parents: tuple, op: str, backward) -> Tensor:
    if _finite_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by {op}")
    out = Tensor(data)
    if any(p.requires_grad or p.record is not None for p in parents):
        out.record = OpRecord(op, parents, backward)
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
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _result(a.data * b.data, (a, b), "mul", backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"div: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    return _result(a.data / b.data, (a, b), "div", backward)


def _scalar_add(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accum(a, g)

    return _result(a.data + a.data.dtype.type(s), (a,), "scalar_add", backward)


def _scalar_mul(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accum(a, g * a.data.dtype.type(s))

    return _result(a.data * a.data.dtype.type(s), (a,), "scalar_mul", backward)


def relu(x: Tensor) -> Tensor:
    """max(0, x); subgradient at 0 is 0.  NaN inputs stay NaN."""

    def backward(g):
        _accum(x, g * (x.data > 0))

    return _result(np.maximum(x.data, x.data.dtype.type(0)), (x,), "relu", backward)


def log(x: Tensor) -> Tensor:
    def backward(g):
        _accum(x, g / x.data)

    return _result(np.log(x.data), (x,), "log", backward)


def clamp_min(x: Tensor, lo: float) -> Tensor:
    """Elementwise max(x, lo); gradient passes through where x >= lo."""

    def backward(g):
        _accum(x, g * (x.data >= lo))

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
        _accum(x, gx)

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
        _accum(x, gy - y * gy.sum(axis=1, keepdims=True))

    return _result(y, (x,), "softmax_channels", backward)


# ---------------------------------------------------------------------------
# 3D convolution


def _conv_out_extent(n: int, k: int, s: int, p: int) -> int:
    return (n + 2 * p - k) // s + 1


_ALL = (slice(None), slice(None))
# Column block of the multi-matmul convs: the gathered rows and the accumulator
# of one block stay in cache across the lead taps' matmuls and accumulate passes.
# 512-640 KiB was fastest of 128 KiB-2 MiB and of no blocking on the toy
# cascade's stride-1 3x3x3 convs (2-vCPU Xeon, 4 MiB L2); see ROADMAP item 2.
_BLOCK_BYTES = 1 << 19


def _pad_channels_first(x, padding, xp=None):
    """[N,C,D,H,W] as a zero-padded [C,N,D+2pd,H+2ph,W+2pw] buffer, written
    into ``xp`` when given; a negative padding crops instead."""
    n, c, *ext = x.shape
    if xp is None:
        xp = np.zeros((c, n) + tuple(e + 2 * p for e, p in zip(ext, padding)), dtype=x.dtype)
    else:
        xp.fill(0)
    dst = tuple(slice(max(p, 0), max(p, 0) + e + 2 * min(p, 0)) for e, p in zip(ext, padding))
    src = tuple(slice(max(-p, 0), e - max(-p, 0)) for e, p in zip(ext, padding))
    xp[_ALL + dst] = x.transpose(1, 0, 2, 3, 4)[_ALL + src]
    return xp


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
    """

    def __init__(self, xshape, wshape, stride, padding):
        n, c, *ext = xshape
        k, _, kd, kh, kw = wshape
        self.n, self.c, self.k, self.ks, self.ext = n, c, k, (kd, kh, kw), tuple(ext)
        self.wshape, self.stride, self.padding = tuple(wshape), tuple(stride), tuple(padding)
        self.padded = tuple(e + 2 * p for e, p in zip(ext, padding))
        self.out = tuple(_conv_out_extent(e, kk, s, p) for e, kk, s, p in zip(ext, self.ks, stride, padding))
        self.stride1 = self.stride == (1, 1, 1)
        self.w_axes = _weight_axes(self.stride)
        if self.stride1:
            self.grid = self.padded
            plane, row = self.grid[1] * self.grid[2], self.grid[2]
            self.offsets = tuple(i * plane + j * row for i in range(kd) for j in range(kh))
        else:
            self.grid, self.offsets = self.out, (0,)
        self.cols = n * self.grid[0] * self.grid[1] * self.grid[2]
        self.rows = self.cols - self.offsets[-1]

    def weights(self, w):
        """The [lead taps, K, T*C] weight matrices: a copy, or a view of a
        weight from ``conv_weight_layout``."""
        return np.ascontiguousarray(w.transpose(self.w_axes)).reshape(len(self.offsets), self.k, -1)

    def gather(self, x):
        """The gathered [T*C, cols] buffer of input x [N,C,D,H,W]."""
        if self.stride1:
            # width tap 0 is the padded input itself; tap l is it shifted by l
            buf = np.empty((self.ks[2], self.c, self.cols), dtype=x.dtype)
            flat = _pad_channels_first(x, self.padding, buf[0].reshape((self.c, self.n) + self.grid))
            flat = flat.reshape(self.c, self.cols)
            for l, shifted in enumerate(buf[1:], start=1):
                shifted[:, : self.cols - l] = flat[:, l:]
                shifted[:, self.cols - l :] = 0  # read only by dropped columns
            return buf.reshape(-1, self.cols)
        xp = _pad_channels_first(x, self.padding)
        view = np.lib.stride_tricks.sliding_window_view(xp, self.ks, axis=(2, 3, 4))
        view = view[_ALL + tuple(slice(None, None, s) for s in self.stride)]
        return np.ascontiguousarray(np.moveaxis(view, (5, 6, 7), (0, 1, 2))).reshape(-1, self.cols)

    def blocks(self, depth, itemsize):
        """Column blocks [s, e) of the rows; a single matmul takes them all at once."""
        if len(self.offsets) == 1:
            return [(0, self.rows)]
        step = max(256, _BLOCK_BYTES // (itemsize * depth))
        return [(s, min(s + step, self.rows)) for s in range(0, self.rows, step)]

    def on_grid(self, g):
        """Output gradient g [N,K,do,ho,wo] on the grid's columns, zero
        outside the output corner, as a [K, cols] array."""
        g_cols = np.zeros((self.k, self.n) + self.grid, dtype=g.dtype)
        g_cols[_ALL + tuple(slice(o) for o in self.out)] = g.transpose(1, 0, 2, 3, 4)
        return g_cols.reshape(self.k, self.cols)

    def weight_grad(self, x, g_cols):
        """``cols @ g.T`` per lead tap, against the input gathered again,
        as a [K, C, kd, kh, kw] array.  (``g @ cols.T``, the same product
        transposed, runs up to 2x slower in OpenBLAS for K >= 16.)"""
        cols = self.gather(x)
        blocks = self.blocks(cols.shape[0] + self.k, cols.itemsize)
        parts = np.empty((len(blocks), len(self.offsets), cols.shape[0], self.k), dtype=g_cols.dtype)
        for part, (s, e) in zip(parts, blocks):
            for t, off in enumerate(self.offsets):
                np.matmul(cols[:, off + s : off + e], g_cols[:, s:e].T, out=part[t])
        shape = tuple(self.wshape[a] for a in self.w_axes)
        return parts.sum(axis=0).transpose(0, 2, 1).reshape(shape).transpose(np.argsort(self.w_axes))

    def strided_input_grad(self, w, g_cols):
        """Strided convs: ``W.T @ g``, each tap's rows added back where that
        tap read, as a [N,C,D,H,W] array (the adjoint of the gather)."""
        g_taps = np.matmul(self.weights(w)[0].T, g_cols).reshape((-1, self.c, self.n) + self.grid)
        gxp = np.zeros((self.c, self.n) + self.padded, dtype=g_taps.dtype)
        for g_tap, tap in zip(g_taps, itertools.product(*map(range, self.ks))):
            gxp[_ALL + tuple(slice(i, i + s * m, s) for i, s, m in zip(tap, self.stride, self.grid))] += g_tap
        inside = tuple(slice(p, p + e) for p, e in zip(self.padding, self.ext))
        return gxp[_ALL + inside].transpose(1, 0, 2, 3, 4)


@functools.lru_cache(maxsize=256)
def _conv_plan(xshape, wshape, stride, padding) -> _ConvPlan:
    """The ``_ConvPlan`` of one conv shape, built once: a plan is a pure
    function of the shapes and is never changed after ``__init__``."""
    return _ConvPlan(xshape, wshape, stride, padding)


def _conv_forward(x, w, b, stride, padding):
    """conv3d on arrays: x [N,C,D,H,W], w [K,C,kd,kh,kw], bias b or None;
    returns a C-contiguous [N,K,do,ho,wo] array."""
    plan = _conv_plan(x.shape, w.shape, tuple(stride), tuple(padding))
    k = plan.k
    dtype = np.result_type(x, w)
    cols = plan.gather(x)
    wmats = plan.weights(w)
    acc = np.empty((k, plan.cols), dtype=dtype)
    blocks = plan.blocks(cols.shape[0] + k, cols.itemsize)
    prod = np.empty((k, blocks[0][1]), dtype=dtype) if len(wmats) > 1 else None
    for s, e in blocks:
        for t, (off, wm) in enumerate(zip(plan.offsets, wmats)):
            if t == 0:
                np.matmul(wm, cols[:, off + s : off + e], out=acc[:, s:e])
            else:
                acc[:, s:e] += np.matmul(wm, cols[:, off + s : off + e], out=prod[:, : e - s])
    del cols, prod
    corner = acc.reshape((k, plan.n) + plan.grid)[_ALL + tuple(slice(o) for o in plan.out)]
    out = np.empty((plan.n, k) + plan.out, dtype=dtype)
    if b is None:
        np.copyto(out, corner.transpose(1, 0, 2, 3, 4))
    else:
        np.add(corner.transpose(1, 0, 2, 3, 4), b.reshape(1, k, 1, 1, 1), out=out)
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
            _accum(b, g3.sum(axis=(0, 2)))
        if w.requires_grad or w.record is not None:
            _accum(w, sum(gi @ xi.T for gi, xi in zip(g3, xs.reshape(n, c, -1))).reshape(w.shape))
        if x.requires_grad or x.record is not None:
            gx = np.matmul(wm.T, g3).reshape((n, c) + out_ext)
            if out_ext != x.shape[2:]:
                full = np.zeros(x.shape, dtype=gx.dtype)
                full[step] = gx
                gx = full
            _accum(x, gx)

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
      the padded input, so a 3x3x3 conv runs 9 matmuls of
      depth 3C with 8 accumulate passes instead of 27 of depth C with 26;
      the matmuls run over column blocks that stay in cache.  A strided
      conv, the single-channel stem among them, gathers all its taps and
      runs one matmul.
      Backward gathers the input again: the weight gradient is
      ``cols @ g.T`` per matmul.  The input gradient is, at stride 1, the
      same forward kernel applied to ``g`` with the flipped,
      channel-swapped weight and padding k-1-p; at stride > 1, ``W.T @ g``
      with each tap's rows added back where that tap read.

    The backward closure keeps references to the input and the weight, no
    padded or gathered copy.  The gathered buffer is freed before the
    output is allocated.
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
            _accum(bias, g.sum(axis=(0, 2, 3, 4)))
        need_w = weight.requires_grad or weight.record is not None
        need_x = x.requires_grad or x.record is not None
        plan = _conv_plan(x.shape, weight.shape, tuple(stride), tuple(padding))
        g_cols = plan.on_grid(g) if need_w or (need_x and not plan.stride1) else None
        if need_w:
            _accum(weight, plan.weight_grad(x.data, g_cols))
        if need_x:
            if plan.stride1:
                del g_cols
                flipped = weight.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
                back_pad = tuple(kk - 1 - p for kk, p in zip(plan.ks, plan.padding))
                _accum(x, _conv_forward(g, flipped, None, (1, 1, 1), back_pad))
            else:
                _accum(x, plan.strided_input_grad(weight.data, g_cols))

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
    return np.moveaxis(np.tensordot(a, m, axes=([axis], [1])), -1, axis)


def upsample_trilinear(x: Tensor, factors: tuple[int, int, int]) -> Tensor:
    """Upsample [N,C,D,H,W] spatial extents by integer factors, trilinearly."""
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
        _accum(x, gx)

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


def batch_norm3d(x: Tensor, gamma: Tensor, beta: Tensor, stats: BatchNormStats, train: bool) -> Tensor:
    """Train-mode per-channel normalization over (N, D, H, W).

    Normalizes by batch statistics, differentiates through them, and moves
    the running stats by ``BN_MOMENTUM`` toward the batch values.  Backward
    keeps only the per-channel mean and inverse std (and the input, which
    the graph holds anyway) and recomputes the normalized input ``xhat``
    with the forward's expression, so no full-size array is saved.  There is
    no eval mode here: at inference batch norm is a fixed affine map, which
    ``model.BatchNorm3dLayer.fold`` folds into the preceding conv, so
    ``train=False`` raises ValueError.
    """
    if not train:
        raise ValueError("batch_norm3d is train-only; eval mode folds batch norm into its conv (BatchNorm3dLayer.fold)")
    if x.ndim != 5:
        raise ShapeError(f"batch_norm3d: need 5-d input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm3d: gamma/beta must have shape ({c},)")
    axes = (0, 2, 3, 4)
    bshape = (1, c, 1, 1, 1)
    mean = x.data.mean(axis=axes)
    var = x.data.var(axis=axes)
    stats.mean += BN_MOMENTUM * (mean.astype(stats.mean.dtype) - stats.mean)
    stats.var += BN_MOMENTUM * (var.astype(stats.var.dtype) - stats.var)
    stats.batches_tracked += 1
    mean = mean.reshape(bshape)
    inv_std = (1.0 / np.sqrt(var + x.data.dtype.type(BN_EPSILON))).reshape(bshape)
    out = gamma.data.reshape(bshape) * ((x.data - mean) * inv_std) + beta.data.reshape(bshape)
    m = x.data.size // c

    def backward(g):
        xhat = (x.data - mean) * inv_std
        _accum(beta, g.sum(axis=axes))
        _accum(gamma, (g * xhat).sum(axis=axes))
        if x.requires_grad or x.record is not None:
            dxhat = g * gamma.data.reshape(bshape)
            s1 = dxhat.sum(axis=axes).reshape(bshape)
            s2 = (dxhat * xhat).sum(axis=axes).reshape(bshape)
            _accum(x, inv_std / m * (m * dxhat - s1 - xhat * s2))

    return _result(out, (x, gamma, beta), "batch_norm3d", backward)
