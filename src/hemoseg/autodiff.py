"""Dense tensors with reverse-mode automatic differentiation.

Implements exactly the operation set the 3D segmentation network needs:
3D convolution (optionally strided for downsampling), trilinear upsampling,
batch normalization, ReLU, residual add, channel concat/slice, channel
softmax, and the elementwise/reduction ops the losses are built from.
Data lives in row-major numpy buffers, float32 for training and inference,
float64 for gradient checking.

Forward/backward of one graph is single-threaded; tensors may move between
threads but a graph must not be mutated concurrently.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Tensor",
    "OpRecord",
    "ShapeError",
    "set_finite_checks",
    "conv3d",
    "conv3d_strided_down",
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
    reverse topological order.
    """

    __slots__ = ("op", "parents", "apply")

    def __init__(self, op, parents, apply):
        self.op = op
        self.parents = parents
        self.apply = apply


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
        """Populate ``grad`` on every reachable requires_grad tensor.

        Gradients accumulate additively across multiple uses of a tensor.
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
            seen.add(id(node))
            stack.append((node, True))
            if node.record is not None:
                for p in node.record.parents:
                    if id(p) not in seen:
                        stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.record is not None and node.grad is not None:
                node.record.apply(node.grad)

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
    mask = x.data > 0

    def backward(g):
        _accum(x, g * mask)

    return _result(np.maximum(x.data, x.data.dtype.type(0)), (x,), "relu", backward)


def log(x: Tensor) -> Tensor:
    def backward(g):
        _accum(x, g / x.data)

    return _result(np.log(x.data), (x,), "log", backward)


def clamp_min(x: Tensor, lo: float) -> Tensor:
    """Elementwise max(x, lo); gradient passes through where x >= lo."""
    mask = x.data >= lo

    def backward(g):
        _accum(x, g * mask)

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

    Shift-and-accumulate, no im2col: the input is padded once into a
    channels-last [N, D+2pd, H+2ph, W+2pw, C] buffer, and each kernel tap
    (i, j, l) adds ``window(i, j, l) @ W[:, :, i, j, l].T`` into a
    channels-last accumulator.  At stride 1 a tap's window is a contiguous
    row range of the flattened buffer, offset by the tap, and the
    accumulator covers the padded grid; a strided window is a step-sliced
    view, copied into one scratch buffer.  Backward reuses the windows: a
    tap's weight gradient is ``window.T @ g`` and the input gradient adds
    ``g @ W_tap`` into the tap's window of a padded gradient buffer.  The
    backward closure keeps only the padded channels-last input (the input's
    size plus its padding), no column matrix.

    A single-channel input (the stem) would make each tap a matmul with inner
    dimension 1, so there the taps' windows are gathered into one
    (taps, rows) column buffer instead, and forward, weight gradient and
    input gradient are one matmul each.  Backward gathers the columns again
    rather than keeping them.
    """
    if x.ndim != 5 or weight.ndim != 5:
        raise ShapeError(f"conv3d: need 5-d input and weight, got {x.shape} and {weight.shape}")
    n, c, d, h, w = x.shape
    k, cw, kd, kh, kw = weight.shape
    if c != cw:
        raise ShapeError(f"conv3d: input channels {c} != weight channels {cw}")
    if bias is not None and bias.shape != (k,):
        raise ShapeError(f"conv3d: bias shape {bias.shape} != ({k},)")
    sd, sh, sw = stride
    pd, ph, pw = padding
    if min(sd, sh, sw) < 1:
        raise ShapeError(f"conv3d: stride components must be >= 1, got {stride}")
    for name, ext, kk, pp in zip(_AXIS_NAMES, (d, h, w), (kd, kh, kw), (pd, ph, pw)):
        if ext + 2 * pp < kk:
            raise ShapeError(f"conv3d: kernel {kk} exceeds padded {name} extent {ext + 2 * pp}")
    do = _conv_out_extent(d, kd, sd, pd)
    ho = _conv_out_extent(h, kh, sh, ph)
    wo = _conv_out_extent(w, kw, sw, pw)

    dtype = np.result_type(x.data, weight.data)
    xp = np.zeros((n, d + 2 * pd, h + 2 * ph, w + 2 * pw, c), dtype=x.data.dtype)
    xp[:, pd : pd + d, ph : ph + h, pw : pw + w] = x.data.transpose(0, 2, 3, 4, 1)
    # one contiguous (C, K) matrix per tap, in (i, j, l) order, which BLAS takes as is
    wt = np.ascontiguousarray(weight.data.transpose(2, 3, 4, 1, 0)).reshape(-1, c, k)
    taps = [(i, j, l) for i in range(kd) for j in range(kh) for l in range(kw)]
    stride1 = (sd, sh, sw) == (1, 1, 1)
    if stride1:
        # Accumulator rows are the positions of the whole padded grid, so every tap
        # reads one contiguous row range of the flattened buffer (no copy).  The
        # outputs are the grid's [:do, :ho, :wo] corner; no other row is ever read.
        grid = xp.shape[1:4]
        offsets = [(i * grid[1] + j) * grid[2] + l for i, j, l in taps]
        rows = xp.size // c - offsets[-1]
    else:
        grid = (do, ho, wo)
        rows = n * do * ho * wo

    def tap_views(buf):
        """Each tap's window of a padded channels-last buffer, writable."""
        if stride1:
            flat = buf.reshape(-1, c)
            return [flat[o : o + rows] for o in offsets]
        return [buf[:, i : i + sd * do : sd, j : j + sh * ho : sh, l : l + sw * wo : sw] for i, j, l in taps]

    def tap_rows(buf):
        """Each tap's window as a (rows, C) matrix; strided windows are copied
        into one scratch buffer that every tap reuses."""
        if stride1:
            yield from tap_views(buf)
            return
        scratch = np.empty((n, do, ho, wo, c), dtype=buf.dtype)
        for view in tap_views(buf):
            np.copyto(scratch, view)
            yield scratch.reshape(rows, c)

    def columns(buf):
        """C == 1 only: every tap's window as one row of a (taps, rows) buffer."""
        col = np.empty((len(taps), rows), dtype=buf.dtype)
        for row, view in zip(col, tap_views(buf)):
            np.copyto(row.reshape(view.shape), view)
        return col

    acc = np.empty((n * grid[0] * grid[1] * grid[2], k), dtype=dtype)
    if c == 1:
        np.matmul(columns(xp).T, wt.reshape(-1, k), out=acc[:rows])
    else:
        prod = np.empty((rows, k), dtype=dtype)
        for t, (x_tap, w_tap) in enumerate(zip(tap_rows(xp), wt)):
            if t == 0:
                np.matmul(x_tap, w_tap, out=acc[:rows])
            else:
                acc[:rows] += np.matmul(x_tap, w_tap, out=prod)
        del prod
    if bias is not None:
        acc[:rows] += bias.data
    out = np.ascontiguousarray(acc.reshape(n, *grid, k)[:, :do, :ho, :wo].transpose(0, 4, 1, 2, 3))

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        # g on the accumulator's rows; rows outside the output corner stay zero
        g_rows = np.zeros((n, *grid, k), dtype=g.dtype)
        g_rows[:, :do, :ho, :wo] = g.transpose(0, 2, 3, 4, 1)
        g_rows = g_rows.reshape(-1, k)[:rows]
        if bias is not None:
            _accum(bias, g_rows.sum(axis=0))
        if weight.requires_grad or weight.record is not None:
            if c == 1:
                gw = np.matmul(columns(xp), g_rows)
            else:
                gw = np.empty(wt.shape, dtype=g_rows.dtype)
                for t, x_tap in enumerate(tap_rows(xp)):
                    np.matmul(x_tap.T, g_rows, out=gw[t])
            _accum(weight, gw.reshape(kd, kh, kw, c, k).transpose(4, 3, 0, 1, 2))
        if x.requires_grad or x.record is not None:
            gxp = np.zeros(xp.shape, dtype=g_rows.dtype)
            if c == 1:
                g_col = np.matmul(wt.reshape(-1, k), g_rows.T)
                for view, g_tap in zip(tap_views(gxp), g_col):
                    view += g_tap.reshape(view.shape)
                del g_col
            else:
                gs = np.empty((rows, c), dtype=g_rows.dtype)
                for view, w_tap in zip(tap_views(gxp), wt):
                    view += np.matmul(g_rows, w_tap.T, out=gs).reshape(view.shape)
                del gs
            _accum(x, gxp[:, pd : pd + d, ph : ph + h, pw : pw + w].transpose(0, 4, 1, 2, 3))

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
    """(n_in*factor, n_in) interpolation matrix, align-corners-false.

    Output sample i reads the input at (i + 0.5)/f - 0.5, clamped to the
    valid range (edge replication at the borders).  Rows sum to 1, so
    constants are preserved exactly.  Cached per (n_in, factor, dtype), so
    the matrix is read-only.
    """
    n_out = n_in * factor
    src = (np.arange(n_out, dtype=np.float64) + 0.5) / factor - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w1 = src - i0
    m = np.zeros((n_out, n_in), dtype=np.float64)
    m[np.arange(n_out), i0] += 1.0 - w1
    m[np.arange(n_out), i1] += w1
    m = m.astype(dtype)
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


class BatchNormStats:
    """Running mean/variance buffers, exponentially averaged in train mode."""

    __slots__ = ("mean", "var", "batches_tracked")

    def __init__(self, channels: int, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        self.batches_tracked = 0


def batch_norm3d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: BatchNormStats,
    train: bool,
    momentum: float = 0.1,
    epsilon: float = 1e-5,
) -> Tensor:
    """Per-channel normalization over (N, D, H, W).

    Train mode normalizes by batch statistics, differentiates through them,
    and moves running stats by ``momentum`` toward the batch values.  Eval
    mode uses the running stats and errors if none were ever recorded.
    """
    if x.ndim != 5:
        raise ShapeError(f"batch_norm3d: need 5-d input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm3d: gamma/beta must have shape ({c},)")
    axes = (0, 2, 3, 4)
    bshape = (1, c, 1, 1, 1)
    eps = x.data.dtype.type(epsilon)

    if train:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        stats.mean += momentum * (mean.astype(stats.mean.dtype) - stats.mean)
        stats.var += momentum * (var.astype(stats.var.dtype) - stats.var)
        stats.batches_tracked += 1
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mean.reshape(bshape)) * inv_std.reshape(bshape)
        out = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)
        m = x.data.size // c

        def backward(g):
            _accum(beta, g.sum(axis=axes))
            _accum(gamma, (g * xhat).sum(axis=axes))
            if x.requires_grad or x.record is not None:
                dxhat = g * gamma.data.reshape(bshape)
                s1 = dxhat.sum(axis=axes).reshape(bshape)
                s2 = (dxhat * xhat).sum(axis=axes).reshape(bshape)
                _accum(x, inv_std.reshape(bshape) / m * (m * dxhat - s1 - xhat * s2))

        return _result(out, (x, gamma, beta), "batch_norm3d", backward)

    if stats.batches_tracked == 0:
        raise RuntimeError("batch_norm3d: eval mode before any running-stat update")
    inv_std = (1.0 / np.sqrt(stats.var.astype(x.data.dtype) + eps)).reshape(bshape)
    xhat = (x.data - stats.mean.astype(x.data.dtype).reshape(bshape)) * inv_std
    out = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

    def backward_eval(g):
        _accum(beta, g.sum(axis=axes))
        _accum(gamma, (g * xhat).sum(axis=axes))
        if x.requires_grad or x.record is not None:
            _accum(x, g * gamma.data.reshape(bshape) * inv_std)

    return _result(out, (x, gamma, beta), "batch_norm3d", backward_eval)
