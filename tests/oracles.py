"""Independent reference implementations used to check the package.

Everything here is written in the most direct style possible (plain loops,
no vectorization tricks) so results can be trusted as oracles even when
they are slow.  Production code must agree with these, not the reverse.
"""
from __future__ import annotations

import numpy as np

from hemoseg.autodiff import Tensor


def conv3d_loops(x, w, b, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Seven-nested-loop 3D cross-correlation."""
    n, c, d, h, wd = x.shape
    k, _, kd, kh, kw = w.shape
    sd, sh, sw = stride
    pd, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    do = (d + 2 * pd - kd) // sd + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, k, do, ho, wo), dtype=np.float64)
    for ni in range(n):
        for ki in range(k):
            for zi in range(do):
                for yi in range(ho):
                    for xi in range(wo):
                        patch = xp[
                            ni,
                            :,
                            zi * sd : zi * sd + kd,
                            yi * sh : yi * sh + kh,
                            xi * sw : xi * sw + kw,
                        ]
                        out[ni, ki, zi, yi, xi] = np.sum(patch * w[ki])
            if b is not None:
                out[ni, ki] += b[ki]
    return out


def conv3d_grad_loops(x, w, g, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Gradients of sum(g * conv3d(x, w, b)) w.r.t. x, w and b.

    Walks the same output positions as ``conv3d_loops``: each output
    gradient scatters ``g * w[k]`` into the input patch it read and adds
    ``g * patch`` to its kernel.  Returns (grad_x, grad_w, grad_b).
    """
    n, c, d, h, wd = x.shape
    k, _, kd, kh, kw = w.shape
    sd, sh, sw = stride
    pd, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    gxp = np.zeros(xp.shape, dtype=np.float64)
    gw = np.zeros(w.shape, dtype=np.float64)
    gb = np.zeros(k, dtype=np.float64)
    _, _, do, ho, wo = g.shape
    for ni in range(n):
        for ki in range(k):
            for zi in range(do):
                for yi in range(ho):
                    for xi in range(wo):
                        patch = (
                            ni,
                            slice(None),
                            slice(zi * sd, zi * sd + kd),
                            slice(yi * sh, yi * sh + kh),
                            slice(xi * sw, xi * sw + kw),
                        )
                        gv = g[ni, ki, zi, yi, xi]
                        gxp[patch] += gv * w[ki]
                        gw[ki] += gv * xp[patch]
                        gb[ki] += gv
    return gxp[:, :, pd : pd + d, ph : ph + h, pw : pw + wd], gw, gb


def _conv_windows(x, kernel, stride, padding):
    """Every output position's input window, [N, C, do, ho, wo, kd, kh, kw] (a view)."""
    pd, ph, pw = padding
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(2, 3, 4))
    sd, sh, sw = stride
    return win[:, :, ::sd, ::sh, ::sw]


def conv3d_windows(x, w, b, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Vectorized float64 3D cross-correlation: one einsum over the padded
    input's sliding windows, step-sliced by the stride."""
    win = _conv_windows(x, w.shape[2:], stride, padding)
    out = np.einsum("ncdhwijl,kcijl->nkdhw", win, np.asarray(w, dtype=np.float64))
    if b is not None:
        out += np.asarray(b, dtype=np.float64).reshape(1, -1, 1, 1, 1)
    return out


def conv3d_grad_windows(x, w, g, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Gradients of sum(g * conv3d(x, w, b)) w.r.t. x, w and b, in float64.

    The weight gradient is one einsum of g against the sliding windows; the
    input gradient adds each tap's ``w[:, :, i, j, l].T @ g`` into the strided
    positions that tap read.  Returns (grad_x, grad_w, grad_b).
    """
    g = np.asarray(g, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    kd, kh, kw = w.shape[2:]
    gw = np.einsum("ncdhwijl,nkdhw->kcijl", _conv_windows(x, (kd, kh, kw), stride, padding), g)
    n, c, d, h, wd = x.shape
    sd, sh, sw = stride
    pd, ph, pw = padding
    do, ho, wo = g.shape[2:]
    gxp = np.zeros((n, c, d + 2 * pd, h + 2 * ph, wd + 2 * pw))
    for i in range(kd):
        for j in range(kh):
            for l in range(kw):
                window = (slice(None), slice(None), slice(i, i + sd * do, sd), slice(j, j + sh * ho, sh),
                          slice(l, l + sw * wo, sw))
                gxp[window] += np.einsum("nkdhw,kc->ncdhw", g, w[:, :, i, j, l])
    return gxp[:, :, pd : pd + d, ph : ph + h, pw : pw + wd], gw, g.sum(axis=(0, 2, 3, 4))


def upsample_trilinear_loops(x, factors):
    """Per-output-voxel trilinear interpolation, align-corners false."""
    n, c, d, h, w = x.shape
    fd, fh, fw = factors
    do, ho, wo = d * fd, h * fh, w * fw

    def src(i, f, ext):
        return min(max((i + 0.5) / f - 0.5, 0.0), ext - 1.0)

    out = np.zeros((n, c, do, ho, wo), dtype=np.float64)
    for zi in range(do):
        z = src(zi, fd, d)
        z0, wz = int(np.floor(z)), z - int(np.floor(z))
        z1 = min(z0 + 1, d - 1)
        for yi in range(ho):
            y = src(yi, fh, h)
            y0, wy = int(np.floor(y)), y - int(np.floor(y))
            y1 = min(y0 + 1, h - 1)
            for xi in range(wo):
                xs = src(xi, fw, w)
                x0, wx = int(np.floor(xs)), xs - int(np.floor(xs))
                x1 = min(x0 + 1, w - 1)
                acc = (
                    x[:, :, z0, y0, x0] * (1 - wz) * (1 - wy) * (1 - wx)
                    + x[:, :, z0, y0, x1] * (1 - wz) * (1 - wy) * wx
                    + x[:, :, z0, y1, x0] * (1 - wz) * wy * (1 - wx)
                    + x[:, :, z0, y1, x1] * (1 - wz) * wy * wx
                    + x[:, :, z1, y0, x0] * wz * (1 - wy) * (1 - wx)
                    + x[:, :, z1, y0, x1] * wz * (1 - wy) * wx
                    + x[:, :, z1, y1, x0] * wz * wy * (1 - wx)
                    + x[:, :, z1, y1, x1] * wz * wy * wx
                )
                out[:, :, zi, yi, xi] = acc
    return out


def batch_norm_eval(x, gamma, beta, running_mean, running_var, epsilon=1e-5):
    """Eval-mode batch norm of an [N,C,D,H,W] array in x's dtype:
    gamma * (x - running_mean) / sqrt(running_var + epsilon) + beta per channel."""
    bshape = (1, -1, 1, 1, 1)
    inv_std = (1.0 / np.sqrt(running_var.astype(x.dtype) + x.dtype.type(epsilon))).reshape(bshape)
    xhat = (x - running_mean.astype(x.dtype).reshape(bshape)) * inv_std
    return gamma.reshape(bshape) * xhat + beta.reshape(bshape)


def conv_then_batch_norm_eval(conv, bn, x, train=False):
    """Stand-in for ``model._conv_bn`` in eval mode: the layer's own conv,
    then ``batch_norm_eval`` with the batch-norm layer's parameters and stats."""
    y = conv(x).data
    return Tensor(batch_norm_eval(y, bn.gamma.data, bn.beta.data, bn.stats.mean, bn.stats.var))


def numeric_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued f at float64 array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def gradcheck(build, inputs, rtol=1e-5, atol=1e-7, eps=1e-6):
    """Compare reverse-mode gradients against central differences.

    ``build`` maps the list of leaf Tensors to a scalar Tensor.  ``inputs``
    are float64 numpy arrays; all get requires_grad.  Returns the worst
    absolute deviation, raising AssertionError on mismatch.
    """
    leaves = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in inputs]
    out = build(leaves)
    out.backward()
    worst = 0.0
    for leaf in leaves:
        assert leaf.grad is not None, "missing gradient on a leaf"

        def feval(leaf=leaf):
            fresh = [Tensor(l.data, requires_grad=False) for l in leaves]
            return float(build(fresh).data)

        num = numeric_gradient(feval, leaf.data, eps=eps)
        err = np.abs(leaf.grad - num)
        bound = atol + rtol * np.abs(num)
        if not np.all(err <= bound):
            i = int(np.argmax(err - bound))
            raise AssertionError(
                "gradient mismatch at flat index %d: analytic %g vs numeric %g"
                % (i, leaf.grad.reshape(-1)[i], num.reshape(-1)[i])
            )
        worst = max(worst, float(err.max()))
    return worst


def dice_loss_direct(p_fg, g_fg, epsilon=1e-5):
    """Soft Dice loss on foreground probabilities, plain arithmetic."""
    inter = float(np.sum(p_fg * g_fg))
    return 1.0 - (2.0 * inter + epsilon) / (float(np.sum(p_fg)) + float(np.sum(g_fg)) + epsilon)


def tada_extremes_scan(points_rc, spacing_rc):
    """Exhaustive O(m^2) widest pair in an axial slice, physical millimetres.

    points_rc: (m, 2) integer voxel centers (row, col).  Returns (a_mm, pair)
    where pair is the lexicographically smallest maximizing ((r0,c0),(r1,c1))
    with the two endpoints themselves in sorted order.
    """
    pts = np.asarray(points_rc, dtype=np.float64)
    sp = np.asarray(spacing_rc, dtype=np.float64)
    best = -1.0
    best_pair = None
    m = len(pts)
    for i in range(m):
        for j in range(i + 1, m):
            dvec = (pts[j] - pts[i]) * sp
            dist = float(np.hypot(dvec[0], dvec[1]))
            pa = (int(points_rc[i][0]), int(points_rc[i][1]))
            pb = (int(points_rc[j][0]), int(points_rc[j][1]))
            pair = (pa, pb) if pa <= pb else (pb, pa)
            if dist > best or (dist == best and pair < best_pair):
                best = dist
                best_pair = pair
    return best, best_pair


def tada_b_scan(points_rc, spacing_rc, a_pair):
    """Exhaustive projection width perpendicular to the A chord, in mm.

    The width is defined on per-point projections (point dot perpendicular
    axis); this scan then maximizes the pairwise projection difference the
    slow way.  Projections are computed with the same scalar arithmetic as
    the production code so the two routes agree bit for bit.
    """
    pts = np.asarray(points_rc, dtype=np.float64) * np.asarray(spacing_rc, dtype=np.float64)
    (r0, c0), (r1, c1) = a_pair
    sp = np.asarray(spacing_rc, dtype=np.float64)
    d = np.array([(r1 - r0) * sp[0], (c1 - c0) * sp[1]])
    d /= np.hypot(d[0], d[1])
    u = np.array([-d[1], d[0]])
    proj = [float(p[0] * u[0] + p[1] * u[1]) for p in pts]
    best = 0.0
    m = len(proj)
    for i in range(m):
        for j in range(m):
            w = abs(proj[i] - proj[j])
            if w > best:
                best = w
    return best
