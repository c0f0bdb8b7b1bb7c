"""Tensor ops against loop oracles and finite differences."""
import tracemalloc

import numpy as np
import pytest

import oracles
from hemoseg import autodiff as ad
from hemoseg.autodiff import (
    BatchNormStats,
    ShapeError,
    Tensor,
    add,
    batch_norm3d,
    clamp_min,
    concat_channels,
    conv3d,
    conv3d_strided_down,
    div,
    log,
    mul,
    relu,
    slice_channels,
    softmax_channels,
    upsample_trilinear,
)
from hemoseg.losses import deep_supervision_loss
from hemoseg.model import build_unet, toy_config


class TestTensorBasics:
    def test_default_dtype_is_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_item_on_scalar(self):
        assert Tensor(np.array(2.5)).item() == 2.5

    def test_item_rejects_vectors(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_backward_rejects_nonscalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            t.backward()

    def test_detach_drops_history(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert y.record is None and not y.requires_grad


class TestElementwise:
    def test_add_forward(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        out = add(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, (a + b).astype(np.float32), rtol=1e-6)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_mul_div_forward(self, rng):
        a = rng.normal(size=(4,)) + 3.0
        b = rng.normal(size=(4,)) + 3.0
        np.testing.assert_allclose(mul(Tensor(a), Tensor(b)).data, (a * b).astype(np.float32), rtol=1e-6)
        np.testing.assert_allclose(div(Tensor(a), Tensor(b)).data, (a / b).astype(np.float32), rtol=1e-6)

    def test_scalar_operator_sugar(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (3.0 * x + 1.0 - 0.5) / 2.0 - x
        assert y.data[0] == pytest.approx((3 * 2 + 0.5) / 2 - 2)
        y.sum().backward()
        assert x.grad[0] == pytest.approx(1.5 - 1.0)

    def test_relu_masks_negatives(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        y = relu(x)
        np.testing.assert_array_equal(y.data, [0.0, 0.0, 2.0])
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_clamp_min_floor_and_grad(self):
        x = Tensor(np.array([0.1, 1e-15, -3.0]), requires_grad=True)
        y = clamp_min(x, 1e-12)
        assert y.data[1] == 1e-12 and y.data[2] == 1e-12
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])

    def test_log_matches_numpy(self, rng):
        a = rng.uniform(0.5, 2.0, size=(5,))
        np.testing.assert_allclose(log(Tensor(a)).data, np.log(a).astype(np.float32), rtol=1e-6)

    def test_gradcheck_composite(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=(3, 4)) + 2.0
            b = rng.uniform(0.5, 1.5, size=(3, 4))

            def build(leaves):
                x, y = leaves
                z = add(mul(x, y), relu(x))
                z = div(z, clamp_min(y, 0.25))
                return add(log(clamp_min(x, 0.5)), z).mean()

            oracles.gradcheck(build, [a, b], rtol=1e-4, atol=1e-6)


class TestGraphMechanics:
    def test_reuse_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = add(mul(x, x), x)  # x^2 + x, dy/dx = 2x + 1
        y.sum().backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_diamond_graph_against_fd(self):
        a = np.random.default_rng(11).normal(size=(4,)) + 1.5

        def build(leaves):
            (x,) = leaves
            left = mul(x, x)
            right = relu(x)
            return mul(add(left, right), add(left, left)).sum()

        oracles.gradcheck(build, [a], rtol=1e-4, atol=1e-6)

    def test_long_chain_backward_is_iterative(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        assert x.grad[0] == 1.0

    def test_no_grad_for_constant_leaves(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        c = Tensor(np.array([2.0]))
        out = mul(x, c)
        out.sum().backward()
        assert c.grad is None and x.grad[0] == 2.0

    def test_finite_checks_toggle(self):
        ad.set_finite_checks(True)
        try:
            with np.errstate(divide="ignore"):
                with pytest.raises(FloatingPointError):
                    div(Tensor(np.array([1.0])), Tensor(np.array([0.0])))
        finally:
            ad.set_finite_checks(False)
        with np.errstate(divide="ignore"):
            out = div(Tensor(np.array([1.0])), Tensor(np.array([0.0])))
        assert np.isinf(out.data[0])


def toy_train_batch(seed=7):
    """A toy network and one stage-1 train batch: batch 2, 8x32x32."""
    rng = np.random.default_rng(seed)
    net = build_unet(toy_config(), seed=3)
    x = rng.normal(size=(2, 1, 8, 32, 32)).astype(np.float32)
    labels = (rng.random((2, 8, 32, 32)) < 0.2).astype(np.int64)
    return net, x, labels


def graph_nodes(root):
    """Every tensor reachable from ``root`` through the records."""
    nodes, stack = {}, [root]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t.record.parents if t.record is not None else ())
    return list(nodes.values())


class TestConsumedGraph:
    def test_train_step_keeps_only_leaf_gradients(self):
        net, x, labels = toy_train_batch()
        report = deep_supervision_loss(net(Tensor(x)), labels)
        nodes = graph_nodes(report.total)
        inner = [t for t in nodes if t.record is not None]
        assert len(inner) > 100
        report.total.backward()
        for t in inner:
            assert t.grad is None
            assert t.record.parents == () and t.record.apply is None  # no closure, no saved arrays
        assert all(p.grad is not None for p in net.parameters())

    def test_second_backward_raises(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = mul(x, x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        assert x.grad[0] == 4.0

    def test_backward_through_a_shared_consumed_node_raises(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = mul(x, x)
        y.sum().backward()
        other = add(relu(y), x).sum()  # shares the consumed y
        with pytest.raises(RuntimeError, match="already backpropagated"):
            other.backward()
        assert x.grad[0] == 4.0  # nothing accumulated before the raise

    def test_train_step_backward_peak_memory(self):
        # Backward frees each node's gradient and saved arrays once its
        # backward has run, so its traced peak stays near the forward graph's
        # size (1.19x at 8x32x32; keeping every gradient read 1.86x).
        net, x, labels = toy_train_batch()
        tracemalloc.start()
        try:
            report = deep_supervision_loss(net(Tensor(x)), labels)
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report.total.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * start, f"backward peak {peak / start:.3f}x the graph at backward start"


class TestConv3d:
    def test_forward_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        cases = [
            ((1, 1, 4, 4, 4), (2, 1, 3, 3, 3), (1, 1, 1), (0, 0, 0)),
            ((2, 3, 5, 6, 6), (4, 3, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
            ((1, 2, 6, 8, 8), (3, 2, 3, 3, 3), (2, 2, 2), (1, 1, 1)),
            ((1, 2, 4, 8, 8), (3, 2, 1, 3, 3), (1, 2, 2), (0, 1, 1)),
        ]
        for xs, ws, stride, pad in cases:
            x = rng.normal(size=xs)
            w = rng.normal(size=ws)
            b = rng.normal(size=ws[0])
            got = conv3d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad)
            want = oracles.conv3d_loops(x, w, b, stride, pad)
            np.testing.assert_allclose(got.data, want, rtol=1e-4, atol=1e-4)

    def test_output_extent_formula(self):
        x = Tensor(np.zeros((1, 1, 9, 10, 11)))
        w = Tensor(np.zeros((1, 1, 3, 3, 3)))
        out = conv3d(x, w, None, stride=(2, 2, 2), padding=(1, 0, 1))
        assert out.shape == (1, 1, (9 + 2 - 3) // 2 + 1, (10 - 3) // 2 + 1, (11 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            conv3d(Tensor(np.zeros((1, 2, 4, 4, 4))), Tensor(np.zeros((1, 3, 3, 3, 3))), None)

    def test_kernel_larger_than_padded_extent(self):
        with pytest.raises(ShapeError, match="depth"):
            conv3d(Tensor(np.zeros((1, 1, 2, 8, 8))), Tensor(np.zeros((1, 1, 3, 3, 3))), None)

    def test_bad_stride_raises(self):
        with pytest.raises(ShapeError):
            conv3d(
                Tensor(np.zeros((1, 1, 4, 4, 4))),
                Tensor(np.zeros((1, 1, 3, 3, 3))),
                None,
                stride=(0, 1, 1),
            )

    def test_gradcheck(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(1, 2, 3, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3, 3)) * 0.5
        b = rng.normal(size=(2,))

        def build(leaves):
            xi, wi, bi = leaves
            return conv3d(xi, wi, bi, stride=(1, 2, 2), padding=(1, 1, 1)).mean()

        oracles.gradcheck(build, [x, w, b], rtol=1e-4, atol=1e-6)

    def test_gradcheck_unpadded(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(2, 1, 3, 3, 3))
        w = rng.normal(size=(1, 1, 2, 2, 2))

        def build(leaves):
            xi, wi = leaves
            return conv3d(xi, wi, None).sum()

        oracles.gradcheck(build, [x, w], rtol=1e-4, atol=1e-6)

    def test_memory_stays_near_input_size(self):
        # what the forward leaves allocated (output + backward context) and the
        # peak over forward and backward, as multiples of the input's bytes
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((2, 8, 8, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8, 3, 3, 3)).astype(np.float32), requires_grad=True)
        g = np.ones(x.shape, dtype=np.float32)
        tracemalloc.start()
        try:
            out = conv3d(x, w, None, padding=(1, 1, 1))
            held, _ = tracemalloc.get_traced_memory()
            out.record.apply(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None and w.grad is not None
        assert held <= 4 * x.data.nbytes, f"forward holds {held / x.data.nbytes:.1f}x the input"
        assert peak <= 10 * x.data.nbytes, f"forward + backward peak {peak / x.data.nbytes:.1f}x the input"

    def test_forward_keeps_no_padded_copy(self):
        # the output (the input's size here) plus what backward keeps: references
        # to the input and the weight, no padded or gathered copy of the input
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((2, 8, 8, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8, 3, 3, 3)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = conv3d(x, w, None, padding=(1, 1, 1))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.record is not None
        assert held <= 1.5 * x.data.nbytes, f"forward holds {held / x.data.nbytes:.2f}x the input"


class TestConvStridedDown:
    def test_extents_divide_exactly(self):
        x = Tensor(np.zeros((1, 2, 8, 16, 16)))
        w = Tensor(np.zeros((4, 2, 3, 3, 3)))
        out = conv3d_strided_down(x, w, None, (2, 2, 2))
        assert out.shape == (1, 4, 4, 8, 8)

    def test_depth_can_stay_unpooled(self):
        x = Tensor(np.zeros((1, 1, 5, 8, 8)))
        w = Tensor(np.zeros((2, 1, 3, 3, 3)))
        out = conv3d_strided_down(x, w, None, (1, 2, 2))
        assert out.shape == (1, 2, 5, 4, 4)

    def test_indivisible_extent_names_axis(self):
        x = Tensor(np.zeros((1, 1, 5, 8, 8)))
        w = Tensor(np.zeros((2, 1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="depth"):
            conv3d_strided_down(x, w, None, (2, 2, 2))

    def test_even_kernel_rejected(self):
        x = Tensor(np.zeros((1, 1, 4, 4, 4)))
        w = Tensor(np.zeros((2, 1, 2, 3, 3)))
        with pytest.raises(ShapeError):
            conv3d_strided_down(x, w, None, (2, 2, 2))

    def test_matches_plain_conv(self, rng):
        x = rng.normal(size=(1, 2, 4, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3, 3))
        b = rng.normal(size=(3,))
        got = conv3d_strided_down(Tensor(x), Tensor(w), Tensor(b), (1, 2, 2))
        want = conv3d(Tensor(x), Tensor(w), Tensor(b), stride=(1, 2, 2), padding=(1, 1, 1))
        np.testing.assert_array_equal(got.data, want.data)


class TestUpsampleTrilinear:
    def test_constant_preserved_exactly(self):
        x = Tensor(np.full((1, 2, 3, 4, 4), 7.0, dtype=np.float64))
        out = upsample_trilinear(x, (2, 2, 2))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 6, 8, 8), 7.0))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(31)
        for factors in [(2, 2, 2), (1, 2, 2), (2, 1, 3)]:
            x = rng.normal(size=(1, 2, 3, 3, 2))
            got = upsample_trilinear(Tensor(x), factors)
            want = oracles.upsample_trilinear_loops(x, factors)
            np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-6)

    def test_factor_one_is_identity(self, rng):
        x = rng.normal(size=(1, 1, 2, 3, 3))
        out = upsample_trilinear(Tensor(x), (1, 1, 1))
        np.testing.assert_array_equal(out.data, x.astype(np.float64))

    def test_rejects_bad_rank_and_factor(self):
        with pytest.raises(ShapeError):
            upsample_trilinear(Tensor(np.zeros((2, 3, 4))), (2, 2, 2))
        with pytest.raises(ShapeError):
            upsample_trilinear(Tensor(np.zeros((1, 1, 2, 2, 2))), (0, 2, 2))

    def test_gradcheck(self):
        x = np.random.default_rng(37).normal(size=(1, 2, 2, 3, 3))

        def build(leaves):
            return mul(upsample_trilinear(leaves[0], (2, 2, 2)), upsample_trilinear(leaves[0], (2, 2, 2))).mean()

        oracles.gradcheck(build, [x], rtol=1e-4, atol=1e-6)


class TestBatchNorm3d:
    def test_train_normalizes_per_channel(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(2, 3, 4, 5, 5))
        stats = BatchNormStats(3, dtype=np.float64)
        out = batch_norm3d(
            Tensor(x), Tensor(np.ones(3, dtype=np.float64)), Tensor(np.zeros(3, dtype=np.float64)), stats, train=True
        )
        m = out.data.mean(axis=(0, 2, 3, 4))
        v = out.data.var(axis=(0, 2, 3, 4))
        np.testing.assert_allclose(m, 0.0, atol=1e-6)
        np.testing.assert_allclose(v, 1.0, atol=1e-3)

    def test_running_stats_ema(self, rng):
        x = rng.normal(loc=5.0, size=(2, 2, 3, 3, 3))
        stats = BatchNormStats(2, dtype=np.float64)
        batch_mean = x.mean(axis=(0, 2, 3, 4))
        batch_var = x.var(axis=(0, 2, 3, 4))
        batch_norm3d(
            Tensor(x), Tensor(np.ones(2, dtype=np.float64)), Tensor(np.zeros(2, dtype=np.float64)), stats, train=True
        )
        np.testing.assert_allclose(stats.mean, 0.1 * batch_mean, rtol=1e-6)
        np.testing.assert_allclose(stats.var, 0.9 * 1.0 + 0.1 * batch_var, rtol=1e-6)
        assert stats.batches_tracked == 1

    def test_eval_mode_points_to_the_fold(self):
        with pytest.raises(ValueError, match="BatchNorm3dLayer.fold"):
            batch_norm3d(
                Tensor(np.zeros((1, 2, 2, 2, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), BatchNormStats(2), False
            )

    def test_eval_oracle_matches_hand_value(self):
        x = np.full((1, 1, 1, 1, 2), 6.0)
        out = oracles.batch_norm_eval(x, np.array([3.0]), np.array([1.0]), np.array([2.0]), np.array([4.0]))
        np.testing.assert_allclose(out, 3.0 * (6.0 - 2.0) / np.sqrt(4.0 + 1e-5) + 1.0, rtol=1e-5)

    def test_gradcheck_train_mode(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(2, 2, 2, 3, 3))
        gamma = rng.uniform(0.5, 1.5, size=(2,))
        beta = rng.normal(size=(2,))

        def build(leaves):
            xi, gi, bi = leaves
            stats = BatchNormStats(2, dtype=np.float64)
            out = batch_norm3d(xi, gi, bi, stats, train=True)
            return mul(out, out).mean()

        oracles.gradcheck(build, [x, gamma, beta], rtol=1e-3, atol=1e-5)


class TestChannelOps:
    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(2, 4, 3, 3, 3)) * 10
        out = softmax_channels(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, rtol=1e-5)
        assert out.data.min() >= 0

    def test_softmax_stable_at_large_logits(self):
        x = Tensor(np.array([[1000.0, 1001.0]]).reshape(1, 2))
        out = softmax_channels(x)
        assert np.all(np.isfinite(out.data))

    def test_softmax_gradcheck(self):
        x = np.random.default_rng(47).normal(size=(1, 3, 2, 2, 2))

        def build(leaves):
            p = softmax_channels(leaves[0])
            return mul(p, p).mean()

        oracles.gradcheck(build, [x], rtol=1e-4, atol=1e-6)

    def test_concat_then_slice_roundtrip(self, rng):
        a = rng.normal(size=(1, 2, 2, 2, 2))
        b = rng.normal(size=(1, 3, 2, 2, 2))
        cat = concat_channels(Tensor(a), Tensor(b))
        assert cat.shape == (1, 5, 2, 2, 2)
        np.testing.assert_array_equal(slice_channels(cat, 0, 2).data, a.astype(np.float64))
        np.testing.assert_array_equal(slice_channels(cat, 2, 5).data, b.astype(np.float64))

    def test_concat_mismatch_raises(self):
        with pytest.raises(ShapeError):
            concat_channels(Tensor(np.zeros((1, 2, 2, 2, 2))), Tensor(np.zeros((1, 2, 3, 2, 2))))

    def test_slice_bounds_checked(self):
        x = Tensor(np.zeros((1, 3, 1, 1, 1)))
        with pytest.raises(ShapeError):
            slice_channels(x, 2, 5)

    def test_concat_slice_gradcheck(self):
        rng = np.random.default_rng(53)
        a = rng.normal(size=(1, 2, 2, 2, 2))
        b = rng.normal(size=(1, 1, 2, 2, 2))

        def build(leaves):
            cat = concat_channels(leaves[0], leaves[1])
            left = slice_channels(cat, 0, 1)
            right = slice_channels(cat, 1, 3)
            return add(mul(left, left).sum(), relu(right).sum())

        oracles.gradcheck(build, [a, b], rtol=1e-4, atol=1e-6)
