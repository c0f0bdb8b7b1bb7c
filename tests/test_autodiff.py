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
from test_acceptance import _toy_cascade_conv_calls


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

    def test_train_graph_fuses_every_relu_that_follows_a_batch_norm(self):
        # a batch norm that feeds a ReLU runs it inside (relu=True), so no
        # graph node keeps a batch-norm output only for a ReLU to read
        net, x, labels = toy_train_batch()
        report = deep_supervision_loss(net(Tensor(x)), labels)
        records = [t.record for t in graph_nodes(report.total) if t.record is not None]
        relus = [r for r in records if r.op == "relu"]
        assert not [r for r in relus if r.parents[0].record is not None and r.parents[0].record.op == "batch_norm3d"]
        assert len(relus) == 6  # the one after each of the 6 residual blocks' adds


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


class TestScratchArena:
    def test_second_conv_step_allocates_only_its_results(self):
        # inside the arena a conv's gathered columns, accumulators and grid
        # gradient reuse the first step's buffers: the second forward +
        # backward allocates its output and gradients and a few weight-sized
        # transients, and the output shares no memory with the arena
        rng = np.random.default_rng(37)
        x = Tensor(rng.standard_normal((2, 8, 8, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        g = np.ones(x.shape, dtype=np.float32)
        with ad.scratch_arena():
            for step in range(2):
                x.grad = w.grad = b.grad = None
                if step:
                    tracemalloc.start()
                try:
                    out = conv3d(x, w, b, padding=(1, 1, 1))
                    out.record.apply(g)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            arena = list(ad._arena.buffers.values())
            roles = set(ad._arena.buffers)
        assert "acc" in roles and "g_cols" not in roles  # the grid gradient took the accumulator's buffer
        results = out.data.nbytes + x.grad.nbytes + w.grad.nbytes + b.grad.nbytes
        assert arena and sum(buf.nbytes for buf in arena) > results  # the arena is in use
        assert peak <= results + 4 * w.data.nbytes + 65536, f"allocated {peak / results:.2f}x the results"
        for buf in arena:
            assert not any(np.shares_memory(a, buf) for a in (out.data, x.grad, w.grad, b.grad))

    def test_outside_the_arena_nothing_is_kept(self):
        assert getattr(ad._arena, "buffers", None) is None
        with ad.scratch_arena():
            conv3d(Tensor(np.ones((1, 2, 4, 4, 4))), Tensor(np.ones((2, 2, 3, 3, 3))), None, padding=(1, 1, 1))
            assert ad._arena.buffers
        assert getattr(ad._arena, "buffers", None) is None


def _conv_cases(calls, seed):
    rng = np.random.default_rng(seed)
    return [
        tuple(rng.standard_normal(shape).astype(np.float32) for shape in (xs, ws, ws[:1])) + (stride, padding)
        for xs, ws, stride, padding in calls
    ]


def _conv_results(cases):
    """Output and input, weight and bias gradients of conv3d on each case,
    against a fixed output gradient per case."""
    results = []
    for i, (x, w, b, stride, padding) in enumerate(cases):
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv3d(xt, wt, bt, stride, padding)
        g = np.random.default_rng(i).standard_normal(out.shape).astype(np.float32)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, g, xt.grad, wt.grad, bt.grad))
    return results


class TestBatchedLeadTaps:
    # A conv whose grid fits one column block runs its lead taps as one
    # batched matmul over strided views (the forward) and every conv batches
    # them per block in the weight gradient; both must equal the per-tap
    # loop over the same blocks bit for bit, on every toy-cascade conv shape
    # (both stages, batch 1 and 2, stride 1, strided and pointwise).

    def test_batched_lead_taps_equal_the_per_tap_loop(self, monkeypatch):
        calls = _toy_cascade_conv_calls(monkeypatch)
        ad._conv_plan.cache_clear()
        try:
            results = _conv_results(_conv_cases(calls, 43))
            batched = 0
            for (xs, ws, stride, padding), (x, w, b, _, _), (out, g, gx, gw, gb) in zip(
                calls, _conv_cases(calls, 43), results
            ):
                np.testing.assert_array_equal(gb, g.sum(axis=(0, 2, 3, 4)))
                if ws[2:] == (1, 1, 1):
                    continue
                plan = ad._conv_plan(xs, ws, stride, padding, x.itemsize)
                batched += len(plan.blocks) == 1 and len(plan.offsets) > 1
                np.testing.assert_array_equal(out, oracles.conv_forward_per_tap(plan, x, w, b))
                np.testing.assert_array_equal(gw, oracles.conv_weight_grad_per_tap(plan, x, plan.on_grid(g)))
                if plan.stride1:
                    flipped = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
                    back = ad._conv_plan(g.shape, flipped.shape, stride, plan.back_pad, g.itemsize)
                    np.testing.assert_array_equal(gx, oracles.conv_forward_per_tap(back, g, flipped))
            assert batched  # some forward takes the batched path
        finally:
            ad._conv_plan.cache_clear()

    def test_tiny_blocks_loop_over_taps_on_every_shape(self, monkeypatch):
        # With a tiny block budget every stride-1 plan is multi-block and
        # loops over its taps.  Other column blocks change the BLAS's column
        # tiling and the order in which the weight gradient's block parts
        # add up, so the results agree to float32 rounding, not bit for bit.
        calls = _toy_cascade_conv_calls(monkeypatch)
        ad._conv_plan.cache_clear()
        try:
            default = _conv_results(_conv_cases(calls, 47))
            monkeypatch.setattr(ad, "_BLOCK_BYTES", 1)
            monkeypatch.setattr(ad, "_MIN_BLOCK_COLS", 32)
            ad._conv_plan.cache_clear()
            for xs, ws, stride, padding in calls:
                if ws[2:] != (1, 1, 1) and stride == (1, 1, 1):
                    assert len(ad._conv_plan(xs, ws, stride, padding, 4).blocks) > 1
            looped = _conv_results(_conv_cases(calls, 47))
        finally:
            monkeypatch.undo()
            ad._conv_plan.cache_clear()
        for call, want, got in zip(calls, default, looped):
            names = ("output", "input gradient", "weight gradient", "bias gradient")
            for name, a, b in zip(names, want[:1] + want[2:], got[:1] + got[2:]):
                err = np.abs(a - b).max() / np.abs(a).max()
                assert err <= 1e-5, f"{name} differs by {err:g} of its largest value on {call}"


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_tensordot_reference_on_toy_cascade_shapes(self, dtype):
        # the decoder's upsampling inputs of both toy stages, batch 1 and 2:
        # forward and adjoint equal the tensordot/moveaxis formulation
        rng = np.random.default_rng(41)
        shapes = [((8, 8, 16, 16), (1, 2, 2)), ((16, 4, 8, 8), (2, 2, 2)), ((32, 2, 4, 4), (2, 2, 2)),
                  ((8, 16, 16, 16), (1, 2, 2)), ((16, 8, 8, 8), (2, 2, 2)), ((32, 4, 4, 4), (2, 2, 2))]
        for n in (1, 2):
            for shape, factors in shapes:
                x = Tensor(rng.standard_normal((n,) + shape).astype(dtype), requires_grad=True)
                out = upsample_trilinear(x, factors)
                np.testing.assert_array_equal(out.data, oracles.upsample_trilinear_tensordot(x.data, factors))
                assert out.data.flags.c_contiguous
                g = rng.standard_normal(out.shape).astype(dtype)
                (out * Tensor(g)).sum().backward()
                np.testing.assert_array_equal(x.grad, oracles.upsample_trilinear_tensordot(g, factors, adjoint=True))

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
            Tensor(x), Tensor(np.ones(3, dtype=np.float64)), Tensor(np.zeros(3, dtype=np.float64)), stats
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
        batch_norm3d(Tensor(x), Tensor(np.ones(2, dtype=np.float64)), Tensor(np.zeros(2, dtype=np.float64)), stats)
        np.testing.assert_allclose(stats.mean, 0.1 * batch_mean, rtol=1e-6)
        np.testing.assert_allclose(stats.var, 0.9 * 1.0 + 0.1 * batch_var, rtol=1e-6)
        assert stats.batches_tracked == 1

    def test_eval_oracle_matches_hand_value(self):
        x = np.full((1, 1, 1, 1, 2), 6.0)
        out = oracles.batch_norm_eval(x, np.array([3.0]), np.array([1.0]), np.array([2.0]), np.array([4.0]))
        np.testing.assert_allclose(out, 3.0 * (6.0 - 2.0) / np.sqrt(4.0 + 1e-5) + 1.0, rtol=1e-5)

    @pytest.mark.parametrize(
        "shape", [(2, 8, 8, 32, 32), (2, 8, 16, 32, 32), (2, 16, 4, 8, 8), (2, 16, 8, 8, 8), (2, 32, 4, 4, 4)]
    )
    def test_float32_matches_float64(self, shape):
        # the toy cascade's batch-norm shapes: output and all three gradients
        # in float32 within 5e-7 of float64, relative to the largest magnitude
        rng = np.random.default_rng(43)
        c = shape[1]
        x = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.1, 3), size=shape)
        gamma, beta, g = rng.uniform(0.5, 1.5, c), rng.normal(size=c), rng.normal(size=shape)
        results = []
        for dtype in (np.float32, np.float64):
            leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in (x, gamma, beta)]
            out = batch_norm3d(*leaves, BatchNormStats(c, dtype=dtype))
            out.record.apply(g.astype(dtype))
            results.append([out.data] + [leaf.grad for leaf in leaves])
        for name, got, want in zip(("out", "x", "gamma", "beta"), *results):
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= 5e-7, f"{name}: {err:.2e}"

    def test_gradcheck_train_mode(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(2, 2, 2, 3, 3))
        gamma = rng.uniform(0.5, 1.5, size=(2,))
        beta = rng.normal(size=(2,))

        def build(leaves):
            xi, gi, bi = leaves
            stats = BatchNormStats(2, dtype=np.float64)
            out = batch_norm3d(xi, gi, bi, stats)
            return mul(out, out).mean()

        oracles.gradcheck(build, [x, gamma, beta], rtol=1e-3, atol=1e-5)

    @pytest.mark.parametrize("shape", [(2, 8, 8, 32, 32), (2, 8, 16, 32, 32), (2, 16, 4, 16, 16)])
    def test_fused_relu_is_bitwise_relu_of_batch_norm(self, shape):
        # output, running stats and the x, gamma and beta gradients of
        # batch_norm3d(relu=True) are the bits of relu(batch_norm3d(...))
        rng = np.random.default_rng(47)
        c = shape[1]
        x = rng.normal(loc=0.3, scale=2.0, size=shape).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
        beta = rng.normal(size=c).astype(np.float32)
        g = rng.normal(size=shape).astype(np.float32)
        results = []
        for fused in (False, True):
            leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
            stats = BatchNormStats(c)
            out = batch_norm3d(*leaves, stats, relu=True) if fused else relu(batch_norm3d(*leaves, stats))
            (out * Tensor(g)).sum().backward()
            results.append([out.data, stats.mean, stats.var] + [leaf.grad for leaf in leaves])
        assert (results[0][0] == 0).any() and (results[0][0] > 0).any()
        for name, want, got in zip(("out", "mean", "var", "x", "gamma", "beta"), *results):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_fused_relu_keeps_nan(self):
        x = np.zeros((1, 1, 1, 1, 3))
        x[..., 1] = np.nan
        out = batch_norm3d(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)), BatchNormStats(1, np.float64), relu=True)
        assert np.isnan(out.data).all()  # a NaN in the batch makes the whole channel NaN, and the clamp keeps it

    def test_gradcheck_fused_relu(self):
        # float64 central differences away from the kink: each channel is
        # centred exactly, so its normalized values keep the gap around 0
        # that away-from-zero samples have, far wider than the step
        rng = np.random.default_rng(53)
        shape = (2, 2, 2, 3, 3)
        x = rng.uniform(0.2, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
        x -= x.mean(axis=(0, 2, 3, 4), keepdims=True)
        gamma = rng.uniform(0.5, 1.5, size=(2,))
        beta = np.zeros(2)
        w = rng.standard_normal(shape)
        pre = batch_norm3d(Tensor(x), Tensor(gamma), Tensor(beta), BatchNormStats(2, np.float64))
        assert np.abs(pre.data).min() > 0.05 and (pre.data < 0).any()

        def build(leaves):
            xi, gi, bi = leaves
            return (batch_norm3d(xi, gi, bi, BatchNormStats(2, dtype=np.float64), relu=True) * Tensor(w)).sum()

        oracles.gradcheck(build, [x, gamma, beta], rtol=1e-3, atol=1e-8)


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
