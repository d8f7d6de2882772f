import numpy as np
import pytest

import grapy.kernels as K
import grapy.tensor as T
from grapy.tensor import (SGD, NumericsError, ShapeError, Tape, Tensor,
                          argmax_channel, precision, sgd_step)
from oracles import conv2d_loops, fd_gradient, rel_err


def leaf(rng, *shape):
    return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)


def tape_grad(build, leaves):
    with Tape() as tape:
        loss = build()
    gm = tape.backward(loss)
    return loss, [gm.get(l, np.zeros_like(l.data)) for l in leaves]


class TestElementwise:
    def test_add_values(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_weighted_sum_value(self):
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = T.weighted_sum(Tensor(x), w)
        assert out.shape == () and out.data.tobytes() == (x * w).sum().tobytes()

    def test_weighted_sum_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(4,\)"):
            T.weighted_sum(Tensor(np.zeros((3, 4))), np.ones(4))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 3\)"):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))))

    def test_no_rank_promotion(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_grad_weighted_sum_wrt_a_equals_w(self):
        rng = np.random.default_rng(1)
        a, w = leaf(rng, 3, 4), rng.normal(size=(3, 4))
        _, (ga,) = tape_grad(lambda: T.weighted_sum(a, w), [a])
        assert np.array_equal(ga, w)
        fd = fd_gradient(lambda: float(T.weighted_sum(a, w).data), a.data)
        assert rel_err(ga, fd) < 1e-6

    def test_add_passes_the_gradient_to_both_operands(self):
        rng = np.random.default_rng(2)
        a, b, w = leaf(rng, 3, 4), leaf(rng, 3, 4), rng.normal(size=(3, 4))
        _, (ga, gb) = tape_grad(lambda: T.weighted_sum(T.add(a, b), w), [a, b])
        assert np.array_equal(ga, w) and np.array_equal(gb, w)

    def test_add_does_not_broadcast_size_one_axes(self):
        with pytest.raises(ShapeError, match="equal shapes"):
            T.add(Tensor(np.zeros((3, 1))), Tensor(np.zeros((1, 4))))


class TestMatmul:
    def test_identity(self):
        m = Tensor(np.arange(9.0).reshape(3, 3))
        out = T.matmul(Tensor(np.eye(3)[None]), m)
        assert np.array_equal(out.data[0], m.data)

    def test_hand_case(self):
        out = T.matmul(Tensor([[[1.0, 2.0], [3.0, 4.0]]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data[0], [[3.0], [7.0]])

    def test_inner_extent_mismatch(self):
        with pytest.raises(ShapeError, match="inner"):
            T.matmul(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((4, 2))))

    def test_gradcheck_random(self):
        rng = np.random.default_rng(3)
        a, b = leaf(rng, 1, 4, 5), leaf(rng, 5, 3)
        w = rng.normal(size=(1, 4, 3))

        def build():
            return T.weighted_sum(T.matmul(a, b), w)

        _, (ga, gb) = tape_grad(build, [a, b])
        assert rel_err(ga, fd_gradient(lambda: float(build().data), a.data)) < 1e-6
        assert rel_err(gb, fd_gradient(lambda: float(build().data), b.data)) < 1e-6


class TestSoftmax:
    def test_equal_values_uniform(self):
        out = T.softmax_channels(Tensor([[[[2.0, 2.0, 2.0, 2.0]]]]))
        assert np.allclose(out.data, 0.25)

    def test_closed_form(self):
        out = T.softmax_channels(Tensor([[[[0.0, np.log(3.0)]]]]))
        assert np.allclose(out.data[0, 0], [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        out = T.softmax_channels(Tensor(rng.normal(0, 10, (1, 1, 6, 5))))
        assert np.all(out.data[0, 0] >= 0)
        assert np.abs(out.data[0, 0].sum(axis=1) - 1).max() < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        a = T.softmax_channels(Tensor(x[None, None])).data[0, 0]
        b = T.softmax_channels(Tensor(x[None, None] + 7.3)).data[0, 0]
        assert np.abs(a - b).max() < 1e-9

    def test_channel_loop_max_is_bitwise_the_row_max(self):
        # ties, signed zeros and a dominant channel: the column-loop max must
        # shift exactly as numpy's reduction does
        rng = np.random.default_rng(16)
        x = np.round(rng.normal(0, 3, (2, 5, 5, 12)), 1)
        x[0, 0, 0] = 0.0
        x[0, 0, 0, ::2] = -0.0
        x[1, 2, 3, 7] = 40.0
        for dtype in (np.float64, np.float32):
            xd = x.astype(dtype)
            assert T.softmax_channels(Tensor(xd, dtype=dtype)).data.tobytes() == \
                T.row_softmax(xd).tobytes()

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        x = leaf(rng, 1, 1, 5, 5)
        w = rng.normal(size=(1, 1, 5, 5))

        def build():
            return T.weighted_sum(T.softmax_channels(x), w)

        _, (gx,) = tape_grad(build, [x])
        assert rel_err(gx, fd_gradient(lambda: float(build().data), x.data)) < 1e-6


class TestConv2d:
    def test_one_by_one_identity_kernel(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 5, 4, 3)))
        k = Tensor(np.eye(3).reshape(1, 1, 3, 3))
        out = T.conv2d(x, k)
        assert np.allclose(out.data[0], x.data[0])

    def test_ones_kernel_on_one_hot(self):
        x = np.zeros((5, 5, 1))
        x[2, 2, 0] = 1.0
        out = T.conv2d(Tensor(x[None]), Tensor(np.ones((3, 3, 1, 1))))
        expected = np.zeros((5, 5))
        expected[1:4, 1:4] = 1.0
        assert np.array_equal(out.data[0, :, :, 0], expected)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 7, 2))
        k = rng.normal(size=(3, 3, 2, 4))
        out = T.conv2d(Tensor(x[None]), Tensor(k))
        assert rel_err(out.data[0], conv2d_loops(x, k)) < 1e-10

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel"):
            T.conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            T.conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((2, 2, 2, 1))))

    def test_non_square_kernel_rejected(self):
        with pytest.raises(ShapeError, match="equal and odd"):
            T.conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 1, 2, 1))))

    def test_bias_is_the_numpy_broadcast_add(self):
        # bitwise: the fused bias equals numpy adding the bias row after the conv,
        # and its gradient is the output gradient summed over every pixel
        rng = np.random.default_rng(17)
        x, k, b = leaf(rng, 2, 5, 5, 2), leaf(rng, 3, 3, 2, 3), leaf(rng, 3)
        w = rng.normal(size=(2, 5, 5, 3))
        assert T.conv2d(x, k, b).data.tobytes() == (T.conv2d(x, k).data + b.data).tobytes()
        _, (gx, gk, gb) = tape_grad(lambda: T.weighted_sum(T.conv2d(x, k, b), w), [x, k, b])
        _, (sx, sk) = tape_grad(lambda: T.weighted_sum(T.conv2d(x, k), w), [x, k])
        assert gx.tobytes() == sx.tobytes() and gk.tobytes() == sk.tobytes()
        assert gb.tobytes() == w.sum(axis=(0, 1, 2)).tobytes()
        assert rel_err(gb, fd_gradient(
            lambda: float(T.weighted_sum(T.conv2d(x, k, b), w).data), b.data)) < 1e-6

    def test_bias_shape_rejected(self):
        with pytest.raises(ShapeError, match="bias"):
            T.conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 3, 2, 3))),
                     Tensor(np.zeros(2)))

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        x, k = leaf(rng, 1, 6, 6, 2), leaf(rng, 3, 3, 2, 3)
        w = rng.normal(size=(1, 6, 6, 3))

        def build():
            return T.weighted_sum(T.conv2d(x, k), w)

        _, (gx, gk) = tape_grad(build, [x, k])
        assert rel_err(gx, fd_gradient(lambda: float(build().data), x.data)) < 1e-4
        assert rel_err(gk, fd_gradient(lambda: float(build().data), k.data)) < 1e-4


class TestConcatReduceMisc:
    def test_concat_single_is_identity(self):
        x = Tensor(np.arange(12.0).reshape(1, 2, 2, 3))
        assert np.array_equal(T.concat_channels([x]).data, x.data)

    def test_concat_empty_rejected(self):
        with pytest.raises(ShapeError, match="concat_channels"):
            T.concat_channels([])

    def test_concat_extent_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat_channels([Tensor(np.zeros((1, 2, 2, 1))), Tensor(np.zeros((1, 3, 2, 1)))])

    def test_concat_backward_splits_exactly(self):
        rng = np.random.default_rng(10)
        a, b = leaf(rng, 1, 3, 3, 2), leaf(rng, 1, 3, 3, 4)
        w = rng.normal(size=(1, 3, 3, 6))

        def build():
            return T.weighted_sum(T.concat_channels([a, b]), w)

        _, (ga, gb) = tape_grad(build, [a, b])
        assert np.array_equal(ga, w[..., :2])
        assert np.array_equal(gb, w[..., 2:])
        assert rel_err(ga, fd_gradient(lambda: float(build().data), a.data)) < 1e-6

    def test_relu_and_mean(self):
        rng = np.random.default_rng(11)
        x = leaf(rng, 4, 4)
        _, (g,) = tape_grad(lambda: T.scale(T.weighted_sum(T.relu(x), np.ones((4, 4))), 1 / 16),
                            [x])
        assert np.allclose(g, (x.data > 0) / 16.0)

    def test_argmax_channel_recovers_one_hot(self):
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 5, size=(6, 6))
        y = np.eye(5)[labels]
        assert np.array_equal(argmax_channel(Tensor(y[None]))[0], labels)

    def test_argmax_not_on_tape(self):
        x = Tensor(np.random.rand(1, 3, 3, 4), requires_grad=True)
        with Tape() as tape:
            argmax_channel(x)
        assert len(tape) == 0


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            loss = T.weighted_sum(x, np.ones((3, 4)))
        gm = tape.backward(loss)
        assert np.array_equal(gm[x], np.ones((3, 4)))

    def test_half_sum_squares_gives_x(self):
        rng = np.random.default_rng(13)
        x = leaf(rng, 3, 4)
        with Tape() as tape:
            loss = T.scale(T.weighted_sum(T.add(x, x), x.data), 0.5)
        gm = tape.backward(loss)
        assert np.allclose(gm[x], x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = T.add(x, x)
        with pytest.raises(ShapeError, match="scalar"):
            tape.backward(y)

    def test_repeated_backward_returns_the_same_map_and_keeps_no_state(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = T.weighted_sum(T.scale(x, 2.0), np.ones(3))
        first, second = tape.backward(loss), tape.backward(loss)
        assert list(first) == list(second) == [x]
        assert np.array_equal(first[x], 2 * np.ones(3))
        assert np.array_equal(second[x], first[x])
        assert not hasattr(x, "grad")

    def test_single_owner_tape(self):
        with Tape():
            with pytest.raises(RuntimeError, match="single-owner"):
                with Tape():
                    pass

    def test_nan_raises(self):
        big = Tensor(np.array([1e308]))
        with pytest.raises(NumericsError):
            T.add(big, big)


class TestSGD:
    def test_zero_lr_keeps_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = p.data.copy()
        sgd_step({"p": p}, {"p": np.array([5.0, -3.0])}, lr=0.0)
        assert np.array_equal(p.data, before)

    def test_plain_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        sgd_step({"p": p}, {"p": np.array([2.0])}, lr=0.1)
        assert np.allclose(p.data, [0.8])

    def test_momentum_matches_hand_unrolled(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        g = np.array([2.0])
        # v1 = g, p1 = p0 - lr v1; v2 = 0.9 v1 + g, p2 = p1 - lr v2
        buffers = sgd_step({"p": p}, {"p": g}, lr=0.1, momentum=0.9)
        assert np.allclose(p.data, [0.8])
        sgd_step({"p": p}, {"p": g}, lr=0.1, momentum=0.9, buffers=buffers)
        assert np.allclose(p.data, [0.8 - 0.1 * (0.9 * 2.0 + 2.0)])

    def test_untouched_params_stay_bitwise(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([2.0]), requires_grad=True)
        before = q.data.tobytes()
        opt = SGD({"p": p, "q": q}, lr=0.5, momentum=0.9)
        opt.step({"p": np.array([1.0])})
        assert q.data.tobytes() == before

    def test_grad_shape_mismatch(self):
        p = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            sgd_step({"p": p}, {"p": np.zeros(3)}, lr=0.1)


class TestDeterminismAndPrecision:
    def test_forward_replay_bitwise(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 3))

        def run():
            out = T.conv2d(Tensor(x[None]), Tensor(k))
            return T.softmax_channels(out).data[0].tobytes()

        assert run() == run()

    def test_precision_context(self):
        with precision("f32"):
            assert Tensor(np.zeros(2)).data.dtype == np.float32
        assert Tensor(np.zeros(2)).data.dtype == np.float64

    def test_bad_precision_name(self):
        with pytest.raises(ValueError):
            precision("f16")


class TestCrossEntropy:
    def test_one_hot_gives_zero(self):
        labels = np.array([[0, 1], [2, 1]])
        y = np.eye(3)[labels]
        loss = T.cross_entropy_mean(Tensor(y[None]), labels[None])
        assert abs(float(loss.data)) < 1e-12

    def test_uniform_gives_log_k(self):
        y = np.full((1, 4, 4, 5), 0.2)
        loss = T.cross_entropy_mean(Tensor(y), np.zeros((1, 4, 4), np.int64))
        assert np.isclose(float(loss.data), np.log(5.0))

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            T.cross_entropy_mean(Tensor(np.full((1, 2, 2, 3), 1 / 3)),
                                 np.full((1, 2, 2), 3, np.int64))

    def test_gradcheck(self):
        rng = np.random.default_rng(15)
        logits = leaf(rng, 1, 4, 4, 3)
        q = rng.integers(0, 3, size=(1, 4, 4))

        def build():
            return T.cross_entropy_mean(T.softmax_channels(logits), q)

        _, (g,) = tape_grad(build, [logits])
        assert rel_err(g, fd_gradient(lambda: float(build().data), logits.data)) < 1e-6


class TestMaskedPoolTapeFree:
    """Without a recording tape or branch record, pooling skips the max
    selections; with either, they are computed."""

    def _problem(self):
        rng = np.random.default_rng(18)
        f = rng.normal(size=(2, 5, 6, 3))
        labels = rng.integers(0, 4, size=(2, 5, 6))
        return f, labels

    def test_same_features_and_counts_as_the_recorded_path(self):
        f, labels = self._problem()
        free, free_counts = T.masked_pool(Tensor(f), labels, 4)
        with Tape():
            rec, rec_counts = T.masked_pool(Tensor(f, requires_grad=True), labels, 4)
        assert free.data.tobytes() == rec.data.tobytes()
        assert np.array_equal(free_counts, rec_counts)

    def test_argmax_skipped_only_when_nothing_needs_it(self, monkeypatch):
        f, labels = self._problem()
        asked, kernel = [], K.masked_pool_forward

        def spy(*args):
            asked.append(args[3])
            return kernel(*args)

        monkeypatch.setattr(K, "masked_pool_forward", spy)
        T.masked_pool(Tensor(f), labels, 4)
        with Tape():
            T.masked_pool(Tensor(f), labels, 4)  # nothing to record
            T.masked_pool(Tensor(f, requires_grad=True), labels, 4)
        with T.branch_record():
            T.masked_pool(Tensor(f), labels, 4)
        assert asked == [False, False, True, True]

    def test_argmax_recorded_under_branch_record(self):
        # the finite-difference kink re-probe runs tape-free and compares these
        f, labels = self._problem()
        with T.branch_record() as record:
            T.masked_pool(Tensor(f), labels, 4)
        assert len(record) == 1
        assert np.array_equal(record[0], K.masked_pool_forward(f, labels, 4)[3])


def _single_image_calls():
    """Each image op, and ``forward``, called on one image without the batch axis."""
    from grapy.hierarchy import taxonomy_by_name
    from grapy.model import ModelParams, forward

    tax = taxonomy_by_name("A")
    params = ModelParams.init(0, tax, width=4, channels=4)
    f, labels = Tensor(np.ones((4, 4, 3))), np.zeros((4, 4), np.int64)
    return {
        "concat_channels": lambda: T.concat_channels([f, f]),
        "conv2d": lambda: T.conv2d(f, Tensor(np.ones((3, 3, 3, 2)))),
        "masked_pool": lambda: T.masked_pool(f, labels, 2),
        "broadcast_nodes": lambda: T.broadcast_nodes(Tensor(np.ones((2, 3))), labels),
        "cross_entropy_mean": lambda: T.cross_entropy_mean(Tensor(np.full((4, 4, 2), 0.5)),
                                                           labels),
        "softmax_channels": lambda: T.softmax_channels(f),
        "argmax_channel": lambda: argmax_channel(f),
        "matmul": lambda: T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))),
        "attention_rounds": lambda: T.attention_rounds(
            Tensor(np.ones((2, 3))), [(Tensor(np.ones((3, 1))), Tensor(np.ones((3, 1))))]),
        "forward": lambda: forward(np.ones((4, 4, 3)), params, tax),
    }


@pytest.mark.parametrize("op", sorted(_single_image_calls()))
def test_image_ops_take_the_batch_axis_only(op):
    # (N, H, W, C) maps, (N, H, W) labels and (N, K, C) tables are the one layout
    with pytest.raises(ShapeError):
        _single_image_calls()[op]()


def test_every_tape_op_but_the_probe_serves_the_model(monkeypatch):
    # the tape holds the model's arithmetic only: a two-branch forward and
    # backward reach every op that records, except gradcheck's weighted_sum
    import inspect
    import re

    from grapy.hierarchy import taxonomy_by_name
    from grapy.model import ModelParams, batch_loss
    from grapy.synthdata import SampleBatch

    defined = set(re.findall(r'_apply\("(\w+)"', inspect.getsource(T)))
    reached, apply = set(), T._apply

    def spy(opname, *args):
        reached.add(opname)
        return apply(opname, *args)

    monkeypatch.setattr(T, "_apply", spy)
    tax = taxonomy_by_name("A")
    params = ModelParams.init(0, tax, width=4, channels=4)
    rng = np.random.default_rng(19)
    batch = SampleBatch(list(rng.uniform(0, 1, (2, 8, 8, 3))),
                        list(rng.integers(0, tax.k3, (2, 8, 8))))
    with Tape() as tape:
        loss = batch_loss(batch, params, tax)
    tape.backward(loss)
    assert reached == defined - {"weighted_sum"}
