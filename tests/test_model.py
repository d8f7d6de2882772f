import warnings

import numpy as np
import pytest

from grapy.hierarchy import taxonomy_by_name
from grapy.imageio import dequantize_image
from grapy.model import (ForwardOut, ModelParams, TrainConfig, batch_loss,
                         clip_gradients, forward, loss_tensor, pretrain_then_train,
                         schedule, train_step)
from grapy.synthdata import (Dataset, SampleBatch, SceneSpec, generate, load_dataset,
                             save_dataset)
from grapy.tensor import (SGD, NumericsError, Tape, Tensor, add, argmax_channel, precision,
                          scale, softmax_channels)
from oracles import fd_gradient, rel_err


@pytest.fixture
def tax():
    return taxonomy_by_name("A")


@pytest.fixture
def tiny(tax):
    rng = np.random.default_rng(0)
    params = ModelParams.init(rng, tax, c_in=3, width=4, channels=4)
    image = rng.uniform(0, 1, (16, 16, 3))
    q = rng.integers(0, tax.k3, (16, 16))
    return params, image, q


class TestForward:
    def test_outputs_are_distributions(self, tax, tiny):
        params, image, _ = tiny
        out = forward(image[None], params, tax)
        for y in (softmax_channels(out.y), softmax_channels(out.y_hat)):
            assert np.abs(y.data[0].sum(axis=2) - 1).max() < 1e-6
            assert y.data[0].min() >= 0

    def test_shapes(self, tax):
        rng = np.random.default_rng(1)
        params = ModelParams.init(rng, tax, c_in=3, width=4, channels=4)
        out = forward(rng.uniform(0, 1, (16, 16, 3))[None], params, tax)
        assert out.y.data[0].shape == (16, 16, 7)
        assert out.y_hat.data[0].shape == (16, 16, 7)

    def test_deterministic_bitwise(self, tax, tiny):
        params, image, _ = tiny
        a = forward(image[None], params, tax)
        b = forward(image[None], params, tax)
        assert a.y.data[0].tobytes() == b.y.data[0].tobytes()
        assert a.y_hat.data[0].tobytes() == b.y_hat.data[0].tobytes()

    def test_main_only_skips_pyramid(self, tax, tiny):
        params, image, _ = tiny
        out = forward(image[None], params, tax, main_only=True)
        assert out.y_hat is None

    def test_no_gpm_model(self, tax):
        rng = np.random.default_rng(2)
        params = ModelParams.init(rng, tax, width=4, channels=4, with_gpm=False)
        out = forward(rng.uniform(0, 1, (16, 16, 3))[None], params, tax)
        assert out.y_hat is None
        assert not any(n.startswith("gpm") for n in params.named())

    def test_fine_is_the_argmax_the_masks_came_from(self, tax, tiny):
        params, image, q = tiny
        images = np.stack([image, image[::-1]])
        out = forward(images, params, tax)
        assert out.fine.dtype == np.int64
        assert np.array_equal(out.fine, argmax_channel(out.y))
        assert out.main_prediction() is out.fine
        assert forward(images, params, tax, gt_labels=np.stack([q, q])).fine is None
        main_only = forward(images, params, tax, main_only=True)
        assert main_only.fine is None
        assert np.array_equal(main_only.main_prediction(), out.fine)

    def test_two_field_construction_has_no_fine(self, tax, tiny):
        params, image, _ = tiny
        out = forward(image[None], params, tax)
        two = ForwardOut(out.y, out.y_hat)
        assert two.fine is None
        assert np.array_equal(two.main_prediction(), out.fine)


class TestLoss:
    def test_one_hot_both_branches_zero(self, tax):
        q = np.random.default_rng(3).integers(0, tax.k3, (4, 4))
        one_hot = Tensor(100.0 * np.eye(tax.k3)[q][None])  # large-margin logits
        from grapy.model import ForwardOut

        out = ForwardOut(y=one_hot, y_hat=one_hot)
        assert abs(float(loss_tensor(out, q[None], 1.0).data)) < 1e-9

    def test_uniform_gives_two_log_k(self, tax):
        q = np.zeros((1, 4, 4), np.int64)
        uniform = Tensor(np.zeros((1, 4, 4, tax.k3)))  # equal logits
        from grapy.model import ForwardOut

        out = ForwardOut(y=uniform, y_hat=uniform)
        assert np.isclose(float(loss_tensor(out, q, 1.0).data), 2 * np.log(tax.k3))

    def test_lambda_zero_is_main_only(self, tax, tiny):
        params, image, q = tiny
        out = forward(image[None], params, tax)
        main = loss_tensor(out, q[None], 0.0)
        from grapy.tensor import cross_entropy_mean

        assert np.isclose(float(main.data),
                          float(cross_entropy_mean(softmax_channels(out.y), q[None]).data))

    def test_additive_decomposition(self, tax, tiny):
        params, image, q = tiny
        out = forward(image[None], params, tax)
        from grapy.tensor import cross_entropy_mean

        l_main = float(cross_entropy_mean(softmax_channels(out.y), q[None]).data)
        l_gpm = float(cross_entropy_mean(softmax_channels(out.y_hat), q[None]).data)
        total = float(loss_tensor(out, q[None], 1.0).data)
        assert np.isclose(total, l_main + l_gpm, rtol=0, atol=1e-12)
        total_w = float(loss_tensor(out, q[None], 0.37).data)
        assert np.isclose(total_w, l_main + 0.37 * l_gpm, rtol=0, atol=1e-12)

    def test_label_out_of_range(self, tax, tiny):
        params, image, _ = tiny
        out = forward(image[None], params, tax)
        bad = np.full((1, 16, 16), tax.k3, np.int64)
        from grapy.tensor import ShapeError

        with pytest.raises(ShapeError):
            loss_tensor(out, bad, 1.0)


class TestTrainStep:
    def _batch(self, tax, n=2):
        rng = np.random.default_rng(4)
        ds = Dataset("A", tax, generate(SceneSpec(seed=20, image_size=(16, 16)), tax, n))
        return SampleBatch([s.image for s in ds.samples], [s.labels for s in ds.samples])

    def test_zero_lr_keeps_params_bitwise(self, tax):
        params = ModelParams.init(np.random.default_rng(5), tax, width=4, channels=4)
        before = {n: t.data.tobytes() for n, t in params.named().items()}
        opt = SGD(params.named(), lr=0.0, momentum=0.9)
        train_step(self._batch(tax), params, tax, opt)
        after = {n: t.data.tobytes() for n, t in params.named().items()}
        assert before == after

    def test_loss_decreases_on_fixed_image(self, tax):
        params = ModelParams.init(np.random.default_rng(6), tax, width=4, channels=4)
        batch = self._batch(tax, n=1)
        opt = SGD({n: t for n, t in params.named().items() if "gpm." not in n},
                  lr=0.05, momentum=0.9)
        losses = [train_step(batch, params, tax, opt, main_only=True)
                  for _ in range(50)]
        assert losses[-1] < losses[0] * 0.7

    def test_end_to_end_gradcheck(self, tax):
        rng = np.random.default_rng(7)
        params = ModelParams.init(rng, tax, c_in=4, width=4, channels=4)
        image = rng.uniform(0, 1, (1, 8, 8, 4))
        q = rng.integers(0, tax.k3, (1, 8, 8))

        def build():
            out = forward(image, params, tax, gt_labels=q)
            return loss_tensor(out, q, 1.0)

        from grapy.tensor import Tape

        with Tape() as tape:
            loss = build()
        gm = tape.backward(loss)
        leaves = {n: t for n, t in params.named().items()}
        for name in ("backbone.conv1.kernel", "main_head.kernel",
                     "gpm.level2.q1", "gpm.head"):
            t = leaves[name]
            fd = fd_gradient(lambda: float(build().data), t.data)
            assert rel_err(gm.get(t, np.zeros_like(t.data)), fd) < 1e-4, name

    def test_lambda_zero_leaves_pyramid_params_untouched(self, tax):
        params = ModelParams.init(np.random.default_rng(9), tax, width=4, channels=4,
                                  loss_weight=0.0)
        before = {n: t.data.tobytes() for n, t in params.named().items()
                  if n.startswith("gpm")}
        opt = SGD(params.named(), lr=0.1, momentum=0.9)
        train_step(self._batch(tax), params, tax, opt)
        after = {n: t.data.tobytes() for n, t in params.named().items()
                 if n.startswith("gpm")}
        assert before == after

    def test_nonfinite_aborts(self, tax):
        params = ModelParams.init(np.random.default_rng(8), tax, width=4, channels=4)
        params.backbone.layers[0].kernel.data[:] = 1e308  # summing 27 of these overflows
        with pytest.raises(NumericsError):
            train_step(self._batch(tax), params, tax,
                       SGD(params.named(), lr=0.1), clip_norm=0.0)

    def _poison(self, monkeypatch, pick):
        """Patch ``Tape.backward`` to set one entry of the gradients of the
        leaves ``pick(grads)`` to Inf; returns the leaf order of the last map."""
        backward, order = Tape.backward, []

        def inf_gradients(tape, loss):
            grads = backward(tape, loss)
            order[:] = list(grads)
            for t in pick(grads):
                grads[t] = grads[t].copy()
                grads[t].flat[3] = np.inf
            return grads

        monkeypatch.setattr(Tape, "backward", inf_gradients)
        return order

    @pytest.mark.parametrize("clip_norm", [1.0, 0.0])
    def test_nonfinite_gradient_raises_before_any_update(self, tax, monkeypatch, clip_norm):
        params = ModelParams.init(np.random.default_rng(10), tax, width=4, channels=4)
        named = params.named()
        opt = SGD(named, lr=0.1, momentum=0.9)
        batch = self._batch(tax)
        train_step(batch, params, tax, opt, clip_norm=clip_norm)  # fills the momentum buffers
        before = {n: t.data.tobytes() for n, t in named.items()}
        buffers = {n: b.tobytes() for n, b in opt.buffers.items()}
        poisoned = {"main_head.kernel", "backbone.conv2.kernel"}
        order = self._poison(monkeypatch, lambda grads: [named[n] for n in poisoned])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from scaling an Inf
            with pytest.raises(NumericsError) as exc:
                train_step(batch, params, tax, opt, clip_norm=clip_norm)
        name_of = {id(t): n for n, t in named.items()}
        first = next(name_of[id(t)] for t in order if name_of[id(t)] in poisoned)
        assert str(exc.value) == f"the gradient of parameter {first!r} holds NaN or Inf"
        assert {n: t.data.tobytes() for n, t in named.items()} == before
        assert {n: b.tobytes() for n, b in opt.buffers.items()} == buffers

    def test_nonfinite_gradient_exits_3_without_a_checkpoint(self, tax, tmp_path, monkeypatch,
                                                             capsys):
        from grapy import cli

        made = Dataset("A", tax, generate(SceneSpec(seed=13, image_size=(16, 16)), tax, 2))
        manifest = save_dataset(tmp_path / "d", made)
        calls = []

        def last_step(grads):  # step 4 of 4, after which the run saves its checkpoint
            calls.append(None)
            return list(grads)[:1] if len(calls) == 4 else []

        self._poison(monkeypatch, last_step)
        code = cli.main(["train", "--data", manifest, "--out", str(tmp_path / "o"),
                         "--overfit", "2", "--steps", "4"])
        assert len(calls) == 4
        assert code == 3
        assert "numerical failure: the gradient of parameter" in capsys.readouterr().err
        assert not (tmp_path / "o" / "model.ckpt").exists()

    def test_clip_gradients_caps_norm(self):
        grads = {"a": np.full(4, 10.0), "b": np.full(2, -10.0)}
        clipped = clip_gradients(grads, 1.0)
        total = np.sqrt(sum((g ** 2).sum() for g in clipped.values()))
        assert np.isclose(total, 1.0)
        assert clip_gradients(grads, 0.0) is grads


class TestPhases:
    def _dataset(self, tax, n=4):
        return Dataset("A", tax,
                       generate(SceneSpec(seed=21, image_size=(16, 16)), tax, n))

    def test_pretrain_leaves_gpm_at_init(self, tax):
        ds = self._dataset(tax)
        cfg = TrainConfig(seed=0, lr=0.05, batch_size=2, epochs_pretrain=2,
                          epochs_main=0, width=4, channels=4)
        params = pretrain_then_train(ds, cfg)
        fresh = ModelParams.init(np.random.default_rng(np.random.SeedSequence([0, 0])),
                                 tax, width=4, channels=4)
        for name, t in params.named().items():
            if name.startswith("gpm"):
                assert t.data.tobytes() == fresh.named()[name].data.tobytes(), name

    def test_schedule_phases(self, tax):
        params = ModelParams.init(np.random.default_rng(0), tax, width=4, channels=4)
        cfg = TrainConfig(lr=0.2, lr_decay=0.25, gt_masks=True)
        named = params.named()
        pre, main = schedule(cfg, named, None, None, (1, 1), (1, 1))
        assert list(pre.params) == [n for n in named if not n.startswith("gpm.")]
        assert (pre.lr, pre.main_only) == (0.2, True)
        assert main.params is named
        assert (main.lr, main.main_only) == (0.2 * 0.25, False)

    def test_masks_non_degenerate_after_pretrain(self, tax):
        ds = self._dataset(tax, n=6)
        cfg = TrainConfig(seed=1, lr=0.1, batch_size=2, epochs_pretrain=12,
                          epochs_main=0, width=8, channels=4)
        params = pretrain_then_train(ds, cfg)
        from grapy.pyramid import masks_from_prediction

        hit = 0
        for s in ds.samples:
            out = forward(s.image[None], params, tax, main_only=True)
            lm = masks_from_prediction(argmax_channel(out.y), tax, 1)[0]
            if (s.labels > 0).any() and (lm == 1).any():
                hit += 1
        assert hit >= len(ds.samples) // 2

    def test_training_reproducible_bitwise(self, tax):
        ds = self._dataset(tax)
        cfg = TrainConfig(seed=3, lr=0.05, batch_size=2, epochs_pretrain=1,
                          epochs_main=1, width=4, channels=4)
        with precision("f32"):
            a = pretrain_then_train(ds, cfg)
            b = pretrain_then_train(ds, cfg)
        for name, t in a.named().items():
            assert t.data.tobytes() == b.named()[name].data.tobytes(), name

    def test_log_lines_parseable(self, tax, tmp_path):
        ds = self._dataset(tax)
        cfg = TrainConfig(seed=0, lr=0.05, batch_size=2, epochs_pretrain=1,
                          epochs_main=1, width=4, channels=4)
        path = tmp_path / "train.log"
        with open(path, "w", encoding="utf-8") as log:
            pretrain_then_train(ds, cfg, log)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2 * 2  # two epochs, two steps each
        for ln in lines:
            epoch, step, loss, lr = ln.split("\t")
            int(epoch), int(step), float(loss), float(lr)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-1)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.5)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestBatchAxis:
    """The stacked batch against a loop over its images, in 64-bit.

    Summation order differs (one GEMM over N*H*W rows instead of one per
    image), so agreement is to 1e-9 relative, not bitwise.
    """

    @pytest.fixture
    def setup(self):
        tax = taxonomy_by_name("B")
        rng = np.random.default_rng(10)
        params = ModelParams.init(rng, tax, width=8, channels=4)
        for lp in params.gpm.levels.values():  # zero-init would hide the levels
            lp.out_proj.data[:] = rng.normal(size=lp.out_proj.shape) * 0.3
        params.gpm.head.data[:] = rng.normal(size=params.gpm.head.shape) * 0.3
        samples = generate(SceneSpec(seed=11, image_size=(16, 16)), tax, 3)
        batch = SampleBatch([s.image for s in samples], [s.labels for s in samples])
        return tax, params, batch

    @pytest.mark.parametrize("gt_masks", [False, True])
    def test_per_sample_outputs_and_losses(self, setup, gt_masks):
        tax, params, batch = setup
        q = np.stack(batch.labels)
        out = forward(np.stack(batch.images), params, tax, gt_labels=q if gt_masks else None)
        for n, (image, labels) in enumerate(zip(batch.images, batch.labels)):
            one = forward(image[None], params, tax,
                          gt_labels=labels[None] if gt_masks else None)
            assert rel_err(out.y.data[n], one.y.data[0]) < 1e-9
            assert rel_err(out.y_hat.data[n], one.y_hat.data[0]) < 1e-9
            sliced = ForwardOut(Tensor(out.y.data[n:n + 1]), Tensor(out.y_hat.data[n:n + 1]))
            a = float(loss_tensor(sliced, labels[None], 1.0).data)
            b = float(loss_tensor(one, labels[None], 1.0).data)
            assert abs(a - b) <= 1e-9 * abs(b)

    @pytest.mark.parametrize("gt_masks", [False, True])
    def test_batch_loss_and_gradients_match_mean_of_images(self, setup, gt_masks):
        tax, params, batch = setup
        with Tape() as tape:
            loss = batch_loss(batch, params, tax, gt_masks=gt_masks)
        got = tape.backward(loss)
        with Tape() as tape:
            terms = [loss_tensor(forward(img[None], params, tax,
                                         gt_labels=q[None] if gt_masks else None), q[None], 1.0)
                     for img, q in zip(batch.images, batch.labels)]
            total = terms[0]
            for t in terms[1:]:
                total = add(total, t)
            mean = scale(total, 1.0 / len(terms))
        want = tape.backward(mean)
        assert abs(float(loss.data) - float(mean.data)) <= 1e-9 * abs(float(mean.data))
        assert set(got) == set(want)
        for leaf, g in want.items():
            assert np.abs(got[leaf] - g).max() <= 1e-9 * np.abs(g).max()

    def test_one_tape_per_batch(self, setup):
        tax, params, batch = setup
        with Tape() as tape:
            batch_loss(batch, params, tax)
        with Tape() as single:
            batch_loss(SampleBatch(batch.images[:1], batch.labels[:1]), params, tax)
        assert len(tape) == len(single)


class TestInputBoundary:
    """Loaded samples hold their files' 8-bit codes; ``forward`` maps them to
    [0, 1] itself, with the arithmetic a float image in [0, 1] gets."""

    @pytest.fixture
    def loaded(self, tmp_path):
        tax = taxonomy_by_name("B")
        made = Dataset("B", tax, generate(SceneSpec(seed=12, image_size=(16, 16)), tax, 3))
        return tax, load_dataset(save_dataset(tmp_path / "d", made)).samples

    @pytest.mark.parametrize("prec", ["f32", "f64"])
    def test_codes_forward_as_their_dequantized_floats(self, loaded, prec):
        tax, samples = loaded
        codes = np.stack([s.image for s in samples])
        assert codes.dtype == np.uint8
        with precision(prec):
            params = ModelParams.init(np.random.default_rng(13), tax, width=8, channels=4)
            a = forward(codes, params, tax)
            b = forward(dequantize_image(codes), params, tax)
        for got, want in ((a.y.data, b.y.data), (a.y_hat.data, b.y_hat.data), (a.fine, b.fine)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("prec", ["f32", "f64"])
    def test_batch_loss_of_codes_equals_loss_of_floats(self, loaded, prec):
        tax, samples = loaded
        codes = SampleBatch([s.image for s in samples], [s.labels for s in samples])
        floats = SampleBatch([dequantize_image(s.image) for s in samples],
                             [s.labels.astype(np.int64) for s in samples])
        with precision(prec):
            params = ModelParams.init(np.random.default_rng(14), tax, width=8, channels=4)
            grads = []
            for batch in (codes, floats):
                with Tape() as tape:
                    loss = batch_loss(batch, params, tax)
                grads.append((loss.data.tobytes(), tape.backward(loss)))
        (loss_a, got), (loss_b, want) = grads
        assert loss_a == loss_b
        assert set(got) == set(want)
        for leaf, g in want.items():
            assert got[leaf].tobytes() == g.tobytes()
