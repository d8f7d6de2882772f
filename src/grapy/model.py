"""Single-dataset parser: toy conv backbone, main head, pyramid branch, training.

The backbone is three stride-1 same-padded conv layers (relu between), small
on purpose; the main head is a 1x1 conv to the fine class count, softmaxed
per pixel. The pyramid branch consumes the backbone features and the main
prediction and emits its own per-pixel distribution. Both branches train
with per-pixel mean cross-entropy; the pyramid term is weighted by
``loss_weight`` (default 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hierarchy import Taxonomy
from .pyramid import GCR_ITERATIONS, GpmParams, gt_label_maps, pyramid_forward
from .synthdata import Dataset, SampleBatch
from .tensor import (SGD, Tape, Tensor, conv2d, cross_entropy_mean, relu,
                     reshape, scale, softmax_channels, uniform_init)


@dataclass
class ConvLayer:
    kernel: Tensor
    bias: Tensor

    @classmethod
    def init(cls, rng, kh, kw, cin, cout) -> "ConvLayer":
        kernel = uniform_init(rng, (kh, kw, cin, cout), kh * kw * cin)
        bias = Tensor(np.zeros(cout), requires_grad=True)
        return cls(kernel, bias)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.kernel": self.kernel, f"{prefix}.bias": self.bias}

    def apply(self, x: Tensor) -> Tensor:
        out = conv2d(x, self.kernel)
        c = out.shape[-1]
        return out + reshape(self.bias, (1,) * (out.data.ndim - 1) + (c,))


@dataclass
class BackboneParams:
    """Stack of stride-1 conv layers; spatial size is preserved."""

    layers: list[ConvLayer]

    @classmethod
    def init(cls, rng, c_in: int = 3, width: int = 16, channels: int = 8) -> "BackboneParams":
        dims = [c_in, width, width, channels]
        layers = [ConvLayer.init(rng, 3, 3, dims[i], dims[i + 1]) for i in range(3)]
        return cls(layers)

    @property
    def out_channels(self) -> int:
        return self.layers[-1].kernel.shape[3]

    def named(self, prefix: str = "backbone") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers, start=1):
            out.update(layer.named(f"{prefix}.conv{i}"))
        return out

    def apply(self, x: Tensor) -> Tensor:
        out = x
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            out = layer.apply(out)
            if i != last:
                out = relu(out)
        return out


@dataclass
class ModelParams:
    backbone: BackboneParams
    main_head: ConvLayer
    gpm: GpmParams | None
    loss_weight: float = 1.0

    @classmethod
    def init(cls, seed_or_rng, taxonomy: Taxonomy, c_in: int = 3, width: int = 16,
             channels: int = 8, loss_weight: float = 1.0, with_gpm: bool = True,
             pooling: str = "both", levels=(1, 2, 3), iterations: int = GCR_ITERATIONS,
             fresh_weights: bool = False) -> "ModelParams":
        rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
               else np.random.default_rng(seed_or_rng))
        if loss_weight < 0:
            raise ValueError(f"loss weight must be >= 0, got {loss_weight}")
        backbone = BackboneParams.init(rng, c_in, width, channels)
        main_head = ConvLayer.init(rng, 1, 1, channels, taxonomy.k3)
        gpm = None
        if with_gpm:
            gpm = GpmParams.init(rng, channels, taxonomy.k3, pooling=pooling,
                                 levels=levels, iterations=iterations,
                                 fresh_weights=fresh_weights)
        return cls(backbone, main_head, gpm, loss_weight)

    def named(self) -> dict[str, Tensor]:
        out = self.backbone.named()
        out.update(self.main_head.named("main_head"))
        if self.gpm is not None:
            out.update(self.gpm.named("gpm"))
        return out

    def main_named(self) -> dict[str, Tensor]:
        """Backbone + main head only (the pretrain parameter set)."""
        out = self.backbone.named()
        out.update(self.main_head.named("main_head"))
        return out


class ForwardOut(NamedTuple):
    y: Tensor                 # main-branch per-pixel distribution ([N,] H, W, K3)
    y_hat: Tensor | None      # pyramid-branch distribution, None in main-only mode
    f_hat: Tensor | None      # fused feature map feeding the pyramid head


def forward(image, params: ModelParams, taxonomy: Taxonomy,
            gt_labels: np.ndarray | None = None, main_only: bool = False) -> ForwardOut:
    """Full forward pass: features, main prediction, pyramid prediction.

    ``image`` is one (H, W, C) image or an (N, H, W, C) batch; every output
    then carries the same leading axes. ``gt_labels`` switches category masks
    to coarsened ground truth (debug mode); default masks derive from the
    main prediction's argmax.
    """
    # images arrive in [0, 1]; centering keeps the first conv well conditioned
    x = image if isinstance(image, Tensor) else Tensor(np.asarray(image) - 0.5)
    f = params.backbone.apply(x)
    y = softmax_channels(params.main_head.apply(f))
    if main_only or params.gpm is None:
        return ForwardOut(y=y, y_hat=None, f_hat=None)
    maps = None
    if gt_labels is not None:
        maps = gt_label_maps(gt_labels, taxonomy, sorted(params.gpm.levels))
    f_hat, y_hat = pyramid_forward(f, y, taxonomy, params.gpm, label_maps=maps)
    return ForwardOut(y=y, y_hat=y_hat, f_hat=f_hat)


def loss_tensor(out: ForwardOut, q: np.ndarray, loss_weight: float) -> Tensor:
    """Per-pixel mean cross-entropy of both branches: L = L_main + w * L_pyramid."""
    total = cross_entropy_mean(out.y, q)
    if out.y_hat is not None and loss_weight != 0.0:
        total = total + scale(cross_entropy_mean(out.y_hat, q), loss_weight)
    return total


def batch_loss(batch: SampleBatch, params: ModelParams, taxonomy: Taxonomy,
               gt_masks: bool = False, main_only: bool = False) -> Tensor:
    """Mean two-branch loss of the batch, as one stacked forward on one tape.

    Every image has the same size, so the mean over all N*H*W pixels equals
    the mean of the per-image losses.
    """
    images = np.stack(batch.images)
    q = np.stack(batch.labels)
    out = forward(images, params, taxonomy, gt_labels=q if gt_masks else None,
                  main_only=main_only)
    return loss_tensor(out, q, params.loss_weight)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale the whole gradient set so its global norm is at most ``max_norm``.

    The pyramid's residual reasoning roughly doubles node features per
    iteration, which makes the loss surface cliff-prone under momentum;
    clipping bounds the overshoot. ``max_norm <= 0`` disables.
    """
    if max_norm <= 0:
        return grads
    total = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
    if total > max_norm:
        factor = max_norm / total
        grads = {name: g * g.dtype.type(factor) for name, g in grads.items()}
    return grads


def train_step(batch: SampleBatch, params: ModelParams, taxonomy: Taxonomy, opt: SGD,
               gt_masks: bool = False, main_only: bool = False,
               lr: float | None = None, clip_norm: float = 5.0) -> float:
    """One forward/backward/SGD update; returns the pre-update loss."""
    with Tape() as tape:
        total = batch_loss(batch, params, taxonomy, gt_masks=gt_masks, main_only=main_only)
    value = float(total.data)
    grad_map = tape.backward(total)
    name_of = {id(t): name for name, t in opt.params.items()}
    grads = {name_of[id(t)]: g for t, g in grad_map.items() if id(t) in name_of}
    opt.step(clip_gradients(grads, clip_norm), lr=lr)
    return value


@dataclass
class TrainConfig:
    seed: int = 0
    lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 4
    epochs_pretrain: int = 30
    epochs_main: int = 30
    lr_decay: float = 0.1             # applied once, at the pretrain -> main boundary
    clip_norm: float = 1.0            # global gradient-norm cap, 0 disables
    loss_weight: float = 1.0
    gt_masks: bool = False
    with_gpm: bool = True
    pooling: str = "both"
    levels: tuple = (1, 2, 3)
    iterations: int = GCR_ITERATIONS
    fresh_weights: bool = False
    c_in: int = 3
    width: int = 16
    channels: int = 8

    def validate(self) -> None:
        checks = [
            (self.lr > 0, "lr must be > 0"),
            (0 <= self.momentum < 1, "momentum must be in [0, 1)"),
            (self.batch_size >= 1, "batch size must be >= 1"),
            (self.epochs_pretrain >= 0, "pretrain epochs must be >= 0"),
            (self.epochs_main >= 0, "main epochs must be >= 0"),
            (self.loss_weight >= 0, "loss weight must be >= 0"),
            (0 < self.lr_decay <= 1, "lr decay must be in (0, 1]"),
            (self.clip_norm >= 0, "gradient clip norm must be >= 0"),
            (self.iterations >= 1, "reasoning iterations must be >= 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)


class TrainLog:
    """Append-only tab-separated training log: epoch, step, [dataset,] loss, lr."""

    def __init__(self, path=None):
        self._fh = open(path, "w", encoding="utf-8") if path else None

    def write(self, epoch: int, step: int, loss: float, lr: float, dataset: str | None = None):
        if self._fh is None:
            return
        if dataset is None:
            self._fh.write(f"{epoch}\t{step}\t{loss:.6f}\t{lr:g}\n")
        else:
            self._fh.write(f"{epoch}\t{step}\t{dataset}\t{loss:.6f}\t{lr:g}\n")

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def main_phase_lr(cfg: TrainConfig) -> float:
    """Constant lr per phase; the single step decay sits at the phase boundary."""
    return cfg.lr * cfg.lr_decay


def pretrain_then_train(dataset: Dataset, cfg: TrainConfig,
                        log: TrainLog | None = None,
                        params: ModelParams | None = None) -> ModelParams:
    """Phase 1 trains backbone + main head alone so masks become meaningful;
    phase 2 trains everything with the two-branch objective."""
    cfg.validate()
    log = log or TrainLog(None)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    if params is None:
        params = ModelParams.init(np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])),
                                  dataset.taxonomy, c_in=cfg.c_in, width=cfg.width,
                                  channels=cfg.channels, loss_weight=cfg.loss_weight,
                                  with_gpm=cfg.with_gpm, pooling=cfg.pooling,
                                  levels=cfg.levels, iterations=cfg.iterations,
                                  fresh_weights=cfg.fresh_weights)
    pre_opt = SGD(params.main_named(), cfg.lr, cfg.momentum)
    step = 0
    epoch = 0
    for _ in range(cfg.epochs_pretrain):
        for batch in dataset.batches(rng, cfg.batch_size):
            loss = train_step(batch, params, dataset.taxonomy, pre_opt, main_only=True,
                              clip_norm=cfg.clip_norm)
            step += 1
            log.write(epoch, step, loss, cfg.lr)
        epoch += 1
    opt = SGD(params.named(), cfg.lr, cfg.momentum)
    for _ in range(cfg.epochs_main):
        lr = main_phase_lr(cfg)
        for batch in dataset.batches(rng, cfg.batch_size):
            loss = train_step(batch, params, dataset.taxonomy, opt,
                              gt_masks=cfg.gt_masks, lr=lr, clip_norm=cfg.clip_norm)
            step += 1
            log.write(epoch, step, loss, lr)
        epoch += 1
    return params


def overfit_train(dataset: Dataset, cfg: TrainConfig, steps: int,
                  log: TrainLog | None = None) -> ModelParams:
    """Small fixed-subset training driven by a step budget instead of epochs.

    Spends a quarter of the budget on the pretrain phase, the rest on the
    full objective; full-batch if the subset fits the batch size.
    """
    cfg.validate()
    log = log or TrainLog(None)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    params = ModelParams.init(np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])),
                              dataset.taxonomy, c_in=cfg.c_in, width=cfg.width,
                              channels=cfg.channels, loss_weight=cfg.loss_weight,
                              with_gpm=cfg.with_gpm, pooling=cfg.pooling,
                              levels=cfg.levels, iterations=cfg.iterations,
                              fresh_weights=cfg.fresh_weights)
    pre_steps = steps // 4
    pre_opt = SGD(params.main_named(), cfg.lr, cfg.momentum)
    opt = SGD(params.named(), cfg.lr, cfg.momentum)

    def batches_forever():
        while True:
            yield from dataset.batches(rng, cfg.batch_size)

    stream = batches_forever()
    for i in range(steps):
        batch = next(stream)
        if i < pre_steps:
            loss = train_step(batch, params, dataset.taxonomy, pre_opt, main_only=True,
                              clip_norm=cfg.clip_norm)
            lr = cfg.lr
        else:
            lr = cfg.lr * cfg.lr_decay
            loss = train_step(batch, params, dataset.taxonomy, opt,
                              gt_masks=cfg.gt_masks, lr=lr, clip_norm=cfg.clip_norm)
        log.write(0, i + 1, loss, lr)
    return params
