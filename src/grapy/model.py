"""Single-dataset parser: toy conv backbone, main head, pyramid branch, training.

The backbone is three stride-1 same-padded conv layers (relu between), small
on purpose; the main head is a 1x1 conv to the fine class count. The pyramid
branch consumes the backbone features and the main prediction and emits its
own per-pixel logits. Both train with the per-pixel mean cross-entropy of
their logits' softmax, which only the loss applies; the pyramid term is
weighted by ``loss_weight`` (default 1).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, TextIO

import numpy as np

from .hierarchy import Taxonomy
from .imageio import dequantize_image
from .pyramid import GCR_ITERATIONS, GpmParams, check_levels, gt_label_maps, pyramid_forward
from .synthdata import Dataset, RoundRobinSampler, SampleBatch
from .tensor import (SGD, NumericsError, Tape, Tensor, add, argmax_channel, conv2d,
                     cross_entropy_mean, relu, scale, softmax_channels, uniform_init)


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
        return conv2d(x, self.kernel, self.bias)


@dataclass
class BackboneParams:
    """Stack of stride-1 conv layers; spatial size is preserved."""

    layers: list[ConvLayer]

    @classmethod
    def init(cls, rng, c_in: int = 3, width: int = 16, channels: int = 8) -> "BackboneParams":
        dims = [c_in, width, width, channels]
        layers = [ConvLayer.init(rng, 3, 3, dims[i], dims[i + 1]) for i in range(3)]
        return cls(layers)

    def named(self, prefix: str = "backbone") -> dict[str, Tensor]:
        return {name: t for i, layer in enumerate(self.layers, start=1)
                for name, t in layer.named(f"{prefix}.conv{i}").items()}

    def apply(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = relu(layer.apply(x))
        return self.layers[-1].apply(x)


@dataclass
class ModelParams:
    backbone: BackboneParams
    main_head: ConvLayer
    gpm: GpmParams | None
    loss_weight: float = 1.0

    @classmethod
    def init(cls, seed_or_rng, taxonomy: Taxonomy, c_in: int = 3, width: int = 16,
             channels: int = 8, loss_weight: float = 1.0, with_gpm: bool = True,
             levels=(1, 2, 3), iterations: int = GCR_ITERATIONS, **modes) -> "ModelParams":
        only_default_modes(**modes)
        rng = np.random.default_rng(seed_or_rng)  # a Generator passes through
        backbone = BackboneParams.init(rng, c_in, width, channels)
        main_head = ConvLayer.init(rng, 1, 1, channels, taxonomy.k3)
        gpm = (GpmParams.init(rng, channels, taxonomy.k3, levels=levels, iterations=iterations)
               if with_gpm else None)
        return cls(backbone, main_head, gpm, loss_weight)

    def __post_init__(self):
        if self.loss_weight < 0:
            raise ValueError(f"loss weight must be >= 0, got {self.loss_weight}")

    def named(self) -> dict[str, Tensor]:
        out = self.backbone.named()
        out.update(self.main_head.named("main_head"))
        if self.gpm is not None:
            out.update(self.gpm.named("gpm"))
        return out


class ForwardOut(NamedTuple):
    y: Tensor                 # main-branch per-pixel logits (N, H, W, K3)
    y_hat: Tensor | None      # pyramid-branch logits, None in main-only mode
    fine: np.ndarray | None = None  # argmax of y (N, H, W) when the pyramid's masks came from it

    def main_prediction(self) -> np.ndarray:
        """The (N, H, W) argmax of ``y``: ``fine`` when the forward took it."""
        return argmax_channel(self.y) if self.fine is None else self.fine


def forward(images: np.ndarray, params: ModelParams, taxonomy: Taxonomy,
            gt_labels: np.ndarray | None = None, main_only: bool = False) -> ForwardOut:
    """Full forward pass of an (N, H, W, C) batch: features, main logits,
    pyramid logits, each (N, H, W, .), unsoftmaxed. Images are floats in
    [0, 1] or uint8 codes, which ``dequantize_image`` maps there.

    ``gt_labels`` ((N, H, W)) switches category masks to coarsened ground
    truth (debug mode); default masks derive from the main logits' argmax,
    returned as ``fine`` for callers that need the prediction too: the
    softmax's argmax except where rounding ties two softmax values.
    """
    images = np.asarray(images)
    if images.dtype == np.uint8:  # a loaded split's codes: dequantized once per batch
        images = dequantize_image(images)
    # centering keeps the first conv well conditioned
    f = params.backbone.apply(Tensor(images - 0.5))
    y = params.main_head.apply(f)
    if main_only or params.gpm is None:
        return ForwardOut(y=y, y_hat=None)
    if gt_labels is None:
        maps, fine = None, argmax_channel(y)
    else:
        maps, fine = gt_label_maps(gt_labels, taxonomy, sorted(params.gpm.levels)), None
    _, y_hat = pyramid_forward(f, taxonomy, params.gpm, label_maps=maps, fine=fine)
    return ForwardOut(y=y, y_hat=y_hat, fine=fine)


def loss_tensor(out: ForwardOut, q: np.ndarray, loss_weight: float) -> Tensor:
    """Per-pixel mean cross-entropy of both branches' softmax: L = L_main + w * L_pyramid."""
    total = cross_entropy_mean(softmax_channels(out.y), q)
    if out.y_hat is not None and loss_weight != 0.0:
        total = add(total, scale(cross_entropy_mean(softmax_channels(out.y_hat), q), loss_weight))
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


CLIP_NORM = 1.0  # default gradient-norm cap of every update


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
               clip_norm: float = CLIP_NORM) -> float:
    """One forward/backward/SGD update at ``opt.lr``; returns the pre-update loss.
    ``opt``'s gradients are clipped by name, in tape order; the first that is
    not finite raises NumericsError instead."""
    with Tape() as tape:
        total = batch_loss(batch, params, taxonomy, gt_masks=gt_masks, main_only=main_only)
    grad_map = tape.backward(total)
    name_of = {id(t): name for name, t in opt.params.items()}
    grads = {name_of[id(t)]: g for t, g in grad_map.items() if id(t) in name_of}
    bad = next((name for name, g in grads.items() if not np.isfinite(g).all()), None)
    if bad is not None:  # before the update, so parameters and momentum stay as they were
        raise NumericsError(f"the gradient of parameter {bad!r} holds NaN or Inf")
    opt.step(clip_gradients(grads, clip_norm))
    return float(total.data)


@dataclass(frozen=True)
class Setting:
    """Field metadata that makes a config field a flag and a config key: ``key``
    (default: the field name) is the key and, dashed, the flag; values must lie
    in ``bounds`` (e.g. ``"[0, 1)"``) or ``choices``; ``parse`` reads text."""

    help: str
    key: str | None = None
    aliases: tuple = ()  # further config keys
    bounds: str | None = None
    choices: tuple | None = None
    parse: Callable | None = None
    env: str | None = None  # environment variable that replaces the default

    def check(self, value) -> None:
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"must be one of {'|'.join(self.choices)}, got {value!r}")
        if self.bounds is not None:
            lo, hi = (float(x) for x in self.bounds[1:-1].split(","))
            above = value > lo if self.bounds[0] == "(" else value >= lo
            if not (above and (value < hi if self.bounds[-1] == ")" else value <= hi)):
                raise ValueError(f"must be in {self.bounds}, got {value!r}")


def setting(default, help: str, **kw):
    return field(default=default, metadata={"setting": Setting(help, **kw)})


def parse_levels(raw: str) -> tuple:
    return check_levels([int(x) for x in raw.split(",") if x.strip()])


@dataclass
class SeedConfig:
    seed: int = setting(0, "seed of init and batch order", bounds="[0, inf)", env="GRAPY_SEED")

    def __post_init__(self):
        """Raise ValueError naming the first setting outside its declared range."""
        for f in fields(self):
            try:
                if "setting" in f.metadata:
                    f.metadata["setting"].check(getattr(self, f.name))
            except ValueError as exc:
                raise ValueError(f"{f.name} {exc}") from None


@dataclass
class BaseTrainConfig(SeedConfig):
    """The settings of single-model and mutual training."""

    lr: float = setting(0.1, "learning rate of the pretrain phase", bounds="(0, inf)")
    momentum: float = setting(0.9, "SGD momentum", bounds="[0, 1)")
    batch_size: int = setting(4, "images per step", bounds="[1, inf)")
    epochs_pretrain: int = setting(30, "epochs of main-branch pretrain", bounds="[0, inf)")
    epochs_main: int = setting(30, "epochs of two-branch training", bounds="[0, inf)")
    lr_decay: float = setting(0.1, "lr factor from the two-branch phase on", bounds="(0, 1]")
    clip_norm: float = setting(CLIP_NORM, "gradient-norm cap, 0 disables", bounds="[0, inf)")
    loss_weight: float = setting(1.0, "pyramid-branch loss weight", key="lambda",
                                 aliases=("loss_weight",), bounds="[0, inf)")
    gt_masks: bool = setting(False, "debug: category masks from ground truth")
    iterations: int = setting(GCR_ITERATIONS, "reasoning iterations", bounds="[1, inf)")
    c_in: int = 3  # image channels; the datasets are RGB
    width: int = setting(16, "backbone conv width", bounds="[1, inf)")
    channels: int = setting(8, "feature channels", bounds="[1, inf)")
    # Class constants, not fields, so no flag or key: perfbench/workloads.py's
    # TrainSingleA.setup and TrainMutualABC.setup read them and pass them to
    # ModelParams.init and MlModel.init, which take no other value.
    pooling = "both"
    fresh_weights = False


def only_default_modes(pooling: str = "both", fresh_weights: bool = False) -> None:
    """Reject the removed pyramid modes that ``BaseTrainConfig``'s constants name."""
    if pooling != "both":
        raise ValueError(f"pooling {pooling!r} was removed; nodes pool mean and max")
    if fresh_weights:
        raise ValueError("fresh_weights was removed; every reasoning round shares q1, q2")


@dataclass
class TrainConfig(BaseTrainConfig):
    """Single-model training: the shared settings, and which pyramid to train."""

    with_gpm: bool = setting(True, "train the pyramid branch (off: main only)", key="gpm")
    levels: tuple = setting((1, 2, 3), "pyramid levels", key="gpm_levels", parse=parse_levels)


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """Stream 0 initialises the model, 1 orders the batches, 2 the fine-tune batches."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def init_model(init: Callable, cfg, *args):
    """``init(rng, *args, ...)`` on stream 0 with every ``cfg`` setting it takes."""
    takes = inspect.signature(init).parameters
    return init(seeded_rng(cfg.seed, 0), *args,
                **{f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name in takes})


@dataclass
class Phase:
    """One stretch of a schedule: ``params`` move at ``lr`` (under an SGD of
    their own); ``step(batch, opt, **flags)`` updates on ``next_batch()``."""

    params: dict[str, Tensor]
    lr: float
    step: Callable[..., float]
    next_batch: Callable[[], object]
    epochs: int
    epoch_steps: int
    main_only: bool = False


def schedule(cfg: BaseTrainConfig, named: dict[str, Tensor], step: Callable[..., float],
             next_batch: Callable[[], object], pretrain: tuple, main: tuple) -> list[Phase]:
    """All but the pyramid on the main branch at ``lr``, so masks become meaningful,
    then all on the two-branch objective at the decayed lr, both by ``step`` on
    ``next_batch()``; ``pretrain`` and ``main`` are each phase's (epochs, epoch_steps)."""
    return [Phase({n: t for n, t in named.items() if "gpm." not in n}, cfg.lr, step, next_batch,
                  *pretrain, main_only=True),
            Phase(named, cfg.lr * cfg.lr_decay, step, next_batch, *main)]


def run_phases(phases: list[Phase], cfg: BaseTrainConfig, log: TextIO | None = None,
               label: Callable = lambda batch: None, at: tuple[int, int] = (0, 0)):
    """The training loop; every step takes ``cfg``'s gt_masks and clip_norm (a
    main-only step builds no masks). Writes a tab-separated row per step to ``log``:
    epoch and step (numbered on from ``at``), ``label(batch)`` unless None, loss and
    lr. Returns the (epoch, step) reached."""
    epoch, step = at
    for ph in phases:
        opt = SGD(ph.params, ph.lr, cfg.momentum)
        for _ in range(ph.epochs):
            for _ in range(ph.epoch_steps):
                batch = ph.next_batch()
                loss = ph.step(batch, opt, gt_masks=cfg.gt_masks, main_only=ph.main_only,
                               clip_norm=cfg.clip_norm)
                step += 1
                if log is not None:
                    row = (epoch, step, label(batch), f"{loss:.6f}", f"{ph.lr:g}")
                    log.write("\t".join(str(c) for c in row if c is not None) + "\n")
            epoch += 1
    return epoch, step


def _train_single(dataset: Dataset, cfg: TrainConfig, log, params, phases: Callable):
    """``schedule`` over one sampler; ``phases(epoch_steps)`` gives the pretrain and
    main phases' (epochs, epoch_steps) from the sampler's batches per pass."""
    if params is None:
        params = init_model(ModelParams.init, cfg, dataset.taxonomy)
    sampler = RoundRobinSampler([dataset], seeded_rng(cfg.seed, 1), cfg.batch_size)

    def step(batch, opt, **flags):
        return train_step(batch, params, dataset.taxonomy, opt, **flags)

    run_phases(schedule(cfg, params.named(), step, sampler.next_batch,
                        *phases(sampler.epoch_steps)), cfg, log)
    return params


def pretrain_then_train(dataset: Dataset, cfg: TrainConfig, log: TextIO | None = None,
                        params: ModelParams | None = None) -> ModelParams:
    """``epochs_pretrain`` main-branch epochs, then ``epochs_main`` two-branch epochs."""
    return _train_single(dataset, cfg, log, params,
                         lambda n: ((cfg.epochs_pretrain, n), (cfg.epochs_main, n)))


def overfit_train(dataset: Dataset, cfg: TrainConfig, steps: int,
                  log: TextIO | None = None) -> ModelParams:
    """Fixed-subset training on a step budget, a quarter of it main-branch only,
    over one sampler. The log's epoch column counts the two phases."""
    return _train_single(dataset, cfg, log, None,
                         lambda n: ((1, steps // 4), (1, steps - steps // 4)))
