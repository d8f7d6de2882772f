"""Cross-dataset mutual learning: one parser per dataset, sharing the coarse levels.

An ``MlModel`` is its per-dataset ``ModelParams``, built once. Every branch
holds the same tensors for pyramid Levels 1 and 2 and, by default, the same
backbone; its main head, Level-3 weights and fused prediction head are its
own, sized to its fine label count. A step on one dataset therefore updates
the shared tensors and that branch only. The multi-dataset objective is the
sum of per-dataset two-branch losses, realized either across round-robin
steps or in a single accumulated step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .hierarchy import Taxonomy
from .model import (CLIP_NORM, SGD, BackboneParams, BaseTrainConfig, ConvLayer, ModelParams,
                    Phase, TrainLog, apply_update, batch_loss, batch_stream,
                    init_model, run_phases, seeded_rng, setting, train_step)
# the benchmark's tracer wraps ``clip_gradients`` and ``train_step`` here too
from .model import clip_gradients  # noqa: F401
from .pyramid import GpmParams, init_levels
from .synthdata import Dataset, SampleBatch
from .tensor import Tape, Tensor, uniform_init


@dataclass
class MlModel:
    branches: list[ModelParams]  # branch d - 1 parses dataset d
    taxonomies: list[Taxonomy]

    @classmethod
    def init(cls, seed_or_rng, taxonomies: list[Taxonomy], c_in: int = 3,
             width: int = 16, channels: int = 8, loss_weight: float = 1.0,
             pooling: str = "both", iterations: int = 3,
             share_backbone: bool = True, fresh_weights: bool = False) -> "MlModel":
        """Draws the shared backbone, Levels 1-2, then per branch its own
        backbone (unless shared), main head, Level 3 and head."""
        if len(taxonomies) < 2:
            raise ValueError("mutual learning needs at least 2 datasets")
        rng = np.random.default_rng(seed_or_rng)  # a Generator passes through
        levels = partial(init_levels, rng, channels, pooling=pooling, iterations=iterations,
                         fresh_weights=fresh_weights)
        backbone = BackboneParams.init(rng, c_in, width, channels) if share_backbone else None
        coarse = levels((1, 2))
        branches = []
        for tax in taxonomies:
            bb = backbone if share_backbone else BackboneParams.init(rng, c_in, width, channels)
            main_head = ConvLayer.init(rng, 1, 1, channels, tax.k3)
            fine = levels((3,))
            head = uniform_init(rng, (1, 1, 4 * channels, tax.k3), 4 * channels)
            gpm = GpmParams({**coarse, **fine}, head, pooling, iterations)
            branches.append(ModelParams(bb, main_head, gpm, loss_weight))
        return cls(branches, list(taxonomies))

    @property
    def share_backbone(self) -> bool:
        return self.branches[0].backbone is self.branches[1].backbone

    def branch_params(self, d: int) -> ModelParams:
        """The parser of dataset ``d`` (1-based), holding the shared tensors."""
        if not 1 <= d <= len(self.branches):
            raise ValueError(f"dataset index must be in [1, {len(self.branches)}], got {d}")
        return self.branches[d - 1]

    def _shared_ids(self) -> set[int]:
        return set.intersection(*({id(t) for t in p.named().values()} for p in self.branches))

    def shared_named(self) -> dict[str, Tensor]:
        """The tensors every branch holds, as ``shared.<name>``."""
        shared = self._shared_ids()
        return {f"shared.{n}": t for n, t in self.branches[0].named().items() if id(t) in shared}

    def branch_named(self, d: int) -> dict[str, Tensor]:
        """The tensors branch ``d`` holds alone, as ``branch<d>.<name>``."""
        shared = self._shared_ids()
        return {f"branch{d}.{n}": t for n, t in self.branch_params(d).named().items()
                if id(t) not in shared}

    def named(self) -> dict[str, Tensor]:
        out = self.shared_named()
        for d in range(1, len(self.branches) + 1):
            out.update(self.branch_named(d))
        return out

    def step_params(self, d: int) -> dict[str, Tensor]:
        """Parameters an update on dataset ``d`` may touch: shared + branch d."""
        return {**self.shared_named(), **self.branch_named(d)}

    def log_label(self, batch) -> str:
        """The log's dataset column: the batch's dataset, or "all" for a group."""
        if isinstance(batch, list):
            return "all"
        return self.taxonomies[batch.dataset_index - 1].dataset_name


def ml_step(batch: SampleBatch, model: MlModel, opt: SGD, gt_masks: bool = False,
            main_only: bool = False, clip_norm: float = CLIP_NORM) -> float:
    """One update from a single-dataset batch; gradients reach shared + branch d."""
    d = batch.dataset_index
    return train_step(batch, model.branch_params(d), model.taxonomies[d - 1], opt,
                      gt_masks=gt_masks, main_only=main_only, clip_norm=clip_norm)


def ml_step_accumulated(batches: list[SampleBatch], model: MlModel, opt: SGD,
                        gt_masks: bool = False, main_only: bool = False,
                        clip_norm: float = CLIP_NORM):
    """One update from one batch per dataset; the loss is the exact sum of the
    per-dataset losses (returned alongside for the additivity check)."""
    per_dataset, total = [], None
    with Tape() as tape:
        for batch in batches:
            d = batch.dataset_index
            term = batch_loss(batch, model.branch_params(d), model.taxonomies[d - 1],
                              gt_masks=gt_masks, main_only=main_only)
            per_dataset.append(float(term.data))
            total = term if total is None else total + term
    apply_update(tape, total, opt, clip_norm)
    return float(total.data), per_dataset


class RoundRobinSampler:
    """Cycles datasets 1, 2, 3, 1, 2, ...; each dataset reshuffles independently."""

    def __init__(self, datasets: list[Dataset], rng: np.random.Generator, batch_size: int):
        self._streams = [batch_stream(ds, rng, batch_size, dataset_index=d)
                         for d, ds in enumerate(datasets, start=1)]
        self._cursor = 0

    def next_batch(self) -> SampleBatch:
        i = self._cursor
        self._cursor = (i + 1) % len(self._streams)
        return self._streams[i]()


@dataclass
class MlTrainConfig(BaseTrainConfig):
    epochs_finetune: int = setting(10, "epochs on the --finetune dataset", bounds="[0, inf)")
    share_backbone: bool = setting(True, "one backbone for every dataset branch")
    accumulate: bool = setting(False, "one update per dataset group (summed losses)")


def mutual_phases(datasets: list[Dataset], cfg: MlTrainConfig, model: MlModel,
                  finetune_on: int | None = None) -> tuple[list[Phase], list[Phase]]:
    """The joint phases and the fine-tune phases (none without ``finetune_on``).

    Joint pretrain of backbone(s) + main heads, then joint two-branch training
    of everything, on round-robin batches; then shared core + branch
    ``finetune_on`` on that dataset alone.
    """
    sampler = RoundRobinSampler(datasets, seeded_rng(cfg.seed, 1), cfg.batch_size)
    per_epoch = sum(-(-len(ds) // cfg.batch_size) for ds in datasets)

    def step(batch, opt, **flags):
        return ml_step(batch, model, opt, **flags)

    def group_step(batches, opt, **flags):
        return ml_step_accumulated(batches, model, opt, **flags)[0]

    sgd, lr2 = partial(SGD, momentum=cfg.momentum), cfg.lr * cfg.lr_decay
    pre = {n: t for n, t in model.named().items() if ".gpm." not in n}
    main = ((group_step, lambda: [sampler.next_batch() for _ in datasets],
             cfg.epochs_main, max(1, per_epoch // len(datasets))) if cfg.accumulate
            else (step, sampler.next_batch, cfg.epochs_main, per_epoch))
    joint = [Phase(sgd(pre, cfg.lr), step, sampler.next_batch, cfg.epochs_pretrain, per_epoch,
                   main_only=True),
             Phase(sgd(model.named(), lr2), *main, gt_masks=cfg.gt_masks)]
    if finetune_on is None:
        return joint, []
    d, target = finetune_on, datasets[finetune_on - 1]
    stream = batch_stream(target, seeded_rng(cfg.seed, 2), cfg.batch_size, dataset_index=d)
    return joint, [Phase(sgd(model.step_params(d), lr2), step, stream, cfg.epochs_finetune,
                         -(-len(target) // cfg.batch_size), gt_masks=cfg.gt_masks)]


def train_mutual(datasets: list[Dataset], cfg: MlTrainConfig,
                 log: TrainLog | None = None, finetune_on: int | None = None,
                 model: MlModel | None = None) -> MlModel:
    """Every phase of ``mutual_phases`` in one run."""
    cfg.validate()
    if model is None:
        model = init_model(MlModel.init, cfg, [ds.taxonomy for ds in datasets])
    joint, finetune = mutual_phases(datasets, cfg, model, finetune_on)
    run_phases(joint + finetune, cfg.clip_norm, log, label=model.log_label)
    return model


def snapshot(named: dict[str, Tensor]) -> dict[str, bytes]:
    return {name: t.data.tobytes() for name, t in named.items()}


def audit_sharing(model: MlModel, datasets: list[Dataset], lr: float = 0.05,
                  batch_size: int = 2, seed: int = 0) -> tuple[bool, list[str]]:
    """Probe step per dataset: other branches must stay bitwise unchanged while
    at least one shared parameter moves. Returns (ok, report lines)."""
    report, ok = [], True
    rng = np.random.default_rng(seed)
    indices = range(1, len(model.branches) + 1)
    for d in indices:
        before = [snapshot(model.branch_named(dd)) for dd in indices]
        shared_before = snapshot(model.shared_named())
        batch = next(datasets[d - 1].batches(rng, batch_size, dataset_index=d))
        ml_step(batch, model, SGD(model.step_params(d), lr, momentum=0.0))
        shared_changed = snapshot(model.shared_named()) != shared_before
        moved = [dd for dd in indices
                 if dd != d and snapshot(model.branch_named(dd)) != before[dd - 1]]
        ok = ok and shared_changed and not moved
        report += [f"step on dataset {d}: branch {dd} parameters changed" for dd in moved]
        report.append(f"step on dataset {d}: shared changed={shared_changed}, "
                      f"other branches {'changed' if moved else 'untouched'}")
    return ok, report
