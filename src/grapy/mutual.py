"""Cross-dataset mutual learning: one parser per dataset, sharing the coarse levels.

An ``MlModel`` is its per-dataset ``ModelParams``, built once. Every branch
holds the same tensors for pyramid Levels 1 and 2 and, by default, the same
backbone; its main head, Level-3 weights and fused prediction head are its
own, sized to its fine label count. A step on one dataset therefore updates
the shared tensors and that branch only. The multi-dataset objective is the
sum of per-dataset two-branch losses, taken across round-robin steps: one
batch of each dataset in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TextIO

import numpy as np

from .hierarchy import Taxonomy
from .model import (CLIP_NORM, SGD, BackboneParams, BaseTrainConfig, ConvLayer, ModelParams,
                    Phase, init_model, only_default_modes, run_phases, schedule, seeded_rng,
                    setting, train_step)
# the benchmark's tracer wraps ``clip_gradients`` and ``train_step`` here too
from .model import clip_gradients  # noqa: F401
from .pyramid import GCR_ITERATIONS, GpmParams, init_levels
from .synthdata import Dataset, RoundRobinSampler, SampleBatch
from .tensor import Tensor, uniform_init


@dataclass
class MlModel:
    branches: list[ModelParams]  # branch d - 1 parses dataset d
    taxonomies: list[Taxonomy]

    @classmethod
    def init(cls, seed_or_rng, taxonomies: list[Taxonomy], c_in: int = 3,
             width: int = 16, channels: int = 8, loss_weight: float = 1.0,
             iterations: int = GCR_ITERATIONS, share_backbone: bool = True,
             **modes) -> "MlModel":
        """Draws the shared backbone, Levels 1-2, then per branch its own
        backbone (unless shared), main head, Level 3 and head."""
        only_default_modes(**modes)
        if len(taxonomies) < 2:
            raise ValueError("mutual learning needs at least 2 datasets")
        names = [t.dataset_name for t in taxonomies]
        if len(set(names)) < len(names):
            raise ValueError(f"each dataset needs its own branch, got taxonomies {','.join(names)}")
        rng = np.random.default_rng(seed_or_rng)  # a Generator passes through
        levels = partial(init_levels, rng, channels)
        backbone = BackboneParams.init(rng, c_in, width, channels) if share_backbone else None
        coarse = levels((1, 2))
        branches = []
        for tax in taxonomies:
            bb = backbone if share_backbone else BackboneParams.init(rng, c_in, width, channels)
            main_head = ConvLayer.init(rng, 1, 1, channels, tax.k3)
            fine = levels((3,))
            head = uniform_init(rng, (1, 1, 4 * channels, tax.k3), 4 * channels)
            gpm = GpmParams({**coarse, **fine}, head, iterations)
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

    def log_label(self, batch: SampleBatch) -> str:
        """The log's dataset column: the batch's dataset."""
        return self.taxonomies[batch.dataset_index - 1].dataset_name


def ml_step(batch: SampleBatch, model: MlModel, opt: SGD, gt_masks: bool = False,
            main_only: bool = False, clip_norm: float = CLIP_NORM) -> float:
    """One update from a single-dataset batch; gradients reach shared + branch d."""
    d = batch.dataset_index
    return train_step(batch, model.branch_params(d), model.taxonomies[d - 1], opt,
                      gt_masks=gt_masks, main_only=main_only, clip_norm=clip_norm)


@dataclass
class MlTrainConfig(BaseTrainConfig):
    epochs_finetune: int = setting(10, "epochs on the --finetune dataset", bounds="[0, inf)")
    share_backbone: bool = setting(True, "one backbone for every dataset branch")


def mutual_phases(datasets: list[Dataset], cfg: MlTrainConfig, model: MlModel,
                  finetune_on: int | None = None) -> tuple[list[Phase], list[Phase]]:
    """``schedule``'s joint phases on round-robin batches, and the fine-tune phases
    (none without ``finetune_on``): shared core + branch ``finetune_on`` on that
    dataset alone, at the decayed lr."""
    sampler = RoundRobinSampler(datasets, seeded_rng(cfg.seed, 1), cfg.batch_size)
    per_epoch = sum(-(-len(ds) // cfg.batch_size) for ds in datasets)

    def step(batch, opt, **flags):
        return ml_step(batch, model, opt, **flags)

    joint = schedule(cfg, model.named(), (step, sampler.next_batch, cfg.epochs_pretrain,
                                          per_epoch),
                     (step, sampler.next_batch, cfg.epochs_main, per_epoch))
    if finetune_on is None:
        return joint, []
    d, target = finetune_on, datasets[finetune_on - 1]
    stream = RoundRobinSampler([target], seeded_rng(cfg.seed, 2), cfg.batch_size, first=d)
    return joint, [Phase(model.branch_params(d).named(), cfg.lr * cfg.lr_decay, step,
                         stream.next_batch, cfg.epochs_finetune,
                         -(-len(target) // cfg.batch_size), gt_masks=cfg.gt_masks)]


def train_mutual(datasets: list[Dataset], cfg: MlTrainConfig,
                 log: TextIO | None = None, finetune_on: int | None = None,
                 model: MlModel | None = None) -> MlModel:
    """Every phase of ``mutual_phases`` in one run."""
    cfg.validate()
    if model is None:
        model = init_model(MlModel.init, cfg, [ds.taxonomy for ds in datasets])
    joint, finetune = mutual_phases(datasets, cfg, model, finetune_on)
    run_phases(joint + finetune, cfg, log, label=model.log_label)
    return model


def snapshot(named: dict[str, Tensor]) -> dict[str, bytes]:
    return {name: t.data.tobytes() for name, t in named.items()}


def audit_sharing(model: MlModel, datasets: list[Dataset]) -> tuple[bool, list[str]]:
    """Probe step per dataset (2 images, lr 0.05): other branches must stay bitwise
    unchanged while at least one shared parameter moves. Returns (ok, report lines)."""
    report, ok = [], True
    rng = np.random.default_rng(0)
    indices = range(1, len(model.branches) + 1)
    for d in indices:
        before = [snapshot(model.branch_named(dd)) for dd in indices]
        shared_before = snapshot(model.shared_named())
        batch = next(datasets[d - 1].batches(rng, 2, dataset_index=d))
        ml_step(batch, model, SGD(model.branch_params(d).named(), 0.05, momentum=0.0))
        shared_changed = snapshot(model.shared_named()) != shared_before
        moved = [dd for dd in indices
                 if dd != d and snapshot(model.branch_named(dd)) != before[dd - 1]]
        ok = ok and shared_changed and not moved
        report += [f"step on dataset {d}: branch {dd} parameters changed" for dd in moved]
        report.append(f"step on dataset {d}: shared changed={shared_changed}, "
                      f"other branches {'changed' if moved else 'untouched'}")
    return ok, report
