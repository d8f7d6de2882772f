"""Confusion matrices, mean IoU and mean accuracy at any hierarchy level."""

from __future__ import annotations

import numpy as np

from .hierarchy import coarsen
from .model import ModelParams, forward
from .synthdata import Dataset
from .tensor import argmax_channel


class ConfusionMatrix:
    """K x K integer counts; rows are ground truth, columns are predictions."""

    def __init__(self, k: int, counts: np.ndarray | None = None):
        self.k = k
        self.counts = np.zeros((k, k), np.int64) if counts is None else counts

    def add(self, pred: np.ndarray, gt: np.ndarray) -> "ConfusionMatrix":
        if pred.shape != gt.shape:
            raise ValueError(f"prediction shape {pred.shape} != ground truth shape {gt.shape}")
        # combined in int64, as g * k + p would wrap in a narrow label dtype;
        # "safe" still rejects float labels with a TypeError
        p = pred.reshape(-1).astype(np.int64, casting="safe", copy=False)
        g = gt.reshape(-1).astype(np.int64, casting="safe", copy=False)
        for name, arr in (("prediction", p), ("ground truth", g)):
            if arr.size and (arr.min() < 0 or arr.max() >= self.k):
                raise ValueError(f"{name} labels out of range [0, {self.k})")
        flat = np.bincount(g * self.k + p, minlength=self.k * self.k)
        self.counts += flat.reshape(self.k, self.k)
        return self

    def merged(self, table: np.ndarray, k: int) -> "ConfusionMatrix":
        """The k x k matrix of both label axes mapped through ``table`` (old
        index -> new index in [0, k)): cell (i, j) sums the cells whose ground
        truth maps to i and prediction to j. Integer sums, so it holds exactly
        the counts of the mapped label maps."""
        onehot = (table[:, None] == np.arange(k)).astype(np.int64)
        return ConfusionMatrix(k, onehot.T @ self.counts @ onehot)

    def _diagonal_over(self, denom: np.ndarray) -> np.ndarray:
        """Each class's diagonal count over ``denom``; NaN where ``denom`` is 0."""
        out = np.full(self.k, np.nan)
        nz = denom > 0
        out[nz] = np.diag(self.counts).astype(np.float64)[nz] / denom[nz]
        return out

    def per_class_iou(self) -> np.ndarray:
        """IoU per class; NaN for classes absent from both pred and gt."""
        return self._diagonal_over(self.counts.sum(axis=1) + self.counts.sum(axis=0)
                                   - np.diag(self.counts))

    def per_class_recall(self) -> np.ndarray:
        """Recall per class; NaN for classes with no ground-truth pixels."""
        return self._diagonal_over(self.counts.sum(axis=1))

    def miou(self) -> float:
        """Mean IoU over classes present in prediction or ground truth."""
        return _mean_of_valid(self.per_class_iou(), "no class has any pixels; mIoU undefined")

    def mean_accuracy(self) -> float:
        """Mean per-class recall over classes with ground-truth support."""
        return _mean_of_valid(self.per_class_recall(),
                              "no class has ground-truth pixels; mean accuracy undefined")


def _mean_of_valid(values: np.ndarray, undefined: str) -> float:
    """The mean of the non-NaN ``values``; ValueError(``undefined``) if there are none."""
    valid = ~np.isnan(values)
    if not valid.any():
        raise ValueError(undefined)
    return float(values[valid].mean())


def _branches_of(params: ModelParams) -> list[str]:
    return ["main"] + (["gpm"] if params.gpm is not None else [])


def predictions(params: ModelParams, dataset: Dataset, main_only: bool = False):
    """Each sample's (H, W) label maps by branch, ``{"main": ..., "gpm": ...}`` ("gpm"
    with a pyramid and not ``main_only``), from one forward per sample; "main" is the
    forward's own argmax. Each is the argmax of a branch's logits: the softmax's
    argmax except where rounding ties two softmax values."""
    for sample in dataset.samples:
        out = forward(sample.image[None], params, dataset.taxonomy, main_only=main_only)
        preds = {"main": out.main_prediction()[0]}
        if out.y_hat is not None:
            preds["gpm"] = argmax_channel(out.y_hat)[0]
        yield preds


def confusions(params: ModelParams, dataset: Dataset) -> dict[str, dict[int, ConfusionMatrix]]:
    """Confusion matrices for every branch and level, counted from ``predictions``.

    Each image is counted once per branch, at the fine level 3. Every level-1
    or level-2 label is a many-to-one map of the fine ones, so those matrices
    are block sums of the fine one (``ConfusionMatrix.merged``): integer sums,
    equal to counting the coarsened maps image by image.
    """
    tax = dataset.taxonomy
    fine = {b: ConfusionMatrix(tax.k3) for b in _branches_of(params)}
    for sample, preds in zip(dataset.samples, predictions(params, dataset)):
        for b, pred in preds.items():
            fine[b].add(pred, sample.labels)
    # (the level-l label of every fine index, the level's class count)
    tables = {level: (coarsen(np.arange(tax.k3), tax, level), tax.k_at(level)) for level in (1, 2)}
    return {b: {1: cm.merged(*tables[1]), 2: cm.merged(*tables[2]), 3: cm}
            for b, cm in fine.items()}


def evaluate_report(params: ModelParams, dataset: Dataset):
    """Metrics for both branches at all three levels plus the raw matrices."""
    cms = confusions(params, dataset)
    report = {b: {level: (cms[b][level].miou(), cms[b][level].mean_accuracy())
                  for level in (1, 2, 3)}
              for b in cms}
    return report, cms


def report_text(report: dict, cms: dict, dataset: Dataset) -> str:
    """Human-readable metrics table with per-class rows at the finest level."""
    lines = [f"dataset {dataset.name} ({len(dataset)} samples, "
             f"taxonomy {dataset.taxonomy.dataset_name})"]
    width = max(len(n) for n in dataset.taxonomy.fine_labels)
    for branch, levels in report.items():
        lines.append(f"[{branch} branch]")
        cm = cms[branch][3]
        iou, rec = cm.per_class_iou(), cm.per_class_recall()
        for i, name in enumerate(dataset.taxonomy.fine_labels):
            f_iou = "   n/a" if np.isnan(iou[i]) else f"{iou[i]:.4f}"
            f_rec = "   n/a" if np.isnan(rec[i]) else f"{rec[i]:.4f}"
            lines.append(f"  {name:<{width}}  iou={f_iou}  recall={f_rec}")
        for level in (1, 2, 3):
            miou, macc = levels[level]
            lines.append(f"  level{level}: miou={miou:.4f} mean_accuracy={macc:.4f}")
    return "\n".join(lines) + "\n"


def report_kv(report: dict) -> str:
    """Machine-readable `key=value` lines."""
    lines = []
    for branch, levels in report.items():
        for level in (1, 2, 3):
            miou, macc = levels[level]
            lines.append(f"{branch}.level{level}.miou={miou:.6f}")
            lines.append(f"{branch}.level{level}.mean_accuracy={macc:.6f}")
    return "\n".join(lines) + "\n"
