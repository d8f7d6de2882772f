"""Model <-> checkpoint conversion. The container format lives in checkpoint.py."""

from __future__ import annotations

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .hierarchy import Taxonomy, taxonomy_by_name
from .model import BackboneParams, ConvLayer, ModelParams
from .mutual import DatasetBranch, MlModel, SharedCore
from .pyramid import GpmLevelParams, GpmParams
from .tensor import Tensor, get_default_dtype


def _t(arr: np.ndarray) -> Tensor:
    return Tensor(arr.astype(get_default_dtype()), requires_grad=True)


def save_model(path, params: ModelParams, taxonomy: Taxonomy) -> None:
    meta = {
        "kind": "single",
        "taxonomies": taxonomy.dataset_name,
        "loss_weight": repr(params.loss_weight),
    }
    if params.gpm is not None:
        meta["pooling"] = params.gpm.pooling
        meta["iterations"] = str(params.gpm.iterations)
        meta["levels"] = ",".join(str(l) for l in sorted(params.gpm.levels))
    arrays = {name: t.data for name, t in params.named().items()}
    save_checkpoint(path, arrays, meta)


def _build_backbone(arrays: dict[str, np.ndarray], prefix: str) -> BackboneParams:
    layers = []
    i = 1
    while f"{prefix}.conv{i}.kernel" in arrays:
        layers.append(ConvLayer(_t(arrays[f"{prefix}.conv{i}.kernel"]),
                                _t(arrays[f"{prefix}.conv{i}.bias"])))
        i += 1
    if not layers:
        raise CheckpointError(f"checkpoint has no {prefix}.conv1.kernel")
    return BackboneParams(layers)


def _build_level(arrays: dict[str, np.ndarray], prefix: str) -> GpmLevelParams:
    extra = []
    i = 2
    while f"{prefix}.q1_iter{i}" in arrays:
        extra.append((_t(arrays[f"{prefix}.q1_iter{i}"]), _t(arrays[f"{prefix}.q2_iter{i}"])))
        i += 1
    return GpmLevelParams(_t(arrays[f"{prefix}.q1"]), _t(arrays[f"{prefix}.q2"]),
                          _t(arrays[f"{prefix}.out_proj"]), extra)


def _build_gpm(arrays: dict[str, np.ndarray], prefix: str, meta: dict[str, str]) -> GpmParams:
    levels = {}
    for l in (1, 2, 3):
        if f"{prefix}.level{l}.q1" in arrays:
            levels[l] = _build_level(arrays, f"{prefix}.level{l}")
    return GpmParams(levels=levels, head=_t(arrays[f"{prefix}.head"]),
                     pooling=meta.get("pooling", "both"),
                     iterations=int(meta.get("iterations", "3")))


def load_model(path) -> tuple[ModelParams, dict[str, str]]:
    arrays, meta = load_checkpoint(path)
    return model_from_arrays(arrays, meta), meta


def model_from_arrays(arrays: dict[str, np.ndarray], meta: dict[str, str]) -> ModelParams:
    if meta.get("kind", "single") != "single":
        raise CheckpointError(f"expected a single-dataset checkpoint, got kind={meta.get('kind')!r}")
    backbone = _build_backbone(arrays, "backbone")
    main_head = ConvLayer(_t(arrays["main_head.kernel"]), _t(arrays["main_head.bias"]))
    gpm = _build_gpm(arrays, "gpm", meta) if "gpm.head" in arrays else None
    return ModelParams(backbone, main_head, gpm,
                       loss_weight=float(meta.get("loss_weight", "1.0")))


def save_ml_model(path, model: MlModel) -> None:
    meta = {
        "kind": "mutual",
        "taxonomies": model.taxonomy_names(),
        "loss_weight": repr(model.loss_weight),
        "pooling": model.pooling,
        "iterations": str(model.iterations),
        "share_backbone": "1" if model.share_backbone else "0",
    }
    arrays = {name: t.data for name, t in model.named().items()}
    save_checkpoint(path, arrays, meta)


def load_ml_model(path) -> tuple[MlModel, dict[str, str]]:
    arrays, meta = load_checkpoint(path)
    return ml_model_from_arrays(arrays, meta), meta


def ml_model_from_arrays(arrays: dict[str, np.ndarray], meta: dict[str, str]) -> MlModel:
    if meta.get("kind") != "mutual":
        raise CheckpointError(f"expected a mutual-learning checkpoint, got kind={meta.get('kind')!r}")
    share_backbone = meta.get("share_backbone", "1") == "1"
    shared = SharedCore(
        backbone=_build_backbone(arrays, "shared.backbone") if share_backbone else None,
        gpm_l1=_build_level(arrays, "shared.gpm.level1"),
        gpm_l2=_build_level(arrays, "shared.gpm.level2"),
    )
    names = meta.get("taxonomies", "").split(",")
    branches = []
    for d, tax_name in enumerate(names, start=1):
        prefix = f"branch{d}"
        branches.append(DatasetBranch(
            index=d,
            taxonomy=taxonomy_by_name(tax_name),
            backbone=None if share_backbone else _build_backbone(arrays, f"{prefix}.backbone"),
            main_head=ConvLayer(_t(arrays[f"{prefix}.main_head.kernel"]),
                                _t(arrays[f"{prefix}.main_head.bias"])),
            gpm_l3=_build_level(arrays, f"{prefix}.gpm.level3"),
            head=_t(arrays[f"{prefix}.gpm.head"]),
        ))
    return MlModel(shared, branches, loss_weight=float(meta.get("loss_weight", "1.0")),
                   pooling=meta.get("pooling", "both"),
                   iterations=int(meta.get("iterations", "3")))
