"""Model <-> checkpoint conversion. The container format lives in checkpoint.py.

Loading builds the layout that the metadata and the backbone's kernel shapes
imply, then fills it: a checkpoint must hold exactly its parameter names, each
with the shape the layout gives it, and metadata inside the ranges the
training settings declare, or it raises CheckpointError.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .hierarchy import Taxonomy, taxonomy_by_name
from .model import ModelParams, Setting, TrainConfig, parse_levels
from .mutual import MlModel
from .tensor import get_default_dtype


_SETTINGS = {f.name: f.metadata["setting"] for f in fields(TrainConfig) if "setting" in f.metadata}
# layout keys that are no training setting: every format version records "both"
# (mean and max) pooling, and mutual checkpoints whether the backbone is shared
_SETTINGS.update(pooling=Setting("node pooling", choices=("both",)),
                 share_backbone=Setting("one backbone", choices=("0", "1")))


def _meta(meta: dict[str, str], key: str, default: str, parse=str):
    """``meta[key]`` parsed, and checked against the range of the setting of
    that name, if there is one."""
    try:
        value = parse(meta.get(key, default))
        if key in _SETTINGS:
            _SETTINGS[key].check(value)
        return value
    except ValueError as exc:
        raise CheckpointError(f"bad meta.{key}: {meta.get(key)!r} ({exc})") from None


def _backbone_dims(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, int]:
    """c_in, width and channels, read off the first and last backbone kernels;
    width and channels must lie in the ranges of their settings."""
    conv1, conv3 = f"{prefix}.conv1.kernel", f"{prefix}.conv3.kernel"
    for name in (conv1, conv3):
        if name not in arrays or arrays[name].ndim != 4:
            raise CheckpointError(f"{name} is missing or not a rank-4 conv kernel")
    dims = {"c_in": arrays[conv1].shape[2], "width": arrays[conv1].shape[3],
            "channels": arrays[conv3].shape[3]}
    for key, name in (("width", conv1), ("channels", conv3)):
        try:
            _SETTINGS[key].check(dims[key])
        except ValueError as exc:
            raise CheckpointError(f"{name}: {key} {exc}") from None
    return dims


def _common(meta: dict[str, str]) -> dict:
    """The layout settings single and mutual checkpoints share."""
    _meta(meta, "pooling", "both")  # checked, not used: nodes always pool mean and max
    return dict(loss_weight=_meta(meta, "loss_weight", "1.0", float),
                iterations=_meta(meta, "iterations", "3", int))


def _filled(init, arrays: dict[str, np.ndarray], *args, **kw):
    """The layout ``init(seed, *args, **kw)`` builds, holding ``arrays``, which
    must name exactly its parameters with exactly their shapes, and whose
    values must fit the default float width."""
    try:
        model = init(0, *args, **kw)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    named = model.named()
    unexpected = sorted(set(arrays) - set(named))
    if unexpected:
        raise CheckpointError(f"unexpected parameter {unexpected[0]}")
    for name, t in named.items():
        if name not in arrays:
            raise CheckpointError(f"missing parameter {name}")
        if arrays[name].shape != t.shape:
            raise CheckpointError(f"parameter {name} has shape {arrays[name].shape}, "
                                  f"its layout implies {t.shape}")
        with np.errstate(over="ignore"):
            t.data = arrays[name].astype(get_default_dtype())
        if not np.isfinite(t.data).all():
            worst = float(np.abs(arrays[name]).max())
            raise CheckpointError(f"the record of parameter {name!r} holds {worst:g}, beyond the "
                                  f"{t.data.dtype} range of --precision f32; load it under f64")
    return model


def _layout_meta(kind: str, taxonomies: list[Taxonomy], params: ModelParams) -> dict[str, str]:
    meta = {"kind": kind, "taxonomies": ",".join(t.dataset_name for t in taxonomies),
            "loss_weight": repr(params.loss_weight)}
    if params.gpm is not None:
        meta["pooling"] = "both"
        meta["iterations"] = str(params.gpm.iterations)
    return meta


def save_model(path, params: ModelParams, taxonomy: Taxonomy) -> None:
    meta = _layout_meta("single", [taxonomy], params)
    if params.gpm is not None:
        meta["levels"] = ",".join(str(l) for l in sorted(params.gpm.levels))
    save_checkpoint(path, {name: t.data for name, t in params.named().items()}, meta)


def load_model(path) -> tuple[ModelParams, dict[str, str]]:
    arrays, meta = load_checkpoint(path)
    return model_from_arrays(arrays, meta), meta


def model_from_arrays(arrays: dict[str, np.ndarray], meta: dict[str, str]) -> ModelParams:
    if meta.get("kind", "single") != "single":
        raise CheckpointError(f"expected a single-dataset checkpoint, got kind={meta.get('kind')!r}")
    return _filled(ModelParams.init, arrays, _meta(meta, "taxonomies", "", taxonomy_by_name),
                   **_backbone_dims(arrays, "backbone"), **_common(meta),
                   with_gpm="gpm.head" in arrays,
                   levels=_meta(meta, "levels", "1,2,3", parse_levels))


def save_ml_model(path, model: MlModel) -> None:
    meta = _layout_meta("mutual", model.taxonomies, model.branches[0])
    meta["share_backbone"] = "1" if model.share_backbone else "0"
    save_checkpoint(path, {name: t.data for name, t in model.named().items()}, meta)


def load_ml_model(path) -> tuple[MlModel, dict[str, str]]:
    arrays, meta = load_checkpoint(path)
    return ml_model_from_arrays(arrays, meta), meta


def ml_model_from_arrays(arrays: dict[str, np.ndarray], meta: dict[str, str]) -> MlModel:
    if meta.get("kind") != "mutual":
        raise CheckpointError(f"expected a mutual-learning checkpoint, got kind={meta.get('kind')!r}")
    share = _meta(meta, "share_backbone", "1") == "1"
    taxonomies = _meta(meta, "taxonomies", "", lambda raw: [taxonomy_by_name(n)
                                                            for n in raw.split(",")])
    return _filled(MlModel.init, arrays, taxonomies, share_backbone=share,
                   **_common(meta),
                   **_backbone_dims(arrays, "shared.backbone" if share else "branch1.backbone"))


def load_parser(path, taxonomy: Taxonomy, channels: int) -> ModelParams:
    """The parser of ``taxonomy``'s labels in the single or mutual checkpoint at
    ``path``, for images of ``channels`` channels; a CheckpointError names ``path``."""
    try:
        arrays, meta = load_checkpoint(path)
        names = meta.get("taxonomies", "").split(",")
        if taxonomy.dataset_name not in names:
            raise CheckpointError(f"checkpoint is bound to taxonomies {names} "
                                  f"but the dataset manifest names {taxonomy.dataset_name!r}")
        if meta.get("kind", "single") == "single":
            params = model_from_arrays(arrays, meta)
        else:
            params = ml_model_from_arrays(arrays, meta).branch_for(taxonomy)
        c_in = params.backbone.layers[0].kernel.shape[2]
        if c_in != channels:
            raise CheckpointError(f"the backbone takes {c_in}-channel images, "
                                  f"the dataset's have {channels} channels")
        return params
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
