import hashlib
import os

import numpy as np
import pytest

from grapy.checkpoint import load_checkpoint
from grapy.hierarchy import builtin_taxonomies, taxonomy_by_name
from grapy.model import ModelParams
from grapy.mutual import MlModel
from grapy.serialize import (load_ml_model, load_model, save_ml_model, save_model)


def test_single_model_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tax = taxonomy_by_name("B")
    params = ModelParams.init(rng, tax, width=4, channels=4, loss_weight=0.5)
    path = tmp_path / "m.ckpt"
    save_model(path, params, tax)
    loaded, meta = load_model(path)
    assert meta["kind"] == "single"
    assert meta["taxonomies"] == "B"
    assert loaded.loss_weight == 0.5
    orig = params.named()
    names = loaded.named()
    assert set(names) == set(orig)
    for name, t in names.items():
        assert t.data.tobytes() == orig[name].data.tobytes(), name
        assert t.requires_grad


def test_no_gpm_model_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    tax = taxonomy_by_name("A")
    params = ModelParams.init(rng, tax, width=4, channels=4, with_gpm=False)
    path = tmp_path / "m.ckpt"
    save_model(path, params, tax)
    loaded, _ = load_model(path)
    assert loaded.gpm is None


def test_ml_model_round_trip_and_manifest(tmp_path):
    taxes = list(builtin_taxonomies())
    model = MlModel.init(np.random.default_rng(3), taxes, width=4, channels=4)
    path = tmp_path / "ml.ckpt"
    save_ml_model(path, model)
    arrays, meta = load_checkpoint(path)
    assert meta["taxonomies"] == "A,B,C"  # the taxonomy manifest line
    assert meta["kind"] == "mutual"
    assert "shared.backbone.conv1.kernel" in arrays
    assert "shared.gpm.level1.q1" in arrays
    assert "branch2.gpm.level3.q1" in arrays
    assert "branch3.gpm.head" in arrays
    loaded, _ = load_ml_model(path)
    orig = model.named()
    names = loaded.named()
    assert set(names) == set(orig)
    for name, t in names.items():
        assert t.data.tobytes() == orig[name].data.tobytes(), name


def test_ml_loaded_model_still_shares_storage(tmp_path):
    taxes = list(builtin_taxonomies())
    model = MlModel.init(np.random.default_rng(4), taxes, width=4, channels=4)
    path = tmp_path / "ml.ckpt"
    save_ml_model(path, model)
    loaded, _ = load_ml_model(path)
    p1, p2 = loaded.branch_params(1), loaded.branch_params(2)
    assert p1.gpm.levels[1].q1 is p2.gpm.levels[1].q1
    assert p1.backbone is p2.backbone


def test_separate_backbone_ml_round_trip(tmp_path):
    taxes = list(builtin_taxonomies())
    model = MlModel.init(np.random.default_rng(5), taxes, width=4, channels=4,
                         share_backbone=False)
    path = tmp_path / "ml.ckpt"
    save_ml_model(path, model)
    loaded, meta = load_ml_model(path)
    assert meta["share_backbone"] == "0"
    assert not loaded.share_backbone
    assert not any(n.startswith("shared.backbone.") for n in loaded.shared_named())
    assert "branch1.backbone.conv1.kernel" in loaded.branch_named(1)


def test_kind_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(6)
    tax = taxonomy_by_name("A")
    params = ModelParams.init(rng, tax, width=4, channels=4)
    path = tmp_path / "m.ckpt"
    save_model(path, params, tax)
    from grapy.checkpoint import CheckpointError

    with pytest.raises(CheckpointError):
        load_ml_model(path)


def _level(prefix):
    return [f"{prefix}.q1", f"{prefix}.q2", f"{prefix}.out_proj"]


def _layout(share_backbone):
    """The record names of a mutual checkpoint of A, B, C, in file order."""
    backbone = [f"conv{i}.{p}" for i in (1, 2, 3) for p in ("kernel", "bias")]
    names = [f"shared.backbone.{n}" for n in backbone] if share_backbone else []
    names += _level("shared.gpm.level1") + _level("shared.gpm.level2")
    for d in (1, 2, 3):
        if not share_backbone:
            names += [f"branch{d}.backbone.{n}" for n in backbone]
        names += [f"branch{d}.main_head.kernel", f"branch{d}.main_head.bias",
                  *_level(f"branch{d}.gpm.level3"), f"branch{d}.gpm.head"]
    return names


@pytest.mark.parametrize("kw, digest", [
    (dict(), "db2edbc03e57f0e575d2c3ca2f3da4121e17c16bed83751e32561b1cf26c1052"),
    (dict(share_backbone=False), "9154767796f286a6ee1e6e3f689b8b9bd51e9784d85aa9c9c6db516bbc72ceb2"),
], ids=["shared", "separate"])
def test_ml_checkpoint_layout_pinned(tmp_path, kw, digest):
    # the names, their order and the bytes at a fixed seed: the bytes pin the
    # init's draw order (shared backbone, Levels 1-2, then per branch its
    # backbone, main head, Level 3, head)
    model = MlModel.init(np.random.default_rng(11), list(builtin_taxonomies()),
                         width=4, channels=4, **kw)
    path = tmp_path / "ml.ckpt"
    save_ml_model(path, model)
    arrays, _ = load_checkpoint(path)
    assert list(arrays) == list(model.named()) == _layout(kw.get("share_backbone", True))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_eval_checkpoint_round_trip_is_byte_identical(tmp_path):
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "eval_abc.ckpt")
    model, _ = load_ml_model(path)
    copy = tmp_path / "eval_abc.ckpt"
    save_ml_model(copy, model)
    with open(path, "rb") as fh:
        assert copy.read_bytes() == fh.read()
