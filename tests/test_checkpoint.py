import os

import numpy as np
import pytest

from grapy.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from grapy.hierarchy import taxonomy_by_name
from grapy.model import ModelParams
from grapy.serialize import load_model, save_model
from grapy.tensor import precision
from oracles import checkpoint_record


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "backbone.conv1.kernel": rng.normal(size=(3, 3, 3, 8)),
        "backbone.conv1.bias": rng.normal(size=8),
        "scalarish": rng.normal(size=(1,)),
    }
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, arrays, meta={"taxonomies": "A,B,C"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"taxonomies": "A,B,C"}
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == np.float64
        assert loaded[name].tobytes() == arrays[name].tobytes()


def test_file_level_idempotence(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {"w": rng.normal(size=(4, 5))}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays, meta={"kind": "single"})
    loaded, meta = load_checkpoint(p1)
    save_checkpoint(p2, loaded, meta=meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_and_header(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": np.zeros(2)})
    blob = path.read_bytes()
    assert blob[:4] == MAGIC == b"GRPY"
    assert int.from_bytes(blob[4:8], "little") == 1


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": np.zeros(8)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_meta_name_collision_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "p.ckpt", {"meta.evil": np.zeros(1)})


def test_f32_params_survive_f64_container(tmp_path):
    # every float32 is exactly representable in float64, so the cast chain
    # f32 -> f64 file -> f32 is lossless
    with precision("f32"):
        rng = np.random.default_rng(2)
        tax = taxonomy_by_name("A")
        params = ModelParams.init(rng, tax, width=4, channels=4)
        path = tmp_path / "m.ckpt"
        save_model(path, params, tax)
        loaded, meta = load_model(path)
        assert meta["taxonomies"] == "A"
        orig = params.named()
        for name, t in loaded.named().items():
            assert t.data.dtype == np.float32
            assert t.data.tobytes() == orig[name].data.tobytes()


def test_model_checkpoint_names(tmp_path):
    rng = np.random.default_rng(3)
    tax = taxonomy_by_name("A")
    params = ModelParams.init(rng, tax, width=4, channels=4)
    path = tmp_path / "m.ckpt"
    save_model(path, params, tax)
    arrays, _ = load_checkpoint(path)
    expected = {
        "backbone.conv1.kernel", "backbone.conv1.bias",
        "backbone.conv2.kernel", "backbone.conv2.bias",
        "backbone.conv3.kernel", "backbone.conv3.bias",
        "main_head.kernel", "main_head.bias",
        "gpm.level1.q1", "gpm.level1.q2", "gpm.level1.out_proj",
        "gpm.level2.q1", "gpm.level2.q2", "gpm.level2.out_proj",
        "gpm.level3.q1", "gpm.level3.q2", "gpm.level3.out_proj",
        "gpm.head",
    }
    assert set(arrays) == expected


def test_failed_save_leaves_the_old_file_and_no_stray_file(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)}, meta={"kind": "single"})
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match="meta.x"):
        save_checkpoint(path, {"w": np.zeros(4), "meta.x": np.zeros(1)})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.ckpt"]


@pytest.mark.parametrize("arrays,meta,name", [({"w": np.arange(3.0)}, None, "w"),
                                             ({}, {"kind": "single"}, "meta.kind")],
                         ids=["parameter", "meta"])
def test_duplicate_record_name_rejected_at_its_offset(tmp_path, arrays, meta, name):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, arrays, meta)
    blob = path.read_bytes()
    path.write_bytes(blob + blob[8:])  # the file's one record, twice
    with pytest.raises(CheckpointError, match=f"duplicate record name '{name}' at offset {len(blob)}"):
        load_checkpoint(path)


def test_encoder_oracle_matches_the_writer(tmp_path):
    path = tmp_path / "p.ckpt"
    w = np.arange(6.0).reshape(2, 3)
    save_checkpoint(path, {"w": w}, meta={"kind": "single"})
    assert path.read_bytes() == (MAGIC + (1).to_bytes(4, "little")
                                 + checkpoint_record("meta.kind", list(b"single"))
                                 + checkpoint_record("w", w))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_parameter_rejected_naming_it(tmp_path, bad):
    path = tmp_path / "p.ckpt"
    w = np.arange(4.0)
    w[2] = bad
    save_checkpoint(path, {"v": np.zeros(2)}, meta={"kind": "single"})
    path.write_bytes(path.read_bytes() + checkpoint_record("w", w))
    with pytest.raises(CheckpointError, match="parameter 'w' in the record at offset .* NaN or Inf"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_refuses_a_nonfinite_parameter_and_keeps_the_old_file(tmp_path, bad):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": np.zeros(2)})
    old = path.read_bytes()
    with pytest.raises(CheckpointError, match="parameter 'w' holds NaN or Inf"):
        save_checkpoint(path, {"v": np.zeros(2), "w": np.array([1.0, bad])})
    assert path.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["p.ckpt"]


@pytest.mark.parametrize("codes", [[300.0] * 3, [65.5], [np.nan], [-1.0], [np.inf], [65.0, 256.0]],
                         ids=["above_255", "fraction", "nan", "negative", "inf", "second_code"])
def test_meta_codes_that_are_not_bytes_rejected_at_their_offset(tmp_path, codes):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": np.zeros(2)}, meta={"kind": "single"})
    blob = path.read_bytes()
    path.write_bytes(blob + checkpoint_record("meta.note", codes))
    with pytest.raises(CheckpointError,
                       match=f"'meta.note' in the record at offset {len(blob)} .* not bytes"):
        load_checkpoint(path)


def test_meta_byte_codes_load_as_utf8(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": np.zeros(2)})
    path.write_bytes(path.read_bytes() + checkpoint_record("meta.note", [0.0, 195.0, 169.0]))
    assert load_checkpoint(path)[1] == {"note": "\x00\u00e9"}


@pytest.mark.parametrize("shape", [(0, 2**62, 2**62), (0,) * 65], ids=["too_large", "rank_65"])
def test_extents_numpy_cannot_hold_rejected(tmp_path, shape):
    # a zero extent makes the record hold no values, whatever the other extents
    head = b"".join([(1).to_bytes(4, "little"), b"w", len(shape).to_bytes(4, "little"),
                     *(ext.to_bytes(8, "little") for ext in shape)])
    path = tmp_path / "p.ckpt"
    path.write_bytes(MAGIC + (1).to_bytes(4, "little") + head)
    with pytest.raises(CheckpointError, match="of 'w' at offset 17 make no array"):
        load_checkpoint(path)
