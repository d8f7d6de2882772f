"""Arbitrary bytes at the file boundaries: netpbm images, manifests,
checkpoints and config files.

Each property runs a bounded, derandomized Hypothesis search. Any PPM/PGM
byte string reads as an array or raises ``ParseError`` at an offset inside
the file; any manifest bytes, next to sample files, load as a ``Dataset`` or
raise ``DatasetError``; ``grapy eval`` on such a manifest exits 2. Any
checkpoint bytes load or raise ``CheckpointError``, and ``grapy eval`` on a
checkpoint broken one way exits 4 (or 2); any config file bytes resolve to
settings inside their declared ranges or raise ``ConfigError``.
"""

import argparse

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grapy import cli
from grapy.checkpoint import MAGIC, VERSION, CheckpointError, load_checkpoint
from grapy.hierarchy import taxonomy_by_name
from grapy.imageio import ParseError, read_pgm, read_ppm, write_pgm, write_ppm
from grapy.model import ModelParams
from grapy.mutual import MlModel
from grapy.synthdata import Dataset, DatasetError, load_dataset
from oracles import checkpoint_record

BOUNDED = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# netpbm files: well-formed headers over a few sizes with any pixel bytes,
# headers assembled from loose pieces (one number past int()'s 4300-digit
# limit), and raw bytes
_SEP = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# note\n"])
_NUMBER = st.integers(0, 6).map(lambda n: str(n).encode())
_HEADED = st.builds(
    lambda magic, s1, w, s2, h, s3, maxval, s4, pixels: b"".join(
        [magic, s1, w, s2, h, s3, maxval, s4, pixels]),
    st.sampled_from([b"P5", b"P6"]), _SEP, _NUMBER, _SEP, _NUMBER, _SEP,
    st.sampled_from([b"255", b"255", b"1", b"65535"]), _SEP | st.just(b""),
    st.binary(min_size=108, max_size=120) | st.binary(max_size=20))
_PIECE = st.one_of(
    st.sampled_from([b"P5", b"P6", b" ", b"\n", b"#", b"255", b"1" * 4301]),
    st.integers(0, 10**12).map(lambda n: str(n).encode()),
    st.binary(max_size=4),
)
_NETPBM = st.one_of(
    _HEADED, _HEADED,
    st.builds(lambda pieces: b"".join(pieces), st.lists(_PIECE, max_size=10)),
    st.binary(max_size=80),
)

# manifests: a header and lines over the files in ``sample_dir`` (mostly),
# lines of other fields and stray text, any line ends, stray bytes, raw bytes
_SAMPLE_LINE = st.builds(lambda *fields: "\t".join(fields), st.sampled_from(["0", "1", "x"]),
                         st.sampled_from(["s.ppm", "s.ppm", "t.ppm", "z.ppm", "missing.ppm"]),
                         st.sampled_from(["s.pgm", "s.pgm", "t.pgm", "z.pgm", "big.pgm", "s.ppm"]))
_FIELD = st.one_of(
    st.sampled_from(["0", "taxonomy", "A", "Z", "s.ppm", "s.pgm", "manifest.txt", ".", ""]),
    st.text(max_size=6),
)
_LINE = st.one_of(_SAMPLE_LINE, _SAMPLE_LINE,
                  st.builds(lambda fields, sep: sep.join(fields), st.lists(_FIELD, max_size=4),
                            st.sampled_from(["\t", " "])))
_HEADER = st.sampled_from(["taxonomy\tA"] * 4 + ["taxonomy\tB", "taxonomy\tZ", "taxonomy", ""])
_TEXT = st.builds(lambda head, lines, end: end.join([head, *lines]), _HEADER,
                  st.lists(_LINE, max_size=4), st.sampled_from(["\n", "\r\n", "\r"]))
_MANIFEST = st.one_of(
    _TEXT.map(lambda t: t.encode("utf-8")),
    _TEXT.map(lambda t: t.encode("utf-8")),
    st.builds(lambda t, at, junk: (t.encode("utf-8")[:at] + junk + t.encode("utf-8")[at:]),
              _TEXT, st.integers(0, 60), st.binary(min_size=1, max_size=3)),
    st.binary(max_size=80),
)


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    """4x4 samples s and t (t one row taller), a 0x0 pair z, and big.pgm with label 11."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    for stem, (h, w) in (("s", (4, 4)), ("t", (5, 4))):
        write_ppm(root / f"{stem}.ppm", rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
        write_pgm(root / f"{stem}.pgm", rng.integers(0, 7, (h, w)))
    write_pgm(root / "big.pgm", np.full((4, 4), 11))
    (root / "z.ppm").write_bytes(b"P6\n0 0\n255\n")
    (root / "z.pgm").write_bytes(b"P5\n0 0\n255\n")
    return root


@BOUNDED
@given(blob=_NETPBM)
def test_netpbm_bytes_read_or_raise_parse_error_inside_the_file(blob, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.netpbm"
    path.write_bytes(blob)
    for read, channels in ((read_pgm, ()), (read_ppm, (3,))):
        try:
            arr = read(path)
        except ParseError as exc:
            assert 0 <= exc.offset <= len(blob)
        else:
            assert arr.dtype == np.uint8 and arr.shape[2:] == channels


@BOUNDED
@given(blob=_MANIFEST)
def test_manifest_bytes_load_or_raise_dataset_error(blob, sample_dir):
    manifest = sample_dir / "manifest.txt"
    manifest.write_bytes(blob)
    try:
        loaded = load_dataset(manifest)
    except DatasetError:
        return
    assert isinstance(loaded, Dataset) and len(loaded) >= 1


@BOUNDED
@given(blob=_MANIFEST)
def test_eval_on_manifest_bytes_exits_2(blob, sample_dir):
    # the checkpoint is absent: a manifest that loads still ends in exit 2
    manifest = sample_dir / "manifest.txt"
    manifest.write_bytes(blob)
    code = cli.main(["eval", "--data", str(manifest), "--ckpt", str(sample_dir / "absent.ckpt")])
    assert code == 2


# checkpoints: a usable single-model A checkpoint and a mutual A,B one (width
# 2, two channels), then copies of them broken one way each
_HEADER_BYTES = MAGIC + VERSION.to_bytes(4, "little")
_META = {"kind": "single", "taxonomies": "A", "loss_weight": "1.0", "pooling": "both",
         "iterations": "3", "levels": "1,2,3"}
_ARRAYS = {name: t.data.astype(np.float64) for name, t in
           ModelParams.init(0, taxonomy_by_name("A"), width=2, channels=2).named().items()}
_ML_META = {"kind": "mutual", "taxonomies": "A,B", "loss_weight": "1.0", "pooling": "both",
            "iterations": "3", "share_backbone": "1"}
_ML_ARRAYS = {name: t.data.astype(np.float64) for name, t in MlModel.init(
    0, [taxonomy_by_name("A"), taxonomy_by_name("B")], width=2, channels=2).named().items()}


def _encode(meta: dict[str, str], arrays: dict[str, np.ndarray]) -> bytes:
    return _HEADER_BYTES + b"".join(
        [checkpoint_record(f"meta.{key}", list(text.encode("utf-8"))) for key, text in meta.items()]
        + [checkpoint_record(name, values) for name, values in arrays.items()])


_CKPT = _encode(_META, _ARRAYS)
_ML_CKPT = _encode(_ML_META, _ML_ARRAYS)
_SINGLE, _MUTUAL = (_META, _ARRAYS), (_ML_META, _ML_ARRAYS)
_NAMES = sorted(_ARRAYS)


def _with_value(name, index, value):
    arrays = {n: a.copy() for n, a in _ARRAYS.items()}
    arrays[name].flat[index % arrays[name].size] = value
    return _encode(_META, arrays)


def _bad(base, key, texts):
    """The checkpoint of ``base`` (meta, arrays) with ``meta[key]`` set to one of ``texts``."""
    meta, arrays = base
    return st.sampled_from(texts).map(lambda text: _encode({**meta, key: text}, arrays))


def _flattened(name):
    return _encode(_META, {**_ARRAYS, name: _ARRAYS[name].reshape(-1)})


def _header_byte(at, byte):
    blob = bytearray(_CKPT)
    blob[at] = byte if byte != blob[at] else (byte + 1) % 256
    return bytes(blob)


_BAD_META = st.one_of(
    _bad(_SINGLE, "iterations", ["0", "-1", "three", "", "1e3"]),
    _bad(_SINGLE, "pooling", ["median", "", "Both", "ave", "max"]),
    _bad(_SINGLE, "levels", ["1,1", "4", "", "0,1", "x"]),
    _bad(_SINGLE, "loss_weight", ["-1", "nan", "inf", "x", ""]),
    _bad(_SINGLE, "taxonomies", ["B", "Z", "", "A,A", ",A"]),
    _bad(_SINGLE, "kind", ["mutual", "", "other"]),
    _bad(_MUTUAL, "share_backbone", ["true", "2", "", "yes", "0"]),
    _bad(_MUTUAL, "pooling", ["ave", "max", ""]),
    _bad(_MUTUAL, "taxonomies", ["A", "A,A", "B,A"]),
    _bad(_MUTUAL, "kind", ["single", ""]),
)
_APPENDED = st.one_of(
    st.builds(checkpoint_record, st.sampled_from(_NAMES + ["meta.kind", "meta.taxonomies"]),
              st.lists(st.floats(0, 255), max_size=4)),  # a repeated record name
    st.builds(checkpoint_record, st.sampled_from(["gpm.extra", "gpm.level1.q1_iter2",
                                                  "backbone.conv4.kernel", "x"]),
              st.lists(st.floats(-2, 2), max_size=4)),  # a parameter the layout lacks
    st.builds(checkpoint_record, st.just("meta.note"),
              st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4)
              .filter(lambda v: not all(0 <= x <= 255 and x == int(x) for x in v))),
    st.binary(min_size=1, max_size=24),
)
# every one of these is unusable as a model
_BROKEN_CKPT = st.one_of(
    st.binary(max_size=80),
    st.binary(min_size=1, max_size=60).map(lambda tail: _HEADER_BYTES + tail),
    st.integers(0, len(_CKPT) - 1).map(lambda cut: _CKPT[:cut]),
    _APPENDED.map(lambda record: _CKPT + record),
    st.builds(_with_value, st.sampled_from(_NAMES), st.integers(0, 10**6),
              st.sampled_from([np.nan, np.inf, -np.inf])),
    _BAD_META,
    st.lists(st.floats(-2, 2), max_size=4).map(  # a removed fresh-weight pair's record
        lambda v: _ML_CKPT + checkpoint_record("shared.gpm.level1.q1_iter2", v)),
    st.sampled_from([n for n in _NAMES if _ARRAYS[n].ndim > 1]).map(_flattened),
    st.builds(_header_byte, st.integers(0, 7), st.integers(0, 255)),
)
_FLIPPED = st.builds(lambda at, byte: _CKPT[:at] + bytes([byte]) + _CKPT[at + 1:],
                     st.integers(0, len(_CKPT) - 1), st.integers(0, 255))


@pytest.fixture(scope="module")
def eval_manifest(tmp_path_factory):
    """One 4x4 A sample and its manifest, for ``grapy eval``."""
    root = tmp_path_factory.mktemp("fuzz_eval")
    rng = np.random.default_rng(1)
    write_ppm(root / "s.ppm", rng.integers(0, 256, (4, 4, 3), dtype=np.uint8))
    write_pgm(root / "s.pgm", rng.integers(0, 7, (4, 4)))
    (root / "manifest.txt").write_text("taxonomy\tA\n0\ts.ppm\ts.pgm\n", encoding="utf-8")
    return root / "manifest.txt"


@pytest.mark.parametrize("blob", [_CKPT, _ML_CKPT], ids=["single", "mutual"])
def test_the_unbroken_checkpoint_evaluates(blob, eval_manifest, tmp_path):
    path = tmp_path / "base.ckpt"
    path.write_bytes(blob)
    assert cli.main(["eval", "--data", str(eval_manifest), "--ckpt", str(path)]) == 0


@BOUNDED
@given(blob=st.one_of(_BROKEN_CKPT, _FLIPPED, st.just(_CKPT)))
def test_checkpoint_bytes_load_or_raise_checkpoint_error(blob, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        arrays, meta = load_checkpoint(path)
    except CheckpointError:
        return
    assert all(np.isfinite(a).all() for a in arrays.values())
    assert all(isinstance(text, str) for text in meta.values())


@BOUNDED
@given(blob=_BROKEN_CKPT)
def test_eval_on_a_broken_checkpoint_exits_4_or_2(blob, eval_manifest, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz_eval.ckpt"
    path.write_bytes(blob)
    assert cli.main(["eval", "--data", str(eval_manifest), "--ckpt", str(path)]) in (2, 4)


# config files: `key = value` lines over the settings' keys (some dashed,
# some unknown) and values in and out of their ranges, comments, blank and
# malformed lines, any line ends, stray bytes, raw bytes
_CONFIG_CLASSES = tuple(cli.build_parser().parse_args(argv).settings for argv in (
    ["train", "--data", "d", "--out", "o"],
    ["train-ml", "--data-root", "r", "--datasets", "A,B", "--out", "o"]))
_KEYS = sorted({k for classes in _CONFIG_CLASSES for f in cli._settings(*classes)
                for k in (cli._key(f), *f.metadata["setting"].aliases)})
_KEY = st.one_of(st.sampled_from(_KEYS), st.sampled_from(_KEYS).map(lambda k: k.replace("_", "-")),
                 st.sampled_from(["nope", "", "limit", "gpm levels", "#lr"]))
_VALUE = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "0.5", "1e999", "nan", "inf", "-0", "yes", "off",
                     "maybe", "both", "ave", "max", "f32", "f64", "1,2", "3,3", "2,3", "",
                     "1" * 5000]),
    st.text(max_size=5),
)
_ASSIGNMENT = st.builds(lambda k, sp, v: f"{k}{sp}={sp}{v}", _KEY,
                        st.sampled_from(["", " ", "\t"]), _VALUE)
_CONFIG_LINE = st.one_of(_ASSIGNMENT, _ASSIGNMENT,
                         st.sampled_from(["", "# comment", "  ", "lr", "= 1", "lr == 1"]))
_CONFIG_TEXT = st.builds(lambda lines, end: end.join(lines), st.lists(_CONFIG_LINE, max_size=6),
                         st.sampled_from(["\n", "\r\n", "\r"]))
_CONFIG = st.one_of(
    _CONFIG_TEXT.map(lambda t: t.encode("utf-8")),
    _CONFIG_TEXT.map(lambda t: t.encode("utf-8")),
    st.builds(lambda t, at, junk: (t.encode("utf-8")[:at] + junk + t.encode("utf-8")[at:]),
              _CONFIG_TEXT, st.integers(0, 60), st.binary(min_size=1, max_size=3)),
    st.binary(max_size=80),
)


@BOUNDED
@given(blob=_CONFIG)
def test_config_bytes_resolve_in_range_or_raise_config_error(blob, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(blob)
    for classes in _CONFIG_CLASSES:
        try:  # a config built out of range would raise ValueError from __post_init__
            cli.resolve_settings(argparse.Namespace(config=str(path)), *classes)
        except cli.ConfigError:
            continue
