"""Arbitrary bytes at the file boundaries: netpbm images and manifests.

Each property runs a bounded, derandomized Hypothesis search. Any PPM/PGM
byte string reads as an array or raises ``ParseError`` at an offset inside
the file; any manifest bytes, next to sample files, load as a ``Dataset`` or
raise ``DatasetError``; ``grapy eval`` on such a manifest exits 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grapy import cli
from grapy.imageio import ParseError, read_pgm, read_ppm, write_pgm, write_ppm
from grapy.synthdata import Dataset, DatasetError, load_dataset

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
