import os
import sys

# One BLAS thread, as the benchmark and the ablation workers use; OpenBLAS
# reads these when it loads, so they are set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from grapy import tensor
from grapy.tensor import precision


@pytest.fixture(autouse=True)
def f64_default():
    """Tests run in 64-bit unless they opt into f32 themselves."""
    with precision("f64"):
        yield


@pytest.fixture
def attention_mats(monkeypatch):
    """The attention matrices ``pyramid.reason`` computes from now on, one per
    iteration, as copies of the row-softmaxed scores."""
    mats, row_softmax = [], tensor.row_softmax

    def recording(scores):
        attn = row_softmax(scores)
        mats.append(attn.copy())
        return attn

    monkeypatch.setattr(tensor, "row_softmax", recording)
    return mats


@pytest.fixture
def one_sample_manifest(tmp_path):
    """``write(h, w, manifest=...)``: writes one all-background h x w sample,
    ``s.ppm`` / ``s.pgm``, and the manifest bytes to ``tmp_path``; returns
    the manifest's path."""

    def write(h, w, manifest=b"taxonomy\tA\n0\ts.ppm\ts.pgm\n"):
        (tmp_path / "s.ppm").write_bytes(f"P6\n{w} {h}\n255\n".encode() + bytes(3 * h * w))
        (tmp_path / "s.pgm").write_bytes(f"P5\n{w} {h}\n255\n".encode() + bytes(h * w))
        (tmp_path / "manifest.txt").write_bytes(manifest)
        return tmp_path / "manifest.txt"

    return write
