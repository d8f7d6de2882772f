import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from grapy import pyramid
from grapy.tensor import set_default_dtype


@pytest.fixture(autouse=True)
def f64_default():
    """Tests run in 64-bit unless they opt into f32 themselves."""
    set_default_dtype(np.float64)
    yield
    set_default_dtype(np.float64)


@pytest.fixture
def attention_mats(monkeypatch):
    """The attention matrices ``pyramid.reason`` computes from now on, one per
    iteration, as copies of the row-softmaxed scores."""
    mats, softmax_rows = [], pyramid.softmax_rows

    def recording(scores):
        attn = softmax_rows(scores)
        mats.append(attn.data.copy())
        return attn

    monkeypatch.setattr(pyramid, "softmax_rows", recording)
    return mats
