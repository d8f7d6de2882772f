import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from grapy import tensor
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
    mats, row_softmax = [], tensor.row_softmax

    def recording(scores):
        attn = row_softmax(scores)
        mats.append(attn.copy())
        return attn

    monkeypatch.setattr(tensor, "row_softmax", recording)
    return mats
