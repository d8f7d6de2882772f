"""The names the benchmark in ``perfbench/`` patches must exist in grapy.

``perfbench/layers.py`` wraps some forty grapy functions where their callers
look them up, and ``perfbench/workloads.py`` patches the entry points it
counts operations on. A refactor that renames or drops one of them would
only show when the benchmark runs; these tests show it in the test suite.
Nothing here changes the benchmark.
"""

import os
import re
import sys

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def test_layers_instrument_wraps_existing_names_and_restores():
    tracer = Tracer()
    originals = None
    try:
        layers.instrument(tracer)  # AttributeError / KeyError if a name is gone
        originals = [(owner, attr, fn) for owner, attr, fn in tracer._saved]
        assert originals
    finally:
        tracer.restore()
    for owner, attr, fn in originals:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is fn, f"{owner}.{attr} not restored"


def _patched_by_workloads():
    src = open(os.path.join(PERFBENCH, "workloads.py"), encoding="utf-8").read()
    pairs = re.findall(r'record_ops\(patcher, (\w+), "(\w+)"', src)
    pairs += re.findall(r'patcher\.patch\((\w+), "(\w+)"', src)
    return pairs


def test_every_name_workloads_patch_exists():
    pairs = _patched_by_workloads()
    names = {f"{owner}.{attr}" for owner, attr in pairs}
    assert {"metrics.forward", "mutual.ml_step", "model.train_step",
            "gradcheck.central_diff"} <= names
    for owner, attr in pairs:
        assert callable(getattr(getattr(workloads, owner), attr)), f"{owner}.{attr}"


def test_traced_training_step_fills_the_counters():
    from grapy.hierarchy import taxonomy_by_name
    from grapy.model import ModelParams
    from grapy.synthdata import SampleBatch, SceneSpec, generate
    from grapy.tensor import SGD

    tax = taxonomy_by_name("A")
    samples = generate(SceneSpec(seed=5, image_size=(16, 16)), tax, 2)
    batch = SampleBatch([s.image for s in samples], [s.labels for s in samples])
    params = ModelParams.init(np.random.default_rng(0), tax, width=4, channels=4)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        workloads.model.train_step(batch, params, tax, SGD(params.named(), lr=0.0))
    finally:
        tracer.restore()
    rows = tracer.summary()
    assert rows["model.train_step"]["calls"] == 1
    assert rows["kernels.conv2d_forward"]["calls"] > 0
    assert tracer.counters["tensor.tape_entries"] > 0
    for level in (1, 2, 3):
        assert tracer.counters[f"nodes.l{level}"] == 2 * tax.k_at(level)
