"""The names the benchmark in ``perfbench/`` patches must exist in grapy.

``perfbench/layers.py`` wraps some forty grapy functions where their callers
look them up, and ``perfbench/workloads.py`` patches the entry points it
counts operations on. A refactor that renames or drops one of them would
only show when the benchmark runs; these tests show it in the test suite.
So does a set-up that passes grapy a name or value it no longer takes.
Nothing here changes the benchmark.
"""

import json
import os
import re
import sys

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from grapy.tensor import precision  # noqa: E402

with open(os.path.join(PERFBENCH, "..", "BENCHMARK.json"), encoding="utf-8") as _fh:
    MEASURED = [w["name"] for w in json.load(_fh)["workloads"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_sets_up(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    with precision(wl.precision):
        assert wl.setup(1, str(tmp_path)) is not None


@pytest.mark.parametrize("name", MEASURED)
def test_one_repeat_of_each_measured_workload_passes_its_checks(name, tmp_path):
    rep, _, problems, _ = run.one_repeat(workloads.WORKLOADS[name], 1, str(tmp_path))
    assert problems == []
    assert rep.ops > 0 and rep.failed == 0


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


def test_set_up_mode_arguments_take_only_the_defaults():
    # TrainSingleA.setup and TrainMutualABC.setup pass pooling= and fresh_weights=
    from grapy.hierarchy import builtin_taxonomies
    from grapy.model import ModelParams
    from grapy.mutual import MlModel

    taxes = list(builtin_taxonomies())
    for init, tax in ((ModelParams.init, taxes[0]), (MlModel.init, taxes)):
        plain = init(0, tax, width=4, channels=4).named()
        passed = init(0, tax, width=4, channels=4, pooling="both", fresh_weights=False).named()
        assert {n: t.data.tobytes() for n, t in plain.items()} == {
            n: t.data.tobytes() for n, t in passed.items()}
        with pytest.raises(ValueError, match="pooling 'max' was removed"):
            init(0, tax, pooling="max")
        with pytest.raises(ValueError, match="fresh_weights was removed"):
            init(0, tax, fresh_weights=True)
