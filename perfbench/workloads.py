"""The four workloads: set-up, the timed call into grapy, and output checks.

Each workload drives the entry point its CLI command calls, as a closed loop
with one client: one process, every training step or eval image waits for
the previous one. A repeat is one ``setup`` (timed as set-up), one ``run``
(the timed phase) and one ``check`` (outside any timing).

An operation is a training step, an eval image or a gradient suite. The
only marks inside the timed phase are latency starts: of a two-branch
training step, an image or, for gradcheck, a finite-difference probe. A
latency runs from its start to the next start (the last ends with the timed
phase), so waiting for data and bookkeeping count. Main-only pretrain steps
take under half as long as two-branch steps and come first, so they get no
start: step percentiles over both modes would sit on the edge between them.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from grapy import gradcheck, hierarchy, metrics, model, mutual, serialize, synthdata

IMAGE_SIZE = (32, 32)
BATCH = 4
EVAL_CKPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "eval_abc.ckpt")
# test-split sizes of ``grapy gen-data``: A 50, B 100, C 100
TEST_SIZES = {"A": 50, "B": 100, "C": 100}
LAST_STEPS = 50  # final_loss averages the losses of this many last training steps


@dataclass
class Repeat:
    """What one timed phase produced."""

    setup_s: float | None = None  # None when the repeat reused an earlier set-up
    wall_s: float = 0.0
    cpu_s: float = 0.0
    starts: list[float] = field(default_factory=list)  # each operation's start time
    latencies_ms: np.ndarray | None = None
    op_values: list = field(default_factory=list)
    ops: int = 0  # operations started, for failure accounting
    images: int = 0
    failed: int = 0
    error: str = ""
    outputs: dict = field(default_factory=dict)

    def cut(self, end: float) -> None:
        self.latencies_ms = np.diff(np.array([*self.starts, end])) * 1e3


def child_seed(seed: int, *key: int) -> int:
    """The per-split seed ``grapy gen-data --seed`` uses, so sample i is the same."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0])


def make_split(seed: int, name: str, split: int, count: int, workdir: str):
    """Generate ``count`` samples of dataset ``name``, write PPM/PGM, load them back."""
    tax = hierarchy.taxonomy_by_name(name)
    spec = synthdata.SceneSpec(seed=child_seed(seed, "ABC".index(name), split),
                               image_size=IMAGE_SIZE)
    samples = synthdata.generate(spec, tax, count)
    manifest = synthdata.save_dataset(os.path.join(workdir, name, ("train", "test")[split]),
                                      synthdata.Dataset(name, tax, samples))
    return synthdata.load_dataset(manifest)


def record_ops(patcher, owner, attr: str, rep: Repeat, value=None, images=None,
               latency=True) -> None:
    """Count every call of ``owner.attr`` as an operation; when ``latency`` is
    true or ``latency(kwargs)`` is, note its start time. Keep ``value(args, result)``."""

    def make(fn):
        def op(*args, **kwargs):
            rep.ops += 1
            if latency(kwargs) if callable(latency) else latency:
                rep.starts.append(time.perf_counter())
            if images is not None:
                rep.images += images(args)
            result = fn(*args, **kwargs)
            if value is not None:
                rep.op_values.append(value(args, result))
            return result
        return op

    patcher.patch(owner, attr, make)


def record_probes(patcher, rep: Repeat) -> None:
    """Note the start of every finite-difference probe, one tape-free forward."""

    def make(fn):
        def central_diff(func, *args, **kwargs):
            def probe():
                rep.starts.append(time.perf_counter())
                return func()
            return fn(probe, *args, **kwargs)
        return central_diff

    patcher.patch(gradcheck, "central_diff", make)


def confusion_problems(cms: dict, dataset) -> list[str]:
    h, w = dataset.samples[0].labels.shape
    want = len(dataset) * h * w
    return [f"{dataset.name} {b} level {lv}: confusion total {cm.counts.sum()} != {want}"
            for b, levels in cms.items() for lv, cm in levels.items()
            if int(cm.counts.sum()) != want]


def level3_miou(params, dataset) -> tuple[float, list[str]]:
    report, cms = metrics.evaluate_report(params, dataset)
    return report["gpm"][3][0], confusion_problems(cms, dataset)


class Workload:
    name = ""
    precision = "f32"
    reuses_setup = False  # True when ``run`` leaves the set-up state unchanged

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def run(self, state, rep: Repeat, patcher) -> None:
        raise NotImplementedError

    def check(self, state, rep: Repeat, workdir: str) -> list[str]:
        raise NotImplementedError

    def quality(self, state, rep: Repeat, workdir: str) -> tuple[dict, list[str]]:
        """Model quality after the first repeat, as ``{name: (value, unit)}``, and problems.

        Printed, not bounded: across seeds these spread wider than any bound
        a timing metric could use, while within a seed they are exact.
        """
        return {}, []


def _two_branch(kwargs) -> bool:
    return not kwargs.get("main_only", False)


def _finite_losses(rep: Repeat) -> list[str]:
    bad = [i for i, v in enumerate(rep.op_values) if not math.isfinite(v)]
    return [f"non-finite training loss at steps {bad[:5]}"] if bad else []


def _training_quality(rep: Repeat, miou: float) -> dict:
    return {"final_loss": (float(np.mean(rep.op_values[-LAST_STEPS:])), "1"),
            "miou_l3": (miou, "1")}


class TrainSingleA(Workload):
    """``grapy train`` on A: main-only pretrain epochs, then two-branch epochs (two thirds)."""

    name = "train_single_a"

    def __init__(self, n_train: int = 100, epochs_pretrain: int = 2, epochs_main: int = 4):
        self.n_train, self.epochs_pretrain, self.epochs_main = n_train, epochs_pretrain, epochs_main

    def setup(self, seed, workdir):
        train = make_split(seed, "A", 0, self.n_train, workdir)
        cfg = model.TrainConfig(seed=seed, batch_size=BATCH, epochs_pretrain=self.epochs_pretrain,
                                epochs_main=self.epochs_main)
        # the same seeding pretrain_then_train applies when it is not handed params
        params = model.ModelParams.init(
            np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])), train.taxonomy,
            c_in=cfg.c_in, width=cfg.width, channels=cfg.channels,
            loss_weight=cfg.loss_weight, with_gpm=cfg.with_gpm, pooling=cfg.pooling,
            levels=cfg.levels, iterations=cfg.iterations, fresh_weights=cfg.fresh_weights)
        return {"seed": seed, "train": train, "cfg": cfg, "params": params}

    def run(self, state, rep, patcher):
        record_ops(patcher, model, "train_step", rep, value=lambda a, r: r,
                   images=lambda a: len(a[0].images), latency=_two_branch)
        state["params"] = model.pretrain_then_train(state["train"], state["cfg"],
                                                    params=state["params"])

    def check(self, state, rep, workdir):
        path = os.path.join(workdir, "model.ckpt")
        serialize.save_model(path, state["params"], state["train"].taxonomy)
        with open(path, "rb") as fh:
            rep.outputs["output"] = fh.read()
        rep.outputs["losses"] = list(rep.op_values)
        return _finite_losses(rep)

    def quality(self, state, rep, workdir):
        test = make_split(state["seed"], "A", 1, TEST_SIZES["A"], workdir)
        miou, problems = level3_miou(state["params"], test)
        return _training_quality(rep, miou), problems


class TrainMutualABC(Workload):
    """``grapy train-ml`` on A, B, C: joint pretrain epochs, then joint two-branch epochs."""

    name = "train_mutual_abc"

    def setup(self, seed, workdir):
        train = [make_split(seed, n, 0, 40, workdir) for n in ("A", "B", "C")]
        cfg = mutual.MlTrainConfig(seed=seed, batch_size=BATCH, epochs_pretrain=2,
                                   epochs_main=4, epochs_finetune=0)
        # the same seeding train_mutual applies when it is not handed a model
        ml = mutual.MlModel.init(
            np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])),
            [ds.taxonomy for ds in train], c_in=cfg.c_in, width=cfg.width,
            channels=cfg.channels, loss_weight=cfg.loss_weight, pooling=cfg.pooling,
            iterations=cfg.iterations, share_backbone=cfg.share_backbone,
            fresh_weights=cfg.fresh_weights)
        return {"seed": seed, "train": train, "cfg": cfg, "model": ml}

    def run(self, state, rep, patcher):
        record_ops(patcher, mutual, "ml_step", rep, value=lambda a, r: r,
                   images=lambda a: len(a[0].images), latency=_two_branch)
        state["model"] = mutual.train_mutual(state["train"], state["cfg"], model=state["model"])

    def check(self, state, rep, workdir):
        path = os.path.join(workdir, "model_ml.ckpt")
        serialize.save_ml_model(path, state["model"])
        with open(path, "rb") as fh:
            rep.outputs["output"] = fh.read()
        rep.outputs["losses"] = list(rep.op_values)
        return _finite_losses(rep)

    def quality(self, state, rep, workdir):
        ml, problems, mious = state["model"], [], []
        for d, (name, size) in enumerate(TEST_SIZES.items(), start=1):
            miou, bad = level3_miou(ml.branch_params(d),
                                    make_split(state["seed"], name, 1, size, workdir))
            mious.append(miou)
            problems += bad
        # the audit's probe steps move the model, so it runs after everything else
        ok, report = mutual.audit_sharing(ml, state["train"])
        if not ok:
            problems += [f"audit_sharing: {line}" for line in report]
        return _training_quality(rep, float(np.mean(mious))), problems


class EvalMutualABC(Workload):
    """``grapy eval`` of a joint A/B/C checkpoint's branches on the A, B, C test splits."""

    name = "eval_mutual_abc"
    reuses_setup = True

    def setup(self, seed, workdir):
        test = [make_split(seed, n, 1, size, workdir) for n, size in TEST_SIZES.items()]
        ml, meta = serialize.load_ml_model(EVAL_CKPT)
        if meta.get("taxonomies") != "A,B,C":
            raise ValueError(f"{EVAL_CKPT}: branches are {meta.get('taxonomies')!r}, not A,B,C")
        copy = os.path.join(workdir, "eval_abc.ckpt")
        serialize.save_ml_model(copy, ml)
        params = [ml.branch_params(d) for d in range(1, len(test) + 1)]
        return {"test": test, "params": params, "copy": copy}

    def run(self, state, rep, patcher):
        record_ops(patcher, metrics, "forward", rep, images=lambda a: 1)
        rep.outputs["reports"] = [metrics.evaluate_report(p, ds)
                                  for p, ds in zip(state["params"], state["test"])]

    def check(self, state, rep, workdir):
        problems = []
        with open(state["copy"], "rb") as fh, open(EVAL_CKPT, "rb") as ref:
            if fh.read() != ref.read():
                problems.append("checkpoint changed on a load/save round trip")
        for (report, cms), ds in zip(rep.outputs["reports"], state["test"]):
            problems += confusion_problems(cms, ds)
        rep.outputs["reports"] = [report for report, _ in rep.outputs["reports"]]
        # every number the eval reports, so repeats can be compared exactly
        rep.outputs["output"] = repr(rep.outputs["reports"]).encode()
        return problems

    def quality(self, state, rep, workdir):
        mious = [r["gpm"][3][0] for r in rep.outputs["reports"]]
        return {"miou_l3": (float(np.mean(mious)), "1")}, []


class Gradcheck(Workload):
    """``grapy gradcheck``: every finite-difference suite in 64-bit on tiny shapes."""

    name = "gradcheck"
    precision = "f64"
    reuses_setup = True

    def setup(self, seed, workdir):
        # gradcheck reads no data; its set-up is a fresh interpreter importing it
        src = os.path.dirname(os.path.dirname(gradcheck.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", "import grapy.gradcheck"], env=env,
                       check=True, timeout=60)
        return {"seed": seed}

    def run(self, state, rep, patcher):
        # operations are the suites, but 25 unequal suites give no steady
        # percentiles, so latency is that of the thousands of probes
        record_ops(patcher, gradcheck, "check_tensor_grads", rep, images=lambda a: 1,
                   latency=False)
        record_probes(patcher, rep)
        results, ok = gradcheck.run_all(seed=state["seed"])
        rep.outputs["results"] = results
        rep.failed += sum(v >= gradcheck.TOLERANCE for v in results.values())

    def check(self, state, rep, workdir):
        results = rep.outputs["results"]
        problems = [f"suite {k}: max_rel_err {v:.3e} >= {gradcheck.TOLERANCE:g}"
                    for k, v in results.items() if not v < gradcheck.TOLERANCE]
        if len(results) != rep.ops:
            problems.append(f"{len(results)} suites but {rep.ops} gradient checks")
        rep.outputs["output"] = repr(sorted(results.items())).encode()
        return problems


WORKLOADS = {w.name: w for w in (TrainSingleA(), TrainMutualABC(), EvalMutualABC(), Gradcheck())}
