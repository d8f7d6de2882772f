"""Which grapy functions the traced run wraps, and the per-layer metrics they give.

Layers are grapy's modules. Each public function is wrapped where its caller
looks it up, so ``pyramid_forward`` is wrapped in ``grapy.model`` (the model
calls it) and in ``grapy.gradcheck`` (the pyramid suite calls it).
"""

from __future__ import annotations

import os

import grapy.kernels
import grapy.tensor
from grapy import gradcheck, metrics, model, mutual, pyramid, serialize, synthdata

KERNELS = ("conv2d_forward", "conv2d_backward_input", "conv2d_backward_kernel",
           "masked_pool_forward", "masked_pool_backward", "gather_rows", "scatter_rows")
LEVELS = (1, 2, 3)
PYRAMID_STAGES = ("masks_from_prediction", "aggregate", "reason", "distribute")
SUITES = ("op_suites", "reason_suite", "pyramid_suite", "end_to_end_suite")


def instrument(tracer) -> None:
    """Wrap every traced function; ``tracer.restore()`` undoes all of it."""
    count = tracer.counters

    def tape_length(args, kwargs, result):
        count["tensor.tape_entries"] += len(args[0])

    def occupancy(args, kwargs, result):
        level = result.level
        count[f"nodes.l{level}"] += result.counts.size
        count[f"occupied.l{level}"] += int((result.counts > 0).sum())

    def ckpt_bytes(args, kwargs, result):
        count["checkpoint.bytes"] += os.path.getsize(args[0])
        count["checkpoint.saves"] += 1

    for name in KERNELS:
        tracer.wrap(grapy.kernels, name, f"kernels.{name}")
    tracer.wrap(grapy.tensor.Tape, "backward", "tensor.backward", after=tape_length)
    tracer.wrap(grapy.tensor, "sgd_step", "tensor.sgd_step")

    tracer.wrap(pyramid, "masks_from_prediction", "pyramid.masks_from_prediction", level_arg=2)
    tracer.wrap(pyramid, "level_forward", "pyramid.level_forward", level_arg=3, sets_level=True)
    tracer.wrap(pyramid, "aggregate", "pyramid.aggregate", level_arg=3, after=occupancy)
    tracer.wrap(pyramid, "reason", "pyramid.reason", per_level=True)
    tracer.wrap(pyramid, "distribute", "pyramid.distribute", per_level=True)
    tracer.wrap(gradcheck, "reason", "pyramid.reason", per_level=True)
    for owner in (model, gradcheck):
        tracer.wrap(owner, "pyramid_forward", "pyramid.pyramid_forward")
        tracer.wrap(owner, "loss_tensor", "model.loss")
    for owner in (metrics, pyramid, gradcheck):
        tracer.wrap(owner, "coarsen", "hierarchy.coarsen")

    tracer.wrap(model.BackboneParams, "apply", "model.backbone")
    for owner in (model, mutual):
        tracer.wrap(owner, "clip_gradients", "model.clip_gradients")
        tracer.wrap(owner, "train_step", "model.train_step")
    tracer.wrap_generator(synthdata.Dataset, "batches", "model.data_wait")
    tracer.wrap(mutual.MlModel, "branch_params", "mutual.branch_params")
    tracer.wrap(mutual.RoundRobinSampler, "next_batch", "mutual.sampler_wait")
    tracer.wrap(metrics.ConfusionMatrix, "add", "metrics.confusion_add")

    tracer.wrap(synthdata, "generate", "synthdata.generate")
    tracer.wrap(synthdata, "load_dataset", "synthdata.load_dataset")
    for name in ("save_model", "save_ml_model"):
        tracer.wrap(serialize, name, "serialize.save", after=ckpt_bytes)
    for name in ("load_model", "load_ml_model"):
        tracer.wrap(serialize, name, "serialize.load")
    for name in SUITES:
        tracer.wrap(gradcheck, name, f"gradcheck.{name}")


def per_layer(tracer, repeats: int, setups: int, images: int, overhead: float) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Set-up layers (``synthdata``, ``serialize``) count per set-up, the others
    per repeat. ``images`` is the number of images (gradcheck: suites) the
    traced repeats processed. A function that never ran reports 0.
    """
    rows = tracer.summary()
    count = tracer.counters

    def per_rep(span, key, scale=1.0):
        row = rows.get(span)
        per = setups if span.startswith(("synthdata.", "serialize.")) else repeats
        return row[key] * scale / per if row else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in KERNELS:
        out[f"kernels.{name}.ms"] = (per_rep(f"kernels.{name}", "ms"), "ms")
        out[f"kernels.{name}.calls"] = (per_rep(f"kernels.{name}", "calls"), "count")
    out["tensor.backward.self_ms"] = (per_rep("tensor.backward", "self_ms"), "ms")
    out["tensor.backward.calls"] = (per_rep("tensor.backward", "calls"), "count")
    out["tensor.tape_entries_per_img"] = (ratio(count["tensor.tape_entries"], images), "count")
    out["tensor.sgd_step.ms"] = (per_rep("tensor.sgd_step", "ms"), "ms")
    out["model.clip_gradients.ms"] = (per_rep("model.clip_gradients", "ms"), "ms")
    for stage in PYRAMID_STAGES:
        for level in LEVELS:
            span = f"pyramid.{stage}.l{level}"
            out[f"{span}.self_ms"] = (per_rep(span, "self_ms"), "ms")
    out["pyramid.reason.l0.self_ms"] = (per_rep("pyramid.reason.l0", "self_ms"), "ms")
    out["pyramid.pyramid_forward.self_ms"] = (per_rep("pyramid.pyramid_forward", "self_ms"), "ms")
    for level in LEVELS:
        out[f"pyramid.node_occupancy.l{level}"] = (
            ratio(count[f"occupied.l{level}"], count[f"nodes.l{level}"]), "ratio")
    out["model.backbone.self_ms"] = (per_rep("model.backbone", "self_ms"), "ms")
    out["model.loss.ms"] = (per_rep("model.loss", "ms"), "ms")
    out["model.train_step.ms"] = (per_rep("model.train_step", "ms"), "ms")
    out["model.data_wait_ms"] = (per_rep("model.data_wait", "ms"), "ms")
    out["mutual.branch_params.ms"] = (per_rep("mutual.branch_params", "ms"), "ms")
    out["mutual.sampler_wait_ms"] = (per_rep("mutual.sampler_wait", "ms"), "ms")
    out["metrics.confusion_add.ms"] = (per_rep("metrics.confusion_add", "ms"), "ms")
    out["hierarchy.coarsen.ms"] = (per_rep("hierarchy.coarsen", "ms"), "ms")
    out["synthdata.generate_s"] = (per_rep("synthdata.generate", "ms", 1e-3), "s")
    out["synthdata.load_dataset_s"] = (per_rep("synthdata.load_dataset", "ms", 1e-3), "s")
    out["serialize.save_ms"] = (per_rep("serialize.save", "ms"), "ms")
    out["serialize.load_ms"] = (per_rep("serialize.load", "ms"), "ms")
    out["checkpoint.bytes"] = (ratio(count["checkpoint.bytes"], count["checkpoint.saves"]), "bytes")
    for name in SUITES:
        out[f"gradcheck.{name}.s"] = (per_rep(f"gradcheck.{name}", "ms", 1e-3), "s")
    out["trace.spans_per_repeat"] = (len(tracer.spans) / repeats, "count")
    out["trace.overhead"] = (overhead, "ratio")
    return out
