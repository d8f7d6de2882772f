"""Acceptance gate: every criterion as one test, printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The directional-ablation
fixture trains twelve models (4 configurations x 3 seeds) on up to two worker
processes and takes a few minutes; everything is seed-fixed and deterministic
on a given backend.
"""

import functools
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from grapy.gradcheck import TOLERANCE, run_all
from grapy.hierarchy import builtin_taxonomies, coarsen, taxonomy_by_name
from grapy.metrics import ConfusionMatrix, evaluate_report
from grapy.model import (ModelParams, TrainConfig, forward, loss_tensor,
                         overfit_train, pretrain_then_train)
from grapy.mutual import MlModel, MlTrainConfig, ml_step, snapshot, train_mutual
from grapy.pyramid import (GCR_ITERATIONS, GpmLevelParams, GpmParams, aggregate,
                           distribute, pyramid_forward, reason)
from grapy.synthdata import (Dataset, SampleBatch, SceneSpec, generate,
                             make_benchmark_datasets, read_sample, write_sample)
from grapy.tensor import (SGD, Tensor, argmax_channel, cross_entropy_mean, precision,
                          row_softmax, softmax_channels)
from oracles import gcr_oracle, gsa_oracle, gsd_oracle, pyramid_oracle, rel_err

PASS = "PASS: {}"


def level3_miou(params, dataset, branch="gpm"):
    """Level-3 mIoU of one branch, as ``grapy eval`` reports it."""
    return evaluate_report(params, dataset)[0][branch][3][0]


@pytest.fixture(scope="module")
def bench():
    return make_benchmark_datasets(0)


@functools.cache
def _ablation_data():
    return make_benchmark_datasets(0)


def train_ablation(name, seed):
    """Train ablation ``name`` (base, l3only, full or mutual) at ``seed`` on
    ``make_benchmark_datasets(0)``; returns its test mIoU on A and the wall
    seconds of its training. Runs in a worker process, which builds the data
    itself (once) rather than receiving it pickled."""
    bench = _ablation_data()
    train_a, test_a = bench["A"]
    with precision("f32"):
        t0 = time.time()
        if name == "mutual":
            mcfg = MlTrainConfig(seed=seed, lr=0.1, lr_decay=0.3, batch_size=4,
                                 clip_norm=1.0, epochs_pretrain=4, epochs_main=10,
                                 epochs_finetune=6)
            ml = train_mutual([bench[n][0] for n in "ABC"], mcfg, finetune_on=train_a)
            params = ml.branch_for(train_a.taxonomy)
        else:
            layout = {"base": dict(with_gpm=False), "l3only": dict(levels=(3,)), "full": {}}[name]
            params = pretrain_then_train(train_a, TrainConfig(
                seed=seed, lr=0.1, lr_decay=0.3, batch_size=4, clip_norm=1.0,
                epochs_pretrain=8, epochs_main=16, **layout))
        wall = time.time() - t0
        return level3_miou(params, test_a, "main" if name == "base" else "gpm"), wall


@pytest.fixture(scope="module")
def ablation_runs():
    """Train baseline / fine-level-only / full pyramid / mutual at 3 seeds.

    The twelve runs are independent, so they go to min(2, CPUs) spawned worker
    processes with one BLAS thread each, the longest (mutual) first.
    """
    seeds = (0, 1, 2)
    jobs = [(name, seed) for name in ("mutual", "full", "l3only", "base") for seed in seeds]
    with pytest.MonkeyPatch.context() as env:
        env.setenv("OPENBLAS_NUM_THREADS", "1")
        with ProcessPoolExecutor(min(2, os.cpu_count() or 1),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = {job: pool.submit(train_ablation, *job) for job in jobs}
            runs = {job: future.result() for job, future in futures.items()}
    scores = {name: [runs[name, seed][0] for seed in seeds]
              for name in ("base", "l3only", "full", "mutual")}
    return scores, max(wall for _, wall in runs.values())


def test_full_scale_results_out_of_scope():
    # The published full-scale benchmark numbers need a large pretrained
    # backbone and the real datasets; this package must not claim them.
    # Property-based and desk-scale directional checks below stand in.
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    claimed = []
    for root, _, files in os.walk(os.path.join(here, "src")):
        for name in files:
            if name.endswith(".py"):
                text = open(os.path.join(root, name), encoding="utf-8").read()
                for num in ("71.65", "77.88", "60.60"):
                    if num in text:
                        claimed.append((name, num))
    assert not claimed
    print(PASS.format("full-scale results declared out of scope; "
                      "desk-scale property checks apply"))


GRADCHECK_SUITES = [
    "add", "matmul", "relu", "conv2d", "conv2d_bias", "concat", "scale", "masked_pool",
    "broadcast_nodes", "cross_entropy", "matmul_shared_batch2", "conv2d_batch2",
    "masked_pool_batch2", "broadcast_nodes_batch2", "cross_entropy_batch2", "reason",
    "reason_batch2", "pyramid", "end_to_end", "end_to_end_batch2"]


def test_gradient_suite_under_tolerance_and_time():
    t0 = time.time()
    results, ok = run_all(seed=0)
    elapsed = time.time() - t0
    worst = max(results.values())
    assert ok, f"worst suite error {worst:.3e} >= {TOLERANCE}"
    assert list(results) == GRADCHECK_SUITES
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(PASS.format(f"gradient suite: {len(results)} suites, "
                      f"max rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s"))


def test_oracle_equivalence_20_instances():
    rng = np.random.default_rng(42)
    tax = taxonomy_by_name("A")
    tables = {l: tax.table_to(l) for l in (1, 2, 3)}
    worst = 0.0
    for trial in range(20):
        h, w, c = 5 + trial % 3, 5 + trial % 4, 3 + trial % 3
        k = 2 + trial % 4
        f = rng.normal(size=(h, w, c))
        lm = rng.integers(0, k, size=(h, w))
        lm.reshape(-1)[rng.permutation(h * w)[:k]] = np.arange(k)

        nodes = aggregate(Tensor(f[None]), lm[None], k, level=2)
        worst = max(worst, rel_err(nodes.features.data[0], gsa_oracle(f, lm, k)))

        lp = GpmLevelParams.init(rng, 2 * c, c)
        lp.out_proj.data[:] = rng.normal(size=lp.out_proj.shape) * 0.3
        refined = reason(nodes.features, lp)
        worst = max(worst, rel_err(refined.data[0],
                                   gcr_oracle(nodes.features.data[0], lp.q1.data, lp.q2.data)))

        out = distribute(Tensor(f[None]), refined, lp.out_proj, lm[None])
        worst = max(worst, rel_err(out.data[0],
                                   gsd_oracle(f, refined.data[0], lp.out_proj.data, lm)))
        assert worst < 1e-6, f"trial {trial}: {worst:.2e}"

    comp_worst = 0.0
    for trial in range(20):
        f = rng.normal(size=(6, 6, 4))
        y = rng.uniform(0, 1, (6, 6, tax.k3))
        gpm = GpmParams.init(rng, 4, tax.k3)
        for lp in gpm.levels.values():
            lp.out_proj.data[:] = rng.normal(size=lp.out_proj.shape) * 0.3
        gpm.head.data[:] = rng.normal(size=gpm.head.shape) * 0.2
        f_hat, y_hat = pyramid_forward(Tensor(f[None]), tax, gpm, fine=np.argmax(y[None], axis=-1))
        level_arrays = {l: (gpm.levels[l].q1.data, gpm.levels[l].q2.data,
                            gpm.levels[l].out_proj.data) for l in (1, 2, 3)}
        f_exp, y_exp = pyramid_oracle(f, y, tables, level_arrays, gpm.head.data)
        comp_worst = max(comp_worst, rel_err(f_hat.data[0], f_exp),
                         rel_err(softmax_channels(y_hat).data[0], y_exp))
        assert comp_worst < 1e-6, f"composed trial {trial}: {comp_worst:.2e}"
    print(PASS.format(f"oracle equivalence: 20 instances per stage "
                      f"(worst {worst:.2e}) and 20 composed (worst {comp_worst:.2e}) < 1e-6"))


def test_invariant_suite(bench, attention_mats):
    rng = np.random.default_rng(7)
    tax = taxonomy_by_name("B")

    # mask partition at every level for prediction-derived maps
    y = Tensor(rng.uniform(0, 1, (1, 8, 8, tax.k3)))
    from grapy.pyramid import masks_from_prediction

    for level in (1, 2, 3):
        lm = masks_from_prediction(argmax_channel(y), tax, level)[0]
        k = tax.k_at(level)
        masks = lm[None] == np.arange(k)[:, None, None]
        assert np.array_equal(masks.sum(axis=0), np.ones((8, 8), np.int64))

    # attention rows sum to 1 +- 1e-6 at every level and iteration, read off
    # the matrices reason computes
    for c_l in (8, 16):
        v = Tensor(rng.normal(0, 3, (1, 5, c_l)))
        lp = GpmLevelParams.init(rng, c_l, c_l // 2)
        del attention_mats[:]
        reason(v, lp)
        assert len(attention_mats) == GCR_ITERATIONS
        for mat in attention_mats:
            assert np.abs(mat[0].sum(axis=1) - 1).max() < 1e-6

    # shift invariance within 1e-9 of the row softmax reason calls
    x = rng.normal(size=(6, 9))
    a = row_softmax(x[None])[0]
    b = row_softmax(x[None] + 11.25)[0]
    assert np.abs(a - b).max() < 1e-9

    # coarsening composition: L3 -> L2 -> L1 equals L3 -> L1
    for t in builtin_taxonomies():
        m = rng.integers(0, t.k3, size=(16, 16))
        via = np.asarray([0, 1, 1, 1, 1])[coarsen(m, t, 2)]
        assert np.array_equal(via, coarsen(m, t, 1))

    # redistribution is the identity under zero nodes
    f = rng.normal(size=(6, 6, 4))
    lm = rng.integers(0, 3, size=(6, 6))
    out = distribute(Tensor(f[None]), Tensor(np.zeros((1, 3, 8))),
                     Tensor(rng.normal(size=(8, 4))), lm[None])
    assert np.array_equal(out.data[0], f)

    # permutation equivariance of the category pipeline
    k, c = 4, 4
    f = rng.normal(size=(6, 6, c))
    lm = rng.integers(0, k, size=(6, 6))
    lm.reshape(-1)[:k] = np.arange(k)
    lp = GpmLevelParams.init(rng, 2 * c, c)
    lp.out_proj.data[:] = rng.normal(size=lp.out_proj.shape) * 0.3
    perm = rng.permutation(k)
    inv = np.argsort(perm)
    nodes = aggregate(Tensor(f[None]), lm[None], k, level=2)
    refined = reason(nodes.features, lp)
    base_out = distribute(Tensor(f[None]), refined, lp.out_proj, lm[None])
    nodes_p = aggregate(Tensor(f[None]), inv[lm][None], k, level=2)
    assert rel_err(nodes_p.features.data[0], nodes.features.data[0][perm]) < 1e-9
    refined_p = reason(nodes_p.features, lp)
    out_p = distribute(Tensor(f[None]), refined_p, lp.out_proj, inv[lm][None])
    assert rel_err(out_p.data[0], base_out.data[0]) < 1e-9

    # two-branch loss additivity, exactly as computed
    tax_a = taxonomy_by_name("A")
    params = ModelParams.init(rng, tax_a, width=4, channels=4)
    image = rng.uniform(0, 1, (16, 16, 3))
    q = rng.integers(0, tax_a.k3, (16, 16))
    out = forward(image[None], params, tax_a)
    l_main = float(cross_entropy_mean(softmax_channels(out.y), q[None]).data)
    l_gpm = float(cross_entropy_mean(softmax_channels(out.y_hat), q[None]).data)
    for lam in (1.0, 0.35):
        assert float(loss_tensor(out, q[None], lam).data) == l_main + lam * l_gpm

    print(PASS.format("invariant suite: partition, attention rows, softmax shift, "
                      "coarsen composition, zero-node identity, permutation "
                      "equivariance, loss additivity"))


def test_sharing_audit():
    rng = np.random.default_rng(9)
    taxes = list(builtin_taxonomies())
    model = MlModel.init(rng, taxes, width=4, channels=4)
    datasets = [Dataset(t.dataset_name, t,
                        generate(SceneSpec(seed=70 + d, image_size=(16, 16)), t, 2))
                for d, t in enumerate(taxes, start=1)]

    before = {d: snapshot(model.branch_named(d)) for d in (2, 3)}
    shared_before = snapshot(model.shared_named())
    batch = SampleBatch([datasets[0].samples[0].image],
                        [datasets[0].samples[0].labels], datasets[0].taxonomy)
    ml_step(batch, model, SGD(model.named(), lr=0.05, momentum=0.0))
    assert snapshot(model.branch_named(2)) == before[2]
    assert snapshot(model.branch_named(3)) == before[3]
    assert snapshot(model.shared_named()) != shared_before

    # identical masks -> identical Level-1/2 node features across branches
    image = rng.uniform(0, 1, (16, 16, 3))
    lm1 = rng.integers(0, 2, size=(16, 16))
    lm2 = rng.integers(0, 5, size=(16, 16))
    feats = []
    for d in (1, 2, 3):
        params = model.branch_params(d)
        f = params.backbone.apply(Tensor(np.asarray(image)[None] - 0.5))
        n1 = aggregate(f, lm1[None], 2, level=1)
        r1 = reason(n1.features, params.gpm.levels[1])
        f1 = distribute(f, r1, params.gpm.levels[1].out_proj, lm1[None])
        n2 = aggregate(f1, lm2[None], 5, level=2)
        r2 = reason(n2.features, params.gpm.levels[2])
        feats.append((r1.data[0].tobytes(), r2.data[0].tobytes()))
    assert feats[0] == feats[1] == feats[2]
    print(PASS.format("sharing audit: branch isolation + shared movement + "
                      "forced-mask coarse-node equality"))


def test_overfit_reaches_095_within_500_steps():
    tax = taxonomy_by_name("A")
    spec = SceneSpec(seed=101, noise_sigma=0.05, palette_jitter=0.12)
    subset = Dataset("A", tax, generate(spec, tax, 8))
    t0 = time.time()
    with precision("f32"):
        cfg = TrainConfig(seed=1, lr=0.1, lr_decay=1.0, batch_size=8, clip_norm=1.0)
        params = overfit_train(subset, cfg, steps=500)
        miou = level3_miou(params, subset)
    elapsed = time.time() - t0
    assert miou >= 0.95, f"train mIoU {miou:.4f} < 0.95"
    assert elapsed < 600.0
    print(PASS.format(f"overfit: train mIoU {miou:.4f} >= 0.95 in 500 steps, "
                      f"{elapsed:.0f}s < 10min"))


def test_directional_ablations(ablation_runs):
    scores, slowest = ablation_runs
    means = {name: float(np.mean(vals)) for name, vals in scores.items()}
    detail = " ".join(f"{k}={v:.4f}" for k, v in means.items())
    assert slowest < 1800.0, f"slowest training run took {slowest:.0f}s"
    # (a) full pyramid vs no pyramid
    assert means["full"] >= means["base"], detail
    # (b) coarse levels on vs fine level only, tie tolerated within 0.01
    assert means["full"] >= means["l3only"] - 0.01, detail
    # (c) mutual learning vs single-dataset on the smallest dataset
    assert means["mutual"] >= means["full"], detail
    print(PASS.format(
        f"directional ablations (3-seed test mIoU means): {detail}; "
        f"(a) full-base={means['full'] - means['base']:+.4f} "
        f"(b) full-l3only={means['full'] - means['l3only']:+.4f} "
        f"(c) mutual-full={means['mutual'] - means['full']:+.4f}; "
        f"slowest run {slowest:.0f}s < 30min"))


def test_train_checkpoints_bitwise_deterministic(tmp_path, bench):
    # exercise the real `train` command end to end, twice
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(os.path.dirname(__file__), "..", "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    from grapy.synthdata import save_dataset

    manifest = save_dataset(tmp_path / "a8", Dataset("A", bench["A"][0].taxonomy,
                                                     bench["A"][0].samples[:4]))
    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        res = subprocess.run(
            [sys.executable, "-m", "grapy", "train", "--data", str(manifest),
             "--out", str(out), "--overfit", "4", "--steps", "20", "--seed", "11",
             "--precision", "f32"],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        blobs.append((out / "model.ckpt").read_bytes())
    assert blobs[0] == blobs[1]
    print(PASS.format("determinism: two `train` runs, byte-identical checkpoints"))


def test_metric_correctness_hand_cases():
    cm = ConfusionMatrix(2).add(np.array([0, 1, 1]), np.array([0, 0, 1]))
    assert np.array_equal(cm.counts, [[1, 1], [0, 1]])
    assert np.isclose(cm.miou(), 0.5)
    assert np.isclose(cm.mean_accuracy(), 0.75)
    perfect = ConfusionMatrix(3).add(np.array([0, 1, 2]), np.array([0, 1, 2]))
    assert perfect.miou() == 1.0 and perfect.mean_accuracy() == 1.0
    absent = ConfusionMatrix(3, counts=np.array(
        [[2, 0, 0], [0, 2, 0], [0, 0, 0]], np.int64))
    assert absent.miou() == 1.0
    print(PASS.format("metric correctness: hand-enumerated confusion cases exact"))


def test_file_format_round_trips(tmp_path):
    tax = taxonomy_by_name("C")
    sample = generate(SceneSpec(seed=77), tax, 1)[0]
    ppm, pgm = write_sample(tmp_path / "s", sample)
    back = read_sample(ppm, pgm)
    assert np.array_equal(back.labels, sample.labels)
    ppm2, pgm2 = write_sample(tmp_path / "s2", back)
    assert open(ppm, "rb").read() == open(ppm2, "rb").read()
    assert open(pgm, "rb").read() == open(pgm2, "rb").read()

    from grapy.serialize import load_model, save_model

    params = ModelParams.init(np.random.default_rng(5), tax, width=4, channels=4)
    p1, p2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    save_model(p1, params, tax)
    loaded, _ = load_model(p1)
    save_model(p2, loaded, tax)
    assert p1.read_bytes() == p2.read_bytes()
    print(PASS.format("file formats: PPM/PGM and checkpoint round-trips byte-exact"))
