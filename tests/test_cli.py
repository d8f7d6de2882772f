import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from grapy.imageio import label_palette, read_ppm
from oracles import checkpoint_record

PKG_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "grapy", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    res = run_cli("gen-data", "--seed", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, bench_dir):
    out = tmp_path_factory.mktemp("run")
    res = run_cli("train", "--data", str(bench_dir / "A" / "train" / "manifest.txt"),
                  "--out", str(out), "--overfit", "4", "--steps", "30", "--seed", "1")
    assert res.returncode == 0, res.stderr
    return out


class TestGenData:
    def test_prints_manifests(self, bench_dir):
        for name in ("A", "B", "C"):
            assert (bench_dir / name / "train" / "manifest.txt").exists()
            assert (bench_dir / name / "test" / "manifest.txt").exists()

    def test_deterministic_rerun_byte_identical(self, bench_dir, tmp_path):
        res = run_cli("gen-data", "--seed", "3", "--out", str(tmp_path / "again"))
        assert res.returncode == 0
        for rel in ("A/train/manifest.txt", "A/train/00000.ppm", "A/train/00000.pgm",
                    "C/test/00003.ppm"):
            a = (bench_dir / rel).read_bytes()
            b = (tmp_path / "again" / rel).read_bytes()
            assert a == b, rel

    def test_missing_out_is_usage_error(self):
        res = run_cli("gen-data", "--seed", "3")
        assert res.returncode == 2

    def test_seed_env_default(self, tmp_path):
        res = run_cli("gen-data", "--out", str(tmp_path / "env"),
                      env_extra={"GRAPY_SEED": "3"})
        assert res.returncode == 0
        flag = run_cli("gen-data", "--seed", "3", "--out", str(tmp_path / "flag"))
        assert flag.returncode == 0
        a = (tmp_path / "env" / "A" / "train" / "00000.ppm").read_bytes()
        b = (tmp_path / "flag" / "A" / "train" / "00000.ppm").read_bytes()
        assert a == b


class TestTrain:
    def test_writes_checkpoint_and_log(self, trained):
        assert (trained / "model.ckpt").exists()
        lines = (trained / "train.log").read_text().strip().split("\n")
        assert len(lines) == 30
        for ln in lines:
            epoch, step, loss, lr = ln.split("\t")
            int(epoch), int(step), float(loss), float(lr)

    def test_bitwise_deterministic_checkpoints(self, bench_dir, tmp_path):
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            res = run_cli("train", "--data",
                          str(bench_dir / "A" / "train" / "manifest.txt"),
                          "--out", str(out), "--overfit", "2", "--steps", "8",
                          "--seed", "7")
            assert res.returncode == 0, res.stderr
            outs.append((out / "model.ckpt").read_bytes())
        assert outs[0] == outs[1]

    def test_lambda_zero_accepted(self, bench_dir, tmp_path):
        res = run_cli("train", "--data", str(bench_dir / "A" / "train" / "manifest.txt"),
                      "--out", str(tmp_path), "--overfit", "2", "--steps", "4",
                      "--lambda", "0")
        assert res.returncode == 0, res.stderr

    def test_unknown_config_key_rejected(self, bench_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs_main = 1\nwormhole = 9\n")
        res = run_cli("train", "--data", str(bench_dir / "A" / "train" / "manifest.txt"),
                      "--out", str(tmp_path), "--config", str(cfg))
        assert res.returncode == 2
        assert "wormhole" in res.stderr

    def test_config_file_with_cli_override(self, bench_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\noverfit = 2\nsteps = 4\nlambda = 0.5\n")
        res = run_cli("train", "--data", str(bench_dir / "A" / "train" / "manifest.txt"),
                      "--out", str(tmp_path / "o"), "--config", str(cfg),
                      "--steps", "6")
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "o" / "train.log").read_text().strip().split("\n")
        assert len(lines) == 6  # CLI --steps wins over the config file

    def test_out_of_range_setting_rejected(self, bench_dir, tmp_path):
        res = run_cli("train", "--data", str(bench_dir / "A" / "train" / "manifest.txt"),
                      "--out", str(tmp_path), "--momentum", "1.5")
        assert res.returncode == 2

    def test_label_outside_taxonomy_exits_2_without_traceback(self, tmp_path):
        from grapy.hierarchy import taxonomy_by_name
        from grapy.synthdata import Dataset, SceneSpec, generate, save_dataset

        tax = taxonomy_by_name("A")
        ds = Dataset("A", tax, generate(SceneSpec(seed=41, image_size=(16, 16)), tax, 2))
        ds.samples[0].labels[0, 0] = 9
        manifest = save_dataset(tmp_path / "d", ds)
        res = run_cli("train", "--data", str(manifest), "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "manifest.txt:2" in res.stderr and "label 9" in res.stderr
        assert "Traceback" not in res.stderr

    def test_epoch_mode_runs_both_phases(self, tmp_path):
        from grapy.hierarchy import taxonomy_by_name
        from grapy.synthdata import Dataset, SceneSpec, generate, save_dataset

        tax = taxonomy_by_name("A")
        ds = Dataset("A", tax, generate(SceneSpec(seed=40, image_size=(16, 16)), tax, 6))
        manifest = save_dataset(tmp_path / "d", ds)
        res = run_cli("train", "--data", str(manifest), "--out", str(tmp_path / "o"),
                      "--epochs-pretrain", "1", "--epochs-main", "1",
                      "--batch-size", "3", "--seed", "2")
        assert res.returncode == 0, res.stderr
        rows = [ln.split("\t") for ln in
                (tmp_path / "o" / "train.log").read_text().strip().split("\n")]
        assert len(rows) == 4  # 2 epochs x 2 steps
        lrs = sorted({float(r[3]) for r in rows})
        assert len(lrs) == 2 and np.isclose(lrs[0], lrs[1] * 0.1)  # one step decay

    def test_nonfinite_loss_exits_3(self, bench_dir, tmp_path):
        res = run_cli("train", "--data", str(bench_dir / "A" / "train" / "manifest.txt"),
                      "--out", str(tmp_path), "--overfit", "2", "--steps", "8",
                      "--lr", "1e18", "--clip-norm", "0", "--precision", "f32")
        assert res.returncode == 3
        assert "numerical failure" in res.stderr


class TestEvalPredict:
    def test_eval_reports_six_metric_pairs(self, bench_dir, trained, tmp_path):
        kv = tmp_path / "metrics.kv"
        res = run_cli("eval", "--data", str(bench_dir / "A" / "test" / "manifest.txt"),
                      "--ckpt", str(trained / "model.ckpt"), "--kv-out", str(kv))
        assert res.returncode == 0, res.stderr
        assert res.stdout.count("miou=") >= 6
        pairs = dict(ln.split("=") for ln in kv.read_text().strip().split("\n"))
        assert len(pairs) == 12  # 2 branches x 3 levels x 2 metrics
        for branch in ("main", "gpm"):
            for level in (1, 2, 3):
                assert f"{branch}.level{level}.miou" in pairs

    def test_eval_taxonomy_mismatch_exits_4(self, bench_dir, trained):
        res = run_cli("eval", "--data", str(bench_dir / "B" / "test" / "manifest.txt"),
                      "--ckpt", str(trained / "model.ckpt"))
        assert res.returncode == 4
        assert "taxonom" in res.stderr

    def test_predict_writes_colorized_ppm(self, bench_dir, trained, tmp_path):
        res = run_cli("predict", "--data", str(bench_dir / "A" / "test" / "manifest.txt"),
                      "--ckpt", str(trained / "model.ckpt"), "--out", str(tmp_path),
                      "--limit", "2")
        assert res.returncode == 0, res.stderr
        img = read_ppm(tmp_path / "00000_pred.ppm")
        assert img.shape == (32, 32, 3)
        palette = label_palette(7)
        assert tuple(palette[0]) == (0, 0, 0)  # background is black
        flat = img.reshape(-1, 3)
        allowed = {tuple(c) for c in palette}
        assert {tuple(c) for c in flat} <= allowed


@pytest.fixture(scope="module")
def ml_out(bench_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ml")
    res = run_cli("train-ml", "--data-root", str(bench_dir),
                  "--datasets", "A,B,C", "--finetune", "A", "--audit-sharing",
                  "--out", str(out), "--epochs-pretrain", "1", "--epochs-main", "1",
                  "--epochs-finetune", "1", "--batch-size", "64", "--seed", "5")
    assert res.returncode == 0, res.stderr + res.stdout
    return out, res


class TestTrainMl:

    def test_joint_and_finetuned_checkpoints(self, ml_out):
        out, _ = ml_out
        assert (out / "model_ml.ckpt").exists()
        assert (out / "model_ml_ft_A.ckpt").exists()

    def test_round_robin_visible_in_log(self, ml_out):
        out, _ = ml_out
        rows = [ln.split("\t") for ln in
                (out / "train_ml.log").read_text().strip().split("\n")]
        datasets = [r[2] for r in rows]
        assert datasets[:6] == ["A", "B", "C", "A", "B", "C"]

    def test_audit_passes(self, ml_out):
        _, res = ml_out
        assert "audit: ok" in res.stdout

    def test_ml_eval_picks_matching_branch(self, ml_out, bench_dir):
        out, _ = ml_out
        res = run_cli("eval", "--data", str(bench_dir / "B" / "test" / "manifest.txt"),
                      "--ckpt", str(out / "model_ml.ckpt"))
        assert res.returncode == 0, res.stderr

    def test_fewer_than_two_datasets_usage_error(self, bench_dir, tmp_path):
        res = run_cli("train-ml", "--data-root", str(bench_dir), "--datasets", "A",
                      "--out", str(tmp_path))
        assert res.returncode == 2


def test_gradcheck_command_exits_zero():
    res = run_cli("gradcheck", "--seed", "0")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "max_rel_err" in res.stdout


def test_finetune_log_continues_the_run_numbering(ml_out):
    out, _ = ml_out
    rows = [ln.split("\t") for ln in (out / "train_ml.log").read_text().strip().split("\n")]
    steps = [int(r[1]) for r in rows]
    epochs = [int(r[0]) for r in rows]
    assert steps == list(range(1, len(rows) + 1))  # strictly increasing, no restart
    assert epochs == sorted(epochs) and epochs[-1] == 2  # pretrain 0, joint 1, fine-tune 2
    assert {r[2] for r in rows if r[0] == "2"} == {"A"}


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", ["width", "steps", "overfit", "channels", "iterations",
                                  "precision", "repeated_levels", "gpm_levels"])
def test_bad_setting_exits_2_naming_flag_or_key(case, tmp_path):
    flags = {"width": ["--width", "0"], "steps": ["--steps", "-3"],
             "overfit": ["--overfit", "-1"], "channels": ["--channels", "0"],
             "repeated_levels": ["--gpm-levels", "1,1,2"]}
    lines = {"iterations": "# comment\niterations = 0\n", "precision": "precision = f16\n",
             "gpm_levels": "gpm_levels = 2,2\n"}
    if case in flags:
        argv, where = flags[case], f"argument {flags[case][0]}"
    else:
        argv = ["--config", _config(tmp_path, lines[case])]
        where = f"run.cfg:{lines[case].count(chr(10))}: bad value for {case}"
    res = run_cli("train", "--data", str(tmp_path / "never-read.txt"),
                  "--out", str(tmp_path / "o"), *argv)
    assert res.returncode == 2, res.stderr
    assert where in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o" / "model.ckpt").exists()


@pytest.mark.parametrize("argv", [["--no-gpm"], ["--gpm-levels", "3"],
                                  ["--config", "gpm = 0\n"], ["--config", "gpm_levels = 3\n"]],
                         ids=["no-gpm", "gpm-levels", "gpm-key", "gpm_levels-key"])
def test_train_ml_rejects_the_single_model_pyramid_settings(argv, tmp_path):
    if argv[0] == "--config":
        argv = ["--config", _config(tmp_path, argv[1])]
    res = run_cli("train-ml", "--data-root", str(tmp_path), "--datasets", "A,B",
                  "--out", str(tmp_path / "o"), *argv)
    assert res.returncode == 2, res.stderr
    assert ("run.cfg:1: unknown config key" if argv[0] == "--config"
            else f"unrecognized arguments: {argv[0]}") in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


class TestInputFiles:
    def test_missing_ckpt_exits_2(self, bench_dir, tmp_path):
        res = run_cli("eval", "--data", str(bench_dir / "A" / "test" / "manifest.txt"),
                      "--ckpt", str(tmp_path / "absent.ckpt"))
        assert res.returncode == 2
        assert "absent.ckpt" in res.stderr and "Traceback" not in res.stderr

    def test_missing_manifest_exits_2(self, tmp_path):
        res = run_cli("train", "--data", str(tmp_path / "absent.txt"),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "absent.txt" in res.stderr and "Traceback" not in res.stderr

    def test_missing_config_exits_2(self, tmp_path):
        res = run_cli("train", "--data", str(tmp_path / "absent.txt"),
                      "--out", str(tmp_path / "o"), "--config", str(tmp_path / "absent.cfg"))
        assert res.returncode == 2
        assert "absent.cfg" in res.stderr and "Traceback" not in res.stderr

    def test_manifest_without_samples_exits_2(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("taxonomy\tA\n")
        res = run_cli("train", "--data", str(manifest), "--out", str(tmp_path / "o"),
                      "--overfit", "2", "--steps", "4")
        assert res.returncode == 2
        assert "no samples" in res.stderr and "Traceback" not in res.stderr

    def test_truncated_checkpoint_exits_4(self, bench_dir, trained, tmp_path):
        head = tmp_path / "head.ckpt"
        head.write_bytes((trained / "model.ckpt").read_bytes()[:200])
        res = run_cli("eval", "--data", str(bench_dir / "A" / "test" / "manifest.txt"),
                      "--ckpt", str(head))
        assert res.returncode == 4
        assert "head.ckpt" in res.stderr and "truncated" in res.stderr
        assert "Traceback" not in res.stderr


def test_config_file_that_is_not_utf8_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"lr = 0.1\n\xff\xfe = 3\n")
    res = run_cli("train", "--data", str(tmp_path / "never-read.txt"),
                  "--out", str(tmp_path / "o"), "--config", str(cfg))
    assert res.returncode == 2
    assert "run.cfg:2: unknown config key" in res.stderr and "Traceback" not in res.stderr


def test_manifest_with_unknown_taxonomy_exits_2(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("taxonomy\tZ\n0\tx.ppm\tx.pgm\n")
    res = run_cli("train", "--data", str(manifest), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "manifest.txt:1: unknown taxonomy 'Z'" in res.stderr
    assert "Traceback" not in res.stderr


def test_predict_negative_limit_exits_2(tmp_path):
    res = run_cli("predict", "--data", str(tmp_path / "never-read.txt"),
                  "--ckpt", str(tmp_path / "never-read.ckpt"), "--out", str(tmp_path / "o"),
                  "--limit", "-1")
    assert res.returncode == 2
    assert "argument --limit: must be in [0, inf), got -1" in res.stderr
    assert not (tmp_path / "o").exists()


EVAL_CKPT = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "eval_abc.ckpt")


def _edit_eval_ckpt(case: str, path) -> str:
    """A copy of the joint A/B/C checkpoint broken one way; returns what the error names."""
    from grapy.checkpoint import load_checkpoint, save_checkpoint

    arrays, meta = load_checkpoint(EVAL_CKPT)
    kernel = "branch1.main_head.kernel"
    if case == "missing_parameter":
        del arrays[kernel]
    elif case == "meta_not_a_number":
        meta["iterations"] = "three"
    elif case == "bias_wider_than_kernel":
        arrays[kernel] = arrays[kernel][..., :3]
    elif case == "unexpected_parameter":
        arrays["branch1.main_head.scale"] = np.ones(3)
    elif case == "unknown_pooling":
        meta["pooling"] = "median"
    elif case == "removed_pooling":
        meta["pooling"] = "ave"
    elif case == "fresh_weight_record":
        arrays["shared.gpm.level1.q1_iter2"] = arrays["shared.gpm.level1.q1"]
    elif case == "share_backbone_not_a_bit":
        meta["share_backbone"] = "true"
    elif case == "iterations_zero":
        meta["iterations"] = "0"
    elif case == "iterations_negative":
        meta["iterations"] = "-1"
    elif case == "negative_loss_weight":
        meta["loss_weight"] = "-1.0"
    elif case == "four_channel_backbone":
        first = arrays["shared.backbone.conv1.kernel"]
        arrays["shared.backbone.conv1.kernel"] = np.concatenate([first, first[:, :, :1]], 2)
    elif case == "nan_weight":
        arrays[kernel].flat[5] = np.nan
    elif case == "inf_bias":
        arrays["branch2.main_head.bias"][-1] = np.inf
    elif case == "beyond_f32":
        arrays[kernel][:] = 1e300
    # save_checkpoint refuses NaN and Inf, so such a record is appended raw
    broken = {n: arrays.pop(n) for n in list(arrays) if not np.isfinite(arrays[n]).all()}
    save_checkpoint(path, arrays, meta)
    path.write_bytes(path.read_bytes()
                     + b"".join(checkpoint_record(n, v) for n, v in broken.items()))
    if case.startswith("meta_codes_"):
        blob = path.read_bytes()
        codes = {"meta_codes_above_255": [300.0] * 3, "meta_codes_fraction": [65.5],
                 "meta_codes_nan": [np.nan]}[case]
        path.write_bytes(blob + checkpoint_record("meta.note", codes))
        return f"'meta.note' in the record at offset {len(blob)}"
    if case == "name_not_utf8":
        blob = path.read_bytes()
        assert blob.count(b"branch1.gpm.head") == 1
        path.write_bytes(blob.replace(b"branch1.gpm.head", b"branch1.gpm.\xff\xfe\xfd\xfc"))
        return "not UTF-8"
    return {"meta_not_a_number": "iterations", "unexpected_parameter": "branch1.main_head.scale",
            "unknown_pooling": "median", "four_channel_backbone": "4-channel",
            "removed_pooling": "bad meta.pooling: 'ave'",
            "fresh_weight_record": "unexpected parameter shared.gpm.level1.q1_iter2",
            "share_backbone_not_a_bit": "bad meta.share_backbone: 'true'",
            "iterations_zero": "meta.iterations", "iterations_negative": "meta.iterations",
            "negative_loss_weight": "meta.loss_weight",
            "inf_bias": "'branch2.main_head.bias'",
            "beyond_f32": f"parameter '{kernel}' holds 1e+300, beyond the float32 range "
                          "of --precision f32"}.get(case, kernel)


@pytest.mark.parametrize("case", ["missing_parameter", "meta_not_a_number",
                                  "bias_wider_than_kernel", "name_not_utf8",
                                  "unexpected_parameter", "unknown_pooling",
                                  "removed_pooling", "fresh_weight_record",
                                  "share_backbone_not_a_bit", "four_channel_backbone", "iterations_zero",
                                  "iterations_negative", "negative_loss_weight",
                                  "nan_weight", "inf_bias", "meta_codes_above_255",
                                  "meta_codes_fraction", "meta_codes_nan", "beyond_f32"])
def test_unusable_checkpoint_exits_4_naming_the_key(case, bench_dir, tmp_path):
    ckpt = tmp_path / "edited.ckpt"
    named = _edit_eval_ckpt(case, ckpt)
    res = run_cli("eval", "--data", str(bench_dir / "A" / "test" / "manifest.txt"),
                  "--ckpt", str(ckpt))
    assert res.returncode == 4, res.stderr
    assert "edited.ckpt" in res.stderr and named in res.stderr
    assert "Traceback" not in res.stderr


def test_checkpoint_beyond_f32_loads_under_f64(bench_dir, tmp_path):
    from grapy.checkpoint import CheckpointError
    from grapy.serialize import load_ml_model
    from grapy.tensor import precision

    ckpt = tmp_path / "edited.ckpt"
    _edit_eval_ckpt("beyond_f32", ckpt)
    with precision("f64"):
        ml, _ = load_ml_model(ckpt)
    assert (ml.branch_params(1).main_head.kernel.data == 1e300).all()
    with precision("f32"), pytest.raises(CheckpointError, match="branch1.main_head.kernel"):
        load_ml_model(ckpt)
    res = run_cli("eval", "--data", str(bench_dir / "A" / "test" / "manifest.txt"),
                  "--ckpt", str(ckpt), "--precision", "f64")
    assert res.returncode == 0, res.stderr
    assert "Warning" not in res.stderr


def test_checkpoint_with_repeated_levels_exits_4(bench_dir, tmp_path):
    from grapy.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
    from grapy.hierarchy import taxonomy_by_name
    from grapy.model import ModelParams
    from grapy.serialize import load_model, save_model

    tax, ckpt = taxonomy_by_name("A"), tmp_path / "edited.ckpt"
    save_model(ckpt, ModelParams.init(0, tax, width=4, channels=4), tax)
    arrays, meta = load_checkpoint(ckpt)
    meta["levels"] = "1,2,2"
    save_checkpoint(ckpt, arrays, meta)
    with pytest.raises(CheckpointError, match="meta.levels"):
        load_model(ckpt)
    res = run_cli("eval", "--data", str(bench_dir / "A" / "test" / "manifest.txt"),
                  "--ckpt", str(ckpt))
    assert res.returncode == 4, res.stderr
    assert "edited.ckpt" in res.stderr and "meta.levels" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("text,where", [
    ("lambda = 0.5\nloss_weight = 2.0\nlr = 0.1\nlr = 0.05\n",
     "run.cfg:2: duplicate config key 'loss_weight' (first set on line 1)"),
    ("# comment\nepochs_main = 1\nlr = 0.1\nlr = 0.05\n",
     "run.cfg:4: duplicate config key 'lr' (first set on line 3)"),
    ("batch_size = 2\n\nbatch-size = 4\n",
     "run.cfg:3: duplicate config key 'batch_size' (first set on line 1)"),
], ids=["alias", "same_key", "dashed_spelling"])
def test_config_file_setting_one_setting_twice_exits_2(text, where, tmp_path):
    res = run_cli("train", "--data", str(tmp_path / "never-read.txt"),
                  "--out", str(tmp_path / "o"), "--config", _config(tmp_path, text))
    assert res.returncode == 2, res.stderr
    assert where in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


def test_train_ml_rejects_a_repeated_dataset(bench_dir, tmp_path):
    # A2 is a copy of A: another directory name, the same taxonomy in its manifest
    shutil.copytree(bench_dir / "A", tmp_path / "A2")
    for data_root, datasets in [(bench_dir, "A,A"), (bench_dir, "A,B,A"),
                                (tmp_path, "A2,A2"), (bench_dir, "A," + str(tmp_path / "A2"))]:
        res = run_cli("train-ml", "--data-root", str(data_root), "--datasets", datasets,
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2, (datasets, res.stderr)
        assert "each dataset needs its own branch, got taxonomies A," in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "train-ml"])
def test_failed_load_leaves_no_output_directory(command, tmp_path):
    where = (["--data", str(tmp_path / "missing.txt")] if command == "train"
             else ["--data-root", str(tmp_path / "missing"), "--datasets", "A,B"])
    res = run_cli(command, *where, "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert "missing" in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


def test_checkpoint_with_repeated_taxonomy_exits_4(bench_dir, tmp_path):
    # branch 2 reshaped as a second A branch: every shape fits an A,A,C layout
    from grapy.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
    from grapy.serialize import load_ml_model

    arrays, meta = load_checkpoint(EVAL_CKPT)
    for name in [n for n in arrays if n.startswith("branch2.")]:
        del arrays[name]
    arrays.update({"branch2." + n[len("branch1."):]: a.copy()
                   for n, a in arrays.items() if n.startswith("branch1.")})
    meta["taxonomies"] = "A,A,C"
    ckpt = tmp_path / "edited.ckpt"
    save_checkpoint(ckpt, arrays, meta)
    with pytest.raises(CheckpointError, match="own branch"):
        load_ml_model(ckpt)
    res = run_cli("eval", "--data", str(bench_dir / "A" / "test" / "manifest.txt"),
                  "--ckpt", str(ckpt))
    assert res.returncode == 4, res.stderr
    assert "edited.ckpt" in res.stderr and "A,A,C" in res.stderr
    assert "Traceback" not in res.stderr


def test_failed_sharing_audit_exits_1(bench_dir, tmp_path, monkeypatch, capsys):
    from grapy import cli

    monkeypatch.setattr(cli, "audit_sharing",
                        lambda model, datasets: (False, ["step on dataset 1: injected"]))
    code = cli.main(["train-ml", "--data-root", str(bench_dir), "--datasets", "A,B",
                     "--out", str(tmp_path / "o"), "--epochs-pretrain", "0",
                     "--epochs-main", "0", "--audit-sharing"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_AUDIT == 1
    assert "audit: step on dataset 1: injected" in out
    assert "audit: FAILED" in err and "audit: ok" not in out


@pytest.mark.parametrize("command", ["train", "eval"])
def test_image_without_pixels_exits_2(command, one_sample_manifest, tmp_path):
    manifest = one_sample_manifest(0, 0)
    where = ["--out", str(tmp_path / "o")] if command == "train" else ["--ckpt", EVAL_CKPT]
    res = run_cli(command, "--data", str(manifest), *where)
    assert res.returncode == 2, res.stderr
    assert "manifest.txt:2: image s.ppm has no pixels" in res.stderr
    assert "Traceback" not in res.stderr


def test_manifest_not_utf8_exits_2(one_sample_manifest):
    manifest = one_sample_manifest(2, 2, b"taxonomy\tA\n0\ts.ppm\ts.pgm\xff\n")
    res = run_cli("eval", "--data", str(manifest), "--ckpt", EVAL_CKPT)
    assert res.returncode == 2, res.stderr
    assert "manifest.txt: not UTF-8 at byte offset 24" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("h, w", [(1, 1), (1, 3)])
def test_one_pixel_high_images_train_and_eval(h, w, one_sample_manifest, tmp_path):
    manifest = one_sample_manifest(h, w)
    res = run_cli("train", "--data", str(manifest), "--out", str(tmp_path / "o"),
                  "--overfit", "1", "--steps", "4")
    assert res.returncode == 0, res.stderr
    res = run_cli("eval", "--data", str(manifest), "--ckpt", str(tmp_path / "o" / "model.ckpt"))
    assert res.returncode == 0, res.stderr
    assert "level3: miou=" in res.stdout


def test_failed_kv_report_leaves_the_old_report(bench_dir, tmp_path, monkeypatch):
    from grapy import cli

    kv = tmp_path / "m.kv"
    kv.write_bytes(b"main.level1.miou=0.5\n")

    def broken(report):
        raise RuntimeError("no report")

    monkeypatch.setattr(cli.metrics, "report_kv", broken)
    with pytest.raises(RuntimeError, match="no report"):
        cli.main(["eval", "--data", str(bench_dir / "A" / "test" / "manifest.txt"),
                  "--ckpt", EVAL_CKPT, "--kv-out", str(kv)])
    assert kv.read_bytes() == b"main.level1.miou=0.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.kv"]


def test_kv_out_into_a_missing_directory_exits_2_naming_it(bench_dir, tmp_path):
    kv = tmp_path / "missing" / "m.kv"
    res = run_cli("eval", "--data", str(bench_dir / "A" / "test" / "manifest.txt"),
                  "--ckpt", EVAL_CKPT, "--kv-out", str(kv))
    assert res.returncode == 2, res.stderr
    assert str(kv) in res.stderr and "Traceback" not in res.stderr


def test_predict_main_branch_runs_no_pyramid(bench_dir, tmp_path, monkeypatch, capsys):
    from grapy import cli, model, serialize
    from grapy.imageio import colorize_labels
    from grapy.synthdata import load_dataset
    from grapy.tensor import precision

    manifest = str(bench_dir / "A" / "test" / "manifest.txt")
    with precision("f32"):  # the default --precision
        dataset = load_dataset(manifest)
        params = serialize.load_parser(EVAL_CKPT, dataset.taxonomy, 3)
        full = [model.forward(s.image[None], params, dataset.taxonomy) for s in dataset.samples[:3]]
    assert all(out.y_hat is not None for out in full)

    def no_pyramid(*args, **kwargs):
        raise AssertionError("the pyramid ran")

    monkeypatch.setattr(model, "pyramid_forward", no_pyramid)
    argv = ["predict", "--data", manifest, "--ckpt", EVAL_CKPT, "--limit", "3"]
    with pytest.raises(AssertionError, match="the pyramid ran"):
        cli.main(argv + ["--out", str(tmp_path / "gpm")])
    assert cli.main(argv + ["--out", str(tmp_path / "main"), "--branch", "main"]) == 0
    assert "wrote 3 predictions" in capsys.readouterr().out
    for i, out in enumerate(full):
        want = colorize_labels(out.main_prediction()[0], dataset.taxonomy.k3)
        assert read_ppm(tmp_path / "main" / f"{i:05d}_pred.ppm").tobytes() == want.tobytes()
