"""Every training setting is declared once, on its dataclass field.

Setting it by flag or by config key must give the same config, its default
must be the dataclass default, and `--help` must list it.
"""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from grapy import cli
from grapy.model import TrainConfig
from grapy.mutual import MlTrainConfig
from grapy.tensor import get_default_dtype, precision

PKG_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
REQUIRED = {
    "train": ["--data", "d", "--out", "o"],
    "train-ml": ["--data-root", "r", "--datasets", "A,B", "--out", "o"],
}
# each command's settings classes, as its sub-parser records them for ``main``
COMMANDS = {command: (cli.build_parser().parse_args([command, *required]).settings, required)
            for command, required in REQUIRED.items()}
CASES = [(command, f) for command, (classes, _) in COMMANDS.items()
         for f in cli._settings(*classes)]


def _other_value(f):
    """A valid value different from the default, and its text."""
    s = f.metadata["setting"]
    if f.type == "bool":
        value = not f.default
    elif s.choices:
        value = next(c for c in s.choices if c != f.default)
    elif isinstance(f.default, tuple):
        value = (2, 3)
    elif f.type == "int":
        value = f.default + 1
    else:
        value = f.default / 2
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    return value, text


def _resolve(command, extra, monkeypatch):
    monkeypatch.delenv("GRAPY_SEED", raising=False)
    classes, required = COMMANDS[command]
    args = cli.build_parser().parse_args([command, *required, *extra])
    return cli.resolve_settings(args, *classes)


def test_commands_record_their_settings_classes():
    assert COMMANDS["train"][0] == (TrainConfig, cli.Precision, cli.Overfit)
    assert COMMANDS["train-ml"][0] == (MlTrainConfig, cli.Precision)


@pytest.mark.parametrize("argv,outer,want", [
    (["train", *REQUIRED["train"], "--precision", "f64"], "f32", np.float64),
    (["train", *REQUIRED["train"]], "f64", np.float32),
    (["train-ml", *REQUIRED["train-ml"], "--precision", "f64"], "f32", np.float64),
    (["eval", "--data", "d", "--ckpt", "c"], "f64", np.float32),
    (["predict", "--data", "d", "--ckpt", "c", "--out", "o", "--precision", "f64"], "f32",
     np.float64),
    (["gen-data", "--out", "o"], "f32", np.float32),
    (["gen-data", "--out", "o"], "f64", np.float64),
    (["gradcheck"], "f32", np.float32),
    (["gradcheck"], "f64", np.float64),
], ids=["train-f64", "train-default", "train-ml-f64", "eval-default", "predict-f64",
        "gen-data-f32", "gen-data-f64", "gradcheck-f32", "gradcheck-f64"])
def test_main_runs_each_command_under_its_precision(argv, outer, want, monkeypatch):
    """``--precision`` where a command has it, else the tensor default as it was."""
    monkeypatch.delenv("GRAPY_SEED", raising=False)
    seen = []
    monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"),
                        lambda args, *configs: seen.append((get_default_dtype(), configs)) or 0)
    with precision(outer):
        assert cli.main(argv) == 0
        assert get_default_dtype() is {"f32": np.float32, "f64": np.float64}[outer]
    (dtype, configs), = seen
    assert dtype is want
    classes = cli.build_parser().parse_args(argv).settings
    assert configs == tuple(cls() for cls in classes if cls is not cli.Precision)


def test_every_config_field_is_a_setting_except_image_channels():
    for cls in (TrainConfig, MlTrainConfig):
        plain = {f.name for f in dataclasses.fields(cls) if "setting" not in f.metadata}
        assert plain == {"c_in"}


@pytest.mark.parametrize("command,f", CASES, ids=[f"{c}-{f.name}" for c, f in CASES])
def test_flag_and_config_key_agree(command, f, tmp_path, monkeypatch):
    s = f.metadata["setting"]
    value, text = _other_value(f)
    key = s.key or f.name
    flag = "--" + key.replace("_", "-")
    by_flag = _resolve(command, [f"--no-{flag[2:]}" if value is False else flag]
                       if f.type == "bool" else [flag, text], monkeypatch)
    for config_key in (key, *s.aliases):
        cfg = tmp_path / f"{config_key}.cfg"
        cfg.write_text(f"{config_key} = {text}\n")
        by_key = _resolve(command, ["--config", str(cfg)], monkeypatch)
        assert by_key == by_flag, config_key
    owner = next(obj for obj in by_flag if f.name in {x.name for x in dataclasses.fields(obj)})
    assert getattr(owner, f.name) == value


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_defaults_are_the_dataclass_defaults(command, monkeypatch):
    classes, _ = COMMANDS[command]
    assert _resolve(command, [], monkeypatch) == [cls() for cls in classes]


def test_flag_wins_over_config_key(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.25\nbatch_size = 2\n")
    train, _, _ = _resolve("train", ["--config", str(cfg), "--lambda", "0.5"], monkeypatch)
    assert (train.loss_weight, train.batch_size) == (0.5, 2)


def test_help_lists_every_setting():
    env = dict(os.environ, PYTHONPATH=PKG_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for command, (classes, _) in COMMANDS.items():
        res = subprocess.run([sys.executable, "-m", "grapy", command, "--help"],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0
        for f in cli._settings(*classes):
            key = f.metadata["setting"].key or f.name
            assert "--" + key.replace("_", "-") in res.stdout, (command, f.name)


def test_existing_flag_spellings_still_parse(monkeypatch):
    train, _, _ = _resolve("train", ["--no-gpm", "--gpm-levels", "3", "--lambda", "0"],
                           monkeypatch)
    assert (train.with_gpm, train.levels, train.loss_weight) == (False, (3,), 0.0)
    ml, _ = _resolve("train-ml", ["--no-share-backbone"], monkeypatch)
    assert not ml.share_backbone
    ml, _ = _resolve("train-ml", ["--share-backbone"], monkeypatch)
    assert ml.share_backbone


def test_out_of_range_value_is_rejected_when_built():
    with pytest.raises(ValueError, match="width must be in"):
        TrainConfig(width=0)
    with pytest.raises(ValueError, match="iterations must be in"):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError, match="epochs_finetune"):
        MlTrainConfig(epochs_finetune=-1)


TRAIN_KEYS = {"seed", "precision", "lr", "momentum", "batch_size", "epochs_pretrain",
              "epochs_main", "lr_decay", "loss_weight", "lambda", "clip_norm", "iterations",
              "width", "channels"}


@pytest.mark.parametrize("command,keys", [
    ("train", TRAIN_KEYS | {"gpm", "gpm_levels", "overfit", "steps"}),
    ("train-ml", TRAIN_KEYS | {"epochs_finetune", "share_backbone"}),
])
def test_config_keys_and_flags_keep_their_spellings(command, keys):
    settings = cli._settings(*COMMANDS[command][0])
    accepted = {k for f in settings for k in (cli._key(f), *f.metadata["setting"].aliases)}
    assert accepted == keys
    flags = {"--" + cli._key(f).replace("_", "-") for f in settings}
    assert flags == {"--" + k.replace("_", "-") for k in keys - {"loss_weight"}}


@pytest.mark.parametrize("command,key,flag", [
    ("train", "pooling", ["--pooling", "ave"]),
    ("train", "gcr_fresh_weights", ["--gcr-fresh-weights"]),
    ("train-ml", "accumulate", ["--accumulate"]),
    ("train", "gt_masks", ["--gt-masks"]),
])
def test_removed_modes_exit_2_as_unknown_flag_and_key(command, key, flag, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.delenv("GRAPY_SEED", raising=False)
    required = COMMANDS[command][1]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *required, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"lr = 0.1\n{key} = 1\n")
    assert cli.main([command, *required, "--config", str(cfg)]) == 2
    assert f"run.cfg:2: unknown config key {key!r}" in capsys.readouterr().err


def _readme_settings_rows():
    """(flag cell, config keys) of each row of README's settings table."""
    with open(README, encoding="utf-8") as fh:
        table = fh.read().split("| Flag | Config key |")[1].split("\n\n")[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    return [(flag, re.findall(r"`([^`]+)`", keys)) for flag, keys in rows]


def test_readme_settings_table_lists_exactly_the_config_keys():
    # the table documents what a config file can set: the settings of train and train-ml
    settings = {f for classes, _ in COMMANDS.values() for f in cli._settings(*classes)}
    accepted = {k for f in settings for k in (cli._key(f), *f.metadata["setting"].aliases)}
    rows = _readme_settings_rows()
    documented = [k for _, keys in rows for k in keys]
    assert sorted(documented) == sorted(accepted)
    for flag, keys in rows:
        assert f"`--{keys[0].replace('_', '-')}`" in flag, (flag, keys)
