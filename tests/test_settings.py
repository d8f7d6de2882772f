"""Every training setting is declared once, on its dataclass field.

Setting it by flag or by config key must give the same config, its default
must be the dataclass default, and `--help` must list it.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from grapy import cli
from grapy.model import TrainConfig
from grapy.mutual import MlTrainConfig

PKG_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
COMMANDS = {
    "train": ((TrainConfig, cli.Precision, cli.Overfit), ["--data", "d", "--out", "o"]),
    "train-ml": ((MlTrainConfig, cli.Precision),
                 ["--data-root", "r", "--datasets", "A,B", "--out", "o"]),
}
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
    train, _, _ = _resolve("train", ["--no-gpm", "--gt-masks", "--gpm-levels", "3",
                                     "--gcr-fresh-weights", "--lambda", "0"], monkeypatch)
    assert (train.with_gpm, train.gt_masks, train.levels, train.fresh_weights,
            train.loss_weight) == (False, True, (3,), True, 0.0)
    ml, _ = _resolve("train-ml", ["--no-share-backbone", "--accumulate"], monkeypatch)
    assert (ml.share_backbone, ml.accumulate) == (False, True)
    ml, _ = _resolve("train-ml", ["--share-backbone"], monkeypatch)
    assert ml.share_backbone


def test_out_of_range_value_is_rejected_by_validate():
    with pytest.raises(ValueError, match="width must be in"):
        TrainConfig(width=0).validate()
    with pytest.raises(ValueError, match="pooling must be one of"):
        TrainConfig(pooling="bogus").validate()
    with pytest.raises(ValueError, match="epochs_finetune"):
        MlTrainConfig(epochs_finetune=-1).validate()


TRAIN_KEYS = {"seed", "precision", "lr", "momentum", "batch_size", "epochs_pretrain",
              "epochs_main", "lr_decay", "loss_weight", "lambda", "clip_norm", "gt_masks", "gpm",
              "gpm_levels", "pooling", "iterations", "gcr_fresh_weights", "width", "channels"}


@pytest.mark.parametrize("command,keys", [
    ("train", TRAIN_KEYS | {"overfit", "steps"}),
    ("train-ml", TRAIN_KEYS | {"epochs_finetune", "share_backbone", "accumulate"}),
])
def test_config_keys_and_flags_keep_their_spellings(command, keys):
    settings = cli._settings(*COMMANDS[command][0])
    accepted = {k for f in settings for k in (cli._key(f), *f.metadata["setting"].aliases)}
    assert accepted == keys
    flags = {"--" + cli._key(f).replace("_", "-") for f in settings}
    assert flags == {"--" + k.replace("_", "-") for k in keys - {"loss_weight"}}
