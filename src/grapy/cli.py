"""Command-line entry point: gen-data, train, train-ml, eval, predict, gradcheck.

Exit codes: 0 success; 1 failed sharing audit (train-ml --audit-sharing);
2 usage, setting, config, dataset or file error; 3 numerical failure;
4 checkpoint unusable or bound to another taxonomy.
Settings are the dataclass fields that declare a ``model.Setting``; flags
and `key = value` config files (--config) are derived from and checked
against it. Flags win over the file, the file over defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial

from . import gradcheck as gradcheck_mod
from . import metrics, serialize
from .checkpoint import CheckpointError, replacing
from .imageio import colorize_labels, write_ppm
from .model import (SeedConfig, TrainConfig, init_model, overfit_train, pretrain_then_train,
                    run_phases, setting)
from .mutual import MlModel, MlTrainConfig, audit_sharing, dataset_column, mutual_phases
from .synthdata import DatasetError, load_dataset, make_benchmark
from .tensor import NumericsError, precision

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CHECKPOINT = 4


class ConfigError(Exception):
    pass


@dataclass
class Precision:
    precision: str = setting("f32", "float width of the arithmetic", choices=("f32", "f64"))


@dataclass
class Limit:
    limit: int | None = setting(None, "write at most N predictions", bounds="[0, inf)",
                                parse=int)


@dataclass
class Overfit:
    overfit: int = setting(0, "train on the first N samples, for --steps", bounds="[0, inf)")
    steps: int = setting(500, "step budget in overfit mode", bounds="[0, inf)")


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


_PARSE = {"int": int, "float": float, "str": str, "bool": _parse_bool}


def _settings(*classes) -> list:
    """The fields of the config ``classes`` that declare a ``Setting``."""
    return [f for cls in classes for f in fields(cls) if "setting" in f.metadata]


def _key(f) -> str:
    return f.metadata["setting"].key or f.name


def _value(f, raw: str):
    """Parse the text of a flag or config value and check it against its range."""
    s = f.metadata["setting"]
    value = (s.parse or _PARSE[f.type])(raw.strip())
    s.check(value)
    return value


def _flag_value(f, raw: str):
    try:
        return _value(f, raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_settings(p: argparse.ArgumentParser, *classes, config: bool = True) -> None:
    if config:
        p.add_argument("--config", help="`key = value` settings file; flags win over it")
    for f in _settings(*classes):
        s = f.metadata["setting"]
        shown = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
        how = (dict(action=argparse.BooleanOptionalAction) if f.type == "bool" else
               dict(type=partial(_flag_value, f), metavar="|".join(s.choices or ()) or None))
        doc = f"{s.help} (default: {shown}{', in ' + s.bounds if s.bounds else ''})"
        p.add_argument("--" + _key(f).replace("_", "-"), dest=f.name, help=doc,
                       default=argparse.SUPPRESS, **how)


def _default(f):
    env = f.metadata["setting"].env
    try:
        return f.default if os.environ.get(env or "") is None else _value(f, os.environ[env])
    except ValueError as exc:
        raise ConfigError(f"{env}: {exc}") from None


def _read_config_file(path, settings: list) -> dict[str, object]:
    by_key = {k: f for f in settings for k in (_key(f), *f.metadata["setting"].aliases)}
    out: dict[str, object] = {}
    first_set: dict[str, int] = {}  # setting name -> line; a key and its alias are one setting
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", "replace")  # stray bytes fail as key or value
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        if key not in by_key:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        name = by_key[key].name
        if name in first_set:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r} "
                              f"(first set on line {first_set[name]})")
        first_set[name] = lineno
        try:
            out[name] = _value(by_key[key], raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


def resolve_settings(args: argparse.Namespace, *classes) -> list:
    """One instance of each config class: flags win over the config file,
    the file over defaults."""
    settings = _settings(*classes)
    values = {f.name: _default(f) for f in settings}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config, settings))
    values.update({f.name: getattr(args, f.name) for f in settings if hasattr(args, f.name)})
    return [cls(**{f.name: values[f.name] for f in _settings(cls)}) for cls in classes]


def cmd_gen_data(args, cfg: SeedConfig) -> int:
    for name, split_paths in make_benchmark(cfg.seed, args.out).items():
        for split, manifest in split_paths.items():
            print(f"{name}/{split}: {manifest}")
    return EXIT_OK


def cmd_train(args, cfg: TrainConfig, fit: Overfit) -> int:
    dataset = load_dataset(args.data)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "train.log")
    with open(log_path, "w", encoding="utf-8") as log:
        if fit.overfit > 0:
            params = overfit_train(dataset.subset(fit.overfit), cfg, fit.steps, log)
        else:
            params = pretrain_then_train(dataset, cfg, log)
    ckpt = os.path.join(args.out, "model.ckpt")
    serialize.save_model(ckpt, params, dataset.taxonomy)
    print(f"checkpoint: {ckpt}\nlog: {log_path}")
    return EXIT_OK


def cmd_train_ml(args, cfg: MlTrainConfig) -> int:
    names = [n.strip() for n in args.datasets.split(",") if n.strip()]
    if args.finetune is not None and args.finetune not in names:
        raise ConfigError(f"--finetune {args.finetune!r} is not among --datasets")
    datasets = [load_dataset(os.path.join(args.data_root, n, "train", "manifest.txt"))
                for n in names]
    target = None if args.finetune is None else datasets[names.index(args.finetune)]
    try:
        model = init_model(MlModel.init, cfg, [ds.taxonomy for ds in datasets])
    except ValueError as exc:  # fewer than 2 datasets, or a taxonomy named twice
        raise ConfigError(str(exc)) from None
    os.makedirs(args.out, exist_ok=True)
    joint, finetune = mutual_phases(datasets, cfg, model, target)
    log_path = os.path.join(args.out, "train_ml.log")

    def save(name, what):
        path = os.path.join(args.out, name)
        serialize.save_ml_model(path, model)
        print(f"{what} checkpoint: {path}")

    with open(log_path, "w", encoding="utf-8") as log:
        at = run_phases(joint, cfg, log, label=dataset_column)
        save("model_ml.ckpt", "joint")
        if target is not None:
            run_phases(finetune, cfg, log, label=dataset_column, at=at)
            save(f"model_ml_ft_{args.finetune}.ckpt", "fine-tuned")
    if args.audit_sharing:
        ok, report = audit_sharing(model, datasets)
        for line in report:
            print(f"audit: {line}")
        if not ok:
            print("audit: FAILED", file=sys.stderr)
            return EXIT_AUDIT
        print("audit: ok")
    print(f"log: {log_path}")
    return EXIT_OK


def _eval_inputs(args):
    dataset = load_dataset(args.data)
    channels = dataset.samples[0].image.shape[-1]
    return dataset, serialize.load_parser(args.ckpt, dataset.taxonomy, channels)


def cmd_eval(args) -> int:
    dataset, params = _eval_inputs(args)
    report, cms = metrics.evaluate_report(params, dataset)
    sys.stdout.write(metrics.report_text(report, cms, dataset))
    if args.kv_out:
        with replacing(args.kv_out) as fh:
            fh.write(metrics.report_kv(report).encode("utf-8"))
        print(f"kv report: {args.kv_out}")
    return EXIT_OK


def cmd_predict(args, lim: Limit) -> int:
    dataset, params = _eval_inputs(args)
    os.makedirs(args.out, exist_ok=True)
    count = len(dataset) if lim.limit is None else min(lim.limit, len(dataset))
    preds_of = metrics.predictions(params, dataset, main_only=args.branch == "main")
    # range first: zip stops before it asks for a forward past the limit
    for i, preds in zip(range(count), preds_of):
        pred = preds.get(args.branch, preds["main"])
        path = os.path.join(args.out, f"{i:05d}_pred.ppm")
        write_ppm(path, colorize_labels(pred, dataset.taxonomy.k3))
    print(f"wrote {count} predictions to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args, cfg: SeedConfig) -> int:
    results, ok = gradcheck_mod.run_all(seed=cfg.seed, verbose=True)
    worst = max(results.values())
    print(f"worst suite max_rel_err={worst:.3e} tolerance={gradcheck_mod.TOLERANCE:g}")
    return EXIT_OK if ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grapy",
                                     description="hierarchical figure parsing at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *classes, required: dict, config=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, settings=classes)
        for flag, flag_help in required.items():
            p.add_argument(flag, required=True, help=flag_help)
        _add_settings(p, *classes, config=config)
        return p

    out = {"--out": "output directory"}
    data, ckpt = {"--data": "dataset manifest"}, {"--ckpt": "checkpoint file"}
    command("gen-data", cmd_gen_data, "generate the three synthetic benchmark datasets",
            SeedConfig, required=out)
    command("train", cmd_train, "single-dataset pretrain + two-branch training",
            TrainConfig, Precision, Overfit, required=data | out)
    p = command("train-ml", cmd_train_ml, "multi-dataset mutual training", MlTrainConfig,
                Precision, required={"--data-root": "directory of <name>/train/manifest.txt",
                                     "--datasets": "comma-separated dataset names", **out})
    p.add_argument("--finetune", help="fine-tune on this dataset afterwards")
    p.add_argument("--audit-sharing", action="store_true")
    p = command("eval", cmd_eval, "mIoU / mean accuracy at levels 1-3, both branches",
                Precision, required=data | ckpt, config=False)
    p.add_argument("--kv-out", help="write machine-readable key=value lines here")
    p = command("predict", cmd_predict, "write colorized prediction PPMs", Precision, Limit,
                required=data | ckpt | out, config=False)
    p.add_argument("--branch", choices=("gpm", "main"), default="gpm")
    command("gradcheck", cmd_gradcheck, "finite-difference gradient suites (64-bit)",
            SeedConfig, required={}, config=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configs = resolve_settings(args, *args.settings)
        prec = next((c.precision for c in configs if isinstance(c, Precision)), None)
        with nullcontext() if prec is None else precision(prec):  # None: the tensor default
            return args.func(args, *(c for c in configs if not isinstance(c, Precision)))
    except NumericsError as exc:
        print(f"numerical failure: {exc}\ndiagnostics: loss or an intermediate value became "
              "non-finite; lower --lr or switch --precision f64", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DatasetError, OSError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT if isinstance(exc, CheckpointError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
