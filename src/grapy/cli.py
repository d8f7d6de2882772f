"""Command-line entry point.

Commands: gen-data, train, train-ml, eval, predict, gradcheck.
Exit codes: 0 success, 2 usage/config/dataset error, 3 numerical failure,
4 artifact mismatch (checkpoint vs dataset taxonomy).

Settings may come from a `key = value` config file (--config); explicit
command-line flags win over the file, the file wins over defaults. Unknown
config keys are rejected. GRAPY_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace as dc_replace

from . import gradcheck as gradcheck_mod
from . import metrics, serialize
from .imageio import colorize_labels, write_ppm
from .model import (TrainConfig, TrainLog, forward, overfit_train,
                    pretrain_then_train)
from .mutual import MlTrainConfig, audit_sharing, train_mutual
from .synthdata import DatasetError, load_dataset, make_benchmark
from .tensor import NumericsError, argmax_channel, precision

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4


class ConfigError(Exception):
    pass


class ArtifactMismatch(Exception):
    pass


def _default_seed() -> int:
    raw = os.environ.get("GRAPY_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"GRAPY_SEED must be an integer, got {raw!r}") from None


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_levels(raw: str) -> tuple:
    try:
        levels = tuple(sorted(int(x) for x in raw.split(",") if x.strip()))
    except ValueError:
        raise ConfigError(f"levels must be comma-separated integers, got {raw!r}") from None
    if not levels or any(l not in (1, 2, 3) for l in levels):
        raise ConfigError(f"levels must be a subset of 1,2,3, got {raw!r}")
    return levels


_CONVERTERS = {int: int, float: float, str: str, bool: _parse_bool, "levels": _parse_levels}


def _read_config_file(path, known: dict[str, object]) -> dict[str, object]:
    out: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip().replace("-", "_")
            if key == "lambda":
                key = "loss_weight"
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _CONVERTERS[known[key]](raw.strip())
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


def _merge_settings(args: argparse.Namespace, known: dict[str, object],
                    defaults: dict[str, object]) -> dict[str, object]:
    merged = dict(defaults)
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config, known))
    for key in known:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
    return merged


_TRAIN_KNOWN = {
    "seed": int, "precision": str, "lr": float, "momentum": float,
    "batch_size": int, "epochs_pretrain": int, "epochs_main": int,
    "lr_decay": float, "loss_weight": float,
    "clip_norm": float, "gt_masks": bool, "gpm": bool, "gpm_levels": "levels", "pooling": str,
    "iterations": int, "gcr_fresh_weights": bool, "width": int, "channels": int,
    "overfit": int, "steps": int,
}
_TRAIN_DEFAULTS = {
    "precision": "f32", "lr": 0.1, "momentum": 0.9, "batch_size": 4,
    "epochs_pretrain": 30, "epochs_main": 30, "lr_decay": 0.1, "clip_norm": 1.0,
    "loss_weight": 1.0, "gt_masks": False, "gpm": True, "gpm_levels": (1, 2, 3),
    "pooling": "both", "iterations": 3, "gcr_fresh_weights": False,
    "width": 16, "channels": 8, "overfit": 0, "steps": 500,
}

_ML_KNOWN = dict(_TRAIN_KNOWN, epochs_finetune=int, share_backbone=bool, accumulate=bool)
_ML_DEFAULTS = dict(_TRAIN_DEFAULTS, epochs_finetune=10, share_backbone=True,
                    accumulate=False)


def _add_train_flags(p: argparse.ArgumentParser, ml: bool = False) -> None:
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--epochs-pretrain", type=int, default=None, dest="epochs_pretrain")
    p.add_argument("--epochs-main", type=int, default=None, dest="epochs_main")
    p.add_argument("--lr-decay", type=float, default=None, dest="lr_decay")
    p.add_argument("--clip-norm", type=float, default=None, dest="clip_norm")
    p.add_argument("--lambda", type=float, default=None, dest="loss_weight",
                   help="pyramid-branch loss weight")
    p.add_argument("--gt-masks", action="store_const", const=True, default=None,
                   dest="gt_masks", help="debug: category masks from ground truth")
    p.add_argument("--no-gpm", action="store_const", const=False, default=None,
                   dest="gpm", help="train the main branch only (no pyramid)")
    p.add_argument("--gpm-levels", type=_parse_levels, default=None, dest="gpm_levels")
    p.add_argument("--pooling", choices=("both", "ave", "max"), default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--gcr-fresh-weights", action="store_const", const=True,
                   default=None, dest="gcr_fresh_weights",
                   help="fresh attention projections per reasoning iteration")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--channels", type=int, default=None)
    if ml:
        p.add_argument("--epochs-finetune", type=int, default=None, dest="epochs_finetune")
        p.add_argument("--share-backbone", action="store_const", const=True,
                       default=None, dest="share_backbone")
        p.add_argument("--no-share-backbone", action="store_const", const=False,
                       dest="share_backbone")
        p.add_argument("--accumulate", action="store_const", const=True, default=None,
                       help="one update per dataset group (summed losses)")
    else:
        p.add_argument("--overfit", type=int, default=None,
                       help="train on the first N samples only, step-budgeted")
        p.add_argument("--steps", type=int, default=None,
                       help="step budget in overfit mode (default 500)")


def _build_train_config(settings: dict, cls=TrainConfig):
    kwargs = dict(
        seed=settings["seed"], lr=settings["lr"], momentum=settings["momentum"],
        batch_size=settings["batch_size"], epochs_pretrain=settings["epochs_pretrain"],
        epochs_main=settings["epochs_main"], lr_decay=settings["lr_decay"],
        clip_norm=settings["clip_norm"], loss_weight=settings["loss_weight"],
        gt_masks=settings["gt_masks"], with_gpm=settings["gpm"],
        pooling=settings["pooling"], levels=settings["gpm_levels"],
        iterations=settings["iterations"], fresh_weights=settings["gcr_fresh_weights"],
        width=settings["width"], channels=settings["channels"],
    )
    if cls is MlTrainConfig:
        kwargs.update(epochs_finetune=settings["epochs_finetune"],
                      share_backbone=settings["share_backbone"],
                      accumulate=settings["accumulate"])
    cfg = cls(**kwargs)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def cmd_gen_data(args) -> int:
    settings = _merge_settings(args, {"seed": int}, {"seed": _default_seed()})
    paths = make_benchmark(settings["seed"], args.out)
    for name, split_paths in paths.items():
        for split, manifest in split_paths.items():
            print(f"{name}/{split}: {manifest}")
    return EXIT_OK


def cmd_train(args) -> int:
    settings = _merge_settings(args, _TRAIN_KNOWN, dict(_TRAIN_DEFAULTS, seed=_default_seed()))
    cfg = _build_train_config(settings)
    os.makedirs(args.out, exist_ok=True)
    with precision(settings["precision"]):
        dataset = load_dataset(args.data)
        if settings["overfit"] > 0:
            dataset = dataset.subset(settings["overfit"])
            if cfg.batch_size > len(dataset):
                cfg.batch_size = len(dataset)
        log_path = os.path.join(args.out, "train.log")
        with TrainLog(log_path) as log:
            if settings["overfit"] > 0:
                params = overfit_train(dataset, cfg, settings["steps"], log)
            else:
                params = pretrain_then_train(dataset, cfg, log)
        ckpt = os.path.join(args.out, "model.ckpt")
        serialize.save_model(ckpt, params, dataset.taxonomy)
    print(f"checkpoint: {ckpt}")
    print(f"log: {log_path}")
    return EXIT_OK


def cmd_train_ml(args) -> int:
    settings = _merge_settings(args, _ML_KNOWN, dict(_ML_DEFAULTS, seed=_default_seed()))
    cfg = _build_train_config(settings, MlTrainConfig)
    names = [n.strip() for n in args.datasets.split(",") if n.strip()]
    if len(names) < 2:
        print("error: mutual learning needs at least 2 datasets", file=sys.stderr)
        return EXIT_USAGE
    finetune_d = None
    if args.finetune is not None:
        if args.finetune not in names:
            print(f"error: --finetune {args.finetune!r} is not among --datasets",
                  file=sys.stderr)
            return EXIT_USAGE
        finetune_d = names.index(args.finetune) + 1
    os.makedirs(args.out, exist_ok=True)
    with precision(settings["precision"]):
        datasets = [load_dataset(os.path.join(args.data_root, n, "train", "manifest.txt"))
                    for n in names]
        log_path = os.path.join(args.out, "train_ml.log")
        with TrainLog(log_path) as log:
            model = train_mutual(datasets, cfg, log)
            joint_ckpt = os.path.join(args.out, "model_ml.ckpt")
            serialize.save_ml_model(joint_ckpt, model)
            print(f"joint checkpoint: {joint_ckpt}")
            if finetune_d is not None:
                ft_cfg = dc_replace(cfg, epochs_pretrain=0, epochs_main=0)
                model = train_mutual(datasets, ft_cfg, log, finetune_on=finetune_d,
                                     model=model)
                ft_ckpt = os.path.join(args.out, f"model_ml_ft_{args.finetune}.ckpt")
                serialize.save_ml_model(ft_ckpt, model)
                print(f"fine-tuned checkpoint: {ft_ckpt}")
        if args.audit_sharing:
            ok, report = audit_sharing(model, datasets)
            for line in report:
                print(f"audit: {line}")
            if not ok:
                print("audit: FAILED", file=sys.stderr)
                return 1
            print("audit: ok")
    print(f"log: {log_path}")
    return EXIT_OK


def _load_eval_params(ckpt_path, dataset):
    arrays_kind = None
    from .checkpoint import load_checkpoint

    _, meta = load_checkpoint(ckpt_path)
    arrays_kind = meta.get("kind", "single")
    if arrays_kind == "single":
        params, meta = serialize.load_model(ckpt_path)
        if meta.get("taxonomies") != dataset.taxonomy.dataset_name:
            raise ArtifactMismatch(
                f"checkpoint is bound to taxonomy {meta.get('taxonomies')!r} but the "
                f"dataset manifest names {dataset.taxonomy.dataset_name!r}")
        return params
    model, meta = serialize.load_ml_model(ckpt_path)
    names = meta.get("taxonomies", "").split(",")
    if dataset.taxonomy.dataset_name not in names:
        raise ArtifactMismatch(
            f"checkpoint branches are bound to taxonomies {names} but the dataset "
            f"manifest names {dataset.taxonomy.dataset_name!r}")
    return model.branch_params(names.index(dataset.taxonomy.dataset_name) + 1)


def cmd_eval(args) -> int:
    with precision(args.precision or "f32"):
        dataset = load_dataset(args.data)
        params = _load_eval_params(args.ckpt, dataset)
        report, cms = metrics.evaluate_report(params, dataset)
        sys.stdout.write(metrics.report_text(report, cms, dataset))
        if args.kv_out:
            with open(args.kv_out, "w", encoding="utf-8") as fh:
                fh.write(metrics.report_kv(report))
            print(f"kv report: {args.kv_out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    with precision(args.precision or "f32"):
        dataset = load_dataset(args.data)
        params = _load_eval_params(args.ckpt, dataset)
        os.makedirs(args.out, exist_ok=True)
        count = len(dataset) if args.limit is None else min(args.limit, len(dataset))
        for i in range(count):
            sample = dataset.samples[i]
            out = forward(sample.image, params, dataset.taxonomy)
            pred = argmax_channel(out.y_hat if args.branch == "gpm" and out.y_hat is not None
                                  else out.y)
            path = os.path.join(args.out, f"{i:05d}_pred.ppm")
            write_ppm(path, colorize_labels(pred, dataset.taxonomy.k3))
        print(f"wrote {count} predictions to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    results, ok = gradcheck_mod.run_all(seed=seed, verbose=True)
    worst = max(results.values())
    print(f"worst suite max_rel_err={worst:.3e} tolerance={gradcheck_mod.TOLERANCE:g}")
    return EXIT_OK if ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grapy",
                                     description="hierarchical figure parsing at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the three synthetic benchmark datasets")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="single-dataset pretrain + two-branch training")
    p.add_argument("--data", required=True, help="dataset manifest path")
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-ml", help="multi-dataset mutual training")
    p.add_argument("--data-root", required=True, dest="data_root",
                   help="directory holding <name>/train/manifest.txt")
    p.add_argument("--datasets", required=True, help="comma-separated dataset names")
    p.add_argument("--finetune", default=None, help="fine-tune on this dataset afterwards")
    p.add_argument("--audit-sharing", action="store_true", dest="audit_sharing")
    p.add_argument("--out", required=True)
    _add_train_flags(p, ml=True)
    p.set_defaults(func=cmd_train_ml)

    p = sub.add_parser("eval", help="mIoU / mean accuracy at levels 1-3, both branches")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    p.add_argument("--kv-out", default=None, dest="kv_out",
                   help="write machine-readable key=value lines here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write colorized prediction PPMs")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--branch", choices=("gpm", "main"), default="gpm")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites (64-bit)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArtifactMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        print("diagnostics: loss or an intermediate value became non-finite; "
              "lower --lr or switch --precision f64", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
