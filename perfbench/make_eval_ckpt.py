"""Rebuild ``perfbench/data/eval_abc.ckpt``, the joint checkpoint eval_mutual_abc reads.

    python3 perfbench/make_eval_ckpt.py

It runs the CLI: ``grapy gen-data --seed 0``, then ``grapy train-ml`` on A, B
and C in f32 (two joint pretrain epochs, four joint two-branch epochs). An
untrained model would not do: its near-constant argmax leaves most pyramid
categories empty and makes pooling artificially cheap.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from grapy.cli import main  # noqa: E402


def build() -> str:
    work = os.path.join(HERE, "_work", "eval_ckpt")
    shutil.rmtree(work, ignore_errors=True)
    data, out = os.path.join(work, "data"), os.path.join(work, "run")
    for argv in (["gen-data", "--seed", "0", "--out", data],
                 ["train-ml", "--data-root", data, "--datasets", "A,B,C", "--seed", "0",
                  "--precision", "f32", "--epochs-pretrain", "2", "--epochs-main", "4",
                  "--out", out]):
        code = main(argv)
        if code != 0:
            raise SystemExit(f"grapy {argv[0]} exited with code {code}")
    target = os.path.join(HERE, "data", "eval_abc.ckpt")
    os.makedirs(os.path.dirname(target), exist_ok=True)
    shutil.copyfile(os.path.join(out, "model_ml.ckpt"), target)
    return target


if __name__ == "__main__":
    print(f"wrote {build()}")
