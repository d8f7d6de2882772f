"""Check that fixed-seed runs still give their pinned bytes.

    python tools/pins.py           # exits 1 and names every mismatch
    python tools/pins.py --print   # prints this tree's digests as PINS lines

It runs the ``grapy`` of its own checkout (``src/``) in a temporary
directory. On ``gen-data --seed 3`` it runs the pinned training commands in
f32 (A/train unless the command is ``train-ml``) and hashes each checkpoint
and log. On the A, B and C test splits of ``gen-data --seed 0`` it runs
``eval --kv-out`` against ``perfbench/data/eval_abc.ckpt`` in f32 and f64,
hashing the kv file and the text report, and ``predict`` (every prediction
of both branches), hashing the PPMs in name order. Last it hashes the stdout
of ``gradcheck`` at seeds 0 and 22. Each sha256 is compared with the full
digest in ``PINS``. It takes about 2 minutes on 2 vCPUs, most of it the
``B,C`` run's 60 epochs. BLAS runs on one thread unless its variables are
set, as in the tests.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EVAL_CKPT = ROOT / "perfbench" / "data" / "eval_abc.ckpt"
CONFIG = "lambda = 0.5\ngpm_levels = 2,3\ngt_masks = yes\noverfit = 6\nsteps = 60\nclip_norm = 2\n"
# run directory -> (argv, less the data and --out flags; the output files pinned)
TRAIN = {
    "epoch": (["train", "--epochs-pretrain", "1", "--epochs-main", "2", "--batch-size", "8",
               "--seed", "3", "--lr-decay", "0.5"], ["model.ckpt", "train.log"]),
    "overfit": (["train", "--overfit", "8", "--steps", "500", "--seed", "1"],
                ["model.ckpt", "train.log"]),
    "ml_abc": (["train-ml", "--datasets", "A,B,C", "--epochs-pretrain", "1", "--epochs-main", "1",
                "--batch-size", "16", "--seed", "5", "--finetune", "A", "--epochs-finetune", "2"],
               ["model_ml.ckpt", "model_ml_ft_A.ckpt", "train_ml.log"]),
    "ml_bc_unshared": (["train-ml", "--datasets", "B,C", "--no-share-backbone", "--batch-size",
                        "32", "--seed", "2"], ["model_ml.ckpt", "train_ml.log"]),
    "config": (["train", "--config", "run.cfg", "--seed", "9"], ["model.ckpt", "train.log"]),
}
PINS = {
    "epoch/model.ckpt": "7d95329491d81b2b78c85d8af8f62c52a548f2b6e7759259275ae862010eab21",
    "epoch/train.log": "721a83bc94cea6be1930bdcd99a97c09ec1a69a217a38a4ba5eff9d2187d6a83",
    "overfit/model.ckpt": "85f3fe99a351e5e88fb00cd12218117432ed4acbc6644cd9697eb8cad97c2e64",
    "overfit/train.log": "fd365b305f23f29cd83ed5a2bf1643405600be7281b14faaf36ba48150c21295",
    "ml_abc/model_ml.ckpt": "4aa26c2356cb6e9b51419eaa2ff4ed8564881a1772965c75c369255dabeb89f1",
    "ml_abc/model_ml_ft_A.ckpt": "ac7845f4fe102ef93829b58e625b7819611a6724139b6e79d3b47803f125c492",
    "ml_abc/train_ml.log": "36082680ca1e0ead3200088c1940dee807d5bdc12f97b19ed2997855be0526fd",
    "ml_bc_unshared/model_ml.ckpt": "9e2440b57634195be779c9ae9d4c42964f1aabb58fb5839dae8b2b3f584cf640",
    "ml_bc_unshared/train_ml.log": "f20f619ce8846bd59bfcf01d084b628fa26763276381ca6556d4a79a3b4872bf",
    "config/model.ckpt": "ee28a36901800474001804888de36d162766288781c2dc79d39f790c22a3a290",
    "config/train.log": "6080752014025e4b43715e59b95957a048094b2e43076c7a8e9490a80deee9d8",
    "eval/A_f32.kv": "0cf8b1b751986d6c6305e122b713820cd97fdad6d4d4231a88d4529b2c9aa4a2",
    "eval/A_f32.txt": "ad9c4db6a2612a20bf32a540d02af490ef2a6534c880aec24452eb2c337790cf",
    "eval/A_f64.kv": "0cf8b1b751986d6c6305e122b713820cd97fdad6d4d4231a88d4529b2c9aa4a2",
    "eval/A_f64.txt": "ad9c4db6a2612a20bf32a540d02af490ef2a6534c880aec24452eb2c337790cf",
    "predict/A_gpm": "ac0fd3529bbead6fadd32b7de0e25583899f47b7a871901a1e8e08a309784491",
    "predict/A_main": "a19f8be88b77fdef2533b645c2b75defd800b961587eaac8332993d9c115cfc7",
    "eval/B_f32.kv": "84c03683a123a36f3cfc9e378a1796c42cf7158b42eecce77035dab0efa29227",
    "eval/B_f32.txt": "5b46da4d50e60a62b3e04ee42cde6e2b60f0f1f5f96f123a73e0fccb2f4e375a",
    "eval/B_f64.kv": "84c03683a123a36f3cfc9e378a1796c42cf7158b42eecce77035dab0efa29227",
    "eval/B_f64.txt": "5b46da4d50e60a62b3e04ee42cde6e2b60f0f1f5f96f123a73e0fccb2f4e375a",
    "predict/B_gpm": "ee1138742f26741c6a7f8db47f5ab182bb25eb259e6233a292cad8ef4b7c3104",
    "predict/B_main": "27b338809623c9c9f5fde6282ce7c29435903f7fc7bf07d3edf067bf9babc4cd",
    "eval/C_f32.kv": "e4431946781e7f8790993402d64fc6909c1d70340ab894ce66878c05db7f99f2",
    "eval/C_f32.txt": "5d8b16ff9d445c8fcffaaf71e0140aae93a22d3d3771835d42602ade661f0ff6",
    "eval/C_f64.kv": "e4431946781e7f8790993402d64fc6909c1d70340ab894ce66878c05db7f99f2",
    "eval/C_f64.txt": "5d8b16ff9d445c8fcffaaf71e0140aae93a22d3d3771835d42602ade661f0ff6",
    "predict/C_gpm": "7321bd09e1b34b0eee83fd6fb88db8b71676679e2d338ddd54d9b113feeac09b",
    "predict/C_main": "fa7f638c131bb9513c23d52cc299be05259d14e407dd953b23f600b1da0effe1",
    "gradcheck/seed0": "08c90baa76ae3ea556cf59368b2bc0a3f78b8b94c4da7153c3fb97bf70b23881",
    "gradcheck/seed22": "67c375a187e19edf9529a4ec6df42aa585c4d96d19c0e033d0f7ef2fcf07801d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _grapy(argv, cwd) -> str:
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           **os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-m", "grapy", *argv], cwd=cwd, env=env,
                         capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit(f"grapy {' '.join(argv)} exited {res.returncode}:\n{res.stderr}")
    return res.stdout


def digests(work: Path):
    """Yield (pin name, sha256) of every pinned output, made under ``work``."""
    _grapy(["gen-data", "--seed", "3", "--out", "d3"], work)
    (work / "run.cfg").write_text(CONFIG)
    for name, (argv, outputs) in TRAIN.items():
        data = (["--data-root", "d3"] if argv[0] == "train-ml"
                else ["--data", "d3/A/train/manifest.txt"])
        _grapy([*argv, *data, "--out", name], work)
        for out in outputs:
            yield f"{name}/{out}", _sha((work / name / out).read_bytes())
    _grapy(["gen-data", "--seed", "0", "--out", "d0"], work)
    for split in "ABC":
        data = ["--data", f"d0/{split}/test/manifest.txt", "--ckpt", str(EVAL_CKPT)]
        for prec in ("f32", "f64"):
            kv = f"{split}_{prec}.kv"
            report = _grapy(["eval", *data, "--precision", prec, "--kv-out", kv], work)
            yield f"eval/{kv}", _sha((work / kv).read_bytes())
            text = report.replace(f"kv report: {kv}\n", "")  # the report alone
            yield f"eval/{split}_{prec}.txt", _sha(text.encode())
        for branch, extra in (("gpm", []), ("main", ["--branch", "main"])):
            out = work / f"pred_{split}_{branch}"
            _grapy(["predict", *data, "--out", out.name, *extra], work)
            blob = b"".join(p.name.encode() + p.read_bytes() for p in sorted(out.iterdir()))
            yield f"predict/{split}_{branch}", _sha(blob)
    for seed in ("0", "22"):
        yield f"gradcheck/seed{seed}", _sha(_grapy(["gradcheck", "--seed", seed], work).encode())


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        got = dict(digests(Path(tmp)))
    if "--print" in argv:
        for name, sha in got.items():
            print(f'    "{name}": "{sha}",')
        return 0
    bad = sorted(name for name in PINS.keys() | got.keys() if got.get(name) != PINS.get(name))
    for name in got:
        print(f"{'MISMATCH' if name in bad else 'ok':8s} {name} {got[name]}")
    for name in bad:
        print(f"mismatch: {name}: got {got.get(name)}, pinned {PINS.get(name)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
