"""Sweep the overfit gate's setup over cfg seeds 0-13.

    python tools/gate_sweep.py

It mirrors ``tests/test_acceptance.py::test_overfit_reaches_095_within_500_steps``:
A-taxonomy scenes from ``SceneSpec(seed=101, noise_sigma=0.05,
palette_jitter=0.12)``, 8 images, ``overfit_train`` for 500 steps in f32 with
lr 0.1, no lr decay, batch 8 and clip norm 1, scored by the pyramid branch's
level-3 mIoU on those images. Only the config seed varies. The test runs seed
1 and passes at mIoU >= 0.95; the sweep shows how much margin the other seeds
leave, which an arithmetic change to training must not silently erode.

It prints one line per seed: mIoU, pass or fail, and the sha256 of the
trained parameters' bytes in ``named()`` order, so two trees can be compared
seed by seed. Last come the pass count and the lowest mIoU. It runs the
``grapy`` of its own checkout (``src/``) on two spawned workers with one BLAS
thread each, takes no flags and exits 0; it takes about 2 minutes on 2 vCPUs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in the spawned workers
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from grapy.hierarchy import taxonomy_by_name  # noqa: E402
from grapy.metrics import evaluate_report  # noqa: E402
from grapy.model import TrainConfig, overfit_train  # noqa: E402
from grapy.synthdata import Dataset, SceneSpec, generate  # noqa: E402
from grapy.tensor import precision  # noqa: E402

SEEDS = range(14)
GATE = 0.95


def run_seed(seed: int) -> tuple[float, str]:
    """The gate's level-3 mIoU at cfg seed ``seed`` and the sha256 of its parameters."""
    tax = taxonomy_by_name("A")
    spec = SceneSpec(seed=101, noise_sigma=0.05, palette_jitter=0.12)
    subset = Dataset("A", tax, generate(spec, tax, 8))
    with precision("f32"):
        cfg = TrainConfig(seed=seed, lr=0.1, lr_decay=1.0, batch_size=8, clip_norm=1.0)
        params = overfit_train(subset, cfg, steps=500)
        miou = evaluate_report(params, subset)[0]["gpm"][3][0]
    digest = hashlib.sha256(b"".join(t.data.tobytes() for t in params.named().values()))
    return miou, digest.hexdigest()


def main() -> int:
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = dict(zip(SEEDS, pool.map(run_seed, SEEDS)))
    for seed, (miou, digest) in results.items():
        print(f"seed {seed:2d}  miou={miou:.4f}  {'pass' if miou >= GATE else 'FAIL'}  {digest}")
    lowest = min(results, key=lambda s: results[s][0])
    passed = sum(miou >= GATE for miou, _ in results.values())
    print(f"passed {passed} of {len(results)}; lowest miou={results[lowest][0]:.4f} "
          f"(seed {lowest})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
