"""Deterministic procedural generator of articulated stick-figure scenes.

Each figure is a head disc, a torso rectangle, two 2-segment arms and two
2-segment legs, posed with seeded random angles and sizes. A sample is
painted in one stacked pass: every primitive's inside test and position
fraction t (0 at the top of head and torso, at the near end of a limb
segment) are computed once over the parts' common bounding box. The last
part drawn over a pixel owns it (per figure arms, legs, torso, head; later
figures over earlier ones), so overlapping figures occlude like painted layers.

The owner's (taxonomy, part, segment) rule labels the pixel: thresholds on t
split a part into fine labels, and t exactly at a threshold takes the later one.

    part   segment  A         B                             C
    head            Head      Hat <0.30 Hair <0.55 Face     Hair <0.45 Face
    torso           Torso     TorsoSkin <0.20 UpperClothes  Torso <0.86 Belt
    arm    upper    UpperArm  UpperArm                      Arm
    arm    lower    LowerArm  LowerArm                      Arm <0.55 Hand
    leg    upper    UpperLeg  Pants <0.65 UpperLeg          UpperLeg
    leg    lower    LowerLeg  LowerLeg <0.65 Shoe           LowerLeg <0.65 Shoe

Colors carry the part family: all fine labels inside one family share the
family base color, shifted per figure (and slightly per fine label) by
``palette_jitter``. With zero jitter every Level-2 region is color-constant,
so fine labels are distinguishable only by geometry.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import imageio
from .hierarchy import Taxonomy, TaxonomyError, taxonomy_by_name, validate


class GenerationError(RuntimeError):
    """A figure could not be placed inside the frame."""


class DatasetError(ValueError):
    """A manifest or one of its samples is unusable; names the file and line."""


@dataclass(frozen=True)
class SceneSpec:
    """Deterministic scene recipe; every sample is a pure function of (seed, index)."""

    seed: int = 0
    image_size: tuple[int, int] = (32, 32)
    figures_per_image: tuple[int, int] = (1, 2)
    noise_sigma: float = 0.10
    palette_jitter: float = 0.12

    def __post_init__(self):
        h, w = self.image_size
        if h < 16 or w < 16:
            raise ValueError(f"image size must be at least 16x16, got {self.image_size}")
        lo, hi = self.figures_per_image
        if not 1 <= lo <= hi:
            raise ValueError(f"figures_per_image must be an increasing range from >= 1, got {self.figures_per_image}")


@dataclass
class Sample:
    image: np.ndarray   # (H, W, 3) float in [0, 1]
    labels: np.ndarray  # (H, W) int64 fine labels


@dataclass
class SampleBatch:
    images: list[np.ndarray]
    labels: list[np.ndarray]
    dataset_index: int = 0


@dataclass
class Dataset:
    name: str
    taxonomy: Taxonomy
    samples: list[Sample]

    def __len__(self) -> int:
        return len(self.samples)

    def subset(self, n: int) -> "Dataset":
        return Dataset(self.name, self.taxonomy, self.samples[:n])

    def batches(self, rng: np.random.Generator, batch_size: int, dataset_index: int = 0):
        order = rng.permutation(len(self.samples))
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            yield SampleBatch(images=[self.samples[i].image for i in idx],
                              labels=[self.samples[i].labels for i in idx],
                              dataset_index=dataset_index)


# Families in the order of their base colors and of each figure's jitter draws.
_FAMILIES = ("arm", "leg", "torso", "head")
_FAMILY_BASE = np.array([[0.82, 0.57, 0.24], [0.33, 0.62, 0.30],
                         [0.24, 0.42, 0.78], [0.87, 0.70, 0.56]])
_BG_BASE = np.array([0.91, 0.91, 0.88])

# (taxonomy, part, segment) -> (thresholds, names): the fine label at
# position fraction t is names[searchsorted(thresholds, t, side="right")].
_RULES = {
    "A": {("arm", 0): ((), ("UpperArm",)), ("arm", 1): ((), ("LowerArm",)),
          ("leg", 0): ((), ("UpperLeg",)), ("leg", 1): ((), ("LowerLeg",)),
          ("torso", 0): ((), ("Torso",)), ("head", 0): ((), ("Head",))},
    "B": {("arm", 0): ((), ("UpperArm",)), ("arm", 1): ((), ("LowerArm",)),
          ("leg", 0): ((0.65,), ("Pants", "UpperLeg")),
          ("leg", 1): ((0.65,), ("LowerLeg", "Shoe")),
          ("torso", 0): ((0.20,), ("TorsoSkin", "UpperClothes")),
          ("head", 0): ((0.30, 0.55), ("Hat", "Hair", "Face"))},
    "C": {("arm", 0): ((), ("Arm",)), ("arm", 1): ((0.55,), ("Arm", "Hand")),
          ("leg", 0): ((), ("UpperLeg",)), ("leg", 1): ((0.65,), ("LowerLeg", "Shoe")),
          ("torso", 0): ((0.86,), ("Torso", "Belt")),
          ("head", 0): ((0.45,), ("Hair", "Face"))},
}


@functools.cache
def _fine_offsets(tax: Taxonomy) -> np.ndarray:
    """Stable per-fine-label color nudges in [-1, 1], hashed from the name."""
    out = np.zeros((tax.k3, 3))
    for i, name in enumerate(tax.fine_labels[1:], 1):
        digest = hashlib.md5(name.encode("utf-8")).digest()
        out[i] = [digest[j] / 127.5 - 1.0 for j in range(3)]
    return out


@functools.cache
def _label_table(tax: Taxonomy) -> tuple[np.ndarray, dict, np.ndarray]:
    """``_RULES`` of ``tax`` as ``(cuts, rule, lut)``: the sorted thresholds of
    all its rules, the row of each (part, segment), and the fine label of each
    row for each band ``searchsorted(cuts, t, side="right")`` of t."""
    rules = _RULES.get(tax.dataset_name)
    if rules is None:
        raise GenerationError(f"no figure refinement rules for taxonomy {tax.dataset_name!r}; "
                              "generation supports the built-in taxonomies A, B, C")
    index = {n: i for i, n in enumerate(tax.fine_labels)}
    cuts = np.array(sorted({c for thresholds, _ in rules.values() for c in thresholds}))
    lut = np.empty((len(rules), len(cuts) + 1), np.int64)
    for row, (thresholds, names) in enumerate(rules.values()):
        for name in names:
            if name not in index:
                raise GenerationError(f"taxonomy {tax.dataset_name!r} has no fine label "
                                      f"{name!r}, which its figure rules paint")
        lut[row] = [index[names[k]] for k in
                    np.searchsorted(thresholds, [-np.inf, *cuts], side="right")]
    return cuts, {key: row for row, key in enumerate(rules)}, lut


def _bounds(prims) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1): the smallest box holding every primitive."""
    boxes = []
    for kind, *p in prims:
        if kind == "disc":
            cx, cy, r = p
            boxes.append((cx - r, cy - r, cx + r, cy + r))
        elif kind == "rect":
            boxes.append(p)
        else:
            ax, ay, bx, by, r = p
            boxes.append((min(ax, bx) - r, min(ay, by) - r, max(ax, bx) + r, max(ay, by) + r))
    x0, y0, x1, y1 = zip(*boxes)
    return min(x0), min(y0), max(x1), max(y1)


# Inside test and position fraction t of stacked primitives (one per leading
# index of the parameters) at pixel rows ys and columns xs.
def _capsules(ys, xs, x0, y0, x1, y1, r):
    dx, dy = x1 - x0, y1 - y0
    l2 = np.maximum(dx * dx + dy * dy, 1e-9)
    t = np.clip(((xs - x0) * dx + (ys - y0) * dy) / l2, 0.0, 1.0)
    return (xs - (x0 + t * dx)) ** 2 + (ys - (y0 + t * dy)) ** 2 <= r * r, t


def _rects(ys, xs, x0, y0, x1, y1):
    inside = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    return inside, np.clip((ys - y0) / np.maximum(y1 - y0, 1e-9), 0.0, 1.0)


def _discs(ys, xs, cx, cy, r):
    inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    return inside, np.clip((ys - (cy - r)) / (2.0 * r), 0.0, 1.0)


_RASTERS = {"capsule": _capsules, "rect": _rects, "disc": _discs}


def _figure_geometry(rng: np.random.Generator, h_px: int, w_px: int):
    """Sample one articulated figure that fits the frame; 100 attempts max.

    Returns (part, segment, primitive) triples in draw order: arms, legs,
    torso (covering the shoulder and hip joints), head.
    """
    for _ in range(100):
        fh = rng.uniform(0.60, 0.82) * h_px
        cx = rng.uniform(0.34, 0.66) * w_px
        top = rng.uniform(0.04, 0.14) * h_px
        head_r = 0.105 * fh * rng.uniform(0.85, 1.15)
        torso_w = 0.30 * fh * rng.uniform(0.85, 1.15)
        torso_h = 0.33 * fh * rng.uniform(0.90, 1.10)
        arm_seg = 0.17 * fh
        arm_r = max(1.35, 0.050 * fh)
        leg_seg = 0.185 * fh
        leg_r = max(1.55, 0.058 * fh)
        neck_y = top + 2.0 * head_r
        x0t, x1t = cx - torso_w / 2.0, cx + torso_w / 2.0
        y1t = neck_y + torso_h
        shoulder_y = neck_y + 0.04 * fh
        parts = []
        for side in (-1.0, 1.0):
            sx = cx + side * torso_w / 2.0
            a1 = np.deg2rad(rng.uniform(18.0, 58.0))
            ex = sx + side * np.sin(a1) * arm_seg
            ey = shoulder_y + np.cos(a1) * arm_seg
            a2 = a1 + np.deg2rad(rng.uniform(-55.0, 25.0))
            wx = ex + side * np.sin(a2) * arm_seg
            wy = ey + np.cos(a2) * arm_seg
            parts.append(("arm", 0, ("capsule", sx, shoulder_y, ex, ey, arm_r)))
            parts.append(("arm", 1, ("capsule", ex, ey, wx, wy, arm_r)))
        for side in (-1.0, 1.0):
            hx = cx + side * torso_w * 0.28
            g1 = np.deg2rad(rng.uniform(2.0, 15.0))
            kx = hx + side * np.sin(g1) * leg_seg
            ky = y1t + np.cos(g1) * leg_seg
            g2 = np.deg2rad(rng.uniform(-8.0, 10.0))
            ax = kx + side * np.sin(g2) * leg_seg
            ay = ky + np.cos(g2) * leg_seg
            parts.append(("leg", 0, ("capsule", hx, y1t, kx, ky, leg_r)))
            parts.append(("leg", 1, ("capsule", kx, ky, ax, ay, leg_r)))
        parts.append(("torso", 0, ("rect", x0t, neck_y, x1t, y1t)))
        parts.append(("head", 0, ("disc", cx, top + head_r, head_r)))

        if _fits(parts, h_px, w_px):
            return parts
    raise GenerationError(f"could not place a figure in a {h_px}x{w_px} frame "
                          "after 100 rejection-sampling attempts")


def _fits(parts, h_px, w_px) -> bool:
    x0, y0, x1, y1 = _bounds(prim for _, _, prim in parts)
    return x0 >= 0.5 and y0 >= 0.5 and x1 <= w_px - 1.5 and y1 <= h_px - 1.5


def generate_sample(spec: SceneSpec, taxonomy: Taxonomy, index: int) -> Sample:
    """Generate sample ``index`` of ``spec`` labelled in ``taxonomy``."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
    h, w = spec.image_size
    cuts, rule, lut = _label_table(taxonomy)
    bg = np.clip(_BG_BASE + spec.palette_jitter * rng.normal(0.0, 1.0, 3), 0.0, 1.0)
    lo, hi = spec.figures_per_image
    parts, jitter = [], []
    for _ in range(int(rng.integers(lo, hi, endpoint=True))):
        figure = _figure_geometry(rng, h, w)
        draws = rng.normal(0.0, 1.0, (len(_FAMILIES), 3))
        parts += figure
        jitter += [draws[_FAMILIES.index(part)] for part, _, _ in figure]

    # Inside test and position fraction of every primitive over the parts'
    # common box; a pixel outside a primitive's own box is never inside it.
    x0, y0, x1, y1 = _bounds(prim for _, _, prim in parts)
    iy0, iy1 = max(0, math.floor(y0)), min(h - 1, math.ceil(y1))
    ix0, ix1 = max(0, math.floor(x0)), min(w - 1, math.ceil(x1))
    ys, xs = np.arange(iy0, iy1 + 1)[:, None], np.arange(ix0, ix1 + 1)
    inside = np.empty((len(parts), len(ys), len(xs)), bool)
    t = np.empty(inside.shape)
    for kind, raster in _RASTERS.items():
        sel = [i for i, (_, _, prim) in enumerate(parts) if prim[0] == kind]
        params = np.array([parts[i][2][1:] for i in sel]).T[:, :, None, None]
        inside[sel], t[sel] = raster(ys, xs, *params)

    # The last part drawn over a pixel owns it, and labels and colors it.
    yy, xx = inside.any(axis=0).nonzero()
    owner = len(parts) - 1 - inside[::-1].argmax(axis=0)[yy, xx]
    rows = np.array([rule[part, seg] for part, seg, _ in parts])
    fam = np.array([_FAMILIES.index(part) for part, _, _ in parts])
    fids = lut[rows[owner], np.searchsorted(cuts, t[owner, yy, xx], side="right")]
    color = _FAMILY_BASE[fam[owner]] + spec.palette_jitter * (
        0.8 * _fine_offsets(taxonomy)[fids] + np.array(jitter)[owner])

    fine, img = np.zeros((h, w), np.int64), np.tile(bg, (h, w, 1))
    fine[iy0 + yy, ix0 + xx] = fids
    img[iy0 + yy, ix0 + xx] = np.clip(color, 0.0, 1.0)
    if spec.noise_sigma > 0:
        img = np.clip(img + rng.normal(0.0, spec.noise_sigma, img.shape), 0.0, 1.0)
    return Sample(image=img, labels=fine)


def generate(spec: SceneSpec, taxonomy: Taxonomy, count: int) -> list[Sample]:
    """Generate ``count`` samples; sample i depends only on (spec, taxonomy, i)."""
    bad = validate(taxonomy)
    if bad:
        raise ValueError("invalid taxonomy: " + "; ".join(bad))
    return [generate_sample(spec, taxonomy, i) for i in range(count)]


# ---------------------------------------------------------------------------
# On-disk format: PPM images, PGM label maps, tab-separated manifest
# ---------------------------------------------------------------------------

def write_sample(path_stem, sample: Sample) -> tuple[str, str]:
    """Write image as <stem>.ppm and labels as <stem>.pgm; returns both paths."""
    ppm, pgm = f"{path_stem}.ppm", f"{path_stem}.pgm"
    imageio.write_ppm(ppm, imageio.quantize_image(sample.image))
    if sample.labels.max() > 255:
        raise ValueError("PGM label maps cap at 255 labels")
    imageio.write_pgm(pgm, sample.labels.astype(np.uint8))
    return ppm, pgm


def read_sample(image_path, label_path) -> Sample:
    img = imageio.read_ppm(image_path)
    lab = imageio.read_pgm(label_path)
    if img.shape[:2] != lab.shape:
        raise ValueError(f"image {image_path} is {img.shape[:2]} but label map "
                         f"{label_path} is {lab.shape}")
    return Sample(image=imageio.dequantize_image(img), labels=lab.astype(np.int64))


def save_dataset(dirpath, dataset: Dataset) -> str:
    """Write samples and a manifest; returns the manifest path."""
    os.makedirs(dirpath, exist_ok=True)
    lines = [f"taxonomy\t{dataset.taxonomy.dataset_name}\n"]
    for i, sample in enumerate(dataset.samples):
        stem = os.path.join(dirpath, f"{i:05d}")
        write_sample(stem, sample)
        lines.append(f"{i}\t{i:05d}.ppm\t{i:05d}.pgm\n")
    manifest = os.path.join(dirpath, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return manifest


def load_dataset(manifest_path, taxonomy: Taxonomy | None = None, name: str | None = None) -> Dataset:
    """Load a manifest's samples, rejecting any that training could not stack.

    Every label must lie in [0, k3) of the bound taxonomy, and every image
    must have the size of the first, since a batch is one stacked array.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("taxonomy\t"):
        raise DatasetError(f"{manifest_path}: first manifest line must be 'taxonomy<TAB><name>'")
    if len(lines) < 2:
        raise DatasetError(f"{manifest_path}: the manifest lists no samples")
    tax_name = lines[0][1].split("\t", 1)[1]
    if taxonomy is None:
        try:
            taxonomy = taxonomy_by_name(tax_name)
        except TaxonomyError as exc:
            raise DatasetError(f"{manifest_path}:{lines[0][0]}: {exc}") from None
    elif taxonomy.dataset_name != tax_name:
        raise DatasetError(f"{manifest_path} is bound to taxonomy {tax_name!r}, "
                           f"got {taxonomy.dataset_name!r}")
    samples = []
    for no, ln in lines[1:]:
        where = f"{manifest_path}:{no}"
        parts = ln.split("\t")
        if len(parts) != 3:
            raise DatasetError(f"{where}: bad manifest line {ln!r}")
        _, img_rel, lab_rel = parts
        try:
            sample = read_sample(os.path.join(base, img_rel), os.path.join(base, lab_rel))
        except (OSError, ValueError) as exc:  # ParseError is a ValueError
            raise DatasetError(f"{where}: {exc}") from None
        top = int(sample.labels.max(initial=0))
        if top >= taxonomy.k3:
            raise DatasetError(f"{where}: label map {lab_rel} holds label {top}, outside "
                               f"[0, {taxonomy.k3}) of taxonomy {taxonomy.dataset_name!r}")
        if samples and sample.image.shape != samples[0].image.shape:
            raise DatasetError(f"{where}: image {img_rel} is {sample.image.shape[:2]}, but the "
                               f"first image is {samples[0].image.shape[:2]}; a batch needs "
                               "one size")
        samples.append(sample)
    return Dataset(name=name or tax_name, taxonomy=taxonomy, samples=samples)


_BENCHMARK_PLAN = (("A", 200, 50), ("B", 600, 100), ("C", 400, 100))


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0])


def make_benchmark_datasets(seed: int, image_size=(32, 32)) -> dict[str, tuple[Dataset, Dataset]]:
    """The three in-memory benchmark datasets: A 200/50, B 600/100, C 400/100."""
    out = {}
    for d, (nm, ntrain, ntest) in enumerate(_BENCHMARK_PLAN):
        tax = taxonomy_by_name(nm)
        train_spec = SceneSpec(seed=_child_seed(seed, d, 0), image_size=image_size)
        test_spec = SceneSpec(seed=_child_seed(seed, d, 1), image_size=image_size)
        train = Dataset(nm, tax, generate(train_spec, tax, ntrain))
        test = Dataset(nm, tax, generate(test_spec, tax, ntest))
        out[nm] = (train, test)
    return out


def make_benchmark(seed: int, out_dir, image_size=(32, 32)) -> dict[str, dict[str, str]]:
    """Generate and write the three benchmark datasets; returns manifest paths."""
    paths: dict[str, dict[str, str]] = {}
    for nm, (train, test) in make_benchmark_datasets(seed, image_size).items():
        paths[nm] = {
            "train": save_dataset(os.path.join(out_dir, nm, "train"), train),
            "test": save_dataset(os.path.join(out_dir, nm, "test"), test),
        }
    return paths
