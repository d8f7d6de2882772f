"""Deterministic procedural generator of articulated stick-figure scenes.

Each figure is a head disc, a torso rectangle, two 2-segment arms and two
2-segment legs, posed with seeded random angles and sizes. Pixels get a
Level-2 body-part family from the drawn geometry and are refined to the
taxonomy's fine labels by their position inside the part (upper vs lower
segment halves, head bands, torso sub-rectangles). Later figures overwrite
earlier ones per pixel, so overlapping figures occlude like painted layers.

Colors carry the part family: all fine labels inside one family share the
family base color, shifted per figure (and slightly per fine label) by
``palette_jitter``. With zero jitter every Level-2 region is color-constant,
so fine labels are distinguishable only by geometry.
"""

from __future__ import annotations

import hashlib
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


_FAMILY_BASE = {
    "head": np.array([0.87, 0.70, 0.56]),
    "torso": np.array([0.24, 0.42, 0.78]),
    "arm": np.array([0.82, 0.57, 0.24]),
    "leg": np.array([0.33, 0.62, 0.30]),
}
_BG_BASE = np.array([0.91, 0.91, 0.88])
_DRAW_ORDER = ("arm", "leg", "torso", "head")  # torso covers shoulder/hip joints


def _fine_offsets(tax: Taxonomy) -> np.ndarray:
    """Stable per-fine-label color nudges in [-1, 1], hashed from the name."""
    out = np.zeros((tax.k3, 3))
    for i, name in enumerate(tax.fine_labels):
        if i == 0:
            continue
        digest = hashlib.md5(name.encode("utf-8")).digest()
        out[i] = [digest[j] / 127.5 - 1.0 for j in range(3)]
    return out


def _refine(tax_name: str, part: str, seg: int, t: np.ndarray, name_to_idx: dict) -> np.ndarray:
    """Fine label per pixel from part kind, segment index and position fraction."""

    def lab(name):
        return np.full(t.shape, name_to_idx[name], np.int64)

    if tax_name == "A":
        if part == "head":
            return lab("Head")
        if part == "torso":
            return lab("Torso")
        if part == "arm":
            return lab("UpperArm") if seg == 0 else lab("LowerArm")
        return lab("UpperLeg") if seg == 0 else lab("LowerLeg")
    if tax_name == "B":
        if part == "head":
            return np.where(t < 0.30, lab("Hat"), np.where(t < 0.55, lab("Hair"), lab("Face")))
        if part == "torso":
            return np.where(t < 0.20, lab("TorsoSkin"), lab("UpperClothes"))
        if part == "arm":
            return lab("UpperArm") if seg == 0 else lab("LowerArm")
        if seg == 0:
            return np.where(t < 0.65, lab("Pants"), lab("UpperLeg"))
        return np.where(t < 0.65, lab("LowerLeg"), lab("Shoe"))
    if tax_name == "C":
        if part == "head":
            return np.where(t < 0.45, lab("Hair"), lab("Face"))
        if part == "torso":
            return np.where(t >= 0.86, lab("Belt"), lab("Torso"))
        if part == "arm":
            return lab("Arm") if seg == 0 else np.where(t < 0.55, lab("Arm"), lab("Hand"))
        if seg == 0:
            return lab("UpperLeg")
        return np.where(t < 0.65, lab("LowerLeg"), lab("Shoe"))
    raise GenerationError(f"no figure refinement rules for taxonomy {tax_name!r}; "
                          "generation supports the built-in taxonomies A, B, C")


def _raster_disc(h, w, cx, cy, r):
    ys, xs = _bbox_grid(h, w, cx - r, cy - r, cx + r, cy + r)
    inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    t = np.clip((ys - (cy - r)) / (2.0 * r), 0.0, 1.0)
    return ys[inside], xs[inside], t[inside]


def _raster_rect(h, w, x0, y0, x1, y1):
    ys, xs = _bbox_grid(h, w, x0, y0, x1, y1)
    inside = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    t = np.clip((ys - y0) / max(y1 - y0, 1e-9), 0.0, 1.0)
    return ys[inside], xs[inside], t[inside]


def _raster_capsule(h, w, x0, y0, x1, y1, r):
    ys, xs = _bbox_grid(h, w, min(x0, x1) - r, min(y0, y1) - r,
                        max(x0, x1) + r, max(y0, y1) + r)
    dx, dy = x1 - x0, y1 - y0
    l2 = max(dx * dx + dy * dy, 1e-9)
    t = np.clip(((xs - x0) * dx + (ys - y0) * dy) / l2, 0.0, 1.0)
    px, py = x0 + t * dx, y0 + t * dy
    inside = (xs - px) ** 2 + (ys - py) ** 2 <= r * r
    return ys[inside], xs[inside], t[inside]


def _bbox_grid(h, w, x0, y0, x1, y1):
    iy0, iy1 = max(0, int(np.floor(y0))), min(h - 1, int(np.ceil(y1)))
    ix0, ix1 = max(0, int(np.floor(x0))), min(w - 1, int(np.ceil(x1)))
    if iy0 > iy1 or ix0 > ix1:
        return np.zeros((0,), np.int64), np.zeros((0,), np.int64)
    ys, xs = np.mgrid[iy0 : iy1 + 1, ix0 : ix1 + 1]
    return ys, xs


def _figure_geometry(rng: np.random.Generator, h_px: int, w_px: int):
    """Sample one articulated figure that fits the frame; 100 attempts max.

    Returns draw-ordered (part, segment, primitive) triples.
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
    lo, hi = 0.5, -0.5
    xmin = ymin = np.inf
    xmax = ymax = -np.inf
    for _, _, prim in parts:
        kind = prim[0]
        if kind == "disc":
            _, cx, cy, r = prim
            x0, y0, x1, y1 = cx - r, cy - r, cx + r, cy + r
        elif kind == "rect":
            _, x0, y0, x1, y1 = prim
        else:
            _, ax, ay, bx, by, r = prim
            x0, y0 = min(ax, bx) - r, min(ay, by) - r
            x1, y1 = max(ax, bx) + r, max(ay, by) + r
        xmin, ymin = min(xmin, x0), min(ymin, y0)
        xmax, ymax = max(xmax, x1), max(ymax, y1)
    return xmin >= lo and ymin >= lo and xmax <= w_px + hi - 1 and ymax <= h_px + hi - 1


def _raster(prim, h, w):
    kind = prim[0]
    if kind == "disc":
        return _raster_disc(h, w, *prim[1:])
    if kind == "rect":
        return _raster_rect(h, w, *prim[1:])
    return _raster_capsule(h, w, *prim[1:])


def generate_sample(spec: SceneSpec, taxonomy: Taxonomy, index: int) -> Sample:
    """Generate sample ``index`` of ``spec`` labelled in ``taxonomy``."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
    h, w = spec.image_size
    name_to_idx = {n: i for i, n in enumerate(taxonomy.fine_labels)}
    offsets = _fine_offsets(taxonomy)

    fine = np.zeros((h, w), np.int64)
    img = np.empty((h, w, 3))
    img[:] = np.clip(_BG_BASE + spec.palette_jitter * rng.normal(0.0, 1.0, 3), 0.0, 1.0)

    lo, hi = spec.figures_per_image
    nfig = int(rng.integers(lo, hi, endpoint=True))
    for _ in range(nfig):
        parts = _figure_geometry(rng, h, w)
        jitter = {fam: rng.normal(0.0, 1.0, 3) for fam in _DRAW_ORDER}
        for fam in _DRAW_ORDER:
            for part, seg, prim in parts:
                if part != fam:
                    continue
                ys, xs, t = _raster(prim, h, w)
                if ys.size == 0:
                    continue
                fids = _refine(taxonomy.dataset_name, part, seg, t, name_to_idx)
                fine[ys, xs] = fids
                color = _FAMILY_BASE[part] + spec.palette_jitter * (
                    0.8 * offsets[fids] + jitter[part])
                img[ys, xs] = np.clip(color, 0.0, 1.0)
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
