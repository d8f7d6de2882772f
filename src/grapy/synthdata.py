"""Deterministic procedural generator of articulated stick-figure scenes.

Each figure is a head disc, a torso rectangle, two 2-segment arms and two
2-segment legs, posed with seeded random angles and sizes. A draw loop runs each
sample's random stream (background, figure count, each figure's geometry and
color jitter, noise), then one stacked pass paints each chunk of ``PAINT_CHUNK``
images: per kind, one raster call tests every primitive over a window the size
of the kind's largest floor/ceil box, placed over the primitive's own box in the
frame (a pixel outside that box is at least 1 px beyond the primitive), and
gives each pixel its position fraction t (0 at the top of head and torso, at the
near end of a limb segment). The last part drawn over a pixel owns it (per
figure arms, legs, torso, head; later figures over earlier ones).

The owner's (taxonomy, part, segment) rule labels the pixel: thresholds on t
split a part into fine labels, and t exactly at a threshold takes the later one.

    part   segment  A         B                             C
    head            Head      Hat <0.30 Hair <0.55 Face     Hair <0.45 Face
    torso           Torso     TorsoSkin <0.20 UpperClothes  Torso <0.86 Belt
    arm    upper    UpperArm  UpperArm                      Arm
    arm    lower    LowerArm  LowerArm                      Arm <0.55 Hand
    leg    upper    UpperLeg  Pants <0.65 UpperLeg          UpperLeg
    leg    lower    LowerLeg  LowerLeg <0.65 Shoe           LowerLeg <0.65 Shoe

Colors carry the part family: its fine labels share the family base color, shifted
per figure (and slightly per fine label) by ``palette_jitter``. With zero jitter
every Level-2 region is color-constant, so only geometry tells fine labels apart.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from . import imageio
from .checkpoint import replacing
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
        if min(self.image_size) < 16:
            raise ValueError(f"image size must be at least 16x16, got {self.image_size}")
        lo, hi = self.figures_per_image
        if not 1 <= lo <= hi:
            raise ValueError(f"figures_per_image must be an increasing range from >= 1, got {self.figures_per_image}")


@dataclass
class Sample:
    """A loaded sample holds its files' 8-bit codes as read, which ``forward``
    maps to [0, 1] through ``imageio.dequantize_image``."""

    image: np.ndarray   # (H, W, 3): uint8 codes when loaded, float in [0, 1] when generated
    labels: np.ndarray  # (H, W) fine labels: uint8 when loaded, int64 when generated


@dataclass
class SampleBatch:
    images: list[np.ndarray]
    labels: list[np.ndarray]
    taxonomy: Taxonomy | None = None  # of the labels; picks a mutual model's branch


@dataclass
class Dataset:
    name: str
    taxonomy: Taxonomy
    samples: list[Sample]

    def __len__(self) -> int:
        return len(self.samples)

    def subset(self, n: int) -> "Dataset":
        return Dataset(self.name, self.taxonomy, self.samples[:n])

    def batches(self, rng: np.random.Generator, batch_size: int):
        order = rng.permutation(len(self.samples))
        for start in range(0, len(order), batch_size):
            chunk = [self.samples[i] for i in order[start : start + batch_size]]
            yield SampleBatch([s.image for s in chunk], [s.labels for s in chunk], self.taxonomy)


class RoundRobinSampler:
    """Endless passes over each dataset, the datasets in turn; a pass draws its
    order from ``rng`` as it starts. An epoch is one pass over every dataset:
    ``epoch_steps`` batches."""

    def __init__(self, datasets: list[Dataset], rng: np.random.Generator, batch_size: int):
        def passes(dataset):
            while len(dataset):  # an empty dataset ends the stream: StopIteration
                yield from dataset.batches(rng, batch_size)

        self._streams = [passes(ds) for ds in datasets]
        self._cursor = 0
        self.epoch_steps = sum(-(-len(ds) // batch_size) for ds in datasets)

    def next_batch(self) -> SampleBatch:
        i = self._cursor
        self._cursor = (i + 1) % len(self._streams)
        return next(self._streams[i])


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
        out[i] = [b / 127.5 - 1.0 for b in hashlib.md5(name.encode("utf-8")).digest()[:3]]
    return out


@functools.cache
def _label_table(tax: Taxonomy) -> tuple[np.ndarray, dict, np.ndarray]:
    """``_RULES`` of ``tax`` as ``(cuts, rule, lut)``: all its sorted thresholds, the row of each
    (part, segment), and each row's fine label per band ``searchsorted(cuts, t, side="right")``."""
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


def _box(prim, lo=min, hi=max):
    """(x0, y0, x1, y1) of a primitive, or of stacked ones with lo, hi = np.minimum, np.maximum."""
    if prim[0] == "rect":
        return prim[1:]
    if prim[0] == "disc":
        _, cx, cy, r = prim
        return cx - r, cy - r, cx + r, cy + r
    _, ax, ay, bx, by, r = prim
    return lo(ax, bx) - r, lo(ay, by) - r, hi(ax, bx) + r, hi(ay, by) + r


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


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()  # the bits of rng.uniform(lo, hi), at a third of its cost


def _figure_geometry(rng: np.random.Generator, h_px: int, w_px: int):
    """Sample one articulated figure that fits the frame; 100 attempts max.

    Returns (part, segment, primitive) triples in draw order: arms, legs,
    torso (covering the shoulder and hip joints), head.
    """
    for _ in range(100):
        fh = _uniform(rng, 0.60, 0.82) * h_px
        cx = _uniform(rng, 0.34, 0.66) * w_px
        top = _uniform(rng, 0.04, 0.14) * h_px
        head_r = 0.105 * fh * _uniform(rng, 0.85, 1.15)
        torso_w = 0.30 * fh * _uniform(rng, 0.85, 1.15)
        torso_h = 0.33 * fh * _uniform(rng, 0.90, 1.10)
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
            a1 = np.deg2rad(_uniform(rng, 18.0, 58.0))
            ex = sx + side * np.sin(a1) * arm_seg
            ey = shoulder_y + np.cos(a1) * arm_seg
            a2 = a1 + np.deg2rad(_uniform(rng, -55.0, 25.0))
            wx = ex + side * np.sin(a2) * arm_seg
            wy = ey + np.cos(a2) * arm_seg
            parts.append(("arm", 0, ("capsule", sx, shoulder_y, ex, ey, arm_r)))
            parts.append(("arm", 1, ("capsule", ex, ey, wx, wy, arm_r)))
        for side in (-1.0, 1.0):
            hx = cx + side * torso_w * 0.28
            g1 = np.deg2rad(_uniform(rng, 2.0, 15.0))
            kx = hx + side * np.sin(g1) * leg_seg
            ky = y1t + np.cos(g1) * leg_seg
            g2 = np.deg2rad(_uniform(rng, -8.0, 10.0))
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
    x0, y0, x1, y1 = zip(*(_box(prim) for _, _, prim in parts))
    return min(x0) >= 0.5 and min(y0) >= 0.5 and max(x1) <= w_px - 1.5 and max(y1) <= h_px - 1.5


def _window(lo, hi, size):
    """(P, m) pixel coordinates along one axis: each window covers its own floor/ceil extent."""
    start = np.maximum(np.floor(lo), 0)
    m = int((np.minimum(np.ceil(hi), size - 1) - start).max()) + 1
    return np.minimum(start, size - m).astype(np.int64)[:, None] + np.arange(m)


# Images per stacked paint: generation's scratch memory grows with this, not with the split.
PAINT_CHUNK = 16


def _paint(spec: SceneSpec, taxonomy: Taxonomy, indices) -> list[Sample]:
    """Samples ``indices`` of ``spec``: each one's random draws in turn, then one stacked paint."""
    (h, w), (lo, hi), n = spec.image_size, spec.figures_per_image, len(indices)
    cuts, rule, lut = _label_table(taxonomy)
    # meta: (sample, rule row, jitter row) per part
    imgs, bg, prims, meta, draws = np.zeros((n, h, w, 3)), np.empty((n, 3)), [], [], []
    for k, index in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
        bg[k] = rng.normal(0.0, 1.0, 3)
        for _ in range(int(rng.integers(lo, hi, endpoint=True))):
            figure = _figure_geometry(rng, h, w)
            draws.append(rng.normal(0.0, 1.0, (len(_FAMILIES), 3)))
            prims += [prim for _, _, prim in figure]
            meta += [(k, rule[p, s], 4 * len(draws) - 4 + _FAMILIES.index(p)) for p, s, _ in figure]
        if spec.noise_sigma > 0:
            imgs[k] = rng.normal(0.0, spec.noise_sigma, (h, w, 3))

    # Inside test and position fraction of each primitive over a window the
    # size of its kind's largest box, placed over its own box in the frame.
    sample, row, jrow = np.array(meta, np.int64).reshape(-1, 3).T
    found = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    for kind in dict.fromkeys(prim[0] for prim in prims):
        sel = np.array([g for g, prim in enumerate(prims) if prim[0] == kind], np.int64)
        params = np.array([prims[g][1:] for g in sel.tolist()]).T
        x0, y0, x1, y1 = _box((kind, *params), np.minimum, np.maximum)
        ys, xs = _window(y0, y1, h)[:, :, None], _window(x0, x1, w)[:, None, :]
        inside, t = _RASTERS[kind](ys, xs, *params[:, :, None, None])
        pix = (sample[sel, None, None] * h + ys) * w + xs
        found.append((pix[inside], np.broadcast_to(sel[:, None, None], inside.shape)[inside],
                      np.broadcast_to(t, inside.shape)[inside]))

    # The last part drawn over a pixel owns it, and labels and colors it.
    pix, part, frac = (np.concatenate(found_k) for found_k in zip(*found))
    owner = np.full(n * h * w, -1)
    np.maximum.at(owner, pix, part)
    won = owner[pix] == part
    pix, part = pix[won], part[won]
    fids = lut[row[part], np.searchsorted(cuts, frac[won], side="right")]
    color = np.take(_FAMILY_BASE, jrow[part] % len(_FAMILIES), axis=0) + spec.palette_jitter * (
        0.8 * np.take(_fine_offsets(taxonomy), fids, axis=0)
        + np.take(np.array(draws).reshape(-1, 3), jrow[part], axis=0))

    # imgs holds the noise: add the owner's color or else the background to it.
    fine, flat = np.zeros((n, h, w), np.int64), imgs.reshape(-1, 3)
    fine.reshape(-1)[pix] = fids
    color = np.clip(color, 0.0, 1.0) + np.take(flat, pix, axis=0)
    imgs += np.clip(_BG_BASE + spec.palette_jitter * bg, 0.0, 1.0)[:, None, None]
    flat[pix] = color
    np.clip(imgs, 0.0, 1.0, out=imgs)
    return [Sample(image=imgs[k], labels=fine[k]) for k in range(n)]


def generate_sample(spec: SceneSpec, taxonomy: Taxonomy, index: int) -> Sample:
    """Generate sample ``index`` of ``spec`` labelled in ``taxonomy``."""
    return _paint(spec, taxonomy, [index])[0]


def generate(spec: SceneSpec, taxonomy: Taxonomy, count: int) -> list[Sample]:
    """Generate ``count`` samples; sample i depends only on (spec, taxonomy, i), so
    painting them ``PAINT_CHUNK`` at a time gives the bytes of one pass over all."""
    if bad := validate(taxonomy):
        raise ValueError("invalid taxonomy: " + "; ".join(bad))
    return [sample for start in range(0, count, PAINT_CHUNK)
            for sample in _paint(spec, taxonomy, range(start, min(start + PAINT_CHUNK, count)))]


# ---------------------------------------------------------------------------
# On-disk format: PPM images, PGM label maps, tab-separated manifest
# ---------------------------------------------------------------------------

def write_sample(path_stem, sample: Sample) -> tuple[str, str]:
    """Write image as <stem>.ppm and labels as <stem>.pgm; returns both paths."""
    ppm, pgm = f"{path_stem}.ppm", f"{path_stem}.pgm"
    imageio.write_pgm(pgm, sample.labels)  # first: its label check can fail
    imageio.write_ppm(ppm, imageio.quantize_image(sample.image))
    return ppm, pgm


def read_sample(image_path, label_path) -> Sample:
    img, lab = imageio.read_ppm(image_path), imageio.read_pgm(label_path)
    if img.shape[:2] != lab.shape:
        raise ValueError(f"image {image_path} is {img.shape[:2]} but label map "
                         f"{label_path} is {lab.shape}")
    return Sample(image=img, labels=lab)


def save_dataset(dirpath, dataset: Dataset) -> str:
    """Write the samples, then the manifest through ``replacing``; returns its path.
    The old manifest goes first: a failed save leaves none, not one over new samples."""
    os.makedirs(dirpath, exist_ok=True)
    manifest = os.path.join(dirpath, "manifest.txt")
    if os.path.exists(manifest):
        os.remove(manifest)
    lines = [f"taxonomy\t{dataset.taxonomy.dataset_name}\n"]
    for i, sample in enumerate(dataset.samples):
        write_sample(os.path.join(dirpath, f"{i:05d}"), sample)
        lines.append(f"{i}\t{i:05d}.ppm\t{i:05d}.pgm\n")
    with replacing(manifest) as fh:
        fh.write("".join(lines).encode("utf-8"))
    return manifest


def load_dataset(manifest_path) -> Dataset:
    """Load a manifest's samples, rejecting any that training could not stack.

    Every label must lie in [0, k3) of the manifest's taxonomy, and every
    image must be non-empty and have the size of the first, since a batch is
    one stacked array.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{manifest_path}: not UTF-8 at byte offset {exc.start}") from None
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("taxonomy\t"):
        raise DatasetError(f"{manifest_path}: first manifest line must be 'taxonomy<TAB><name>'")
    if len(lines) < 2:
        raise DatasetError(f"{manifest_path}: the manifest lists no samples")
    try:
        taxonomy = taxonomy_by_name(lines[0][1].split("\t", 1)[1])
    except TaxonomyError as exc:
        raise DatasetError(f"{manifest_path}:{lines[0][0]}: {exc}") from None
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
        if not sample.labels.size:
            raise DatasetError(f"{where}: image {img_rel} has no pixels")
        top = int(sample.labels.max())
        if top >= taxonomy.k3:
            raise DatasetError(f"{where}: label map {lab_rel} holds label {top}, outside "
                               f"[0, {taxonomy.k3}) of taxonomy {taxonomy.dataset_name!r}")
        if samples and sample.image.shape != samples[0].image.shape:
            raise DatasetError(f"{where}: image {img_rel} is {sample.image.shape[:2]}, but the "
                               f"first image is {samples[0].image.shape[:2]}; a batch needs "
                               "one size")
        samples.append(sample)
    return Dataset(name=taxonomy.dataset_name, taxonomy=taxonomy, samples=samples)


_BENCHMARK_PLAN = (("A", 200, 50), ("B", 600, 100), ("C", 400, 100))


def _benchmark_splits(seed: int, image_size):
    """(name, split, Dataset) of each benchmark split in turn, generated as it is asked for."""
    for d, (nm, *counts) in enumerate(_BENCHMARK_PLAN):
        tax = taxonomy_by_name(nm)
        for s, (split, count) in enumerate(zip(("train", "test"), counts)):
            sd = np.random.SeedSequence([seed, d, s]).generate_state(1, np.uint64)[0]
            yield nm, split, Dataset(nm, tax, generate(SceneSpec(int(sd), image_size), tax, count))


def make_benchmark_datasets(seed: int, image_size=(32, 32)) -> dict[str, tuple[Dataset, Dataset]]:
    """The three in-memory benchmark datasets: A 200/50, B 600/100, C 400/100."""
    out = {}
    for nm, _, ds in _benchmark_splits(seed, image_size):
        out[nm] = out.get(nm, ()) + (ds,)
    return out


def make_benchmark(seed: int, out_dir, image_size=(32, 32)) -> dict[str, dict[str, str]]:
    """Generate and write the three benchmark datasets one split at a time, each
    written before the next is generated; returns manifest paths."""
    out = {}
    for nm, split, ds in _benchmark_splits(seed, image_size):
        out.setdefault(nm, {})[split] = save_dataset(os.path.join(out_dir, nm, split), ds)
        del ds  # not held while the next split is painted
    return out
