"""Independent straight-line reimplementations used as test oracles.

Everything here is plain numpy written directly from the defining formulas,
with no tape, no shared kernels, and deliberately different numpy idioms
from the implementation (boolean masking instead of label-map kernels,
einsum instead of blocked matmuls, per-pixel loops for convolution).
"""

import hashlib

import numpy as np

from grapy import synthdata


def fd_gradient(func, arr, h=1e-5):
    """Central finite differences of a scalar function wrt ``arr`` (in place)."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = func()
        flat[i] = orig - h
        fm = func()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def rel_err(a, b):
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


def conv2d_loops(x, k, stride=1, pad=None):
    """Per-pixel convolution (cross-correlation), zero padded."""
    kh, kw, cin, cout = k.shape
    if pad is None:
        pad = kh // 2
    h, w, _ = x.shape
    xp = np.zeros((h + 2 * pad, w + 2 * pad, cin))
    xp[pad : pad + h, pad : pad + w] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((ho, wo, cout))
    for oy in range(ho):
        for ox in range(wo):
            patch = xp[oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
            for co in range(cout):
                out[oy, ox, co] = np.sum(patch * k[:, :, :, co])
    return out


def softmax_np(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def masks_oracle(y, table):
    """Per-pixel argmax then table lookup, pixel by pixel."""
    h, w, _ = y.shape
    out = np.zeros((h, w), np.int64)
    for i in range(h):
        for j in range(w):
            out[i, j] = table[int(np.argmax(y[i, j]))]
    return out


def gsa_oracle(f, label_map, k):
    """Masked mean/max pooling per category via boolean masks."""
    nodes = np.zeros((k, 2 * f.shape[2]))
    for kk in range(k):
        mask = label_map == kk
        if not mask.any():
            continue
        px = f[mask]
        nodes[kk] = np.concatenate([px.mean(axis=0), px.max(axis=0)])
    return nodes


def gcr_oracle(v, q1, q2, iterations=3):
    """Iterated residual self-attention written straight from the update rule."""
    v = v.copy()
    for _ in range(iterations):
        scores = np.einsum("kd,ld->kl", v @ q1, v @ q2)
        attn = softmax_np(scores, axis=1)
        v = v + attn @ v
    return v


def gsd_oracle(f, v_gcr, out_proj, label_map):
    """Indicator-sum redistribution, pixel by pixel."""
    w = v_gcr @ out_proj
    out = f.copy()
    h, wd = label_map.shape
    for i in range(h):
        for j in range(wd):
            out[i, j] += w[label_map[i, j]]
    return out


def pyramid_oracle(f, y, tables, level_params, head, iterations=3, label_maps=None):
    """Composed forward of the three-level pyramid, no tape.

    ``tables`` maps level -> fine-index lookup table; ``level_params`` maps
    level -> (q1, q2, out_proj) arrays.
    """
    f_l = f.copy()
    maps = label_maps or {}
    stack = [f.copy()]
    for level in sorted(level_params):
        q1, q2, out_proj = level_params[level]
        lm = maps.get(level)
        if lm is None:
            lm = masks_oracle(y, tables[level])
        k = int(tables[level].max()) + 1
        nodes = gsa_oracle(f_l, lm, k)
        refined = gcr_oracle(nodes, q1, q2, iterations)
        f_l = gsd_oracle(f_l, refined, out_proj, lm)
        stack.append(f_l)
    f_hat = np.concatenate(stack, axis=2)
    logits = np.einsum("hwc,ck->hwk", f_hat, head[0, 0])
    return f_hat, softmax_np(logits, axis=2)


def confusion_oracle(pred, gt, k):
    cm = np.zeros((k, k), np.int64)
    for p, g in zip(pred.reshape(-1), gt.reshape(-1)):
        cm[g, p] += 1
    return cm


def pool_oracle(f, label_map, k):
    """Per-category sums, counts, channelwise max and first-pixel argmax of
    one (H, W, C) image, scanning the pixels in row-major order."""
    c = f.shape[2]
    sums, maxv = np.zeros((k, c)), np.zeros((k, c))
    counts, argi = np.zeros(k, np.int64), np.zeros((k, c), np.int64)
    for i, (row, kk) in enumerate(zip(f.reshape(-1, c), label_map.reshape(-1))):
        sums[kk] += row
        for cc in range(c):
            if counts[kk] == 0 or row[cc] > maxv[kk, cc]:
                maxv[kk, cc], argi[kk, cc] = row[cc], i
        counts[kk] += 1
    return sums, counts, maxv, argi


def scatter_oracle(g, label_map, k):
    """Per-category sums of the (H, W, C) rows of ``g``, pixel by pixel."""
    out = np.zeros((k, g.shape[2]))
    h, w = label_map.shape
    for i in range(h):
        for j in range(w):
            out[label_map[i, j]] += g[i, j]
    return out


def _refine_oracle(tax_name, part, seg, t, name_to_idx):
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
    if part == "head":
        return np.where(t < 0.45, lab("Hair"), lab("Face"))
    if part == "torso":
        return np.where(t >= 0.86, lab("Belt"), lab("Torso"))
    if part == "arm":
        return lab("Arm") if seg == 0 else np.where(t < 0.55, lab("Arm"), lab("Hand"))
    if seg == 0:
        return lab("UpperLeg")
    return np.where(t < 0.65, lab("LowerLeg"), lab("Shoe"))


def _bbox_grid(h, w, x0, y0, x1, y1):
    iy0, iy1 = max(0, int(np.floor(y0))), min(h - 1, int(np.ceil(y1)))
    ix0, ix1 = max(0, int(np.floor(x0))), min(w - 1, int(np.ceil(x1)))
    if iy0 > iy1 or ix0 > ix1:
        return np.zeros((0,), np.int64), np.zeros((0,), np.int64)
    ys, xs = np.mgrid[iy0 : iy1 + 1, ix0 : ix1 + 1]
    return ys, xs


def _raster_oracle(prim, h, w):
    """Pixels (ys, xs) inside one primitive and their position fraction t,
    tested over the primitive's own clipped floor/ceil box."""
    kind = prim[0]
    if kind == "disc":
        _, cx, cy, r = prim
        ys, xs = _bbox_grid(h, w, cx - r, cy - r, cx + r, cy + r)
        inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
        t = np.clip((ys - (cy - r)) / (2.0 * r), 0.0, 1.0)
    elif kind == "rect":
        _, x0, y0, x1, y1 = prim
        ys, xs = _bbox_grid(h, w, x0, y0, x1, y1)
        inside = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
        t = np.clip((ys - y0) / max(y1 - y0, 1e-9), 0.0, 1.0)
    else:
        _, x0, y0, x1, y1, r = prim
        ys, xs = _bbox_grid(h, w, min(x0, x1) - r, min(y0, y1) - r,
                            max(x0, x1) + r, max(y0, y1) + r)
        dx, dy = x1 - x0, y1 - y0
        l2 = max(dx * dx + dy * dy, 1e-9)
        t = np.clip(((xs - x0) * dx + (ys - y0) * dy) / l2, 0.0, 1.0)
        px, py = x0 + t * dx, y0 + t * dy
        inside = (xs - px) ** 2 + (ys - py) ** 2 <= r * r
    return ys[inside], xs[inside], t[inside]


def scene_oracle(spec, taxonomy, index):
    """(image, labels) of sample ``index``, painting one primitive at a time in
    draw order (arms, legs, torso, head; figure by figure), each over the
    pixels it covers, with the generator's random draws and geometry."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
    h, w = spec.image_size
    name_to_idx = {n: i for i, n in enumerate(taxonomy.fine_labels)}
    offsets = np.zeros((taxonomy.k3, 3))
    for i, name in enumerate(taxonomy.fine_labels[1:], 1):
        digest = hashlib.md5(name.encode("utf-8")).digest()
        offsets[i] = [digest[j] / 127.5 - 1.0 for j in range(3)]

    fine = np.zeros((h, w), np.int64)
    img = np.empty((h, w, 3))
    bg = synthdata._BG_BASE + spec.palette_jitter * rng.normal(0.0, 1.0, 3)
    img[:] = np.clip(bg, 0.0, 1.0)
    lo, hi = spec.figures_per_image
    for _ in range(int(rng.integers(lo, hi, endpoint=True))):
        parts = synthdata._figure_geometry(rng, h, w)
        jitter = {fam: rng.normal(0.0, 1.0, 3) for fam in ("arm", "leg", "torso", "head")}
        for fam in ("arm", "leg", "torso", "head"):
            for part, seg, prim in parts:
                if part != fam:
                    continue
                ys, xs, t = _raster_oracle(prim, h, w)
                if ys.size == 0:
                    continue
                fids = _refine_oracle(taxonomy.dataset_name, part, seg, t, name_to_idx)
                fine[ys, xs] = fids
                base = synthdata._FAMILY_BASE[synthdata._FAMILIES.index(part)]
                color = base + spec.palette_jitter * (0.8 * offsets[fids] + jitter[part])
                img[ys, xs] = np.clip(color, 0.0, 1.0)
    if spec.noise_sigma > 0:
        img = np.clip(img + rng.normal(0.0, spec.noise_sigma, img.shape), 0.0, 1.0)
    return img, fine


def checkpoint_record(name: str, values) -> bytes:
    """One checkpoint record as the format documents it: u32 name length, the
    UTF-8 name, u32 rank, u64 extents, little-endian float64 values."""
    raw, arr = name.encode("utf-8"), np.asarray(values, dtype="<f8")
    return b"".join([len(raw).to_bytes(4, "little"), raw, arr.ndim.to_bytes(4, "little"),
                     *(ext.to_bytes(8, "little") for ext in arr.shape), arr.tobytes()])
