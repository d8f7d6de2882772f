"""Independent straight-line reimplementations used as test oracles.

Everything here is plain numpy written directly from the defining formulas,
with no tape, no shared kernels, and deliberately different numpy idioms
from the implementation (boolean masking instead of label-map kernels,
einsum instead of blocked matmuls, per-pixel loops for convolution).
"""

import numpy as np


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


def gsa_oracle(f, label_map, k, mode="both"):
    """Masked mean/max pooling per category via boolean masks."""
    c = f.shape[2]
    width = 2 * c if mode == "both" else c
    nodes = np.zeros((k, width))
    for kk in range(k):
        mask = label_map == kk
        if not mask.any():
            continue
        px = f[mask]
        ave, mx = px.mean(axis=0), px.max(axis=0)
        if mode == "both":
            nodes[kk] = np.concatenate([ave, mx])
        elif mode == "ave":
            nodes[kk] = ave
        else:
            nodes[kk] = mx
    return nodes


def gcr_oracle(v, q1, q2, iterations=3, pairs=None):
    """Iterated residual self-attention written straight from the update rule."""
    v = v.copy()
    for it in range(iterations):
        a1, a2 = (q1, q2) if pairs is None else pairs[it]
        scores = np.einsum("kd,ld->kl", v @ a1, v @ a2)
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


def pyramid_oracle(f, y, tables, level_params, head, mode="both", iterations=3,
                   label_maps=None):
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
        nodes = gsa_oracle(f_l, lm, k, mode)
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
