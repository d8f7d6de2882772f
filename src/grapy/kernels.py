"""Hot numeric kernels: 2-D convolution, masked category pooling, node scatter.

Every kernel takes a leading batch axis: feature maps are (N, H, W, C),
label maps (N, H, W) and node tables (N, K, C). All of them are numpy with no
Python loop over images, pixels or categories:

- convolution is same-padded and stride-1, and runs as GEMMs over all N*H*W
  rows (Chellapilla et al. 2006, "High Performance Convolutional Neural
  Networks for Document Processing"): the forward as one GEMM per kernel tap,
  both backward passes as one im2col GEMM each, the input gradient as a
  correlation with the flipped kernel;
- masked pooling stable-sorts the pixels by segment id ``n * K + k`` and
  reduces each run with ``ufunc.reduceat``; the max's argmax, computed only
  on request, breaks ties toward the first pixel in row-major order. The
  segment ids and sorted positions take the narrowest unsigned dtype that
  holds ``N * K`` and ``N * H * W``: numpy radix-sorts 8- and 16-bit keys,
  and a stable sort's order is the same at any key width;
- the node scatter is a one-hot GEMM per image.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


# ---------------------------------------------------------------------------
# 2-D convolution (cross-correlation), NHWC layout, kernel (kh, kw, cin, cout),
# stride 1, zero padding kh // 2 on every side: the output keeps the input size
# ---------------------------------------------------------------------------

def _pad(x, pad):
    if pad == 0:
        return np.ascontiguousarray(x)
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x
    return xp


def _im2col(xp, kh, kw, ho, wo):
    """(N*Ho*Wo, kh*kw*C) receptive fields of ``xp``, taps in (dy, dx, c) order.

    The windows are a strided view; the reshape copies them into rows unless
    the view already is one (1x1 kernel, contiguous input).
    """
    n, _, _, c = xp.shape
    sn, sh, sw, sc = xp.strides
    win = as_strided(xp, (n, ho, wo, kh, kw, c), (sn, sh, sw, sh, sw, sc), writeable=False)
    return win.reshape(n * ho * wo, kh * kw * c)


def conv2d_forward(x, k):
    """One GEMM per kernel tap over all N*H*W output pixels.

    Measured at batch 4 with 16 input channels, summing the taps beats one
    im2col GEMM, whose column copy costs more than the nine adds; a 1x1
    kernel is a single GEMM.
    """
    n, h, w, _ = x.shape
    kh, kw = k.shape[:2]
    xp = _pad(x, kh // 2)
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as a NumericsError upstream
        out = xp[:, :h, :w] @ k[0, 0]
        for dy in range(kh):
            for dx in range(kw):
                if dy or dx:
                    out += xp[:, dy : dy + h, dx : dx + w] @ k[dy, dx]
    return out


def conv2d_backward_input(g, k):
    """Adjoint in the input: the correlation of the output gradient with the
    flipped, transposed kernel, itself a same-padded convolution."""
    n, h, w, cout = g.shape
    kh, kw, cin, _ = k.shape
    cols = _im2col(_pad(g, kh // 2), kh, kw, h, w)
    flipped = k[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * cout, cin)
    return (cols @ flipped).reshape(n, h, w, cin)


def conv2d_backward_kernel(x, g, kh, kw):
    """Adjoint in the kernel: ``cols.T @ g``, the columns rebuilt from ``x``."""
    n, h, w, cout = g.shape
    cin = x.shape[3]
    cols = _im2col(_pad(x, kh // 2), kh, kw, h, w)
    return (cols.T @ g.reshape(n * h * w, cout)).reshape(kh, kw, cin, cout)


# ---------------------------------------------------------------------------
# Masked category pooling: per-image, per-category mean and max
# ---------------------------------------------------------------------------

def _segments(labels, k, dtype=np.int64):
    """Segment id ``n * k + label`` of every pixel, flattened to (N*H*W,).

    ``dtype`` must hold ``n * k``; the sums stay below it, so none wraps.
    """
    n = labels.shape[0]
    lab = labels.reshape(n, -1).astype(dtype, copy=False)
    return (lab + (np.arange(n, dtype=dtype) * dtype(k))[:, None]).reshape(-1)


def masked_pool_forward(f, labels, k, argmax=True):
    """Per-image, per-category sums, counts, channelwise max and argmax.

    ``f`` is (N, H, W, C); ``labels`` is (N, H, W) with values in [0, k).
    Returns sums (N, k, C), counts (N, k), max (N, k, C) and argmax (N, k, C)
    as flat indices into the N*H*W pixels, or None without ``argmax``. Empty
    categories get zero sums and max, count 0 and argmax 0.
    """
    n, c = f.shape[0], f.shape[-1]
    f2 = f.reshape(-1, c)
    seg = _segments(labels, k, np.min_scalar_type(n * k).type)  # narrow keys sort faster
    counts = np.bincount(seg, minlength=n * k)
    order = np.argsort(seg, kind="stable")  # row-major order within each segment
    fs = np.take(f2, order, axis=0)
    nz = counts > 0
    starts = (np.cumsum(counts) - counts)[nz]
    sums = np.zeros((n * k, c), f.dtype)
    maxv = np.zeros((n * k, c), f.dtype)
    sums[nz] = np.add.reduceat(fs, starts, axis=0)
    maxv[nz] = np.maximum.reduceat(fs, starts, axis=0)
    argi = None
    if argmax:
        # the first sorted row attaining its segment's max, per channel
        hit = fs == np.repeat(maxv[nz], counts[nz], axis=0)
        # sorted positions, and the sentinel seg.size for rows off the max
        pos = np.where(hit, np.arange(seg.size, dtype=np.min_scalar_type(seg.size))[:, None],
                       seg.size)
        argi = np.zeros((n * k, c), np.int64)
        argi[nz] = order[np.minimum.reduceat(pos, starts, axis=0)]
        argi = argi.reshape(n, k, c)
    return sums.reshape(n, k, c), counts.reshape(n, k), maxv.reshape(n, k, c), argi


def masked_pool_backward(gmean, gmax, labels, counts, argi):
    """Gradient in the features: ``gmean``, the mean's gradient already scaled
    by 1/count, spread over each category's pixels, plus ``gmax`` at the max
    selections of the non-empty categories."""
    c = gmean.shape[-1]
    gf = gather_rows(gmean, labels)
    nz = counts.reshape(-1) > 0
    # segments own disjoint pixels, so no (pixel, channel) pair repeats
    gf.reshape(-1, c)[argi.reshape(-1, c)[nz], np.arange(c)] += gmax.reshape(-1, c)[nz]
    return gf


# ---------------------------------------------------------------------------
# Node scatter: broadcast one row per category onto its pixels, and its adjoint
# ---------------------------------------------------------------------------

def gather_rows(w, labels):
    """(N, H, W, C) map whose pixel takes row ``labels[n, i, j]`` of ``w[n]``."""
    n, k, c = w.shape
    return np.take(w.reshape(n * k, c), _segments(labels, k), axis=0).reshape(*labels.shape, c)


def scatter_rows(g, labels, k):
    """Per-image sums of the (N, H, W, C) rows of ``g`` by label: (N, k, C)."""
    n, c = g.shape[0], g.shape[-1]
    lab = labels.reshape(n, -1)
    p = lab.shape[1]
    onehot = np.zeros((n, k, p), g.dtype)
    onehot[np.arange(n)[:, None], lab, np.arange(p)] = 1
    return onehot @ g.reshape(n, p, c)
