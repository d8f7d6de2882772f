"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

The ops are those the model's forward pass and loss run, plus
``weighted_sum``, the scalar probe the gradient checks take of an op's
output. They compute with numpy; the hot kernels live in kernels.py. The
batch is the leading axis of every image-shaped operand, and each image op
accepts that one layout only: (N, H, W, C) feature maps, (N, H, W) label
maps and (N, K, C) node tables. When a Tape is active and an input requires
gradients, the op appends a backward rule to the tape. With no active tape
the identical arithmetic runs tape-free, bitwise equal to the recorded path;
finite-difference checks rely on that. A tape runs backward once, releasing
each op's output, inputs and saved arrays as it passes them, so a training
step's activations are freed before its first layers' gradients are built.

Every op output is checked finite; NaN/Inf raises NumericsError immediately,
naming the op. A fused op also checks its intermediate stages and names the
failing one: the attention rounds check every round's scores ("reason round
2: scores produced non-finite values") before their output ("reason ...").
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import kernels


class ShapeError(ValueError):
    """Operand shapes violate an op precondition."""


class NumericsError(ArithmeticError):
    """A forward operation, or a parameter's gradient, produced NaN or Inf."""


_DTYPE = np.float64  # 64-bit is the test/gradcheck mode; training may use 32-bit
# smallest positive normal of each float width, looked up once (softmax floors)
_TINY = {np.dtype(t): np.finfo(t).tiny for t in (np.float32, np.float64)}


def get_default_dtype():
    return _DTYPE


_PRECISIONS = {"f32": np.float32, "f64": np.float64}


def precision(name: str):
    """Context manager pinning the default dtype: precision('f64') or ('f32')."""
    if name not in _PRECISIONS:
        raise ValueError(f"precision mode must be one of {tuple(_PRECISIONS)}, got {name!r}")
    return _pinned(_PRECISIONS[name])


@contextmanager
def _pinned(dtype):
    global _DTYPE
    saved, _DTYPE = _DTYPE, dtype
    try:
        yield
    finally:
        _DTYPE = saved


class Tensor:
    """A dense real array, optionally participating in the active tape."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DTYPE)
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_ACTIVE: "Tape | None" = None


class Tape:
    """Ordered record of operations; single owner, one active at a time.

    Entries are appended in execution order, so every op's inputs precede it.
    ``backward`` walks the record once in reverse, releasing each entry as it
    passes, and returns gradients for every requires_grad leaf reachable from
    the loss. ``len`` still counts the ops recorded after that.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object] | None] = []
        self._spent = False

    def __enter__(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tape is already active; tapes are single-owner")
        _ACTIVE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = None
        return False

    def __len__(self):
        return len(self._entries)

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """The gradient map {leaf tensor: dloss/dleaf} of every requires_grad
        leaf the loss reaches. Runs once per tape: each entry (its output,
        inputs and saved arrays) is released once its rule has run, so a
        second call raises RuntimeError. The leaves keep no state."""
        if self._spent:
            raise RuntimeError("this tape already ran backward and released its saved arrays")
        if loss.data.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self._spent = True
        entries = self._entries
        grads: dict[int, np.ndarray] = {id(loss): np.ones((), loss.data.dtype)}
        by_id: dict[int, Tensor] = {}
        produced = {id(out) for out, _, _ in entries}
        for i in range(len(entries) - 1, -1, -1):
            (out, inputs, back), entries[i] = entries[i], None
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, ig in zip(inputs, back(g)):
                if ig is None or not t.requires_grad:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + ig
                else:
                    grads[key] = ig
                if key not in produced:
                    by_id[key] = t
        return {by_id[key]: g for key, g in grads.items() if key in by_id}


_BRANCHES: "list[np.ndarray] | None" = None


@contextmanager
def branch_record():
    """Collect the branch every piecewise op takes while active: relu masks
    and max-pool selections. Two runs with equal records evaluate the same
    smooth piece of the function, so no kink lies between them."""
    global _BRANCHES
    saved, _BRANCHES = _BRANCHES, []
    try:
        yield _BRANCHES
    finally:
        _BRANCHES = saved


def _record_branch(choice: np.ndarray) -> None:
    if _BRANCHES is not None:
        _BRANCHES.append(choice)


def _check_finite(arr: np.ndarray, opname: str) -> None:
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NumericsError(f"{opname} produced non-finite values")


def _apply(opname: str, out_data: np.ndarray, inputs: tuple[Tensor, ...], back) -> Tensor:
    _check_finite(out_data, opname)
    out = Tensor(out_data, dtype=out_data.dtype)
    tape = _ACTIVE
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._entries.append((out, inputs, back))
    return out


# ---------------------------------------------------------------------------
# Elementwise and weighting ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = a.data + b.data  # non-finite results raise NumericsError in _apply
    return _apply("add", out, (a, b), lambda g: (g, g))


def weighted_sum(a: Tensor, w: np.ndarray) -> Tensor:
    """The scalar sum(a * w) for a constant ``w`` of ``a``'s shape: a random
    linear functional that the gradient checks take of an op's output."""
    w = np.asarray(w, a.data.dtype)
    if w.shape != a.shape:
        raise ShapeError(f"weighted_sum needs weights of shape {a.shape}, got {w.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = (a.data * w).sum()
    return _apply("weighted_sum", out, (a,), lambda g: (g * w,))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar (no rank promotion for constants)."""
    cd = a.data.dtype.type(c)
    return _apply("scale", a.data * cd, (a,), lambda g: (g * cd,))


# ---------------------------------------------------------------------------
# Linear algebra and shape ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of an (N, M, K) ``a`` with a (K, P) ``b`` shared by every
    batch entry, run as one GEMM over the N*M rows."""
    if a.data.ndim != 3 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs (N,M,K) x (K,P), got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def back(g):
        ga = g @ np.swapaxes(bd, -1, -2) if a.requires_grad else None
        gb = _shared_grad(ad, g) if b.requires_grad else None
        return ga, gb

    return _apply("matmul", ad @ bd, (a, b), back)


def _shared_grad(ad: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient in the shared (K, P) operand of ``ad @ b``: one GEMM over all rows."""
    return ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def concat_channels(tensors) -> Tensor:
    """Concatenation of (N, H, W, C_i) maps along the channel axis."""
    if not tensors or any(t.data.ndim != 4 or t.shape[:-1] != tensors[0].shape[:-1]
                          for t in tensors):
        raise ShapeError(f"concat_channels needs (N,H,W,C) maps of one (N,H,W), "
                         f"got {[t.shape for t in tensors]}")
    out = np.concatenate([t.data for t in tensors], axis=-1)
    splits = np.cumsum([t.shape[-1] for t in tensors])[:-1]
    return _apply("concat_channels", out, tuple(tensors),
                  lambda g: tuple(np.split(g, splits, axis=-1)))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    _record_branch(mask)
    return _apply("relu", a.data * mask, (a,), lambda g: (g * mask,))


def _softmax(x: np.ndarray, xmax: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by its max ``xmax`` (keepdims shape).

    Outputs are floored at the dtype's smallest positive normal so that a
    saturated row never underflows to an exact zero; an exact zero would kill
    the gradient of any downstream log-likelihood and make saturation
    unrecoverable in 32-bit training.
    """
    e = np.exp(x - xmax)
    s = e / np.add.reduce(e, axis=-1, keepdims=True)
    return np.maximum(s, _TINY[s.dtype])


def _softmax_back(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def row_softmax(x: np.ndarray) -> np.ndarray:
    """The floored softmax over the last axis of a short-rowed array (the
    attention rows)."""
    return _softmax(x, np.maximum.reduce(x, axis=-1, keepdims=True))


def softmax_channels(a: Tensor) -> Tensor:
    """Softmax over the channel axis of an (N, H, W, K) tensor.

    The channel max is taken one column at a time: K ``np.maximum`` calls over
    the N*H*W pixels beat numpy's reduction over a short contiguous last axis,
    and a max is exact in any order.
    """
    if a.data.ndim != 4:
        raise ShapeError(f"softmax_channels needs (N,H,W,K), got {a.shape}")
    x = a.data
    xmax = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(xmax, x[..., j : j + 1], out=xmax)
    s = _softmax(x, xmax)
    return _apply("softmax_channels", s, (a,), lambda g: (_softmax_back(s, g),))


# ---------------------------------------------------------------------------
# Graph reasoning: residual self-attention rounds over node rows
# ---------------------------------------------------------------------------

def attention_rounds(v: Tensor, pairs) -> Tensor:
    """Residual self-attention over (N, K, C) node rows, one round per (q1, q2)
    pair of (C, B) projections: scores = (v q1)(v q2)^T, attn their row
    softmax, and v + attn v feeds the next round.

    One tape entry covers every round. Its adjoint replays, round by round in
    reverse, the accumulation order of the op-by-op graph (matmul, transpose,
    row softmax, add), so gradients are bitwise the same: the gradient of v is
    the residual term, plus attn^T g, plus the term through q2, plus the term
    through q1. Each round's projections are separate inputs, last round
    first, so a pair shared by several rounds sums its gradient from the last
    round on. Every round's scores are checked finite and named in the error.
    """
    vd = v.data
    if vd.ndim != 3 or any(q1.data.ndim != 2 or q1.shape != q2.shape or q1.shape[0] != v.shape[-1]
                           for q1, q2 in pairs):
        raise ShapeError(f"reason needs (N,K,C) nodes and (C,B) projections, got {v.shape} "
                         f"and {[(q1.shape, q2.shape) for q1, q2 in pairs]}")
    saved = []
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as a NumericsError
        for r, (q1, q2) in enumerate(pairs, start=1):
            a1 = vd @ q1.data
            a2t = np.ascontiguousarray(np.swapaxes(vd @ q2.data, -1, -2))
            scores = a1 @ a2t
            _check_finite(scores, f"reason round {r}: scores")
            attn = row_softmax(scores)
            saved.append((vd, a1, a2t, attn))
            vd = vd + attn @ vd

    def back(g):
        qgrads = []
        for (vr, a1, a2t, attn), (q1, q2) in zip(reversed(saved), reversed(pairs)):
            gs = _softmax_back(attn, g @ np.swapaxes(vr, -1, -2))
            ga1 = gs @ np.swapaxes(a2t, -1, -2)
            ga2 = np.ascontiguousarray(np.swapaxes(np.swapaxes(a1, -1, -2) @ gs, -1, -2))
            g = (g + np.swapaxes(attn, -1, -2) @ g) + ga2 @ np.swapaxes(q2.data, -1, -2)
            g = g + ga1 @ np.swapaxes(q1.data, -1, -2)
            qgrads += [_shared_grad(vr, ga1) if q1.requires_grad else None,
                       _shared_grad(vr, ga2) if q2.requires_grad else None]
        return (g, *qgrads)

    inputs = (v, *(q for pair in reversed(pairs) for q in pair))
    return _apply("reason", vd, inputs, back)


# ---------------------------------------------------------------------------
# Convolution and the category-pooling / distribution ops
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, kern: Tensor, bias: Tensor | None = None) -> Tensor:
    """Same-padded, stride-1 cross-correlation of an (N, H, W, Cin) input with
    a square, odd (k, k, Cin, Cout) kernel: zero padding k // 2 on every side
    keeps the (N, H, W, Cout) output the input's size. An optional (Cout,)
    ``bias`` is added to every pixel."""
    if x.data.ndim != 4 or kern.data.ndim != 4:
        raise ShapeError(f"conv2d needs (N,H,W,Cin) x (kh,kw,Cin,Cout), "
                         f"got {x.shape} x {kern.shape}")
    kh, kw, cin, cout = kern.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d kernel extents must be equal and odd, got ({kh}, {kw})")
    if x.shape[-1] != cin:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernel {kern.shape}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d bias must be ({cout},), got {bias.shape}")
    xd, kd = x.data, kern.data
    out = kernels.conv2d_forward(xd, kd)
    if bias is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            out += bias.data

    def back(g):
        gx = kernels.conv2d_backward_input(g, kd) if x.requires_grad else None
        gk = kernels.conv2d_backward_kernel(xd, g, kh, kw) if kern.requires_grad else None
        if bias is None:
            return gx, gk
        return gx, gk, (g.sum(axis=(0, 1, 2)) if bias.requires_grad else None)

    return _apply("conv2d", out, (x, kern) if bias is None else (x, kern, bias), back)


def masked_pool(f: Tensor, label_map: np.ndarray, k: int):
    """Category-wise pooling of (N, H, W, C) features over (N, H, W) integer
    label maps, each image on its own.

    Returns (features, counts): (N, K, 2C) rows, one per category, holding the
    masked mean concatenated with the channelwise masked max, and (N, K) pixel
    counts. Empty categories pool to zero rows. The label maps are constants;
    gradients flow to ``f`` through the mean spread and the max selections.
    """
    if f.data.ndim != 4 or label_map.shape != f.shape[:-1]:
        raise ShapeError(f"masked_pool needs (N,H,W,C) features and (N,H,W) labels, "
                         f"got {f.shape} and {label_map.shape}")
    if label_map.min() < 0 or label_map.max() >= k:
        raise ShapeError(f"label map values out of range [0, {k})")
    c = f.shape[-1]
    # the max selections serve only the backward and the branch records
    argmax = _BRANCHES is not None or (_ACTIVE is not None and f.requires_grad)
    sums, counts, maxv, argi = kernels.masked_pool_forward(f.data, label_map, k, argmax)
    if argi is not None:
        _record_branch(argi)
    inv = np.zeros(counts.shape, f.data.dtype)
    nz = counts > 0
    inv[nz] = 1.0 / counts[nz]
    feats = np.concatenate([sums * inv[..., None], maxv], axis=-1)  # [mean | max]

    def back(g):
        # the mean's gradient spreads evenly over each mask: 1/count per pixel
        return (kernels.masked_pool_backward(g[..., :c] * inv[..., None], g[..., c:], label_map,
                                             counts, argi),)

    return _apply("masked_pool", feats, (f,), back), counts


def broadcast_nodes(w: Tensor, label_map: np.ndarray) -> Tensor:
    """Per-pixel lookup of (N, K, C) row tables through (N, H, W) label maps,
    image by image."""
    if w.data.ndim != 3 or label_map.ndim != 3:
        raise ShapeError(f"broadcast_nodes needs (N,K,C) tables with (N,H,W) labels, "
                         f"got {w.shape} and {label_map.shape}")
    k = w.shape[-2]
    return _apply("broadcast_nodes", kernels.gather_rows(w.data, label_map), (w,),
                  lambda g: (kernels.scatter_rows(g, label_map, k),))


def cross_entropy_mean(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of an (N, H, W, K) probability map at
    ``labels``, averaged over every pixel of the batch."""
    k = probs.shape[-1]
    if probs.data.ndim != 4 or labels.shape != probs.shape[:-1]:
        raise ShapeError(f"labels shape {labels.shape} does not match prediction {probs.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ShapeError(f"label out of range [0, {k})")
    p2 = probs.data.reshape(-1, k)
    rows = np.arange(p2.shape[0])
    lab = labels.reshape(-1)
    p = p2[rows, lab]
    tiny = _TINY[probs.data.dtype]
    pc = np.maximum(p, tiny)
    out = np.asarray(-np.log(pc).mean(), dtype=probs.data.dtype)
    n = p.size

    def back(g):
        gp = np.zeros_like(p2)
        gp[rows, lab] = np.where(p >= tiny, -g / (pc * n), 0.0)
        return (gp.reshape(probs.shape),)

    return _apply("cross_entropy", out, (probs,), back)


def argmax_channel(a: Tensor) -> np.ndarray:
    """Per-pixel argmax over channels of an (N, H, W, K) tensor. Not on the tape."""
    if a.data.ndim != 4:
        raise ShapeError(f"argmax_channel needs (N,H,W,K), got {a.shape}")
    return np.argmax(a.data, axis=-1).astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

def sgd_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], lr: float,
             momentum: float = 0.0, buffers: dict[str, np.ndarray] | None = None):
    """p <- p - lr * v with v = momentum * v + g. Updates params in place.

    Only parameters present in ``grads`` are touched, so unreached branches
    stay bitwise identical. Returns the momentum buffers.
    """
    if buffers is None:
        buffers = {}
    for name, g in grads.items():
        t = params[name]
        if g.shape != t.data.shape:
            raise ShapeError(f"sgd_step: gradient shape {g.shape} does not match "
                             f"parameter {name} shape {t.data.shape}")
        if momentum != 0.0:
            buf = buffers.get(name)
            buf = g.copy() if buf is None else momentum * buf + g
            buffers[name] = buf
            upd = buf
        else:
            upd = g
        t.data = t.data - t.data.dtype.type(lr) * upd
    return buffers


class SGD:
    """Plain SGD with momentum over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.9):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.buffers: dict[str, np.ndarray] = {}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        sgd_step(self.params, grads, self.lr, self.momentum, self.buffers)


def uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> Tensor:
    """Zero-mean uniform init scaled by 1/sqrt(fan_in); always a trainable leaf."""
    s = 1.0 / np.sqrt(max(1, fan_in))
    data = rng.uniform(-s, s, size=shape).astype(_DTYPE)
    return Tensor(data, requires_grad=True)
