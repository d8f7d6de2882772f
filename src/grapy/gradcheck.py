"""Central finite-difference gradient suites (64-bit only).

Tape gradients are compared against central differences of the tape-free
forward path, which computes bitwise-identically. Error metric per element:
|a - b| / max(1, |a|, |b|), reported as the suite maximum.

A central difference whose two probes fall on different sides of a kink (a
relu or a max-pool selection flips between them) measures the mean slope
across the kink, not the derivative at the point. Such a coordinate is
probed again with a ten times smaller step until both probes take the same
branches, down to ``MIN_FD_STEP``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .hierarchy import taxonomy_by_name
# the benchmark's tracer wraps ``coarsen`` here too
from .hierarchy import coarsen  # noqa: F401
from .model import ModelParams, forward, loss_tensor
from .pyramid import GpmLevelParams, GpmParams, pyramid_forward, reason
from .tensor import Tape, Tensor, precision, softmax_cross_entropy

FD_STEP = 1e-5
MIN_FD_STEP = 1e-8
TOLERANCE = 1e-4


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


def _same_branches(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def central_diff(func, arr: np.ndarray) -> np.ndarray:
    """d func / d arr by central differences, one coordinate at a time.

    The step shrinks tenfold for a coordinate whose probes straddle a kink.
    """
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        step = FD_STEP
        while True:
            with T.branch_record() as plus:
                flat[i] = orig + step
                fp = func()
            with T.branch_record() as minus:
                flat[i] = orig - step
                fm = func()
            if step <= MIN_FD_STEP or _same_branches(plus, minus):
                break
            step /= 10.0
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def tape_grads(build, leaves: list[Tensor]) -> list[np.ndarray]:
    """The tape gradient of the scalar ``build()`` for every leaf (zeros if unreached)."""
    with Tape() as tape:
        loss = build()
    grad_map = tape.backward(loss)
    return [grad_map.get(leaf, np.zeros_like(leaf.data)) for leaf in leaves]


def fd_error(build, leaves: list[Tensor], grads: list[np.ndarray]) -> float:
    """Max rel. error between ``grads`` and finite differences of ``build``."""
    worst = 0.0
    for leaf, got in zip(leaves, grads):
        fd = central_diff(lambda: float(build().data), leaf.data)
        worst = max(worst, rel_err(got, fd))
    return worst


def check_tensor_grads(build, leaves: list[Tensor]) -> float:
    """Max rel. error between tape gradients and finite differences of ``build``.

    ``build`` must construct the scalar loss from the given leaf tensors and is
    re-run (tape-free) for every perturbation.
    """
    return fd_error(build, leaves, tape_grads(build, leaves))


def op_suites(seed: int = 0) -> dict[str, float]:
    """Finite-difference checks of every tape op, each through a weighted_sum of its output."""
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    def leaf(*shape):
        return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)

    def probe(name, op, *leaves, w=None):
        """Record the suite of ``weighted_sum(op(*leaves), w)``, drawing ``w`` for the
        output's shape unless given; returns ``w``."""
        if w is None:
            w = rng.normal(size=op(*leaves).shape)
        results[name] = check_tensor_grads(lambda: T.weighted_sum(op(*leaves), w), list(leaves))
        return w

    w = probe("add", T.add, leaf(3, 4), leaf(3, 4))
    probe("matmul", T.matmul, leaf(1, 4, 5), leaf(5, 3))
    # shifted to keep off the kink
    probe("relu", T.relu, Tensor(rng.normal(0.0, 1.0, (4, 6)) + 0.2, requires_grad=True))
    x, k = leaf(1, 6, 6, 2), leaf(3, 3, 2, 3)
    wc = probe("conv2d", T.conv2d, x, k)
    probe("conv2d_bias", T.conv2d, x, k, leaf(3), w=wc)
    probe("concat", lambda *parts: T.concat_channels(list(parts)), leaf(1, 3, 3, 2),
          leaf(1, 3, 3, 3))
    u = leaf(3, 4)
    results["scale"] = check_tensor_grads(lambda: T.scale(T.weighted_sum(u, w), 2.5), [u])

    f = leaf(1, 5, 6, 3)
    labels = rng.integers(0, 3, size=(1, 5, 6))
    labels.reshape(-1)[:3] = [0, 1, 2]  # every category occupied
    probe("masked_pool", lambda f: T.masked_pool(f, labels, 3)[0], f)
    probe("broadcast_nodes", lambda nodes: T.broadcast_nodes(nodes, labels), leaf(1, 3, 4))
    logits = leaf(1, 4, 4, 3)
    q = rng.integers(0, 3, size=(1, 4, 4))
    results["cross_entropy"] = check_tensor_grads(
        lambda: softmax_cross_entropy(logits, q), [logits])

    # the same ops over a leading batch axis of 2
    probe("matmul_shared_batch2", T.matmul, leaf(2, 4, 5), leaf(5, 3))
    probe("conv2d_batch2", T.conv2d, leaf(2, 6, 6, 2), k)
    fb = leaf(2, 5, 6, 3)
    lb = rng.integers(0, 3, size=(2, 5, 6))
    lb.reshape(2, -1)[:, :3] = [0, 1, 2]
    probe("masked_pool_batch2", lambda f: T.masked_pool(f, lb, 3)[0], fb)
    probe("broadcast_nodes_batch2", lambda nodes: T.broadcast_nodes(nodes, lb), leaf(2, 3, 4))
    logits_b = leaf(2, 4, 4, 3)
    qb = rng.integers(0, 3, size=(2, 4, 4))
    results["cross_entropy_batch2"] = check_tensor_grads(
        lambda: softmax_cross_entropy(logits_b, qb), [logits_b])
    return results


def reason_suite(seed: int = 0, batch: int = 1) -> float:
    """Attention reasoning over a batch of 4-node sets, with one projection
    pair shared by every round."""
    rng = np.random.default_rng(seed)
    v = Tensor(rng.normal(0.0, 1.0, (batch, 4, 8)), requires_grad=True)
    params = GpmLevelParams.init(rng, 8, 4)
    w = rng.normal(size=(batch, 4, 8))
    return check_tensor_grads(lambda: T.weighted_sum(reason(v, params), w),
                              [v, params.q1, params.q2])


def pyramid_suite(seed: int = 0) -> float:
    """Pyramid-branch loss gradient wrt the feature map and all pyramid weights.

    Category maps are frozen from a fixed prediction so the checked function
    is exactly the one the tape differentiates (argmax stays off the tape).
    """
    rng = np.random.default_rng(seed)
    tax = taxonomy_by_name("A")
    f = Tensor(rng.normal(0.0, 1.0, (1, 8, 8, 4)), requires_grad=True)
    gpm = GpmParams.init(rng, 4, tax.k3)
    y = rng.uniform(0.0, 1.0, (1, 8, 8, tax.k3))
    q = rng.integers(0, tax.k3, size=(1, 8, 8))
    fine = np.argmax(y, axis=-1)

    def build():
        _, y_hat = pyramid_forward(f, tax, gpm, fine)
        return softmax_cross_entropy(y_hat, q)

    leaves = [f] + list(gpm.named().values())
    return check_tensor_grads(build, leaves)


def end_to_end_problem(seed: int = 0, batch: int = 1):
    """The two-branch loss of ``batch`` 8x8x4 images through ``forward`` and
    ``loss_tensor``, the training path, as (build, named parameters).

    The labels stand in for the main argmax (``forward``'s ``fine=``), so the
    category maps are constants for both the tape and the finite differences.
    """
    rng = np.random.default_rng(seed)
    tax = taxonomy_by_name("A")
    params = ModelParams.init(rng, tax, c_in=4, width=8, channels=4)
    images = rng.uniform(0.0, 1.0, (batch, 8, 8, 4))
    q = rng.integers(0, tax.k3, size=(batch, 8, 8))
    return lambda: loss_tensor(forward(images, params, tax, fine=q), q,
                               params.loss_weight), params.named()


def end_to_end_suite(seed: int = 0, batch: int = 1) -> float:
    """Two-branch loss gradient wrt every model parameter (see end_to_end_problem)."""
    build, named = end_to_end_problem(seed, batch)
    return check_tensor_grads(build, list(named.values()))


def run_all(seed: int = 0, verbose: bool = False) -> tuple[dict[str, float], bool]:
    """All suites in 64-bit; returns (per-suite max rel. error, all under tolerance)."""
    with precision("f64"):
        results = op_suites(seed)
        results["reason"] = reason_suite(seed)
        results["reason_batch2"] = reason_suite(seed, batch=2)
        results["pyramid"] = pyramid_suite(seed)
        results["end_to_end"] = end_to_end_suite(seed)
        results["end_to_end_batch2"] = end_to_end_suite(seed, batch=2)
    ok = all(v < TOLERANCE for v in results.values())
    if verbose:
        for name, value in results.items():
            mark = "ok " if value < TOLERANCE else "FAIL"
            print(f"{mark} {name:<18} max_rel_err={value:.3e}")
    return results, ok
