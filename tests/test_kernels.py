"""The numpy kernels against the loop oracles, on batches of two images."""

import numpy as np
import pytest

from grapy import kernels as K
from oracles import conv2d_loops, pool_oracle, rel_err, scatter_oracle


def _conv_shapes(rng, size):
    x = rng.normal(size=(2, 9, 7, 3))
    k = rng.normal(size=(size, size, 3, 5))
    return x, k, rng.normal(size=(2, 9, 7, 5))


@pytest.mark.parametrize("size", [1, 3, 5])
def test_conv_forward_matches_loop_oracle(size):
    x, k, _ = _conv_shapes(np.random.default_rng(0), size)
    out = K.conv2d_forward(x, k)
    for n in range(2):
        assert rel_err(out[n], conv2d_loops(x[n], k)) < 1e-10


@pytest.mark.parametrize("size", [1, 3, 5])
def test_conv_backward_kernels_are_adjoints(size):
    # <conv(x, k), g> = <x, d_input(g)> = <k, d_kernel(x, g)>
    x, k, g = _conv_shapes(np.random.default_rng(1), size)
    ref = float((K.conv2d_forward(x, k) * g).sum())
    gx = K.conv2d_backward_input(g, k)
    gk = K.conv2d_backward_kernel(x, g, size, size)
    assert gx.shape == x.shape and gk.shape == k.shape
    assert abs(float((x * gx).sum()) - ref) < 1e-9 * max(1.0, abs(ref))
    assert abs(float((k * gk).sum()) - ref) < 1e-9 * max(1.0, abs(ref))


def test_one_by_one_conv_is_a_matrix_product():
    rng = np.random.default_rng(2)
    x, k = rng.normal(size=(2, 4, 5, 3)), rng.normal(size=(1, 1, 3, 6))
    assert rel_err(K.conv2d_forward(x, k), x @ k[0, 0]) < 1e-12


def _check_pool(f, labels, k):
    sums, counts, maxv, argi = K.masked_pool_forward(f, labels, k)
    pixels = labels[0].size
    for n in range(f.shape[0]):
        s, c, m, a = pool_oracle(f[n], labels[n], k)
        assert rel_err(sums[n], s) < 1e-12 and rel_err(maxv[n], m) < 1e-12
        assert np.array_equal(counts[n], c)
        # flat indices over the batch: image n's pixels start at n * H * W
        assert np.array_equal(argi[n][c > 0], (a + n * pixels)[c > 0])
    return sums, counts, maxv, argi


def test_masked_pool_matches_oracle():
    rng = np.random.default_rng(3)
    f = rng.normal(size=(2, 6, 7, 4))
    labels = rng.integers(0, 5, size=(2, 6, 7))
    _check_pool(f, labels, 5)


def test_max_tie_breaks_to_first_pixel():
    f = np.ones((2, 3, 4, 2))
    labels = np.zeros((2, 3, 4), np.int64)
    labels[:, 1:, 2:] = 1
    _, _, _, argi = _check_pool(f, labels, 2)
    # category 0 starts at pixel 0, category 1 at pixel (1, 2) = 6, image 1 at 12
    assert argi[:, :, 0].tolist() == [[0, 6], [12, 18]]


def test_empty_category_pools_to_zero_and_gets_no_gradient():
    rng = np.random.default_rng(4)
    f = rng.normal(size=(2, 4, 4, 3))
    labels = np.zeros((2, 4, 4), np.int64)
    labels[1, 0, 0] = 1  # category 1 is empty in image 0 only
    sums, counts, maxv, argi = _check_pool(f, labels, 2)
    assert counts.tolist() == [[16, 0], [15, 1]]
    assert not sums[0, 1].any() and not maxv[0, 1].any() and not argi[0, 1].any()
    gmean = np.zeros((2, 2, 3))
    gmax = np.zeros((2, 2, 3))
    gmean[0, 1] = gmax[0, 1] = 1.0  # gradient on the empty node only
    gf = K.masked_pool_backward(gmean, gmax, labels, counts, argi)
    assert gf.shape == f.shape and not gf.any()


def test_single_category_is_global_pooling():
    rng = np.random.default_rng(5)
    f = rng.normal(size=(2, 3, 5, 4))
    sums, counts, maxv, _ = _check_pool(f, np.zeros((2, 3, 5), np.int64), 1)
    assert counts.tolist() == [[15], [15]]
    assert rel_err(maxv[:, 0], f.max(axis=(1, 2))) < 1e-12


def test_masked_pool_backward_matches_loop():
    rng = np.random.default_rng(6)
    f = rng.normal(size=(2, 5, 5, 3))
    labels = rng.integers(0, 4, size=(2, 5, 5))
    _, counts, _, argi = K.masked_pool_forward(f, labels, 4)
    gave, gmax = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))
    # the caller scales the mean's gradient by 1/count (every category is present)
    assert counts.all()
    got = K.masked_pool_backward(gave / counts[..., None], gmax, labels, counts, argi)
    assert got.shape == f.shape
    got = got.reshape(-1, 3)
    expect = np.zeros((50, 3))
    for n in range(2):
        for i, kk in enumerate(labels[n].reshape(-1)):
            expect[n * 25 + i] += gave[n, kk] / counts[n, kk]
        for kk in range(4):
            for cc in range(3):
                if counts[n, kk]:
                    expect[argi[n, kk, cc], cc] += gmax[n, kk, cc]
    assert rel_err(got, expect) < 1e-12


def test_scatter_matches_oracle_and_is_adjoint_of_gather():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(2, 5, 4))
    labels = rng.integers(0, 5, size=(2, 6, 7))
    labels[0][labels[0] == 3] = 2  # an empty category in image 0
    g = rng.normal(size=(2, 6, 7, 4))
    gathered = K.gather_rows(w, labels)
    scattered = K.scatter_rows(g, labels, 5)
    for n in range(2):
        assert np.array_equal(gathered[n], w[n][labels[n]])
        assert rel_err(scattered[n], scatter_oracle(g[n], labels[n], 5)) < 1e-12
    assert not scattered[0, 3].any()
    lhs, rhs = float((gathered * g).sum()), float((w * scattered).sum())
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def _pool_int64_keys(f, labels, k):
    """The pooling forward with int64 segment keys and positions throughout."""
    n, c = f.shape[0], f.shape[-1]
    f2 = f.reshape(-1, c)
    seg = (labels.reshape(n, -1).astype(np.int64) + (np.arange(n) * k)[:, None]).reshape(-1)
    counts = np.bincount(seg, minlength=n * k)
    order = np.argsort(seg, kind="stable")
    fs = f2[order]
    nz = counts > 0
    starts = (np.cumsum(counts) - counts)[nz]
    sums, maxv = np.zeros((n * k, c), f.dtype), np.zeros((n * k, c), f.dtype)
    sums[nz] = np.add.reduceat(fs, starts, axis=0)
    maxv[nz] = np.maximum.reduceat(fs, starts, axis=0)
    hit = fs == np.repeat(maxv[nz], counts[nz], axis=0)
    pos = np.where(hit, np.arange(seg.size, dtype=np.int64)[:, None], seg.size)
    argi = np.zeros((n * k, c), np.int64)
    argi[nz] = order[np.minimum.reduceat(pos, starts, axis=0)]
    return (sums.reshape(n, k, c), counts.reshape(n, k), maxv.reshape(n, k, c),
            argi.reshape(n, k, c))


@pytest.mark.parametrize("n, h, w, k", [
    (15, 3, 4, 17),    # n * k = 255: uint8 keys
    (16, 3, 4, 16),    # n * k = 256: uint16 keys
    (1, 255, 257, 3),  # N * H * W = 65535: uint16 positions
    (1, 256, 256, 3),  # N * H * W = 65536: uint32 positions
    (2, 9, 7, 300),    # n * k = 600, most categories empty
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_narrow_keys_equal_int64_keys_bitwise(n, h, w, k, dtype):
    rng = np.random.default_rng(n * k + h)
    # integer-valued features tie often, so the first-pixel argmax is exercised
    f = rng.integers(-3, 4, size=(n, h, w, 2)).astype(dtype)
    labels = rng.integers(0, k, size=(n, h, w))
    labels[labels == k // 2] = 0  # one category empty in every image
    got = K.masked_pool_forward(f, labels, k)
    ref = _pool_int64_keys(f, labels, k)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert not got[1][:, k // 2].any()
    sums, counts, maxv, argi = K.masked_pool_forward(f, labels, k, argmax=False)
    assert argi is None
    assert sums.tobytes() == ref[0].tobytes() and maxv.tobytes() == ref[2].tobytes()
    assert counts.tobytes() == ref[1].tobytes()
