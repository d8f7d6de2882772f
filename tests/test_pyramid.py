import numpy as np
import pytest

from grapy.hierarchy import coarsen, taxonomy_by_name
from grapy.pyramid import (GpmLevelParams, GpmParams, aggregate, distribute,
                           masks_from_prediction, pyramid_forward, reason)
import grapy.tensor as T
from grapy.tensor import (NumericsError, Tape, Tensor, add, argmax_channel, precision,
                          softmax_cross_entropy, weighted_sum)
from oracles import (fd_gradient, gcr_oracle, gsa_oracle, gsd_oracle,
                     masks_oracle, pyramid_oracle, rel_err)


@pytest.fixture
def tax():
    return taxonomy_by_name("A")


def random_partition(rng, h, w, k):
    """A label map guaranteed to occupy every category."""
    lm = rng.integers(0, k, size=(h, w))
    lm.reshape(-1)[rng.permutation(h * w)[:k]] = np.arange(k)
    return lm


class TestMasksFromPrediction:
    def test_all_class0_prediction(self, tax):
        y = Tensor(np.eye(tax.k3)[np.zeros((4, 4), np.int64)][None])
        lm = masks_from_prediction(argmax_channel(y), tax, 1)
        assert np.all(lm == 0)

    def test_known_fine_map(self, tax):
        rng = np.random.default_rng(0)
        m = rng.integers(0, tax.k3, size=(5, 5))
        y = Tensor((np.eye(tax.k3)[m] + rng.uniform(0, 0.4, (5, 5, tax.k3)))[None])
        for level in (1, 2, 3):
            assert np.array_equal(masks_from_prediction(argmax_channel(y), tax, level)[0],
                                  coarsen(m, tax, level))

    def test_against_pixel_oracle(self, tax):
        rng = np.random.default_rng(1)
        y = Tensor(rng.uniform(0, 1, (1, 6, 6, tax.k3)))
        for level in (1, 2, 3):
            expect = masks_oracle(y.data[0], tax.table_to(level))
            assert np.array_equal(masks_from_prediction(argmax_channel(y), tax, level)[0], expect)

    def test_never_on_tape(self, tax):
        y = Tensor(np.random.rand(1, 4, 4, tax.k3), requires_grad=True)
        with Tape() as tape:
            masks_from_prediction(argmax_channel(y), tax, 2)
        assert len(tape) == 0


class TestAggregate:
    def test_single_category_global_means(self):
        rng = np.random.default_rng(2)
        f = Tensor(rng.normal(size=(1, 4, 4, 3)))
        nodes = aggregate(f, np.zeros((1, 4, 4), np.int64), 1, level=1)
        assert np.allclose(nodes.features.data[0, 0, :3], f.data[0].mean(axis=(0, 1)))
        assert np.allclose(nodes.features.data[0, 0, 3:], f.data[0].max(axis=(0, 1)))

    def test_constant_region_ave_equals_max(self):
        f = Tensor(np.full((1, 3, 3, 2), 1.5))
        nodes = aggregate(f, np.zeros((1, 3, 3), np.int64), 1, level=1)
        assert np.allclose(nodes.features.data, 1.5)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(4, 4, 3))
        lm = random_partition(rng, 4, 4, 2)
        nodes = aggregate(Tensor(f[None]), lm[None], 2, level=2)
        assert rel_err(nodes.features.data[0], gsa_oracle(f, lm, 2)) < 1e-6

    def test_empty_category_zero_row_and_occupancy(self):
        rng = np.random.default_rng(4)
        f = Tensor(rng.normal(size=(1, 4, 4, 3)))
        lm = np.zeros((1, 4, 4), np.int64)  # category 1 empty
        nodes = aggregate(f, lm, 2, level=2)
        assert np.all(nodes.features.data[0, 1] == 0)
        assert nodes.counts[0].tolist() == [16, 0]

    def test_counts_partition_the_pixels(self):
        rng = np.random.default_rng(5)
        f = Tensor(rng.normal(size=(1, 5, 5, 2)))
        lm = random_partition(rng, 5, 5, 3)
        nodes = aggregate(f, lm[None], 3, level=2)
        assert nodes.counts[0].tolist() == np.bincount(lm.reshape(-1), minlength=3).tolist()
        assert nodes.counts.sum() == 25


def _reason_op_by_op(v, pairs):
    """The attention rounds as separate tape ops (per-image matmul, transpose,
    row softmax, add): the graph ``tensor.attention_rounds`` fuses."""
    def bmm(a, b):
        ad, bd = a.data, b.data
        return T._apply("bmm", ad @ bd, (a, b), lambda g: (
            g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g))

    def transpose(a):
        return T._apply("transpose", np.ascontiguousarray(np.swapaxes(a.data, -1, -2)), (a,),
                        lambda g: (np.ascontiguousarray(np.swapaxes(g, -1, -2)),))

    def softmax(a):
        s = T.row_softmax(a.data)
        return T._apply("softmax", s, (a,),
                        lambda g: (s * (g - (g * s).sum(axis=-1, keepdims=True)),))

    for q1, q2 in pairs:
        scores = bmm(T.matmul(v, q1), transpose(T.matmul(v, q2)))
        v = add(v, bmm(softmax(scores), v))
    return v


class TestReason:
    def test_identical_rows_double_per_iteration(self):
        rng = np.random.default_rng(7)
        row = rng.normal(size=8)
        v = Tensor(np.tile(row, (5, 1))[None])
        params = GpmLevelParams.init(rng, 8, 4)
        out = reason(v, params, iterations=3)
        assert rel_err(out.data[0], 8.0 * v.data[0]) < 1e-9

    def test_single_node_attention_is_one(self, attention_mats):
        rng = np.random.default_rng(8)
        v = Tensor(rng.normal(size=(1, 8))[None])
        params = GpmLevelParams.init(rng, 8, 4)
        out = reason(v, params, iterations=3)
        assert len(attention_mats) == 3
        assert all(np.allclose(m[0], 1.0) for m in attention_mats)
        assert rel_err(out.data[0], 8.0 * v.data[0]) < 1e-9

    def test_against_straightline_oracle(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(5, 16))
        params = GpmLevelParams.init(rng, 16, 8)
        out = reason(Tensor(v[None]), params)
        expect = gcr_oracle(v, params.q1.data, params.q2.data)
        assert rel_err(out.data[0], expect) < 1e-6

    def test_attention_rows_sum_to_one(self, attention_mats):
        rng = np.random.default_rng(10)
        v = Tensor(rng.normal(0, 3, size=(6, 16))[None])
        params = GpmLevelParams.init(rng, 16, 8)
        reason(v, params)
        assert len(attention_mats) == 3
        for mat in attention_mats:
            assert np.abs(mat[0].sum(axis=1) - 1).max() < 1e-6

    def test_gradcheck(self):
        rng = np.random.default_rng(12)
        v = Tensor(rng.normal(size=(1, 4, 8)), requires_grad=True)
        params = GpmLevelParams.init(rng, 8, 4)
        w = rng.normal(size=(1, 4, 8))

        def build():
            return weighted_sum(reason(v, params), w)

        with Tape() as tape:
            loss = build()
        gm = tape.backward(loss)
        fd = fd_gradient(lambda: float(build().data), v.data)
        assert rel_err(gm[v], fd) < 1e-4

    def test_every_round_is_one_tape_entry(self):
        rng = np.random.default_rng(24)
        v = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        with Tape() as tape:
            reason(v, GpmLevelParams.init(rng, 8, 4))
        assert len(tape) == 1

    def test_bitwise_the_op_by_op_graph(self):
        # two calls on one tape, so each adds its projection gradients onto the other's
        rng = np.random.default_rng(26)
        params = GpmLevelParams.init(rng, 8, 4)
        vs = [Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True) for _ in range(2)]
        ws = [rng.normal(size=(2, 4, 8)) for _ in range(2)]
        pairs = [(params.q1, params.q2)] * 3

        def run(rounds):
            with Tape() as tape:
                loss = add(*(weighted_sum(rounds(v, pairs), w) for v, w in zip(vs, ws)))
            return loss, tape.backward(loss)

        fused, got = run(lambda v, pairs: reason(v, params))
        split, expect = run(_reason_op_by_op)
        assert fused.data.tobytes() == split.data.tobytes()
        assert set(got) == set(expect)
        for leaf in expect:
            assert got[leaf].tobytes() == expect[leaf].tobytes()

    def test_overflow_names_the_round_and_stage(self):
        # identical rows double each round, so the scores grow 4x: round 1's
        # 1e38 fits f32, round 2's 4e38 overflows it
        rng = np.random.default_rng(25)
        with precision("f32"):
            params = GpmLevelParams.init(rng, 8, 4)
            params.q1.data[:], params.q2.data[:] = 1e19 / 8, 1e19 / 8
            v = Tensor(np.ones((1, 4, 8)))
            with pytest.raises(NumericsError,
                               match="^reason round 2: scores produced non-finite values$"):
                reason(v, params)


class TestDistribute:
    def test_zero_nodes_identity(self):
        rng = np.random.default_rng(13)
        f = Tensor(rng.normal(size=(1, 4, 4, 3)))
        v = Tensor(np.zeros((1, 2, 6)))
        proj = Tensor(rng.normal(size=(6, 3)))
        out = distribute(f, v, proj, random_partition(rng, 4, 4, 2)[None])
        assert np.array_equal(out.data[0], f.data[0])

    def test_full_image_category_adds_row(self):
        rng = np.random.default_rng(14)
        f = Tensor(rng.normal(size=(1, 3, 3, 2)))
        v = Tensor(np.ones((1, 1, 4)))
        proj = Tensor(np.full((4, 2), 0.25))
        out = distribute(f, v, proj, np.zeros((1, 3, 3), np.int64))
        assert np.allclose(out.data[0], f.data[0] + 1.0)

    def test_against_indicator_oracle(self):
        rng = np.random.default_rng(15)
        f = rng.normal(size=(5, 5, 3))
        v = rng.normal(size=(4, 6))
        proj = rng.normal(size=(6, 3))
        lm = random_partition(rng, 5, 5, 4)
        out = distribute(Tensor(f[None]), Tensor(v[None]), Tensor(proj), lm[None])
        assert rel_err(out.data[0], gsd_oracle(f, v, proj, lm)) < 1e-6


class TestPyramidForward:
    @pytest.mark.parametrize("levels", [(1, 1, 2), (2, 2), (), (0, 1), (4,)])
    def test_bad_levels_rejected(self, tax, levels):
        # a repeat would make fewer levels than the head is sized for
        with pytest.raises(ValueError, match="without repeats"):
            GpmParams.init(np.random.default_rng(0), 4, tax.k3, levels=levels)

    def _inputs(self, rng, tax, h=6, w=6, c=4):
        f = rng.normal(size=(h, w, c))
        y = rng.uniform(0, 1, (h, w, tax.k3))
        return f, y

    def test_zeroed_params_stack_copies(self, tax):
        rng = np.random.default_rng(16)
        f, y = self._inputs(rng, tax)
        gpm = GpmParams.init(rng, 4, tax.k3)
        for lp in gpm.levels.values():
            lp.q1.data[:] = 0
            lp.q2.data[:] = 0
            lp.out_proj.data[:] = 0
        gpm.head.data[:] = 0
        f_hat, y_hat = pyramid_forward(Tensor(f[None]), tax, gpm, fine=np.argmax(y[None], axis=-1))
        assert np.array_equal(f_hat.data[0], np.concatenate([f] * 4, axis=2))
        assert np.allclose(T.row_softmax(y_hat.data)[0], 1.0 / tax.k3)

    def test_output_shapes(self, tax):
        rng = np.random.default_rng(17)
        f = Tensor(rng.normal(size=(1, 16, 16, 8)))
        y = Tensor(rng.uniform(0, 1, (1, 16, 16, tax.k3)))
        gpm = GpmParams.init(rng, 8, tax.k3)
        f_hat, y_hat = pyramid_forward(f, tax, gpm, fine=argmax_channel(y))
        assert f_hat.data[0].shape == (16, 16, 32)
        assert y_hat.data[0].shape == (16, 16, tax.k3)

    def test_against_composed_oracle(self, tax):
        rng = np.random.default_rng(18)
        f, y = self._inputs(rng, tax)
        gpm = GpmParams.init(rng, 4, tax.k3)
        for lp in gpm.levels.values():  # zero-init projections hide the level path
            lp.out_proj.data[:] = rng.normal(size=lp.out_proj.shape) * 0.3
        gpm.head.data[:] = rng.normal(size=gpm.head.shape) * 0.2
        f_hat, y_hat = pyramid_forward(Tensor(f[None]), tax, gpm, fine=np.argmax(y[None], axis=-1))
        tables = {l: tax.table_to(l) for l in (1, 2, 3)}
        lp = {l: (gpm.levels[l].q1.data, gpm.levels[l].q2.data,
                  gpm.levels[l].out_proj.data) for l in (1, 2, 3)}
        f_exp, y_exp = pyramid_oracle(f, y, tables, lp, gpm.head.data)
        assert rel_err(f_hat.data[0], f_exp) < 1e-6
        assert rel_err(T.row_softmax(y_hat.data)[0], y_exp) < 1e-6

    def test_level_subset(self, tax):
        rng = np.random.default_rng(19)
        f, y = self._inputs(rng, tax)
        gpm = GpmParams.init(rng, 4, tax.k3, levels=(3,))
        f_hat, y_hat = pyramid_forward(Tensor(f[None]), tax, gpm, fine=np.argmax(y[None], axis=-1))
        assert f_hat.data[0].shape == (6, 6, 8)
        assert y_hat.data[0].shape == (6, 6, tax.k3)

    def test_permutation_equivariance(self):
        # permuting category order (masks and node rows together) permutes the
        # node features and leaves the distributed map pixelwise unchanged
        rng = np.random.default_rng(21)
        k, c = 5, 4
        f = rng.normal(size=(6, 6, c))
        lm = random_partition(rng, 6, 6, k)
        params = GpmLevelParams.init(rng, 2 * c, c)
        params.out_proj.data[:] = rng.normal(size=params.out_proj.shape) * 0.3
        perm = rng.permutation(k)
        inv = np.argsort(perm)

        nodes = aggregate(Tensor(f[None]), lm[None], k, level=2)
        refined = reason(nodes.features, params)
        out = distribute(Tensor(f[None]), refined, params.out_proj, lm[None])

        lm_p = inv[lm]  # category i is renamed to inv[perm...]: new index of old k
        nodes_p = aggregate(Tensor(f[None]), lm_p[None], k, level=2)
        assert rel_err(nodes_p.features.data[0], nodes.features.data[0][perm]) < 1e-9
        refined_p = reason(nodes_p.features, params)
        assert rel_err(refined_p.data[0], refined.data[0][perm]) < 1e-9
        out_p = distribute(Tensor(f[None]), refined_p, params.out_proj, lm_p[None])
        assert rel_err(out_p.data[0], out.data[0]) < 1e-9

    def test_determinism_bitwise(self, tax):
        rng = np.random.default_rng(22)
        f, y = self._inputs(rng, tax)
        gpm = GpmParams.init(np.random.default_rng(3), 4, tax.k3)

        def run():
            f_hat, y_hat = pyramid_forward(Tensor(f[None]), tax, gpm,
                                           fine=np.argmax(y[None], axis=-1))
            return f_hat.data[0].tobytes() + y_hat.data[0].tobytes()

        assert run() == run()

    def test_branch_loss_gradcheck(self, tax):
        rng = np.random.default_rng(23)
        f = Tensor(rng.normal(size=(1, 8, 8, 4)), requires_grad=True)
        y = Tensor(rng.uniform(0, 1, (1, 8, 8, tax.k3)))
        gpm = GpmParams.init(rng, 4, tax.k3)
        q = rng.integers(0, tax.k3, (1, 8, 8))
        fine = argmax_channel(y)

        def build():
            _, y_hat = pyramid_forward(f, tax, gpm, fine)
            return softmax_cross_entropy(y_hat, q)

        with Tape() as tape:
            loss = build()
        gm = tape.backward(loss)
        worst = 0.0
        for leaf in [f, gpm.levels[2].q1, gpm.levels[1].out_proj, gpm.head]:
            fd = fd_gradient(lambda: float(build().data), leaf.data)
            got = gm.get(leaf, np.zeros_like(leaf.data))
            worst = max(worst, rel_err(got, fd))
        assert worst < 1e-4


class TestBatchAxis:
    """Two images through each stage at once, against the per-image oracles."""

    def test_stages_against_oracles(self):
        rng = np.random.default_rng(24)
        f = rng.normal(size=(2, 5, 6, 3))
        lm = np.stack([random_partition(rng, 5, 6, 4) for _ in range(2)])
        lm[1][lm[1] == 2] = 1  # category 2 empty in image 1 only
        params = GpmLevelParams.init(rng, 6, 3)
        params.out_proj.data[:] = rng.normal(size=params.out_proj.shape) * 0.3
        nodes = aggregate(Tensor(f), lm, 4, level=2)
        refined = reason(nodes.features, params)
        out = distribute(Tensor(f), refined, params.out_proj, lm)
        assert nodes.features.shape == (2, 4, 6) and nodes.counts.shape == (2, 4)
        assert [(c > 0).tolist() for c in nodes.counts] == [[True] * 4, [True, True, False, True]]
        assert nodes.counts.tolist() == [np.bincount(m.reshape(-1), minlength=4).tolist()
                                         for m in lm]
        for n in range(2):
            pooled = gsa_oracle(f[n], lm[n], 4)
            assert rel_err(nodes.features.data[n], pooled) < 1e-6
            gcr = gcr_oracle(pooled, params.q1.data, params.q2.data)
            assert rel_err(refined.data[n], gcr) < 1e-6
            assert rel_err(out.data[n], gsd_oracle(f[n], gcr, params.out_proj.data,
                                                   lm[n])) < 1e-6

    def test_pyramid_forward_against_composed_oracle(self, tax):
        rng = np.random.default_rng(25)
        f = rng.normal(size=(2, 6, 6, 4))
        y = rng.uniform(0, 1, (2, 6, 6, tax.k3))
        gpm = GpmParams.init(rng, 4, tax.k3)
        for lp in gpm.levels.values():
            lp.out_proj.data[:] = rng.normal(size=lp.out_proj.shape) * 0.3
        gpm.head.data[:] = rng.normal(size=gpm.head.shape) * 0.2
        f_hat, y_hat = pyramid_forward(Tensor(f), tax, gpm, fine=np.argmax(y, axis=-1))
        tables = {l: tax.table_to(l) for l in (1, 2, 3)}
        lp = {l: (gpm.levels[l].q1.data, gpm.levels[l].q2.data,
                  gpm.levels[l].out_proj.data) for l in (1, 2, 3)}
        for n in range(2):
            f_exp, y_exp = pyramid_oracle(f[n], y[n], tables, lp, gpm.head.data)
            assert rel_err(f_hat.data[n], f_exp) < 1e-6
            assert rel_err(T.row_softmax(y_hat.data)[n], y_exp) < 1e-6
