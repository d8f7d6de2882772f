import numpy as np
import pytest

import grapy.model
import grapy.pyramid
import grapy.tensor
from grapy.hierarchy import coarsen, taxonomy_by_name
from grapy.metrics import ConfusionMatrix, confusions, evaluate_report, predictions
from grapy.model import ModelParams, batch_loss, forward
from grapy.synthdata import Dataset, Sample, SampleBatch, SceneSpec, generate
from grapy.tensor import Tape, argmax_channel
from oracles import confusion_oracle


class TestAccumulate:
    def test_perfect_is_diagonal(self):
        pred = np.array([[0, 1], [2, 1]])
        cm = ConfusionMatrix(3).add(pred, pred)
        assert np.array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_hand_case(self):
        cm = ConfusionMatrix(2).add(np.array([0, 1, 1]), np.array([0, 0, 1]))
        assert np.array_equal(cm.counts, [[1, 1], [0, 1]])

    def test_additivity_over_images(self):
        rng = np.random.default_rng(0)
        p1, g1 = rng.integers(0, 4, (3, 3)), rng.integers(0, 4, (3, 3))
        p2, g2 = rng.integers(0, 4, (3, 3)), rng.integers(0, 4, (3, 3))
        a = ConfusionMatrix(4).add(p1, g1).add(p2, g2)
        b = ConfusionMatrix(4).add(np.concatenate([p1, p2]), np.concatenate([g1, g2]))
        assert np.array_equal(a.counts, b.counts)

    def test_against_pixel_oracle(self):
        rng = np.random.default_rng(1)
        pred, gt = rng.integers(0, 5, (7, 7)), rng.integers(0, 5, (7, 7))
        cm = ConfusionMatrix(5).add(pred, gt)
        assert np.array_equal(cm.counts, confusion_oracle(pred, gt, 5))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(2).add(np.zeros((2, 2), int), np.zeros((3, 2), int))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(2).add(np.array([2]), np.array([0]))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16])
    def test_narrow_label_dtypes_do_not_wrap(self, dtype):
        # 19 * 20 + 0 = 380 wraps to 124 = cell (6, 4) in 8 bits
        cm = ConfusionMatrix(20).add(np.array([0], dtype), np.array([19], dtype))
        assert cm.counts[19, 0] == 1 and cm.counts.sum() == 1
        rng = np.random.default_rng(7)
        pred, gt = rng.integers(0, 20, (9, 9)), rng.integers(0, 20, (9, 9))
        cm = ConfusionMatrix(20).add(pred.astype(dtype), gt.astype(dtype))
        assert np.array_equal(cm.counts, confusion_oracle(pred, gt, 20))

    def test_float_labels_rejected(self):
        with pytest.raises(TypeError):
            ConfusionMatrix(3).add(np.array([0.5]), np.array([1.0]))


class TestMiou:
    def test_perfect_is_one(self):
        cm = ConfusionMatrix(3).add(np.array([0, 1, 2]), np.array([0, 1, 2]))
        assert cm.miou() == 1.0

    def test_hand_case(self):
        cm = ConfusionMatrix(2, counts=np.array([[1, 1], [0, 1]], np.int64))
        assert np.isclose(cm.miou(), 0.5)

    def test_absent_class_excluded(self):
        cm = ConfusionMatrix(3, counts=np.array([[2, 0, 0], [0, 2, 0], [0, 0, 0]],
                                                np.int64))
        assert cm.miou() == 1.0

    def test_all_classes_empty_is_error(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(3).miou()


class TestMeanAccuracy:
    def test_perfect_is_one(self):
        cm = ConfusionMatrix(2, counts=np.diag([3, 4]).astype(np.int64))
        assert cm.mean_accuracy() == 1.0

    def test_hand_case(self):
        cm = ConfusionMatrix(2, counts=np.array([[1, 1], [0, 1]], np.int64))
        assert np.isclose(cm.mean_accuracy(), 0.75)

    def test_count_doubling_invariance(self):
        counts = np.array([[3, 1], [2, 4]], np.int64)
        a = ConfusionMatrix(2, counts=counts).mean_accuracy()
        b = ConfusionMatrix(2, counts=2 * counts).mean_accuracy()
        assert np.isclose(a, b)


class TestInvariances:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        pred, gt = rng.integers(0, 4, (8, 8)), rng.integers(0, 4, (8, 8))
        cm = ConfusionMatrix(4).add(pred, gt)
        perm = rng.permutation(4)
        cm_p = ConfusionMatrix(4).add(perm[pred], perm[gt])
        assert np.isclose(cm.miou(), cm_p.miou())
        assert np.isclose(cm.mean_accuracy(), cm_p.mean_accuracy())

    def test_ranges(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pred, gt = rng.integers(0, 3, (6, 6)), rng.integers(0, 3, (6, 6))
            cm = ConfusionMatrix(3).add(pred, gt)
            assert 0.0 <= cm.miou() <= 1.0
            assert 0.0 <= cm.mean_accuracy() <= 1.0


class TestEvaluateAtLevel:
    def test_perfect_fine_predictor_is_perfect_coarse(self):
        # a model cannot be perfect, so check the coarsening path directly:
        # metrics at level 1 of identical pred/gt maps are exactly 1
        rng = np.random.default_rng(4)
        tax = taxonomy_by_name("A")
        from grapy.hierarchy import coarsen

        m = rng.integers(0, tax.k3, (8, 8))
        for level in (1, 2, 3):
            cm = ConfusionMatrix(tax.k_at(level)).add(coarsen(m, tax, level),
                                                      coarsen(m, tax, level))
            assert cm.miou() == 1.0 and cm.mean_accuracy() == 1.0

    def test_levels_and_branches_reported(self):
        rng = np.random.default_rng(5)
        tax = taxonomy_by_name("A")
        params = ModelParams.init(rng, tax, c_in=3, width=4, channels=4)
        samples = [Sample(image=rng.uniform(0, 1, (16, 16, 3)),
                          labels=rng.integers(0, tax.k3, (16, 16)))
                   for _ in range(2)]
        ds = Dataset("A", tax, samples)
        report, _ = evaluate_report(params, ds)
        assert sorted(report) == ["gpm", "main"]
        for branch in ("main", "gpm"):
            assert sorted(report[branch]) == [1, 2, 3]
            for miou, macc in report[branch].values():
                assert 0.0 <= miou <= 1.0 and 0.0 <= macc <= 1.0


def _coarsen_then_count(pairs, tax):
    """The per-level loop: coarsen every prediction and ground-truth map to
    each level and count it there."""
    cms = {level: ConfusionMatrix(tax.k_at(level)) for level in (1, 2, 3)}
    for pred, gt in pairs:
        for level in (1, 2, 3):
            cms[level].add(coarsen(pred, tax, level), coarsen(gt, tax, level))
    return cms


class TestDerivedLevels:
    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_block_sums_equal_coarsen_then_count(self, name):
        tax = taxonomy_by_name(name)
        rng = np.random.default_rng(ord(name))
        # labels drawn from a subset, so some classes are absent at every level
        present = np.array([0] + [i for i in range(1, tax.k3) if tax.to_level2[i] != 3])
        pairs = [(present[rng.integers(0, len(present), (6, 5))],
                  present[rng.integers(0, len(present), (6, 5))]) for _ in range(3)]
        fine = ConfusionMatrix(tax.k3)
        for pred, gt in pairs:
            fine.add(pred, gt)
        ref = _coarsen_then_count(pairs, tax)
        assert not ref[2].counts[3].any()  # level-2 Arm absent
        for level in (1, 2):
            merged = fine.merged(tax.table_to(level), tax.k_at(level))
            assert merged.k == tax.k_at(level)
            assert merged.counts.dtype == np.int64
            assert np.array_equal(merged.counts, ref[level].counts)
        assert np.array_equal(fine.counts, ref[3].counts)

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_evaluate_report_equals_per_level_loop(self, name):
        tax = taxonomy_by_name(name)
        params = ModelParams.init(np.random.default_rng(8), tax, width=4, channels=4)
        ds = Dataset(name, tax, generate(SceneSpec(seed=4, image_size=(16, 16)), tax, 3))
        report, cms = evaluate_report(params, ds)
        preds = {"main": [], "gpm": []}
        for sample in ds.samples:
            out = forward(sample.image[None], params, tax)
            preds["main"].append(argmax_channel(out.y)[0])
            preds["gpm"].append(argmax_channel(out.y_hat)[0])
        for b in ("main", "gpm"):
            ref = _coarsen_then_count(zip(preds[b], [s.labels for s in ds.samples]), tax)
            for level in (1, 2, 3):
                assert np.array_equal(cms[b][level].counts, ref[level].counts)
                assert report[b][level] == (ref[level].miou(), ref[level].mean_accuracy())

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_ground_truth_out_of_range_raises(self, bad):
        tax = taxonomy_by_name("A")
        rng = np.random.default_rng(9)
        params = ModelParams.init(rng, tax, width=4, channels=4)
        labels = rng.integers(0, tax.k3, (16, 16))
        labels[3, 4] = bad
        ds = Dataset("A", tax, [Sample(image=rng.uniform(0, 1, (16, 16, 3)), labels=labels)])
        with pytest.raises(ValueError):
            confusions(params, ds)


class TestLogitsOnly:
    """Eval and predict take argmaxes of logits; only the loss softmaxes."""

    @pytest.fixture
    def setup(self):
        tax = taxonomy_by_name("A")
        params = ModelParams.init(0, tax, width=4, channels=4)
        return params, Dataset("A", tax, generate(SceneSpec(seed=1, image_size=(16, 16)), tax, 2))

    @staticmethod
    def _patch(monkeypatch, fn):
        """``fn`` replaces ``softmax_channels`` wherever model and pyramid look it up."""
        monkeypatch.setattr(grapy.tensor, "softmax_channels", fn)
        monkeypatch.setattr(grapy.model, "softmax_channels", fn)
        monkeypatch.setattr(grapy.pyramid, "softmax_channels", fn, raising=False)

    def test_eval_and_predict_never_softmax(self, setup, monkeypatch):
        params, ds = setup

        def refuse(a):
            raise AssertionError("softmax_channels called outside the loss")

        self._patch(monkeypatch, refuse)
        report, _ = evaluate_report(params, ds)
        assert sorted(report) == ["gpm", "main"]
        for main_only, branches in ((False, ["gpm", "main"]), (True, ["main"])):
            preds = list(predictions(params, ds, main_only=main_only))
            assert len(preds) == len(ds) and all(sorted(p) == branches for p in preds)

    def test_two_branch_loss_softmaxes_twice_on_an_unchanged_tape(self, setup, monkeypatch):
        params, ds = setup
        calls, real = [], grapy.tensor.softmax_channels

        def counting(a):
            calls.append(a.shape)
            return real(a)

        self._patch(monkeypatch, counting)
        batch = SampleBatch([s.image for s in ds.samples], [s.labels for s in ds.samples])
        with Tape() as tape:
            batch_loss(batch, params, ds.taxonomy)
        assert calls == [(2, 16, 16, ds.taxonomy.k3)] * 2
        assert len(tape) == 29  # the count when forward softmaxed both heads itself
