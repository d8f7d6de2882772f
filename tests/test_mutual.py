import numpy as np
import pytest

from grapy.hierarchy import builtin_taxonomies
from grapy.model import ModelParams, forward, init_model
from grapy.mutual import (MlModel, MlTrainConfig, RoundRobinSampler, audit_sharing,
                          ml_step, snapshot, train_mutual)
from grapy.pyramid import GpmParams
from grapy.synthdata import Dataset, SampleBatch, SceneSpec, generate
from grapy.tensor import SGD, Tensor, precision


@pytest.fixture(scope="module")
def taxonomies():
    return list(builtin_taxonomies())


def small_datasets(n=4, size=(16, 16)):
    out = []
    for i, tax in enumerate(builtin_taxonomies()):
        spec = SceneSpec(seed=30 + i, image_size=size)
        out.append(Dataset(tax.dataset_name, tax, generate(spec, tax, n)))
    return out


def small_model(taxonomies, seed=0, **kw):
    return MlModel.init(np.random.default_rng(seed), taxonomies,
                        c_in=3, width=4, channels=4, **kw)


class TestStructure:
    def test_branch_output_arities(self, taxonomies):
        model = small_model(taxonomies)
        rng = np.random.default_rng(1)
        image = rng.uniform(0, 1, (16, 16, 3))
        for d, k3 in ((1, 7), (2, 12), (3, 10)):
            out = forward(image[None], model.branch_params(d), taxonomies[d - 1])
            assert out.y.data[0].shape == (16, 16, k3)
            assert out.y_hat.data[0].shape == (16, 16, k3)

    def test_invalid_branch_index(self, taxonomies):
        model = small_model(taxonomies)
        with pytest.raises(ValueError):
            model.branch_params(0)
        with pytest.raises(ValueError):
            model.branch_params(4)

    def test_branch_for_picks_by_taxonomy_and_names_a_missing_one(self, taxonomies):
        model = small_model([taxonomies[1], taxonomies[0]])
        assert model.branch_for(taxonomies[0]) is model.branch_params(2)
        assert model.branch_for(taxonomies[1]) is model.branch_params(1)
        with pytest.raises(ValueError, match="no branch parses taxonomy 'C'.*B,A"):
            model.branch_for(taxonomies[2])
        with pytest.raises(ValueError, match="no branch parses taxonomy None"):
            model.branch_for(None)

    def test_name_sets_disjoint_and_partition(self, taxonomies):
        model = small_model(taxonomies)
        shared = set(model.shared_named())
        branch_sets = [set(model.branch_named(d)) for d in (1, 2, 3)]
        all_names = set(model.named())
        pieces = [shared] + branch_sets
        assert sum(len(p) for p in pieces) == len(all_names)
        for i, a in enumerate(pieces):
            for b in pieces[i + 1:]:
                assert not (a & b)

    def test_branch_params_share_storage(self, taxonomies):
        model = small_model(taxonomies)
        p1 = model.branch_params(1)
        p2 = model.branch_params(2)
        assert p1.gpm.levels[1].q1 is p2.gpm.levels[1].q1
        assert p1.backbone is p2.backbone
        assert p1.gpm.levels[3].q1 is not p2.gpm.levels[3].q1

    def test_needs_two_datasets(self, taxonomies):
        with pytest.raises(ValueError):
            MlModel.init(0, taxonomies[:1])

    def test_repeated_taxonomy_rejected(self, taxonomies):
        # two branches for one dataset: eval could only ever bind the first
        with pytest.raises(ValueError, match="own branch.*A,B,A"):
            small_model([taxonomies[0], taxonomies[1], taxonomies[0]])

    def test_negative_loss_weight_rejected(self, taxonomies):
        with pytest.raises(ValueError, match="loss weight"):
            small_model(taxonomies, loss_weight=-1.0)

    def test_separate_backbones_mode(self, taxonomies):
        model = small_model(taxonomies, share_backbone=False)
        assert not model.share_backbone
        names = set(model.named())
        assert "branch1.backbone.conv1.kernel" in names
        assert "shared.backbone.conv1.kernel" not in names
        p1, p2 = model.branch_params(1), model.branch_params(2)
        assert p1.backbone is not p2.backbone


class TestWeightSharing:
    def test_forced_equal_masks_give_equal_coarse_nodes(self, taxonomies):
        # Levels 1-2 differ across branches only through prediction-derived
        # masks; with identical masks their node features must be identical.
        model = small_model(taxonomies)
        rng = np.random.default_rng(2)
        image = rng.uniform(0, 1, (16, 16, 3))
        q_fine = rng.integers(0, 7, (16, 16))
        from grapy.pyramid import aggregate, reason

        lm1 = (q_fine > 0).astype(np.int64)  # the same Level-1 mask for every branch
        feats = {}
        for d in (1, 2, 3):
            params = model.branch_params(d)
            x = Tensor(np.asarray(image)[None] - 0.5)
            f = params.backbone.apply(x)
            nodes = aggregate(f, lm1[None], 2, level=1)
            refined = reason(nodes.features, params.gpm.levels[1])
            feats[d] = refined.data[0]
        assert np.array_equal(feats[1], feats[2])
        assert np.array_equal(feats[1], feats[3])

    def test_matches_single_dataset_model_under_forced_masks(self, taxonomies):
        # with identical init and identical masks, branch d must equal a
        # single-dataset model assembled from the same tensors
        model = small_model(taxonomies)
        params = model.branch_params(1)
        rng = np.random.default_rng(3)
        image = rng.uniform(0, 1, (16, 16, 3))
        q = rng.integers(0, 7, (16, 16))
        single = ModelParams(params.backbone, params.main_head,
                             GpmParams(dict(params.gpm.levels), params.gpm.head), 1.0)
        a = forward(image[None], params, taxonomies[0], fine=q[None])
        b = forward(image[None], single, taxonomies[0], fine=q[None])
        assert a.y.data[0].tobytes() == b.y.data[0].tobytes()
        assert a.y_hat.data[0].tobytes() == b.y_hat.data[0].tobytes()


class TestSteps:
    def test_gradient_locality(self, taxonomies):
        model = small_model(taxonomies)
        datasets = small_datasets()
        before = {d: snapshot(model.branch_named(d)) for d in (1, 2, 3)}
        shared_before = snapshot(model.shared_named())
        batch = SampleBatch([datasets[0].samples[0].image],
                            [datasets[0].samples[0].labels], datasets[0].taxonomy)
        opt = SGD(model.named(), lr=0.05, momentum=0.0)
        ml_step(batch, model, opt)
        assert snapshot(model.branch_named(2)) == before[2]
        assert snapshot(model.branch_named(3)) == before[3]
        assert snapshot(model.shared_named()) != shared_before
        assert snapshot(model.branch_named(1)) != before[1]

    def test_round_robin_cycles_in_order(self, taxonomies):
        datasets = small_datasets(n=3)
        sampler = RoundRobinSampler(datasets, np.random.default_rng(0), batch_size=2)
        order = [sampler.next_batch().taxonomy.dataset_name for _ in range(9)]
        assert order == ["A", "B", "C"] * 3
        assert sampler.epoch_steps == 3 * 2  # ceil(3 / 2) batches per dataset

    def test_sampler_of_one_dataset_names_its_taxonomy_and_reshuffles_per_pass(self, taxonomies):
        ds = small_datasets(n=3)[0]
        sampler = RoundRobinSampler([ds], np.random.default_rng(4), batch_size=2)
        rng = np.random.default_rng(4)
        want = [b for _ in range(2) for b in ds.batches(rng, 2)]
        got = [sampler.next_batch() for _ in range(4)]
        assert [b.taxonomy for b in got] == [ds.taxonomy] * 4
        assert sampler.epoch_steps == 2
        assert ([[im.tobytes() for im in b.images] for b in got]
                == [[im.tobytes() for im in b.images] for b in want])


class TestTrainMutual:
    def test_finetune_leaves_other_branches(self, taxonomies):
        datasets = small_datasets(n=2)
        with precision("f32"):
            cfg = MlTrainConfig(seed=0, lr=0.05, batch_size=2, epochs_pretrain=1,
                                epochs_main=1, epochs_finetune=0, width=4, channels=4)
            model = train_mutual(datasets, cfg)
            before = {d: snapshot(model.branch_named(d)) for d in (2, 3)}
            cfg_ft = MlTrainConfig(seed=0, lr=0.05, batch_size=2, epochs_pretrain=0,
                                   epochs_main=0, epochs_finetune=2, width=4, channels=4)
            model = train_mutual(datasets, cfg_ft, finetune_on=datasets[0], model=model)
            assert snapshot(model.branch_named(2)) == before[2]
            assert snapshot(model.branch_named(3)) == before[3]

    def test_log_has_dataset_column(self, taxonomies, tmp_path):
        datasets = small_datasets(n=2)
        cfg = MlTrainConfig(seed=0, lr=0.05, batch_size=2, epochs_pretrain=1,
                            epochs_main=0, epochs_finetune=0, width=4, channels=4)
        path = tmp_path / "ml.log"
        with precision("f32"), open(path, "w", encoding="utf-8") as log:
            train_mutual(datasets, cfg, log)
        rows = [ln.split("\t") for ln in path.read_text().strip().split("\n")]
        assert [r[2] for r in rows] == ["A", "B", "C"]
        for r in rows:
            int(r[0]), int(r[1]), float(r[3]), float(r[4])

    def test_pretrain_leaves_gpm_at_init(self, taxonomies):
        """The mutual twin of the single-model test: one schedule for both."""
        datasets = small_datasets(n=2)
        cfg = MlTrainConfig(seed=0, lr=0.05, batch_size=2, epochs_pretrain=2,
                            epochs_main=0, epochs_finetune=0, width=4, channels=4)
        with precision("f32"):
            fresh = snapshot(init_model(MlModel.init, cfg, taxonomies).named())
            trained = snapshot(train_mutual(datasets, cfg).named())
        moved = {name for name in fresh if trained[name] != fresh[name]}
        assert moved and all("gpm." not in name for name in moved)
        assert any(".main_head." in name for name in moved)

    def test_log_lr_column_follows_the_schedule(self, taxonomies, tmp_path):
        datasets = small_datasets(n=2)  # one batch per dataset and epoch
        cfg = MlTrainConfig(seed=0, lr=0.05, lr_decay=0.5, batch_size=2, epochs_pretrain=1,
                            epochs_main=1, epochs_finetune=1, width=4, channels=4)
        path = tmp_path / "ml.log"
        with precision("f32"), open(path, "w", encoding="utf-8") as log:
            train_mutual(datasets, cfg, log, finetune_on=datasets[1])
        rows = [ln.split("\t") for ln in path.read_text().splitlines()]
        assert [(r[0], r[2], r[4]) for r in rows] == [
            ("0", "A", "0.05"), ("0", "B", "0.05"), ("0", "C", "0.05"),
            ("1", "A", "0.025"), ("1", "B", "0.025"), ("1", "C", "0.025"),
            ("2", "B", "0.025")]

    def test_branches_in_another_order_than_the_datasets(self, taxonomies):
        """Each dataset trains the branch of its taxonomy, wherever the model holds it."""
        a, b = small_datasets(n=2)[:2]
        cfg = MlTrainConfig(seed=0, lr=0.05, batch_size=2, epochs_pretrain=1,
                            epochs_main=1, epochs_finetune=0, width=4, channels=4)
        with precision("f32"):
            model = small_model([b.taxonomy, a.taxonomy])
            train_mutual([a, b], cfg, model=model)
            before = {d: snapshot(model.branch_named(d)) for d in (1, 2)}
            train_mutual([a], cfg, model=model)
        assert snapshot(model.branch_named(1)) == before[1]  # B's branch
        assert snapshot(model.branch_named(2)) != before[2]  # A's branch

    def test_audit_sharing_passes(self, taxonomies):
        datasets = small_datasets(n=2)
        model = small_model(taxonomies)
        ok, report = audit_sharing(model, datasets)
        assert ok, report
        assert len(report) >= 3
