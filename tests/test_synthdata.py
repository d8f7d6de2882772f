import numpy as np
import pytest

from grapy.hierarchy import builtin_taxonomies, coarsen, taxonomy_by_name
from grapy.imageio import ParseError, read_pgm, read_ppm, write_pgm, write_ppm
from grapy.synthdata import (Dataset, DatasetError, GenerationError, SceneSpec, generate,
                             generate_sample, load_dataset, make_benchmark, read_sample,
                             save_dataset, write_sample)


@pytest.fixture(scope="module")
def tax_a():
    return taxonomy_by_name("A")


class TestGenerate:
    def test_bitwise_determinism(self, tax_a):
        spec = SceneSpec(seed=5)
        a = generate_sample(spec, tax_a, 3)
        b = generate_sample(spec, tax_a, 3)
        assert a.image.tobytes() == b.image.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_indices_differ(self, tax_a):
        spec = SceneSpec(seed=5)
        a, b = generate_sample(spec, tax_a, 0), generate_sample(spec, tax_a, 1)
        assert a.labels.tobytes() != b.labels.tobytes()

    def test_labels_in_range(self):
        for tax in builtin_taxonomies():
            for s in generate(SceneSpec(seed=1), tax, 10):
                assert s.labels.min() >= 0 and s.labels.max() < tax.k3

    def test_unoccluded_occupies_all_coarse_parts(self, tax_a):
        spec = SceneSpec(seed=3, figures_per_image=(1, 1))
        for i in range(100):
            s = generate_sample(spec, tax_a, i)
            parts = set(np.unique(coarsen(s.labels, tax_a, 2)))
            assert {1, 2, 3, 4} <= parts, f"sample {i} misses a body part"

    def test_zero_noise_zero_jitter_regions_color_constant(self, tax_a):
        spec = SceneSpec(seed=4, noise_sigma=0.0, palette_jitter=0.0,
                         figures_per_image=(1, 1))
        s = generate_sample(spec, tax_a, 0)
        lvl2 = coarsen(s.labels, tax_a, 2)
        for region in np.unique(lvl2):
            px = s.image[lvl2 == region]
            assert np.allclose(px, px[0])

    def test_every_fine_label_appears_across_dataset(self):
        for tax in builtin_taxonomies():
            hist = np.zeros(tax.k3, np.int64)
            for s in generate(SceneSpec(seed=7), tax, 60):
                hist += np.bincount(s.labels.reshape(-1), minlength=tax.k3)
            assert (hist > 0).all(), f"{tax.dataset_name}: missing {np.nonzero(hist == 0)}"

    def test_too_small_frame_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(image_size=(8, 8))

    def test_custom_taxonomy_has_no_refinement_rules(self, tax_a):
        from grapy.hierarchy import Taxonomy

        custom = Taxonomy("custom", tax_a.fine_labels, tax_a.to_level2)
        with pytest.raises(GenerationError):
            generate(SceneSpec(seed=0), custom, 1)

    def test_unplaceable_figure_errors_after_100_attempts(self):
        from grapy.synthdata import _figure_geometry

        class MaxRng:
            # always drawing the top of every range pushes the arm tips
            # past the frame edge, so no attempt can fit
            def uniform(self, lo, hi):
                return hi

        with pytest.raises(GenerationError, match="100"):
            _figure_geometry(MaxRng(), 16, 16)


class TestNetpbm:
    def test_label_round_trip(self, tmp_path, tax_a):
        s = generate_sample(SceneSpec(seed=2), tax_a, 0)
        ppm, pgm = write_sample(tmp_path / "s0", s)
        back = read_sample(ppm, pgm)
        assert np.array_equal(back.labels, s.labels)

    def test_image_quantized_round_trip(self, tmp_path, tax_a):
        s = generate_sample(SceneSpec(seed=2), tax_a, 0)
        ppm, pgm = write_sample(tmp_path / "s0", s)
        back = read_sample(ppm, pgm)
        assert np.abs(back.image - s.image).max() <= 0.5 / 255 + 1e-12

    def test_file_round_trip_byte_exact(self, tmp_path, tax_a):
        s = generate_sample(SceneSpec(seed=2), tax_a, 0)
        ppm, pgm = write_sample(tmp_path / "a", s)
        back = read_sample(ppm, pgm)
        ppm2, pgm2 = write_sample(tmp_path / "b", back)
        assert open(ppm, "rb").read() == open(ppm2, "rb").read()
        assert open(pgm, "rb").read() == open(pgm2, "rb").read()

    def test_pgm_header(self, tmp_path):
        write_pgm(tmp_path / "x.pgm", np.zeros((32, 32), np.uint8))
        header = (tmp_path / "x.pgm").read_bytes()[:32]
        assert header.split()[:4] == [b"P5", b"32", b"32", b"255"]

    def test_corrupt_magic_names_offset(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(path, np.zeros((4, 4), np.uint8))
        blob = bytearray(path.read_bytes())
        blob[0:2] = b"QQ"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="offset 0"):
            read_pgm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "x.ppm"
        write_ppm(path, np.zeros((4, 4, 3), np.uint8))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ParseError, match="truncated"):
            read_ppm(path)

    def test_size_mismatch_between_files(self, tmp_path):
        write_ppm(tmp_path / "i.ppm", np.zeros((4, 4, 3), np.uint8))
        write_pgm(tmp_path / "l.pgm", np.zeros((5, 4), np.uint8))
        with pytest.raises(ValueError, match="label"):
            read_sample(tmp_path / "i.ppm", tmp_path / "l.pgm")


class TestDatasetIO:
    def test_manifest_round_trip(self, tmp_path, tax_a):
        ds = Dataset("A", tax_a, generate(SceneSpec(seed=6), tax_a, 5))
        manifest = save_dataset(tmp_path / "d", ds)
        first = open(manifest, encoding="utf-8").readline()
        assert first == "taxonomy\tA\n"
        loaded = load_dataset(manifest)
        assert len(loaded) == 5
        assert loaded.taxonomy.dataset_name == "A"
        for a, b in zip(ds.samples, loaded.samples):
            assert np.array_equal(a.labels, b.labels)

    def test_manifest_taxonomy_mismatch(self, tmp_path, tax_a):
        ds = Dataset("A", tax_a, generate(SceneSpec(seed=6), tax_a, 1))
        manifest = save_dataset(tmp_path / "d", ds)
        with pytest.raises(ValueError, match="bound"):
            load_dataset(manifest, taxonomy=taxonomy_by_name("B"))

    def test_label_outside_taxonomy_names_manifest_line(self, tmp_path, tax_a):
        ds = Dataset("A", tax_a, generate(SceneSpec(seed=6, image_size=(16, 16)), tax_a, 3))
        ds.samples[1].labels[2, 3] = tax_a.k3  # one past the last fine label
        manifest = save_dataset(tmp_path / "d", ds)
        with pytest.raises(DatasetError, match=r"manifest\.txt:3: .*00001\.pgm.* label 7"):
            load_dataset(manifest)

    def test_image_size_differing_from_first_rejected(self, tmp_path, tax_a):
        small = generate(SceneSpec(seed=6, image_size=(16, 16)), tax_a, 2)
        large = generate(SceneSpec(seed=6, image_size=(20, 16)), tax_a, 1)
        manifest = save_dataset(tmp_path / "d", Dataset("A", tax_a, small + large))
        with pytest.raises(DatasetError, match=r"manifest\.txt:4: .*00002\.ppm.*\(20, 16\)"):
            load_dataset(manifest)

    def test_unreadable_sample_names_manifest_line(self, tmp_path, tax_a):
        ds = Dataset("A", tax_a, generate(SceneSpec(seed=6, image_size=(16, 16)), tax_a, 2))
        manifest = save_dataset(tmp_path / "d", ds)
        pgm = tmp_path / "d" / "00001.pgm"
        pgm.write_bytes(pgm.read_bytes()[:-1])
        with pytest.raises(DatasetError, match=r"manifest\.txt:3: .*truncated"):
            load_dataset(manifest)

    def test_benchmark_layout(self, tmp_path):
        paths = make_benchmark(0, tmp_path / "bench", image_size=(16, 16))
        assert set(paths) == {"A", "B", "C"}
        sizes = {"A": (200, 50), "B": (600, 100), "C": (400, 100)}
        for name, (ntrain, ntest) in sizes.items():
            train = load_dataset(paths[name]["train"])
            test = load_dataset(paths[name]["test"])
            assert (len(train), len(test)) == (ntrain, ntest)

    def test_batches_cover_dataset(self, tax_a):
        ds = Dataset("A", tax_a, generate(SceneSpec(seed=8), tax_a, 10))
        rng = np.random.default_rng(0)
        batches = list(ds.batches(rng, 4))
        assert [len(b.images) for b in batches] == [4, 4, 2]
