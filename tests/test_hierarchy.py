import numpy as np
import pytest

from grapy.hierarchy import (K1, K2, LEVEL1_LABELS, LEVEL2_LABELS, Taxonomy,
                             TaxonomyError, builtin_taxonomies, coarsen,
                             taxonomy_by_name, validate)


@pytest.fixture(scope="module")
def taxonomies():
    return builtin_taxonomies()


class TestBuiltins:
    def test_counts(self, taxonomies):
        a, b, c = taxonomies
        assert (a.k3, b.k3, c.k3) == (7, 12, 10)
        assert K1 == 2 and K2 == 5

    def test_all_validate_clean(self, taxonomies):
        for tax in taxonomies:
            assert validate(tax) == []

    def test_shared_coarse_levels(self, taxonomies):
        # every taxonomy maps into the same fixed Level-1 and Level-2 categories
        for tax in taxonomies:
            assert (tax.k_at(1), tax.k_at(2)) == (len(LEVEL1_LABELS), len(LEVEL2_LABELS))
            assert set(tax.table_to(2)) == set(range(K2))
            assert set(tax.table_to(1)) == set(range(K1))

    def test_level_tables_built_once_and_read_only(self, taxonomies):
        for tax in taxonomies:
            for level in (1, 2, 3):
                table = tax.table_to(level)
                assert table is tax.table_to(level)
                with pytest.raises(ValueError):
                    table[0] = 1

    def test_pairwise_fine_disagreement(self, taxonomies):
        for i, t1 in enumerate(taxonomies):
            for t2 in taxonomies[i + 1:]:
                assert set(t1.fine_labels) != set(t2.fine_labels)

    def test_lookup_by_name(self, taxonomies):
        assert taxonomy_by_name("B").k3 == 12
        with pytest.raises(TaxonomyError):
            taxonomy_by_name("nope")


class TestCoarsen:
    def test_upper_arm_chain(self, taxonomies):
        a = taxonomies[0]
        idx = a.fine_labels.index("UpperArm")
        m = np.full((2, 2), idx)
        l2 = coarsen(m, a, 2)
        assert LEVEL2_LABELS[l2[0, 0]] == "Arm"
        l1 = coarsen(m, a, 1)
        assert LEVEL1_LABELS[l1[0, 0]] == "Foreground"

    def test_all_background(self, taxonomies):
        for tax in taxonomies:
            m = np.zeros((3, 3), np.int64)
            assert np.all(coarsen(m, tax, 2) == 0)
            assert np.all(coarsen(m, tax, 1) == 0)

    def test_against_pixel_lookup_oracle(self, taxonomies):
        rng = np.random.default_rng(0)
        for tax in taxonomies:
            m = rng.integers(0, tax.k3, size=(4, 4))
            for level in (1, 2):
                table = tax.table_to(level)
                expect = np.array([[table[m[i, j]] for j in range(4)] for i in range(4)])
                assert np.array_equal(coarsen(m, tax, level), expect)

    def test_composition_consistency(self, taxonomies):
        rng = np.random.default_rng(1)
        for tax in taxonomies:
            m = rng.integers(0, tax.k3, size=(8, 8))
            via_l2 = np.asarray([0, 1, 1, 1, 1])[coarsen(m, tax, 2)]
            assert np.array_equal(via_l2, coarsen(m, tax, 1))

    def test_background_mask_preserved(self, taxonomies):
        rng = np.random.default_rng(2)
        for tax in taxonomies:
            m = rng.integers(0, tax.k3, size=(6, 6))
            for level in (1, 2):
                assert np.array_equal(coarsen(m, tax, level) == 0, m == 0)

    def test_surjective_onto_occupied(self, taxonomies):
        rng = np.random.default_rng(3)
        tax = taxonomies[1]
        m = rng.integers(0, tax.k3, size=(10, 10))
        l2 = coarsen(m, tax, 2)
        occupied_parents = {tax.to_level2[i] for i in np.unique(m)}
        assert occupied_parents == set(np.unique(l2))

    def test_out_of_range_label(self, taxonomies):
        with pytest.raises(TaxonomyError):
            coarsen(np.array([[99]]), taxonomies[0], 2)

    def test_bad_level(self, taxonomies):
        with pytest.raises(TaxonomyError):
            coarsen(np.zeros((2, 2), np.int64), taxonomies[0], 4)


class TestValidate:
    def test_non_background_mapped_to_background(self):
        tax = Taxonomy("bad", ("Background", "Head"), (0, 0))
        problems = validate(tax)
        assert any("Background" in p for p in problems)

    def test_missing_fine_index(self):
        tax = Taxonomy("bad", ("Background", "Head", "Torso"), (0, 1))
        problems = validate(tax)
        assert any("covers" in p for p in problems)

    def test_background_not_first(self):
        tax = Taxonomy("bad", ("Head", "Background"), (1, 0))
        assert validate(tax)

    def test_level2_index_out_of_range(self):
        tax = Taxonomy("bad", ("Background", "Head"), (0, 9))
        assert any("invalid" in p for p in problems_of(tax))


def problems_of(tax):
    return validate(tax)

