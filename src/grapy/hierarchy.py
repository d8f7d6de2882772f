"""Three-level label hierarchy and coarsening of fine label maps.

Level 1 and Level 2 are fixed across all datasets; Level 3 is the
dataset-specific fine list. A label map is an integer array of any shape,
one category index per pixel; ``coarsen`` maps it elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

LEVEL1_LABELS = ("Background", "Foreground")
LEVEL2_LABELS = ("Background", "Head", "Torso", "Arm", "Leg")
LEVEL2_TO_LEVEL1 = (0, 1, 1, 1, 1)
K1 = len(LEVEL1_LABELS)
K2 = len(LEVEL2_LABELS)


class TaxonomyError(ValueError):
    """Invalid taxonomy or label map."""


@dataclass(frozen=True)
class Taxonomy:
    """Fine label list plus its mapping into the fixed Level-2 categories."""

    dataset_name: str
    fine_labels: tuple[str, ...]
    to_level2: tuple[int, ...]

    @property
    def k3(self) -> int:
        return len(self.fine_labels)

    def k_at(self, level: int) -> int:
        return {1: K1, 2: K2, 3: self.k3}[level]

    def table_to(self, level: int) -> np.ndarray:
        """Fine-index -> level-index lookup table (identity at level 3), read-only."""
        if level not in (1, 2, 3):
            raise TaxonomyError(f"level must be 1, 2 or 3, got {level}")
        return self._tables[level - 1]

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        """The level 1, 2 and 3 tables, built on first use."""
        t2 = np.asarray(self.to_level2, dtype=np.int64)
        tables = (np.asarray(LEVEL2_TO_LEVEL1, dtype=np.int64)[t2], t2,
                  np.arange(self.k3, dtype=np.int64))
        for t in tables:
            t.flags.writeable = False
        return tables


def validate(tax: Taxonomy) -> list[str]:
    """Check every taxonomy invariant; returns a list of violations (empty = ok)."""
    problems = []
    if not tax.fine_labels:
        return ["fine label list is empty"]
    if tax.fine_labels[0] != "Background":
        problems.append(f"fine index 0 must be Background, got {tax.fine_labels[0]!r}")
    if len(set(tax.fine_labels)) != len(tax.fine_labels):
        problems.append("fine label names are not unique")
    if len(tax.to_level2) != len(tax.fine_labels):
        problems.append(f"to_level2 covers {len(tax.to_level2)} fine indices, "
                        f"need {len(tax.fine_labels)}")
        return problems
    for i, l2 in enumerate(tax.to_level2):
        if not 0 <= l2 < K2:
            problems.append(f"fine index {i} maps to invalid Level-2 index {l2}")
    if tax.to_level2 and tax.to_level2[0] != 0:
        problems.append("Background must map to Background at Level 2")
    for i in range(1, len(tax.to_level2)):
        if tax.to_level2[i] == 0:
            problems.append(f"non-background fine label {tax.fine_labels[i]!r} "
                            "maps to Background at Level 2")
    return problems


def coarsen(m: np.ndarray, tax: Taxonomy, level: int) -> np.ndarray:
    """Map a fine (Level-3) label map pixelwise to Level 1 or Level 2."""
    table = tax.table_to(level)  # checks the level
    m = np.asarray(m)
    if m.size and (m.min() < 0 or m.max() >= tax.k3):
        raise TaxonomyError(f"label map holds values outside [0, {tax.k3})")
    return table[m]


def builtin_taxonomies() -> tuple[Taxonomy, Taxonomy, Taxonomy]:
    """The three built-in synthetic taxonomies (7, 12 and 10 fine labels).

    All three share Level 1 and Level 2 but split the body differently at
    Level 3, so every pair disagrees on at least one fine split.
    """
    a = Taxonomy(
        dataset_name="A",
        fine_labels=("Background", "Head", "Torso", "UpperArm", "LowerArm",
                     "UpperLeg", "LowerLeg"),
        to_level2=(0, 1, 2, 3, 3, 4, 4),
    )
    b = Taxonomy(
        dataset_name="B",
        fine_labels=("Background", "Face", "Hair", "Hat", "TorsoSkin", "UpperClothes",
                     "UpperArm", "LowerArm", "Pants", "UpperLeg", "LowerLeg", "Shoe"),
        to_level2=(0, 1, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4),
    )
    c = Taxonomy(
        dataset_name="C",
        fine_labels=("Background", "Face", "Hair", "Torso", "Arm", "Hand",
                     "UpperLeg", "LowerLeg", "Shoe", "Belt"),
        to_level2=(0, 1, 1, 2, 3, 3, 4, 4, 4, 2),
    )
    for tax in (a, b, c):
        bad = validate(tax)
        assert not bad, bad
    return a, b, c


def taxonomy_by_name(name: str) -> Taxonomy:
    for tax in builtin_taxonomies():
        if tax.dataset_name == name:
            return tax
    raise TaxonomyError(f"unknown taxonomy {name!r}; built-ins are A, B, C")
