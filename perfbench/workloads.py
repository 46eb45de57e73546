"""The benchmark's three workloads, each made from the workload seed.

Every workload builds its instances through matzero's public generators
and verifies each one with a public ``verify_*`` call on a one-element
list, so the program sees only the generated instances.  Seed 0 is the
default; it reproduces acceptance criteria 05 and 07.

* ``main-c05``: the criterion-05 batch, 2000 small instances.  Root
  isolation does most of the work.
* ``glued-nolines``: 16 glued projective-geometry instances of 13-20
  points, where the line-minor scan and the charpoly engine dominate.
* ``identities``: the criterion-07 identity battery, where many minors
  of one root share its rank cache and ``projgeom`` runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Glued shapes (q, block_rank, blocks, overlap_rank, deleted points).
# Each full shape has 13-20 points, at most n/4 private points are
# deleted, and overlap 0 and deletions are both present: they expose
# the cocircuit engine's cost above 11 elements.  The shape and the
# deletion count of each slot are fixed and the seed chooses which
# points go, so every seed measures the same mix of sizes.
GLUED_SLOTS = (
    (2, 2, 5, 0, 1),
    (2, 2, 5, 0, 2),
    (2, 2, 6, 1, 0),
    (2, 2, 8, 1, 3),
    (2, 2, 8, 1, 3),
    (2, 3, 2, 0, 1),
    (2, 3, 3, 1, 3),
    (2, 3, 3, 1, 4),
    (2, 3, 4, 2, 2),
    (2, 3, 4, 2, 3),
    (3, 2, 4, 0, 1),
    (3, 2, 4, 0, 2),
    (3, 2, 5, 0, 5),
    (3, 2, 6, 1, 4),
    (3, 2, 6, 1, 3),
    (3, 2, 6, 1, 4),
)
GLUED_SLOTS_TINY = ((2, 3, 2, 1, 3), (3, 2, 4, 1, 3))

# the criterion-07 glued shapes (q, block_rank, blocks, overlap_rank)
IDENTITY_SHAPES = (
    (2, 2, 2, 1),
    (2, 3, 2, 2),
    (2, 3, 2, 1),
    (3, 2, 2, 1),
    (4, 2, 2, 1),
    (5, 2, 2, 1),
)

BOUND_THEOREMS = {"main-c05": "main", "glued-nolines": "no-lines"}


@dataclass
class Item:
    """One instance and the public verify call that checks it."""

    rec: object
    verify_name: str
    args: tuple = ()

    @property
    def id(self) -> str:
        return self.rec.id

    def verify(self, mz) -> list:
        return getattr(mz, self.verify_name)([self.rec], *self.args)


def main_c05(mz, seed: int, tiny: bool) -> list[Item]:
    """main_theorem_suite for q in {2, 3}, k in {2, 3}; suite seed
    100*seed + 10*q + k, so seed 0 gives criterion 05's q*10 + k."""
    count = 5 if tiny else 500
    items = []
    for q in (2, 3):
        for k in (2, 3):
            for rec in mz.main_theorem_suite(q, k, count, seed=100 * seed + 10 * q + k):
                items.append(Item(rec, "verify_main_theorem", (q, k)))
    return items


def glued_nolines(mz, seed: int, tiny: bool) -> list[Item]:
    """One gen_glued instance per slot, verified at k = block_rank; an
    instance whose witness is wider than block_rank is redrawn."""
    rng = random.Random(f"glued-nolines:{seed}")
    items = []
    for slot, (q, block_rank, blocks, overlap, deleted) in enumerate(
        GLUED_SLOTS_TINY if tiny else GLUED_SLOTS
    ):
        for _ in range(100):
            rec = mz.gen_glued(q, block_rank, blocks, overlap,
                               seed=rng.randrange(1 << 30), delete_count=deleted)
            if rec.witnessed_width <= block_rank:
                break
        else:
            raise RuntimeError(f"slot {slot}: no witness of width {block_rank} in 100 draws")
        rec.id = f"gn{slot:02d}-{rec.id}"
        items.append(Item(rec, "verify_no_lines_theorem", (q, block_rank)))
    return items


def identities(mz, seed: int, tiny: bool) -> list[Item]:
    """Criterion 07: glued shapes x 3 glued seeds x 0-2 deletions, then
    50 random instances over q in {2, 3, 4, 5}.  Seed s uses glued
    seeds 3s..3s+2.  The random instances take q, rank and size from
    criterion 07's own stream for every seed, and the seed chooses their
    matrices, so every seed measures the same mix of sizes; seed 0 is
    criterion 07 itself."""
    shapes = IDENTITY_SHAPES[:2] if tiny else IDENTITY_SHAPES
    glued_seeds = range(3 * seed, 3 * seed + (1 if tiny else 3))
    recs = []
    for gseed in glued_seeds:
        for dels in range(2 if tiny else 3):
            for q, block_rank, blocks, overlap in shapes:
                recs.append(mz.gen_glued(q, block_rank, blocks, overlap,
                                         seed=gseed, delete_count=dels))
    sizes = random.Random("identities")
    matrices = random.Random(f"identities:{seed}")
    for i in range(4 if tiny else 50):
        q = (2, 3, 4, 5)[i % 4]
        r = sizes.randint(2, 3)
        n = sizes.randint(6, 9)
        sub = sizes.randrange(1 << 30)
        recs.append(mz.gen_random_linear(q, r, n, sub if seed == 0 else matrices.randrange(1 << 30)))
    return [Item(rec, "verify_identities") for rec in recs]


WORKLOADS = {
    "main-c05": main_c05,
    "glued-nolines": glued_nolines,
    "identities": identities,
}
