"""Helpers shared by the test modules.

* :func:`pivot`: the coordinate at which a packed vector leads.
* :func:`minor` and :func:`rooted`: minors whose elements and
  contracted set are kept in the root's indices, for the rank oracles
  that ask the root for r(A | C) - r(C).  A minor reads its parent's
  points and records nothing of the root, so a test takes these masks
  from the minors it builds itself.
* :func:`minor_chains`: a hypothesis strategy for chains of minors.
* :func:`rank_queries`: every rank the rank oracle is asked, recorded.
* :func:`rank_closure`: the closure of a set by rank queries alone,
  the reference for :meth:`Matroid.closure_mask`.
* :func:`criterion_07_instances`: the instances of acceptance
  criterion 07, the identity battery.
* :func:`glued_slots`: the glued shapes of the benchmark's workload.
* :func:`non_simple_matroids`: matroids with loops and parallel
  elements, and loopless ones with parallel elements.
"""

import ast
import random
import weakref
from pathlib import Path

from hypothesis import strategies as st

from matzero.gfq import gf
from matzero.harness import gen_glued, gen_random_linear
from matzero.matroid import GraphicMatroid, LinearMatroid, Matroid, as_mask, mask_bits, mask_of

CRITERION_07_SHAPES = (
    (2, 2, 2, 1),
    (2, 3, 2, 2),
    (2, 3, 2, 1),
    (3, 2, 2, 1),
    (4, 2, 2, 1),
    (5, 2, 2, 1),
)

# minor -> (root, kept root elements, contracted root mask)
_ROOTED = weakref.WeakKeyDictionary()


def pivot(field, v: int) -> int:
    """The index of the first nonzero coordinate of a packed vector;
    -1 for zero."""
    return ((v & -v).bit_length() - 1) // field.width


def rooted(m):
    """(root, kept, contracted mask) of m in its root's elements: a root
    keeps every element and contracts none; a minor must come from
    :func:`minor`."""
    if m.root is m:
        return m, tuple(range(m.n)), 0
    return _ROOTED[m]


def minor(m, delete=(), contract=()):
    """``m.minor(delete, contract)``, recorded for :func:`rooted`."""
    root, kept, cmask = rooted(m)
    out = m.minor(delete=delete, contract=contract)
    if out is not m:
        gone = as_mask(m.n, delete) | as_mask(m.n, contract)
        _ROOTED[out] = (
            root,
            tuple(k for i, k in enumerate(kept) if not (1 << i) & gone),
            cmask | mask_of(kept[i] for i in mask_bits(as_mask(m.n, contract))),
        )
    return out


def rank_queries(monkeypatch) -> list:
    """Wrap ``Matroid.rank_mask`` for the rest of the test so that every
    call, answered as before, appends its (matroid, mask) pair to the
    list returned, which the test may read and clear."""
    asked = []
    real = Matroid.rank_mask

    def rank_mask(m, mask):
        asked.append((m, mask))
        return real(m, mask)

    monkeypatch.setattr(Matroid, "rank_mask", rank_mask)
    return asked


def rank_closure(m, mask: int) -> int:
    """Reference: cl(``mask``) as ``mask`` and the elements e outside it
    with r(mask + e) = r(mask), one rank query each."""
    rank = m.rank_mask(mask)
    rest = m.full_mask & ~mask
    return mask | mask_of(e for e in mask_bits(rest) if m.rank_mask(mask | 1 << e) == rank)


@st.composite
def minor_chains(draw):
    """A random GF(q) matrix and a chain of up to three minors, each a
    minor of the one before, with random disjoint deleted and
    contracted sets."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 9)))
    height = draw(st.integers(0, 4))
    n = draw(st.integers(0, 9))
    cols = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * height), min_size=n, max_size=n))
    chain = [LinearMatroid(gf(q), cols, nrows=height)]
    for _ in range(draw(st.integers(1, 3))):
        last = chain[-1]
        fate = draw(st.lists(st.integers(0, 2), min_size=last.n, max_size=last.n))
        chain.append(minor(last, delete=[e for e, f in enumerate(fate) if f == 1],
                           contract=[e for e, f in enumerate(fate) if f == 2]))
    return chain


def criterion_07_instances() -> tuple[list, list]:
    """(glued, random) instances of acceptance criterion 07: every shape
    of ``CRITERION_07_SHAPES`` at glued seeds 0-2 with 0-2 deletions,
    then 50 random matrices over q in {2, 3, 4, 5}."""
    glued = [
        gen_glued(q, br, blocks, ov, seed=seed, delete_count=dels)
        for seed in range(3)
        for dels in range(3)
        for q, br, blocks, ov in CRITERION_07_SHAPES
    ]
    rng = random.Random("identities")
    rand = []
    for i in range(50):
        q = (2, 3, 4, 5)[i % 4]
        r = rng.randint(2, 3)
        n = rng.randint(6, 9)
        rand.append(gen_random_linear(q, r, n, rng.randrange(1 << 30)))
    return glued, rand


def glued_slots() -> tuple:
    """The benchmark's glued shapes (q, block_rank, blocks, overlap_rank,
    deleted points), ``GLUED_SLOTS`` read from the source of its
    workload module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "GLUED_SLOTS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py has no GLUED_SLOTS")


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def non_simple_matroids() -> list[tuple[str, object]]:
    """(name, matroid) pairs that are not simple: a graphic matroid with
    a loop edge and parallel edges, and GF(3) and GF(4) matrices with
    zero columns and repeated or rescaled ones, each also without its
    loops, so that parallel elements alone are left."""
    edges = K4_EDGES + [(1, 1), (0, 1), (2, 3), (0, 1)]
    out = [
        ("graph-loops", GraphicMatroid(4, edges)),
        ("graph-loopless", GraphicMatroid(4, [(u, v) for u, v in edges if u != v])),
    ]
    for q, cols in (
        (3, [(1, 0, 2), (0, 0, 0), (1, 1, 0), (2, 0, 1), (1, 0, 2), (0, 1, 1), (2, 2, 0),
             (0, 0, 0), (1, 2, 2), (0, 1, 1), (0, 0, 1), (1, 1, 1)]),
        (4, [(1, 2, 0), (0, 0, 0), (0, 1, 3), (1, 2, 0), (2, 3, 0), (1, 1, 1), (0, 0, 0),
             (3, 0, 1), (0, 2, 1), (1, 1, 1)]),
    ):
        out.append((f"gf{q}-loops", LinearMatroid(gf(q), cols)))
        out.append((f"gf{q}-loopless", LinearMatroid(gf(q), [c for c in cols if any(c)])))
    return out
