"""Rank oracles, minors, flats, Mobius values, cocircuits, line minors,
and the matroid file format."""

import gc
import random
import weakref
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matzero import matroid
from matzero.errors import (
    ArgumentError,
    HasLoopError,
    MatZeroError,
    NotLinearError,
    NotSimpleError,
    ParseError,
    RankZeroError,
    TooLargeError,
)
from matzero.gfq import GF, gf
from matzero.harness import gen_glued
from matzero.instances import fano, k4_graphic, named, non_fano
from matzero.matroid import (
    GraphicMatroid,
    LinearMatroid,
    UniformMatroid,
    _quotient_covers,
    as_mask,
    format_matroid,
    mask_bits,
    mask_of,
    parse_matroid_text,
    ranks_agree,
    require_simple,
)
from support import (
    glued_slots,
    minor,
    minor_chains,
    non_simple_matroids,
    pivot,
    rank_closure,
    rank_queries,
    rooted,
)


def axiom_battery():
    yield fano()
    yield UniformMatroid(2, 5)
    yield UniformMatroid(0, 3)
    yield k4_graphic()
    rng = random.Random(11)
    F = gf(3)
    cols = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(6)]
    yield LinearMatroid(F, cols)


@pytest.mark.parametrize("m", list(axiom_battery()), ids=lambda m: repr(m))
def test_rank_axioms(m):
    """Normalization, monotonicity, unit increase, submodularity,
    exhaustively over all subset pairs."""
    ranks = m.ranks_table()
    n = m.n
    assert ranks[0] == 0
    for a in range(1 << n):
        ra = ranks[a]
        assert 0 <= ra <= bin(a).count("1")
        for e in range(n):
            bit = 1 << e
            if a & bit:
                continue
            assert ra <= ranks[a | bit] <= ra + 1
    for a in range(1 << n):
        for b in range(1 << n):
            assert ranks[a | b] + ranks[a & b] <= ranks[a] + ranks[b]


def test_mask_helpers():
    assert as_mask(5, [0, 2]) == 0b101
    assert as_mask(5, 0b11) == 0b11
    assert list(mask_bits(0b1011)) == [0, 1, 3]
    assert mask_of([3, 1]) == 0b1010
    with pytest.raises(ValueError):
        as_mask(3, [5])
    with pytest.raises(ValueError):
        as_mask(3, 1 << 4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_mask(3, 1 << 4), r"^mask 16 out of range for a 3-element ground set$"),
        (lambda: as_mask(3, [0, 5]), r"^element 5 out of range for a 3-element ground set$"),
        (lambda: UniformMatroid(2, 3, labels="ab"), r"^labels must match the ground set size$"),
        (lambda: fano().minor(delete=[0, 1], contract=[1]),
         r"^deleted and contracted sets must be disjoint$"),
        (lambda: LinearMatroid(gf(2), [(1, 0), (1,)]),
         r"^all columns must have the same height$"),
        (lambda: UniformMatroid(1.5, 3), r"^rank must be an integer, got 1\.5$"),
        (lambda: UniformMatroid(2, 3.0), r"^element count must be an integer, got 3\.0$"),
    ],
    ids=["mask", "element", "labels", "minor", "heights", "uniform-rank-float", "uniform-size-float"],
)
def test_bad_arguments_raise_a_typed_error(call, message):
    """Each bad-input path raises ArgumentError, a MatZeroError that is
    still a ValueError, with its message unchanged."""
    with pytest.raises(ArgumentError, match=message) as info:
        call()
    assert isinstance(info.value, MatZeroError) and isinstance(info.value, ValueError)


def test_closure():
    m = fano()
    # two points close to the third on their line
    line = m.closure_mask(0b11)
    assert bin(line).count("1") == 3
    assert m.rank_mask(line) == 2
    # closure is idempotent and extensive
    assert m.closure_mask(line) == line
    assert line & 0b11 == 0b11
    assert m.closure(range(7)) == tuple(range(7))


def _closure_battery(rng):
    """Seeded matrices over GF(2)-GF(5), each with a loop and a pair of
    parallel elements, a minor of each with two contractions, and
    graphic and uniform roots with minors of them."""
    for q in (2, 3, 4, 5):
        field = gf(q)
        for _ in range(3):
            height, n = rng.randint(2, 4), rng.randint(5, 8)
            cols = [[rng.randrange(q) for _ in range(height)] for _ in range(n)]
            cols[0] = [0] * height
            cols[2][0] = 1
            cols[1] = [field.mul[rng.randrange(1, q)][x] for x in cols[2]]
            m = LinearMatroid(field, cols)
            yield m
            yield m.minor(delete=[n - 1], contract=[2, 3])
    yield k4_graphic()
    yield k4_graphic().minor(delete=[5], contract=[0])
    yield GraphicMatroid(5, [(0, 1), (1, 2), (2, 0), (2, 0), (3, 3), (3, 4)])
    yield UniformMatroid(3, 7)
    yield UniformMatroid(3, 7).minor(delete=[0], contract=[5])
    yield UniformMatroid(2, 5)


def test_closure_reads_the_points_and_matches_the_rank_closure(monkeypatch):
    """closure_mask is the rank-oracle closure (support.rank_closure) of
    every subset, and it asks no rank."""
    asked = rank_queries(monkeypatch)
    for m in _closure_battery(random.Random(61)):
        ref = [rank_closure(m, a) for a in range(1 << m.n)]
        asked.clear()
        assert [m.closure_mask(a) for a in range(1 << m.n)] == ref, m
        assert asked == []


def test_loops_and_parallel_classes():
    F = gf(2)
    m = LinearMatroid(F, [(0, 0), (1, 0), (1, 0), (0, 1)])
    assert m.loops_mask() == 0b0001
    assert not m.is_loopless()
    with pytest.raises(HasLoopError):
        m.parallel_classes()
    clean = m.delete([0])
    assert clean.parallel_classes() == [(0, 1), (2,)]
    assert not clean.is_simple()
    simple, classes = clean.simplify()
    assert classes == [(0, 1), (2,)]
    assert simple.n == 2
    assert ranks_agree(simple, UniformMatroid(2, 2))
    with pytest.raises(NotSimpleError):
        require_simple(clean)
    with pytest.raises(NotSimpleError):
        require_simple(m)
    require_simple(fano())


def test_simplify_on_already_simple():
    m = fano()
    simple, classes = m.simplify()
    assert simple.n == 7
    assert classes == [(i,) for i in range(7)]
    assert ranks_agree(simple, m)


def test_minor_ranks():
    m = fano()
    d = m.delete([0])
    assert d.n == 6
    assert d.full_rank == 3
    c = m.contract([0])
    assert c.n == 6
    assert c.full_rank == 2
    # contraction rank formula: r_{M/e}(A) = r(A + e) - r(e)
    for a in range(1 << 6):
        root_mask = 0
        for i in mask_bits(a):
            root_mask |= 1 << (i + 1)
        assert c.rank_mask(a) == m.rank_mask(root_mask | 1) - 1


def test_minors_commute_and_flatten():
    m = fano()
    a = m.delete([1]).contract([0])  # element ids shift after deletion
    b = m.contract([0]).delete([0])
    assert ranks_agree(a, b)
    # a minor of a minor is evaluated against the original root
    assert a.root is m
    with pytest.raises(ValueError):
        m.minor(delete=[0], contract=[0])
    assert m.minor() is m


def test_restrict():
    m = UniformMatroid(3, 6)
    r = m.restrict([0, 1, 2, 3])
    assert r.n == 4
    assert r.full_rank == 3
    assert ranks_agree(r, UniformMatroid(3, 4))


# -- rank oracles that read no points ---------------------------------------------


def _offset_rank(m, mask):
    """r(A | C) - r(C) on the root's matrix, for A the root elements of
    ``mask`` and C the contracted set of m, by elimination over the
    root's packed columns; m is a root or comes from
    :func:`support.minor`."""
    root, kept, cmask = rooted(m)
    mat = root.matrix()

    def rank(rmask):
        return len(mat.field.echelon(mat.packed[e] for e in mask_bits(rmask)))

    return rank(mask_of(kept[e] for e in mask_bits(mask)) | cmask) - rank(cmask)


def _union_find_rank(edges, mask):
    """The graphic rank of the edges in ``mask``: those that join two
    components of the edges before them."""
    parent = {}

    def find(a):
        while a in parent:
            a = parent[a]
        return a

    rank = 0
    for e in mask_bits(mask):
        u, v = (find(x) for x in edges[e])
        if u != v:
            parent[u] = v
            rank += 1
    return rank


def contract_by_elimination(m, cmask):
    """M/C by explicit matrix surgery: reduce the other columns modulo
    the span of the contracted ones and drop that span's pivot rows."""
    field = m.field
    basis = field.echelon(m.packed[e] for e in mask_bits(cmask))
    pivot_rows = {pivot(field, row) for row in basis}
    keep_rows = [i for i in range(m.nrows) if i not in pivot_rows]
    kept = [e for e in range(m.n) if not (1 << e) & cmask]
    cols = []
    for e in kept:
        column = field.unpack(field.reduce(basis, m.packed[e]), m.nrows)
        cols.append([column[i] for i in keep_rows])
    return LinearMatroid(field, cols, [m.labels[e] for e in kept], nrows=len(keep_rows))


def test_contract_by_elimination_matches_minor():
    """A contraction read from its points has the ranks of the matrix
    that surgery builds and of the offset r(A | C) - r(C)."""
    rng = random.Random(5)
    F = gf(4)
    for _ in range(20):
        n = rng.randint(2, 7)
        cols = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(n)]
        m = LinearMatroid(F, cols)
        cmask = rng.randrange(1 << n)
        via_points = minor(m, contract=cmask)
        via_matrix = contract_by_elimination(m, cmask)
        assert ranks_agree(via_points, via_matrix)
        assert all(via_points.rank_mask(a) == _offset_rank(via_points, a)
                   for a in range(1 << via_points.n))
        assert via_points.labels == via_matrix.labels


@given(minor_chains())
@settings(max_examples=150, deadline=None)
def test_minor_ranks_are_the_offset_on_the_root(chain):
    for m in chain:
        assert [m.rank_mask(a) for a in range(1 << m.n)] == [
            _offset_rank(m, a) for a in range(1 << m.n)
        ]


def test_building_a_minor_asks_no_rank(monkeypatch):
    """delete, contract and minor, of roots and of minors, read their
    parent's points and ask no rank."""
    asked = rank_queries(monkeypatch)
    for m in (fano(), non_fano(), k4_graphic(), UniformMatroid(3, 6)):
        views = [m.delete([0]), m.contract([1]), m.minor(delete=[0], contract=[1, 2])]
        views += [v.minor(delete=[0], contract=[1]) for v in views]
        views.append(views[3].contract([0]).delete([0]))
        assert all(isinstance(v, matroid.MinorMatroid) for v in views)
    assert asked == []


def test_a_minor_builds_its_points_from_its_parents(monkeypatch):
    """Along a chain of three contractions, building the last minor runs
    one elimination over its own contracted element (one reduction) and
    projects its kept rows along the one echelon row it gives: the
    root's contracted set is not eliminated again.  A deletion is a
    slice of its parent's rows, with no elimination at all.  The ranks
    are still the offset r(A | C) - r(C) on the root."""
    rng = random.Random(41)
    F = gf(3)
    m = LinearMatroid(F, [[rng.randrange(3) for _ in range(5)] for _ in range(10)])
    first = minor(m, contract=[0, 1])
    second = minor(first, contract=[0, 1])
    sizes, reductions, projected = [], [], []
    real_echelon, real_reduce, real_project = GF.echelon, GF.reduce, GF.project

    def echelon(self, vectors):
        vectors = list(vectors)
        sizes.append(len(vectors))
        return real_echelon(self, vectors)

    def reduce(self, basis, v):
        reductions.append(v)
        return real_reduce(self, basis, v)

    def project(self, rows, prow):
        projected.append(len(rows))
        return real_project(self, rows, prow)

    monkeypatch.setattr(GF, "echelon", echelon)
    monkeypatch.setattr(GF, "reduce", reduce)
    monkeypatch.setattr(GF, "project", project)
    third = minor(second, contract=[0])
    third._points()
    assert sizes == [1] and len(reductions) == 1
    assert projected == [third.n] == [5]
    sizes.clear()
    reductions.clear()
    projected.clear()
    deleted = minor(third, delete=[0, 2])
    assert deleted._points()[2] == third._points()[2][1:2] + third._points()[2][3:]
    assert sizes == reductions == projected == []
    monkeypatch.undo()
    assert third.root is m and rooted(third)[2] == 0b11111
    for view in (third, deleted):
        assert [view.rank_mask(a) for a in range(1 << view.n)] == [
            _offset_rank(view, a) for a in range(1 << view.n)
        ]


def test_a_minor_keeps_no_reference_to_its_parent():
    """Once built, a minor holds its own points and the root, so a chain
    of minors keeps no intermediate minor alive."""
    root = fano()
    parent = root.contract([0])
    alive = weakref.ref(parent)
    child = parent.delete([0])
    del parent
    gc.collect()
    assert alive() is None
    assert child.root is root
    assert child.full_rank == 2 and child.n == 5


def _coloops_by_rank(m):
    r = m.full_rank
    return mask_of(e for e in range(m.n) if m.rank_mask(m.full_mask & ~(1 << e)) < r)


@given(minor_chains())
@settings(max_examples=150, deadline=None)
def test_coloops_are_the_elements_whose_deletion_drops_the_rank(chain):
    """coloops_mask() read off one elimination pass equals its rank
    definition r(E - e) < r(M) on matrices over GF(2, 3, 4, 5, 7, 9)
    with zero columns and repeated points, and on their deletions and
    contractions."""
    for m in chain:
        assert m.coloops_mask() == _coloops_by_rank(m)
        assert m.coloops_mask() & m.loops_mask() == 0


def test_coloops_of_graphic_and_uniform_matroids():
    """A bridge is a coloop and a loop edge is not; U_{r,n} has coloops
    only when r = n.  The same holds for minors of both."""
    rng = random.Random(43)
    checked = bridges = 0
    for _ in range(60):
        vertices = rng.randint(1, 6)
        edges = [(rng.randrange(vertices), rng.randrange(vertices))
                 for _ in range(rng.randint(0, 9))]
        g = GraphicMatroid(vertices, edges)
        views = [g]
        if g.n:
            fate = [rng.randrange(3) for _ in range(g.n)]
            views.append(g.minor(delete=[e for e, f in enumerate(fate) if f == 1],
                                 contract=[e for e, f in enumerate(fate) if f == 2]))
        for view in views:
            assert view.coloops_mask() == _coloops_by_rank(view)
            bridges += bin(view.coloops_mask()).count("1")
            checked += 1
    assert checked > 100 and bridges > 50
    for n in range(6):
        for r in range(n + 1):
            u = UniformMatroid(r, n)
            assert u.coloops_mask() == (u.full_mask if r == n else 0)
            for view in (u.delete([0]), u.contract([0])) if n else ():
                assert view.coloops_mask() == _coloops_by_rank(view)
    assert GraphicMatroid(2, [(0, 1), (1, 1)]).coloops_mask() == 0b01


def test_a_minor_has_no_matrix_of_its_own():
    with pytest.raises(NotLinearError, match="a minor has no matrix of its own"):
        fano().delete([0]).matrix()


def test_unknown_instance_name_is_a_typed_error():
    with pytest.raises(ArgumentError, match="'x'; known: fano, non-fano, k4"):
        named("x")
    assert named("k4").n == 6


def test_labels_follow_minors():
    m = LinearMatroid(gf(2), [(1, 0), (0, 1), (1, 1)], labels=("a", "b", "c"))
    assert m.delete([1]).labels == ("a", "c")
    assert m.contract([0]).labels == ("b", "c")


def test_mobius_u23():
    m = UniformMatroid(2, 3)
    flats = m.all_flats_with_mobius()
    assert [(f.rank, f.mobius) for f in flats] == [
        (0, 1), (1, -1), (1, -1), (1, -1), (2, 2),
    ]
    assert flats[0].mask == 0
    assert flats[-1].mask == 0b111
    assert flats[-1].elements() == (0, 1, 2)


def test_mobius_fano_top_value():
    flats = fano().all_flats_with_mobius()
    top = [f for f in flats if f.rank == 3]
    assert len(top) == 1
    assert top[0].mobius == -8
    # seven points, seven lines
    assert sum(1 for f in flats if f.rank == 1) == 7
    assert sum(1 for f in flats if f.rank == 2) == 7


def test_mobius_requires_loopless():
    m = LinearMatroid(gf(2), [(0,), (1,)])
    with pytest.raises(HasLoopError):
        m.all_flats_with_mobius()


def _closure_lattice(m):
    """Reference: the lattice of flats level by level, each flat above F
    found as cl(F + e) for every element e outside F, by rank queries
    (:func:`support.rank_closure`).  Returns the sorted levels and the
    set of covers of every flat."""
    bottom = rank_closure(m, 0)
    levels, up = [[bottom]], {}
    while True:
        nxt = set()
        for fmask in levels[-1]:
            up[fmask] = {
                rank_closure(m, fmask | (1 << e)) for e in mask_bits(m.full_mask & ~fmask)
            }
            nxt |= up[fmask]
        if not nxt:
            return levels, up
        levels.append(sorted(nxt))


def _random_linear_matroid(rng, q, rows, n):
    """Random columns, with a zero column (a loop) and a repeated
    column (a parallel pair) mixed in now and then."""
    cols = [tuple(rng.randrange(q) for _ in range(rows)) for _ in range(n)]
    if rng.random() < 0.3:
        cols[rng.randrange(n)] = (0,) * rows
    if rng.random() < 0.3:
        cols[rng.randrange(n)] = cols[rng.randrange(n)]
    return LinearMatroid(gf(q), cols)


def _matrix_with_line(rng, q, rank, extra, lift):
    """A matrix over GF(q) of the given rank, on q + rank - 1 + ``extra``
    columns, holding all q + 1 points of a projective line, a U_{2,q+1}
    minor.  With ``lift`` each point gets a random multiple of the unit
    column e2, so the line is a rank-2 flat of M/e2 only.  One column
    with its last nonzero entry at each further coordinate makes up the
    rank (e2 itself with ``lift``), and ``extra`` random columns follow."""
    pad = (0,) * (rank - 2)
    cols = [(1, 0) + pad] + [(a, 1) + pad for a in range(q)]
    if lift:
        cols = [p[:2] + (rng.randrange(q),) + p[3:] for p in cols]
    for top in range(2, rank):
        low = (0,) * top if lift and top == 2 else tuple(rng.randrange(q) for _ in range(top))
        cols.append(low + (1,) + (0,) * (rank - top - 1))
    cols += [tuple(rng.randrange(q) for _ in range(rank)) for _ in range(extra)]
    rng.shuffle(cols)
    return LinearMatroid(gf(q), cols)


def _random_minor(rng, m):
    """A minor of m with at least one deletion and one contraction."""
    order = rng.sample(range(m.n), m.n)
    cut = rng.randint(1, max(1, m.n // 4))
    return m.minor(delete=order[:cut], contract=order[cut:2 * cut])


def lattice_battery():
    rng = random.Random(31)
    for q in (2, 3, 4):
        for _ in range(6):
            yield _random_linear_matroid(rng, q, rng.randint(2, 4), rng.randint(3, 9))
    for q in (4, 5, 9):
        for rank in (3, 4, 5):
            m = _random_linear_matroid(rng, q, rank, rng.randint(rank + 1, 9))
            yield m
            yield _random_minor(rng, m)
            m = _matrix_with_line(rng, q, rank, 2, lift=rank > 3)
            yield m
            yield _random_minor(rng, m)
    yield k4_graphic()
    yield GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 3), (0, 3)])
    yield UniformMatroid(3, 6)
    yield UniformMatroid(2, 5)
    yield UniformMatroid(0, 2)
    yield fano().contract([0])
    yield non_fano().delete([1, 4])
    yield k4_graphic().contract([2]).delete([4])
    yield _random_linear_matroid(rng, 3, 4, 9).minor(delete=[0, 5], contract=[3])
    yield gen_glued(2, 2, 3, 1, seed=4).matroid


def _field_order(m):
    """q for a matrix or a minor of one; 3 otherwise (lengths up to 5)."""
    root = m.root
    return root.field.q if isinstance(root, LinearMatroid) else 3


def _longest_line(up):
    """The most atoms of any interval [F, T] of rank 2 in a cover
    relation, the longest U_{2,k} minor."""
    longest = 0
    for covers in up.values():
        atoms = {}
        for z in covers:
            for top in up[z]:
                atoms[top] = atoms.get(top, 0) + 1
        longest = max(longest, *atoms.values(), 0)
    return longest


def test_flat_lattice_matches_closure_oracle():
    """The walk (points of each M/F carried down from its parent for a
    matrix) gives the closure oracle's lattice, every flat's covers read
    from scratch are the oracle's, and the line scan agrees with the
    oracle's longest line for lengths up to q + 2."""
    full_lines = set()
    for m in lattice_battery():
        levels = m._flat_lattice()
        ref_levels, ref_up = _closure_lattice(m)
        assert levels == ref_levels, m
        for fmask, ref_covers in ref_up.items():
            assert set(_quotient_covers(m, fmask, None)) == ref_covers, m
        longest = _longest_line(ref_up)
        q = _field_order(m)
        for length in range(2, q + 3):
            assert m.has_line_minor(length) == (length <= longest), (m, length)
            assert m._line_scan(length) == (length <= longest), (m, length)
        if longest == q + 1:
            full_lines.add(q)
    assert full_lines >= {4, 5, 9}  # true answers from U_{2,q+1} minors


def _rank_covers(m, fmask, rank):
    """Reference: the covers of the flat ``fmask`` of rank ``rank``, each
    the closure of the lowest element not yet placed in an earlier
    cover, found by rank queries alone."""
    covers = []
    rest = m.full_mask & ~fmask
    while rest:
        low = rest & -rest
        cover = fmask | low
        for e in mask_bits(rest ^ low):
            if m.rank_mask(fmask | low | 1 << e) == rank + 1:
                cover |= 1 << e
        covers.append(cover)
        rest &= ~cover
    return covers


def test_linear_covers_agree_with_generic_and_query_no_ranks(monkeypatch):
    """A matroid and a minor of one read their covers from the root's
    matrix (kept columns reduced modulo the contracted span) with no
    rank query, and agree with covers found by rank queries."""
    asked = rank_queries(monkeypatch)
    rng = random.Random(37)
    roots = []
    for q in (2, 3, 4, 5):
        for _ in range(5):
            roots.append(_random_linear_matroid(rng, q, rng.randint(2, 4), rng.randint(3, 9)))
    roots += [k4_graphic(), GraphicMatroid(5, [(0, 1), (1, 2), (2, 0), (2, 0), (3, 3), (3, 4)]),
              UniformMatroid(3, 7), UniformMatroid(2, 5), UniformMatroid(1, 3)]
    for m in roots:
        fate = [rng.randrange(3) for _ in range(m.n)]
        deleted = [e for e in range(m.n) if fate[e] == 1]
        contracted = [e for e in range(m.n) if fate[e] == 2]
        for mm in (m, m.minor(deleted, contracted)):
            loops = rank_closure(mm, 0)
            levels, _ = _closure_lattice(mm)
            covers = [(fmask, sorted(_rank_covers(mm, fmask, rank)))
                      for rank, level in enumerate(levels) for fmask in level]
            asked.clear()
            assert mm.loops_mask() == loops
            for fmask, ref in covers:
                assert sorted(_quotient_covers(mm, fmask, None)) == ref
            assert asked == []


def _independent_set_hyperplanes(m):
    """Reference: the closure of every independent set of size r - 1,
    found by growing independent sets one element at a time."""
    target = m.full_rank - 1
    seen = set()

    def grow(start, mask, size):
        if size == target:
            seen.add(rank_closure(m, mask))
            return
        for e in range(start, m.n):
            bit = 1 << e
            if m.rank_mask(mask | bit) == size + 1:
                grow(e + 1, mask | bit, size + 1)

    grow(0, 0, 0)
    return sorted(seen)


def _pairwise_parallel_classes(m):
    """Reference: each element joins the first class whose first member
    spans a rank-1 set with it."""
    classes = []
    for e in range(m.n):
        for cls in classes:
            if m.rank_mask((1 << cls[0]) | (1 << e)) == 1:
                cls.append(e)
                break
        else:
            classes.append([e])
    return [tuple(c) for c in classes]


def flat_oracle_battery():
    """Seeded matrices over GF(2..5) with loops and parallel pairs mixed
    in, their loopless parts and random minors, and graphic, uniform
    and glued matroids."""
    rng = random.Random(41)
    for q in (2, 3, 4, 5):
        for _ in range(8):
            m = _random_linear_matroid(rng, q, rng.randint(1, 4), rng.randint(2, 9))
            yield m
            if m.loops_mask():
                yield m.delete(m.loops_mask())
            fate = [rng.randrange(4) for _ in range(m.n)]
            yield m.minor(
                delete=[e for e in range(m.n) if fate[e] == 0],
                contract=[e for e in range(m.n) if fate[e] == 1],
            )
    yield k4_graphic()
    yield GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 3), (0, 3)])
    yield GraphicMatroid(5, [(0, 1), (0, 1), (1, 2), (3, 4), (3, 4), (3, 4)])
    yield UniformMatroid(3, 6)
    yield UniformMatroid(1, 4)
    yield UniformMatroid(0, 2)
    yield fano().contract([0])
    yield non_fano().minor(delete=[1], contract=[4])
    yield gen_glued(2, 2, 3, 1, seed=4).matroid
    yield gen_glued(3, 3, 2, 1, seed=1, delete_count=2).matroid


def test_hyperplanes_match_independent_set_oracle():
    for m in flat_oracle_battery():
        if m.full_rank == 0:
            with pytest.raises(RankZeroError):
                m.hyperplanes()
            continue
        ref = _independent_set_hyperplanes(m)
        assert m.hyperplanes() == ref, m
        cocircuits = sorted(m.full_mask & ~h for h in ref)
        assert m.cocircuits() == cocircuits, m
        smallest = min(cocircuits, key=lambda c: (bin(c).count("1"), c))
        assert m.find_small_cocircuit() == smallest, m


def test_parallel_classes_match_pairwise_oracle():
    for m in flat_oracle_battery():
        if m.loops_mask():
            with pytest.raises(HasLoopError):
                m.parallel_classes()
            assert not m.is_simple()
            continue
        ref = _pairwise_parallel_classes(m)
        assert m.parallel_classes() == ref, m
        assert m.is_simple() == all(len(c) == 1 for c in ref), m


def test_matrix_flats_query_no_ranks(monkeypatch):
    """A matrix-backed matroid reads its parallel classes, hyperplanes
    and cocircuits off quotient vectors: the only rank it asks for is
    the full rank."""
    asked = rank_queries(monkeypatch)
    rng = random.Random(43)
    for q in (2, 3, 4, 5):
        for _ in range(5):
            cols = _random_linear_matroid(rng, q, rng.randint(2, 4), rng.randint(3, 9)).columns
            m = LinearMatroid(gf(q), [c for c in cols if any(c)] or [(1, 0)])
            asked.clear()
            m.parallel_classes()
            m.is_simple()
            assert asked == []
            m.hyperplanes()
            m.find_small_cocircuit()
            assert {mask for _, mask in asked} == {m.full_mask}


def test_hyperplanes_and_cocircuits_u23():
    m = UniformMatroid(2, 3)
    assert m.hyperplanes() == [0b001, 0b010, 0b100]
    assert m.cocircuits() == [0b011, 0b101, 0b110]
    assert m.find_small_cocircuit() == 0b011


def test_cocircuits_fano():
    m = fano()
    cocs = m.cocircuits()
    assert len(cocs) == 7
    assert all(bin(c).count("1") == 4 for c in cocs)
    assert bin(m.find_small_cocircuit()).count("1") == 4


def test_cocircuits_meet_every_basis():
    """A cocircuit intersects every maximal independent set."""
    m = k4_graphic()
    r = m.full_rank
    bases = [
        a for a in range(1 << m.n)
        if bin(a).count("1") == r and m.rank_mask(a) == r
    ]
    for c in m.cocircuits():
        assert all(a & c for a in bases)


def test_hyperplanes_need_positive_rank():
    with pytest.raises(RankZeroError):
        UniformMatroid(0, 2).hyperplanes()


def _line_minor_brute(m, length):
    """Reference: search contractions for a rank-2 flat carrying at
    least `length` parallel classes."""
    for cmask in range(1 << m.n):
        nm = m.contract(cmask)
        if nm.full_rank < 2:
            continue
        loops = nm.loops_mask()
        live = [e for e in range(nm.n) if not (1 << e) & loops]
        for i, e in enumerate(live):
            for f in live[i + 1:]:
                pair = (1 << e) | (1 << f)
                if nm.rank_mask(pair) != 2:
                    continue
                flat = rank_closure(nm, pair) & ~loops
                reps = []
                for x in mask_bits(flat):
                    if not any(
                        nm.rank_mask((1 << x) | (1 << rep)) == 1 for rep in reps
                    ):
                        reps.append(x)
                if len(reps) >= length:
                    return True
    return False


def test_line_minor_known_cases():
    assert UniformMatroid(2, 5).has_line_minor(5)
    assert not UniformMatroid(2, 5).has_line_minor(6)
    assert fano().has_line_minor(3)
    assert not fano().has_line_minor(4)  # binary matroids have no U_{2,4}
    assert non_fano().has_line_minor(4)
    assert not UniformMatroid(1, 4).has_line_minor(2)
    with pytest.raises(ValueError):
        fano().has_line_minor(1)
    with pytest.raises(ArgumentError):
        UniformMatroid(2, 5).has_line_minor(0)


def line_minor_battery():
    """Matroids of at most 8 elements, small enough for the brute force."""
    rng = random.Random(23)
    for q in (2, 3):
        for rows in (3, 4):
            for _ in range(8):
                n = rng.randint(3, 6) if rows == 3 else rng.randint(4, 7)
                cols = [tuple(rng.randrange(q) for _ in range(rows)) for _ in range(n)]
                yield LinearMatroid(gf(q), cols)
    for q in (4, 5, 9):
        for rank in (3, 4, 5):
            m = _random_linear_matroid(rng, q, rank, rng.randint(rank, 8))
            yield m
            yield _random_minor(rng, m)
    for q in (4, 5):
        for rank, lift in ((3, False), (3, True), (4, True)):
            m = _matrix_with_line(rng, q, rank, 9 - q - rank, lift)
            yield m
            yield _random_minor(rng, m)
    yield k4_graphic()
    yield GraphicMatroid(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (2, 2)])
    yield GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (1, 3)])
    yield UniformMatroid(3, 6).contract([0])
    yield UniformMatroid(3, 7).delete([1, 2])
    yield non_fano().contract([6])
    yield fano().minor(delete=[0], contract=[1])
    yield k4_graphic().contract([0])


def test_line_minor_against_brute_force():
    full_lines = set()
    for m in line_minor_battery():
        q = _field_order(m)
        for length in range(2, max(5, q + 2) + 1):
            answer = _line_minor_brute(m, length)
            assert m.has_line_minor(length) == answer, (m, length)
            assert m._line_scan(length) == answer, (m, length)
            if answer and length == q + 1:
                full_lines.add(q)
    assert full_lines >= {4, 5}  # true answers from U_{2,q+1} minors


def test_line_minor_scan_on_a_matrix_queries_no_ranks(monkeypatch):
    """On a matrix-backed matroid the scan reads every cover off the
    matrix, so the only rank it asks is r(M), at most once a scan."""
    m = gen_glued(2, 3, 3, 1, seed=0, delete_count=3).matroid
    assert m.n >= 14
    asked = rank_queries(monkeypatch)
    assert m.has_line_minor(3)
    assert not m.has_line_minor(4)  # binary matroids have no U_{2,4}
    assert not m._line_scan(4)
    assert len(asked) <= 2 and all(mm is m and mask == m.full_mask for mm, mask in asked)


def _line_with_coloops(length, coloops, view):
    """U_{2,length} plus ``coloops`` coloops over the smallest GF(q)
    with q >= length - 1: ``length`` points of the line spanned by the
    first two coordinates, then one unit column per further coordinate.
    Its loops have exactly ``length + coloops`` points, the fewest that
    the scan keeps at rank 0 when asked for ``length``.  With ``view``
    the same matroid is a minor of a larger matrix: every column gets a
    multiple of one more coordinate, whose unit column is contracted,
    and a column on no line of the first two coordinates is deleted."""
    q = next(q for q in (2, 3, 4, 5, 7, 8, 9) if q >= length - 1)
    rank = 2 + coloops
    line = [(1, 0)] + [(a, 1) for a in range(q)]
    cols = [p + (0,) * coloops for p in line[:length]]
    cols += [tuple(int(i == j) for i in range(rank)) for j in range(2, rank)]
    if not view:
        return LinearMatroid(gf(q), cols)
    rng = random.Random(length * 8 + coloops)
    cols = [c + (rng.randrange(q),) for c in cols]
    extra = [(1, 1) + (1,) * coloops + (0,), (0,) * rank + (1,)]
    m = LinearMatroid(gf(q), extra + cols)
    return m.minor(delete=[0], contract=[1])


@pytest.mark.parametrize("view", [False, True])
@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_line_scan_pruning_threshold_at_its_edge(rank, view):
    """A flat of rank j is kept with ``length + (r - 2) - j`` covers, not
    one more: U_{2,l} with r - 2 coloops sits exactly on that bound."""
    for length in range(3, 8):
        m = _line_with_coloops(length, rank - 2, view)
        assert (m.full_rank, m.n) == (rank, length + rank - 2)
        assert len(m.parallel_classes()) == length + rank - 2
        assert m.has_line_minor(length), (length, rank)
        assert not m.has_line_minor(length + 1), (length, rank)
        assert m._line_scan(length), (length, rank)
        assert not m._line_scan(length + 1), (length, rank)


def test_line_scan_matches_closure_oracle_on_larger_matrices():
    """9-12 element matrices of rank 3-5 over GF(4), GF(5) and GF(7),
    some holding a full projective line, against the longest line of the
    closure lattice."""
    rng = random.Random(41)
    answers = set()
    for q in (4, 5, 7):
        for rank in (3, 4, 5):
            battery = [_random_linear_matroid(rng, q, rank, rng.randint(9, 12))]
            extra = max(0, 9 - (q + rank - 1))
            if q + rank - 1 + extra <= 12:
                battery.append(_matrix_with_line(rng, q, rank, extra, lift=rank > 3))
            for m in battery:
                assert 9 <= m.n <= 12
                longest = _longest_line(_closure_lattice(m)[1])
                for length in range(2, q + 3):
                    answer = m.has_line_minor(length)
                    assert answer == (length <= longest), (m, length)
                    assert m._line_scan(length) == answer, (m, length)
                    answers.add(answer)
    assert answers == {True, False}


def test_line_scan_covers_only_flats_below_rank_r_minus_1(monkeypatch):
    """On a glued instance the scan asks for the covers of flats of rank
    at most r - 2 only, and of fewer flats than the full lattice walk.
    It is asked directly: over GF(3) has_line_minor(5) is answered by
    the field with no scan."""
    m = gen_glued(3, 2, 5, 0, seed=0, delete_count=5).matroid
    r = m.full_rank
    seen = []
    real = matroid._quotient_covers

    def counting(mm, fmask, carried):
        seen.append(fmask)
        return real(mm, fmask, carried)

    monkeypatch.setattr(matroid, "_quotient_covers", counting)
    assert not m._line_scan(5)
    scan = list(seen)
    seen.clear()
    m._flat_lattice()
    assert scan and all(m.rank_mask(f) <= r - 2 for f in scan)
    assert len(scan) < len(seen)


def _scan_work(monkeypatch, m, length):
    """has_line_minor(length) on m, with the number of _quotient_covers
    calls it made and the number of ranks it asked."""
    calls = []
    real, real_rank = matroid._quotient_covers, matroid.Matroid.rank_mask

    def counting(mm, fmask, carried):
        calls.append(fmask)
        return real(mm, fmask, carried)

    monkeypatch.setattr(matroid, "_quotient_covers", counting)
    asked = rank_queries(monkeypatch)
    answer = m.has_line_minor(length)
    monkeypatch.setattr(matroid, "_quotient_covers", real)
    monkeypatch.setattr(matroid.Matroid, "rank_mask", real_rank)
    return answer, len(calls), len(asked)


@pytest.mark.parametrize("slot", sorted(set(glued_slots())), ids=str)
def test_line_minor_past_the_field_does_no_work(slot, monkeypatch):
    """A GF(q) matrix has no (q + 2)-point line minor: has_line_minor
    says so with no cover read and no rank asked, the scan agrees, and
    at q + 1 the answer is the scan's."""
    q, block_rank, blocks, overlap, deleted = slot
    m = gen_glued(q, block_rank, blocks, overlap, seed=0, delete_count=deleted).matroid
    assert _scan_work(monkeypatch, m, q + 2) == (False, 0, 0)
    assert not m._line_scan(q + 2)
    assert m.has_line_minor(q + 1) == m._line_scan(q + 1)


def test_line_minor_field_reads_every_root_type(monkeypatch):
    """The field comes from the root's matrix: GF(2) for a graph, the
    normal rational curve's GF(4) for U_{2,5}, and the root's field for
    a minor view of a matrix.  At most q' + 1 the scan answers."""
    k4 = k4_graphic()
    assert _scan_work(monkeypatch, k4, 4) == (False, 0, 0)
    assert k4.has_line_minor(3) and k4._line_scan(3)
    u25 = UniformMatroid(2, 5)
    assert u25.matrix().field.q == 4
    answer, calls, _ = _scan_work(monkeypatch, u25, 5)
    assert answer and calls > 0
    assert _scan_work(monkeypatch, u25, 6) == (False, 0, 0)
    assert u25._line_scan(5) and not u25._line_scan(6)
    # the 5 points of PG(1, 4) plus a coloop, viewed with one column
    # contracted and one deleted
    line = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (0, 0, 1), (1, 1, 1)]
    view = LinearMatroid(gf(4), line).minor(delete=[6], contract=[5])
    assert isinstance(view, matroid.MinorMatroid)
    answer, calls, _ = _scan_work(monkeypatch, view, 5)
    assert answer and calls > 0
    assert _scan_work(monkeypatch, view, 6) == (False, 0, 0)
    assert view._line_scan(5) and not view._line_scan(6)


def test_graphic_rank_ignores_untouched_vertices():
    """A rank query costs the edges it names, not the vertex count."""
    m = parse_matroid_text("graph 1000000000000 2\n0 1\n1 2\n")
    assert m.full_rank == 2
    assert GraphicMatroid(10**18, [(5, 10**17), (10**17, 5), (7, 7)]).full_rank == 1


def test_graphic_matroid():
    m = k4_graphic()
    assert m.full_rank == 3
    # a triangle is dependent, a star is independent
    assert m.rank([0, 1, 3]) == 2
    assert m.rank([0, 1, 2]) == 3
    loop = GraphicMatroid(2, [(0, 0), (0, 1)])
    assert loop.loops_mask() == 0b01
    with pytest.raises(ValueError):
        GraphicMatroid(2, [(0, 2)])


def test_graphic_matroid_rejects_bad_vertices_with_a_typed_error():
    for bad in ((-1, []), (-1, [(0, 0)]), (2, [(0, 2)]), (2, [(-1, 0)]), (0, [(0, 0)])):
        with pytest.raises(ArgumentError):
            GraphicMatroid(*bad)
    assert GraphicMatroid(0, []).n == 0


def test_uniform_validation():
    with pytest.raises(ValueError):
        UniformMatroid(3, 2)
    with pytest.raises(TooLargeError):
        UniformMatroid(2, 25)


def test_linear_validation():
    with pytest.raises(ValueError):
        LinearMatroid(gf(2), [(1, 0), (1,)])
    with pytest.raises(ArgumentError, match=r"entry 2 is not an element of GF\(2\)"):
        LinearMatroid(gf(2), [(2, 0)])
    with pytest.raises(ArgumentError, match=r"entry -1 is not an element of GF\(3\)"):
        LinearMatroid(gf(3), [(0, -1)])  # not read as q - 1
    with pytest.raises(ArgumentError):
        gf(9).pack((0, 9))


def test_ranks_table_cap():
    with pytest.raises(TooLargeError):
        UniformMatroid(2, 21).ranks_table()


def test_from_rows_and_rows_round_trip():
    rows = [[1, 0, 1, 1], [0, 1, 1, 0]]
    m = LinearMatroid.from_rows(gf(2), rows)
    assert m.n == 4
    assert m.nrows == 2
    assert m.rows() == rows


def test_file_round_trip_linear():
    m = LinearMatroid(gf(4), [(1, 0), (0, 1), (1, 2), (3, 1)])
    text = format_matroid(m)
    back = parse_matroid_text(text)
    assert isinstance(back, LinearMatroid)
    assert back.field.q == 4
    assert back.columns == m.columns
    assert format_matroid(back) == text


def test_file_round_trip_graphic():
    m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    text = format_matroid(m)
    back = parse_matroid_text(text)
    assert isinstance(back, GraphicMatroid)
    assert back.num_vertices == 4
    assert back.edges == m.edges
    assert format_matroid(back) == text


def test_file_round_trip_rank_zero():
    m = LinearMatroid(gf(3), [()] * 4, nrows=0)
    back = parse_matroid_text(format_matroid(m))
    assert back.n == 4
    assert back.full_rank == 0


def test_file_format_errors():
    with pytest.raises(ValueError):
        parse_matroid_text("")
    with pytest.raises(ValueError):
        parse_matroid_text("2 2 3\n1 0 1\n")  # missing a row
    with pytest.raises(ValueError):
        parse_matroid_text("2 1 3\n1 0\n")  # short row
    with pytest.raises(ValueError):
        parse_matroid_text("graph 2 2\n0 1\n")  # missing an edge


def test_file_comments_ignored():
    text = "# a triangle\n2 2 3\n1 0 1\n0 1 1\n"
    m = parse_matroid_text(text)
    assert m.n == 3
    assert ranks_agree(m, UniformMatroid(2, 3))


def test_file_comments_anywhere_on_a_line():
    text = "2 2 3        # GF(q), r rows, n columns\n  # indented\n1 0 1  # row 1\n0 1 1\n"
    assert ranks_agree(parse_matroid_text(text), UniformMatroid(2, 3))
    graph = parse_matroid_text("graph 3 2  # a path\n    # indented\n0 1  # edge\n 1 2\n")
    assert graph.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text, line",
    [
        ("", None),
        ("# only a comment\n", None),
        ("2 1\n1 0\n", 1),  # header arity
        ("2 1 x\n1 0\n", 1),
        ("6 1 2\n1 1\n", 1),  # not a prime power
        ("64 1 1\n0\n", 1),  # a prime power above the order cap
        ("2305843009213693951 1 1\n0\n", 1),  # 2**61 - 1, prime
        ("2 0 -3\n", 1),
        ("2 2 3\n1 0 1\n", 1),  # missing a row
        ("2 1 3\n1 0\n", 2),  # short row
        ("2 1 2\n1 x\n", 2),
        ("2 1 2\n1 2\n", 2),  # entry outside GF(2)
        ("graph 2\n", 1),
        ("graph -1 0\n", 1),
        ("graph 2 2\n0 1\n", 1),  # missing an edge
        ("graph 2 1\n0\n", 2),  # short edge line
        ("graph 2 1\n0 2\n", 2),  # endpoint out of range
    ],
)
def test_file_format_errors_name_the_line(text, line):
    with pytest.raises(ParseError) as info:
        parse_matroid_text(text)
    assert info.value.line == line


# -- fuzzing the file format ---------------------------------------------------------

FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31)


@st.composite
def linear_matroids(draw):
    q = draw(st.sampled_from(FIELD_ORDERS))
    rows = draw(st.integers(0, 4))
    n = draw(st.integers(0, 8))
    cols = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * rows), min_size=n, max_size=n))
    return LinearMatroid(gf(q), cols, nrows=rows)


@st.composite
def graphic_matroids(draw):
    nv = draw(st.one_of(st.integers(1, 6), st.integers(1, 2**64)))
    vertex = st.one_of(st.integers(0, min(nv, 6) - 1), st.integers(0, nv - 1))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    return GraphicMatroid(nv, edges)


@given(linear_matroids())
@settings(max_examples=150, deadline=None)
def test_linear_file_round_trip_fuzz(m):
    back = parse_matroid_text(format_matroid(m))
    assert isinstance(back, LinearMatroid)
    assert (back.field.q, back.nrows, back.columns) == (m.field.q, m.nrows, m.columns)


@given(graphic_matroids())
@settings(max_examples=150, deadline=None)
def test_graphic_file_round_trip_fuzz(m):
    back = parse_matroid_text(format_matroid(m))
    assert isinstance(back, GraphicMatroid)
    assert (back.num_vertices, back.edges) == (m.num_vertices, m.edges)
    assert back.full_rank == m.full_rank


@given(graphic_matroids())
@settings(max_examples=150, deadline=None)
@example(GraphicMatroid(10**18, [(5, 10**17), (10**17, 5), (7, 7), (10**18 - 1, 0), (0, 5)]))
@example(GraphicMatroid(3, []))
def test_graphic_matrix_has_the_graphic_ranks(m):
    """The GF(2) incidence matrix of a multigraph, loops and parallel
    edges included, has the graphic rank function element for element,
    one row per touched vertex whatever the vertex labels."""
    mat = m.matrix()
    assert mat is m.matrix()
    assert isinstance(mat, LinearMatroid) and mat.field.q == 2
    assert mat.nrows == len({v for edge in m.edges for v in edge})
    assert mat.labels == m.labels
    for a in range(1 << m.n):
        assert m.rank_mask(a) == mat.rank_mask(a) == _union_find_rank(m.edges, a)


def test_uniform_matrix_has_the_uniform_ranks():
    for n in range(13):
        for r in range(n + 1):
            m = UniformMatroid(r, n)
            mat = m.matrix()
            assert mat is m.matrix()
            assert mat.nrows == r
            for a in range(1 << n):
                assert mat.rank_mask(a) == min(bin(a).count("1"), r), (r, n, a)


def test_graphic_and_uniform_roots_stay_off_the_matrix_file_form():
    """Having a matrix does not make a uniform matroid matrix-backed:
    it still has no file form, and a graphic one keeps its own."""
    u = UniformMatroid(2, 3)
    u.matrix()
    with pytest.raises(NotLinearError):
        format_matroid(u)
    m = GraphicMatroid(10**18, [(0, 10**18 - 1), (3, 3)])
    m.matrix()
    assert format_matroid(m) == f"graph {10**18} 2\n0 {10**18 - 1}\n3 3\n"
    assert format_matroid(parse_matroid_text(format_matroid(m))) == format_matroid(m)


_NATS = st.one_of(st.integers(0, 40), st.integers(0, 2**64))
_INTS = st.one_of(_NATS, st.integers(-(2**64), -1)).map(str)
_TOKENS = st.one_of(_INTS, st.sampled_from(["graph", "tree", "tau", "#", "x", "-", "1.5"]))
_LINES = st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=8).map("\n".join)
_HEADS = st.one_of(  # "q r n", "graph V E", "tree L" and the like
    st.lists(_NATS.map(str), min_size=3, max_size=3).map(" ".join),
    st.tuples(st.sampled_from(["graph", "tree"]), _NATS, _NATS).map(lambda h: "%s %d %d" % h),
    st.lists(_TOKENS, max_size=4).map(" ".join),
)
ARBITRARY_TEXT = st.one_of(
    st.text(max_size=80),
    _LINES,
    _HEADS,
    st.tuples(_HEADS, _LINES).map("\n".join),
)


@given(ARBITRARY_TEXT)
@example("100000007 1 1\n0\n")  # a prime order far above the cap
@example("2 0 18446744073709551616\n")  # 2**64 loops
@example("graph 1000000000000 2\n0 1\n1 2\n")
@settings(max_examples=300, deadline=1000)
def test_matroid_parser_raises_only_package_errors(text):
    """Any text either parses to a matroid that answers a rank query or
    raises a MatZeroError, and either happens at once: the deadline
    catches a field order that is factored before it is capped."""
    try:
        m = parse_matroid_text(text)
    except MatZeroError:
        return
    assert m.full_rank <= m.n


def _assert_smallest_cocircuit(m) -> bool:
    """find_small_cocircuit, a scan of linear functionals or of spanned
    hyperplanes, against the lattice walk: the mask
    min(cocircuits(), key=size) picks, ties going to the smallest mask,
    or TooLargeError when both the (q**r - 1)/(q - 1) functionals over
    the root's field GF(q) and the C(n, r - 1) subsets exceed
    MAX_FLATS.  Returns whether m had tied minimum cocircuits."""
    r, q = m.full_rank, m._points()[0].q
    if r == 0:
        with pytest.raises(RankZeroError):
            m.find_small_cocircuit()
        return False
    if min((q ** r - 1) // (q - 1), comb(m.n, r - 1)) > matroid.MAX_FLATS:
        with pytest.raises(TooLargeError):
            m.find_small_cocircuit()
        return False
    walked = m.cocircuits()
    size = min(bin(c).count("1") for c in walked)
    smallest = min(walked, key=lambda c: bin(c).count("1"))
    assert m.find_small_cocircuit() == smallest, m
    # the hyperplane scan alone, whichever scan find_small_cocircuit picks
    basis, coordinates = m._standard_form()
    assert matroid._spanned_min_cocircuit(m._points()[0], coordinates, r) == smallest, m
    return sum(bin(c).count("1") == size for c in walked) > 1


@given(minor_chains())
@settings(max_examples=150, deadline=None)
def test_smallest_cocircuit_matches_the_lattice_walk_on_minor_chains(chain):
    """Over GF(2, 3, 4, 5, 7, 9), with loops and parallel copies, on
    roots and minors of minors."""
    for m in chain:
        _assert_smallest_cocircuit(m)


@given(graphic_matroids())
@settings(max_examples=100, deadline=None)
def test_smallest_cocircuit_matches_the_lattice_walk_on_graphs(m):
    _assert_smallest_cocircuit(m)


@given(st.integers(0, 9).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
@example(shape=(7, 9))  # 299,593 functionals over GF(8) against 84 subsets
@example(shape=(8, 9))  # 2,396,745 functionals, past MAX_FLATS, against 36 subsets
@settings(max_examples=60, deadline=None)
def test_smallest_cocircuit_matches_the_lattice_walk_on_uniform_matroids(shape):
    _assert_smallest_cocircuit(UniformMatroid(*shape))


@pytest.mark.parametrize("name, m", non_simple_matroids(), ids=[n for n, _ in non_simple_matroids()])
def test_smallest_cocircuit_matches_the_lattice_walk_on_non_simple_matroids(name, m):
    """Loops lie in every hyperplane and parallel copies in the same
    ones, for both scans."""
    _assert_smallest_cocircuit(m)


def test_smallest_cocircuit_breaks_ties_as_the_lattice_walk():
    assert sum(map(_assert_smallest_cocircuit, flat_oracle_battery())) >= 20


@pytest.mark.parametrize(
    "q, rank, n",
    [(2, 20, 24), (2, 21, 24), (3, 13, 24), (3, 14, 24), (3, 14, 23), (4, 12, 24), (5, 3, 24)],
    ids=["2-20", "2-21", "3-13", "3-14", "3-14-23", "4-12", "5-3"],
)
def test_cocircuit_scan_cap_starts_no_scan(monkeypatch, q, rank, n):
    """The cheaper scan starts, and when both are past MAX_FLATS neither
    does.  On 24 elements GF(2) rank 20 and 21 have 1,048,575 and
    2,097,151 functionals (q**r - 1)/(q - 1) but only 42,504 and 10,626
    subsets C(24, r - 1), a projection of 24 rows each, so their
    hyperplanes are scanned; GF(3) rank 13 has 797,161 functionals
    against 2,496,144 subsets and GF(5) rank 3 has 31 against 276, so
    their functionals are; GF(3) rank 14 (2,391,484 against 2,496,144)
    and GF(4) rank 12 (5,592,405 against 2,496,144) are refused; GF(3)
    rank 14 on 23 elements has 1,144,066 subsets, within the cap where
    the functionals are not, so they are scanned."""

    class Started(Exception):
        pass

    scans = []

    def started(name):
        def scan(*args):
            scans.append(name)
            raise Started
        return scan

    monkeypatch.setattr(GF, "span_points", started("functionals"))
    monkeypatch.setattr(matroid, "_spanned_min_cocircuit", started("hyperplanes"))
    columns = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    columns += [tuple(int(i <= j) for i in range(rank)) for j in range(n - rank)]
    m = LinearMatroid(gf(q), columns)
    assert (m.n, m.full_rank) == (n, rank)
    functionals = (q ** rank - 1) // (q - 1)
    subsets = comb(n, rank - 1)
    if min(functionals, subsets) > matroid.MAX_FLATS:
        with pytest.raises(TooLargeError):
            m.find_small_cocircuit()
        assert scans == []
    else:
        with pytest.raises(Started):
            m.find_small_cocircuit()
        walk = n * subsets < functionals or functionals > matroid.MAX_FLATS
        assert scans == ["hyperplanes" if walk else "functionals"]

