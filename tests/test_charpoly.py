"""Exact polynomial arithmetic, the four characteristic polynomial
engines, closed forms, and the Sturm root machinery."""

import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from math import ceil, comb
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matzero import charpoly
from matzero.charpoly import (
    ONE,
    ZERO,
    IntPoly,
    cauchy_root_bound,
    count_roots_above,
    cp_boolean_expansion,
    cp_cocircuit_expansion,
    cp_delete_contract,
    cp_mobius,
    cp_pg_closed_form,
    cp_uniform_closed_form,
    lam_minus_one_power,
    largest_real_root,
    poly_exact_div,
    squarefree_part,
    sturm_chain,
    sturm_positive_beyond,
    x_minus,
    _simplest_in,
)
from matzero.errors import (
    ArgumentError,
    DivisionByZeroError,
    InexactDivisionError,
    MatZeroError,
    NonIntegralError,
    NotSimpleError,
    RootArgumentError,
    RootCertificateError,
    TooLargeError,
)
from matzero import gfq
from matzero.gfq import GF, gf
from matzero.instances import fano, k4_graphic, non_fano
from matzero.harness import ROOT_TOL, charpoly_auto, gen_glued, main_theorem_suite
from matzero.matroid import (
    MAX_GROUND,
    MAX_RANKS_TABLE,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    MinorMatroid,
    UniformMatroid,
    _coloops,
    _delete_contract_rows,
    mask_bits,
    mask_of,
)
from matzero.projgeom import pg_build
from support import criterion_07_instances, minor, pivot, rank_queries, rooted

ENGINES = [cp_mobius, cp_boolean_expansion, cp_delete_contract]


# -- IntPoly basics ----------------------------------------------------------


def test_intpoly_normalization():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([]).is_zero
    assert IntPoly([0, 0]).is_zero
    assert ZERO.degree == -1
    assert IntPoly([3]).degree == 0
    assert IntPoly([0, 0, 5]).degree == 2
    with pytest.raises(ValueError):
        _ = ZERO.leading
    assert IntPoly([0, -1, 4]).leading == 4


def test_intpoly_arithmetic():
    p = IntPoly([1, 1])       # 1 + x
    q = IntPoly([-1, 1])      # x - 1
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert (p - q).coeffs == (2,)
    assert (-q).coeffs == (1, -1)
    assert (3 * q).coeffs == (-3, 3)
    assert (p * ZERO).is_zero
    assert p.evaluate(2) == 3
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 2)
    assert q.derivative().coeffs == (1,)
    assert ZERO.derivative().is_zero


def test_intpoly_rejects_non_integers():
    """Integral values of other numeric types are accepted; anything else,
    a bool among them, is a typed error, never a silent truncation."""
    assert IntPoly([2.0, Fraction(6, 3)]).coeffs == (2, 2)
    p = IntPoly([1, 1])
    assert (p * Fraction(4, 2)).coeffs == (2, 2)
    bad = [
        lambda: IntPoly([True]),
        lambda: IntPoly([True, 2.0]),
        lambda: IntPoly([1, False]),
        lambda: p * True,
        lambda: True * p,
        lambda: p + True,
        lambda: True + p,
        lambda: p - False,
        lambda: False - p,
        lambda: IntPoly([1.5, Fraction(7, 2)]),
        lambda: IntPoly([Fraction(1, 3)]),
        lambda: IntPoly([float("nan")]),
        lambda: IntPoly([float("inf")]),
        lambda: IntPoly(["3"]),
        lambda: p * Fraction(1, 2),
        lambda: Fraction(1, 2) * p,
        lambda: p * 1.5,
    ]
    for make in bad:
        with pytest.raises(NonIntegralError) as info:
            make()
        assert isinstance(info.value, MatZeroError)
        assert isinstance(info.value, ValueError)


def test_intpoly_repr_readable():
    assert "lam" in repr(x_minus(3))
    assert repr(ZERO) == "IntPoly(0)"


def test_json_round_trip():
    p = IntPoly([-8, 14, -7, 1])
    assert p.to_json() == ["-8", "14", "-7", "1"]
    assert IntPoly.from_json(p.to_json()) == p
    assert ZERO.to_json() == []
    assert IntPoly.from_json([]) == ZERO
    assert IntPoly.from_json([-8, "14", 2.0]) == IntPoly([-8, 14, 2])
    with pytest.raises(ValueError):
        IntPoly.from_json(["1.5"])
    for bad in ([1.5], [True], ["x"], [None], [Fraction(1, 2)], None, "12", 3):
        with pytest.raises(NonIntegralError):
            IntPoly.from_json(bad)


@pytest.mark.parametrize("scalar", [1, -3, 0, 2.0, Fraction(4, 2)])
def test_integral_scalars_add_and_subtract_as_constants(scalar):
    """p + s, s + p, p - s and s - p take an integral s as the constant
    polynomial s, as p * s does; anything else, a bool among them,
    raises NonIntegralError."""
    p = IntPoly([5, -2, 1])
    s = IntPoly([int(scalar)])
    assert p + scalar == scalar + p == p + s
    assert p - scalar == p - s
    assert scalar - p == s - p
    assert sum([p, p]) == 2 * p
    for bad in (1.5, Fraction(1, 3), "1", None, True, False):
        for op in (lambda: p + bad, lambda: bad + p, lambda: p - bad, lambda: bad - p):
            with pytest.raises(NonIntegralError):
                op()


small_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPoly)


@given(small_polys, small_polys, st.integers(-5, 5))
def test_evaluation_is_a_homomorphism(p, q, v):
    assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)
    assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)


@given(small_polys, small_polys, st.lists(st.integers(-9, 9), min_size=1, max_size=3))
def test_subtraction_is_adding_the_negation(p, q, top):
    """One-pass p - q against p + (-q), with unequal lengths, and with
    a shared top part s whose leading terms cancel in (p + s) - (q + s)."""
    assert p - q == p + (-q)
    assert q - p == -(p - q)
    s = IntPoly([0] * 6 + top)
    assert (p + s) - (q + s) == p - q
    assert (p + s) - (q + s) == (p + s) + (-(q + s))


@given(small_polys)
def test_json_round_trip_property(p):
    assert IntPoly.from_json(p.to_json()) == p


# -- closed forms ------------------------------------------------------------


def test_pg_closed_form_values():
    # rank 3 over GF(2): (x-1)(x-2)(x-4)
    assert cp_pg_closed_form(3, 2).coeffs == (-8, 14, -7, 1)
    assert cp_pg_closed_form(1, 5) == x_minus(1)
    assert cp_pg_closed_form(0, 2) == ONE
    with pytest.raises(ValueError):
        cp_pg_closed_form(-1, 2)
    with pytest.raises(ValueError):
        cp_pg_closed_form(2, 1)


def test_uniform_closed_form_values():
    assert cp_uniform_closed_form(2, 3).coeffs == (2, -3, 1)
    assert cp_uniform_closed_form(0, 0) == ONE
    assert cp_uniform_closed_form(0, 2) == ZERO  # loops kill the polynomial
    assert cp_uniform_closed_form(3, 3) == lam_minus_one_power(3)
    with pytest.raises(ValueError):
        cp_uniform_closed_form(4, 3)
    with pytest.raises(ValueError):
        cp_uniform_closed_form(-1, 1)


@pytest.mark.parametrize("r", [0, 1, MAX_GROUND, MAX_GROUND + 1, 1500])
def test_lam_minus_one_power_binomials(r):
    expect = IntPoly(comb(r, i) * (-1) ** (r - i) for i in range(r + 1))
    assert lam_minus_one_power(r) == expect
    if r:
        assert lam_minus_one_power(r) == lam_minus_one_power(r - 1) * x_minus(1)


def test_lam_minus_one_power_keeps_no_state():
    before = dict(vars(charpoly))
    assert lam_minus_one_power(1500).degree == 1500
    assert lam_minus_one_power(MAX_GROUND + 7).degree == MAX_GROUND + 7
    assert dict(vars(charpoly)) == before
    assert len(charpoly._LIN_POWERS) == MAX_GROUND + 1
    with pytest.raises(ValueError):
        lam_minus_one_power(-1)


def test_uniform_closed_form_alternating_sum():
    # sum_{k<r} (-1)^k C(n,k) (x^{r-k} - 1), checked coefficientwise
    r, n = 3, 7
    p = cp_uniform_closed_form(r, n)
    expect = ZERO
    for k in range(r):
        term = IntPoly([-1] + [0] * (r - k - 1) + [1])
        expect = expect + (-1) ** k * comb(n, k) * term
    assert p == expect


# -- the four engines --------------------------------------------------------


def named_battery():
    yield fano(), cp_pg_closed_form(3, 2)
    yield non_fano(), None
    yield k4_graphic(), IntPoly([-6, 11, -6, 1])
    yield UniformMatroid(2, 5), cp_uniform_closed_form(2, 5)
    yield UniformMatroid(3, 6), IntPoly([-10, 15, -6, 1])
    yield UniformMatroid(4, 4), lam_minus_one_power(4)
    yield UniformMatroid(0, 0), ONE
    yield LinearMatroid(gf(3), [(1, 0), (0, 1), (1, 1), (1, 2), (0, 0)]), ZERO


@pytest.mark.parametrize(
    "m,expected", list(named_battery()), ids=lambda v: repr(v)
)
def test_engines_agree(m, expected):
    results = [engine(m) for engine in ENGINES]
    if m.is_loopless() and m.n > 0:
        simple, _ = m.simplify()
        results.append(cp_cocircuit_expansion(simple))
    first = results[0]
    assert all(p == first for p in results)
    if expected is not None:
        assert first == expected


def test_engines_agree_on_uniform_sweep():
    for n in range(0, 7):
        for r in range(0, n + 1):
            m = UniformMatroid(r, n)
            expected = cp_uniform_closed_form(r, n)
            for engine in ENGINES:
                assert engine(m) == expected, (r, n, engine.__name__)


# -- the rank-oracle reference for deletion-contraction ----------------------


class _MinorContext:
    """Shared state for the rank-oracle recursions: a fixed root matroid
    plus rank queries for its minors, addressed by (kept-mask,
    contracted-mask) pairs at root level.  A minor passed in must come
    from :func:`support.minor`, which records those masks."""

    def __init__(self, m: Matroid):
        root, kept, cmask = rooted(m)
        self.root = root
        self.start_key = (sum(1 << k for k in kept), cmask)
        self.memo: dict[tuple[int, int], IntPoly] = {}

    def rank_in(self, cmask: int, mask: int) -> int:
        return self.root.rank_mask(mask | cmask) - self.root.rank_mask(cmask)


def _loops_and_duplicates(ctx: _MinorContext, rest: int, cmask: int):
    """Locate loops and redundant parallel copies inside a minor.
    Returns (loop mask, duplicate mask): duplicates are every element of
    a parallel class except its lowest-index member."""
    loops = 0
    reps: list[int] = []
    dupes = 0
    for e in mask_bits(rest):
        ebit = 1 << e
        if ctx.rank_in(cmask, ebit) == 0:
            loops |= ebit
            continue
        for rep in reps:
            if ctx.rank_in(cmask, rep | ebit) == 1:
                dupes |= ebit
                break
        else:
            reps.append(ebit)
    return loops, dupes


def _delete_contract_by_rank(m: Matroid) -> IntPoly:
    """cp_delete_contract on rank queries alone: loops and parallel
    copies are found by asking the root for the rank of each element
    and each pair, and the pivot is the first element whose deletion
    keeps the rank.  It reads no matrix, so it checks the vector
    engines independently."""
    ctx = _MinorContext(m)

    def rec(rest: int, cmask: int) -> IntPoly:
        key = (rest, cmask)
        hit = ctx.memo.get(key)
        if hit is not None:
            return hit
        loops, dupes = _loops_and_duplicates(ctx, rest, cmask)
        if loops:
            out = ZERO
        elif dupes:
            out = rec(rest & ~dupes, cmask)
        else:
            r = ctx.rank_in(cmask, rest)
            if r == bin(rest).count("1"):
                out = lam_minus_one_power(r)
            else:
                pivot = next(
                    e for e in mask_bits(rest)
                    if ctx.rank_in(cmask, rest & ~(1 << e)) == r
                )
                pbit = 1 << pivot
                out = rec(rest & ~pbit, cmask) - rec(rest & ~pbit, cmask | pbit)
        ctx.memo[key] = out
        return out

    return rec(*ctx.start_key)


def _vector_engine_battery():
    """Seeded matrices over GF(2..5) with zero columns (loops), repeated
    and rescaled columns (parallel pairs) and zero rows mixed in, each
    followed by minor views with deletions and contractions."""
    rng = random.Random(53)
    for q in (2, 3, 4, 5):
        for _ in range(10):
            rows, n = rng.randint(1, 4), rng.randint(2, 9)
            cols = [[rng.randrange(q) for _ in range(rows)] for _ in range(n)]
            if rng.random() < 0.3:
                cols[rng.randrange(n)] = [0] * rows
            if rng.random() < 0.5:
                scale = rng.randrange(1, q)
                cols[rng.randrange(n)] = [gf(q).mul[scale][x] for x in cols[rng.randrange(n)]]
            if rng.random() < 0.3:
                zero_row = rng.randrange(rows + 1)
                cols = [c[:zero_row] + [0] + c[zero_row:] for c in cols]
            m = LinearMatroid(gf(q), cols)
            yield m
            for _ in range(3):
                fate = [rng.randrange(3) for _ in range(n)]
                view = minor(
                    m,
                    delete=[e for e in range(n) if fate[e] == 1],
                    contract=[e for e in range(n) if fate[e] == 2],
                )
                yield view
                if view.n:
                    yield minor(view, contract=[rng.randrange(view.n)])


def _coordinate_battery():
    """Seeded matrices of rank 5-7 over GF(2), GF(3), GF(7), GF(8) and
    GF(9), with parallel pairs, an occasional loop and a zero row, each
    followed by minors with one to three contracted elements: they run
    deletion-contraction's reduced echelon start under a contracted
    span, pivots past coordinate 3, and the odd-characteristic
    extension field GF(9)."""
    rng = random.Random(71)
    for q in (2, 3, 7, 8, 9):
        for r in (5, 6, 7):
            n = rng.randint(r + 2, 11)
            cols = [[rng.randrange(q) for _ in range(r)] for _ in range(n)]
            scale = rng.randrange(1, q)
            cols[rng.randrange(n)] = [gf(q).mul[scale][x] for x in cols[rng.randrange(n)]]
            if rng.random() < 0.2:
                cols[rng.randrange(n)] = [0] * r
            if rng.random() < 0.5:
                zero_row = rng.randrange(r + 1)
                cols = [c[:zero_row] + [0] + c[zero_row:] for c in cols]
            m = LinearMatroid(gf(q), cols)
            yield m
            for _ in range(2):
                contract = rng.sample(range(n), rng.randint(1, 3))
                rest = [e for e in range(n) if e not in contract]
                yield minor(m, delete=rng.sample(rest, rng.randint(0, 2)), contract=contract)


def test_vector_engine_matches_rank_oracles(monkeypatch):
    """Deletion-contraction on reduced columns agrees with the Mobius
    and subset expansions and with the rank-oracle recursion, also at
    ranks 5-7 over prime and extension fields of both characteristics,
    where it contracts along pivots past coordinate 3."""
    pivots = set()
    real_project = GF.project

    def project(self, rows, prow):
        pivots.add(pivot(self, prow))
        return real_project(self, rows, prow)

    monkeypatch.setattr(GF, "project", project)
    fields = set()
    for m in list(_vector_engine_battery()) + list(_coordinate_battery()):
        assert m.n <= MAX_RANKS_TABLE
        p = cp_delete_contract(m)
        assert p == _delete_contract_by_rank(m) == cp_boolean_expansion(m), m
        assert p == (cp_mobius(m) if m.is_loopless() else ZERO), m
        fields.add(m.root.field.q)
    assert fields == {2, 3, 4, 5, 7, 8, 9}
    assert max(pivots) >= 4


def _graphic_and_uniform_battery():
    """Graphic and uniform roots, with loops, parallel edges and vertex
    labels far beyond the edge count, and minors of them."""
    yield k4_graphic()
    yield minor(k4_graphic(), delete=[1], contract=[4])
    yield GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 3), (0, 3)])
    yield GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (0, 3)])
    big = 10 ** 18
    yield GraphicMatroid(big, [(0, big - 1), (big - 1, 7), (7, 0), (7, big - 1), (5, 5)])
    yield minor(UniformMatroid(3, 7), delete=[0], contract=[5])
    yield minor(UniformMatroid(2, 4), contract=[1, 2])
    yield minor(UniformMatroid(4, 9), delete=[2, 3], contract=[0])


def test_graphic_and_uniform_roots_take_the_matrix_path(monkeypatch):
    """Deletion-contraction reads a graphic or uniform root's matrix
    and asks no rank, and still agrees with the rank oracle and the
    subset and Mobius expansions."""
    asked = rank_queries(monkeypatch)
    for m in _graphic_and_uniform_battery():
        asked.clear()
        p = cp_delete_contract(m)
        assert asked == []
        assert p == _delete_contract_by_rank(m) == cp_boolean_expansion(m), m
        assert p == (cp_mobius(m) if m.is_loopless() else ZERO), m


def test_cocircuit_expansion_matches_the_rank_oracle_on_vector_minors():
    """The cocircuit expansion finds loops and parallel copies of its
    minors from reduced columns; on simplifications of matrices, of
    graphic and uniform roots and of minors of them it agrees with the
    rank-oracle deletion-contraction."""
    matroids = list(_vector_engine_battery()) + list(_graphic_and_uniform_battery())
    checked = 0
    for m in matroids:
        if m.loops_mask() or not m.n:
            continue
        simple, _ = m.simplify()
        assert cp_cocircuit_expansion(simple) == _delete_contract_by_rank(m), m
        checked += 1
    assert checked >= 50


def test_matrix_deletion_contraction_queries_no_ranks(monkeypatch):
    """On a matrix, and on minors of one, deletion-contraction asks no
    rank: it reads the points, and building a minor asks no rank."""
    asked = rank_queries(monkeypatch)
    rng = random.Random(59)
    for q in (2, 3, 4, 5):
        for _ in range(4):
            n = rng.randint(4, 10)
            m = LinearMatroid(gf(q), [[rng.randrange(q) for _ in range(4)] for _ in range(n)])
            minor = m.minor(delete=[0], contract=[1, 2])
            again = minor.delete([0])
            cp_delete_contract(m)
            cp_delete_contract(minor)
            cp_delete_contract(again)
    assert asked == []


def _line(q, k, parallel=0):
    """k distinct points of PG(1, q), then ``parallel`` rescaled copies
    of the first ones."""
    scale = gf(q).mul[q - 1]
    cols = ([(0, 1)] + [(1, a) for a in range(q)])[:k]
    return cols + [tuple(scale[x] for x in c) for c in cols[:parallel]]


def _rank_at_most_two_battery():
    """Rank-2 minors with 2 to q+1 points, simple and with parallel
    copies, alone, beside a coloop, and reached by contracting a point
    of a plane; then rank-1 and rank-0 minors."""
    for q in (2, 3, 4, 5, 7):
        for k in range(2, q + 2):
            for parallel in (0, 1, 2):
                cols = _line(q, k, parallel)
                line = LinearMatroid(gf(q), cols)
                yield line, k
                coloop = LinearMatroid(gf(q), [c + (0,) for c in cols] + [(0, 0, 1)])
                yield minor(coloop, contract=[len(cols)]), k
                yield minor(coloop, contract=[0]), 2
                # a plane: the line through (0,0,1) and each point; the
                # contracted apex makes each line a point of the minor
                plane = LinearMatroid(gf(q), [(0, 0, 1)] + [c + (1,) for c in cols])
                yield minor(plane, contract=[0]), k
                yield minor(plane, delete=[1], contract=[0]), k - 1 + (parallel > 0)
        yield minor(LinearMatroid(gf(q), [(1, 0), (q - 1, 0)]), contract=[1]), 0
        yield LinearMatroid(gf(q), [(1,), (1,), (0,)]), None
        yield minor(LinearMatroid(gf(q), [(1, 0), (0, 1), (1, 1)]), contract=[2]), 1
        yield minor(LinearMatroid(gf(q), [(1, 0), (0, 1)]), contract=[0, 1]), 0
        yield LinearMatroid(gf(q), []), 0


def test_rank_at_most_two_minors_take_the_closed_form(monkeypatch):
    """Every minor of rank at most 2 matches the rank oracle, and a
    simple one with k points has chi (lam - 1)(lam - k + 1), answered
    with no split, so no column is projected."""
    projected = []
    real_project = GF.project

    def project(self, rows, prow):
        projected.append(prow)
        return real_project(self, rows, prow)

    monkeypatch.setattr(GF, "project", project)
    checked = 0
    for m, points in _rank_at_most_two_battery():
        assert m.full_rank <= 2
        projected.clear()
        p = cp_delete_contract(m)
        assert p == _delete_contract_by_rank(m), m
        if m.full_rank == 2 and m.is_simple():
            assert p == x_minus(1) * x_minus(m.n - 1), m
            assert m.n == points
            assert projected == []
        elif m.full_rank < 2 and not m.loops_mask():
            assert p == lam_minus_one_power(m.full_rank)
        checked += 1
    assert checked > 300


@pytest.mark.parametrize(
    "shape", [(2, 3, 3, 1, 0, 3), (3, 2, 4, 0, 1, 2)], ids=["gf2-3x3", "gf3-2x4"]
)
def test_deletion_contraction_runs_no_elimination_pass_per_minor(monkeypatch, shape):
    """Once the start has read every point's coordinates off one
    elimination pass (n reductions; the start that row-reduced the
    reduced columns a second time made n + h + r), every ``GF.reduce``
    call comes from ``GF.project``: no minor runs an elimination pass.
    The per-minor pivot search this replaced made 1851 and 413
    reductions outside ``GF.project`` on these two instances.  Both
    fields run the one row recursion, which contracts by projection.
    The points themselves are built before counting starts."""
    q, block_rank, blocks, overlap, seed, deleted = shape
    m = gen_glued(q, block_rank, blocks, overlap, seed=seed, delete_count=deleted).matroid
    m._points()
    calls = []  # (inside a projection, projections so far) per reduction
    state = {"depth": 0, "projections": 0}
    real_reduce, real_project = GF.reduce, GF.project

    def reduce(self, basis, v):
        calls.append((state["depth"] > 0, state["projections"]))
        return real_reduce(self, basis, v)

    def project(self, rows, prow):
        state["projections"] += 1
        state["depth"] += 1
        try:
            return real_project(self, rows, prow)
        finally:
            state["depth"] -= 1

    monkeypatch.setattr(GF, "reduce", reduce)
    monkeypatch.setattr(GF, "project", project)
    p = cp_delete_contract(m)
    monkeypatch.undo()
    assert state["projections"] > 0
    assert sum(1 for _, seen in calls if not seen) == m.n
    assert all(inside for inside, seen in calls if seen)
    assert p == _delete_contract_by_rank(m)


def test_deletion_contraction_keeps_no_minor():
    """No minor comes up twice in one deletion-contraction, so the
    engine keeps none: on a 23-element glued chain its traced peak stays
    near the rows of one root-to-leaf path.  A memo keyed by minor
    peaked at 0.93 MB here."""
    m = gen_glued(2, 3, 5, 2).matroid
    expected = cp_delete_contract(m)  # warm the field and matrix caches
    tracemalloc.start()
    try:
        p = cp_delete_contract(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p == expected
    assert peak < 100_000, peak


def test_deletion_contraction_builds_one_polynomial(monkeypatch):
    """The recursion counts its leaves in integers and builds chi once:
    at most 2 ``IntPoly`` objects for a 23-element glued chain, where a
    polynomial per minor made hundreds."""
    m = gen_glued(2, 3, 5, 2).matroid
    expected = cp_delete_contract(m)  # warm the field and matrix caches
    built = []
    real_init = IntPoly.__init__

    def init(self, coeffs=()):
        built.append(self)
        real_init(self, coeffs)

    monkeypatch.setattr(IntPoly, "__init__", init)
    p = cp_delete_contract(m)
    monkeypatch.undo()
    assert p == expected
    assert 1 <= len(built) <= 2, len(built)


@pytest.mark.parametrize(
    "shape",
    [(2, 3, 5, 2), (3, 2, 7, 1), (2, 2, 11, 1), (2, 4, 2, 3), (2, 3, 3, 0), (5, 2, 3, 1),
     (4, 2, 4, 1)],
    ids=str,
)
def test_deletion_contraction_matches_the_glued_closed_form(shape):
    """A full glued chain of 16-23 elements, past the reach of the
    Mobius and subset oracles, has chi = prod chi(PG block) / prod
    chi(PG overlap): its blocks meet in modular flats (Brylawski)."""
    q, block_rank, blocks, overlap = shape
    m = gen_glued(q, block_rank, blocks, overlap).matroid
    assert 16 <= m.n <= 23
    num = ONE
    for _ in range(blocks):
        num = num * cp_pg_closed_form(block_rank, q)
    den = ONE
    for _ in range(blocks - 1):
        den = den * cp_pg_closed_form(overlap, q)
    assert cp_delete_contract(m) == poly_exact_div(num, den)


def _cocircuit_expansion_keeping_parallels(m: Matroid) -> tuple[IntPoly, int]:
    """The cocircuit expansion of ``cp_cocircuit_expansion`` on rank
    queries, with loops killing a term but parallel copies left in
    place; returns chi and the number of minors it expanded."""
    ctx = _MinorContext(m)
    expanded = 0

    def norm(rest: int, cmask: int) -> IntPoly:
        nonlocal expanded
        key = (rest, cmask)
        hit = ctx.memo.get(key)
        if hit is not None:
            return hit
        elements = tuple(mask_bits(rest))
        minor = MinorMatroid(ctx.root, elements, cmask)
        if _loops_and_duplicates(ctx, rest, cmask)[0]:
            out = ZERO
        elif minor.full_rank == minor.n:
            out = lam_minus_one_power(minor.n)
        else:
            expanded += 1
            xs = [elements[i] for i in mask_bits(minor.find_small_cocircuit())]
            out = x_minus(len(xs)) * norm(rest & ~sum(1 << x for x in xs), cmask)
            for j in range(1, len(xs)):
                for i in range(j):
                    drop = sum(1 << xs[t] for t in range(j) if t != i)
                    pair = (1 << xs[i]) | (1 << xs[j])
                    out = out + norm(rest & ~drop & ~pair, cmask | pair)
        ctx.memo[key] = out
        return out

    return norm(*ctx.start_key), expanded


def _simplification(m):
    """The simplification of a loopless matroid as a minor of it, built
    with ``support.minor`` so the rank oracle can read it."""
    return minor(m, delete=m.full_mask & ~mask_of(c[0] for c in m.parallel_classes()))


def test_cocircuit_expansion_deletes_parallel_copies_only_to_save_work(monkeypatch):
    """The cocircuit expansion holds for every loopless matroid, simple
    or not: deletion-contraction along x_1, ..., x_{m-1} gives
    chi_M = (lam - 1) chi_{M minus C*} - sum_i chi_{M minus X_i / x_i},
    and the same along x_{i+1}, ..., x_m in each M minus X_i / x_i,
    where H = E minus C* still spans, gives chi_{M minus C*} minus the
    pair terms; neither step asks for simplicity (a parallel pair x_i,
    x_j makes its pair term zero).  So no input makes the engine's
    deletion of parallel copies change chi; it only spares work.  The
    test pins both: the expansion that keeps parallel copies gives the
    same chi on matroids with parallel classes, and expands minors
    with parallel copies on some simple inputs, where every minor the
    engine hands to its cocircuit scan (``_min_cocircuit``) has distinct
    nonzero rows, and it scans fewer minors."""
    views, nodes = [], []
    real_find, real_scan = Matroid.find_small_cocircuit, charpoly._min_cocircuit

    def find(self):
        views.append(self)
        return real_find(self)

    def scan(field, rows):
        nodes.append(list(rows))
        return real_scan(field, rows)

    saved = scanned = 0
    for m in list(_vector_engine_battery()) + [fano(), non_fano()]:
        if m.loops_mask() or m.n < 2 or m.full_rank == m.n:
            continue
        simple = _simplification(m)
        assert _cocircuit_expansion_keeping_parallels(m)[0] == _delete_contract_by_rank(m), m
        monkeypatch.setattr(Matroid, "find_small_cocircuit", find)
        views.clear()
        chi, expanded = _cocircuit_expansion_keeping_parallels(simple)
        monkeypatch.undo()
        kept_parallels = not all(view.is_simple() for view in views)
        monkeypatch.setattr(charpoly, "_min_cocircuit", scan)
        nodes.clear()
        assert cp_cocircuit_expansion(simple) == chi, m
        monkeypatch.undo()
        assert all(0 not in rows and len(set(rows)) == len(rows) for rows in nodes), m
        assert len(nodes) <= expanded, m
        saved += kept_parallels and len(nodes) < expanded
        scanned += len(nodes)
    assert saved >= 2 and scanned >= 5


def test_cocircuit_expansion_matches_the_other_engines_on_the_identity_battery():
    """On the simplification of every criterion-07 instance, and on every
    rank-2 minor (a leaf of the expansion), the expansion equals
    deletion-contraction and the Mobius expansion; a rank-2 minor that
    is not simple is refused."""
    glued, rand = criterion_07_instances()
    for rec in glued + rand:
        simple = _simplification(rec.matroid)
        assert cp_cocircuit_expansion(simple) == cp_delete_contract(simple) == cp_mobius(simple)
    leaves = 0
    for m, points in _rank_at_most_two_battery():
        if m.full_rank != 2:
            continue
        if not m.is_simple():
            with pytest.raises(NotSimpleError):
                cp_cocircuit_expansion(m)
            continue
        chi = cp_cocircuit_expansion(m)
        assert chi == cp_delete_contract(m) == cp_mobius(m) == x_minus(1) * x_minus(points - 1)
        leaves += 1
    assert leaves > 50


def test_cocircuit_expansion_builds_no_minor_and_walks_no_lattice(monkeypatch):
    """On the simplifications of the criterion-07 instances the
    expansion runs on coordinate rows: it builds no MinorMatroid, walks
    no lattice of flats and asks no rank."""
    glued, rand = criterion_07_instances()
    simples = [_simplification(rec.matroid) for rec in glued + rand]
    for simple in simples:
        simple._points()
    built, walked = [], []
    real_init, real_walk = MinorMatroid.__init__, Matroid._flat_lattice

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def walk(self):
        walked.append(self)
        return real_walk(self)

    monkeypatch.setattr(MinorMatroid, "__init__", init)
    monkeypatch.setattr(Matroid, "_flat_lattice", walk)
    asked = rank_queries(monkeypatch)
    for simple in simples:
        cp_cocircuit_expansion(simple)
    assert built == [] and walked == [] and asked == []


def test_loops_give_zero():
    m = LinearMatroid(gf(2), [(0,), (1,)])
    assert cp_mobius(m) == ZERO
    assert cp_boolean_expansion(m) == ZERO
    assert cp_delete_contract(m) == ZERO


@pytest.mark.parametrize("r", [7, 8])
def test_cocircuit_expansion_on_few_points_of_high_rank(r):
    """U_{7,9} and U_{8,9}, whose matrices are over GF(8), scan the
    hyperplanes of their minors, not the 299,593 and 2,396,745
    functionals: U_{8,9} is no longer refused, U_{7,9} takes
    milliseconds, and both agree with deletion-contraction and the
    closed form."""
    m = UniformMatroid(r, 9)
    assert m._points()[0].q == 8
    start = time.perf_counter()
    chi = cp_cocircuit_expansion(m)
    elapsed = time.perf_counter() - start
    assert chi == cp_delete_contract(m) == cp_uniform_closed_form(r, 9)
    if r == 7:
        assert elapsed < 0.05


def test_cocircuit_engine_requires_simple():
    with pytest.raises(NotSimpleError):
        cp_cocircuit_expansion(UniformMatroid(1, 2))
    with pytest.raises(NotSimpleError):
        cp_cocircuit_expansion(UniformMatroid(0, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: squarefree_part(ZERO),
        lambda: ZERO.leading,
        lambda: cp_pg_closed_form(2, 1),
        lambda: cp_pg_closed_form(-1, 2),
        lambda: lam_minus_one_power(-1),
        lambda: cp_uniform_closed_form(3, 2),
        lambda: UniformMatroid(3, 2),
        lambda: lam_minus_one_power(1.5),
        lambda: cp_pg_closed_form(2.5, 2),
        lambda: cp_pg_closed_form(2, 2.0),
        lambda: cp_uniform_closed_form(1.5, 3),
        lambda: cp_uniform_closed_form(2, "3"),
        lambda: pg_build(2.5, 2),
    ],
    ids=["squarefree_part", "leading", "pg_order", "pg_rank", "lam_power",
         "uniform_closed_form", "uniform_matroid", "lam_power_float", "pg_rank_float",
         "pg_order_float", "uniform_rank_float", "uniform_size_str", "pg_build_rank_float"],
)
def test_bad_polynomial_arguments_raise_a_typed_error(call):
    """Bad input to the polynomial layer, and a uniform matroid with
    r > n, raise ArgumentError: a MatZeroError that callers catching
    ValueError still see."""
    with pytest.raises(ArgumentError) as info:
        call()
    assert isinstance(info.value, MatZeroError)
    assert isinstance(info.value, ValueError)


def test_boolean_expansion_size_cap(monkeypatch):
    """21 elements are refused by ranks_table's cap before any rank is
    asked."""
    m = UniformMatroid(2, 21)
    asked = rank_queries(monkeypatch)
    with pytest.raises(TooLargeError, match=r"^full rank tables are limited to 20 elements$"):
        cp_boolean_expansion(m)
    assert asked == []


def test_loopless_charpoly_shape():
    """Monic of degree r, and 1 is always a root when the ground set
    is nonempty."""
    for m in (fano(), UniformMatroid(2, 5), k4_graphic(), UniformMatroid(1, 1)):
        p = cp_delete_contract(m)
        assert p.degree == m.full_rank
        assert p.leading == 1
        assert p.evaluate(1) == 0


# -- division and squarefree parts -------------------------------------------


def test_poly_exact_div():
    num = cp_pg_closed_form(3, 2)
    assert poly_exact_div(num, x_minus(2)) == x_minus(1) * x_minus(4)
    assert poly_exact_div(ZERO, x_minus(1)) == ZERO
    with pytest.raises(DivisionByZeroError):
        poly_exact_div(num, ZERO)
    with pytest.raises(InexactDivisionError):
        poly_exact_div(num, x_minus(3))  # nonzero remainder
    with pytest.raises(InexactDivisionError):
        poly_exact_div(x_minus(1), IntPoly([1, 2]))  # fractional quotient


def test_squarefree_part():
    doubled = x_minus(2) * x_minus(2) * x_minus(5)
    sf = squarefree_part(doubled)
    assert sf == x_minus(2) * x_minus(5)
    assert squarefree_part(IntPoly([7])) == ONE
    assert squarefree_part(-2 * x_minus(1)) == x_minus(1)
    with pytest.raises(ValueError):
        squarefree_part(ZERO)


# -- Sturm machinery ---------------------------------------------------------


def test_count_roots_above():
    p = x_minus(1) * x_minus(2)
    assert count_roots_above(p, 0) == 2
    assert count_roots_above(p, Fraction(3, 2)) == 1
    assert count_roots_above(p, 2) == 0  # interval is open at the bound
    assert count_roots_above(x_minus(1) * x_minus(1), 0) == 1  # distinct roots
    assert count_roots_above(IntPoly([1, 0, 1]), -10) == 0


def test_sturm_positive_beyond():
    p = cp_pg_closed_form(3, 2)  # roots 1, 2, 4
    assert sturm_positive_beyond(p, 4)      # root at the bound is allowed
    assert sturm_positive_beyond(p, 5)
    assert not sturm_positive_beyond(p, 3)
    assert not sturm_positive_beyond(-1 * x_minus(0), 1)  # negative leading
    assert sturm_positive_beyond(IntPoly([2]), -100)
    assert not sturm_positive_beyond(IntPoly([-2]), -100)
    with pytest.raises(ValueError):
        sturm_positive_beyond(ZERO, 0)


def test_largest_real_root_exact_collapse():
    lo, hi = largest_real_root(cp_pg_closed_form(3, 2), Fraction(1, 2**30))
    assert lo == hi == 4
    lo, hi = largest_real_root(cp_uniform_closed_form(2, 6), Fraction(1, 2**30))
    assert lo == hi == 5


def test_largest_real_root_irrational():
    p = IntPoly([-2, 0, 1])  # x^2 - 2
    tol = Fraction(1, 10**12)
    lo, hi = largest_real_root(p, tol)
    assert hi - lo <= tol
    assert lo * lo < 2 <= hi * hi


def test_largest_real_root_edge_cases():
    assert largest_real_root(IntPoly([1, 0, 1]), Fraction(1, 4)) is None
    assert largest_real_root(IntPoly([5]), Fraction(1, 4)) is None
    with pytest.raises(ValueError):
        largest_real_root(ZERO, Fraction(1, 4))
    with pytest.raises(ValueError):
        largest_real_root(x_minus(1), Fraction(0))


def test_cauchy_bound_contains_roots():
    p = x_minus(3) * x_minus(-7) * x_minus(1)
    b = cauchy_root_bound(p)
    assert b >= 7


rational_roots = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(1, 9)),
    min_size=1,
    max_size=5,
    unique=True,
)


@given(rational_roots, st.fractions(min_value=-25, max_value=25))
@settings(max_examples=150, deadline=None)
def test_sturm_against_constructed_roots(pairs, bound):
    """Build a product of distinct linear factors (q x - p) and compare
    the Sturm count and bracket against the known root multiset."""
    roots = sorted(set(Fraction(p, q) for p, q in pairs))
    poly = ONE
    for root in roots:
        poly = poly * IntPoly([-root.numerator, root.denominator])
    assert count_roots_above(poly, bound) == sum(1 for r in roots if r > bound)
    lo, hi = largest_real_root(poly, Fraction(1, 2**40))
    assert lo == hi == roots[-1]


# -- integer root layer against the Fraction bisection it replaced -----------


def _ref_divmod(num, den):
    """Quotient and remainder over the rationals, trailing zeros of the
    remainder stripped."""
    rem = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(0, len(rem) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + len(den) - 1] / den[-1]
        for j, dj in enumerate(den):
            rem[i + j] -= c * dj
    del rem[len(den) - 1:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _ref_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ref_variations(values):
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _ref_largest_real_root(p, tol):
    """Rational Sturm chain of the monic squarefree part and bisection on
    Fraction midpoints, as the root layer did before it moved to
    integers.  Positive scaling changes no sign and no Cauchy bound, so
    the brackets must agree exactly."""
    g, y = p.coeffs, p.derivative().coeffs
    while y:
        g, y = y, _ref_divmod(g, y)[1]
    sf = _ref_divmod(p.coeffs, g)[0]
    sf = [c / sf[-1] for c in sf]
    chain = [sf, [i * c for i, c in enumerate(sf)][1:]]
    while len(chain[-1]) > 1:
        rem = _ref_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    chain = [c for c in chain if c]
    v_hi = _ref_variations(c[-1] for c in chain)
    if _ref_variations(c[-1] * (-1) ** (len(c) - 1) for c in chain) == v_hi:
        return None
    worst = max((abs(c) for c in sf[:-1]), default=0)
    bound = 1 + ceil(worst) if worst else 1
    lo, hi = Fraction(-bound), Fraction(bound)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _ref_variations(_ref_eval(c, mid) for c in chain) - v_hi >= 1:
            lo = mid
        else:
            hi = mid
    if _ref_eval(sf, hi) == 0:
        return hi, hi
    cand = _simplest_in(lo, hi)
    if (
        cand > lo
        and _ref_eval(sf, cand) == 0
        and _ref_variations(_ref_eval(c, cand) for c in chain) == v_hi
    ):
        return cand, cand
    return lo, hi


tiny_polys = st.lists(st.integers(-6, 6), max_size=4).map(IntPoly)
tolerances = st.builds(Fraction, st.integers(1, 40), st.integers(1, 10**7))


@given(tiny_polys, tiny_polys, tiny_polys, tolerances)
@settings(max_examples=200, deadline=None)
def test_largest_real_root_matches_fraction_bisection(a, b, c, tol):
    """a * b**2 * c has repeated roots whenever b has a root; the
    tolerances are mostly not powers of two."""
    p = a * b * b * c
    assume(not p.is_zero)
    assert largest_real_root(p, tol) == _ref_largest_real_root(p, tol)


def _from_roots(roots, extra=ONE):
    """extra times the product of (den*x - num) over the rational roots."""
    p = extra
    for r in map(Fraction, roots):
        p = p * IntPoly([-r.numerator, r.denominator])
    return p


# Largest roots that are integers, non-integer rationals (non-monic) and
# negative, with and without repeated factors.  0 is always the first
# midpoint; 1/2 and -3/4 land on later ones, and so does 4 in (1, 2, 4)
# times x^2 + 1.  In
# (3, 13/4) and (4, 41/10) an integer root that is not the largest
# shares the first bracket narrower than 1 with the largest one.
BRACKET_CASES = [
    [1, 2, 4],
    [1, 3, 9, 27],
    [-5, -1, 2, 3, 7],
    [1, 1, 2, 2, 5],
    [1, Fraction(3, 2), Fraction(3, 2), 4],
    [0],
    [0, 1],
    [Fraction(1, 2)],
    [Fraction(1, 2), -3],
    [Fraction(7, 3), 2],
    [Fraction(7, 3), Fraction(7, 3), 1],
    [Fraction(5, 2), 2],
    [Fraction(-3, 4)],
    [-2, -7],
    [-2, -2, -7],
    [3, Fraction(13, 4)],
    [4, Fraction(41, 10)],
]
BRACKET_TOLS = [ROOT_TOL, Fraction(1), Fraction(3, 2), Fraction(5), Fraction(40)]


@pytest.mark.parametrize("roots", BRACKET_CASES, ids=str)
@pytest.mark.parametrize("extra", [ONE, IntPoly([1, 0, 1]), IntPoly([2])], ids=["1", "x2+1", "2"])
def test_largest_real_root_phases_match_oracle(roots, extra):
    """Each case isolates, refines and, for an integer root, stops at the
    integer; tolerances of 1 and more end the loop before the bracket is
    narrower than 1, where the final check alone must agree."""
    p = _from_roots(roots, extra)
    top = max(map(Fraction, roots))
    for tol in BRACKET_TOLS:
        got = largest_real_root(p, tol)
        assert got == _ref_largest_real_root(p, tol), tol
        lo, hi = got
        assert lo == hi == top or lo < top <= hi
    assert largest_real_root(p, ROOT_TOL) == (top, top)


def _charpoly_battery(monkeypatch):
    """(id, chi, q, witnessed width) for 207 glued and random instances."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    recs = [gen_glued(q, 2, 3, 1, seed=s, delete_count=s) for q in (2, 3) for s in range(3)]
    recs.append(gen_glued(2, 3, 2, 2, seed=4, delete_count=1))
    for q in (2, 3):
        for k in (2, 3):
            recs += main_theorem_suite(q, k, 50, seed=100 + 10 * q + k)
    assert len(recs) == 207
    return [(rec.id, charpoly_auto(rec.matroid), rec.q, rec.witnessed_width) for rec in recs]


def _root_answers(chi, q, k):
    """Everything the bound suites ask of the root layer, at both
    theorems' bounds and both tolerances the tests use."""
    bounds = (Fraction(q ** (k - 1)), Fraction(q ** k - 1, q - 1))
    return (
        [sturm_positive_beyond(chi, b) for b in bounds],
        [count_roots_above(chi, b) for b in bounds],
        [largest_real_root(chi, tol) for tol in (ROOT_TOL, 1)],
    )


def test_largest_real_root_matches_oracle_on_charpolys(monkeypatch, fresh_root_memo):
    """Cold answers (memo cleared before each polynomial) match the
    Fraction oracle and pass the Budan-Fourier certificate; warm answers,
    read back from the memo, equal the cold ones."""
    battery = [item for item in _charpoly_battery(monkeypatch) if not item[1].is_zero]
    cold = []
    for rid, chi, q, k in battery:
        fresh_root_memo.clear()
        cold.append(_root_answers(chi, q, k))
        verdicts, _, brackets = cold[-1]
        ref = [_ref_largest_real_root(chi, tol) for tol in (ROOT_TOL, 1)]
        assert brackets == ref, rid
        lo, hi = ref[0]
        for b, verdict in zip((q ** (k - 1), Fraction(q ** k - 1, q - 1)), verdicts):
            assert hi <= b or lo >= b, rid  # the oracle decides the verdict
            assert verdict == (hi <= b), rid
    assert len(fresh_root_memo) == 1
    warm = [_root_answers(chi, q, k) for _, chi, q, k in battery]
    assert len(fresh_root_memo) == len({chi.coeffs for _, chi, _, _ in battery})
    assert warm == cold


# -- integer roots first, against the root layer by Sturm alone ---------------


def _ref_sturm_layer(p):
    """(sf, chain) as the root layer built them before it read integer
    roots: the squarefree part by a gcd of p and p' alone, and its whole
    Sturm chain.  Counts off that chain and charpoly._bracket on sf with
    that chain and no integer roots give that layer's answers."""
    g, y = p.coeffs, p.derivative().coeffs
    while y:
        g, y = y, charpoly._primitive(charpoly._pseudo_divmod(g, y)[2])
    sf = poly_exact_div(p, IntPoly(charpoly._primitive(g))) if len(g) > 1 else p
    sf = IntPoly(charpoly._primitive(sf.coeffs))
    if sf.leading < 0:
        sf = -sf
    return sf, sturm_chain(sf)


# factors with integer roots (zero and negative ones among them),
# rational roots with a non-monic factor, and pairs of irrational and of
# complex roots
root_factors = st.one_of(
    st.integers(-6, 9).map(x_minus),
    st.tuples(st.integers(-9, 9), st.integers(2, 5)).map(lambda t: IntPoly([-t[0], t[1]])),
    st.sampled_from([
        IntPoly([-2, 0, 1]),
        IntPoly([-1, -1, 1]),
        IntPoly([-7, 0, 3]),
        IntPoly([-8, 0, 1]),
        IntPoly([1, 0, 1]),
        IntPoly([1, 1, 1]),
        IntPoly([5, -2, 1]),
    ]),
)
root_polys = st.builds(
    lambda lead, factors: reduce(mul, factors, IntPoly([lead])),
    st.sampled_from([1, -1, 2, -3, 6]),
    st.lists(root_factors, max_size=7),
)


@given(
    root_polys,
    st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=12), min_size=1, max_size=3),
    st.lists(st.builds(Fraction, st.integers(1, 90), st.integers(1, 40)), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_integer_roots_first_matches_the_sturm_layer(p, bounds, tols):
    """Counts at rational bounds, brackets at tolerances below 1 and of
    1 and more (where the bisection's wide brackets must keep their
    bytes) and the squarefree part equal the layer's by Sturm alone.
    The integer roots read by synthetic division are exactly p's, and
    the cofactor they leave has none."""
    charpoly._ROOT_MEMO.clear()
    sf, chain = _ref_sturm_layer(p)
    assert squarefree_part(p) == sf
    roots, rest = charpoly._integer_split(p)
    bound = cauchy_root_bound(p)
    assert roots == tuple(c for c in range(-bound, bound + 1) if p.evaluate(c) == 0)
    assert not any(rest.evaluate(c) == 0 for c in range(-bound, bound + 1))
    v_inf = charpoly._variations_at_pos_inf(chain)
    for b in bounds:
        count = charpoly._variations_at(chain, b.numerator, b.denominator) - v_inf
        assert count_roots_above(p, b) == count
    for tol in tols + [ROOT_TOL, Fraction(1), Fraction(3, 2), Fraction(40)]:
        assert largest_real_root(p, tol) == charpoly._bracket((), sf, chain, tol.numerator, tol.denominator)


@pytest.mark.parametrize("p, found", [
    (x_minus(10 ** 15) * x_minus(1), (1,)),
    (IntPoly([-10 ** 30, 0, 1]), ()),
    (x_minus(-10 ** 9) * x_minus(3) * IntPoly([1, 0, 1]), (3,)),
    (cp_pg_closed_form(24, 2), tuple(2 ** i for i in range(18))),
], ids=["1e15", "1e30-square", "-1e9", "pg-24-2"])
def test_integer_roots_past_the_walk_are_left_to_sturm(p, found):
    """The candidate walk stops at about the work of the Sturm chain it
    saves, so a root of 10**15 costs no walk of 10**15 steps: a root past
    the walk stays in the cofactor, and every answer is still the layer's
    by Sturm alone."""
    roots, rest = charpoly._integer_split(p)
    assert roots == found
    sf, chain = _ref_sturm_layer(p)
    assert reduce(mul, map(x_minus, roots), rest) == squarefree_part(p) == sf
    for b in (0, 5, 10 ** 9):
        count = charpoly._variations_at(chain, b, 1) - charpoly._variations_at_pos_inf(chain)
        assert count_roots_above(p, b) == count
    for tol in (ROOT_TOL, Fraction(1), Fraction(10 ** 6)):
        assert largest_real_root(p, tol) == charpoly._bracket((), sf, chain, tol.numerator, tol.denominator)


def test_sturm_chain_rejects_the_zero_polynomial():
    with pytest.raises(RootArgumentError, match="zero polynomial") as info:
        sturm_chain(ZERO)
    assert isinstance(info.value, ValueError)


@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), unique=True, max_size=5),
    st.sampled_from([None, 2, 3, 5, -1]),
    st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=8), min_size=1, max_size=4),
)
def test_sturm_chain_counts_the_roots(roots, square, bounds):
    """The chain of a squarefree polynomial (distinct rational roots,
    times lam^2 - square, which adds the irrational roots +-sqrt(square),
    or for -1 the complex ones +-i) ends in a nonzero constant, and its
    sign variations at b, less those at +infinity, count the roots above
    b, as they do at -infinity."""
    p = IntPoly([1]) if square is None else IntPoly([-square, 0, 1])
    for r in roots:
        p = p * IntPoly([-r.numerator, r.denominator])
    chain = sturm_chain(p)
    assert chain[0] == p and chain[-1].degree == 0 and not chain[-1].is_zero
    v_inf = _ref_variations(c.leading for c in chain)
    surds = [] if square in (None, -1) else [-1, 1]

    def above(b):
        # sqrt(square) > b when b < 0 or b**2 < square, and -sqrt(square) > b when b < 0 and b**2 > square
        return sum(r > b for r in roots) + sum(
            (b < 0 and b * b > square) if s < 0 else (b < 0 or b * b < square) for s in surds
        )

    for b in bounds:
        assert _ref_variations(c.evaluate(b) for c in chain) - v_inf == above(b)
    v_neg_inf = _ref_variations(c.leading * (-1) ** c.degree for c in chain)
    assert v_neg_inf - v_inf == len(roots) + len(surds)


def test_root_memo_keys(fresh_root_memo):
    """A bound or tolerance is keyed by its exact value, a polynomial by
    its coefficients: p, -p and 2p have the same roots but their own
    entries."""
    p = cp_pg_closed_form(3, 2)  # roots 1, 2, 4
    assert [count_roots_above(p, b) for b in (2, Fraction(2), 2.0)] == [1, 1, 1]
    roots, sf, chain, counts, brackets = fresh_root_memo[p.coeffs]
    assert roots == (1, 2, 4) and sf == p and chain == []
    assert len(counts) == 1
    assert largest_real_root(p, 1) == largest_real_root(p, ROOT_TOL) == (4, 4)
    assert largest_real_root(p, Fraction(1)) == (4, 4)
    assert len(brackets) == 2
    assert sturm_positive_beyond(p, 4) and not sturm_positive_beyond(-p, 4)
    assert sturm_positive_beyond(2 * p, 4)
    for other in (-p, 2 * p):
        assert count_roots_above(other, 2) == 1
    assert set(fresh_root_memo) == {p.coeffs, (-p).coeffs, (2 * p).coeffs}


def test_root_memo_is_bounded(fresh_root_memo):
    """Past MAX_ROOT_MEMO polynomials, or MAX_ROOT_ANSWERS bounds or
    tolerances on one polynomial, the oldest entry goes and every answer
    stays right."""
    cap = charpoly.MAX_ROOT_MEMO
    for i in range(cap + 10):
        p = x_minus(i) * IntPoly([1, 0, 1])
        assert count_roots_above(p, Fraction(1, 2)) == (i > 0)
        assert largest_real_root(p, ROOT_TOL) == (i, i)
        assert len(fresh_root_memo) <= cap
    assert len(fresh_root_memo) == cap
    first = x_minus(0) * IntPoly([1, 0, 1])
    assert first.coeffs not in fresh_root_memo  # the oldest went first
    assert count_roots_above(first, Fraction(1, 2)) == 0
    assert largest_real_root(first, ROOT_TOL) == (0, 0)

    p = cp_pg_closed_form(4, 2)  # roots 1, 2, 4, 8
    for b in range(-3, 12):
        assert count_roots_above(p, b) == sum(r > b for r in (1, 2, 4, 8))
        lo, hi = largest_real_root(p, Fraction(100, b + 4))
        assert lo == hi == 8 or lo < 8 <= hi
    *_, counts, brackets = fresh_root_memo[p.coeffs]
    assert len(counts) == len(brackets) == charpoly.MAX_ROOT_ANSWERS


def test_root_layer_validates_arguments_first(fresh_root_memo):
    """A bad bound or tolerance raises whether or not p has a real root
    or positive degree, and leaves nothing in the memo."""
    for p in (IntPoly([1, 0, 1]), IntPoly([5]), x_minus(1), cp_pg_closed_form(3, 2)):
        for tol in (0, -1, Fraction(-1, 3), "abc", None):
            with pytest.raises((ValueError, TypeError)):
                largest_real_root(p, tol)
        for bound in ("abc", None, float("nan")):
            with pytest.raises((ValueError, TypeError)):
                sturm_positive_beyond(p, bound)
            with pytest.raises((ValueError, TypeError)):
                count_roots_above(p, bound)
    assert not fresh_root_memo


BAD_BOUNDS = ["abc", None, float("inf"), float("-inf"), float("nan"), 1j]
BAD_TOLS = BAD_BOUNDS + [0, -1, Fraction(-1, 3), 0.0]


ROOT_CALLS = {
    "count_roots_above": (count_roots_above, "bound"),
    "sturm_positive_beyond": (sturm_positive_beyond, "bound"),
    "largest_real_root": (largest_real_root, "tol"),
}


@pytest.mark.parametrize(
    "name, arg",
    [(name, b) for name in ("count_roots_above", "sturm_positive_beyond") for b in BAD_BOUNDS]
    + [("largest_real_root", t) for t in BAD_TOLS],
)
def test_root_layer_rejects_bad_arguments_with_a_typed_error(fresh_root_memo, name, arg):
    """A bad bound or tolerance raises RootArgumentError, which is a
    MatZeroError and still a ValueError, naming the argument."""
    fn, kind = ROOT_CALLS[name]
    for p in (IntPoly([1, 0, 1]), IntPoly([5]), x_minus(1), cp_pg_closed_form(3, 2)):
        with pytest.raises(RootArgumentError, match=kind) as info:
            fn(p, arg)
        assert isinstance(info.value, MatZeroError)
        assert isinstance(info.value, ValueError)
    assert not fresh_root_memo


@pytest.mark.parametrize("name", ROOT_CALLS)
def test_root_layer_rejects_the_zero_polynomial(name):
    fn, _ = ROOT_CALLS[name]
    with pytest.raises(RootArgumentError, match="zero polynomial") as info:
        fn(ZERO, 1)
    assert isinstance(info.value, ValueError)


@given(small_polys, st.integers(-30, 30), st.integers(1, 12), st.integers(-5, 5))
def test_taylor_shift_is_the_homogeneous_shift(p, num, den, y):
    """_taylor_shift(p, num, den) at y is den**deg * p((num + y)/den)."""
    shifted = charpoly._taylor_shift(p, num, den)
    assert _ref_eval(shifted, y) == den ** p.degree * _ref_eval(p.coeffs, Fraction(num + y, den))


@pytest.mark.parametrize("bound, offset", [(0, 1), (0, -1), (3, 1), (3, -1), (3, 2), (5, 1)])
def test_count_roots_above_rejects_a_wrong_sturm_count(monkeypatch, fresh_root_memo, bound, offset):
    """A root count off by an odd number, or above the sign variations
    of the shifted squarefree part, fails the Budan-Fourier certificate
    and is not kept, whichever of its two sources is poisoned: the
    integer roots read by synthetic division or the Sturm count of the
    cofactor they leave."""
    p = cp_pg_closed_form(3, 2) * IntPoly([-2, 0, 1])  # roots 1, 2, 4 and +-sqrt(2)
    expected = {0: 4, 3: 1, 5: 0}[bound]
    roots, *rest = charpoly._root_analysis(p)
    assert roots == (1, 2, 4)
    # offset roots added above every bound, or -offset of the top ones taken away
    poisoned = roots + (9, 10)[:offset] if offset > 0 else roots[:offset]
    count = charpoly._variations_at
    for poison in (
        lambda: fresh_root_memo.update({p.coeffs: (poisoned, *rest)}),
        lambda: monkeypatch.setattr(charpoly, "_variations_at", lambda *a: count(*a) + offset),
    ):
        fresh_root_memo.clear()
        poison()
        with pytest.raises(RootCertificateError):
            count_roots_above(p, bound)
        assert not fresh_root_memo[p.coeffs][3]
        monkeypatch.undo()
    fresh_root_memo.clear()
    assert count_roots_above(p, bound) == expected


@pytest.mark.parametrize("r, q", [(3, 2), (4, 3)])
def test_largest_real_root_counts_the_chain_only_to_isolate(monkeypatch, fresh_root_memo, r, q):
    """Full Sturm counts stop once the largest root is alone in the
    bracket; a count at every bisection step would exceed the limit.
    (lam^2 - 2 q^(2r - 2))(lam - 1) has the irrational largest root
    sqrt(2) q^(r - 1), so after one count on the cofactor's chain at its
    integer root 1 it runs the bisection.  chi of PG(r - 1, q) splits
    over Z, so its largest root is read off by synthetic division: no
    Sturm chain is built or counted."""
    calls = []
    count = charpoly._variations_at

    def counted(chain, num, den):
        calls.append(num)
        return count(chain, num, den)

    built = []
    chain = charpoly.sturm_chain
    monkeypatch.setattr(charpoly, "_variations_at", counted)
    monkeypatch.setattr(charpoly, "sturm_chain", lambda p: built.append(p) or chain(p))
    top = q ** (r - 1)
    assert largest_real_root(cp_pg_closed_form(r, q), ROOT_TOL) == (top, top)
    assert calls == built == []

    square = 2 * top * top
    p = IntPoly([-square, 0, 1]) * x_minus(1)
    bound = cauchy_root_bound(squarefree_part(p))
    lo, hi = largest_real_root(p, ROOT_TOL)
    assert lo * lo < square <= hi * hi and hi - lo <= ROOT_TOL
    assert calls[0] == 1 and built == [IntPoly([-square, 0, 1])]  # the cofactor's chain alone
    assert 0 < len(calls) <= (2 * bound).bit_length() + 2


def test_largest_real_root_builds_one_chain(monkeypatch, fresh_root_memo):
    """Five tolerances on a polynomial whose largest root sqrt(18) is
    irrational build one Sturm chain, the cofactor's lam^2 - 18, and
    bracket as the bisection on a chain of the whole squarefree part
    built afresh for each tolerance does; asked again, they build
    nothing more."""
    p = IntPoly([-18, 0, 1]) * x_minus(1) * x_minus(2) * x_minus(2)
    sf = squarefree_part(p)
    tols = (ROOT_TOL, Fraction(1, 1000), Fraction(1, 3), 1, 5)
    expected = [charpoly._bracket((), sf, sturm_chain(sf), *charpoly._exact(t, "tol")) for t in tols]
    built = []
    chain = charpoly.sturm_chain
    monkeypatch.setattr(charpoly, "sturm_chain", lambda q: built.append(q) or chain(q))
    assert [largest_real_root(p, t) for t in tols] == expected
    assert built == [IntPoly([-18, 0, 1])]
    lo, hi = expected[0]
    assert lo * lo < 18 <= hi * hi
    fresh_root_memo[p.coeffs][4].clear()  # brackets asked again use the kept chain
    assert [largest_real_root(p, t) for t in tols] == expected
    assert len(built) == 1


@pytest.mark.parametrize("p", [
    IntPoly([-18, 0, 1]) * x_minus(1) * x_minus(2) * x_minus(2),
    IntPoly([-2, 0, 1]) * IntPoly([1, 1, 1]) * x_minus(-3),
    IntPoly([-7, 0, 3]) * IntPoly([-1, -1, 1]) * IntPoly([-1, 2]) * x_minus(0),
    cp_pg_closed_form(3, 2) * IntPoly([1, 0, 1]),
    x_minus(5) * IntPoly([-8, 0, 1]),
], ids=["surd-18", "surd-2-complex", "two-surds-half-zero", "pg-3-2-complex", "int-above-surd"])
def test_no_chain_of_the_squarefree_part_is_built(monkeypatch, fresh_root_memo, p):
    """Counts at several bounds and brackets at tolerances below 1 and
    of 1 and more build at most one Sturm chain, on the cofactor the
    integer roots leave, and never one on the squarefree part itself."""
    sf = squarefree_part(p)
    roots, rest = charpoly._integer_split(p)
    assert roots  # so sf is not the cofactor
    built = []
    chain = charpoly.sturm_chain
    monkeypatch.setattr(charpoly, "sturm_chain", lambda q: built.append(q) or chain(q))
    for b in (-5, 0, Fraction(1, 3), 2, Fraction(7, 2), 9):
        count_roots_above(p, b)
        sturm_positive_beyond(p, b)
    for tol in (ROOT_TOL, Fraction(1, 3), 1, Fraction(3, 2), 40):
        largest_real_root(p, tol)
    assert sf not in built
    assert built == ([rest] if rest.degree > 0 else [])


@given(
    rational_roots,
    st.integers(1, 2),
    st.integers(-25, 25),
    st.sampled_from([3, 5, 7, 9, 1001]),
)
@settings(max_examples=150, deadline=None)
def test_count_roots_above_non_dyadic_bounds(pairs, mult, whole, den):
    """Roots of multiplicity mult times a factor with no real root,
    counted above whole + 1/den, whose denominator is odd."""
    roots = sorted(set(Fraction(p, q) for p, q in pairs))
    poly = IntPoly([1, 0, 1])
    for root in roots:
        for _ in range(mult):
            poly = poly * IntPoly([-root.numerator, root.denominator])
    bound = Fraction(whole * den + 1, den)
    assert count_roots_above(poly, bound) == sum(1 for r in roots if r > bound)
    assert sturm_positive_beyond(poly, bound) == (roots[-1] <= bound)


nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


@given(small_polys, nonzero_polys)
def test_poly_exact_div_inverts_multiplication(a, b):
    assert poly_exact_div(a * b, b) == a


@given(small_polys, nonzero_polys, st.lists(st.integers(-9, 9), max_size=5), st.integers(2, 5))
def test_poly_exact_div_rejects_non_divisors(a, b, rest, k):
    r = IntPoly(rest[: b.degree])  # shorter than b, so a nonzero remainder
    if not r.is_zero:
        with pytest.raises(InexactDivisionError):
            poly_exact_div(a * b + r, b)
    if any(c % k for c in a.coeffs):  # a / k is not integral
        with pytest.raises(InexactDivisionError):
            poly_exact_div(a * b, k * b)


def test_root_memo_shared_by_threads(monkeypatch, fresh_root_memo):
    """Threads that fill and evict a tiny shared memo at a short switch
    interval all get right answers, and the cap holds, also where the
    bisection counts on the cofactor's Sturm chain an entry keeps."""
    monkeypatch.setattr(charpoly, "MAX_ROOT_MEMO", 4)
    monkeypatch.setattr(charpoly, "MAX_ROOT_ANSWERS", 2)
    errors = []

    def surd(root):  # largest root sqrt(root + 9), irrational for these roots
        return x_minus(root) * IntPoly([-(root + 9), 0, 1])

    tols = [Fraction(1, 1 + j) for j in range(3)]
    brackets = {
        (root, j): charpoly._bracket((), sf, sturm_chain(sf), 1, 1 + j)
        for root in (1, 2, 3) for sf in [squarefree_part(surd(root))] for j in range(3)
    }

    def work(offset):
        try:
            for i in range(300):
                root = (i + offset) % 23
                p = x_minus(root) * IntPoly([1, 0, 1])
                assert count_roots_above(p, i % 5) == (root > i % 5)
                assert largest_real_root(p, tols[i % 3]) == (root, root)
                root = (i + offset) % 3 + 1
                assert largest_real_root(surd(root), tols[i % 3]) == brackets[root, i % 3]
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert len(fresh_root_memo) <= 4
    assert all(len(c) <= 2 and len(b) <= 2 for *_, c, b in fresh_root_memo.values())


# -- the leaf kernels of the deletion-contraction recursion -------------------


def _with_dead_digit(field, rows: list, at: int) -> list:
    """The rows with a zero digit put in at position ``at``, which is
    then dead: every row keeps its pivot value and stays normalized."""
    shift = at * field.width
    below = (1 << shift) - 1
    return [row & below | row >> shift << shift + field.width for row in rows]


def _projections(call):
    """(result of call(), GF.project calls it made)."""
    calls = []
    real = GF.project

    def project(self, rows, prow):
        calls.append(1)
        return real(self, rows, prow)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GF, "project", project)
        out = call()
    return out, len(calls)


def test_plane_kernel_on_every_spanning_subset_of_pg23():
    """Every subset of PG(2, 3) holding the three unit points (1,024
    sets): the rank-3 kernel, on the standard form and with a dead
    digit put below a live one, equals the Mobius expansion and makes
    no projection."""
    field = gf(3)
    points = pg_build(3, 3)
    units = [p for p in points if sum(p) == 1]
    others = [p for p in points if sum(p) != 1]
    assert len(units) == 3 and len(others) == 10
    for chosen in range(1 << len(others)):
        m = LinearMatroid(field, units + [others[i] for i in mask_bits(chosen)])
        basis, rows = m._standard_form()
        assert basis.bit_count() == 3
        expected = cp_mobius(m)
        for at in (None, 0, 2):
            given_rows = rows if at is None else _with_dead_digit(field, rows, at)
            chi, projections = _projections(lambda: charpoly._chi_from_rows(field, given_rows, 3))
            assert chi == expected and projections == 0, (chosen, at)


@st.composite
def plane_point_sets(draw):
    """Points of PG(2, q) for q in {4, 5}, whose subspace tables are
    within ``gfq.MAX_TABLE_POINTS``, and {7, 8, 9, 11}, above it, as
    columns: some rescaled, some repeated, at times a zero column, in
    random order."""
    q = draw(st.sampled_from((4, 5, 7, 8, 9, 11)))
    points = pg_build(3, q)
    field = gf(q)
    picks = draw(st.lists(st.tuples(st.integers(0, len(points) - 1), st.integers(1, q - 1)),
                          min_size=1, max_size=14))
    cols = [tuple(field.mul[c][x] for x in points[i]) for i, c in picks]
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), (0, 0, 0))
    return LinearMatroid(field, cols, nrows=3)


@given(plane_point_sets(), st.sampled_from((None, 0, 1, 2)))
@settings(max_examples=200, deadline=None)
def test_plane_kernel_on_point_sets_of_planes(m, at):
    """chi of a point set of PG(2, q), from its standard form (loops,
    repeats and all) with or without a dead digit, equals the Mobius
    expansion; a rank-3 input makes no projection exactly when the
    field keeps a table of PG(2, q) (:meth:`GF.subspaces`)."""
    field = m.field
    basis, rows = m._standard_form()
    rank = basis.bit_count()
    if at is not None and rank:
        rows = _with_dead_digit(field, rows, min(at, rank - 1))
    chi, projections = _projections(lambda: charpoly._chi_from_rows(field, rows, rank))
    assert chi == cp_mobius(m)
    inside = field.subspaces(3) is not None
    assert inside == (field.q <= 5)
    if rank == 3 and inside:
        assert projections == 0
    if rank == 3 and not inside and 0 not in rows and len(set(rows)) > 4:
        assert projections > 0


def test_plane_table_is_kept_on_the_field():
    """PG(2, q)'s incidences are built once per field: q**2 + q + 1
    points, each on q + 1 lines, any two sharing exactly one line."""
    for q in (3, 4, 5):
        field = gf(q)
        table = field.subspaces(3)
        assert field.subspaces(3) is table
        masks, _, blocks = table
        assert sorted(masks) == sorted(map(field.pack, pg_build(3, q)))
        [(shift, span)] = [(shift, span) for shift, span, row in blocks if len(row) == 2]  # d = 2
        lines = [mask >> shift & span for mask in masks.values()]
        assert all(line.bit_count() == q + 1 for line in lines)
        assert all((a & b).bit_count() == 1 for i, a in enumerate(lines) for b in lines[:i])


def _gaussian(r: int, d: int, q: int) -> int:
    """The number of subspaces of dimension d of GF(q)**r."""
    num = den = 1
    for i in range(d):
        num *= q ** (r - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _tables_within_the_cap():
    """(field, rank) for every field order up to 32 with a shipped
    modulus and every rank from 3 whose subspace table the field keeps,
    checked against the cap on the points."""
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31):
        field = gf(q)
        for rank in range(3, 8):
            inside = _gaussian(rank, 1, q) <= gfq.MAX_TABLE_POINTS
            assert (field.subspaces(rank) is not None) == inside, (q, rank)
            if inside:
                out.append((field, rank))
    return out


def test_subspace_tables_count_every_subspace():
    """Within ``gfq.MAX_TABLE_POINTS`` every table lists the points of
    PG(r - 1, q), its blocks together hold [r, d]_q subspaces of each
    dimension d from 1 to r - 1 (Gaussian binomials), and each point
    lies on [r - 1, d - 1]_q of them; the cap admits binary ranks 3 to
    5 and the planes over GF(3), GF(4) and GF(5)."""
    tables = _tables_within_the_cap()
    assert sorted((field.q, rank) for field, rank in tables) == sorted(
        [(2, 3), (2, 4), (2, 5), (3, 3), (4, 3), (5, 3)]
    )
    for field, rank in tables:
        q = field.q
        masks, _, blocks = field.subspaces(rank)
        points = list(masks)
        assert sorted(points) == sorted(map(field.pack, pg_build(rank, q)))
        assert len(blocks) == rank - 1
        touched = 0
        for point in points:
            touched |= masks[point]
        sizes = set()
        for shift, span, row in blocks:
            d = rank + 1 - len(row)  # the row is P_(rank - d), of degree rank - d
            sizes.add(d)
            assert (touched >> shift & span).bit_count() == _gaussian(rank, d, q), (q, rank, d)
            assert {(masks[point] >> shift & span).bit_count() for point in points} == {
                _gaussian(rank - 1, d - 1, q)
            }, (q, rank, d)
        assert sizes == set(range(1, rank))


def test_subspace_tables_are_built_once_per_field_and_rank(monkeypatch):
    """A field builds each rank's table once, on first use, and keeps
    the refusal above the cap too: a second call returns the same
    object and builds nothing."""
    built = []
    real = GF._binary_incidences

    def counted(self, rank):
        built.append((self, rank))
        return real(self, rank)

    monkeypatch.setattr(GF, "_binary_incidences", counted)
    field = GF(2)  # not the shared gf(2), so nothing is built yet
    tables = [field.subspaces(rank) for rank in (3, 4, 5, 6, 3, 4, 5, 6)]
    assert all(a is b for a, b in zip(tables[:4], tables[4:]))
    assert tables[3] is None and None not in tables[:3]
    assert built == [(field, 3), (field, 4), (field, 5)]
    with pytest.raises(ArgumentError):
        field.subspaces(2)


def _subspace_cases(field, rank: int, rng):
    """(oracle, [rows, ...]) for a random point set of PG(rank - 1, q)
    holding the unit points: the rows of its standard form, those of a
    matrix with repeated and rescaled columns and of one with a zero
    column, the rows with a dead digit put in, and, for a basis element
    that is no coloop, the other rows in the same coordinates, as
    :func:`matroid._delete_contract_rows` deletes it, which leaves no
    unit row at its digit.  The oracle is a matroid with the same chi,
    zero for the loop."""
    q = field.q
    points = pg_build(rank, q)
    units = [p for p in points if sum(p) == 1]
    others = [p for p in points if sum(p) != 1]
    cols = units + rng.sample(others, rng.randint(1, min(len(others), 9)))
    rng.shuffle(cols)
    m = LinearMatroid(field, cols, nrows=rank)
    basis, rows = m._standard_form()
    scales = [(col, rng.randint(1, q - 1)) for col in rng.sample(cols, 2)]
    copies = [tuple(field.mul[c][x] for x in col) for col, c in scales]
    variants = [
        rows,
        LinearMatroid(field, cols + copies, nrows=rank)._standard_form()[1],
        LinearMatroid(field, cols + [(0,) * rank], nrows=rank)._standard_form()[1],
        _with_dead_digit(field, rows, rng.randrange(rank)),
    ]
    cases = [(m, variants)]
    free = basis & ~_coloops(field, basis, rows)
    if free:
        e = rng.choice(list(mask_bits(free)))
        deleted, _ = _delete_contract_rows(field, rows, e)
        assert len({row for row in deleted if not row & row - 1}) == rank - 1
        cases.append((m.delete([e]), [deleted, _with_dead_digit(field, deleted, rng.randrange(rank))]))
    return cases


def test_subspace_kernel_matches_the_oracles_within_the_cap(monkeypatch):
    """For every (q, rank) within the cap, on random point sets in the
    input shapes of :func:`_subspace_cases`, ``_chi_from_rows`` equals
    ``cp_mobius`` and ``cp_delete_contract`` (deletion-contraction, which
    reads no subspace table) of the oracle, zero with a loop, and makes
    no ``GF.project`` or ``GF.reduce`` call."""
    calls = []
    for name in ("project", "reduce"):
        real = getattr(GF, name)
        monkeypatch.setattr(GF, name, lambda self, *args, real=real: calls.append(1) or real(self, *args))
    rng = random.Random("subspace-kernel")
    checked = 0
    for field, rank in _tables_within_the_cap():
        for _ in range(20):
            for oracle, variants in _subspace_cases(field, rank, rng):
                expected = cp_mobius(oracle)
                assert cp_delete_contract(oracle) == expected
                for rows in variants:
                    del calls[:]
                    chi = charpoly._chi_from_rows(field, rows, oracle.full_rank)
                    assert chi == (ZERO if 0 in rows else expected), (field, rank, rows)
                    assert not calls, (field, rank)
                    checked += 1
    assert checked > 500


def _binary_cases(seed: int):
    """(oracle, [rows, ...], rank) over GF(2): a random simple matroid
    of rank 4 to 13 on at most 14 points and the rows of its deletion
    and contraction at a random element that is neither a loop nor a
    coloop (:func:`matroid._delete_contract_rows`), whose deletion may
    lack a unit row and whose contraction has a dead digit and may have
    parallel rows; each given as those
    rows, with repeated rows appended, and with a dead digit put in
    below a live one, so the highest live digit runs up to 14.  The
    oracle is a matroid with the same chi, built from the columns."""
    rng = random.Random(f"bitset:{seed}")
    field = gf(2)
    height = rng.randint(4, 13)
    codes = rng.sample(range(1, 1 << height), min(height + rng.randint(1, 3), 14))
    m = LinearMatroid(field, [[c >> i & 1 for i in range(height)] for c in codes], nrows=height)
    basis, rows = m._standard_form()
    rank = basis.bit_count()
    cases = [(m, rows, rank)]
    free = mask_of(range(m.n)) & ~_coloops(field, basis, rows)
    if free:
        e = rng.choice(list(mask_bits(free)))
        for sub, r in zip(_delete_contract_rows(field, rows, e), (rank, rank - 1)):
            cases.append((LinearMatroid(field, [field.unpack(row, rank) for row in sub], nrows=rank),
                          sub, r))
    return [
        (oracle, [rows, rows + rng.sample(rows, 2), _with_dead_digit(field, rows, rng.randrange(r))], r)
        for oracle, rows, r in cases
    ]


def test_leaf_kernels_on_random_binary_point_sets():
    """Random GF(2) point sets of rank 3 to 13 given as a standard form,
    a deletion with no unit row at the deleted element's digit, a
    contraction with a dead digit, with repeated rows and with a dead
    digit put in: chi equals the Mobius expansion (the subset expansion
    above 11 elements), and a loop makes it zero.  Ranks 3 to 5 read the
    subspace tables with no projection; above them the row recursion
    runs, after a standard form where a unit row is missing, and
    contracts by projection.  Inputs of both kinds are checked."""
    field = gf(2)
    sides = {True: 0, False: 0}
    for seed in range(40):
        for oracle, variants, rank in _binary_cases(seed):
            expected = (cp_mobius if oracle.n <= 11 else cp_boolean_expansion)(oracle)
            for rows in variants:
                chi, projections = _projections(lambda: charpoly._chi_from_rows(field, rows, rank))
                assert chi == expected, (seed, rank)
                assert charpoly._chi_from_rows(field, rows + [0], rank) == ZERO
                table = rank <= 5
                standard = len({row for row in rows if not row & row - 1}) == rank
                if table:
                    assert projections == 0
                elif standard and len(set(rows)) > rank:
                    assert projections > 0
                sides[table] += 1
    assert sides[True] >= 50 and sides[False] >= 50, sides


def test_leaf_kernels_make_no_projection_on_the_identity_battery(monkeypatch):
    """Over criterion 07's battery, every leaf that ``_chi_from_rows``
    computes goes to the finite-field count (``_subspace_chi``), which
    makes no ``GF.project`` or ``GF.reduce`` call; every identity still
    holds.  The row recursion made projections on both GF(2) and rank-3
    inputs before the leaf kernels."""
    from matzero import harness, projgeom

    leaves, inside = [], []
    calls = {"project": 0, "reduce": 0}
    for name in calls:
        real = getattr(GF, name)

        def counted(self, *args, real=real, name=name):
            if inside:
                calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(GF, name, counted)
    real_kernel = charpoly._subspace_chi

    def kernel(table, width, rows, rank):
        inside.append(1)
        try:
            return real_kernel(table, width, rows, rank)
        finally:
            inside.pop()
            leaves[-1][1] += 1

    def leaf(real):
        def chi(field, rows, rank):
            leaves.append([(field.q, rank, 0 in rows), 0])
            return real(field, rows, rank)
        return chi

    monkeypatch.setattr(charpoly, "_subspace_chi", kernel)
    monkeypatch.setattr(harness, "_chi_from_rows", leaf(harness._chi_from_rows))
    monkeypatch.setattr(projgeom, "_chi_from_rows", leaf(projgeom._chi_from_rows))
    glued, rand = criterion_07_instances()
    checks = harness.verify_identities(glued + rand)
    assert checks and all(check.passed for check in checks)
    assert calls == {"project": 0, "reduce": 0}
    # every leaf without a loop went to the kernel, once
    assert all(count == (not loop) for (_, _, loop), count in leaves)
    kinds = {(q, rank) for (q, rank, loop), _ in leaves if not loop}
    assert {(2, 3), (2, 4), (2, 5), (3, 3), (4, 3), (5, 3)} <= kinds, kinds
    assert len(leaves) > 1500
