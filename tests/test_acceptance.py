"""End-to-end acceptance battery.

Each test here is one shipping criterion, self-timed against its stated
budget.  The terminal summary prints one PASS/FAIL line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from matzero.charpoly import (
    ZERO,
    IntPoly,
    cp_boolean_expansion,
    cp_cocircuit_expansion,
    cp_delete_contract,
    cp_mobius,
    cp_pg_closed_form,
    cp_uniform_closed_form,
    lam_minus_one_power,
    largest_real_root,
    sturm_positive_beyond,
    x_minus,
)
from matzero.gfq import gf
from matzero.harness import (
    ROOT_TOL,
    all_verdicts_true,
    charpoly_auto,
    cross_check_graphic,
    gen_glued,
    gen_random_linear,
    main_theorem_suite,
    no_lines_suite,
    verify_identities,
    verify_main_theorem,
    verify_no_lines_theorem,
    verify_size_and_cocircuit_bounds,
)
from matzero.instances import fano, pg_matroid, wide_uniform_decomposition
from matzero.matroid import GraphicMatroid, LinearMatroid, UniformMatroid
from matzero.treedecomp import (
    best_heuristic,
    exact_treewidth_small,
    heuristic_decomposition,
    reduce,
)

from support import criterion_07_instances


@pytest.fixture(autouse=True)
def _fixed_seeds(monkeypatch):
    monkeypatch.delenv("MZ_SEED", raising=False)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"


def _cocircuit_policy(m):
    if m.loops_mask():
        return ZERO
    simple, _ = m.simplify()
    return cp_cocircuit_expansion(simple)


def test_criterion_01_plane_charpoly_and_root():
    budget = Budget(1.0)
    closed = cp_pg_closed_form(3, 2)
    assert closed.coeffs == (-8, 14, -7, 1)
    assert closed == x_minus(1) * x_minus(2) * x_minus(4)
    assert cp_mobius(fano()) == closed
    lo, hi = largest_real_root(closed, Fraction(1, 2 ** 30))
    assert hi - lo <= Fraction(1, 2 ** 30)
    assert lo == hi == 4
    budget.check()


def test_criterion_02_line_roots_collapse_to_integers():
    budget = Budget(1.0)
    for n in range(3, 9):
        p = cp_uniform_closed_form(2, n)
        lo, hi = largest_real_root(p, Fraction(1, 2 ** 30))
        assert (lo, hi) == (n - 1, n - 1), n
    budget.check()


def test_criterion_03_wide_decomposition_widths():
    budget = Budget(1.0)
    m, dec = wide_uniform_decomposition()
    assert (m.full_rank, m.n) == (11, 16)
    hub = 3
    assert dec.tree.degree(hub) == 4
    assert dec.node_width(hub) == 10
    assert dec.width() == 10
    path = heuristic_decomposition(m, "path")
    assert path.tree.num_vertices == 16
    assert path.width() == 6
    budget.check()


def test_criterion_04_engine_agreement():
    budget = Budget(120.0)
    engines = (cp_mobius, cp_boolean_expansion, cp_delete_contract, _cocircuit_policy)

    for n in range(0, 9):
        for r in range(0, n + 1):
            m = UniformMatroid(r, n)
            polys = [engine(m) for engine in engines]
            assert polys.count(polys[0]) == len(polys), (r, n)
            if r >= 1:
                assert polys[0] == cp_uniform_closed_form(r, n), (r, n)

    total = 0
    for q in (2, 3, 4, 5):
        rng = random.Random(f"engines:{q}")
        for _ in range(50):
            r = rng.randint(1, 5)
            n = rng.randint(max(2, r), 10)
            rec = gen_random_linear(q, r, n, rng.randrange(1 << 30))
            polys = [engine(rec.matroid) for engine in engines]
            assert polys.count(polys[0]) == len(polys), rec.id
            total += 1
    assert total == 200
    budget.check()


def test_criterion_05_positivity_beyond_power_bound():
    budget = Budget(300.0)
    for q in (2, 3):
        for k in (2, 3):
            recs = main_theorem_suite(q, k, 500, seed=q * 10 + k)
            assert len(recs) == 500
            assert all(r.witnessed_width <= k for r in recs)
            reports = verify_main_theorem(recs, q, k)
            assert len(reports) == 500
            assert all_verdicts_true(reports), (q, k)
            bound = q ** (k - 1)
            for rec, rep in zip(recs, reports):
                assert rep.bound == bound
                if not rec.matroid.loops_mask():
                    assert sturm_positive_beyond(charpoly_auto(rec.matroid), bound)
    budget.check()


def test_criterion_06_positivity_without_long_lines():
    budget = Budget(300.0)
    total = 0
    for q in (2, 3):
        for k in (2, 3):
            recs = no_lines_suite(q, k, 50, seed=q + k)
            assert all(not r.matroid.has_line_minor(q + 2) for r in recs)
            reports = verify_no_lines_theorem(recs, q, k)
            assert all_verdicts_true(reports), (q, k)
            assert all(rep.bound == Fraction(q ** k - 1, q - 1) for rep in reports)
            total += len(reports)
    assert total == 200
    budget.check()


def test_criterion_07_exact_identities():
    budget = Budget(300.0)
    glued, rand = criterion_07_instances()
    recs = glued + rand
    glued_count = len(glued)
    assert glued_count >= 50

    checks = verify_identities(recs)
    assert all_verdicts_true(checks)
    counts = {}
    for c in checks:
        counts[c.check] = counts.get(c.check, 0) + 1
    assert counts["delete-contract"] == len(recs)
    assert counts["glued-factorization"] == glued_count
    assert counts["cocircuit-expansion"] >= 50
    assert counts["telescoping-extension"] >= 50
    budget.check()


def test_criterion_08_structural_invariants():
    budget = Budget(600.0)

    # bag rank never exceeds node width; equality at leaves
    decs = [wide_uniform_decomposition()]
    glued = gen_glued(2, 3, 2, 2, seed=8)
    decs.append((glued.matroid, glued.decomposition))
    rng = random.Random("invariants")
    for _ in range(5):
        rec = gen_random_linear(rng.choice([2, 3]), rng.randint(2, 4), rng.randint(4, 9),
                                rng.randrange(1 << 30))
        decs.append((rec.matroid, rec.decomposition))
    for m, dec in decs:
        for v in range(dec.tree.num_vertices):
            br = m.rank_mask(dec.bag(v))
            nw = dec.node_width(v)
            assert br <= nw
            if dec.tree.degree(v) <= 1:
                assert br == nw

    # reduction is monotone in width and vertex count, and its fixpoint
    # has no spanning edge side left
    reducibles = [dec for _, dec in decs]
    m, _ = wide_uniform_decomposition()
    reducibles.append(heuristic_decomposition(m, "path"))
    for dec in reducibles:
        out = reduce(dec)
        assert out.width() <= dec.width()
        assert out.tree.num_vertices <= dec.tree.num_vertices
        assert not out.width_report().full_rank_side
        again = reduce(out)
        assert again.tree.num_vertices == out.tree.num_vertices

    # in a projective geometry every subset spans or cospans
    for geom in (pg_matroid(3, 2), pg_matroid(3, 3)):
        r = geom.full_rank
        full = geom.full_mask
        for s in range(1 << geom.n):
            assert geom.rank_mask(s) == r or geom.rank_mask(full & ~s) == r

    # tree-width never grows under single-element minors
    rng = random.Random("monotone")
    for _ in range(50):
        q = rng.choice([2, 3])
        n = rng.randint(2, 7)
        r = rng.randint(1, min(4, n))
        rec = gen_random_linear(q, r, n, rng.randrange(1 << 30))
        m = rec.matroid
        e = rng.randrange(n)
        minor = m.delete([e]) if rng.random() < 0.5 else m.contract([e])
        assert exact_treewidth_small(m).width >= exact_treewidth_small(minor).width
    budget.check()


def test_criterion_09_counting_bounds_with_tight_cases():
    budget = Budget(120.0)

    recs = main_theorem_suite(2, 2, 40, seed=17) + main_theorem_suite(3, 2, 40, seed=18)
    for q in (2, 3):
        reports = verify_size_and_cocircuit_bounds(recs, q, 2)
        assert reports
        assert all_verdicts_true(reports)

    # point-count bound, tight on the projective plane itself
    plane = fano()
    assert plane.n == (2 ** 3 - 1) // (2 - 1) == 7
    from matzero.harness import InstanceRecord
    from matzero.treedecomp import single_vertex_decomposition

    frec = InstanceRecord(
        id="tight-size", q=2, matroid=plane,
        decomposition=single_vertex_decomposition(plane),
    )
    reports = verify_size_and_cocircuit_bounds([frec], 2, 3)
    size = [r for r in reports if r.theorem == "size"][0]
    assert size.verdict and size.n == size.bound == 7

    # cocircuit bound, tight on the three-point line over GF(2) at k = 2
    tri = LinearMatroid(gf(2), [(1, 0), (0, 1), (1, 1)])
    trec = InstanceRecord(
        id="tight-cocircuit", q=2, matroid=tri,
        decomposition=single_vertex_decomposition(tri),
    )
    reports = verify_size_and_cocircuit_bounds([trec], 2, 2)
    coc = [r for r in reports if r.theorem == "cocircuit"][0]
    assert coc.verdict and coc.cocircuit_size == coc.bound == 2
    budget.check()


def test_criterion_10_chromatic_cross_check():
    budget = Budget(1.0)
    k4_edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    k4 = cross_check_graphic(4, k4_edges)
    assert k4.passed
    assert k4.matroid_charpoly == x_minus(1) * x_minus(2) * x_minus(3)

    for t in (1, 3, 5):
        edges = [(i, i + 1) for i in range(t)]
        tree = cross_check_graphic(t + 1, edges)
        assert tree.passed
        assert tree.matroid_charpoly == lam_minus_one_power(t)

    looped = cross_check_graphic(3, [(0, 1), (1, 1), (1, 2)])
    assert looped.passed
    assert looped.chromatic == ZERO
    assert charpoly_auto(GraphicMatroid(3, [(0, 1), (1, 1), (1, 2)])) == ZERO
    budget.check()
