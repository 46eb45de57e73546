"""Instance generation, the verification batteries, report
serialization, the chromatic cross-check, and instance files."""

import copy
import importlib.util
import json
import random
import re
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import matzero
from matzero import charpoly, harness, matroid, projgeom
from matzero.charpoly import ONE, ZERO, IntPoly, cp_boolean_expansion, cp_delete_contract, cp_mobius
from matzero.cli import main as cli_main
from matzero.errors import (
    ArgumentError,
    LineMinorPresentError,
    MatZeroError,
    ParseError,
    TooLargeError,
    WidthWitnessExceededError,
)
from matzero.gfq import ff_build, gf
from matzero.harness import (
    BoundReport,
    IdentityCheck,
    InstanceRecord,
    all_verdicts_true,
    charpoly_auto,
    chromatic_polynomial,
    cross_check_graphic,
    effective_seed,
    gen_glued,
    gen_random_linear,
    load_instances,
    main_theorem_suite,
    no_lines_suite,
    reports_to_jsonl,
    resolve_instances,
    save_instances,
    verify_identities,
    verify_main_theorem,
    verify_no_lines_theorem,
    verify_size_and_cocircuit_bounds,
)
from matzero.instances import fano, k4_graphic
from matzero.matroid import (
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    MinorMatroid,
    UniformMatroid,
    mask_bits,
    mask_of,
)
from matzero.projgeom import brylawski_charpoly
from matzero.treedecomp import TreeDecomposition, single_vertex_decomposition

from support import (
    criterion_07_instances,
    glued_slots,
    minor,
    minor_chains,
    non_simple_matroids,
    rank_queries,
)


# -- engine choice and seeds ---------------------------------------------------


def test_charpoly_auto_matches_reference_engines():
    for m in (fano(), UniformMatroid(2, 5), k4_graphic(), UniformMatroid(0, 0)):
        auto = charpoly_auto(m)
        assert auto == cp_mobius(m)
        assert auto == cp_boolean_expansion(m)


def test_charpoly_auto_on_loops():
    assert charpoly_auto(LinearMatroid(gf(2), [(0,), (1,)])) == ZERO
    assert charpoly_auto(UniformMatroid(0, 0)) == ONE


def test_charpoly_auto_matches_mobius_above_eleven_elements():
    rec = gen_glued(2, 3, 2, 1, seed=0)  # two planes sharing a point
    assert rec.matroid.n == 13
    assert charpoly_auto(rec.matroid) == cp_mobius(rec.matroid)


def test_effective_seed_env_override(monkeypatch):
    monkeypatch.delenv("MZ_SEED", raising=False)
    assert effective_seed(5) == 5
    monkeypatch.setenv("MZ_SEED", "99")
    assert effective_seed(5) == 99
    rec = gen_random_linear(2, 2, 4, seed=5)
    assert rec.seed == 99
    assert rec.id.endswith("-s99")


def test_mz_seed_applies_once_per_suite(monkeypatch):
    def matrices(recs):
        return [rec.matroid.columns for rec in recs]

    monkeypatch.delenv("MZ_SEED", raising=False)
    plain = {
        "suite": matrices(main_theorem_suite(2, 2, 40, 0)),
        "random": matrices(resolve_instances("random:12:0", 2, 2)),
        "glued": matrices(resolve_instances("glued:8:0", 2, 3)),
    }
    monkeypatch.setenv("MZ_SEED", "0")
    overridden = {
        "suite": matrices(main_theorem_suite(2, 2, 40, 5)),
        "random": matrices(resolve_instances("random:12:5", 2, 2)),
        "glued": matrices(resolve_instances("glued:8:5", 2, 3)),
    }
    assert overridden == plain
    assert len(set(overridden["suite"])) == len(set(plain["suite"])) == 26


# -- generators ------------------------------------------------------------------


def test_gen_random_linear_deterministic():
    a = gen_random_linear(3, 3, 8, 7)
    b = gen_random_linear(3, 3, 8, 7)
    assert a.id == b.id == "random-q3r3n8-s7"
    assert a.matroid.columns == b.matroid.columns
    assert a.matroid.loops_mask() == 0
    assert a.witnessed_width == a.decomposition.width()
    c = gen_random_linear(3, 3, 8, 8)
    assert c.matroid.columns != a.matroid.columns


def test_gen_glued_shape():
    rec = gen_glued(2, 3, 2, 2, seed=5)
    assert rec.matroid.n == 11
    assert rec.matroid.full_rank == 4
    assert rec.decomposition.width() == 3  # undeleted width is the block rank
    cons = rec.construction
    assert cons["kind"] == "glued"
    assert len(cons["block_elements"]) == 2
    assert len(cons["overlap_elements"]) == 1
    assert len(cons["overlap_elements"][0]) == 3  # a line of PG(., 2)
    assert rec.id == "glued-q2b3x2o2-s5d0"


def test_gen_glued_deletions_spare_the_overlap():
    rec = gen_glued(2, 3, 2, 2, seed=5, delete_count=2)
    assert rec.matroid.n == 9
    assert len(rec.construction["overlap_elements"][0]) == 3
    assert rec.decomposition.width() <= 3


def test_gen_glued_size_cap():
    with pytest.raises(TooLargeError):
        gen_glued(3, 3, 3, 2)


def test_gen_glued_single_block():
    rec = gen_glued(2, 2, 1, 0, seed=1)
    assert rec.decomposition.tree.num_vertices == 1
    assert rec.decomposition.width() == 2


def _module_tables():
    """The size of every dict, list and set bound at module level in
    the package."""
    return {
        (name, attr): len(value)
        for name, module in list(sys.modules.items()) if name.split(".")[0] == "matzero"
        for attr, value in vars(module).items() if isinstance(value, (dict, list, set))
    }


def test_glued_points_built_once_per_shape_and_bounded(monkeypatch):
    """Every draw of a shape in one call shares one build of its points,
    held in tuples so no draw can change the shared entry; a separate
    call builds them again, and nothing of them stays at module level."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    builds = []
    real = harness._build_glued_points

    def counting(*shape):
        builds.append(shape)
        return real(*shape)

    monkeypatch.setattr(harness, "_build_glued_points", counting)
    gf(2)  # the field is kept by gf, outside what is compared
    tables = _module_tables()
    recs = main_theorem_suite(2, 2, 40, seed=0)
    drawn = [
        tuple(rec.construction[name] for name in ("q", "block_rank", "blocks", "overlap_rank"))
        for rec in recs if rec.construction["kind"] == "glued"
    ]
    assert len(builds) == len(set(builds)) < len(drawn)  # a shape drawn twice is built once
    assert set(drawn) <= set(builds)
    builds.clear()
    a = gen_glued(2, 3, 2, 1, seed=1, delete_count=2)
    b = gen_glued(2, 3, 2, 1, seed=2, delete_count=2)
    assert builds == [(2, 3, 2, 1)] * 2
    assert a.matroid.columns != b.matroid.columns  # the seeds still choose
    assert _module_tables() == tables
    entry = real(2, 3, 2, 1)
    points, block_elements, overlap_elements, private, first_block = entry
    assert {len(local) for _, local in points} == {3}
    assert all(offset == 2 * first_block[e] for e, (offset, _) in enumerate(points))
    assert all(
        type(part) is tuple
        for part in (points, block_elements, overlap_elements, private, first_block)
    )
    assert all(
        type(inner) is tuple
        for inner in (*points, *(local for _, local in points), *block_elements, *overlap_elements)
    )
    assert private == tuple(e for e in range(len(points)) if e not in overlap_elements[0])
    assert first_block == tuple(
        min(b for b, elems in enumerate(block_elements) if e in elems)
        for e in range(len(points))
    )
    columns = [harness._glued_column(point, 3, 5) for point in points]
    assert len(set(columns)) == len(columns) and {len(col) for col in columns} == {5}
    for b, elems in enumerate(block_elements):  # block b is PG(2, 2) in the window [2b, 2b + 3)
        assert sorted(columns[e][2 * b:2 * b + 3] for e in elems) == sorted(harness.pg_build(3, 2))
        assert all(not any(columns[e][:2 * b] + columns[e][2 * b + 3:]) for e in elems)
    builds.clear()
    with pytest.raises(ArgumentError):
        gen_glued(2, 2, 2, 2)
    assert builds == []


def test_glued_memo_grows_with_the_points_not_the_height():
    """A long shape cut down to one point keeps its points in the draw
    table as offsets and block-local coordinates, and expands only the
    kept point to the path's full height."""
    gen_glued(2, 1, 3, 0, seed=1)  # the field and the imports, outside the trace
    built = {}
    tracemalloc.start()
    try:
        rec = harness._glued(2, 1, 1500, 0, 1, 1499, built)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.matroid.n == 1 and len(rec.matroid.columns[0]) == 1500
    assert peak < 2 * 2 ** 20
    points = built[2, 1, 1500, 0][0]
    assert points == tuple((b, (1,)) for b in range(1500))


def test_glued_size_counts_the_kept_points_without_building_them():
    """The count the cap is checked against equals the number of points
    a draw keeps, on every shape of up to 3 blocks and 60 points over
    GF(2)-GF(5), with and without deletions (too many included)."""
    checked = 0
    for q in (2, 3, 4, 5):
        for block_rank in range(1, 5):
            for overlap_rank in range(block_rank):
                for blocks in range(1, 7):
                    vectors, _, _, private, _ = harness._build_glued_points(
                        q, block_rank, blocks, overlap_rank
                    )
                    if len(vectors) > 60:
                        continue
                    for dels in (0, 1, 3, len(private) - 1, len(private), 100):
                        kept = len(vectors) - min(dels, max(0, len(private) - 1))
                        assert harness._glued_size(q, block_rank, blocks, overlap_rank, dels) \
                            == kept, (q, block_rank, blocks, overlap_rank, dels)
                        checked += 1
    assert checked > 300


def test_gen_glued_refuses_an_oversized_shape_before_building_it(monkeypatch):
    """20,001 points of height 10,001: refused at once with the cap's
    message, with no geometry built and no shape kept in the draw table."""
    builds = []
    monkeypatch.setattr(harness, "pg_build", lambda *args: builds.append(args))
    built = {}
    for refuse in (lambda: gen_glued(2, 2, 10 ** 4, 1),
                   lambda: harness._glued(2, 2, 10 ** 4, 1, 0, 0, built)):
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match=r"^glued construction would have 20001 "
                                                r"elements; the cap is 24$"):
            refuse()
        assert time.perf_counter() - start < 0.05
    assert builds == [] and built == {}


def _draw_key(rec):
    """What fixes a draw's matroid: the columns, and for a glued draw
    its shape."""
    cons = rec.construction
    shape = tuple(cons.get(name) for name in ("block_rank", "blocks", "overlap_rank"))
    return cons["kind"], shape, rec.matroid.columns


def test_suite_builds_each_distinct_draw_once(monkeypatch):
    """Within one suite, equal draws share one matroid and one witness
    but keep records, ids and construction dicts of their own; there is
    one LinearMatroid build per distinct draw, dropped draws included."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    builds = []
    real_init = LinearMatroid.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        real_init(self, *args, **kwargs)

    draws = []
    for name in ("_random_linear", "_glued"):
        def recording(*args, _real=getattr(harness, name)):
            rec = _real(*args)
            draws.append(rec)
            return rec

        monkeypatch.setattr(harness, name, recording)
    monkeypatch.setattr(LinearMatroid, "__init__", counting_init)
    recs = main_theorem_suite(3, 3, 300, seed=0)
    assert len(builds) == len({_draw_key(rec) for rec in draws}) < len(draws)
    assert len({rec.id for rec in recs}) == len({id(rec) for rec in recs}) == 300
    first = {}
    shared = 0
    for rec in draws:
        seen = first.setdefault(_draw_key(rec), rec)
        assert rec.matroid is seen.matroid and rec.decomposition is seen.decomposition
        if seen is not rec:
            shared += 1
            assert rec.construction == seen.construction
            assert rec.construction is not seen.construction
            assert all(a is not b for a, b in zip(rec.construction.get("block_elements", ()),
                                                  seen.construction.get("block_elements", ())))
    assert shared > 50


def test_separate_calls_share_nothing(monkeypatch):
    monkeypatch.delenv("MZ_SEED", raising=False)
    a, b = main_theorem_suite(2, 2, 40, seed=4), main_theorem_suite(2, 2, 40, seed=4)
    assert [rec.matroid.columns for rec in a] == [rec.matroid.columns for rec in b]
    assert not {id(rec.matroid) for rec in a} & {id(rec.matroid) for rec in b}
    assert not {id(rec.decomposition) for rec in a} & {id(rec.decomposition) for rec in b}
    for make in (lambda: gen_random_linear(3, 3, 8, 7),
                 lambda: gen_glued(2, 3, 2, 1, seed=1, delete_count=2)):
        x, y = make(), make()
        assert x.matroid.columns == y.matroid.columns
        assert x.matroid is not y.matroid and x.decomposition is not y.decomposition
    specs = [resolve_instances(spec, 2, 2) for spec in ("glued:6:1", "glued:6:1")]
    assert not {id(rec.matroid) for rec in specs[0]} & {id(rec.matroid) for rec in specs[1]}


@pytest.mark.parametrize("make", [
    lambda: main_theorem_suite(2, 3, 200, seed=0),
    lambda: no_lines_suite(3, 2, 100, seed=7),
    lambda: resolve_instances("random:50:3", 3, 3),
    lambda: resolve_instances("glued:50:3", 2, 3),
], ids=["main", "nolines", "cli-random", "cli-glued"])
def test_generating_instances_asks_no_rank(monkeypatch, make):
    """Every witness width and r(M) is read off elimination passes: the
    rank oracle is asked nothing while instances are generated, and
    r(M) is kept for the verifier."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    asked = rank_queries(monkeypatch)
    recs = make()
    widths = [rec.witnessed_width for rec in recs]
    assert asked == []
    for rec, width in zip(recs, widths):
        m = rec.matroid
        assert m._full_rank == len(gf(rec.q).echelon(m._points()[2]))
        assert width <= m._full_rank


def _bound_suites():
    """(verify, instance, q, k) for both bound suites, at the
    criterion-05 shapes and one no-lines shape."""
    main = [(verify_main_theorem, rec, q, k) for q in (2, 3) for k in (2, 3)
            for rec in main_theorem_suite(q, k, 50, seed=10 * q + k)]
    return main + [(verify_no_lines_theorem, rec, 3, 2) for rec in no_lines_suite(3, 2, 50, seed=7)]


def _glued_slot_instances():
    """(verify, instance, q, k) for one instance per glued slot of the
    benchmark (support.glued_slots), k being the block rank or the
    witness width if that is larger."""
    out = []
    for q, block_rank, blocks, overlap, deleted in glued_slots():
        rec = gen_glued(q, block_rank, blocks, overlap, seed=0, delete_count=deleted)
        out.append((verify_no_lines_theorem, rec, q, max(block_rank, rec.witnessed_width)))
    return out


def _identity_battery():
    """(verify, instance) for the criterion-07 battery."""
    return [(verify_identities, rec) for part in criterion_07_instances() for rec in part]


@pytest.mark.parametrize("make", [_bound_suites, _glued_slot_instances, _identity_battery],
                         ids=["bound-suites", "glued-slots", "identities"])
def test_verification_asks_only_each_kept_full_rank(monkeypatch, make):
    """Generation asks the rank oracle nothing, and verification asks it
    for r(M) of each instance's matroid alone, which generation kept."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    asked = rank_queries(monkeypatch)
    items = make()
    assert asked == []
    kept = {rec.matroid for _, rec, *_ in items}
    assert all(m._full_rank is not None for m in kept)
    for verify, rec, *args in items:
        verify([rec], *args)
    assert asked and all(m in kept and mask == m.full_mask for m, mask in asked)


# -- suites -----------------------------------------------------------------------


def test_main_theorem_suite_contract():
    recs = main_theorem_suite(2, 2, 12, seed=3)
    assert len(recs) == 12
    assert [r.id for r in recs] == [f"main-q2k2-{i:04d}" for i in range(12)]
    for rec in recs:
        assert rec.q == 2
        assert rec.witnessed_width <= 2
        assert rec.matroid.n <= 18
    again = main_theorem_suite(2, 2, 12, seed=3)
    assert [r.matroid.columns for r in again] == [r.matroid.columns for r in recs]


def test_no_lines_suite_contract():
    recs = no_lines_suite(2, 2, 6, seed=1)
    assert len(recs) == 6
    assert all(r.matroid.n <= 13 for r in recs)
    assert all(r.witnessed_width <= 2 for r in recs)


# -- verdicts and serialization ------------------------------------------------------


def test_verify_main_theorem_battery():
    recs = main_theorem_suite(2, 2, 10, seed=1)
    reports = verify_main_theorem(recs, 2, 2)
    assert len(reports) == 10
    assert all_verdicts_true(reports)
    for rep, rec in zip(reports, recs):
        assert rep.theorem == "main"
        assert rep.bound == 2
        assert rep.instance_id == rec.id
        payload = json.loads(rep.to_json())
        assert payload["bound"] == ["2", "1"]
        assert payload["verdict"] is True
        if not payload["identically_zero"]:
            lo, hi = payload["largest_root"]
            assert int(lo[0]) >= 0 or int(hi[0]) >= 0


def _splits_over_z(chi) -> bool:
    """Whether every root of chi is an integer: as many integer roots,
    found by evaluation up to the Cauchy bound, as its squarefree part
    has roots."""
    bound = charpoly.cauchy_root_bound(chi)
    found = sum(chi.evaluate(c) == 0 for c in range(-bound, bound + 1))
    return found == charpoly.squarefree_part(chi).degree


def test_verify_main_theorem_builds_each_chain_and_width_once(monkeypatch, fresh_root_memo):
    """Every verdict and root bracket on one polynomial shares one root
    analysis (integer roots, squarefree part and the Sturm chain of the
    cofactor), across instances too: one integer-root split per distinct
    polynomial, and one chain per distinct polynomial that does not split
    over Z.  The witness width and r(M) computed while the suite was
    generated are not computed again: verification asks no rank but each
    kept r(M)."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    recs = main_theorem_suite(2, 3, 100, seed=1)
    charpolys = [charpoly_auto(rec.matroid) for rec in recs]
    distinct = {chi.coeffs for chi in charpolys if not chi.is_zero}
    assert 1 < len(distinct) < 100
    unsplit = sum(not _splits_over_z(IntPoly(c)) for c in distinct)
    calls = {"_integer_split": 0, "sturm_chain": 0, "node_width": 0, "_displays": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(charpoly, "_integer_split")
    counted(charpoly, "sturm_chain")
    counted(TreeDecomposition, "node_width")
    counted(TreeDecomposition, "_displays")
    kept = {rec.matroid for rec in recs}
    assert all(m._full_rank is not None for m in kept)
    asked = rank_queries(monkeypatch)
    reports = verify_main_theorem(recs, 2, 3)
    assert all_verdicts_true(reports)
    assert calls["_integer_split"] == len(distinct)
    assert calls["sturm_chain"] == unsplit < len(distinct)
    assert calls["node_width"] == calls["_displays"] == 0
    assert all(m in kept and mask == m.full_mask for m, mask in asked)


def test_verify_main_theorem_requires_witness():
    rec = InstanceRecord(id="w0", q=2, matroid=fano(), decomposition=None)
    with pytest.raises(WidthWitnessExceededError):
        verify_main_theorem([rec], 2, 2)
    rec = InstanceRecord(
        id="w1", q=2, matroid=fano(), decomposition=single_vertex_decomposition(fano())
    )
    with pytest.raises(WidthWitnessExceededError):
        verify_main_theorem([rec], 2, 2)  # witness width 3 > k


def test_verify_no_lines_theorem_battery():
    recs = main_theorem_suite(2, 2, 8, seed=2)  # binary, so no 4-point lines
    reports = verify_no_lines_theorem(recs, 2, 2)
    assert all_verdicts_true(reports)
    assert all(rep.bound == 3 for rep in reports)  # (2**2 - 1)/(2 - 1)
    assert all(rep.theorem == "no-lines" for rep in reports)


def test_verify_no_lines_rejects_long_lines():
    m = LinearMatroid(gf(3), [(1, 0), (0, 1), (1, 1), (1, 2)])  # U_{2,4}
    rec = InstanceRecord(
        id="line", q=2, matroid=m, decomposition=single_vertex_decomposition(m)
    )
    with pytest.raises(LineMinorPresentError):
        verify_no_lines_theorem([rec], 2, 2)


def test_reports_jsonl():
    recs = main_theorem_suite(2, 2, 3, seed=5)
    reports = verify_main_theorem(recs, 2, 2)
    text = reports_to_jsonl(reports)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert all(json.loads(ln)["theorem"] == "main" for ln in lines)


def test_all_verdicts_true_flags_failures():
    good = BoundReport("a", "main", 2, 2, 3, 2, 1, 2, True)
    bad = BoundReport("b", "main", 2, 2, 3, 2, 1, 2, False)
    check = IdentityCheck("c", "delete-contract", True)
    assert all_verdicts_true([good, check])
    assert not all_verdicts_true([good, bad, check])
    assert not all_verdicts_true([IdentityCheck("d", "x", False)])


# -- identities -------------------------------------------------------------------


def test_verify_identities_on_mixed_battery():
    recs = [
        gen_glued(2, 2, 2, 1, seed=0),
        gen_glued(3, 2, 2, 1, seed=1),
        gen_glued(2, 3, 2, 2, seed=2),
        gen_random_linear(2, 3, 7, 3),
        gen_random_linear(3, 2, 6, 4),
    ]
    checks = verify_identities(recs)
    assert all_verdicts_true(checks)
    by_kind = {}
    for c in checks:
        by_kind.setdefault(c.check, []).append(c)
    assert len(by_kind["delete-contract"]) == 5
    assert len(by_kind["glued-factorization"]) == 3
    assert len(by_kind["cocircuit-expansion"]) == 5
    assert len(by_kind["telescoping-extension"]) >= 4
    payload = json.loads(checks[0].to_json())
    assert payload["check"] == "delete-contract"
    assert payload["passed"] is True


def _checked_elements(m) -> int:
    """The elements at which the delete-contract check runs: neither a
    loop nor a coloop."""
    return m.full_mask & ~(m.loops_mask() | m.coloops_mask())


def _derived_minors_match_the_minor_oracle(m) -> int:
    """At every element e of m that is neither a loop nor a coloop, the
    rows that _delete_contract_rows derives from m's standard form are
    the points of m minus e and of m contract e in m's coordinates: the
    chi of cp_delete_contract and cp_mobius on the MinorMatroid, and for
    n <= 10 the MinorMatroid's rank on every subset.  Returns the number
    of elements checked."""
    field = m._points()[0]
    basis, coordinates = m._standard_form()
    rank = bin(basis).count("1")
    checked = 0
    for e in mask_bits(_checked_elements(m)):
        deleted, contracted = matroid._delete_contract_rows(field, coordinates, e)
        for rows, r, oracle in (
            (deleted, rank, minor(m, delete=[e])),
            (contracted, rank - 1, minor(m, contract=[e])),
        ):
            chi = charpoly._chi_from_rows(field, rows, r)
            assert chi == cp_delete_contract(oracle) == cp_mobius(oracle), (m, e)
            if m.n <= 10:
                subsets = range(1 << oracle.n)
                assert [len(field.echelon(rows[i] for i in mask_bits(a))) for a in subsets] == [
                    oracle.rank_mask(a) for a in subsets
                ], (m, e)
        checked += 1
    return checked


@given(minor_chains())
@settings(max_examples=150, deadline=None)
def test_derived_minors_match_the_minor_oracle(chain):
    """Over GF(2, 3, 4, 5, 7, 9), on roots with zero columns and
    repeated points and on minors of minors."""
    for m in chain:
        _derived_minors_match_the_minor_oracle(m)


def test_derived_minors_match_the_minor_oracle_on_the_identity_battery():
    glued, rand = criterion_07_instances()
    recs = glued + rand
    checked = sum(_derived_minors_match_the_minor_oracle(rec.matroid) for rec in recs)
    assert checked == sum(bin(_checked_elements(rec.matroid)).count("1") for rec in recs) > 500


def _poly_text(p: IntPoly) -> str:
    return "[" + ",".join(p.to_json()) + "]"


def test_delete_contract_check_reports_a_wrong_polynomial(monkeypatch):
    """With the recursion wrong only at rank r - 1, which only the
    contractions reach, the check fails at the first element it checks
    and names it and both polynomials; the other checks still pass."""
    rec = criterion_07_instances()[1][0]
    m = rec.matroid
    r = m.full_rank
    e = next(mask_bits(_checked_elements(m)))
    chi = cp_mobius(m)
    rhs = cp_mobius(m.delete([e])) - cp_mobius(m.contract([e])) - ONE
    real = charpoly._chi_from_rows

    def wrong(project, rows, rank):
        chi = real(project, rows, rank)
        return chi + ONE if rank == r - 1 else chi

    monkeypatch.setattr(harness, "_chi_from_rows", wrong)
    checks = verify_identities([rec])
    assert [c.check for c in checks if not c.passed] == ["delete-contract"]
    assert checks[0].detail == (
        f"element {e}: chi={_poly_text(chi)} but del-con gives {_poly_text(rhs)}"
    )


def test_delete_contract_check_runs_one_standard_form_and_builds_no_minor(monkeypatch):
    """On a criterion-07 instance the delete-contract check
    (_check_delete_contract, counted alone, not the other checks of
    verify_identities), handed the one _standard_form of the instance,
    builds no minor of it; it makes no other elimination pass, not even
    for a basis element it checks, whose deletion keeps the other rows
    in the same coordinates."""
    rec = criterion_07_instances()[1][0]
    m = rec.matroid
    basis = m._standard_form()[0]
    checked_basis = bin(basis & _checked_elements(m)).count("1")
    assert checked_basis
    forms, passes, minor_roots = [], [], []
    real_form, real_rows = Matroid._standard_form, matroid._standard_rows
    real_init = MinorMatroid.__init__

    def form(self):
        forms.append(self)
        return real_form(self)

    def rows(*args):
        passes.append(args)
        return real_rows(*args)

    def init(self, parent, *args, **kwargs):
        minor_roots.append(parent.root)
        real_init(self, parent, *args, **kwargs)

    monkeypatch.setattr(Matroid, "_standard_form", form)
    monkeypatch.setattr(matroid, "_standard_rows", rows)
    monkeypatch.setattr(MinorMatroid, "__init__", init)
    chi, detail = harness._check_delete_contract(m._points()[0], *m._standard_form())
    assert detail == "" and chi == cp_mobius(m)
    assert sum(1 for f in forms if f is m) == 1
    assert not any(root is m for root in minor_roots)
    # every _standard_form call makes one rows pass of its own
    assert len(forms) <= len(passes) <= len(forms) + checked_basis
    assert len(passes) == len(forms)


def _glued_pieces(m, cons):
    """The last block, the union of the earlier blocks and the last
    overlap of a glued construction, as masks."""
    blocks = cons["block_elements"]
    return (
        mask_of(blocks[-1]),
        mask_of(e for elems in blocks[:-1] for e in elems),
        mask_of(cons["overlap_elements"][-1]),
    )


def test_split_chi_matches_brylawski_on_the_identity_battery():
    """The row-level factorization equals brylawski_charpoly, with its
    lattice walk and 2**t agreement check, on the restrictions of every
    criterion-07 glued instance, and both equal chi of the instance."""
    glued, _ = criterion_07_instances()
    for rec in glued:
        m = rec.matroid
        last, prefix, common = _glued_pieces(m, rec.construction)
        via_split, detail = harness._split_chi(m, rec.construction)
        assert detail == ""
        oracle = brylawski_charpoly(m.restrict(last), m.restrict(prefix), m.restrict(common))
        assert via_split == oracle == cp_mobius(m)


@pytest.mark.parametrize(
    "mutate, detail",
    [
        (lambda ov, private: ov[:-1], "split failed: the overlap is not the 3 points of its span"),
        (lambda ov, private: ov[:1],
         "split failed: the spans of the pieces meet outside the span of the overlap"),
        (lambda ov, private: ov + [private], "split failed: the overlap is not in both pieces"),
    ],
    ids=["one-point-removed", "one-point-left", "private-point-added"],
)
def test_glued_check_reports_a_failed_split(mutate, detail):
    """Two GF(2) blocks of rank 3 sharing a line: with the overlap's
    points cut down or a point of the last block alone added to it, the
    split fails its precondition, and the check fails with the reason
    as its detail, not an exception; the other checks still pass."""
    rec = gen_glued(2, 3, 2, 2, seed=0)
    rec.construction = copy.deepcopy(rec.construction)
    blocks, overlaps = rec.construction["block_elements"], rec.construction["overlap_elements"]
    private = next(e for e in blocks[-1] if e not in blocks[0])
    overlaps[-1] = mutate(overlaps[-1], private)
    checks = verify_identities([rec])
    assert [(c.check, c.detail) for c in checks if not c.passed] == [("glued-factorization", detail)]


@pytest.mark.parametrize(
    "construction",
    [
        {"kind": "glued", "blocks": 2},
        {"kind": "glued", "blocks": 2, "block_elements": [[0, 1, 2], [2, 3, 99]],
         "overlap_elements": [[2]]},
        {"kind": "glued", "blocks": 2, "block_elements": [[0, 1, 2], [2, 3, 4]],
         "overlap_elements": [[-1]]},
        {"kind": "glued", "blocks": 2, "block_elements": [[0, 1, 2, 3, 4]],
         "overlap_elements": []},
    ],
    ids=["missing", "block-out-of-range", "overlap-out-of-range", "one-block"],
)
def test_glued_check_of_a_hand_built_record_without_usable_blocks(construction):
    """A record built in code, which no loader checked, whose blocks or
    overlaps are missing or name no elements of the matroid fails the
    glued check with a detail instead of raising."""
    rec = gen_glued(2, 2, 2, 1, seed=0)
    rec.construction = construction
    checks = verify_identities([rec])
    (glued,) = [c for c in checks if c.check == "glued-factorization"]
    assert not glued.passed
    assert glued.detail == (
        "split failed: the construction names no blocks and overlaps among the elements 0..4"
    )
    assert all(c.passed for c in checks if c is not glued)


@pytest.mark.parametrize(
    "construction, message",
    [
        ([1], "the construction is not a JSON object"),
        ({"kind": "glued", "blocks": "2"}, "the glued block count is not an integer"),
    ],
    ids=["not-a-dict", "blocks-not-an-int"],
)
def test_verify_identities_rejects_a_hand_built_construction(construction, message):
    """A record built in code, which no loader checked, whose
    construction is not a dict or whose glued block count is not an int
    raises ArgumentError naming the record, in load_instances' words."""
    rec = gen_glued(2, 2, 2, 1, seed=0)
    rec.construction = construction
    with pytest.raises(ArgumentError) as info:
        verify_identities([rec])
    assert str(info.value) == f"{rec.id}: {message}"


def test_glued_check_reports_an_inexact_division(monkeypatch):
    """With a wrong recursion chi(L) chi(P) is not divisible by chi(C):
    the glued check fails with the division's error as its detail
    instead of raising."""
    real = charpoly._chi_from_rows
    monkeypatch.setattr(harness, "_chi_from_rows", lambda *args: real(*args) + ONE)
    checks = verify_identities([gen_glued(2, 3, 2, 2, seed=0)])
    (glued,) = [c for c in checks if c.check == "glued-factorization"]
    assert not glued.passed
    assert glued.detail.startswith("split failed: ") and "remainder" in glued.detail

def test_identity_battery_walks_no_lattice_and_lists_one_neck(monkeypatch):
    """On criterion 07, verify_identities builds no minor, embedding or
    extension, calls neither brylawski_charpoly nor the lattice walk,
    and lists at most one neck per instance; its checks all pass."""
    calls = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Matroid, "_flat_lattice")
    counted(MinorMatroid, "__init__")
    counted(projgeom, "_neck")
    for name in ("embed", "extend", "brylawski_charpoly"):
        counted(projgeom, name)
        if hasattr(harness, name):  # a name the harness imported itself
            counted(harness, name)
    glued, rand = criterion_07_instances()
    checks = verify_identities(glued + rand)
    assert all_verdicts_true(checks)
    for name in ("_flat_lattice", "__init__", "embed", "extend", "brylawski_charpoly"):
        assert calls.get(name, 0) == 0, name
    assert calls.get("_neck", 0) <= len(glued) + len(rand)


def test_identity_battery_reads_one_standard_form_per_instance(monkeypatch):
    """On criterion 07, verify_identities calls _standard_form once per
    instance, on the instance itself, and builds no LinearMatroid or
    MinorMatroid: every check, the simplification's included, reads
    that one standard form; its checks all pass."""
    glued, rand = criterion_07_instances()
    recs = glued + rand
    forms, built = [], []
    real_form = Matroid._standard_form

    def form(self):
        forms.append(self)
        return real_form(self)

    def counted_init(cls):
        real_init = cls.__init__

        def init(self, *args, **kwargs):
            built.append(cls.__name__)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    monkeypatch.setattr(Matroid, "_standard_form", form)
    counted_init(LinearMatroid)
    counted_init(MinorMatroid)
    checks = verify_identities(recs)
    assert all_verdicts_true(checks)
    assert len(forms) == len(recs)
    assert all(m is rec.matroid for m, rec in zip(forms, recs))
    assert built == []


# -- counting bounds ----------------------------------------------------------------


def test_size_and_cocircuit_bounds_tight_cases():
    frec = InstanceRecord(
        id="plane", q=2, matroid=fano(),
        decomposition=single_vertex_decomposition(fano()),
    )
    reports = verify_size_and_cocircuit_bounds([frec], 2, 3)
    size = [r for r in reports if r.theorem == "size"]
    coc = [r for r in reports if r.theorem == "cocircuit"]
    assert len(size) == 1 and len(coc) == 1
    assert size[0].verdict and size[0].n == size[0].bound == 7     # tight
    assert coc[0].verdict and coc[0].cocircuit_size == coc[0].bound == 4  # tight

    m = LinearMatroid(gf(2), [(1, 0), (0, 1), (1, 1)])
    rec = InstanceRecord(
        id="tri", q=2, matroid=m, decomposition=single_vertex_decomposition(m)
    )
    reports = verify_size_and_cocircuit_bounds([rec], 2, 2)
    coc = [r for r in reports if r.theorem == "cocircuit"]
    assert coc[0].cocircuit_size == coc[0].bound == 2              # tight again


def test_size_bound_skips_rank_zero_and_mismatched_q():
    empty = InstanceRecord(id="empty", q=2, matroid=UniformMatroid(0, 0), decomposition=None)
    assert verify_size_and_cocircuit_bounds([empty], 2, 2) == []
    m = LinearMatroid(gf(3), [(1, 0), (0, 1)])
    rec = InstanceRecord(
        id="other", q=3, matroid=m, decomposition=single_vertex_decomposition(m)
    )
    reports = verify_size_and_cocircuit_bounds([rec], 2, 2)
    # the size bound still applies (no 4-line), the cocircuit bound needs q to match
    assert [r.theorem for r in reports] == ["size"]


@pytest.mark.parametrize(
    "verify", [verify_main_theorem, verify_no_lines_theorem, verify_size_and_cocircuit_bounds]
)
@pytest.mark.parametrize(
    "q, k", [(1, 2), (0, 2), (-3, 2), (2, 0), (3, -1), (2, 2.5), (2.5, 2), (2, 2.0), (2, 1.5), ("3", 2)]
)
def test_bound_suites_reject_bad_q_or_k_before_any_instance(verify, q, k):
    """q < 2, k < 1 and a q or k that is not an integer are refused by
    name before any instance is read, never rounded or compared as a
    float."""
    def untouched():
        raise AssertionError("an instance was read")
        yield

    if type(q) is not int:
        message = f"^the field order q must be an integer, got {re.escape(repr(q))}$"
    elif type(k) is not int:
        message = f"^the width bound k must be an integer, got {re.escape(repr(k))}$"
    else:
        message = "q >= 2" if q < 2 else "k >= 1"
    with pytest.raises(ArgumentError, match=message):
        verify(untouched(), q, k)


def _bounds_by_simplify(instances, q: int, k: int) -> list[BoundReport]:
    """verify_size_and_cocircuit_bounds on a simplification built as a
    matroid: the loops deleted, then one element kept per parallel class
    (Matroid.simplify), and its smallest cocircuit found by
    find_small_cocircuit."""
    out = []
    for rec in instances:
        m = rec.matroid
        if not m.is_simple():
            m, _ = m.delete(m.loops_mask()).simplify()
        r = m.full_rank
        if r == 0:
            continue
        if not rec.matroid.has_line_minor(q + 2):
            bound = Fraction(q ** r - 1, q - 1)
            out.append(BoundReport(rec.id, "size", q, None, m.n, r, rec.witnessed_width,
                                   bound, m.n <= bound))
        if rec.decomposition is not None and rec.q == q:
            w = rec.decomposition.width()
            if w <= k:
                size = m.find_small_cocircuit().bit_count()
                bound = Fraction(q ** (k - 1))
                out.append(BoundReport(rec.id, "cocircuit", q, k, m.n, r, w, bound,
                                       size <= bound, cocircuit_size=size))
    return out


def _bound_record(name, m):
    return InstanceRecord(id=name, q=m._points()[0].q, matroid=m,
                          decomposition=single_vertex_decomposition(m))


def test_size_and_cocircuit_bounds_match_the_simplify_oracle_on_non_simple_matroids():
    """With loops and parallel elements (a graphic matroid with a loop
    edge and parallel edges, GF(3) and GF(4) matrices with zero and
    repeated columns), the reports read off the distinct rows of the
    standard form are those of the simplification built as a matroid,
    byte for byte, at every width bound up to the witness's."""
    for name, m in non_simple_matroids():
        rec = _bound_record(name, m)
        q = rec.q
        for k in range(1, rec.witnessed_width + 1):
            reports = verify_size_and_cocircuit_bounds([rec], q, k)
            assert reports_to_jsonl(reports) == reports_to_jsonl(_bounds_by_simplify([rec], q, k))
            assert [r.theorem for r in reports] == ["size"] + ["cocircuit"] * (
                k == rec.witnessed_width)
            assert reports[0].n == len(set(p for p in m._points()[2] if p)), name


@given(minor_chains())
@settings(max_examples=100, deadline=None)
def test_size_and_cocircuit_bounds_match_the_simplify_oracle_on_minor_chains(chain):
    """Over GF(2, 3, 4, 5, 7, 9), on roots with zero columns and
    repeated points and on minors of minors, whose contractions make
    loops and parallel elements."""
    for m in chain:
        rec = _bound_record("chain", m)
        k = max(1, rec.witnessed_width)
        assert reports_to_jsonl(verify_size_and_cocircuit_bounds([rec], rec.q, k)) == (
            reports_to_jsonl(_bounds_by_simplify([rec], rec.q, k)))


def test_size_bound_counts_simplification():
    m = LinearMatroid(gf(2), [(1, 0), (1, 0), (0, 1)])
    rec = InstanceRecord(id="par", q=2, matroid=m, decomposition=None)
    reports = verify_size_and_cocircuit_bounds([rec], 2, 2)
    assert [r.theorem for r in reports] == ["size"]
    assert reports[0].n == 2  # parallel pair collapsed before counting


# -- graphic cross-check ---------------------------------------------------------------


def test_chromatic_polynomial_values():
    assert chromatic_polynomial(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).coeffs \
        == (0, -6, 11, -6, 1)
    assert chromatic_polynomial(3, [(0, 1), (1, 2), (0, 2)]).coeffs == (0, 2, -3, 1)
    assert chromatic_polynomial(2, [(0, 0)]) == ZERO
    assert chromatic_polynomial(2, [(0, 1), (0, 1)]).coeffs == (0, -1, 1)
    assert chromatic_polynomial(3, []).coeffs == (0, 0, 0, 1)
    assert chromatic_polynomial(5, [(i, i + 1) for i in range(4)]).coeffs \
        == (0, 1, -4, 6, -4, 1)
    # a graph is checked as GraphicMatroid checks it, with no cap on its edges
    with pytest.raises(ArgumentError, match=r"^edge \(0, 3\) has an endpoint outside 0\.\.1$"):
        chromatic_polynomial(2, [(0, 3)])
    with pytest.raises(ArgumentError, match=r"^a graph needs a nonnegative vertex count, got -1$"):
        chromatic_polynomial(-1, [])
    with pytest.raises(ArgumentError, match=r"^a vertex count must be an integer, got 2\.5$"):
        chromatic_polynomial(2.5, [(0, 2)])
    path = [(i, i + 1) for i in range(matroid.MAX_GROUND + 1)]
    assert chromatic_polynomial(len(path) + 1, path) \
        == IntPoly((0, 1)) * charpoly.lam_minus_one_power(len(path))


def test_cross_check_graphic():
    k4 = cross_check_graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert k4.passed
    assert k4.components == 1
    assert k4.matroid_charpoly.coeffs == (-6, 11, -6, 1)
    tree = cross_check_graphic(5, [(i, i + 1) for i in range(4)])
    assert tree.passed
    loop = cross_check_graphic(2, [(0, 0), (0, 1)])
    assert loop.passed
    assert loop.chromatic == ZERO
    sparse = cross_check_graphic(4, [(0, 1)])
    assert sparse.passed
    assert sparse.components == 3
    bare = cross_check_graphic(2, [])
    assert bare.passed
    assert bare.chromatic.coeffs == (0, 0, 1)


# -- instance files and reproducibility ---------------------------------------------------


def test_save_load_reproduces_reports(tmp_path):
    recs = main_theorem_suite(2, 2, 6, seed=4)
    first = reports_to_jsonl(verify_main_theorem(recs, 2, 2))
    save_instances(tmp_path, recs)
    loaded = load_instances(tmp_path)
    assert [r.id for r in loaded] == [r.id for r in recs]
    for a, b in zip(loaded, recs):
        assert a.q == b.q
        assert a.seed == b.seed
        assert a.construction == b.construction
        assert a.matroid.n == b.matroid.n
    second = reports_to_jsonl(verify_main_theorem(loaded, 2, 2))
    assert second == first  # byte for byte



def _set(key, value, glued=False):
    def change(meta):
        (meta["construction"] if glued else meta)[key] = value
    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (_set("id", 3), "the instance id is not a string"),
        (_set("q", "two"), "q is 'two', not an integer >= 2"),
        (_set("q", 1), "q is 1, not an integer >= 2"),
        (_set("q", True), "q is True, not an integer >= 2"),
        (_set("construction", [1]), "the construction is not a JSON object"),
        (_set("blocks", "2", glued=True), "the glued block count is not an integer"),
        (_set("block_elements", [[0, 1, 2], [2, 3, 5]], glued=True),
         "block_elements is not a list of lists of element ids 0..4"),
        (_set("block_elements", None, glued=True),
         "block_elements is not a list of lists of element ids 0..4"),
        (_set("overlap_elements", [2], glued=True),
         "overlap_elements is not a list of lists of element ids 0..4"),
        (_set("overlap_elements", [[True]], glued=True),
         "overlap_elements is not a list of lists of element ids 0..4"),
    ],
)
def test_load_instances_rejects_malformed_metadata(tmp_path, change, message):
    """Metadata fields of the wrong type, or glued element lists that
    name no element of the matroid, raise ParseError naming the file."""
    save_instances(tmp_path, [gen_glued(2, 2, 2, 1, seed=0)])
    (path,) = tmp_path.glob("*.json")
    meta = json.loads(path.read_text())
    change(meta)
    path.write_text(json.dumps(meta))
    with pytest.raises(ParseError) as info:
        load_instances(tmp_path)
    assert str(info.value) == f"{path}: {message}"


def test_load_instances_keeps_absent_metadata_fields(tmp_path):
    """Absent fields take their defaults: the file stem, the matrix's
    field, no construction."""
    rec = gen_random_linear(3, 2, 5, 1)
    save_instances(tmp_path, [rec])
    (path,) = tmp_path.glob("*.json")
    path.write_text("{}")
    (loaded,) = load_instances(tmp_path)
    assert (loaded.id, loaded.q, loaded.construction) == (rec.id, 3, {})

def test_resolve_instances_forms(tmp_path):
    recs = main_theorem_suite(2, 2, 3, seed=9)
    save_instances(tmp_path, recs)
    from_dir = resolve_instances(str(tmp_path), 2, 2)
    assert [r.id for r in from_dir] == [r.id for r in recs]

    mixed = resolve_instances("mixed:4:9", 2, 2)
    assert [r.id for r in mixed] == [f"main-q2k2-{i:04d}" for i in range(4)]

    rand = resolve_instances("random:3:5", 2, 2)
    assert [r.id for r in rand] == [f"random-q2k2-{i:04d}" for i in range(3)]
    assert all(r.construction["kind"] == "random" for r in rand)

    glued = resolve_instances("glued:2:1", 2, 2)
    assert len(glued) == 2
    assert all(r.construction["kind"] == "glued" for r in glued)
    assert all(r.witnessed_width is not None for r in glued)


def test_resolve_instances_errors():
    for spec in (
        "bogus", "mixed:2", "mixed:2:3:4", "weird:2:3", "mixed:abc:0", "random:2:x",
        "mixed:-3:0", "glued:-1:0",
    ):
        with pytest.raises(ParseError) as info:
            resolve_instances(spec, 2, 2)
        assert isinstance(info.value, MatZeroError)
        assert isinstance(info.value, ValueError)
        assert repr(spec) in str(info.value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: resolve_instances("mixed:5:0", 2, 0), r"^the width bound needs k >= 1, got k=0$"),
        (lambda: resolve_instances("random:5:0", 2, 0), r"^the width bound needs k >= 1, got k=0$"),
        (lambda: resolve_instances("glued:5:0", 2, 0), r"^the width bound needs k >= 1, got k=0$"),
        (lambda: main_theorem_suite(2, 0, 5), r"^the width bound needs k >= 1, got k=0$"),
        (lambda: gen_random_linear(2, 0, 3, 0), r"^a random matrix needs rank r >= 1, got r=0$"),
        (lambda: gen_random_linear(2, 2, -1, 0), r"^a random matrix needs n >= 0 columns, got n=-1$"),
        (lambda: gen_random_linear(2, 2.5, 5, 0), r"^rank must be an integer, got 2\.5$"),
        (lambda: gen_random_linear(2, 2, 5.5, 0), r"^column count must be an integer, got 5\.5$"),
        (lambda: gen_glued(2, 2, 2.5, 1), r"^block count must be an integer, got 2\.5$"),
        (lambda: gen_glued(2, 2.5, 2, 1), r"^block rank must be an integer, got 2\.5$"),
        (lambda: gen_glued(2, 3, 2, 1.0), r"^overlap rank must be an integer, got 1\.0$"),
        (lambda: gen_glued(2, 2, 2, 1, delete_count=1.5), r"^delete count must be an integer, got 1\.5$"),
        (lambda: main_theorem_suite(2, 2, 1.5), r"^instance count must be an integer, got 1\.5$"),
        (lambda: no_lines_suite(2, 2, 2.5), r"^instance count must be an integer, got 2\.5$"),
        (lambda: main_theorem_suite(2, 2.0, 5), r"^the width bound k must be an integer, got 2\.0$"),
        (lambda: resolve_instances("random:5:0", 2, 2.5), r"^the width bound k must be an integer, got 2\.5$"),
    ],
    ids=["mixed-k0", "random-k0", "glued-k0", "suite-k0", "random-r0", "random-n-negative",
         "random-r-float", "random-n-float", "glued-blocks-float", "glued-rank-float",
         "glued-overlap-float", "glued-deletions-float", "main-suite-count-float",
         "nolines-suite-count-float", "suite-k-float", "resolve-k-float"],
)
def test_bad_sizes_raise_a_typed_error(call, message):
    """A size that admits no instance, or one that is not an integer,
    raises ArgumentError naming the argument, not a ValueError from
    randrange, a matrix of n < 0 or a count rounded up."""
    with pytest.raises(ArgumentError, match=message):
        call()


# -- the whole-instance charpoly memo of the bound suites ----------------------


def _counting_engine(monkeypatch):
    """Count the runs of the production engine that start from the
    harness, each on the rows of a standard form."""
    calls = []

    def counted(field, rows, rank):
        calls.append(rows)
        return projgeom._chi_by_splits(field, rows, rank)

    monkeypatch.setattr(harness, "_chi_by_splits", counted)
    return calls


def _entries(memo) -> list:
    """The distinct entries of the charpoly memo, each filed under one
    or two keys, in the order they were first filed."""
    return list({id(entry): entry for entry in memo.values()}.values())


def _point_set(m):
    """The projective points of m's columns, each scaled to 1 at its
    first nonzero entry and with its trailing zeros dropped, so that
    matrices that differ only by zero rows at the bottom share their
    points; written here apart from the harness's key."""
    field = m.field
    points = set()
    for col in m.columns:
        lead = next(x for x in col if x)
        points.add(_trimmed([field.mul[field.inv[lead]][x] for x in col]))
    return frozenset(points)


def _standard_form_set(m):
    """The points of m's standard form, written here apart from the
    harness's key: Gauss-Jordan elimination of m's matrix leaves the
    first basis in element order as unit columns and every other column
    as its coordinates in that basis; each column is then scaled and
    trimmed as in :func:`_point_set`.  The harness first scales each
    basis column to 1 at its first nonzero entry, so the two agree when
    those columns already lead with 1, as every column over GF(2) does."""
    field = m.field
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    rows = [list(row) for row in zip(*m.columns)]
    top = 0
    for j in range(m.n):
        pivot = next((i for i in range(top, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        scale = inv[rows[top][j]]
        rows[top] = [mul[scale][x] for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[j]:
                c = neg[row[j]]
                rows[i] = [add[x][mul[c][y]] for x, y in zip(row, rows[top])]
        top += 1
    return _point_set(LinearMatroid(field, [col[:top] for col in zip(*rows[:top])]))


def _trimmed(point):
    point = list(point)
    while not point[-1]:
        point.pop()
    return tuple(point)


@pytest.mark.parametrize(
    "suite, verify, q, k, count, seed",
    [
        (main_theorem_suite, verify_main_theorem, 2, 3, 80, 4),
        (main_theorem_suite, verify_main_theorem, 3, 2, 80, 6),
        (no_lines_suite, verify_no_lines_theorem, 2, 2, 60, 3),
    ],
)
def test_charpoly_memo_keeps_report_bytes(
    monkeypatch, fresh_root_memo, suite, verify, q, k, count, seed
):
    """A cold run, a warm run and a run that calls the engine and the
    root layer afresh on every instance write the same bytes."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    recs = suite(q, k, count, seed=seed)
    cold = reports_to_jsonl(verify(recs, q, k))
    assert harness._CHARPOLY_MEMO
    warm = reports_to_jsonl(verify(recs, q, k))
    monkeypatch.setattr(harness, "_shared_entry", lambda m: (charpoly_auto(m), {}))
    fresh_root_memo.clear()
    direct = reports_to_jsonl(verify(recs, q, k))
    assert cold == warm == direct


def _benchmark_workloads():
    """The benchmark's workload definitions (perfbench/workloads.py),
    read from the checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_split_engine_tests_the_leaf_before_any_split_work(monkeypatch, fresh_charpoly_memo):
    """The leaf test comes first, and it is the subspace table's: the
    engine on every key of the criterion-05 batch of rank below 3 or
    with a subspace table (GF.subspaces) puts no piece in a standard
    form and sweeps no neck (projgeom's _standard_rows and
    _path_neck_sizes), nor does charpoly_auto on any criterion-07
    instance; every glued-nolines chain of the benchmark at seed 0 is
    above the table cap and is split at least once, so the leaf
    (projgeom's _chi_from_rows) computes at least two pieces."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    work = {"_standard_rows": 0, "_path_neck_sizes": 0, "_chi_from_rows": 0}
    for name in work:
        def counted(*args, name=name, real=getattr(projgeom, name)):
            work[name] += 1
            return real(*args)
        monkeypatch.setattr(projgeom, name, counted)

    def idle() -> bool:
        done = not work["_standard_rows"] and not work["_path_neck_sizes"]
        work.update(dict.fromkeys(work, 0))
        return done

    glued, rand = criterion_07_instances()
    for rec in glued + rand:
        assert charpoly_auto(rec.matroid) == cp_delete_contract(rec.matroid)
        assert idle(), rec.id

    keys = []
    engine = projgeom._chi_by_splits

    def kept(field, rows, rank):
        keys.append((field, rows, rank))
        return engine(field, rows, rank)

    monkeypatch.setattr(harness, "_chi_by_splits", kept)
    for q in (2, 3):
        for k in (2, 3):
            assert all_verdicts_true(verify_main_theorem(main_theorem_suite(q, k, 500, seed=q * 10 + k), q, k))
    idle()
    leaves = 0
    for field, rows, rank in keys:
        chi = engine(field, rows, rank)
        if rank < 3 or field.subspaces(rank) is not None:
            assert idle()
            leaves += 1
        else:
            idle()
        assert chi == charpoly._chi_from_rows(field, rows, rank)
    assert 0.5 * len(keys) < leaves < len(keys)

    chains = 0
    for item in _benchmark_workloads().glued_nolines(matzero, 0, False):
        m = item.rec.matroid
        if m.full_rank > 2 and m.field.subspaces(m.full_rank) is None:
            chi = charpoly_auto(m)
            assert work["_chi_from_rows"] >= 2, item.id
            assert chi == cp_delete_contract(m)
            chains += 1
        idle()
    assert chains == 16


def test_root_layer_builds_a_sturm_chain_only_for_a_chi_that_does_not_split(
        monkeypatch, fresh_root_memo):
    """The integer roots of chi are read by synthetic division, and a
    Sturm chain is built only for a cofactor they leave.  One verify pass
    of the benchmark's glued-nolines chains at seed 0, whose chi all split
    over Z (Stanley, 1971), builds no chain and no bisection; the
    criterion-05 batch builds one chain per distinct chi that does not
    split, 8 of its 69, and no bisection, since every largest root there
    is an integer."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    built = {"sturm_chain": 0, "_bracket": 0}
    for name in built:
        def counted(*args, name=name, real=getattr(charpoly, name)):
            built[name] += 1
            return real(*args)
        monkeypatch.setattr(charpoly, name, counted)

    workloads = _benchmark_workloads()
    for item in workloads.glued_nolines(matzero, 0, False):
        assert all_verdicts_true(item.verify(matzero)), item.id
    assert len(fresh_root_memo) == 13
    assert built == {"sturm_chain": 0, "_bracket": 0}

    fresh_root_memo.clear()
    harness._CHARPOLY_MEMO.clear()
    for item in workloads.main_c05(matzero, 0, False):
        assert all_verdicts_true(item.verify(matzero)), item.id
    distinct = [IntPoly(c) for c in fresh_root_memo]
    assert len(distinct) == 69
    assert built == {"sturm_chain": sum(not _splits_over_z(chi) for chi in distinct), "_bracket": 0}
    assert built["sturm_chain"] == 8


def test_production_chi_runs_deletion_contraction_only_without_a_filled_neck(monkeypatch):
    """charpoly_auto runs deletion-contraction (charpoly._row_chi) on no
    instance of the criterion-05 batch and no glued-nolines chain of the
    benchmark at seed 0: every piece above the subspace-table cap there
    splits into components or along a filled neck.  On a chain of Fano
    planes glued along lines with a point deleted from every overlap,
    of rank at least 6 (no table) and with no filled neck, it runs on
    the whole matroid, and chi is the Mobius expansion's."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    ranks = []
    real = charpoly._row_chi

    def counted(project, rows, rank):
        ranks.append(rank)
        return real(project, rows, rank)

    monkeypatch.setattr(charpoly, "_row_chi", counted)
    for q in (2, 3):
        for k in (2, 3):
            for rec in main_theorem_suite(q, k, 500, seed=q * 10 + k):
                charpoly_auto(rec.matroid)
    for item in _benchmark_workloads().glued_nolines(matzero, 0, False):
        charpoly_auto(item.rec.matroid)
    assert ranks == []

    rec = gen_glued(2, 3, 4, 2)
    overlaps = rec.construction["overlap_elements"]
    victims = {ov[j % len(ov)] for j, ov in enumerate(overlaps)}
    m = LinearMatroid(rec.matroid.field, [c for e, c in enumerate(rec.matroid.columns) if e not in victims])
    assert m.full_rank >= 6 and m.field.subspaces(m.full_rank) is None
    chi = charpoly_auto(m)
    assert ranks[0] == m.full_rank
    assert chi == cp_mobius(m)


def test_charpoly_memo_runs_the_engine_once_per_standard_form(monkeypatch, fresh_charpoly_memo):
    """The engine runs for an instance only when neither its point set
    nor its standard form is in the table, so a suite runs it fewer
    times than it has point sets, and every chi is right."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    recs = main_theorem_suite(2, 3, 100, seed=1)
    seen = set()
    runs = []
    for rec in recs:
        points = _point_set(rec.matroid)
        if points in seen:
            continue
        form = _standard_form_set(rec.matroid)
        if form not in seen:
            runs.append(rec)
        seen |= {points, form}
    distinct = {_point_set(rec.matroid) for rec in recs}
    assert 1 < len(runs) < len(distinct) < 100
    calls = _counting_engine(monkeypatch)
    assert all_verdicts_true(verify_main_theorem(recs, 2, 3))
    assert calls == [rec.matroid._standard_form()[1] for rec in runs]
    assert len(_entries(fresh_charpoly_memo)) == len(runs)
    for rec in recs:
        assert harness._shared_entry(rec.matroid)[0] == cp_mobius(rec.matroid)
    assert len(calls) == len(runs)


def test_warm_bound_suites_call_neither_the_engine_nor_the_root_layer(
    monkeypatch, fresh_root_memo
):
    """A second pass over a suite reads every chi, verdict and bracket
    from the memo and writes the same bytes."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    runs = [
        (verify_main_theorem, main_theorem_suite(3, 2, 60, seed=5), 3, 2),
        (verify_no_lines_theorem, no_lines_suite(2, 2, 40, seed=5), 2, 2),
    ]
    cold = [reports_to_jsonl(verify(recs, q, k)) for verify, recs, q, k in runs]
    calls = {"engine": 0, "sturm_positive_beyond": 0, "largest_real_root": 0}

    def refused(name):
        def wrapper(*args):
            calls[name] += 1
            raise AssertionError(f"{name} called on a warm pass")
        return wrapper

    monkeypatch.setattr(harness, "_chi_by_splits", refused("engine"))
    monkeypatch.setattr(harness, "_chi_from_rows", refused("engine"))
    monkeypatch.setattr(harness, "sturm_positive_beyond", refused("sturm_positive_beyond"))
    monkeypatch.setattr(harness, "largest_real_root", refused("largest_real_root"))
    warm = [reports_to_jsonl(verify(recs, q, k)) for verify, recs, q, k in runs]
    assert warm == cold
    assert calls == {"engine": 0, "sturm_positive_beyond": 0, "largest_real_root": 0}


@pytest.mark.parametrize(
    "q, r, any_basis",
    [(2, 3, True), (2, 4, True), (3, 3, False), (4, 2, False), (5, 3, False), (3, 3, True), (5, 3, True)],
)
def test_charpoly_memo_shares_an_engine_run_across_a_change_of_basis(
    monkeypatch, fresh_charpoly_memo, q, r, any_basis
):
    """Matrices G·A for invertible G over GF(q) have other point sets,
    and the chi read back for each equals the Mobius oracle's.  The
    standard form writes every point in the first basis of points, each
    scaled to 1 at its first nonzero entry, so it is the same for all of
    them, and one engine run serves them all, when G keeps every
    point's leading entry: any G over GF(2), and a G that adds multiples
    of rows to later rows over any field.  Any other G may rescale the
    basis points and so the standard form."""
    F = gf(q)
    rng = random.Random(f"change-of-basis:{q}:{r}:{any_basis}")
    n = r + 4
    while True:
        cols = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(n)]
        if all(any(col) for col in cols) and len(F.echelon(F.pack(c) for c in cols)) == r:
            break
    base = LinearMatroid(F, cols)
    variants = [base]
    while len(variants) < 6:
        if any_basis:
            g = [[rng.randrange(q) for _ in range(r)] for _ in range(r)]
        else:
            g = [[rng.randrange(q) if j < i else int(i == j) for j in range(r)] for i in range(r)]
        if len(F.echelon(F.pack(row) for row in g)) < r:
            continue
        image = []
        for col in cols:
            out = []
            for row in g:
                acc = 0
                for a, x in zip(row, col):
                    acc = F.add[acc][F.mul[a][x]]
                out.append(acc)
            image.append(tuple(out))
        variants.append(LinearMatroid(F, image))
    assert len({_point_set(m) for m in variants}) > 1
    assert len({_standard_form_set(m) for m in variants}) == 1
    calls = _counting_engine(monkeypatch)
    expected = cp_mobius(base)
    for m in variants:
        assert harness._shared_entry(m)[0] == expected
    if q == 2 or not any_basis:
        assert len(calls) == 1
        assert len(_entries(fresh_charpoly_memo)) == 1
    assert len(_entries(fresh_charpoly_memo)) == len(calls)


def test_charpoly_memo_keeps_an_answer_per_bound(monkeypatch, fresh_root_memo):
    """One point set verified at the main bound and the no-lines bound
    keeps both answers in its one entry, each the root layer's own."""
    m = LinearMatroid(gf(2), [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)])
    rec = InstanceRecord("two-bounds", 2, m, single_vertex_decomposition(m))
    main = verify_main_theorem([rec], 2, 3)[0]
    nolines = verify_no_lines_theorem([rec], 2, 3)[0]
    (chi, answers), = _entries(harness._CHARPOLY_MEMO)
    assert answers == {
        (4, 1): (charpoly.sturm_positive_beyond(chi, 4), charpoly.largest_real_root(chi, harness.ROOT_TOL)),
        (7, 1): (charpoly.sturm_positive_beyond(chi, 7), charpoly.largest_real_root(chi, harness.ROOT_TOL)),
    }
    assert (main.bound, main.verdict, main.largest_root) == (4, *answers[4, 1])
    assert (nolines.bound, nolines.verdict, nolines.largest_root) == (7, *answers[7, 1])


def test_charpoly_memo_keys_the_point_set(monkeypatch, fresh_charpoly_memo):
    """Permuted, rescaled and repeated columns share one entry, and so
    do columns with zero rows appended."""
    F = gf(3)
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 1), (0, 1, 1)]
    variants = [
        cols,
        cols[::-1],
        [tuple(F.mul[2][x] for x in c) for c in cols],
        cols + [cols[2], tuple(F.mul[2][x] for x in cols[3])],
        [cols[i] for i in (3, 0, 4, 1, 2, 0)],
        [c + (0, 0) for c in cols],
    ]
    expected = charpoly_auto(LinearMatroid(F, cols))
    calls = _counting_engine(monkeypatch)
    for v in variants:
        assert harness._shared_entry(LinearMatroid(F, v))[0] == expected
    assert len(calls) == 1
    assert len(_entries(fresh_charpoly_memo)) == 1


def test_charpoly_memo_never_aliases_fields(fresh_charpoly_memo):
    """Equal integer columns over different fields, or over GF(8) under
    two moduli, are different matroids and keep their own entries."""
    fano_cols = fano().columns
    gf8_cols = [(2, 1, 4), (1, 7, 7), (7, 6, 3), (1, 7, 0), (6, 6, 0), (7, 4, 3)]
    other8 = ff_build(2, 3, (1, 0, 1, 1))  # x^3 + x^2 + 1
    assert other8 != gf(8)
    pairs = [
        (LinearMatroid(gf(2), fano_cols), LinearMatroid(gf(4), fano_cols)),
        (LinearMatroid(gf(2), fano_cols), LinearMatroid(gf(3), fano_cols)),
        (LinearMatroid(gf(8), gf8_cols), LinearMatroid(other8, gf8_cols)),
    ]
    for a, b in pairs:
        fresh_charpoly_memo.clear()
        for m in (a, b, a, b):
            assert harness._shared_entry(m)[0] == charpoly_auto(m)
        assert len(_entries(fresh_charpoly_memo)) == 2
    # the last two pairs are different matroids, not just different keys
    assert charpoly_auto(pairs[1][0]) != charpoly_auto(pairs[1][1])
    assert charpoly_auto(pairs[2][0]) != charpoly_auto(pairs[2][1])


def test_charpoly_memo_bypasses_loops_and_keeps_graphic_and_uniform_roots(
    monkeypatch, fresh_charpoly_memo
):
    """A matroid with a loop is computed every time and kept nowhere,
    verdicts included; a loopless graphic or uniform root, or a minor
    of one, is keyed by its matrix's points and computed once."""
    looped = LinearMatroid(gf(2), [(1, 0), (0, 0), (1, 1)])
    loops = [
        looped,
        MinorMatroid(looped, (0, 1, 2), 0),
        GraphicMatroid(3, [(0, 1), (1, 1)]),
    ]
    graphic = k4_graphic()
    kept = [graphic, MinorMatroid(graphic, (0, 1, 2, 3), 1 << 5), UniformMatroid(2, 4)]
    matroids = loops + kept
    expected = [charpoly_auto(m) for m in matroids]
    assert expected[:3] == [ZERO] * 3
    calls = _counting_engine(monkeypatch)
    for _ in range(2):
        assert [harness._shared_entry(m)[0] for m in matroids] == expected
    assert len(_entries(fresh_charpoly_memo)) == len(kept)
    assert len(calls) == 2 * len(loops) + len(kept)
    recs = [InstanceRecord(f"loop{i}", 2, m, single_vertex_decomposition(m)) for i, m in enumerate(loops)]
    fresh_charpoly_memo.clear()
    reports = verify_main_theorem(recs, 2, 2)
    assert all(rep.identically_zero and rep.verdict and rep.largest_root is None for rep in reports)
    assert not fresh_charpoly_memo
    assert len(calls) == 3 * len(loops) + len(kept)


def test_charpoly_memo_keeps_a_loopless_minor_of_a_matrix(fresh_charpoly_memo):
    m = fano()
    minor = m.contract([0])
    assert isinstance(minor, MinorMatroid)
    chi = harness._shared_entry(minor)[0]
    # element 0 is (0, 0, 1): contracting it drops the last coordinate
    surgery = LinearMatroid(gf(2), [col[:2] for col in m.columns[1:]])
    assert chi == charpoly_auto(minor) == charpoly_auto(surgery)
    assert len(_entries(fresh_charpoly_memo)) == 1


def test_charpoly_memo_is_bounded(monkeypatch, fresh_charpoly_memo):
    """The table holds at most the cap of keys, dropping its oldest:
    the newest matroid is read back with no engine run, the oldest is
    computed again."""
    monkeypatch.setattr(harness, "MAX_CHARPOLY_MEMO", 3)
    F = gf(5)
    points = [(1, a, b) for a in range(5) for b in range(5)]
    matroids = [LinearMatroid(F, points[:n]) for n in range(1, 11)]
    for m in matroids:
        harness._shared_entry(m)
        assert len(fresh_charpoly_memo) <= 3
    assert len(fresh_charpoly_memo) == 3
    newest, oldest = charpoly_auto(matroids[-1]), charpoly_auto(matroids[0])
    calls = _counting_engine(monkeypatch)
    assert harness._shared_entry(matroids[-1])[0] == newest
    assert calls == []
    assert harness._shared_entry(matroids[0])[0] == oldest
    assert calls == [matroids[0]._standard_form()[1]]
    assert len(fresh_charpoly_memo) == 3


def test_charpoly_memo_shared_by_threads(monkeypatch, fresh_charpoly_memo):
    """Threads that fill and evict a tiny shared table at a short switch
    interval all get right answers, and the cap holds."""
    monkeypatch.setattr(harness, "MAX_CHARPOLY_MEMO", 4)
    F = gf(3)
    points = [(1, a, b) for a in range(3) for b in range(3)]
    matroids = [LinearMatroid(F, points[: n + 1]) for n in range(9)]
    expected = [charpoly_auto(m) for m in matroids]
    errors = []

    def work(offset):
        try:
            for i in range(200):
                j = (i + offset) % len(matroids)
                assert harness._shared_entry(matroids[j])[0] == expected[j]
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
    assert len(fresh_charpoly_memo) <= 4


def test_identity_checks_never_touch_the_charpoly_memo(monkeypatch, fresh_charpoly_memo, tmp_path, capsys):
    """verify_identities and the CLI's closed-form check recompute chi:
    they neither read nor fill the bound suites' table."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    recs = main_theorem_suite(2, 2, 6, seed=2) + [gen_glued(2, 2, 2, 1, seed=0)]
    assert all_verdicts_true(verify_main_theorem(recs[:6], 2, 2))
    before = dict(fresh_charpoly_memo)
    for key in before:  # a read of the table would return this
        fresh_charpoly_memo[key] = IntPoly([7]), {}
    assert all_verdicts_true(verify_identities(recs))
    assert cli_main(["generate", "uniform", "--rank", "2", "--n", "5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert list(fresh_charpoly_memo) == list(before)
    assert all(entry == (IntPoly([7]), {}) for entry in fresh_charpoly_memo.values())
