"""Tree decompositions: width evaluation, reduction, the exact
tree-width search, heuristics, and the decomposition file format."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matzero.errors import ArgumentError, MatZeroError, NotInTreeError, ParseError, TooLargeError
from matzero import treedecomp
from matzero.gfq import GF, gf
from matzero.harness import gen_glued, main_theorem_suite
from matzero.instances import fano, k4_graphic, uniform_line_path, wide_uniform_decomposition
from matzero.matroid import GraphicMatroid, LinearMatroid, Matroid, UniformMatroid
from matzero.treedecomp import (
    Tree,
    TreeDecomposition,
    best_heuristic,
    exact_treewidth_small,
    format_decomposition,
    heuristic_decomposition,
    load_decomposition,
    parse_decomposition_text,
    reduce,
    save_decomposition,
    single_vertex_decomposition,
)
from matzero.treedecomp import _greedy_order
from support import rank_queries

# -- trees -------------------------------------------------------------------


def test_tree_validation():
    with pytest.raises(ValueError):
        Tree(0, ())
    with pytest.raises(ValueError):
        Tree(3, [(0, 1)])             # too few edges
    with pytest.raises(ValueError):
        Tree(2, [(0, 0)])             # self loop
    with pytest.raises(ValueError):
        Tree(2, [(0, 5)])             # out of range
    with pytest.raises(ValueError):
        Tree(4, [(0, 1), (1, 0), (2, 3)])  # right count, disconnected


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Tree(0, ()), r"^a tree needs at least one vertex$"),
        (lambda: Tree(3, [(0, 1)]), r"^a tree on l vertices has exactly l - 1 edges$"),
        (lambda: Tree(2, [(0, 5)]), r"^bad edge \(0, 5\)$"),
        (lambda: Tree(4, [(0, 1), (1, 0), (2, 3)]), r"^edge list does not form a connected tree$"),
        (lambda: TreeDecomposition(fano(), Tree(1, ()), [0] * 6),
         r"^assignment length must equal the ground set size$"),
        (lambda: heuristic_decomposition(fano(), "spiral"), r"^unknown strategy 'spiral'$"),
    ],
    ids=["vertices", "edge-count", "edge", "connected", "assignment", "strategy"],
)
def test_bad_arguments_raise_a_typed_error(call, message):
    """Each bad-input path raises ArgumentError, a MatZeroError that is
    still a ValueError, with its message unchanged."""
    with pytest.raises(ArgumentError, match=message) as info:
        call()
    assert isinstance(info.value, MatZeroError) and isinstance(info.value, ValueError)


def test_tree_queries():
    t = Tree(4, [(0, 1), (1, 2), (1, 3)])
    assert t.degree(1) == 3
    assert t.leaves() == [0, 2, 3]
    assert t.has_edge(2, 1) and not t.has_edge(0, 2)
    assert t.components_without_vertex(1) == [(0,), (2,), (3,)]
    assert t.components_without_vertex(0) == [(1, 2, 3)]
    assert t.edge_sides(1, 0) == ((1, 2, 3), (0,))
    assert t.edge_sides(0, 1) == ((0,), (1, 2, 3))
    with pytest.raises(NotInTreeError):
        t.edge_sides(0, 2)
    with pytest.raises(NotInTreeError):
        t.components_without_vertex(9)


# -- decomposition evaluation --------------------------------------------------


def test_assignment_validation():
    m = UniformMatroid(2, 3)
    t = Tree(2, [(0, 1)])
    with pytest.raises(ValueError):
        TreeDecomposition(m, t, (0, 1))        # wrong length
    with pytest.raises(NotInTreeError):
        TreeDecomposition(m, t, (0, 1, 2))     # vertex 2 absent
    dec = TreeDecomposition(m, t, (0, 1, 0))
    with pytest.raises(NotInTreeError):
        dec.bag(7)


def test_bags_partition_ground_set():
    m, dec = wide_uniform_decomposition()
    bags = dec.bags()
    assert len(bags) == dec.tree.num_vertices
    total = 0
    for b in bags:
        assert total & b == 0
        total |= b
    assert total == m.full_mask
    assert [dec.bag(v) for v in range(dec.tree.num_vertices)] == bags


def test_displayed_sets_cover_everything_but_own_bag():
    m, dec = wide_uniform_decomposition()
    for v in range(dec.tree.num_vertices):
        ds = dec.displayed_sets_vertex(v)
        union = 0
        for d in ds:
            assert union & d == 0
            union |= d
        assert union == m.full_mask & ~dec.bag(v)


def test_single_vertex_decomposition():
    m = fano()
    dec = single_vertex_decomposition(m)
    assert dec.tree.num_vertices == 1
    assert dec.displayed_sets_vertex(0) == []
    assert dec.width() == m.full_rank == 3


def test_rank_defect_extremes():
    m, dec = wide_uniform_decomposition()
    assert dec.rank_defect(0) == 0
    assert dec.rank_defect(m.full_mask) == m.full_rank


def test_wide_uniform_decomposition_numbers():
    """A ten-vertex tree for a rank-11 uniform matroid on 16 elements
    whose hub displays four branches, one of positive rank defect."""
    m, dec = wide_uniform_decomposition()
    assert (m.full_rank, m.n) == (11, 16)
    assert dec.tree.num_vertices == 10
    report = dec.width_report()
    assert report.node_widths == [2, 4, 6, 10, 5, 2, 3, 2, 1, 1]
    assert report.width == 10
    hub = 3
    assert dec.tree.degree(hub) == 4
    assert [bin(d).count("1") for d in report.displayed[hub]] == [6, 5, 3, 1]
    assert report.rank_defects[hub] == [1, 0, 0, 0]
    assert dec.node_width(hub) == 10
    assert dec.width() == 10


def test_singleton_path_width_of_wide_matroid():
    m, _ = wide_uniform_decomposition()
    path = heuristic_decomposition(m, "path")
    assert path.tree.num_vertices == 16
    assert path.width() == 6


def test_line_path_width():
    m, dec = uniform_line_path(16)
    assert (m.full_rank, m.n) == (2, 16)
    assert dec.width() == 2


def test_bag_rank_bounds_node_width():
    """r(B_v) <= nw(v) everywhere, with equality at leaves."""
    cases = [wide_uniform_decomposition(), uniform_line_path(9)]
    m = fano()
    cases.append((m, best_heuristic(m)))
    for m, dec in cases:
        for v in range(dec.tree.num_vertices):
            br = m.rank_mask(dec.bag(v))
            nw = dec.node_width(v)
            assert br <= nw
            if dec.tree.degree(v) <= 1:
                assert br == nw


# -- reduction -----------------------------------------------------------------


def test_reduce_removes_empty_leaf():
    m = UniformMatroid(2, 3)
    dec = TreeDecomposition(m, Tree(2, [(0, 1)]), (0, 0, 0))
    out = reduce(dec)
    assert out.tree.num_vertices == 1
    assert out.width() == 2


def test_reduce_wide_decomposition():
    m, dec = wide_uniform_decomposition()
    out = reduce(dec)
    assert out.tree.num_vertices < dec.tree.num_vertices
    assert out.width() <= dec.width()
    assert out.tree.num_vertices == 2
    assert out.width() == 10
    assert not out.width_report().full_rank_side


def test_reduce_singleton_path():
    """End edges of a singleton path display a spanning side, so the
    path contracts; the width never increases."""
    m, _ = wide_uniform_decomposition()
    path = heuristic_decomposition(m, "path")
    out = reduce(path)
    assert out.tree.num_vertices < 16
    assert out.width() <= 6
    assert not out.width_report().full_rank_side
    again = reduce(out)
    assert again.tree.num_vertices == out.tree.num_vertices
    assert again.assignment == out.assignment


def test_reduce_preserves_matroid_and_partition():
    m, dec = wide_uniform_decomposition()
    out = reduce(dec)
    assert out.matroid is m
    total = 0
    for b in out.bags():
        assert total & b == 0
        total |= b
    assert total == m.full_mask


# -- exact tree-width ------------------------------------------------------------


def test_exact_treewidth_known_values():
    cases = [
        (UniformMatroid(2, 5), 2),
        (UniformMatroid(3, 6), 3),
        (UniformMatroid(3, 7), 3),
        (UniformMatroid(4, 7), 4),
        (fano(), 3),
        (k4_graphic(), 3),
        (UniformMatroid(1, 1), 1),
        (UniformMatroid(2, 2), 1),
        (UniformMatroid(0, 2), 0),
        (UniformMatroid(0, 0), 0),
    ]
    for m, expected in cases:
        res = exact_treewidth_small(m)
        assert res.width == expected, repr(m)
        assert res.decomposition.width() == expected, repr(m)
        assert res.decomposition.tree.num_vertices == res.num_vertices


def test_exact_treewidth_witness_counts():
    # single full bag is optimal for these
    assert exact_treewidth_small(fano()).num_vertices == 1
    assert exact_treewidth_small(UniformMatroid(2, 5)).num_vertices == 1
    # four coloops at width 1 force one bag per coloop
    free = exact_treewidth_small(UniformMatroid(4, 4))
    assert (free.width, free.num_vertices) == (1, 4)
    pair = exact_treewidth_small(UniformMatroid(2, 2))
    assert (pair.width, pair.num_vertices) == (1, 2)


def test_exact_treewidth_size_cap():
    with pytest.raises(TooLargeError):
        exact_treewidth_small(UniformMatroid(2, 11))


def _prufer_tree(num, seq):
    degree = [1] * num
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq
    leaves = [v for v in range(num) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)[:2]
    edges.append((u, w))
    return Tree(num, edges)


def _all_trees(num):
    if num == 1:
        yield Tree(1, ())
    elif num == 2:
        yield Tree(2, [(0, 1)])
    else:
        for seq in product(range(num), repeat=num - 2):
            yield _prufer_tree(num, seq)


def _brute_treewidth(m, extra=1):
    """Reference: minimum width over every tree with up to n + extra
    vertices and every assignment."""
    ranks = m.ranks_table()
    full = m.full_mask
    r = ranks[full]
    best = r  # single bag
    for num in range(1, m.n + extra + 1):
        for tree in _all_trees(num):
            comps = [tree.components_without_vertex(v) for v in range(num)]
            for assignment in product(range(num), repeat=m.n):
                bags = [0] * num
                for e, v in enumerate(assignment):
                    bags[v] |= 1 << e
                width = 0
                for v in range(num):
                    defect = 0
                    for comp in comps[v]:
                        d = 0
                        for x in comp:
                            d |= bags[x]
                        defect += r - ranks[full & ~d]
                    width = max(width, r - defect)
                    if width >= best:
                        break
                best = min(best, width)
    return best


def test_exact_treewidth_against_brute_force():
    rng = random.Random(17)
    battery = [
        UniformMatroid(2, 4),
        UniformMatroid(4, 4),
        UniformMatroid(1, 3),
        UniformMatroid(0, 2),
        k4_graphic().restrict([0, 1, 2, 3]),
    ]
    F = gf(2)
    battery.append(LinearMatroid(F, [tuple(rng.randrange(2) for _ in range(3)) for _ in range(4)]))
    for m in battery:
        assert exact_treewidth_small(m).width == _brute_treewidth(m), repr(m)


def test_exact_treewidth_witness_validity_random():
    rng = random.Random(41)
    for _ in range(12):
        q = rng.choice([2, 3])
        n = rng.randint(1, 6)
        cols = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(n)]
        m = LinearMatroid(gf(q), cols)
        res = exact_treewidth_small(m)
        assert res.decomposition.width() == res.width
        assert res.decomposition.tree.num_vertices == res.num_vertices


# -- heuristics ------------------------------------------------------------------


def test_heuristics():
    m = fano()
    assert heuristic_decomposition(m, "single").width() == 3
    path = heuristic_decomposition(m, "path")
    assert path.tree.num_vertices == 7
    greedy = heuristic_decomposition(m, "greedy")
    assert greedy.width() <= 3
    best = best_heuristic(m)
    assert best.width() <= min(path.width(), greedy.width(), 3)
    with pytest.raises(ValueError):
        heuristic_decomposition(m, "mystery")


def test_heuristics_on_empty_matroid():
    m = UniformMatroid(0, 0)
    assert heuristic_decomposition(m, "path").tree.num_vertices == 1
    assert best_heuristic(m).width() == 0


# -- reference oracles ------------------------------------------------------------
#
# Width evaluation walks the tree once from a root and asks one rank per
# oriented edge, and the path heuristics read prefix and suffix ranks off
# eliminations.  The oracles below are the definitions those replaced:
# the displayed sets of each vertex found by walking every component of
# T - v, and the greedy order found by asking the rank of the prefix
# plus each remaining element.  They read no matrix.


def _walk_displayed_sets(dec, v):
    bags = dec.bags()
    out = []
    for comp in dec.tree.components_without_vertex(v):
        mask = 0
        for x in comp:
            mask |= bags[x]
        out.append(mask)
    return out


def _walk_width_report(dec):
    """(node widths, displayed sets, rank defects, some edge side
    spans) by the per-vertex walk."""
    m = dec.matroid
    r = m.full_rank
    displayed = [_walk_displayed_sets(dec, v) for v in range(dec.tree.num_vertices)]
    defects = [[r - m.rank_mask(m.full_mask & ~b) for b in ds] for ds in displayed]
    widths = [r - sum(rds) for rds in defects]
    spans = any(
        m.rank_mask(side) == r for edge in dec.tree.edges for side in dec.displayed_sets_edge(edge)
    )
    return widths, displayed, defects, spans


def _rank_greedy_order(m: Matroid) -> list[int]:
    order = []
    mask = 0
    remaining = set(range(m.n))
    while remaining:
        best = None
        for e in sorted(remaining):
            key = (m.rank_mask(mask | (1 << e)), e)
            if best is None or key < best:
                best = key
                pick = e
        order.append(pick)
        mask |= 1 << pick
        remaining.discard(pick)
    return order


def _walk_path(m, order):
    n = m.n
    tree = Tree(n, [(i, i + 1) for i in range(n - 1)]) if n > 1 else Tree(1, ())
    assignment = [0] * n
    for pos, e in enumerate(order):
        assignment[e] = pos
    return TreeDecomposition(m, tree, assignment)


def _three_candidate_best(m):
    """best_heuristic as the minimum over the three built candidates,
    each scored by the walk: (tree edges, assignment, width)."""
    cands = [
        _walk_path(m, _rank_greedy_order(m)),
        _walk_path(m, list(range(m.n))),
        single_vertex_decomposition(m),
    ]
    scored = [(max(_walk_width_report(d)[0]), d.tree.num_vertices, d) for d in cands]
    width, _, dec = min(scored, key=lambda c: c[:2])
    return dec.tree.edges, dec.assignment, width


def _random_root(rng):
    kind = rng.choice(["linear", "graphic", "uniform"])
    if kind == "linear":
        q = rng.choice([2, 3, 4, 5])
        rows = rng.randint(0, 4)
        n = rng.randint(0, 9)
        cols = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(rows)]
                for _ in range(n)]
        return LinearMatroid(gf(q), cols, nrows=rows)
    if kind == "graphic":
        v = rng.randint(1, 5)
        return GraphicMatroid(v, [(rng.randrange(v), rng.randrange(v))
                                  for _ in range(rng.randint(0, 9))])
    n = rng.randint(0, 9)
    return UniformMatroid(rng.randint(0, n), n)


def _random_matroid(rng):
    """A random linear (GF(2)-GF(5), loops included), graphic (loops and
    parallel edges included) or uniform root, or a random minor of one."""
    m = _random_root(rng)
    if m.n and rng.random() < 0.4:
        roles = [rng.choice("kdc") for _ in range(m.n)]
        m = m.minor(delete=[e for e, x in enumerate(roles) if x == "d"],
                    contract=[e for e, x in enumerate(roles) if x == "c"])
    return m


def _random_decomposition(rng, m):
    size = rng.randint(1, 7)
    labels = list(range(size))
    rng.shuffle(labels)
    edges = [(labels[rng.randrange(v)], labels[v]) for v in range(1, size)]
    assignment = [rng.randrange(size) for _ in range(m.n)]
    return TreeDecomposition(m, Tree(size, edges), assignment)


def test_width_matches_the_walk_on_random_trees():
    """width(), node_width(v), width_report() and the displayed sets
    equal the per-vertex walk on random matroids (minors included),
    trees and assignments (empty bags included)."""
    rng = random.Random(1212)
    kinds = set()
    for _ in range(400):
        m = _random_matroid(rng)
        kinds.add(type(m).__name__)
        dec = _random_decomposition(rng, m)
        widths, displayed, defects, spans = _walk_width_report(dec)
        fresh = TreeDecomposition(m, dec.tree, dec.assignment)
        assert fresh.width() == max(widths)
        assert [dec.node_width(v) for v in range(dec.tree.num_vertices)] == widths
        assert [dec.displayed_sets_vertex(v) for v in range(dec.tree.num_vertices)] == displayed
        report = dec.width_report()
        assert (report.width, report.node_widths) == (max(widths), widths)
        assert (report.displayed, report.rank_defects) == (displayed, defects)
        assert report.full_rank_side == spans
        with pytest.raises(NotInTreeError):
            dec.node_width(dec.tree.num_vertices)
        with pytest.raises(NotInTreeError):
            dec.node_width(-1)
    assert kinds == {"LinearMatroid", "GraphicMatroid", "UniformMatroid", "MinorMatroid"}


def test_width_asks_one_rank_per_oriented_edge(monkeypatch):
    asked = rank_queries(monkeypatch)
    m, dec = wide_uniform_decomposition()
    dec = TreeDecomposition(m, dec.tree, dec.assignment)
    edges = len(dec.tree.edges)
    assert dec.width() == 10
    assert len([mask for _, mask in asked if mask != m.full_mask]) == 2 * edges
    assert len(asked) <= 2 * edges + 2
    asked.clear()
    assert dec.width() == 10 and asked == []  # kept


def test_greedy_order_matches_the_rank_queries():
    rng = random.Random(77)
    for _ in range(300):
        m = _random_matroid(rng)
        order, ranks = _greedy_order(m)
        assert order == _rank_greedy_order(m)
        assert ranks == [m.rank(order[: i + 1]) for i in range(m.n)]


def test_greedy_order_projects_once_per_basis_row_and_never_reduces(monkeypatch):
    """Each new basis row is projected out of the remaining points by
    one GF.project call, and GF.reduce is never called; the points are
    built before counting starts."""
    calls = []
    real_project, real_reduce = GF.project, GF.reduce

    def project(self, rows, prow):
        calls.append("project")
        return real_project(self, rows, prow)

    def reduce(self, basis, v):
        calls.append("reduce")
        return real_reduce(self, basis, v)

    rng = random.Random(78)
    matroids = [_random_matroid(rng) for _ in range(200)]
    for m in matroids:
        m._points()
    monkeypatch.setattr(GF, "project", project)
    monkeypatch.setattr(GF, "reduce", reduce)
    for m in matroids:
        calls.clear()
        ranks = _greedy_order(m)[1]
        assert calls == ["project"] * (ranks[-1] if ranks else 0)


def test_a_greedy_witness_runs_one_backward_pass_and_no_second_forward_one(monkeypatch):
    """heuristic_decomposition(m, "greedy") and best_heuristic score the
    greedy path from the prefix ranks that found the greedy order, so
    each calls _prefix_ranks once, on the reversed path."""
    passes = []
    real = treedecomp._prefix_ranks

    def counting(m, bags):
        passes.append(list(bags))
        return real(m, bags)

    monkeypatch.setattr(treedecomp, "_prefix_ranks", counting)
    rng = random.Random(79)
    seen = 0
    for _ in range(200):
        m = _random_matroid(rng)
        if not m.n:
            continue
        backward = [(e,) for e in reversed(_greedy_order(m)[0])]
        for witness in (lambda: heuristic_decomposition(m, "greedy"), lambda: best_heuristic(m)):
            passes.clear()
            witness()
            assert passes == [backward]
        seen += 1
    assert seen > 150


def test_greedy_path_is_never_wider_than_the_ground_path():
    """Why best_heuristic does not score the ground-order path: moving
    each element forward to where the prefix first spans it never
    widens the path.  Checked with the walk on random matroids."""
    rng = random.Random(31)
    differ = 0
    for _ in range(400):
        m = _random_matroid(rng)
        greedy = _rank_greedy_order(m)
        differ += greedy != list(range(m.n))
        if m.n:
            assert max(_walk_width_report(_walk_path(m, greedy))[0]) <= max(
                _walk_width_report(_walk_path(m, list(range(m.n))))[0]
            )
    assert differ > 50


def test_best_heuristic_matches_the_three_candidate_minimum_on_random_matroids(monkeypatch):
    """Same tree, assignment and width as the minimum over the three
    built and walked candidates, with no rank asked of the rank oracle:
    r(M) is kept, equal to a fresh elimination of the points, and the
    kept width is what a fresh walk finds."""
    rng = random.Random(4242)
    asked = rank_queries(monkeypatch)
    for _ in range(300):
        m = _random_matroid(rng)
        asked.clear()
        dec = best_heuristic(m)
        assert asked == []
        field, _, rows = m._points()
        assert m._full_rank == len(field.echelon(rows))
        width = dec.width()
        assert asked == []  # the scored width was kept
        assert (dec.tree.edges, dec.assignment, width) == _three_candidate_best(m)
        assert TreeDecomposition(m, dec.tree, dec.assignment).width() == dec.width()


@pytest.mark.parametrize("seed", [0, 9])
def test_best_heuristic_matches_the_three_candidate_minimum_on_the_main_suite(
    monkeypatch, seed
):
    """On main_theorem_suite(q, k, 100, seed) for q, k in {2, 3}: seed 0
    and a held-out seed.  A random instance carries best_heuristic's
    witness; a glued one its block path, whose kept width the walk
    also checks."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    for q in (2, 3):
        for k in (2, 3):
            for rec in main_theorem_suite(q, k, 100, seed=seed):
                m, dec = rec.matroid, rec.decomposition
                expected = _three_candidate_best(m)
                best = best_heuristic(m)
                assert (best.tree.edges, best.assignment, best.width()) == expected, rec.id
                if rec.construction["kind"] == "random":
                    assert (dec.tree.edges, dec.assignment, dec.width()) == expected, rec.id
                assert dec.width() == max(_walk_width_report(dec)[0]) <= k


def _fresh_walk_width(dec):
    """The width the rooted walk finds for the same tree and assignment
    on a decomposition that keeps no width."""
    return TreeDecomposition(dec.matroid, dec.tree, dec.assignment).width_report().width


@pytest.mark.parametrize("seed", [0, 9])
def test_block_path_width_matches_the_walk_on_the_main_suite(monkeypatch, seed):
    """Every glued record of main_theorem_suite(q, k, 500, seed) for q, k
    in {2, 3}, at seed 0 and a held-out seed: the width scored from the
    two elimination passes is the walk's."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    glued = 0
    for q in (2, 3):
        for k in (2, 3):
            for rec in main_theorem_suite(q, k, 500, seed=seed):
                if rec.construction["kind"] == "glued":
                    glued += 1
                    assert rec.decomposition.width() == _fresh_walk_width(rec.decomposition)
    assert glued > 500


def test_block_path_width_matches_the_walk_on_edge_shapes():
    """Empty bags (a block whose own points are all deleted, at the
    ends and in the middle), a single block, and overlap 0."""
    empty_inside = 0
    cases = [gen_glued(2, 1, 4, 0, seed=s, delete_count=3) for s in range(4)]
    cases += [gen_glued(q, 3, 1, 0, seed=s, delete_count=d)
              for q in (2, 3) for s in range(3) for d in (0, 4)]
    cases += [gen_glued(q, 2, blocks, 0, seed=s, delete_count=d)
              for q in (2, 3) for blocks in (2, 3, 4) for s in range(12) for d in (0, 3, 5)]
    cases += [gen_glued(2, 3, 3, 2, seed=s, delete_count=d) for s in range(12) for d in (2, 6)]
    for rec in cases:
        dec = rec.decomposition
        bags = dec.bags()
        empty_inside += any(bag == 0 for bag in bags[1:-1])
        assert len(bags) == rec.construction["blocks"]
        assert dec.width() == _fresh_walk_width(dec), rec.id
    assert empty_inside > 5
    single = gen_glued(3, 3, 1, 0, seed=1)
    assert single.decomposition.tree.num_vertices == 1
    assert single.decomposition.width() == 3


def test_path_trees_are_shared_per_length():
    """The ground-order path, the greedy path, a glued chain's block path
    and uniform_line_path build their trees through one helper, which
    keeps one tree per length."""
    m, line = uniform_line_path(5)
    assert heuristic_decomposition(m, "path").tree is line.tree
    assert heuristic_decomposition(m, "greedy").tree is line.tree
    assert gen_glued(2, 1, 5, 0, seed=0).decomposition.tree is line.tree
    assert line.tree.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert single_vertex_decomposition(m).tree is gen_glued(2, 3, 1, 0).decomposition.tree


# -- file format -------------------------------------------------------------------


def test_decomposition_round_trip(tmp_path):
    m, dec = wide_uniform_decomposition()
    text = format_decomposition(dec)
    back = parse_decomposition_text(text, m)
    assert back.assignment == dec.assignment
    assert back.tree.edges == dec.tree.edges
    assert format_decomposition(back) == text
    p = tmp_path / "wide.decomp"
    save_decomposition(dec, p)
    loaded = load_decomposition(p, m)
    assert loaded.assignment == dec.assignment


def test_decomposition_parse_single_vertex():
    m = UniformMatroid(1, 2)
    dec = parse_decomposition_text("tree 1\ntau\n0 0\n1 0\n", m)
    assert dec.tree.num_vertices == 1
    assert dec.width() == 1


def test_decomposition_parse_errors():
    m = UniformMatroid(1, 2)
    with pytest.raises(ValueError):
        parse_decomposition_text("", m)
    with pytest.raises(ValueError):
        parse_decomposition_text("tree 2\n0 1\n0 0\n1 1\n", m)  # no tau
    with pytest.raises(ValueError):
        parse_decomposition_text("tree 1\ntau\n0 0\n", m)  # element 1 missing


def test_decomposition_parse_ignores_comments():
    m = UniformMatroid(1, 2)
    text = "# witness\ntree 1\ntau\n0 0\n1 0\n"
    assert parse_decomposition_text(text, m).width() == 1


def test_decomposition_parse_comments_anywhere_on_a_line():
    m = UniformMatroid(1, 3)
    text = "tree 2  # two bags\n   # indented\n0 1  # the edge\ntau\n0 0\n  1 1  # trailing\n2 1\n"
    assert parse_decomposition_text(text, m).assignment == (0, 1, 1)


@pytest.mark.parametrize(
    "text, line",
    [
        ("", None),
        ("tree\n", 1),
        ("tree x\n", 1),
        ("tree 0\n", 1),
        ("tree 2\n0 1\n", None),  # no tau
        ("tree 3\n0 1\ntau\n0 0\n1 0\n", 3),  # short edge list
        ("tree 2\n0 5\ntau\n0 0\n1 1\n", 2),  # edge endpoint out of range
        ("tree 3\n0 1\n0 1\ntau\n0 0\n1 0\n", 1),  # not a tree
        ("tree 1\ntau\n0\n", 3),  # short assignment line
        ("tree 1\ntau\n0 0\n2 0\n", 4),  # element out of range
        ("tree 1\ntau\n0 0\n-1 0\n", 4),
        ("tree 1\ntau\n0 0\n1 3\n", 4),  # vertex out of range
        ("tree 1\ntau\n0 0\n0 0\n1 0\n", 4),  # element assigned twice
        ("tree 1\ntau\n0 0\n", None),  # element 1 missing
    ],
)
def test_decomposition_parse_errors_name_the_line(text, line):
    with pytest.raises(ParseError) as info:
        parse_decomposition_text(text, UniformMatroid(1, 2))
    assert info.value.line == line


@st.composite
def decompositions(draw):
    """A random tree (each vertex after the first hangs off an earlier
    one, then the labels are shuffled) and a random assignment."""
    size = draw(st.integers(1, 8))
    labels = draw(st.permutations(range(size)))
    edges = [(labels[draw(st.integers(0, v - 1))], labels[v]) for v in range(1, size)]
    n = draw(st.integers(0, 6))
    assignment = draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
    return TreeDecomposition(UniformMatroid(min(n, 2), n), Tree(size, edges), assignment)


@given(decompositions())
@settings(max_examples=150, deadline=None)
def test_decomposition_file_round_trip_fuzz(dec):
    back = parse_decomposition_text(format_decomposition(dec), dec.matroid)
    assert back.tree.num_vertices == dec.tree.num_vertices
    assert back.tree.edges == dec.tree.edges
    assert back.assignment == dec.assignment


_NATS = st.one_of(st.integers(0, 9), st.integers(0, 2**64))
_TOKENS = st.one_of(
    _NATS.map(str), st.integers(-(2**64), -1).map(str), st.sampled_from(["tree", "tau", "#", "x"])
)
_LINES = st.lists(st.lists(_TOKENS, max_size=3).map(" ".join), max_size=8).map("\n".join)
ARBITRARY_TEXT = st.one_of(
    st.text(max_size=80),
    _LINES,
    st.tuples(_NATS.map("tree {}".format), _LINES).map("\n".join),
)


@given(ARBITRARY_TEXT)
@settings(max_examples=300, deadline=1000)
def test_decomposition_parser_raises_only_package_errors(text):
    m = UniformMatroid(1, 3)
    try:
        dec = parse_decomposition_text(text, m)
    except MatZeroError:
        return
    assert len(dec.assignment) == m.n
