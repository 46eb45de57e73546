"""Projective points, embeddings, extensions, necks, modular-flat
factorization, and the telescoping expansion."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matzero import projgeom
from matzero.charpoly import (
    IntPoly,
    _chi_from_rows,
    cp_boolean_expansion,
    cp_delete_contract,
    cp_mobius,
    cp_pg_closed_form,
    lam_minus_one_power,
    poly_exact_div,
)
from matzero.errors import (
    ArgumentError,
    InexactDivisionError,
    MatZeroError,
    NeckNotFilledError,
    NotLinearError,
    NotModularError,
    NotSimpleError,
    PointCollisionError,
    TooLargeError,
)
from matzero.gfq import gf
from matzero.harness import gen_glued, gen_random_linear
from matzero.instances import fano
from matzero.matroid import LinearMatroid, UniformMatroid, mask_bits, mask_of, ranks_agree
from matzero.projgeom import (
    brylawski_charpoly,
    embed,
    extend,
    induced_decomposition,
    is_modular_flat,
    neck_of_edge,
    path_necks,
    pg_build,
    pg_point_count,
    split_along_neck,
    telescoping_expansion,
)
from matzero.treedecomp import Tree, TreeDecomposition, heuristic_decomposition

from support import criterion_07_instances, minor_chains

GLUED_TWO_PLANES_CP = (32, -64, 42, -11, 1)  # (x-1)(x-2)(x-4)^2


# -- the ambient scan, kept as the reference for neck_of_edge -----------------


def span_closure(field, r, points) -> tuple[int, ...]:
    """Every point of PG(r-1, q), as a packed row, inside the span of
    the given packed vectors, found by testing each point in turn."""
    basis = field.echelon(points)
    geometry = map(field.pack, pg_build(r, field.q))
    return tuple(sorted(p for p in geometry if not field.reduce(basis, p)))


def ambient_neck(base, dec, edge):
    """The neck of an edge as the points of the whole geometry that lie
    in the spans of both sides, and the part of it that is no element."""
    du, dw = dec.displayed_sets_edge(edge)
    field, packed = base.field, base.packed
    span_u = span_closure(field, base.nrows, [packed[e] for e in mask_bits(du)])
    span_w = span_closure(field, base.nrows, [packed[e] for e in mask_bits(dw)])
    neck = tuple(sorted(set(span_u) & set(span_w)))
    return neck, tuple(p for p in neck if p not in packed)


# -- the points -----------------------------------------------------------------


def test_pg_point_count():
    assert pg_point_count(3, 2) == 7
    assert pg_point_count(2, 4) == 5
    assert pg_point_count(1, 9) == 1
    assert pg_point_count(0, 3) == 0


def test_model_points_normalized_and_ordered():
    assert pg_build(2, 3) == ((0, 1), (1, 0), (1, 1), (1, 2))
    for r, q in ((1, 5), (3, 2), (3, 3), (2, 4), (4, 2), (2, 7)):
        led_by_one = tuple(
            vec for vec in product(range(q), repeat=r) if next((c for c in vec if c), None) == 1
        )
        assert pg_build(r, q) == led_by_one
        assert len(led_by_one) == pg_point_count(r, q)
        # every point, packed, is its own echelon row
        F = gf(q)
        assert all(F.normalize(F.pack(pt)) == F.pack(pt) for pt in led_by_one)
    F = gf(3)
    assert F.normalize(F.pack((0, 2))) == F.pack((0, 1))
    assert F.normalize(F.pack((2, 1))) == F.pack((1, 2))  # scale by inverse of 2
    assert F.normalize(F.pack((0, 0))) == 0  # the zero vector is no point
    with pytest.raises(ValueError):
        pg_build(0, 2)
    assert pg_build(3, gf(4)) == pg_build(3, 4)  # a field names its order
    with pytest.raises(ValueError):
        pg_build(2, 6)  # no field of order 6


def test_model_size_cap():
    with pytest.raises(TooLargeError):
        pg_build(7, 4)


def test_span_closure():
    F = gf(2)
    a, b = F.pack((1, 0, 0)), F.pack((0, 1, 0))
    assert span_closure(F, 3, [a, b]) == tuple(sorted((a, b, F.pack((1, 1, 0)))))
    assert span_closure(F, 3, []) == ()
    assert span_closure(F, 3, [a]) == (a,)
    assert len(span_closure(F, 3, [a, b, F.pack((0, 0, 1))])) == 7


def test_model_matroid_is_projective_geometry():
    m = LinearMatroid(gf(2), pg_build(3, 2))
    assert m.n == 7
    assert m.full_rank == 3
    assert ranks_agree(m, fano())


def test_pg_bipartition_property():
    """In a projective geometry, every subset or its complement spans."""
    m = fano()
    r = m.full_rank
    for s in range(1 << m.n):
        assert m.rank_mask(s) == r or m.rank_mask(m.full_mask & ~s) == r


# -- embeddings -----------------------------------------------------------------


def test_embed_fano_is_onto():
    F = gf(2)
    base = embed(fano())
    assert sorted(base.packed) == sorted(map(F.pack, pg_build(3, 2)))
    assert base.n == 7
    assert ranks_agree(base, fano())


def test_embed_line_with_missing_point():
    F = gf(3)
    base = embed(LinearMatroid(F, [(2, 0), (0, 1), (1, 1)], ("a", "b", "c")))
    assert base.nrows == 2
    assert base.columns == ((1, 0), (0, 1), (1, 1))  # each scaled to lead with 1
    assert base.labels == ("a", "b", "c")
    missing = [p for p in map(F.pack, pg_build(2, 3)) if p not in base.packed]
    assert missing == [F.pack((1, 2))]


def test_embed_row_reduces_tall_matrices():
    F = gf(2)
    m = LinearMatroid(F, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    base = embed(m)
    assert base.nrows == 2
    assert sorted(base.packed) == sorted(map(F.pack, pg_build(2, 2)))
    assert ranks_agree(base, m)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_embed_reads_tall_matrices_in_standard_form(q):
    """A random simple matrix with rows added that combine its others
    embeds at height r, its columns distinct echelon rows, with the
    input's rank function."""
    F, rng = gf(q), random.Random(q)
    done = 0
    while done < 10:
        r, n = rng.randint(1, 3), rng.randint(1, 6)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
        for _ in range(rng.randint(1, 2)):
            a, b, c = rng.choice(rows), rng.choice(rows), rng.randrange(q)
            rows.insert(rng.randint(0, len(rows)), [F.add[x][F.mul[c][y]] for x, y in zip(a, b)])
        m = LinearMatroid(F, list(zip(*rows)))
        if not m.is_simple():
            continue
        base = embed(m)
        assert m.nrows > m.full_rank == base.nrows
        assert len(set(base.packed)) == m.n
        assert all(F.normalize(v) == v for v in base.packed)
        assert ranks_agree(base, m)
        done += 1


def test_embed_rejects_bad_inputs():
    with pytest.raises(NotLinearError):
        embed(UniformMatroid(2, 3))
    with pytest.raises(NotLinearError):  # having a matrix changes nothing
        u = UniformMatroid(2, 4)
        u.matrix()
        embed(u)
    with pytest.raises(NotSimpleError):
        embed(LinearMatroid(gf(2), [(1, 0), (1, 0), (0, 1)]))
    with pytest.raises(NotSimpleError):
        embed(LinearMatroid(gf(2), [(0,), (1,)]))


# -- extensions ------------------------------------------------------------------


def test_extend_line_to_u24():
    F = gf(3)
    base = embed(LinearMatroid(F, [(1, 0), (0, 1), (1, 1)]))
    ext = extend(base, [F.pack((1, 2))])
    assert ext.base is base
    assert ext.base_count == 3
    assert ext.added_element_ids() == [3]
    assert ext.matroid.labels == (0, 1, 2, "s1")
    assert ranks_agree(ext.matroid, UniformMatroid(2, 4))
    assert cp_delete_contract(ext.matroid).coeffs == (3, -4, 1)


def test_extend_collisions():
    F = gf(3)
    base = embed(LinearMatroid(F, [(1, 0), (0, 1), (1, 1)]))
    with pytest.raises(PointCollisionError):
        extend(base, [F.pack((0, 1))])  # element 1
    with pytest.raises(PointCollisionError):
        extend(base, [F.pack((1, 2))] * 2)  # duplicate


_F3 = gf(3)


@pytest.mark.parametrize(
    "point",
    [99, -1, -3, 0, _F3.pack((2, 2)), _F3.pack((0, 0, 1)), "a", 1.0, True, None],
    ids=["bad-digit", "minus-one", "minus-three", "zero", "unscaled", "too-tall",
         "str", "float", "bool", "none"],
)
def test_extend_rejects_what_is_not_a_point(point):
    """A point is a nonzero echelon row of the base's height, packed in
    an int.  Over GF(3) a digit is 4 bits wide, so 99 holds the digit 3,
    which encodes no element."""
    base = embed(LinearMatroid(_F3, [(1, 0), (0, 1), (1, 1)]))
    with pytest.raises(ArgumentError, match="is not a point of PG"):
        extend(base, [point])


@pytest.mark.parametrize(
    "columns",
    [[(2, 0), (0, 1)], [(1, 0), (1, 0), (0, 1)], [(0, 0), (0, 1)]],
    ids=["unscaled", "parallel", "loop"],
)
def test_extend_and_neck_need_an_embedded_base(columns):
    """Collisions and external points are found by comparing rows, so a
    base whose columns are not distinct echelon rows is refused rather
    than given a parallel copy of an element."""
    base = LinearMatroid(_F3, columns)
    dec = TreeDecomposition(base, Tree(2, [(0, 1)]), [0] + [1] * (base.n - 1))
    with pytest.raises(ArgumentError, match="the base must be embedded"):
        extend(base, [_F3.pack((1, 0))])
    with pytest.raises(ArgumentError, match="the base must be embedded"):
        neck_of_edge(base, dec, (0, 1))


# -- necks along decomposition edges -----------------------------------------------


def glued_two_planes():
    """Two projective planes over GF(2) sharing a line: eleven points of
    rank four, block one on coordinates 0-2, block two on 1-3."""
    plane = pg_build(3, 2)
    cols = [p + (0,) for p in plane]
    cols += [(0,) + p for p in plane if p[2] == 1]
    base = embed(LinearMatroid(gf(2), cols))
    tree = Tree(2, [(0, 1)])
    dec = TreeDecomposition(base, tree, [0] * 7 + [1] * 4)
    return base, dec


def test_neck_of_glued_planes():
    base, dec = glued_two_planes()
    assert dec.width() == 3
    neck, external = neck_of_edge(base, dec, (0, 1))
    assert len(neck) == 3
    assert external == ()
    assert set(neck) <= set(base.packed)
    # the neck is span closed and of projective size
    assert span_closure(base.field, 4, neck) == neck
    assert len(neck) == pg_point_count(2, 2)


def test_neck_of_spread_line():
    F = gf(5)
    base = embed(LinearMatroid(F, [(1, 0), (0, 1), (1, 1), (1, 2)]))
    dec = TreeDecomposition(base, Tree(2, [(0, 1)]), (0, 0, 1, 1))
    neck, external = neck_of_edge(base, dec, (0, 1))
    assert len(neck) == 6 == pg_point_count(2, 5)
    assert neck == tuple(sorted(map(F.pack, pg_build(2, 5))))
    assert external == tuple(sorted((F.pack((1, 3)), F.pack((1, 4)))))
    with pytest.raises(ValueError):
        neck_of_edge(base, TreeDecomposition(embed(fano()), Tree(1, ()), (0,) * 7), (0, 1))


def test_empty_neck():
    """Blocks glued with overlap 0 share no point: the neck is empty."""
    rec = gen_glued(3, 2, 2, 0, seed=1)
    base = embed(rec.matroid)
    dec = TreeDecomposition(base, rec.decomposition.tree, rec.decomposition.assignment)
    assert neck_of_edge(base, dec, (0, 1)) == ((), ()) == ambient_neck(base, dec, (0, 1))


def _criterion_07_decompositions():
    """Every decomposition the identity battery of criterion 07 cuts
    along: the path decomposition of each simplified instance, and the
    block path of each glued one."""
    recs = []
    for seed in range(3):
        for dels in range(3):
            for q, br, blocks, ov in ((2, 2, 2, 1), (2, 3, 2, 2), (2, 3, 2, 1),
                                      (3, 2, 2, 1), (4, 2, 2, 1), (5, 2, 2, 1)):
                recs.append(gen_glued(q, br, blocks, ov, seed=seed, delete_count=dels))
    rng = random.Random("identities")
    for i in range(50):
        q = (2, 3, 4, 5)[i % 4]
        r = rng.randint(2, 3)
        n = rng.randint(6, 9)
        recs.append(gen_random_linear(q, r, n, rng.randrange(1 << 30)))
    for rec in recs:
        m = rec.matroid
        if m.loops_mask():
            continue
        ls = LinearMatroid(m.field, [m.columns[cls[0]] for cls in m.parallel_classes()])
        base = embed(ls)
        path = heuristic_decomposition(ls, "path")
        yield TreeDecomposition(base, path.tree, path.assignment)
        if rec.decomposition is not None and m.is_simple():
            base = embed(m)
            yield TreeDecomposition(base, rec.decomposition.tree, rec.decomposition.assignment)


def _random_decompositions(rng, q, count):
    """Random simple matrices over GF(q) on random trees."""
    F = gf(q)
    for _ in range(count):
        r = rng.randint(2, 4 if q == 7 else 5)
        pool = list(map(F.pack, pg_build(r, q)))
        n = rng.randint(r, min(len(pool), 14))
        cols = [F.unpack(p, r) for p in rng.sample(pool, n)]
        # scale each column at random: embed must normalize them back
        scales = [F.mul[rng.randrange(1, q)] for _ in cols]
        cols = [tuple(times[x] for x in col) for times, col in zip(scales, cols)]
        m = LinearMatroid(F, cols)
        if m.full_rank < r:
            continue
        base = embed(m)
        size = rng.randint(2, 6)
        tree = Tree(size, [(rng.randrange(v), v) for v in range(1, size)])
        yield TreeDecomposition(base, tree, [rng.randrange(size) for _ in range(base.n)])


def _assert_necks_agree(decompositions) -> int:
    edges = 0
    for dec in decompositions:
        base = dec.matroid
        for edge in dec.tree.edges:
            neck, external = neck_of_edge(base, dec, edge)
            assert (neck, external) == ambient_neck(base, dec, edge)
            du, dw = dec.displayed_sets_edge(edge)
            d = base.rank_mask(du) + base.rank_mask(dw) - base.rank_mask(du | dw)
            assert len(neck) == pg_point_count(d, base.field.q)
            edges += 1
    return edges


def test_neck_agrees_with_the_ambient_scan_on_the_identity_battery():
    assert _assert_necks_agree(_criterion_07_decompositions()) >= 500


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_neck_agrees_with_the_ambient_scan_on_random_matrices(q):
    rng = random.Random(f"necks:{q}")
    assert _assert_necks_agree(_random_decompositions(rng, q, 40)) >= 100


def test_embed_and_neck_past_the_ambient_geometry():
    """Rank 13 over GF(2): PG(12, 2) has 8191 points, over MAX_POINTS,
    yet the embedding and the neck never list it.  Side one spans the
    first twelve coordinates; side two holds the last unit vector and
    e_j + e_(j+1) for j < 11, so the neck is the PG(10, 2) those sums
    span."""
    F = gf(2)
    units = [tuple(int(i == j) for i in range(13)) for j in range(13)]
    sums = [tuple(int(i in (j, j + 1)) for i in range(13)) for j in range(11)]
    base = embed(LinearMatroid(F, units + sums))
    assert base.n == 24 and base.nrows == 13
    dec = TreeDecomposition(base, Tree(2, [(0, 1)]), [0] * 12 + [1] * 12)
    neck, external = neck_of_edge(base, dec, (0, 1))
    assert len(neck) == pg_point_count(11, 2) == 2047
    assert len(external) == 2047 - 11
    du, dw = dec.displayed_sets_edge((0, 1))
    span_u, span_w = (F.echelon(base.packed[e] for e in mask_bits(d)) for d in (du, dw))
    assert not any(F.reduce(span_u, p) or F.reduce(span_w, p) for p in neck)
    assert all(p >> 12 == 0 for p in neck)  # inside the first twelve coordinates


# -- every neck of a path in one sweep ----------------------------------------------


def _necks_one_by_one(dec):
    return [neck_of_edge(dec.matroid, dec, edge) for edge in dec.tree.edges]


def test_path_necks_agree_with_neck_of_edge_on_the_identity_battery():
    """On every path decomposition of criterion 07's battery, the sweep
    gives each edge the neck and external points of neck_of_edge, in
    the order of the tree's edges."""
    edges = 0
    for dec in _criterion_07_decompositions():
        assert path_necks(dec.matroid, dec) == _necks_one_by_one(dec)
        edges += len(dec.tree.edges)
    assert edges >= 500


@st.composite
def path_decompositions(draw):
    """Distinct points of PG(r-1, q), q in {2, 3, 4, 5}, embedded, on a
    path whose vertices come in a random order, with random and
    possibly empty bags."""
    q = draw(st.sampled_from((2, 3, 4, 5)))
    r = draw(st.integers(1, 4))
    cols = draw(st.lists(st.sampled_from(pg_build(r, q)), min_size=1, max_size=12, unique=True))
    base = embed(LinearMatroid(gf(q), cols))
    order = draw(st.permutations(range(draw(st.integers(1, 7)))))
    tree = Tree(len(order), list(zip(order, order[1:])))
    bags = draw(st.lists(st.sampled_from(order), min_size=base.n, max_size=base.n))
    return TreeDecomposition(base, tree, bags)


@given(path_decompositions())
@settings(max_examples=200, deadline=None)
def test_path_necks_agree_with_neck_of_edge_on_drawn_points(dec):
    assert path_necks(dec.matroid, dec) == _necks_one_by_one(dec)


def test_path_necks_past_the_ambient_geometry():
    """The rank-13 GF(2) matroid of the test above on a path of three
    bags: the first edge's neck is the same PG(10, 2) of 2047 points,
    and the sweep agrees with neck_of_edge on both edges."""
    F = gf(2)
    units = [tuple(int(i == j) for i in range(13)) for j in range(13)]
    sums = [tuple(int(i in (j, j + 1)) for i in range(13)) for j in range(11)]
    base = embed(LinearMatroid(F, units + sums))
    dec = TreeDecomposition(base, Tree(3, [(0, 2), (2, 1)]), [0] * 12 + [2] * 6 + [1] * 6)
    necks = path_necks(base, dec)
    assert necks == _necks_one_by_one(dec)
    neck, external = necks[dec.tree.edges.index((0, 2))]
    assert len(neck) == 2047 and len(external) == 2047 - 11


def test_neck_over_the_point_cap_lists_no_point(monkeypatch):
    """Rank 12 over GF(3): one side is the twelve unit vectors, the
    other twelve sums e_i + e_j, i - j odd, that span a subspace of
    dimension nine, so the neck is
    PG(8, 3), 9841 points, over MAX_POINTS; it is refused before any
    combination is listed."""

    def span_points(self, rows):
        raise AssertionError("a combination was listed")

    F = gf(3)
    units = [tuple(int(i == j) for i in range(12)) for j in range(12)]
    sums = [tuple(int(i in (j, j + 1)) for i in range(12)) for j in range(9)]
    sums += [tuple(int(i in (j, j + 3)) for i in range(12)) for j in range(3)]
    base = embed(LinearMatroid(F, units + sums))
    dec = TreeDecomposition(base, Tree(2, [(0, 1)]), [0] * 12 + [1] * 12)
    monkeypatch.setattr(type(F), "span_points", span_points)
    assert pg_point_count(9, 3) == 9841 > projgeom.MAX_POINTS
    with pytest.raises(TooLargeError, match=r"^PG\(8, 3\) has 9841 points"):
        neck_of_edge(base, dec, (0, 1))
    with pytest.raises(TooLargeError):
        path_necks(base, dec)


def test_path_necks_of_a_single_bag():
    base = embed(fano())
    assert path_necks(base, TreeDecomposition(base, Tree(1, ()), [0] * 7)) == []


def test_induced_decomposition_keeps_node_widths():
    base = embed(LinearMatroid(gf(5), [(1, 0), (0, 1), (1, 1), (1, 2)]))
    dec = TreeDecomposition(base, Tree(2, [(0, 1)]), (0, 0, 1, 1))
    _, external = neck_of_edge(base, dec, (0, 1))
    ext = extend(base, external)
    ind = induced_decomposition(ext, dec, (0, 1))
    assert ind.matroid is ext.matroid
    assert ind.width_report().node_widths == dec.width_report().node_widths
    assert ind.bag(0) == mask_of([0, 1, 4, 5])  # the new points join u's bag


def test_induced_decomposition_needs_real_edge():
    F = gf(3)
    base = embed(LinearMatroid(F, [(1, 0), (0, 1), (1, 1)]))
    dec = TreeDecomposition(base, Tree(1, ()), (0, 0, 0))
    ext = extend(base, [F.pack((1, 2))])
    with pytest.raises(Exception):
        induced_decomposition(ext, dec, (0, 1))


# -- modular flats and splitting ------------------------------------------------------


def test_is_modular_flat():
    m = fano()
    line = m.closure_mask(0b11)
    assert is_modular_flat(m, line)
    assert is_modular_flat(m, 0)            # the bottom flat
    assert is_modular_flat(m, m.full_mask)  # the top flat
    assert not is_modular_flat(UniformMatroid(3, 6), 0b11)


def test_split_glued_planes_and_factor():
    base, dec = glued_two_planes()
    ext = extend(base, [])
    m1, m2, npart = split_along_neck(ext, dec, (0, 1))
    assert m1.n == 7 and m2.n == 7 and npart.n == 3
    assert cp_delete_contract(m1).coeffs == (-8, 14, -7, 1)
    assert cp_delete_contract(m2).coeffs == (-8, 14, -7, 1)
    assert cp_delete_contract(npart).coeffs == (2, -3, 1)
    glued = brylawski_charpoly(m1, m2, npart)
    assert glued.coeffs == GLUED_TWO_PLANES_CP
    assert glued == cp_delete_contract(ext.matroid)


def test_split_requires_filled_neck():
    base = embed(LinearMatroid(gf(5), [(1, 0), (0, 1), (1, 1), (1, 2)]))
    dec = TreeDecomposition(base, Tree(2, [(0, 1)]), (0, 0, 1, 1))
    with pytest.raises(NeckNotFilledError):
        split_along_neck(extend(base, []), dec, (0, 1))
    # once the external points are adjoined the split degenerates but works
    _, external = neck_of_edge(base, dec, (0, 1))
    ext = extend(base, external)
    m1, m2, npart = split_along_neck(ext, dec, (0, 1))
    assert brylawski_charpoly(m1, m2, npart) == cp_delete_contract(ext.matroid)


def test_split_requires_leaf_edge():
    plane = pg_build(3, 2)
    cols = [p + (0,) for p in plane]
    cols += [(0,) + p for p in plane if p[2] == 1]
    base = embed(LinearMatroid(gf(2), cols))
    tree = Tree(4, [(0, 1), (1, 2), (2, 3)])
    dec = TreeDecomposition(base, tree, [0] * 7 + [1] * 2 + [2] * 1 + [3] * 1)
    ext = extend(base, [])
    with pytest.raises(ValueError):
        split_along_neck(ext, dec, (1, 2))  # neither endpoint is a leaf


# -- factorization preconditions --------------------------------------------------------


def _u35(labels):
    # five points of a moment curve: every triple independent
    cols = [(1, t % 5, (t * t) % 5) for t in range(5)]
    return LinearMatroid(gf(5), cols, labels)


def test_brylawski_rejects_nonmodular_common():
    m1 = _u35(("a", "b", "c", "d", "e"))
    common = m1.restrict([0, 1])
    m2 = LinearMatroid(gf(5), [(1, 0, 0), (1, 1, 1), (0, 1, 0)], ("a", "b", "z"))
    with pytest.raises(NotModularError):
        brylawski_charpoly(m1, m2, common)


def test_brylawski_label_validation():
    m1 = LinearMatroid(gf(2), [(1, 0), (0, 1)], ("a", "a"))
    m2 = LinearMatroid(gf(2), [(1, 0), (0, 1)], ("a", "b"))
    with pytest.raises(ValueError):
        brylawski_charpoly(m1, m2, m2)
    good = LinearMatroid(gf(2), [(1, 0), (0, 1)], ("a", "c"))
    with pytest.raises(ValueError):
        # shared labels {a} but the claimed common part carries {a, b}
        brylawski_charpoly(good, m2, m2)


def test_brylawski_rejects_rank_disagreement():
    # both pieces carry {a, b}, dependent in one and independent in the other
    m1 = LinearMatroid(gf(2), [(1, 0), (0, 1), (1, 1)], ("a", "b", "c"))
    m2 = LinearMatroid(gf(2), [(1, 1), (1, 1), (0, 1)], ("a", "b", "z"))
    common = m1.restrict([0, 1])
    with pytest.raises(ValueError):
        brylawski_charpoly(m1, m2, common)


def _foreign_decomposition():
    # a decomposition of a matroid other than the embedded base
    return TreeDecomposition(embed(fano()), Tree(2, [(0, 1)]), (0,) * 4 + (1,) * 3)


def _path_of_four():
    # the glued planes on a path decomposition whose middle edge touches no leaf
    base, _ = glued_two_planes()
    dec = TreeDecomposition(base, Tree(4, [(0, 1), (1, 2), (2, 3)]), [0] * 7 + [1, 1, 2, 3])
    return extend(base, []), dec


def _glued_extension():
    return extend(glued_two_planes()[0], [])


def _star():
    # the glued planes on a tree with a vertex of degree 3
    base, _ = glued_two_planes()
    return base, TreeDecomposition(base, Tree(4, [(0, 1), (0, 2), (0, 3)]), [0] * 7 + [1, 2, 3, 3])


_AB = LinearMatroid(gf(2), [(1, 0), (0, 1)], ("a", "b"))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pg_build(0, 2), r"^a projective geometry needs rank at least 1$"),
        (lambda: neck_of_edge(glued_two_planes()[0], _foreign_decomposition(), (0, 1)),
         r"^the decomposition must decompose the embedded base matroid$"),
        (lambda: path_necks(glued_two_planes()[0], _foreign_decomposition()),
         r"^the decomposition must decompose the embedded base matroid$"),
        (lambda: path_necks(*_star()),
         r"^the neck sweep needs a decomposition whose tree is a path$"),
        (lambda: induced_decomposition(_glued_extension(), _foreign_decomposition(), (0, 1)),
         r"^the decomposition must decompose the embedded base matroid$"),
        (lambda: split_along_neck(_glued_extension(), _foreign_decomposition(), (0, 1)),
         r"^the decomposition must decompose the embedded base matroid$"),
        (lambda: split_along_neck(*_path_of_four(), (1, 2)),
         r"^the split edge must touch a leaf$"),
        (lambda: brylawski_charpoly(LinearMatroid(gf(2), [(1, 0), (0, 1)], ("a", "a")), _AB, _AB),
         r"^label-based gluing needs distinct labels$"),
        (lambda: brylawski_charpoly(LinearMatroid(gf(2), [(1, 0), (0, 1)], ("a", "c")), _AB, _AB),
         r"^the common matroid must carry exactly the shared labels$"),
        (lambda: brylawski_charpoly(
            LinearMatroid(gf(2), [(1, 0), (0, 1), (1, 1)], ("a", "b", "c")),
            LinearMatroid(gf(2), [(1, 1), (1, 1), (0, 1)], ("a", "b", "z")),
            LinearMatroid(gf(2), [(1, 0), (0, 1)], ("a", "b"))),
         r"^the pieces disagree on their common ground set$"),
    ],
    ids=["pg-rank", "neck-base", "sweep-base", "sweep-tree", "induced-base", "split-base", "split-leaf",
         "labels", "shared-labels", "agreement"],
)
def test_bad_arguments_raise_a_typed_error(call, message):
    """Each bad-input path raises ArgumentError, a MatZeroError that is
    still a ValueError, with its message unchanged."""
    with pytest.raises(ArgumentError, match=message) as info:
        call()
    assert isinstance(info.value, MatZeroError) and isinstance(info.value, ValueError)


# -- telescoping -----------------------------------------------------------------------


def test_telescoping_single_point():
    F = gf(3)
    base = embed(LinearMatroid(F, [(1, 0), (0, 1), (1, 1)]))
    ext = extend(base, [F.pack((1, 2))])
    terms = telescoping_expansion(ext)
    assert [role for _, role in terms] == ["extension", "contract:s1"]
    polys = [cp_delete_contract(t) for t, _ in terms]
    assert polys[0].coeffs == (3, -4, 1)
    assert polys[1].coeffs == (-1, 1)
    total = IntPoly([])
    for p in polys:
        total = total + p
    assert total == cp_delete_contract(base)


def test_telescoping_reads_every_term_off_the_extension(monkeypatch):
    """On the criterion-07 battery, with the fattest external neck that
    fits on each decomposition (as verify_identities picks it), the
    terms are minors of the one extension, built with no further
    extend call, and their polynomials sum to chi of the base."""
    calls = []
    real_extend = projgeom.extend

    def counting(base, points):
        calls.append(points)
        return real_extend(base, points)

    monkeypatch.setattr(projgeom, "extend", counting)
    checked = 0
    for dec in _criterion_07_decompositions():
        base = dec.matroid
        if dec.tree.num_vertices < 2:
            continue
        necks = [neck_of_edge(base, dec, edge)[1] for edge in dec.tree.edges]
        external = max((x for x in necks if base.n + len(x) <= 20), key=len)
        if not external:
            continue
        ext = real_extend(base, external)
        calls.clear()
        terms = telescoping_expansion(ext)
        assert calls == []
        k = len(external)
        assert [role for _, role in terms] == ["extension"] + [f"contract:s{i + 1}" for i in range(k)]
        for i, (term, _) in enumerate(terms[1:]):
            assert term.root is ext.matroid
            assert term.labels == base.labels + tuple(f"s{j + 1}" for j in range(i))
        total = IntPoly([])
        for term, _ in terms:
            total = total + cp_delete_contract(term)
        assert total == cp_delete_contract(base)
        checked += 1
    assert checked >= 50


def test_telescoping_order_invariance():
    F = gf(5)
    base = embed(LinearMatroid(F, [(1, 0), (0, 1), (1, 1)]))
    base_cp = cp_delete_contract(base)
    a, b = F.pack((1, 3)), F.pack((1, 4))
    for order in ([a, b], [b, a]):
        terms = telescoping_expansion(extend(base, order))
        assert [role for _, role in terms] == [
            "extension", "contract:s1", "contract:s2",
        ]
        total = IntPoly([])
        for t, _ in terms:
            total = total + cp_delete_contract(t)
        assert total == base_cp


# -- necks and telescoping terms read off standard-form rows --------------------------


def _simplification(m):
    """(field, height, points, rows) of m's simplification, as
    verify_identities reads it: the distinct nonzero points of m in
    order of first occurrence, and the distinct nonzero rows of m's one
    standard form."""
    field, height, points = m._points()
    rows = [row for row in dict.fromkeys(m._standard_form()[1]) if row]
    return field, height, [p for p in dict.fromkeys(points) if p], rows


def _row_necks_agree(field, height, points, rows) -> int:
    """The rows are the standard form of the matroid of the points, and
    _path_neck_sizes on them gives every edge of the element-order path
    the external size that path_necks finds on embed's base of the
    points, with the returned mask a basis.  Returns the edges
    checked."""
    ls = LinearMatroid(field, [field.unpack(p, height) for p in points], nrows=height)
    bmask, coordinates = ls._standard_form()
    assert rows == coordinates
    assert bmask == mask_of(e for e, row in enumerate(rows) if not row & row - 1)
    if len(points) < 2:
        return 0
    lmask, sizes, _ = projgeom._path_neck_sizes(field, rows)
    base = embed(ls)
    necks = path_necks(base, heuristic_decomposition(base, "path"))
    assert sizes == [len(external) for _, external in necks]
    assert lmask.bit_count() == ls.rank_mask(lmask) == ls.full_rank
    return len(sizes)


def _terms_match_the_oracle(field, height, points, rows) -> bool:
    """_telescoping_terms lists the neck that path_necks lists for the
    first fattest edge that fits, on the base of the standard-form rows,
    in extend's order, and each term's chi is that of the matching term
    of telescoping_expansion by cp_delete_contract; their sum,
    _telescoped_chi, is chi of the base and of the points.  Returns
    whether a term list was made."""
    n = len(points)
    terms = projgeom._telescoping_terms(field, rows, 20 - n)
    rank = sum(1 for row in rows if not row & row - 1)
    base = LinearMatroid(field, [field.unpack(c, rank) for c in rows], nrows=rank)
    necks = path_necks(base, heuristic_decomposition(base, "path"))
    fits = [external for _, external in necks if n + len(external) <= 20]
    if not fits:
        assert terms is None
        return False
    chosen = max(fits, key=len)
    assert terms[0][0] == rows + list(chosen)
    oracle = telescoping_expansion(extend(base, chosen))
    polys = [cp_delete_contract(term) for term, _ in oracle]
    assert [_chi_from_rows(field.project, term, r) for term, r in terms] == polys
    total = IntPoly([])
    for p in polys:
        total = total + p
    assert projgeom._telescoped_chi(field, rows, 20 - n) == total
    ls = LinearMatroid(field, [field.unpack(p, height) for p in points], nrows=height)
    assert total == cp_delete_contract(base) == cp_delete_contract(ls)
    return True


def test_row_necks_agree_with_path_necks_on_the_identity_battery():
    glued, rand = criterion_07_instances()
    edges = sum(_row_necks_agree(*_simplification(rec.matroid)) for rec in glued + rand)
    assert edges >= 500


def test_telescoping_terms_match_the_expansion_on_the_identity_battery():
    glued, rand = criterion_07_instances()
    made = sum(_terms_match_the_oracle(*_simplification(rec.matroid))
               for rec in glued + rand if len(_simplification(rec.matroid)[2]) >= 2)
    assert made == len(glued) + len(rand)


def test_path_neck_sizes_make_one_elimination_pass(monkeypatch):
    """The unit rows of the standard form give the first basis, so
    _path_neck_sizes runs one standard form, of the rows in reverse."""
    passes = []
    real = projgeom._standard_rows

    def counted(field, height, points):
        passes.append(list(points))
        return real(field, height, points)

    monkeypatch.setattr(projgeom, "_standard_rows", counted)
    for rec in criterion_07_instances()[1][:8]:
        field, _, _, rows = _simplification(rec.matroid)
        passes.clear()
        projgeom._path_neck_sizes(field, rows)
        assert passes == [rows[::-1]]


@st.composite
def gf45_matroids(draw):
    """A random matrix over GF(4) or GF(5) of height 1 to 4, with zero
    and repeated columns."""
    field = gf(draw(st.sampled_from((4, 5))))
    height = draw(st.integers(1, 4))
    cols = draw(st.lists(st.tuples(*[st.integers(0, field.q - 1)] * height), max_size=10))
    return LinearMatroid(field, cols, nrows=height)


@given(minor_chains())
@settings(max_examples=100, deadline=None)
def test_row_necks_and_terms_on_minor_chains(chain):
    """On roots and minors of minors over GF(2, 3, 4, 5, 7, 9), read at
    the root's height."""
    for m in chain:
        drawn = _simplification(m)
        _row_necks_agree(*drawn)
        if len(drawn[2]) >= 2:
            _terms_match_the_oracle(*drawn)


@given(gf45_matroids())
@settings(max_examples=150, deadline=None)
def test_row_necks_and_terms_on_random_matrices(m):
    drawn = _simplification(m)
    _row_necks_agree(*drawn)
    if len(drawn[2]) >= 2:
        _terms_match_the_oracle(*drawn)


# -- the split engine for chi ------------------------------------------------


def _engine_chi(m) -> IntPoly:
    """chi of m by the split engine, on m's standard form."""
    basis, rows = m._standard_form()
    return projgeom._chi_by_splits(m._points()[0], rows, basis.bit_count())


def _recursion_chi(m) -> IntPoly:
    """chi of m by the deletion-contraction recursion alone."""
    basis, rows = m._standard_form()
    return _chi_from_rows(m._points()[0].project, rows, basis.bit_count())


def _counted_splits(mp) -> dict:
    """Count, through the monkeypatch ``mp``, the pieces the engine
    computes (a component or a side of a neck) and the dimension of
    each neck it divides out."""
    seen = {"pieces": 0, "necks": []}
    real_piece, real_pg = projgeom._chi_of_piece, projgeom.cp_pg_closed_form

    def piece(*args):
        seen["pieces"] += 1
        return real_piece(*args)

    def pg(d, q):
        seen["necks"].append(d)
        return real_pg(d, q)

    mp.setattr(projgeom, "_chi_of_piece", piece)
    mp.setattr(projgeom, "cp_pg_closed_form", pg)
    return seen


def _spanning_points(q: int, rank: int, count: int, rng) -> list:
    """count distinct points of PG(rank - 1, q) that span it."""
    field = gf(q)
    while True:
        points = rng.sample(pg_build(rank, q), count)
        if len(field.echelon(field.pack(p) for p in points)) == rank:
            return points


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("shape", [((3, 5), (3, 5), 1), ((3, 5), (2, 3), 2), ((4, 7), (2, 3), 0)],
                         ids=str)
def test_split_engine_factors_direct_sums(monkeypatch, q, shape):
    """Components (rank, points) in coordinates of their own and
    coloops, their columns shuffled so that no component is contiguous
    in element order: chi is (lam - 1)**coloops times the components'
    chi, the engine splits, and it agrees with the recursion, the
    Mobius expansion and the subset expansion."""
    (ra, na), (rb, nb), coloops = shape
    rng = random.Random(f"direct-sum:{q}:{shape}")
    rank = ra + rb + coloops
    parts = [_spanning_points(q, ra, na, rng), _spanning_points(q, rb, nb, rng)]
    cols = [p + (0,) * (rank - ra) for p in parts[0]]
    cols += [(0,) * ra + p + (0,) * coloops for p in parts[1]]
    cols += [tuple(int(i == j) for i in range(rank)) for j in range(ra + rb, rank)]
    rng.shuffle(cols)
    m = LinearMatroid(gf(q), cols)
    assert m.n >= projgeom.SPLIT_MIN_POINTS and m.full_rank >= projgeom.SPLIT_MIN_RANK
    expected = lam_minus_one_power(coloops) * cp_mobius(LinearMatroid(gf(q), parts[0])) * cp_mobius(
        LinearMatroid(gf(q), parts[1])
    )
    seen = _counted_splits(monkeypatch)
    assert _engine_chi(m) == expected
    assert seen["pieces"] == 2 and seen["necks"] == []
    assert _recursion_chi(m) == cp_mobius(m) == cp_boolean_expansion(m) == expected


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 11, 1), (2, 3, 3, 0), (2, 3, 3, 1), (2, 3, 5, 2), (3, 2, 7, 1), (3, 2, 5, 0),
     (4, 2, 5, 1), (5, 2, 3, 0)],
    ids=str,
)
def test_split_engine_matches_the_glued_closed_form(monkeypatch, shape):
    """A full glued chain of up to 24 elements has chi = prod chi(PG
    block) / prod chi(PG overlap); the engine splits it along a filled
    neck, or into components when the blocks share nothing."""
    q, block_rank, blocks, overlap = shape
    m = gen_glued(q, block_rank, blocks, overlap).matroid
    assert m.n <= 24 and m.full_rank >= projgeom.SPLIT_MIN_RANK
    num = den = IntPoly([1])
    for _ in range(blocks):
        num = num * cp_pg_closed_form(block_rank, q)
    for _ in range(blocks - 1):
        den = den * cp_pg_closed_form(overlap, q)
    seen = _counted_splits(monkeypatch)
    assert _engine_chi(m) == poly_exact_div(num, den) == _recursion_chi(m)
    assert seen["pieces"] >= 2
    assert bool(seen["necks"]) == (overlap > 0)
    assert all(d <= overlap for d in seen["necks"])


def _qualifying_edges(sub: LinearMatroid) -> list[int]:
    """The edges of the element-order path of the simple matroid ``sub``
    at which the engine may split, from the object-level oracles: a
    nonempty neck (path_necks) with no external point, and two sides
    of rank below r(M)."""
    base = embed(sub)
    necks = path_necks(base, heuristic_decomposition(base, "path"))
    r = base.full_rank
    return [
        i for i, (neck, external) in enumerate(necks)
        if neck and not external
        and base.rank_mask((1 << i + 1) - 1) < r > base.rank_mask(base.full_mask >> i + 1 << i + 1)
    ]


@pytest.mark.parametrize("shape", [(2, 3, 4, 2), (2, 3, 5, 2)], ids=str)
def test_split_engine_does_not_split_unfilled_necks(monkeypatch, shape):
    """Glued chains of Fano planes along lines with one point deleted
    from some overlaps: the engine splits at the top exactly when the
    oracle finds a filled neck of the path, and chi agrees with the
    recursion, and up to 18 elements with the Mobius expansion.  With a point gone from every
    overlap, no edge qualifies and nothing is split."""
    q, block_rank, blocks, overlap = shape
    rec = gen_glued(q, block_rank, blocks, overlap)
    m = rec.matroid
    overlaps = rec.construction["overlap_elements"]
    unsplit = 0
    for chosen in range(1, 1 << len(overlaps)):
        victims = {overlaps[j][(j + chosen) % len(overlaps[j])] for j in mask_bits(chosen)}
        sub = LinearMatroid(m.field, [c for e, c in enumerate(m.columns) if e not in victims])
        with pytest.MonkeyPatch.context() as mp:
            seen = _counted_splits(mp)
            chi = _engine_chi(sub)
        assert chi == _recursion_chi(sub)
        if sub.n <= 18:
            assert chi == cp_mobius(sub)
        if _qualifying_edges(sub):
            assert seen["necks"]
        else:
            assert seen == {"pieces": 0, "necks": []}
            unsplit += 1
    assert unsplit >= 1


def test_split_engine_raises_on_a_wrong_leaf(monkeypatch):
    """With the recursion made wrong, the division by the neck's chi
    leaves a remainder, which raises instead of returning a polynomial."""
    m = gen_glued(2, 3, 3, 1).matroid
    real = projgeom._chi_from_rows
    monkeypatch.setattr(projgeom, "_chi_from_rows", lambda *args: real(*args) + IntPoly([1]))
    with pytest.raises(InexactDivisionError):
        _engine_chi(m)


@given(minor_chains())
@settings(max_examples=150, deadline=None)
def test_split_engine_on_minor_chains_with_every_piece_split(chain):
    """With the leaf test set to accept only the empty matroid, every
    piece of roots and minors of minors over GF(2, 3, 4, 5, 7, 9), loops
    and parallel elements included, goes through the component and neck
    splits, and chi is the recursion's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projgeom, "SPLIT_MIN_RANK", 0)
        mp.setattr(projgeom, "SPLIT_MIN_POINTS", 0)
        for m in chain:
            assert _engine_chi(m) == _recursion_chi(m) == cp_delete_contract(m)
