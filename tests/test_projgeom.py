"""Projective models, embeddings, extensions, necks, modular-flat
factorization, and the telescoping expansion."""

import pytest

from matzero.charpoly import IntPoly, cp_delete_contract
from matzero.errors import (
    ArgumentError,
    MatZeroError,
    NeckNotFilledError,
    NotLinearError,
    NotModularError,
    NotSimpleError,
    PointCollisionError,
    TooLargeError,
)
from matzero.gfq import gf
from matzero.instances import fano
from matzero.matroid import LinearMatroid, UniformMatroid, mask_of, ranks_agree
from matzero.projgeom import (
    PGModel,
    brylawski_charpoly,
    embed,
    extend,
    induced_decomposition,
    is_modular_flat,
    neck_of_edge,
    pg_build,
    pg_point_count,
    split_along_neck,
    telescoping_expansion,
)
from matzero.treedecomp import Tree, TreeDecomposition

GLUED_TWO_PLANES_CP = (32, -64, 42, -11, 1)  # (x-1)(x-2)(x-4)^2


# -- the point model -----------------------------------------------------------


def test_pg_point_count():
    assert pg_point_count(3, 2) == 7
    assert pg_point_count(2, 4) == 5
    assert pg_point_count(1, 9) == 1
    assert pg_point_count(0, 3) == 0


def test_model_points_normalized_and_ordered():
    model = pg_build(2, 3)
    F = model.field
    assert model.points == ((0, 1), (1, 0), (1, 1), (1, 2))
    assert model.vectors == tuple(map(F.pack, model.points))
    assert model.index[F.pack((1, 1))] == 2
    # the model's points are GF.normalize's echelon rows
    assert F.normalize(F.pack((0, 2))) == F.pack((0, 1))
    assert F.normalize(F.pack((2, 1))) == F.pack((1, 2))  # scale by inverse of 2
    assert F.normalize(F.pack((0, 0))) == 0  # the zero vector is no point
    with pytest.raises(ValueError):
        pg_build(0, 2)


def test_model_size_cap():
    with pytest.raises(TooLargeError):
        pg_build(7, 4)


def test_span_closure():
    model = pg_build(3, 2)
    pack = model.field.pack
    a = model.index[pack((1, 0, 0))]
    b = model.index[pack((0, 1, 0))]
    line = model.span_closure([a, b])
    assert set(line) == {a, b, model.index[pack((1, 1, 0))]}
    assert model.span_closure([]) == ()
    assert len(model.span_closure([a])) == 1
    assert len(model.span_closure(range(3))) <= 7


def test_model_matroid_is_projective_geometry():
    m = pg_build(3, 2).matroid()
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
    emb = embed(fano())
    assert sorted(emb.elem_to_point) == list(range(7))
    assert emb.image == frozenset(range(7))
    assert emb.base.n == 7
    assert ranks_agree(emb.base, fano())


def test_embed_line_with_missing_point():
    m = LinearMatroid(gf(3), [(1, 0), (0, 1), (1, 1)])
    emb = embed(m)
    assert emb.model.r == 2
    assert emb.elem_to_point == (1, 0, 2)
    missing = [p for p in range(4) if p not in emb.image]
    assert missing == [3]
    assert emb.points_of(0b101) == [1, 2]


def test_embed_row_reduces_tall_matrices():
    m = LinearMatroid(gf(2), [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    emb = embed(m)
    assert emb.model.r == 2
    assert sorted(emb.elem_to_point) == [0, 1, 2]
    assert ranks_agree(emb.base, m)


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
    emb = embed(LinearMatroid(gf(3), [(1, 0), (0, 1), (1, 1)]))
    ext = extend(emb, [3])
    assert ext.base_count == 3
    assert ext.added_element_ids() == [3]
    assert ext.matroid.labels == (0, 1, 2, "s1")
    assert ranks_agree(ext.matroid, UniformMatroid(2, 4))
    assert cp_delete_contract(ext.matroid).coeffs == (3, -4, 1)


def test_extend_collisions():
    emb = embed(LinearMatroid(gf(3), [(1, 0), (0, 1), (1, 1)]))
    with pytest.raises(PointCollisionError):
        extend(emb, [0])        # occupied by element 1
    with pytest.raises(PointCollisionError):
        extend(emb, [3, 3])     # duplicate


# -- necks along decomposition edges -----------------------------------------------


def glued_two_planes():
    """Two projective planes over GF(2) sharing a line: eleven points of
    rank four, block one on coordinates 0-2, block two on 1-3."""
    plane = pg_build(3, 2).points
    cols = [p + (0,) for p in plane]
    cols += [(0,) + p for p in plane if p[2] == 1]
    m = LinearMatroid(gf(2), cols)
    emb = embed(m)
    tree = Tree(2, [(0, 1)])
    dec = TreeDecomposition(emb.base, tree, [0] * 7 + [1] * 4)
    return emb, dec


def test_neck_of_glued_planes():
    emb, dec = glued_two_planes()
    assert dec.width() == 3
    neck, external = neck_of_edge(emb, dec, (0, 1))
    assert len(neck) == 3
    assert external == ()
    # the neck is span closed and of projective size
    assert tuple(sorted(emb.model.span_closure(neck))) == neck
    assert len(neck) == pg_point_count(2, 2)


def test_neck_of_spread_line():
    emb = embed(LinearMatroid(gf(5), [(1, 0), (0, 1), (1, 1), (1, 2)]))
    dec = TreeDecomposition(emb.base, Tree(2, [(0, 1)]), (0, 0, 1, 1))
    neck, external = neck_of_edge(emb, dec, (0, 1))
    assert len(neck) == 6 == pg_point_count(2, 5)
    assert external == (4, 5)
    with pytest.raises(ValueError):
        neck_of_edge(emb, TreeDecomposition(embed(fano()).base, Tree(1, ()), (0,) * 7), (0, 1))


def test_induced_decomposition_keeps_node_widths():
    emb = embed(LinearMatroid(gf(5), [(1, 0), (0, 1), (1, 1), (1, 2)]))
    dec = TreeDecomposition(emb.base, Tree(2, [(0, 1)]), (0, 0, 1, 1))
    _, external = neck_of_edge(emb, dec, (0, 1))
    ext = extend(emb, external)
    base_widths = dec.width_report().node_widths
    for attach in ("u", "w"):
        ind = induced_decomposition(ext, dec, (0, 1), attach=attach)
        assert ind.matroid is ext.matroid
        assert ind.width_report().node_widths == base_widths
    bag_u = induced_decomposition(ext, dec, (0, 1), attach="u").bag(0)
    assert bag_u == mask_of([0, 1, 4, 5])


def test_induced_decomposition_needs_real_edge():
    emb = embed(LinearMatroid(gf(3), [(1, 0), (0, 1), (1, 1)]))
    dec = TreeDecomposition(emb.base, Tree(1, ()), (0, 0, 0))
    ext = extend(emb, [3])
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
    emb, dec = glued_two_planes()
    ext = extend(emb, [])
    m1, m2, npart = split_along_neck(ext, dec, (0, 1))
    assert m1.n == 7 and m2.n == 7 and npart.n == 3
    assert cp_delete_contract(m1).coeffs == (-8, 14, -7, 1)
    assert cp_delete_contract(m2).coeffs == (-8, 14, -7, 1)
    assert cp_delete_contract(npart).coeffs == (2, -3, 1)
    glued = brylawski_charpoly(m1, m2, npart)
    assert glued.coeffs == GLUED_TWO_PLANES_CP
    assert glued == cp_delete_contract(ext.matroid)


def test_split_requires_filled_neck():
    emb = embed(LinearMatroid(gf(5), [(1, 0), (0, 1), (1, 1), (1, 2)]))
    dec = TreeDecomposition(emb.base, Tree(2, [(0, 1)]), (0, 0, 1, 1))
    with pytest.raises(NeckNotFilledError):
        split_along_neck(extend(emb, []), dec, (0, 1))
    # once the external points are adjoined the split degenerates but works
    _, external = neck_of_edge(emb, dec, (0, 1))
    ext = extend(emb, external)
    m1, m2, npart = split_along_neck(ext, dec, (0, 1))
    assert brylawski_charpoly(m1, m2, npart) == cp_delete_contract(ext.matroid)


def test_split_requires_leaf_edge():
    plane = pg_build(3, 2).points
    cols = [p + (0,) for p in plane]
    cols += [(0,) + p for p in plane if p[2] == 1]
    emb = embed(LinearMatroid(gf(2), cols))
    tree = Tree(4, [(0, 1), (1, 2), (2, 3)])
    dec = TreeDecomposition(emb.base, tree, [0] * 7 + [1] * 2 + [2] * 1 + [3] * 1)
    ext = extend(emb, [])
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
    return TreeDecomposition(embed(fano()).base, Tree(2, [(0, 1)]), (0,) * 4 + (1,) * 3)


def _path_of_four():
    # the glued planes on a path decomposition whose middle edge touches no leaf
    emb, _ = glued_two_planes()
    dec = TreeDecomposition(emb.base, Tree(4, [(0, 1), (1, 2), (2, 3)]), [0] * 7 + [1, 1, 2, 3])
    return extend(emb, []), dec


def _glued_extension():
    return extend(glued_two_planes()[0], [])


_AB = LinearMatroid(gf(2), [(1, 0), (0, 1)], ("a", "b"))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PGModel(0, gf(2)), r"^a projective geometry needs rank at least 1$"),
        (lambda: neck_of_edge(glued_two_planes()[0], _foreign_decomposition(), (0, 1)),
         r"^the decomposition must decompose the embedded base matroid$"),
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
    ids=["pg-rank", "neck-base", "induced-base", "split-base", "split-leaf",
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
    emb = embed(LinearMatroid(gf(3), [(1, 0), (0, 1), (1, 1)]))
    ext = extend(emb, [3])
    terms = telescoping_expansion(ext)
    assert [role for _, role in terms] == ["extension", "contract:s1"]
    polys = [cp_delete_contract(t) for t, _ in terms]
    assert polys[0].coeffs == (3, -4, 1)
    assert polys[1].coeffs == (-1, 1)
    total = IntPoly([])
    for p in polys:
        total = total + p
    assert total == cp_delete_contract(emb.base)


def test_telescoping_order_invariance():
    emb = embed(LinearMatroid(gf(5), [(1, 0), (0, 1), (1, 1)]))
    base_cp = cp_delete_contract(emb.base)
    for order in ([3, 4], [4, 3]):
        terms = telescoping_expansion(extend(emb, order))
        assert [role for _, role in terms] == [
            "extension", "contract:s1", "contract:s2",
        ]
        total = IntPoly([])
        for t, _ in terms:
            total = total + cp_delete_contract(t)
        assert total == base_cp
