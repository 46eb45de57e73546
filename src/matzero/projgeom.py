"""Projective geometries over GF(q) and structure-aware factorizations.

A simple matroid represented over GF(q) sits inside the projective
geometry PG(r-1, q) of the same rank as a spanning restriction.  This
module builds explicit point models of those geometries, embeds
matrix-backed matroids into them, and uses the ambient points to do two
things the bare matroid cannot:

* locate the *neck* of a tree-decomposition edge, the points common to
  the spans of the two displayed sides, and fill its missing points in
  by extending the matroid;
* once a neck is fully present, split the matroid across it and factor
  the characteristic polynomial through the common part, or expand the
  extension as a telescoping sum of contractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .charpoly import IntPoly, cp_delete_contract, poly_exact_div
from .errors import (
    ArgumentError,
    NeckNotFilledError,
    NotInTreeError,
    NotLinearError,
    NotModularError,
    PointCollisionError,
    TooLargeError,
)
from .gfq import GF, gf
from .matroid import (
    MAX_BRYLAWSKI_SHARED,
    LinearMatroid,
    Matroid,
    mask_bits,
    mask_of,
    require_simple,
)
from .treedecomp import TreeDecomposition

MAX_POINTS = 4096


def pg_point_count(r: int, q: int) -> int:
    return (q ** r - 1) // (q - 1)


class PGModel:
    """The rank-r projective geometry over a field, as explicit points.

    Points are the nonzero vectors of GF(q)**r normalized so the first
    nonzero coordinate is 1, listed in lexicographic order.  The list
    index is the canonical name of a point throughout this module.
    ``vectors`` holds the points packed (:mod:`matzero.gfq`), and
    ``index`` maps each packed point, an echelon row of
    :meth:`GF.normalize`, to its name.
    """

    def __init__(self, r: int, field: GF):
        if r < 1:
            raise ArgumentError("a projective geometry needs rank at least 1")
        q = field.q
        if pg_point_count(r, q) > MAX_POINTS:
            raise TooLargeError(
                f"PG({r - 1}, {q}) has {pg_point_count(r, q)} points, over the cap {MAX_POINTS}"
            )
        pts = []
        for vec in product(range(q), repeat=r):
            first = next((c for c in vec if c), None)
            if first == 1:
                pts.append(vec)
        self.r = r
        self.field = field
        self.points = tuple(pts)
        self.vectors = tuple(map(field.pack, pts))
        self.index = {v: i for i, v in enumerate(self.vectors)}
        assert len(pts) == pg_point_count(r, q)

    @property
    def q(self) -> int:
        return self.field.q

    def span_closure(self, point_ids) -> tuple[int, ...]:
        """All point indices inside the linear span of the given points."""
        reduce, vectors = self.field.reduce, self.vectors
        basis = self.field.echelon(vectors[i] for i in point_ids)
        return tuple(idx for idx, v in enumerate(vectors) if not reduce(basis, v))

    def matroid(self, labels=None) -> LinearMatroid:
        """The geometry itself as a matroid (only for small models)."""
        return LinearMatroid(self.field, self.points, labels)

    def __repr__(self):
        return f"PGModel(PG({self.r - 1}, {self.q}), {len(self.points)} points)"


def pg_build(r: int, q) -> PGModel:
    field = q if isinstance(q, GF) else gf(q)
    return PGModel(r, field)


def _row_reduce(m: LinearMatroid) -> list[int]:
    """The packed columns of m in coordinates of their own span: the
    echelon basis of the rows, dropping dependent ones, so the height
    equals the rank."""
    field, n = m.field, m.n
    basis = field.echelon(field.pack([col[i] for col in m.columns]) for i in range(m.nrows))
    rows = [field.unpack(row, n) for row in basis]
    return [field.pack([row[j] for row in rows]) for j in range(n)]


@dataclass
class PGEmbedding:
    """A simple matrix-backed matroid seen inside its ambient projective
    geometry: element i of the base sits at model point
    ``elem_to_point[i]``."""

    base: LinearMatroid
    model: PGModel
    elem_to_point: tuple[int, ...]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.elem_to_point)

    def points_of(self, element_mask: int) -> list[int]:
        return [self.elem_to_point[e] for e in mask_bits(element_mask)]


def embed(m: Matroid) -> PGEmbedding:
    """Embed a simple matrix-backed matroid into PG(r(M)-1, q)."""
    if not isinstance(m, LinearMatroid):
        raise NotLinearError("embedding requires an explicit matrix over GF(q)")
    require_simple(m)
    r = m.full_rank
    vectors = m.packed if m.nrows == r else _row_reduce(m)
    model = PGModel(r, m.field)
    elem_to_point = tuple(map(model.index.__getitem__, map(m.field.normalize, vectors)))
    base = LinearMatroid(m.field, [model.points[i] for i in elem_to_point], m.labels)
    return PGEmbedding(base, model, elem_to_point)


@dataclass
class ExtensionMatroid:
    """The embedded base matroid together with extra geometry points.

    The new elements keep their order and carry labels "s1", "s2", ...
    Element indices 0..n-1 are the base; n..n+len(added)-1 the points.
    """

    embedding: PGEmbedding
    added: tuple[int, ...]
    matroid: LinearMatroid

    @property
    def base_count(self) -> int:
        return self.embedding.base.n

    def added_element_ids(self) -> list[int]:
        n = self.base_count
        return list(range(n, n + len(self.added)))


def extend(emb: PGEmbedding, point_ids) -> ExtensionMatroid:
    """Adjoin the given model points as new matroid elements."""
    point_ids = [int(p) for p in point_ids]
    image = emb.image
    for p in point_ids:
        if p in image:
            raise PointCollisionError(f"model point {p} is already an element")
    if len(set(point_ids)) != len(point_ids):
        raise PointCollisionError("duplicate extension points")
    model = emb.model
    base = emb.base
    cols = [model.points[i] for i in emb.elem_to_point] + [model.points[p] for p in point_ids]
    labels = tuple(base.labels) + tuple(f"s{i + 1}" for i in range(len(point_ids)))
    return ExtensionMatroid(emb, tuple(point_ids), LinearMatroid(model.field, cols, labels))


def neck_of_edge(emb: PGEmbedding, dec: TreeDecomposition, edge) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Points shared by the spans of the two sides displayed by an edge.

    Returns (neck, external): both sorted tuples of model point indices,
    ``external`` being the neck points that are not element images.  The
    neck is itself a full projective subgeometry, so its size is always
    (q**d - 1)/(q - 1) for some d.
    """
    if dec.matroid is not emb.base:
        raise ArgumentError("the decomposition must decompose the embedded base matroid")
    du, dw = dec.displayed_sets_edge(edge)
    span_u = set(emb.model.span_closure(emb.points_of(du)))
    span_w = set(emb.model.span_closure(emb.points_of(dw)))
    neck = tuple(sorted(span_u & span_w))
    image = emb.image
    external = tuple(p for p in neck if p not in image)
    return neck, external


def induced_decomposition(
    ext: ExtensionMatroid, dec: TreeDecomposition, edge, attach: str = "u"
) -> TreeDecomposition:
    """Carry a decomposition of the base over to the extension: the new
    elements all join the bag of one endpoint of the edge whose neck
    they fill (``attach`` picks which endpoint; either choice leaves
    every node width unchanged when the points lie in that edge's
    neck)."""
    if dec.matroid is not ext.embedding.base:
        raise ArgumentError("the decomposition must decompose the embedded base matroid")
    u, w = edge
    if not dec.tree.has_edge(u, w):
        raise NotInTreeError(f"edge ({u}, {w}) is not in the tree")
    target = {"u": u, "w": w}[attach]
    assignment = list(dec.assignment) + [target] * len(ext.added)
    return TreeDecomposition(ext.matroid, dec.tree, assignment)


def is_modular_flat(m: Matroid, flat_mask: int) -> bool:
    """Whether a flat F satisfies r(F) + r(X) = r(F v X) + r(F ^ X) for
    every flat X; verified against the full lattice of flats."""
    levels = m._flat_lattice()
    rf = m.rank_mask(flat_mask)
    for level in levels:
        for x in level:
            if rf + m.rank_mask(x) != m.rank_mask(flat_mask | x) + m.rank_mask(flat_mask & x):
                return False
    return True


def split_along_neck(
    ext: ExtensionMatroid, dec: TreeDecomposition, edge
) -> tuple[Matroid, Matroid, Matroid]:
    """Split the extension across a leaf edge whose neck is filled.

    For the edge (u, w) with w a leaf, writing S' for the neck points
    (all of which must be elements of the extension) and E_w for the
    leaf bag, the pieces are

        M1 = extension restricted to E_w and S'
        M2 = extension minus (E_w minus S')
        N  = extension restricted to S'

    M1 and M2 agree on S', N is their common part, and the span of S'
    is a modular flat of M1 (verified, not assumed).
    """
    emb = ext.embedding
    if dec.matroid is not emb.base:
        raise ArgumentError("the decomposition must decompose the embedded base matroid")
    u, w = edge
    if dec.tree.degree(w) != 1:
        if dec.tree.degree(u) == 1:
            u, w = w, u
        else:
            raise ArgumentError("the split edge must touch a leaf")
    neck, _external = neck_of_edge(emb, dec, (u, w))
    point_to_elem = {p: e for e, p in enumerate(emb.elem_to_point)}
    n = ext.base_count
    for pos, p in enumerate(ext.added):
        point_to_elem[p] = n + pos
    neck_ids = []
    for p in neck:
        e = point_to_elem.get(p)
        if e is None:
            raise NeckNotFilledError(
                f"neck point {p} is not an element; extend by the external neck first"
            )
        neck_ids.append(e)
    neck_mask = mask_of(neck_ids)
    ew_mask = dec.bag(w)  # leaf bag, as base elements; ids agree in the extension
    big = ext.matroid
    m1 = big.restrict(ew_mask | neck_mask)
    m2 = big.delete(ew_mask & ~neck_mask)
    npart = big.restrict(neck_mask)
    # the neck spans a modular flat of M1
    local_neck = mask_of(i for i, lab in enumerate(m1.labels) if lab in set(npart.labels))
    if not is_modular_flat(m1, m1.closure_mask(local_neck)):
        raise NotModularError("the neck does not span a modular flat of the leaf piece")
    return m1, m2, npart


def brylawski_charpoly(m1: Matroid, m2: Matroid, common: Matroid) -> IntPoly:
    """Characteristic polynomial of the generalized parallel connection
    of m1 and m2 across their common restriction:

        chi = chi(m1) * chi(m2) / chi(common)

    The pieces are identified by element labels.  Preconditions checked:
    the shared labels induce the same rank function in all three
    matroids, and the closure of the common part is a modular flat of
    m1.  The division must come out exact over the integers.
    """
    for m in (m1, m2, common):
        if len(set(m.labels)) != m.n:
            raise ArgumentError("label-based gluing needs distinct labels")
    shared = set(m1.labels) & set(m2.labels)
    if shared != set(common.labels):
        raise ArgumentError("the common matroid must carry exactly the shared labels")
    pos1 = {lab: i for i, lab in enumerate(m1.labels)}
    pos2 = {lab: i for i, lab in enumerate(m2.labels)}
    order = sorted(common.labels, key=lambda lab: pos1[lab])
    posc = {lab: i for i, lab in enumerate(common.labels)}
    t = len(order)
    if t > MAX_BRYLAWSKI_SHARED:
        raise TooLargeError(
            f"restriction agreement check is capped at {MAX_BRYLAWSKI_SHARED} shared elements"
        )
    for sub in range(1 << t):
        chosen = [order[i] for i in mask_bits(sub)]
        r1 = m1.rank_mask(mask_of(pos1[lab] for lab in chosen))
        r2 = m2.rank_mask(mask_of(pos2[lab] for lab in chosen))
        rc = common.rank_mask(mask_of(posc[lab] for lab in chosen))
        if not r1 == r2 == rc:
            raise ArgumentError("the pieces disagree on their common ground set")
    flat1 = m1.closure_mask(mask_of(pos1[lab] for lab in order))
    if not is_modular_flat(m1, flat1):
        raise NotModularError("the common flat is not modular in the first piece")
    num = cp_delete_contract(m1) * cp_delete_contract(m2)
    return poly_exact_div(num, cp_delete_contract(common))


def telescoping_expansion(ext: ExtensionMatroid) -> list[tuple[Matroid, str]]:
    """Rewrite the base polynomial through the extension:

        chi(M) = chi(M + s1..sn) + sum_i chi((M + s1..si) / si)

    Returns the terms as (matroid, role) pairs, the full extension first
    and then one contraction per added point, in order.  Summing the
    characteristic polynomials of the listed matroids gives back the
    characteristic polynomial of the embedded base exactly, whatever
    order the points were adjoined in.
    """
    emb = ext.embedding
    terms: list[tuple[Matroid, str]] = [(ext.matroid, "extension")]
    n = ext.base_count
    for i in range(len(ext.added)):
        partial = extend(emb, ext.added[: i + 1])
        contracted = partial.matroid.contract([n + i])
        terms.append((contracted, f"contract:s{i + 1}"))
    return terms
