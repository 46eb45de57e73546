"""Projective geometries over GF(q) and structure-aware factorizations.

A simple matroid represented over GF(q) is a set of points of the
projective geometry PG(r-1, q) of the same rank.  A point is named by
its packed echelon row (:meth:`GF.normalize`): a nonzero vector of
GF(q)**r scaled to 1 at its first nonzero coordinate and packed into
one int (:mod:`matzero.gfq`).  Once a matroid is embedded, its packed
columns are its points, and the module uses linear algebra on those
rows to do two things the bare matroid cannot:

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

from .charpoly import (
    ZERO,
    IntPoly,
    _chi_from_rows,
    _pg_closed_form,
    cp_delete_contract,
    lam_minus_one_power,
    poly_exact_div,
)
from .errors import (
    ArgumentError,
    NeckNotFilledError,
    NotInTreeError,
    NotLinearError,
    NotModularError,
    PointCollisionError,
    TooLargeError,
)
from .gfq import GF, _integer, factor_prime_power, gf
from .matroid import (
    LinearMatroid,
    Matroid,
    MinorMatroid,
    _standard_rows,
    mask_bits,
    mask_of,
    ranks_agree,
    require_simple,
)
from .treedecomp import TreeDecomposition

MAX_POINTS = 4096


def pg_point_count(r: int, q: int) -> int:
    """The number of points of PG(r-1, q), 0 at r = 0; a negative rank,
    an order below 2 or one that is not a prime power raises
    :class:`ArgumentError`, the last as :func:`pg_build` does, and so
    does a non-integer rank or order."""
    r, q = _integer(r, "rank"), _integer(q, "field order")
    if r < 0 or q < 2:
        raise ArgumentError(f"a point count needs r >= 0 and q >= 2, got r={r}, q={q}")
    factor_prime_power(q)
    return (q ** r - 1) // (q - 1)


def pg_build(r: int, q) -> tuple[tuple[int, ...], ...]:
    """The points of PG(r-1, q) as coordinate tuples: the nonzero
    vectors of GF(q)**r whose first nonzero coordinate is 1, in
    lexicographic order.  ``q`` is an order or a field."""
    q = (q if isinstance(q, GF) else gf(q)).q
    if r < 1:
        raise ArgumentError("a projective geometry needs rank at least 1")
    if pg_point_count(r, q) > MAX_POINTS:
        raise TooLargeError(
            f"PG({r - 1}, {q}) has {pg_point_count(r, q)} points, over the cap {MAX_POINTS}"
        )
    return tuple(
        (0,) * lead + (1,) + rest
        for lead in reversed(range(r))
        for rest in product(range(q), repeat=r - 1 - lead)
    )


def embed(m: Matroid) -> LinearMatroid:
    """A simple matrix-backed matroid as a set of points of PG(r-1, q),
    r = r(M): the base matroid, of height r and with every column scaled
    to 1 at its first nonzero entry, so that its packed columns are its
    points' echelon rows.  Element order and labels are kept.  A matrix
    taller than its rank is read in the coordinates of its standard form
    (:meth:`Matroid._standard_form`), which are already echelon rows."""
    if not isinstance(m, LinearMatroid):
        raise NotLinearError("embedding requires an explicit matrix over GF(q)")
    require_simple(m)
    field, r = m.field, m.full_rank
    vectors = m._points()[2] if m.nrows == r else m._standard_form()[1]
    columns = [field.unpack(v, r) for v in vectors]
    return LinearMatroid(field, columns, m.labels, nrows=r)


@dataclass
class ExtensionMatroid:
    """An embedded base matroid together with extra geometry points.

    The new elements keep their order and carry labels "s<j>", j running
    on from the largest such j among the base's labels, or from "s1".
    Element indices 0..n-1 are the base; n..n+len(added)-1 the points,
    whose packed rows ``added`` lists.
    """

    base: LinearMatroid
    added: tuple[int, ...]
    matroid: LinearMatroid

    @property
    def base_count(self) -> int:
        return self.base.n

    def added_element_ids(self) -> list[int]:
        n = self.base_count
        return list(range(n, n + len(self.added)))


def _points_of(base: LinearMatroid) -> set[int]:
    """The points of an embedded base: its packed columns, which must be
    distinct nonzero echelon rows, as :func:`embed` makes them."""
    packed, normalize = base.packed, base.field.normalize
    points = set(packed)
    if len(points) != base.n or 0 in points or any(normalize(v) != v for v in packed):
        raise ArgumentError("the base must be embedded: distinct nonzero columns leading with 1")
    return points


def _point_coordinates(field: GF, height: int, p) -> tuple[int, ...]:
    """The coordinates of a point given as its packed echelon row."""
    if type(p) is int and p > 0:
        try:
            coords = field.unpack(p, height)
        except KeyError:  # a digit that encodes no field element
            pass
        else:
            if field.pack(coords) == p and field.normalize(p) == p:
                return coords
    raise ArgumentError(
        f"{p!r} is not a point of PG({height - 1}, {field.q}): "
        f"not a nonzero packed echelon row of height {height}"
    )


def extend(base: LinearMatroid, points) -> ExtensionMatroid:
    """Adjoin points of the base's geometry, given as packed echelon
    rows of its height, as new elements of an embedded base, labelled
    as :class:`ExtensionMatroid` says.  Anything else raises
    :class:`ArgumentError`; a point that is already an element, or is
    given twice, raises :class:`PointCollisionError`."""
    image = _points_of(base)
    points = tuple(points)
    field, height = base.field, base.nrows
    columns = [_point_coordinates(field, height, p) for p in points]
    for p in points:
        if p in image:
            raise PointCollisionError(f"point {p} is already an element")
    if len(set(points)) != len(points):
        raise PointCollisionError("duplicate extension points")
    used = max((int(lab[1:]) for lab in base.labels
                if isinstance(lab, str) and lab[:1] == "s" and lab[1:].isdecimal()), default=0)
    labels = tuple(base.labels) + tuple(f"s{used + i}" for i in range(1, len(points) + 1))
    matroid = LinearMatroid(field, base.columns + tuple(columns), labels, nrows=height)
    return ExtensionMatroid(base, points, matroid)


def neck_of_edge(
    base: LinearMatroid, dec: TreeDecomposition, edge
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Points shared by the spans of the two sides displayed by an edge.

    Returns (neck, external): both sorted tuples of packed echelon rows,
    ``external`` being the neck points that are not elements of the
    embedded base.  The neck is itself a full projective subgeometry, so
    its size is always (q**d - 1)/(q - 1), d the dimension of the
    intersection of the spans.  :func:`path_necks` gives the same for
    every edge of a path at once.
    """
    if dec.matroid is not base:
        raise ArgumentError("the decomposition must decompose the embedded base matroid")
    image = _points_of(base)
    packed = base.packed
    du, dw = dec.displayed_sets_edge(edge)
    return _neck(
        base.field, base.nrows, image,
        [packed[e] for e in mask_bits(du)], [packed[e] for e in mask_bits(dw)],
    )


def path_necks(
    base: LinearMatroid, dec: TreeDecomposition
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """:func:`neck_of_edge` for every edge of a decomposition whose tree
    is a path, in the order of ``dec.tree.edges``; any other tree raises
    :class:`ArgumentError`.  The decomposition, the embedded base and
    the tree are checked in that order before any edge is read, so a
    tree of one vertex, which has no edge, still has its base checked."""
    if dec.matroid is not base:
        raise ArgumentError("the decomposition must decompose the embedded base matroid")
    _points_of(base)
    tree = dec.tree
    if any(tree.degree(v) > 2 for v in range(tree.num_vertices)):
        raise ArgumentError("the neck sweep needs a decomposition whose tree is a path")
    return [neck_of_edge(base, dec, edge) for edge in tree.edges]


def _neck(field: GF, height: int, image, us, ws) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(neck, external) for the spans of the packed rows ``us`` and
    ``ws`` of ``height`` digits over ``field``, ``external`` being the
    neck points not in ``image``.

    Zassenhaus' algorithm finds the intersection in one echelon call:
    stack (u | u) for every u of one side and (w | 0) for every w of the
    other, the low half eliminated first; the rows left with a zero low
    half span the intersection in their high halves.  Its points are the
    combinations of those d rows with a leading coefficient of 1
    (:meth:`GF.span_points`), normalized; more than ``MAX_POINTS`` of
    them raise :class:`TooLargeError` before any is listed.
    """
    shift = height * field.width
    stacked = [u | u << shift for u in us]
    stacked += ws
    low = (1 << shift) - 1
    common = [row >> shift for row in field.echelon(stacked) if not row & low]
    if not common:
        return (), ()
    count = pg_point_count(len(common), field.q)
    if count > MAX_POINTS:
        raise TooLargeError(
            f"PG({len(common) - 1}, {field.q}) has {count} points, over the cap {MAX_POINTS}"
        )
    neck = sorted(map(field.normalize, field.span_points(common)))
    return tuple(neck), tuple(p for p in neck if p not in image)


def _path_neck_sizes(
    field: GF, rows
) -> tuple[int, list[tuple[int, int, int, int, int]], list[tuple[int, int]], list[int]]:
    """The neck table of the path of singleton bags in element order
    over the standard-form ``rows`` of a simple matroid
    (:meth:`Matroid._standard_form`): for every edge, the external neck
    size that :func:`path_necks` finds for the base of their matroid and
    ``heuristic_decomposition(base, "path")``, with no intersection
    taken.  Edge i displays the elements 0..i against i+1..n-1.

    The unit rows are the first basis in element order, and a standard
    form of the rows in reverse (:func:`matroid._standard_rows`) gives
    the last.  Digit j of a coordinate row belongs to the j-th element
    of its pass's first basis, and the basis elements among 0..i span
    the prefix, so a point lies in the prefix span of edge i exactly
    when the last basis element its forward coordinates use is at most
    i, and that span's rank is the number of basis elements up to i.
    The suffix is read the same way from the reverse pass.  Every
    element lies in one span or both, so of the ``in_a`` elements in
    the prefix span and the ``in_b`` in the suffix span, in_a + in_b - n
    lie in both.  The neck has (q**d - 1)/(q - 1) points for the
    dimension d of the intersection of the two spans, and the external
    ones are those that are no element lying in both.

    Returns (L, edges, reach, backward): the mask L of the reverse
    pass's first basis; for each edge the record (size, ahead, behind,
    in_a, in_b) of its external neck size, the ranks of the prefix and
    the suffix span and the elements in each; for each element the pair
    (lo, hi) such that it lies in the prefix span of edge i exactly when
    lo <= i and in the suffix span exactly when i < hi; and the reverse
    pass's coordinate rows, in reverse element order.
    """
    n, width, q = len(rows), field.width, field.q
    first = [e for e, row in enumerate(rows) if not row & row - 1]  # unit rows are one bit
    rank = len(first)
    rmask, backward = _standard_rows(field, rank, rows[::-1])
    last = [n - 1 - b for b in mask_bits(rmask)]
    starts, ends = [0] * n, [0] * n  # elements by the lo and the hi of their reach
    reach = []
    for row, back in zip(rows, reversed(backward)):
        lo, hi = first[(row.bit_length() - 1) // width], last[(back.bit_length() - 1) // width]
        reach.append((lo, hi))
        starts[lo] += 1
        ends[hi] += 1
    bmask, lmask = mask_of(first), mask_of(last)
    edges = []
    ahead = in_a = 0
    behind, in_b = rank, n
    for i in range(n - 1):
        ahead += bmask >> i & 1
        behind -= lmask >> i & 1
        in_a += starts[i]
        in_b -= ends[i]
        size = (q ** (ahead + behind - rank) - 1) // (q - 1) - (in_a + in_b - n)
        edges.append((size, ahead, behind, in_a, in_b))
    return lmask, edges, reach, backward


def _chi_by_splits(field: GF, rows, rank: int) -> IntPoly:
    """chi of the matroid of the standard-form ``rows`` of rank ``rank``
    over ``field`` (:meth:`Matroid._standard_form`), split along direct
    sums and filled necks of the element-order path down to pieces the
    leaf (:func:`charpoly._chi_from_rows`) computes.

    A matroid that the leaf reads off a table, of rank below 3 or of a
    rank whose subspace table the field keeps (:meth:`GF.subspaces`,
    PG(rank - 1, q) within ``gfq.MAX_TABLE_POINTS``), goes there at once,
    before any support, component or neck is computed.  Any other is
    split, so deletion-contraction runs only on a piece above the table
    cap with no filled neck.  With a loop chi is zero, and parallel rows
    are dropped.

    Direct sums: the digits that one non-unit row is nonzero at belong
    to one component, and the components are the classes of digits
    joined that way (the fundamental graph of the first basis; Oxley,
    *Matroid Theory*, ch. 4).  A digit that no non-unit row uses is a
    coloop.  chi is (lam - 1)**coloops times the chi of each component.
    A component's rows keep a unit row for each of its digits and are
    zero at every other, which the table reads in any coordinates, so a
    component of a table rank keeps its digits as they are; a larger one
    is put in a standard form of its own (:func:`matroid._standard_rows`)
    first.

    Filled necks: on a connected matroid, an edge i of the element-order
    path (:func:`_path_neck_sizes`) whose neck has dimension d >= 1, no
    external point and two sides of rank below r splits it.  Side A is
    the prefix with the neck's elements in the suffix, side B the suffix
    with those in the prefix; A and B meet in the neck C, the spans of A
    and B meet in span(C) alone, and C has every point of span(C).  So
    span(C) is a modular flat, as in :func:`harness._split_chi`, and
    chi = chi(A) chi(B) / chi(C) (Brylawski, *Modular constructions for
    combinatorial geometries*, 1975), with chi(C) that of PG(d - 1, q).
    Of the edges that qualify the one with the fewest elements on its
    larger side is taken, the lowest on a tie; the neck sizes, the
    sides' ranks and their sizes are all read off the neck table of
    :func:`_path_neck_sizes`.  A remainder in the division can only come
    from a wrong chi, and raises :class:`InexactDivisionError`.  With
    no edge that qualifies the leaf computes chi.

    Both sides are already standard forms: side A, the elements whose
    forward coordinates use only basis elements up to i, holds the unit
    rows of the first digits and no other digit; side B, in reverse
    element order, is the same in the coordinates of the reverse pass,
    whose rows :func:`_path_neck_sizes` returns.  So no side runs an
    elimination pass.
    """
    if rank < 3 or field.subspaces(rank) is not None:
        return _chi_from_rows(field, rows, rank)
    if 0 in rows:
        return ZERO
    rows = list(dict.fromkeys(rows))
    width = field.width
    low = ((1 << rank * width) - 1) // ((1 << width) - 1)  # bit 0 of every digit
    high = low << width - 1
    # the top bit of each digit of ((v | high) - low) | v is set exactly
    # where v is nonzero
    supports = [((row | high) - low | row) & high for row in rows]
    parts: list[int] = []
    for support in supports:
        if support & support - 1:  # a non-unit row
            joined = support
            for part in parts:
                if part & support:
                    joined |= part
            parts = [part for part in parts if not part & support] + [joined]
    coloops = rank - sum(part.bit_count() for part in parts)
    if coloops or len(parts) > 1:
        chi = lam_minus_one_power(coloops)
        for part in parts:
            piece = [row for row, support in zip(rows, supports) if support & part]
            prank = part.bit_count()
            if prank > 2 and field.subspaces(prank) is None:
                piece = _standard_rows(field, rank, piece)[1]
            chi = chi * _chi_by_splits(field, piece, prank)
        return chi
    # connected, so the two spans of every edge meet in d >= 1 dimensions
    _, edges, reach, backward = _path_neck_sizes(field, rows)
    best = min(
        ((max(in_a, in_b), i, ahead, behind)
         for i, (size, ahead, behind, in_a, in_b) in enumerate(edges)
         if not size and ahead < rank and behind < rank),
        default=None,
    )
    if best is None:
        return _chi_from_rows(field, rows, rank)
    _, i, ahead, behind = best
    side_a = [row for row, (lo, _) in zip(rows, reach) if lo <= i]
    side_b = [back for back, (_, hi) in zip(backward, reversed(reach)) if hi > i]
    chi = _chi_by_splits(field, side_a, ahead) * _chi_by_splits(field, side_b, behind)
    return poly_exact_div(chi, _pg_closed_form(ahead + behind - rank, field.q))


def _telescoping_terms(field: GF, rows, room: int) -> list[tuple[list, int]] | None:
    """The rows of the telescoping expansion of the simple matroid of the
    standard-form ``rows`` along its fattest external path neck, as
    (rows, rank) pairs in the standard form that
    :func:`charpoly._chi_from_rows` reads: the extension first, then one
    contraction per added point, in the order of
    :func:`telescoping_expansion`.

    The base is the matroid of the rows, as :func:`embed` reads a tall
    matrix.  The neck is that of the first edge of the element-order
    path with the most external points, at most ``room`` of them, as
    :func:`path_necks` and :func:`extend` would list and add them; only
    that one neck is intersected (:func:`_neck`).  The extension keeps
    a unit row per digit, and projecting along an added point kills its
    pivot digit and leaves every other unit row as it is, so one
    :meth:`GF.project` call gives each contraction in standard form.
    Returns None when no edge has at most ``room`` external points.
    """
    lmask, edges, _, _ = _path_neck_sizes(field, rows)
    sizes = [size for size, *_ in edges]
    fits = [i for i, size in enumerate(sizes) if size <= room]
    if not fits:
        return None
    i = max(fits, key=sizes.__getitem__)
    rank = lmask.bit_count()
    # the forward basis elements up to i span the prefix, the reverse
    # basis elements after i the suffix
    ahead = [row for row in rows[:i + 1] if not row & row - 1]
    behind = [rows[e] for e in mask_bits(lmask >> i + 1 << i + 1)]
    _, external = _neck(field, rank, set(rows), ahead, behind)
    terms = [(rows + list(external), rank)]
    for j, point in enumerate(external):
        terms.append((field.project(rows + list(external[:j]), point), rank - 1))
    return terms


def _telescoped_chi(field: GF, rows, room: int) -> IntPoly | None:
    """The sum of the chi of the :func:`_telescoping_terms`, each by the
    leaf (:func:`charpoly._chi_from_rows`),
    which gives back chi of the matroid of the standard-form ``rows``;
    None when no path neck has at most ``room`` external points."""
    terms = _telescoping_terms(field, rows, room)
    if terms is None:
        return None
    return sum((_chi_from_rows(field, term, rank) for term, rank in terms), ZERO)


def induced_decomposition(ext: ExtensionMatroid, dec: TreeDecomposition, edge) -> TreeDecomposition:
    """Carry a decomposition of the base over to the extension: the new
    elements all join the bag of u, for the edge (u, w) whose neck they
    fill, which leaves every node width unchanged."""
    if dec.matroid is not ext.base:
        raise ArgumentError("the decomposition must decompose the embedded base matroid")
    u, w = edge
    if not dec.tree.has_edge(u, w):
        raise NotInTreeError(f"edge ({u}, {w}) is not in the tree")
    assignment = list(dec.assignment) + [u] * len(ext.added)
    return TreeDecomposition(ext.matroid, dec.tree, assignment)


def is_modular_flat(m: Matroid, flat_mask: int) -> bool:
    """Whether a flat F satisfies r(F) + r(X) = r(F v X) + r(F ^ X) for
    every flat X; verified against the full lattice of flats."""
    levels = m._flat_lattice()
    rf = m.rank_mask(flat_mask)
    for rx, level in enumerate(levels):
        for x in level:
            if rf + rx != m.rank_mask(flat_mask | x) + m.rank_mask(flat_mask & x):
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
    base = ext.base
    if dec.matroid is not base:
        raise ArgumentError("the decomposition must decompose the embedded base matroid")
    u, w = edge
    if dec.tree.degree(w) != 1:
        if dec.tree.degree(u) == 1:
            u, w = w, u
        else:
            raise ArgumentError("the split edge must touch a leaf")
    neck, _external = neck_of_edge(base, dec, (u, w))
    element_of = {p: e for e, p in enumerate(ext.matroid.packed)}
    neck_ids = []
    for p in neck:
        e = element_of.get(p)
        if e is None:
            raise NeckNotFilledError(
                f"neck point {p} is not an element; extend by the external neck first"
            )
        neck_ids.append(e)
    neck_mask = mask_of(neck_ids)
    ew_mask = dec.bag(w)  # leaf bag, as base elements; ids agree in the extension
    big = ext.matroid
    keep = ew_mask | neck_mask
    m1 = big.restrict(keep)
    m2 = big.delete(ew_mask & ~neck_mask)
    npart = big.restrict(neck_mask)
    # the neck spans a modular flat of M1, where element e of the
    # extension sits after the kept elements below it
    local_neck = mask_of((keep & ((1 << e) - 1)).bit_count() for e in neck_ids)
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
    # each piece restricted to the shared labels in m1's order; restrict
    # would keep each piece's own element order
    order = [lab for lab in m1.labels if lab in shared]
    r1, r2, rc = (MinorMatroid(m, [m.labels.index(lab) for lab in order], 0)
                  for m in (m1, m2, common))
    if not (ranks_agree(r1, r2) and ranks_agree(r1, rc)):
        raise ArgumentError("the pieces disagree on their common ground set")
    flat1 = m1.closure_mask(mask_of(i for i, lab in enumerate(m1.labels) if lab in shared))
    if not is_modular_flat(m1, flat1):
        raise NotModularError("the common flat is not modular in the first piece")
    num = cp_delete_contract(m1) * cp_delete_contract(m2)
    return poly_exact_div(num, cp_delete_contract(common))


def telescoping_expansion(ext: ExtensionMatroid) -> list[tuple[Matroid, str]]:
    """Rewrite the base polynomial through the extension:

        chi(M) = chi(M + s1..sn) + sum_i chi((M + s1..si) / si)

    Returns the terms as (matroid, role) pairs, the full extension first
    and then one contraction per added point, in order, as the role
    "contract:" and the point's label.  Summing the characteristic
    polynomials of the listed matroids gives back the characteristic
    polynomial of the embedded base exactly, whatever order the points
    were adjoined in.  M + s1..si is the extension with the later points
    deleted, so every term is a minor of ``ext.matroid``.
    """
    big, n, k = ext.matroid, ext.base_count, len(ext.added)
    terms: list[tuple[Matroid, str]] = [(big, "extension")]
    for i in range(k):
        later = range(n + i + 1, n + k)
        terms.append((big.minor(delete=later, contract=[n + i]), f"contract:{big.labels[n + i]}"))
    return terms
