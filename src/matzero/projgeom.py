"""Projective geometries over GF(q) and structure-aware factorizations.

A simple matroid represented over GF(q) is a set of points of the
projective geometry PG(r-1, q) of the same rank.  A point is named by
its packed echelon row (:meth:`GF.normalize`): a nonzero vector of
GF(q)**r scaled to 1 at its first nonzero coordinate and packed into
one int (:mod:`matzero.gfq`).  Once a matroid is embedded, its packed
columns are its points, and the module uses linear algebra on those
rows to do two things the bare matroid cannot:

* locate the *neck* of a tree-decomposition edge, the points common to
  the spans of the two displayed sides, or of every edge of a path in
  one sweep, and fill its missing points in by extending the matroid;
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
    cp_delete_contract,
    cp_pg_closed_form,
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
from .gfq import GF, gf
from .matroid import (
    MAX_BRYLAWSKI_SHARED,
    LinearMatroid,
    Matroid,
    _standard_rows,
    mask_bits,
    mask_of,
    require_simple,
)
from .treedecomp import TreeDecomposition

MAX_POINTS = 4096
# a matroid of lower rank, or given by fewer rows, goes to the
# deletion-contraction recursion with no split tried (_chi_by_splits)
SPLIT_MIN_RANK = 6
SPLIT_MIN_POINTS = 10


def pg_point_count(r: int, q: int) -> int:
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

    The new elements keep their order and carry labels "s1", "s2", ...
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
    rows of its height, as new elements of an embedded base.  Anything
    else raises :class:`ArgumentError`; a point that is already an
    element, or is given twice, raises :class:`PointCollisionError`."""
    image = _points_of(base)
    points = tuple(points)
    field, height = base.field, base.nrows
    columns = [_point_coordinates(field, height, p) for p in points]
    for p in points:
        if p in image:
            raise PointCollisionError(f"point {p} is already an element")
    if len(set(points)) != len(points):
        raise PointCollisionError("duplicate extension points")
    labels = tuple(base.labels) + tuple(f"s{i + 1}" for i in range(len(points)))
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
    :class:`ArgumentError`.

    Along the path v_0, ..., v_l the sides of the edge v_i v_(i+1) are
    the bags of v_0..v_i and of v_(i+1)..v_l.  One elimination forward
    and one backward over the bags give an echelon basis of every
    prefix and every suffix span, at most r rows each, and the
    intersection is taken of those two bases; an edge whose two spans
    have ranks summing to r(M) has an empty neck and is not intersected.
    The base is checked once for all edges."""
    if dec.matroid is not base:
        raise ArgumentError("the decomposition must decompose the embedded base matroid")
    image = _points_of(base)
    tree = dec.tree
    if any(tree.degree(v) > 2 for v in range(tree.num_vertices)):
        raise ArgumentError("the neck sweep needs a decomposition whose tree is a path")
    if tree.num_vertices == 1:
        return []
    order = [tree.leaves()[0]]
    while len(order) < tree.num_vertices:
        order.append(next(y for y in tree.adj[order[-1]] if y not in order[-2:]))
    field, packed, bags = base.field, base.packed, dec.bags()

    def spans(vertices) -> tuple[list[int], list[int]]:
        # the echelon rows of the bags in turn, and how many of them
        # the bags up to each vertex give
        basis: list[int] = []
        counts = [len(field.echelon_into(basis, [packed[e] for e in mask_bits(bags[v])]))
                  for v in vertices]
        return basis, counts

    forward, ahead = spans(order)
    backward, behind = spans(order[:0:-1])
    necks = {}
    for u, w, k, j in zip(order, order[1:], ahead, reversed(behind)):
        necks[min(u, w), max(u, w)] = (
            _neck(field, base.nrows, image, forward[:k], backward[:j])
            if k + j > len(forward) else ((), ())
        )
    return [necks[edge] for edge in tree.edges]


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


def _path_neck_sizes(field: GF, rows) -> tuple[int, list[int], list[tuple[int, int]]]:
    """The external neck size of every edge of the path of singleton
    bags in element order over the standard-form ``rows`` of a simple
    matroid (:meth:`Matroid._standard_form`): what :func:`path_necks`
    finds for the base of their matroid and
    ``heuristic_decomposition(base, "path")``, with no intersection
    taken.  Edge i displays the elements 0..i against i+1..n-1.

    The unit rows are the first basis in element order, and a standard
    form of the rows in reverse (:func:`matroid._standard_rows`) gives
    the last.  Digit j of a coordinate row belongs to the j-th element
    of its pass's first basis, and the basis elements among 0..i span
    the prefix, so a point lies in the prefix span of edge i exactly
    when the last basis element its forward coordinates use is at most
    i, and that span's rank is the number of basis elements up to i.
    The suffix is read the same way from the reverse pass.  The neck
    has (q**d - 1)/(q - 1) points for the dimension d of the
    intersection of the two spans, and the external ones are those that
    are no element lying in both.

    Returns (L, sizes, reach): the mask L of the reverse pass's first
    basis, the size for each edge, and for each element the pair
    (lo, hi) such that it lies in the prefix span of edge i exactly
    when lo <= i and in the suffix span exactly when i < hi.
    """
    n, width = len(rows), field.width
    first = [e for e, row in enumerate(rows) if not row & row - 1]  # unit rows are one bit
    rank = len(first)
    rmask, backward = _standard_rows(field, rank, rows[::-1])
    last = [n - 1 - b for b in mask_bits(rmask)]
    # an element lies in both spans at the edges from the last basis
    # element its forward coordinates use up to, not including, the
    # first one its backward coordinates use
    enters = [0] * n
    reach = []
    for row, back in zip(rows, reversed(backward)):
        lo, hi = first[(row.bit_length() - 1) // width], last[(back.bit_length() - 1) // width]
        reach.append((lo, hi))
        if lo < hi:
            enters[lo] += 1
            enters[hi] -= 1
    bmask, lmask = mask_of(first), mask_of(last)
    sizes = []
    both = ahead = 0
    behind = rank
    for i in range(n - 1):
        both += enters[i]
        ahead += bmask >> i & 1
        behind -= lmask >> i & 1
        sizes.append(pg_point_count(ahead + behind - rank, field.q) - both)
    return lmask, sizes, reach


def _chi_by_splits(field: GF, rows, rank: int) -> IntPoly:
    """chi of the matroid of the standard-form ``rows`` of rank ``rank``
    over ``field`` (:meth:`Matroid._standard_form`), split along direct
    sums and filled necks of the element-order path down to pieces the
    deletion-contraction recursion (:func:`charpoly._chi_from_rows`)
    computes.

    A matroid of rank below ``SPLIT_MIN_RANK``, or given by fewer than
    ``SPLIT_MIN_POINTS`` rows, goes to the recursion at once, before any
    support, component or neck is computed: on such small pieces the
    split costs more than it saves.  Otherwise, with a loop chi is zero,
    and parallel rows are dropped.

    Direct sums: the digits that one non-unit row is nonzero at belong
    to one component, and the components are the classes of digits
    joined that way (the fundamental graph of the first basis; Oxley,
    *Matroid Theory*, ch. 4).  A digit that no non-unit row uses is a
    coloop.  chi is (lam - 1)**coloops times the chi of each component,
    each put in a standard form of its own (:func:`matroid._standard_rows`).

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
    larger side is taken.  A remainder in the division can only come
    from a wrong chi, and raises :class:`InexactDivisionError`.  With
    no edge that qualifies the recursion computes chi.
    """
    if rank < SPLIT_MIN_RANK or len(rows) < SPLIT_MIN_POINTS:
        return _chi_from_rows(field.project, rows, rank)
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
            chi = chi * _chi_of_piece(field, rank, piece)
        return chi
    # connected, so the two spans of every edge meet in d >= 1 dimensions
    lmask, sizes, reach = _path_neck_sizes(field, rows)
    best = None
    ahead, behind = 0, rank
    for i, size in enumerate(sizes):
        ahead += not rows[i] & rows[i] - 1
        behind -= lmask >> i & 1
        if not size and ahead < rank and behind < rank:
            larger = max(sum(lo <= i for lo, _ in reach), sum(hi > i for _, hi in reach))
            if best is None or larger < best[0]:
                best = larger, i, ahead + behind - rank
    if best is None:
        return _chi_from_rows(field.project, rows, rank)
    _, i, d = best
    chi_a = _chi_of_piece(field, rank, [row for row, (lo, _) in zip(rows, reach) if lo <= i])
    chi_b = _chi_of_piece(field, rank, [row for row, (_, hi) in zip(rows, reach) if hi > i])
    return poly_exact_div(chi_a * chi_b, cp_pg_closed_form(d, field.q))


def _chi_of_piece(field: GF, height: int, rows) -> IntPoly:
    """:func:`_chi_by_splits` of the matroid of some of a standard
    form's ``rows``, of ``height`` digits, put in a standard form of its
    own first."""
    bmask, rows = _standard_rows(field, height, rows)
    return _chi_by_splits(field, rows, bmask.bit_count())


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
    lmask, sizes, _ = _path_neck_sizes(field, rows)
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
    deletion-contraction recursion (:func:`charpoly._chi_from_rows`),
    which gives back chi of the matroid of the standard-form ``rows``;
    None when no path neck has at most ``room`` external points."""
    terms = _telescoping_terms(field, rows, room)
    if terms is None:
        return None
    return sum((_chi_from_rows(field.project, term, rank) for term, rank in terms), ZERO)


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
    order the points were adjoined in.  M + s1..si is the extension
    with the later points deleted, so every term is a minor of
    ``ext.matroid``.
    """
    big, n, k = ext.matroid, ext.base_count, len(ext.added)
    terms: list[tuple[Matroid, str]] = [(big, "extension")]
    for i in range(k):
        later = range(n + i + 1, n + k)
        terms.append((big.minor(delete=later, contract=[n + i]), f"contract:s{i + 1}"))
    return terms
