"""Matroids on ground sets of at most 24 elements.

Subsets of the ground set are machine-word bitmasks: bit ``i`` stands
for element ``i``.  Public methods also accept iterables of element
indices and convert them.  Matroids are immutable and keep no rank
but r(M); every other rank and every closure is read off their points.

Three backends are provided: explicit matrices over a small finite
field (:class:`LinearMatroid`), uniform matroids, and graphic matroids
of multigraphs.  A minor of any of them, or of a minor, is a
:class:`MinorMatroid`.  Every root has a matrix (:meth:`Matroid.matrix`):
a graphic matroid its GF(2) incidence matrix, U_{r,n} a normal rational
curve.  So every matroid, root or minor, is a set of points
(:meth:`Matroid._points`): a root's are the columns of its matrix, and
a minor's are its parent's points reduced modulo the span of the ones
it contracts, so that contracting a set costs the size of that set, not
the depth of the chain of minors above it.  Its ranks, loops, coloops,
parallel classes and flats are read from those points, and so is
deletion-contraction in :mod:`matzero.charpoly`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .errors import (
    ArgumentError,
    HasLoopError,
    NotLinearError,
    NotSimpleError,
    OrderTooLargeError,
    ParseError,
    RankZeroError,
    TooLargeError,
)
from .gfq import GF, _integer, _integers, factor_prime_power, gf

MAX_GROUND = 24
MAX_FLATS = 2_000_000
# exhaustive checks that ask the rank of every subset (README, "Size caps")
MAX_RANKS_TABLE = 20
MAX_RANKS_AGREE = 16


def as_mask(n: int, subset) -> int:
    """Normalize a subset argument (bitmask or iterable of indices); an
    element that is not an integer raises :class:`ArgumentError`."""
    if isinstance(subset, int):
        if subset < 0 or subset >= (1 << n):
            raise ArgumentError(f"mask {subset} out of range for a {n}-element ground set")
        return subset
    mask = 0
    for e in _integers(subset, "an element"):
        if not 0 <= e < n:
            raise ArgumentError(f"element {e} out of range for a {n}-element ground set")
        mask |= 1 << e
    return mask


def mask_bits(mask: int):
    """Yield the element indices present in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


@dataclass(frozen=True)
class FlatRecord:
    """One flat of a matroid: its element mask, rank, and Mobius value
    relative to the bottom of the lattice of flats."""

    mask: int
    rank: int
    mobius: int

    def elements(self) -> tuple[int, ...]:
        return tuple(mask_bits(self.mask))


class Matroid:
    """Abstract base.  A root subclass gives its matrix (:meth:`matrix`);
    every query reads the points (:meth:`_points`) taken from it."""

    n: int
    labels: tuple

    def _init_common(self, n: int, labels):
        if n > MAX_GROUND:
            raise TooLargeError(f"ground sets are capped at {MAX_GROUND} elements, got {n}")
        self.n = n
        self.full_mask = (1 << n) - 1
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise ArgumentError("labels must match the ground set size")
        self._full_rank: int | None = None  # r(M), once known
        self._matrix: LinearMatroid | None = None
        self._point_rows: tuple | None = None

    @property
    def root(self) -> "Matroid":
        """The matroid whose matrix this one's points come from: itself
        for a root, the root of its parent for a minor."""
        return self

    def _points(self) -> tuple:
        """(field, height, rows) of the root's matrix, ``rows[e]`` the
        point of element e: a root's column scaled to 1 at its first
        nonzero entry, an echelon row (:meth:`GF.normalize`), and for a
        minor the same for the root's column reduced modulo the span of
        the contracted columns (:class:`MinorMatroid`).  These rows
        represent this matroid: a loop gives 0, two elements are
        parallel exactly when their rows are equal, and a set has the
        rank of its rows.  (Oxley, *Matroid Theory*, ch. 6: contracting
        a represented element projects every other column away from its
        vector.)  A root builds them on the first call and keeps them."""
        if self._point_rows is None:
            mat = self.matrix()
            field = mat.field
            self._point_rows = field, mat.nrows, tuple(map(field.normalize, mat.packed))
        return self._point_rows

    def _standard_form(self) -> tuple[int, list[int]]:
        """A standard representation [I_r | D] (Oxley, *Matroid Theory*)
        of this matroid: :func:`_standard_rows` of its points."""
        return _standard_rows(*self._points())

    # -- rank and closure -----------------------------------------------------

    def rank_mask(self, mask: int) -> int:
        """The rank of the points (:meth:`_points`) of ``mask``, by one
        :meth:`GF.echelon` pass.  Only r(M) is kept, computed on its first
        call or handed over by the path scorers of :mod:`treedecomp`."""
        full = mask == self.full_mask
        if full and self._full_rank is not None:
            return self._full_rank
        field, _, rows = self._points()
        rank = len(field.echelon(rows[e] for e in mask_bits(mask)))
        if full:
            self._full_rank = rank
        return rank

    def rank(self, subset) -> int:
        return self.rank_mask(as_mask(self.n, subset))

    def matrix(self) -> "LinearMatroid":
        """A matrix whose column matroid is this one, element for
        element; built on the first call and kept."""
        if self._matrix is None:
            self._matrix = self._build_matrix()
        return self._matrix

    @property
    def full_rank(self) -> int:
        return self.rank_mask(self.full_mask)

    def closure_mask(self, mask: int) -> int:
        """cl(``mask``): ``mask`` and the elements whose points
        (:meth:`_points`) :func:`_contracted` projects to zero modulo the
        span of the points of ``mask``.  No rank is asked."""
        field, _, rows = self._points()
        outside = list(mask_bits(self.full_mask & ~mask))
        points = _contracted(field, rows, outside, mask)
        return mask | mask_of(e for e, point in zip(outside, points) if not point)

    def closure(self, subset) -> tuple[int, ...]:
        return tuple(mask_bits(self.closure_mask(as_mask(self.n, subset))))

    # -- loops, parallelism, simplification ------------------------------------

    def loops_mask(self) -> int:
        """The elements whose points (:meth:`_points`) are zero."""
        return mask_of(e for e, row in enumerate(self._points()[2]) if not row)

    def coloops_mask(self) -> int:
        """The elements e with r(E - e) < r(M), from one elimination pass
        (:meth:`_standard_form`) and no rank query (:func:`_coloops`)."""
        return _coloops(self._points()[0], *self._standard_form())

    def is_loopless(self) -> bool:
        return self.loops_mask() == 0

    def parallel_classes(self) -> list[tuple[int, ...]]:
        """Partition of a loopless ground set into parallel classes: the
        rank-1 flats, in order of their lowest element."""
        if self.loops_mask():
            raise HasLoopError("parallel classes are only defined for loopless matroids")
        return [tuple(mask_bits(c)) for c in _quotient_covers(self, 0, None)]

    def is_simple(self) -> bool:
        return not self.loops_mask() and len(_quotient_covers(self, 0, None)) == self.n

    def simplify(self) -> tuple["Matroid", list[tuple[int, ...]]]:
        """Restrict to the lowest-index representative of each parallel
        class.  Returns the simplification and the class partition."""
        classes = self.parallel_classes()
        reps = [c[0] for c in classes]
        return self.restrict(mask_of(reps)), classes

    # -- minors ----------------------------------------------------------------

    def minor(self, delete=(), contract=()) -> "Matroid":
        dmask = as_mask(self.n, delete)
        cmask = as_mask(self.n, contract)
        if dmask & cmask:
            raise ArgumentError("deleted and contracted sets must be disjoint")
        if dmask == 0 and cmask == 0:
            return self
        kept = [e for e in range(self.n) if not (1 << e) & (dmask | cmask)]
        return MinorMatroid(self, kept, cmask)

    def delete(self, subset) -> "Matroid":
        return self.minor(delete=subset)

    def contract(self, subset) -> "Matroid":
        return self.minor(contract=subset)

    def restrict(self, subset) -> "Matroid":
        keep = as_mask(self.n, subset)
        return self.minor(delete=self.full_mask & ~keep)

    # -- flats and the Mobius function ------------------------------------------

    def _flat_lattice(self) -> list[list[int]]:
        """All flats grouped by rank, as masks.

        Level 0 is cl(empty), the loops, and every level is sorted.  The
        walk visits each flat once, one level at a time, and reads the
        flats one rank above it off quotient vectors with no rank query
        (:func:`_quotient_covers`): F carries the points of M/F, and
        each cover G = F + class(p) is handed that dict and p, from
        which it projects the points of M/G along p alone; the next
        level is the union of those covers.  The one cover of a
        hyperplane is the ground set, so it is not computed."""
        bottom = self.loops_mask()
        top = self.full_rank
        levels = [[bottom]]
        carried = {bottom: None}
        count = 1
        for rank in range(top):
            if rank == top - 1:
                nxt = {self.full_mask: None}
            else:
                nxt = {}
                for fmask in levels[-1]:
                    for cover, handed in _quotient_covers(self, fmask, carried[fmask]).items():
                        nxt.setdefault(cover, handed)
            count += len(nxt)
            if count > MAX_FLATS:
                raise TooLargeError(f"flat count exceeds the cap of {MAX_FLATS}")
            levels.append(sorted(nxt))
            carried = nxt
        return levels

    def all_flats_with_mobius(self) -> list[FlatRecord]:
        """Every flat with its Mobius value mu(cl(empty), F), ordered by
        rank then mask.  Requires a loopless matroid."""
        if self.loops_mask():
            raise HasLoopError("the Mobius expansion requires a loopless matroid")
        levels = self._flat_lattice()
        mobius: dict[int, int] = {}
        out: list[FlatRecord] = []
        for rk, level in enumerate(levels):
            for fmask in level:
                if rk == 0:
                    mu = 1
                else:
                    mu = 0
                    for lower in levels[:rk]:
                        for gmask in lower:
                            if gmask & ~fmask == 0:
                                mu -= mobius[gmask]
                mobius[fmask] = mu
                out.append(FlatRecord(fmask, rk, mu))
        return out

    # -- cocircuits ---------------------------------------------------------------

    def hyperplanes(self) -> list[int]:
        """Masks of all rank (r-1) flats, read off :meth:`_flat_lattice`."""
        if self.full_rank == 0:
            raise RankZeroError("a rank-0 matroid has no hyperplanes")
        levels = self._flat_lattice()
        return levels[-2]

    def cocircuits(self) -> list[int]:
        """Masks of all cocircuits (complements of hyperplanes)."""
        return sorted(self.full_mask & ~h for h in self.hyperplanes())

    def find_small_cocircuit(self) -> int:
        """A cocircuit of minimum size, ties broken by smallest mask:
        :func:`_min_cocircuit` of the standard form
        (:meth:`_standard_form`), with no lattice walk.
        :meth:`cocircuits` walks the lattice and lists them all."""
        basis, coordinates = self._standard_form()
        if not basis:
            raise RankZeroError("a rank-0 matroid has no cocircuits")
        return _min_cocircuit(self._points()[0], coordinates)

    # -- long-line minors ----------------------------------------------------------

    def has_line_minor(self, length: int) -> bool:
        """Whether some minor is a rank-2 uniform matroid on ``length``
        elements.

        A minor of a GF(q)-represented matroid is GF(q)-represented, and
        a rank-2 GF(q) matroid has at most q + 1 points, the points of
        PG(1, q) (Oxley, *Matroid Theory*, ch. 6; at q = 2 this is
        Tutte's "no U_{2,4}-minor" characterization of binary
        matroids).  Every matroid's points (:meth:`_points`) lie over the
        field of its root's matrix, so when ``length`` exceeds q + 1 for
        that field the answer is False exactly, not by heuristic, and
        nothing is scanned.  Every other length is answered by
        :meth:`_line_scan`.  A ``length`` that is not an integer raises
        :class:`ArgumentError`."""
        if type(length) is not int:
            length = _integer(length, "line length")
        if length < 2:
            raise ArgumentError(f"line length must be at least 2, got {length}")
        if length > self._points()[0].q + 1:
            return False
        return self._line_scan(length)

    def _line_scan(self, length: int) -> bool:
        """:meth:`has_line_minor` by walking the lattice of flats, for
        any ``length`` of at least 2.

        Every minor is M/C\\D with C independent and D coindependent
        (Oxley, *Matroid Theory*, Lemma 3.3.2), so such a minor exists
        exactly when some flat F of rank r - 2 has at least ``length``
        covers, the points of M/F: contract a basis of F and keep one
        element of each point.  A cover F + class(p) of a flat F loses
        p, so it has at least one point fewer than F, and a flat of rank
        j with fewer than ``length + (r - 2) - j`` covers has no such
        flat above it.  The scan walks up from the loops one level
        at a time, reading covers off quotient points carried down the
        walk (:func:`_quotient_covers`), keeps only the flats that meet
        that bound, and stops at rank r - 2; the flats it visits count
        against ``MAX_FLATS``."""
        top = self.full_rank - 2
        level = {self.loops_mask(): None}
        count = 1
        for rank in range(top + 1):
            nxt: dict = {}
            for fmask, carried in level.items():
                covers = _quotient_covers(self, fmask, carried)
                if len(covers) < length + top - rank:
                    continue
                if rank == top:
                    return True
                for cover, handed in covers.items():
                    nxt.setdefault(cover, handed)
            count += len(nxt)
            if count > MAX_FLATS:
                raise TooLargeError(f"flat count exceeds the cap of {MAX_FLATS}")
            level = nxt
        return False

    # -- misc -------------------------------------------------------------------------

    def ranks_table(self) -> list[int]:
        """Rank of every subset, indexed by mask.  Only for small n."""
        if self.n > MAX_RANKS_TABLE:
            raise TooLargeError(f"full rank tables are limited to {MAX_RANKS_TABLE} elements")
        return [self.rank_mask(m) for m in range(1 << self.n)]

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, r={self.full_rank})"


class LinearMatroid(Matroid):
    """Column matroid of a matrix over a small finite field.  ``columns``
    holds the entries as tuples, for the file format; ``packed`` holds
    the same columns as packed vectors (:mod:`matzero.gfq`), which every
    elimination reads."""

    def __init__(self, field: GF, columns: Sequence[Sequence[int]], labels=None, nrows=None):
        self.field = field
        cols = tuple([_integers(c, "a matrix entry") for c in columns])
        if cols:
            nrows = len(cols[0])
            if any(len(c) != nrows for c in cols):
                raise ArgumentError("all columns must have the same height")
        elif nrows is None:
            nrows = 0
        self.columns = cols
        self.packed = tuple(map(field.pack, cols))
        self.nrows = nrows
        self._init_common(len(cols), labels)

    @classmethod
    def from_rows(cls, field: GF, rows: Sequence[Sequence[int]], labels=None):
        rows = [tuple(r) for r in rows]
        if not rows:
            return cls(field, [], labels, nrows=0)
        if any(len(r) != len(rows[0]) for r in rows):
            raise ArgumentError("all rows must have the same length")
        return cls(field, list(zip(*rows)), labels)

    def rows(self) -> list[list[int]]:
        return [[self.columns[j][i] for j in range(self.n)] for i in range(self.nrows)]

    def matrix(self) -> "LinearMatroid":
        return self


def _smallest_prime_power_at_least(x: int) -> int:
    q = max(2, x)
    while True:
        try:
            factor_prime_power(q)
            return q
        except ValueError:
            q += 1


class UniformMatroid(Matroid):
    """U_{r,n}: every subset of at most r elements is independent."""

    def __init__(self, r: int, n: int, labels=None):
        r, n = _integer(r, "rank"), _integer(n, "element count")
        if r < 0 or r > n:
            raise ArgumentError(f"a uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
        self.r = r
        self._init_common(n, labels)

    def _build_matrix(self) -> LinearMatroid:
        """The normal rational curve: columns (1, t, ..., t**(r-1)) at
        distinct t, plus the point at infinity when n == q + 1, over
        the smallest prime power q >= n - 1; n <= MAX_GROUND keeps q
        within the field cap.  (Oxley, *Matroid Theory*, ch. 6.)  U_{r,r}
        is the identity and U_{1,n} a row of ones over GF(2), and U_{0,n}
        is n zero columns of height 0."""
        r, n = self.r, self.n
        if r == 0:
            return LinearMatroid(gf(2), [()] * n, self.labels, nrows=0)
        if r == 1:
            return LinearMatroid(gf(2), [[1]] * n, self.labels)
        if r == n:
            identity = [[int(i == j) for i in range(r)] for j in range(n)]
            return LinearMatroid(gf(2), identity, self.labels)
        q = _smallest_prime_power_at_least(n - 1)
        F = gf(q)
        cols = [[F.pow(t, i) for i in range(r)] for t in range(min(n, q))]
        if n == q + 1:
            cols.append([0] * (r - 1) + [1])
        return LinearMatroid(F, cols, self.labels)


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph given as an edge list."""

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]], labels=None):
        self.num_vertices, self.edges = self._checked_graph(num_vertices, edges)
        self._init_common(len(self.edges), labels)

    @staticmethod
    def _checked_graph(num_vertices: int, edges) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(vertex count, edges) as ints, uncapped; a count that is not a
        nonnegative integer, or an endpoint that is not an integer or lies
        outside, raises :class:`ArgumentError`."""
        num_vertices = _integer(num_vertices, "a vertex count")
        if num_vertices < 0:
            raise ArgumentError(f"a graph needs a nonnegative vertex count, got {num_vertices}")
        edges = tuple([_integers(edge, "an edge endpoint") for edge in edges])
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ArgumentError(f"edge ({u}, {v}) has an endpoint outside 0..{num_vertices - 1}")
        return num_vertices, edges

    def _build_matrix(self) -> LinearMatroid:
        """The GF(2) incidence matrix, one row per vertex that some edge
        touches, so the height does not grow with ``num_vertices``; a
        loop edge is a zero column."""
        rows = {v: i for i, v in enumerate(sorted({v for edge in self.edges for v in edge}))}
        cols = []
        for u, v in self.edges:
            col = [0] * len(rows)
            col[rows[u]] ^= 1
            col[rows[v]] ^= 1
            cols.append(col)
        return LinearMatroid(gf(2), cols, self.labels, nrows=len(rows))


def _standard_rows(field: GF, height: int, points) -> tuple[int, list[int]]:
    """A standard representation [I_r | D] (Oxley, *Matroid Theory*)
    of the matroid of ``points``, echelon rows of ``height`` digits, from
    one elimination pass over them: (B, coordinates), B the mask of the
    first basis in element order and each element's coordinates in B,
    digit i for the i-th element of B, normalized (:meth:`GF.normalize`):
    a unit row for an element of B, zero for a loop.  Each basis row
    carries a unit in digit h + i, above the h digits of the points, so
    a point that reduces to zero in its first h digits holds minus its
    coordinates in the digits above."""
    reduce, normalize = field.reduce, field.normalize
    width = field.width
    top = height * width
    below = (1 << top) - 1
    basis: list[int] = []
    bmask = 0
    coordinates = []
    for e, v in enumerate(points):
        v = reduce(basis, v)
        if v & below:
            unit = 1 << len(basis) * width
            basis.append(normalize(v | unit << top))
            bmask |= 1 << e
            coordinates.append(unit)
        else:
            coordinates.append(normalize(v >> top))
    return bmask, coordinates


def _coloops(field: GF, bmask: int, coordinates: list[int]) -> int:
    """The coloops of a matroid from its standard form (bmask,
    coordinates) (:func:`_standard_rows`).  A coloop is an element of
    every basis, so it is in the first basis B, and an element b of B is
    a coloop exactly when it lies in no fundamental circuit of B: when
    no element outside B has a nonzero coordinate at b."""
    used = 0
    for e, row in enumerate(coordinates):
        if not bmask >> e & 1:
            used |= row
    digit = (1 << field.width) - 1
    return mask_of(e for e in mask_bits(bmask) if not coordinates[e] * digit & used)


def _delete_contract_rows(field: GF, coordinates: list[int], e: int):
    """The rows of M\\e and M/e, each a list of echelon rows in element
    order, derived from the rows ``coordinates`` of M (a standard form,
    :func:`_standard_rows`) with no minor built and no elimination pass;
    e is neither a loop nor a coloop, so M\\e keeps M's rank r and M/e
    has rank r - 1.

    M\\e is the rows without e's, in M's coordinates: e is no coloop, so
    the others still span them, even when e's row is the only unit row
    at its digit.  Contracting e projects every other row along e's
    (:meth:`GF.project`; Oxley, *Matroid Theory*, ch. 6), which kills
    e's pivot digit and no other.  Either list is nonzero at exactly
    its rank's digits, which is what :func:`charpoly._chi_from_rows`
    reads."""
    rest = coordinates[:e] + coordinates[e + 1:]
    return rest, field.project(rest, coordinates[e])


def _min_cocircuit(field: GF, rows) -> int:
    """The numerically smallest cocircuit of minimum size of the matroid
    of ``rows``, one packed row per element that together span the
    coordinates of their d >= 1 live digits (those where some row is
    nonzero), as a standard form (:func:`_standard_rows`) does.

    A linear functional f on those coordinates has the kernel
    K_f = {e : f(v_e) = 0}.  Every K_f is a flat of rank at most r - 1,
    the elements whose rows lie in the subspace ker f of dimension
    d - 1 = r - 1.  Every hyperplane H spans such a subspace, which is
    ker f for some f, and then K_f = cl(H) = H.  Every flat of rank at
    most r - 1 lies in a hyperplane, so the largest K_f are exactly the
    largest hyperplanes, and their complements the smallest cocircuits
    (Oxley, *Matroid Theory*, ch. 6).

    Transposed, the rows are d packed vectors, one per live digit, with
    element e's coordinate in digit e, and the values f(v_e) of all
    elements are one packed combination of them.  One functional per
    line of functionals suffices, so the scan visits the
    (q**d - 1)/(q - 1) combinations of :meth:`GF.span_points`, one
    ``v - c·w`` step each, and counts each one's nonzero digits.

    That count does not depend on the number n of rows, so on few points
    of high rank over a large field it is the worse one.  The hyperplanes
    can be read off the C(n, d - 1) independent (d - 1)-subsets of the
    rows instead (:func:`_spanned_min_cocircuit`), at the cost of one
    projection of all n rows per subset, where a functional costs one
    packed step: so the subsets are scanned when n * C(n, d - 1) is
    below the functional count, or when only the subsets are within
    ``MAX_FLATS``.  (On the 21 rank-3 minors of the identity battery
    over GF(2)-GF(5) where C(n, 2) is just below the functional count,
    the subsets took 62 us a call against the functionals' 23 us, on a
    2-core Xeon virtual machine with Python 3.11.)  When both counts
    are over ``MAX_FLATS``, :class:`TooLargeError` is raised before
    either scan starts."""
    width = field.width
    digit = (1 << width) - 1
    live = 0
    for row in rows:
        live |= row
    columns = []
    while live:
        at = (live & -live).bit_length() - 1
        at -= at % width
        live &= ~(digit << at)
        columns.append(sum((row >> at & digit) << e * width for e, row in enumerate(rows)))
    functionals = (field.q ** len(columns) - 1) // (field.q - 1)
    subsets = comb(len(rows), len(columns) - 1)
    if min(functionals, subsets) > MAX_FLATS:
        raise TooLargeError(
            f"the cocircuit scan over {len(columns)} coordinates and {len(rows)} elements "
            f"exceeds the cap of {MAX_FLATS}"
        )
    if len(rows) * subsets < functionals or functionals > MAX_FLATS:
        return _spanned_min_cocircuit(field, rows, len(columns))
    size = len(rows) * width
    ones = ((1 << size) - 1) // digit  # bit 0 of every digit
    low, top = ones * (digit >> 1), ones << width - 1
    # the top bit of each digit of x | ((x & low) + low) is set exactly
    # where x is nonzero; that mask orders as the cocircuit does
    best = min(
        (nonzero.bit_count() << size | nonzero)
        for nonzero in (((x & low) + low | x) & top for x in field.span_points(columns))
    )
    return mask_of(e for e in range(len(rows)) if best >> e * width + width - 1 & 1)


def _spanned_min_cocircuit(field: GF, rows, rank: int) -> int:
    """:func:`_min_cocircuit` of the matroid of the echelon ``rows`` of
    rank ``rank`` >= 1, from its hyperplanes.  A hyperplane is the set
    of rows in the span of rank - 1 independent ones, and every
    hyperplane holds such a set.  A depth-first walk over those sets in
    element order projects all rows along each row it picks
    (:meth:`GF.project`), so a row turns zero exactly when it lies in
    the span of the rows picked so far, and only a row still nonzero is
    picked next.  At depth rank - 1 the zero rows are a hyperplane and
    the rest its cocircuit; the walk has at most C(n, rank - 1) such
    leaves, repeated hyperplanes included."""
    project = field.project
    n = len(rows)

    def cocircuits(points: list, start: int, depth: int):
        if depth == rank - 1:
            yield mask_of(e for e, row in enumerate(points) if row)
            return
        # leave room for the rank - 2 - depth picks after this one
        for e in range(start, n - (rank - 2 - depth)):
            if points[e]:
                yield from cocircuits(project(points, points[e]), e + 1, depth + 1)

    return min(cocircuits(rows, 0, 0), key=lambda c: (c.bit_count(), c))


def _contracted(field: GF, rows, kept, cmask: int) -> list[int]:
    """The points of ``kept`` once the elements of ``cmask`` are
    contracted: their ``rows`` projected along each echelon row of the
    rows of ``cmask`` in turn (:meth:`GF.project`, which reduces and
    normalizes), or a slice of them when nothing is contracted.  A
    reduced row is zero at every pivot of the contracted span, which
    makes it the one representative of its coset there."""
    points = [rows[e] for e in kept]
    if cmask:
        for prow in field.echelon(rows[e] for e in mask_bits(cmask)):
            points = field.project(points, prow)
    return points


def _quotient_covers(m: Matroid, fmask: int, carried) -> dict:
    """The flats covering the flat F = ``fmask`` of m, as a dict from
    each cover to what the lattice walk hands down with it, read from
    the points of M/F with no rank query.  The points are a dict from
    echelon row (:meth:`GF.normalize`) to the mask of the elements
    outside F whose points (:meth:`Matroid._points`), reduced modulo the
    span of those of F, give that row.  Each point's class
    joined to F is a cover, handed the pair (points of M/F, point).

    ``carried`` is the pair (points of M/E, p) that F = E + class(p)
    was handed, or None.  The points of M/F are then those of M/E other
    than p projected along p (:meth:`GF.project`), one step per cover of
    E, with classes merged where points meet.  (Oxley, *Matroid Theory*:
    contracting a represented element projects every other column away
    from its vector.)  With None the points are those of
    :func:`_contracted`."""
    field, _, rows = m._points()
    points: dict[int, int] = {}
    if carried is None:
        outside = list(mask_bits(m.full_mask & ~fmask))
        for e, point in zip(outside, _contracted(field, rows, outside, fmask)):
            points[point] = points.get(point, 0) | (1 << e)
    else:
        parent, p = carried
        rest = [point for point in parent if point != p]
        for old, point in zip(rest, field.project(rest, p)):
            points[point] = points.get(point, 0) | parent[old]
    return {fmask | cls: (points, point) for point, cls in points.items()}


class MinorMatroid(Matroid):
    """M/C\\D for a parent matroid M, itself a root or a minor: the
    parent's elements ``kept``, in that order, with C the parent's
    elements in ``contracted_mask``.  Its points (:meth:`Matroid._points`)
    are built at once from the parent's (:func:`_contracted`), so they
    are the rows that reducing the root's columns modulo the span of
    every contraction down the chain would give.  Building a minor asks
    no rank, and it keeps no reference to its parent, only to the root."""

    def __init__(self, parent: Matroid, kept: Sequence[int], contracted_mask: int, labels=None):
        # tuples are built from lists, not generators: with thousands of
        # short-lived minors the generators' extra allocations raised the
        # identity battery's peak memory
        if labels is None:
            labels = tuple([parent.labels[k] for k in kept])
        self._init_common(len(kept), labels)
        self._root = parent.root
        field, height, rows = parent._points()
        self._point_rows = field, height, tuple(_contracted(field, rows, kept, contracted_mask))

    @property
    def root(self) -> Matroid:
        return self._root

    def matrix(self) -> "LinearMatroid":
        raise NotLinearError(
            "a minor has no matrix of its own; its points are read from its parent's"
        )


def uniform(r: int, n: int) -> UniformMatroid:
    return UniformMatroid(r, n)


def graphic(num_vertices: int, edges) -> GraphicMatroid:
    return GraphicMatroid(num_vertices, edges)


def ranks_agree(a: Matroid, b: Matroid) -> bool:
    """Exhaustive rank-function equality; both matroids must be small."""
    if a.n != b.n:
        return False
    if a.n > MAX_RANKS_AGREE:
        raise TooLargeError(f"exhaustive rank comparison is limited to {MAX_RANKS_AGREE} elements")
    return all(a.rank_mask(m) == b.rank_mask(m) for m in range(1 << a.n))


# -- file format --------------------------------------------------------------
#
# Linear matroids:   line 1 is "q r n", then r lines of n integers in [0, q),
#                    whitespace separated (the matrix, row by row).
# Graphic matroids:  line 1 is "graph V E", then E lines "u v" with
#                    0-based vertex indices.
#
# In every file format blank lines are skipped and "#" starts a comment
# that runs to the end of its line.


def content_lines(text: str) -> list[tuple[int, str]]:
    """The lines of a file that carry content, with comments removed,
    as (1-based line number, stripped text) pairs."""
    out = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            out.append((number, line))
    return out


def parse_ints(line: int, tokens: list[str], count: int) -> list[int]:
    """Exactly ``count`` integers from the tokens of one line."""
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"expected integers, got {' '.join(tokens)!r}", line) from None
    if len(values) != count:
        raise ParseError(f"expected {count} integers, got {len(values)}", line)
    return values


def parse_matroid_text(text: str) -> Matroid:
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty matroid file")
    (head_line, head), body = lines[0], lines[1:]
    tokens = head.split()
    if tokens[0] == "graph":
        nv, ne = parse_ints(head_line, tokens[1:], 2)
        if nv < 0 or ne < 0:
            raise ParseError("vertex and edge counts must be nonnegative", head_line)
        if len(body) != ne:
            raise ParseError(f"expected {ne} edge lines, found {len(body)}", head_line)
        edges = []
        for number, line in body:
            u, v = parse_ints(number, line.split(), 2)
            if not (0 <= u < nv and 0 <= v < nv):
                raise ParseError(f"edge ({u}, {v}) has an endpoint outside 0..{nv - 1}", number)
            edges.append((u, v))
        return GraphicMatroid(nv, edges)
    q, r, n = parse_ints(head_line, tokens, 3)
    if r < 0 or n < 0:
        raise ParseError("matrix dimensions must be nonnegative", head_line)
    if n > MAX_GROUND:  # checked before [()] * n below allocates n columns
        raise TooLargeError(f"ground sets are capped at {MAX_GROUND} elements, got {n}")
    try:
        field = gf(q)
    except (ValueError, OrderTooLargeError) as exc:
        raise ParseError(str(exc), head_line) from None
    rows_expected = r if n else 0  # the r rows of an r x 0 matrix are blank
    if len(body) != rows_expected:
        raise ParseError(f"expected {rows_expected} matrix rows, found {len(body)}", head_line)
    if r == 0 or n == 0:
        # from_rows cannot express a 0 x n or an r x 0 matrix
        return LinearMatroid(field, [()] * n, nrows=r)
    rows = []
    for number, line in body:
        row = parse_ints(number, line.split(), n)
        if not all(0 <= x < q for x in row):
            raise ParseError(f"matrix entries must lie in 0..{q - 1}", number)
        rows.append(row)
    return LinearMatroid.from_rows(field, rows)


def format_matroid(m: Matroid) -> str:
    if isinstance(m, LinearMatroid):
        head = f"{m.field.q} {m.nrows} {m.n}"
        body = "\n".join(" ".join(str(x) for x in row) for row in m.rows())
        return head + ("\n" + body if m.nrows else "") + "\n"
    if isinstance(m, GraphicMatroid):
        head = f"graph {m.num_vertices} {m.n}"
        body = "\n".join(f"{u} {v}" for u, v in m.edges)
        return head + ("\n" + body if m.edges else "") + "\n"
    raise NotLinearError("only matrix-backed and graphic matroids have a file form")


def load_matroid(path) -> Matroid:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matroid_text(fh.read())


def save_matroid(m: Matroid, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matroid(m))


def require_simple(m: Matroid) -> None:
    if m.loops_mask():
        raise NotSimpleError("matroid has a loop")
    if any(len(c) > 1 for c in m.parallel_classes()):
        raise NotSimpleError("matroid has a parallel pair")
