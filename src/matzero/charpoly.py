"""Characteristic polynomials of matroids, exactly, plus real-root tools.

The characteristic polynomial of a matroid M with ground set E is

    chi_M(lam) = sum over flats F of mu(cl(empty), F) * lam**(r(E) - r(F))

when M is loopless, and the zero polynomial otherwise.  In production
the split engine (:func:`projgeom._chi_by_splits`) hands its pieces to
:func:`_chi_from_rows`: the finite-field count within the subspace
tables' cap, the row recursion (:func:`_row_chi`) on a piece above it
that has no filled neck to split along.  The Mobius expansion above,
the subset expansion, deletion-contraction and a cocircuit expansion
are kept as oracles; all must agree coefficient for coefficient, which
the test suite exploits.

All arithmetic is exact: coefficients are Python integers, bounds and
root brackets are ``fractions.Fraction`` values, and no answer rests on
floating point.  The root layer first reads a polynomial's integer
roots exactly, by synthetic division; a Sturm chain in integer
arithmetic, and a bisection, are built only for the cofactor those
roots leave, and for a largest root that is not an integer.  The root
analysis is shared per distinct polynomial: its integer roots, Sturm
chain, root counts and brackets are kept in one bounded table
(``MAX_ROOT_MEMO``) that every caller in the process reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, gcd
from operator import or_
from threading import Lock

from .errors import (
    ArgumentError,
    DivisionByZeroError,
    InexactDivisionError,
    NonIntegralError,
    NotSimpleError,
    RootArgumentError,
    RootCertificateError,
)
from .gfq import _integer, _pg_chi_coefficients, factor_prime_power
from .matroid import MAX_GROUND, Matroid, _min_cocircuit, _standard_rows, mask_bits

# distinct polynomials whose root analysis is kept, and answers kept per
# polynomial for each kind (counts by bound, brackets by tolerance); the
# oldest is dropped when full
MAX_ROOT_MEMO = 1024
MAX_ROOT_ANSWERS = 8


def _integral(c) -> int:
    """``c`` as an ``int``; a value that is not an integer is an error,
    never truncated."""
    try:
        i = int(c)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != c:
        raise NonIntegralError(f"{c!r} is not an integer")
    return i


class IntPoly:
    """Dense univariate polynomial with integer coefficients.

    ``coeffs[i]`` is the coefficient of ``lam**i`` (constant term first).
    Trailing zeros are stripped, so the zero polynomial has no
    coefficients at all and degree -1.  A coefficient or scalar factor
    that is not an integer raises :class:`NonIntegralError`; an integral
    scalar is added, subtracted or multiplied as a constant polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _integral(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ArgumentError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, _constant(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __rsub__(self, other):
        return _constant(other) - self

    def __sub__(self, other):
        a, b = self.coeffs, _constant(other).coeffs
        if len(a) >= len(b):
            out = list(a)
            for i, c in enumerate(b):
                out[i] -= c
        else:
            out = [-c for c in b]
            for i, c in enumerate(a):
                out[i] += c
        return IntPoly(out)

    def __mul__(self, other):
        if not isinstance(other, IntPoly):
            other = _integral(other)
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def evaluate(self, x):
        """Horner evaluation; exact for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, constant term first."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "IntPoly":
        """The inverse of :meth:`to_json`: a list of decimal strings (or
        integers), constant term first.  Anything else, a string that is
        not a decimal integer, a fraction or a bool among them, raises
        :class:`NonIntegralError`; an integral entry goes through the
        constructor's check."""
        if not isinstance(data, (list, tuple)):
            raise NonIntegralError(f"{data!r} is not a list of coefficients")
        coeffs = []
        for s in data:
            try:
                c = int(s) if type(s) is str else s
            except ValueError:
                c = None
            if c is None or type(c) is bool:
                raise NonIntegralError(f"{s!r} is not a coefficient")
            coeffs.append(c)
        return cls(coeffs)

    def __repr__(self):
        if self.is_zero:
            return "IntPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            term = "lam" if i == 1 else f"lam^{i}" if i else ""
            mag = "" if (abs(c) == 1 and i) else str(abs(c))
            piece = (mag + "*" + term).strip("*") if term else str(abs(c))
            parts.append(("- " if c < 0 else "+ " if parts else "") + piece)
        return "IntPoly(" + " ".join(parts) + ")"


ZERO = IntPoly(())
ONE = IntPoly((1,))


def _constant(other) -> IntPoly:
    """A polynomial as itself, an integral scalar as a constant."""
    return other if isinstance(other, IntPoly) else IntPoly((_integral(other),))


def x_minus(c: int) -> IntPoly:
    return IntPoly((-c, 1))


def _binomial_power(r: int) -> IntPoly:
    """(lam - 1) ** r from its binomial coefficients."""
    return IntPoly(comb(r, i) * (-1) ** (r - i) for i in range(r + 1))


# every rank a deletion-contraction minor can reach
_LIN_POWERS = tuple(_binomial_power(r) for r in range(MAX_GROUND + 1))


def lam_minus_one_power(r: int) -> IntPoly:
    """(lam - 1) ** r; precomputed for r <= MAX_GROUND, computed
    afresh and not kept above it."""
    r = _integer(r, "the exponent")
    if r < 0:
        raise ArgumentError(f"the exponent must be nonnegative, got {r}")
    return _LIN_POWERS[r] if r < len(_LIN_POWERS) else _binomial_power(r)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def cp_mobius(m: Matroid) -> IntPoly:
    """Mobius-function expansion over the lattice of flats."""
    if m.loops_mask():
        return ZERO
    r = m.full_rank
    coeffs = [0] * (r + 1)
    for flat in m.all_flats_with_mobius():
        coeffs[r - flat.rank] += flat.mobius
    return IntPoly(coeffs)


def cp_boolean_expansion(m: Matroid) -> IntPoly:
    """Brute-force alternating sum over all subsets of the ground set:
    sum over A of (-1)**|A| * lam**(r(E) - r(A)), read off
    :meth:`Matroid.ranks_table` and capped with it.  Serves as the
    reference oracle for the others."""
    ranks = m.ranks_table()
    r = m.full_rank
    coeffs = [0] * (r + 1)
    for a, rank in enumerate(ranks):
        coeffs[r - rank] += -1 if a.bit_count() & 1 else 1
    return IntPoly(coeffs)


def cp_delete_contract(m: Matroid) -> IntPoly:
    """Deletion-contraction on simple minors.

    chi_M = chi_{M minus e} - chi_{M contract e}  whenever e is neither
    a loop nor a coloop; a loop kills the polynomial.  The recursion
    (:func:`_row_chi`) reads each minor in the coordinates of a standard
    representation [I_r | D] (Oxley, *Matroid Theory*) and asks no rank
    query.  One elimination pass over m's points gives them
    (:meth:`Matroid._standard_form`): the i-th point independent of the
    points before it is basis column i, and every element carries its
    coordinates in that basis scaled to 1 at the first nonzero one (zero
    for a loop), so the basis shows up as unit rows and parallel
    elements as equal rows.  It reads no subspace table, so it checks
    the finite-field count of :func:`_chi_from_rows`.
    """
    basis, coordinates = m._standard_form()
    if 0 in coordinates:
        return ZERO
    return _row_chi(m._points()[0].project, coordinates, basis.bit_count())


def _chi_from_rows(field, rows: list, rank: int) -> IntPoly:
    """chi of the matroid of ``rows`` over ``field``: packed echelon
    rows in element order (zero for a loop, equal rows for parallel
    elements) of a matroid of rank ``rank`` whose rows are nonzero at
    exactly ``rank`` digits, in any coordinates of their span.  It is the
    leaf of the split engine that :func:`harness.charpoly_auto` and the
    bound suites run (:func:`projgeom._chi_by_splits`), and the identity
    checks run it alone.

    The kernel is chosen from the field and the rank alone: below rank
    3, and at any rank whose subspace table the field keeps
    (:meth:`GF.subspaces`, up to ``gfq.MAX_TABLE_POINTS`` points), chi
    is the finite-field count of :func:`_subspace_chi`.  Every other
    input runs deletion-contraction (:func:`_row_chi`), which reads a
    unit row for each live digit: rows that lack one are first put in a
    standard form (:func:`matroid._standard_rows`).  The split engine
    sends it only connected inputs above the cap with no filled neck.
    """
    if 0 in rows:
        return ZERO
    table = field.subspaces(rank) if rank > 2 else None
    if table is not None or rank < 3:
        return _subspace_chi(table, field.width, rows, rank)
    if len({row for row in rows if not row & row - 1}) < rank:  # unit rows are one bit
        height = -(-max(rows).bit_length() // field.width)
        rows = _standard_rows(field, height, rows)[1]
    return _row_chi(field.project, rows, rank)


def _subspace_chi(table, width: int, rows: list, rank: int) -> IntPoly:
    """:func:`_chi_from_rows` of loopless rows of packed digits of
    ``width`` bits by the finite-field count
    (Crapo and Rota, *On the Foundations of Combinatorial Theory:
    Combinatorial Geometries*, 1970; Athanasiadis, *Adv. Math.* 1996):
    for a simple matroid whose point set P spans PG(r - 1, q),

        chi(lam) = sum over d < r of (N_d - T_d(P)) P_(r - d)(lam),

    P_k = (lam - 1)(lam - q)...(lam - q**(k-1)), N_d the number of
    subspaces of dimension d of GF(q)**r and T_d(P) those that hold a
    point of P; N_0 - T_0 = 1.  It counts the linear maps to GF(q)**k
    that vanish at no point of P by their kernels.  Below rank 3 that is
    (lam - 1)**r, or (lam - 1)(lam - n + 1) for n points at rank 2.

    The rows are read as points in any coordinates: the digits where
    some row is nonzero are the live ones, and a dead digit below a live
    one is first cut out.  Then each point is one lookup in the field's
    ``table`` (:meth:`GF.subspaces`; None below rank 3), the OR of the
    masks holds every subspace some point lies on, and one popcount per
    dimension gives T_d; parallel rows are one point.  No recursion,
    projection or standard form is made."""
    if rank < 3:
        if rank < 2:
            return lam_minus_one_power(rank)
        n = len(set(rows))
        return IntPoly((n - 1, -n, 1))
    masks, base, blocks = table
    if max(rows) >> rank * width:  # a dead digit below a live one
        live = reduce(or_, rows)
        digit = (1 << width) - 1
        for k in reversed(range((live.bit_length() - 1) // width)):
            if not live >> k * width & digit:
                below = (1 << k * width) - 1
                rows = [row & below | row >> width & ~below for row in rows]
    touched = reduce(or_, map(masks.__getitem__, rows))
    coeffs = list(base)
    for shift, span, row in blocks:
        count = (touched >> shift & span).bit_count()
        for i, c in enumerate(row):
            coeffs[i] -= count * c
    return IntPoly(coeffs)


def _row_chi(project, rows: list, rank: int) -> IntPoly:
    """chi of the loopless standard-form ``rows`` of rank ``rank`` by
    deletion-contraction, reading no table: the leaf of
    :func:`_chi_from_rows` above the table cap and the whole of
    :func:`cp_delete_contract`; ``project`` is :meth:`GF.project`.
    No minor is kept for reuse, because no minor comes up twice: every
    minor below the deletion of e lacks e, every minor below its
    contraction has e contracted, and along one path the remaining set
    only shrinks while the contracted one only grows.

    Contracting the pivot projects every other row along it, which kills
    the pivot's coordinate and leaves every other unit row as it is, so
    each minor keeps a unit row per live coordinate, and its rank is
    ``rank`` minus the contractions made.  Only a contraction makes
    parallel rows, so only the contraction child is simplified.  In a
    simple minor any other row lies on a circuit: the first one is the
    pivot, found with no elimination pass, and with none left chi is
    (lam - 1)**rank.  A simple minor of rank 2 with n points has chi
    (lam - 1)(lam - n + 1).

    Deleting the pivot leaves a simple minor of the same rank whose
    pivot is the next non-unit row, so the deletions along one minor are
    a loop, not a recursion.  With p_1 < ... < p_m the non-unit rows of a
    simple minor M of rank r and M_i = M minus p_1, ..., p_{i-1}:

        chi_M = (lam - 1)**r - sum_i chi_{M_i / p_i}

    where the rows of M_i / p_i are the unit rows before p_i and every
    row after it, projected along p_i in one ``project`` call.  Every
    leaf is then (lam - 1)**s or a simple rank-2 minor, so the recursion
    carries a sign and counts its leaves in integers: one count per rank
    s, and for the rank-2 leaves the sums of the signs and of sign * n.
    The polynomial is built once, from those counts.
    """
    rows = list(dict.fromkeys(rows))
    n = len(rows)
    if n == rank:
        return lam_minus_one_power(rank)
    if rank == 2:
        return IntPoly((n - 1, -n, 1))
    powers = [0] * (rank + 1)  # signed count of the leaves (lam - 1)**s
    pairs = points = 0  # sums of sign and of sign * n over rank-2 leaves

    def rec(rows: list, rank: int, sign: int) -> None:
        # rows: the distinct echelon rows of a simple minor of rank at
        # least 3, in element order, with a unit row for each of rank
        # coordinates; its chi times sign goes into the counts
        nonlocal pairs, points
        powers[rank] += sign
        units = []
        for i, prow in enumerate(rows):
            if not prow & prow - 1:  # unit rows are one bit
                units.append(prow)
                continue
            # no other row is parallel to prow, so none projects to 0: no loop
            contracted = project(units + rows[i + 1:], prow)
            if rank == 3:
                pairs -= sign
                points -= sign * len(set(contracted))
            else:
                rec(list(dict.fromkeys(contracted)), rank - 1, -sign)

    rec(rows, rank, 1)
    # sum of sign * (lam - 1)(lam - n + 1) = pairs lam^2 - points lam + points - pairs
    coeffs = [points - pairs, -points, pairs] + [0] * (rank - 2)
    for s, count in enumerate(powers):
        if count:
            for i, c in enumerate(lam_minus_one_power(s).coeffs):
                coeffs[i] += count * c
    return IntPoly(coeffs)


def cp_cocircuit_expansion(m: Matroid) -> IntPoly:
    """Expansion along a minimum-size cocircuit C* = {x_1 < ... < x_m}:

        chi_M = (lam - m) * chi_{M minus C*}
              + sum_{1 <= i < j <= m} chi_{M minus X_{i,j} / x_i, x_j}

    where X_{i,j} = {x_1, ..., x_{j-1}} minus {x_i}.  The input must be
    simple: a zero point (:meth:`Matroid._points`) or a repeated one
    raises :class:`NotSimpleError`.  :func:`_cocircuit_chi` expands the
    rows of m's standard form (:meth:`Matroid._standard_form`)."""
    field, _, points = m._points()
    if 0 in points or len(set(points)) < m.n:
        raise NotSimpleError("the cocircuit expansion needs a simple matroid")
    basis, rows = m._standard_form()
    return _cocircuit_chi(field, rows, basis.bit_count())


def _cocircuit_chi(field, rows: list, rank: int) -> IntPoly:
    """chi of the simple matroid of the standard-form ``rows`` of rank
    ``rank`` (:meth:`Matroid._standard_form`; the distinct rows of a
    loopless one are its simplification's) by the expansion of
    :func:`cp_cocircuit_expansion`, on rows like :func:`_chi_from_rows`.
    Each minor's cocircuit comes from a scan of linear functionals
    (:func:`matroid._min_cocircuit`).  The other rows span the
    hyperplane H = E minus C*, which x_1 does not lie in, so projecting
    them along x_1's row (one :meth:`GF.project` call) maps span(H)
    one to one onto the quotient by x_1: the images are the rows of
    M minus C*, distinct and nonzero, spanning every live digit but
    x_1's pivot, with no elimination pass.  The term (i, j)
    keeps the rows outside x_1, ..., x_j, contracted along x_j and x_i:
    one :meth:`GF.project` call per j projects those rows and
    x_1, ..., x_(j-1) along x_j's row, and one per term projects the
    rows along x_i's projected row.  Contracted terms are normalized: a
    zero row kills the term and only the first of equal rows is kept.
    A minor with as many points as its rank has chi (lam - 1)**n, and a
    simple rank-2 minor with n points (lam - 1)(lam - n + 1).

    No minor is kept for reuse, because no two terms share one: the
    first term deletes the x_i that every other term contracts, and of
    two terms (i, j) != (i', j') one deletes an element that the other
    contracts.
    """
    project = field.project

    def expand(rows: list, rank: int) -> IntPoly:
        # rows: the distinct nonzero echelon rows of a simple minor of
        # rank ``rank``, in element order, spanning their live digits
        n = len(rows)
        if n == rank:
            return lam_minus_one_power(n)
        if rank == 2:
            return IntPoly((n - 1, -n, 1))
        cstar = _min_cocircuit(field, rows)
        elements = list(mask_bits(cstar))
        xs = [rows[e] for e in elements]
        kept = [row for e, row in enumerate(rows) if not cstar >> e & 1]
        total = x_minus(len(xs)) * expand(project(kept, xs[0]), rank - 1)
        gone = 1 << elements[0]
        for j in range(1, len(xs)):
            # the elements outside x_1, ..., x_j, in order, and x_1, ..., x_(j-1)
            gone |= 1 << elements[j]
            kept = [row for e, row in enumerate(rows) if not gone >> e & 1]
            contracted = project(kept + xs[:j], xs[j])
            kept, xis = contracted[:len(kept)], contracted[len(kept):]
            for xi in xis:
                rest = project(kept, xi)
                if 0 not in rest:
                    total = total + expand(list(dict.fromkeys(rest)), rank - 2)
        return total

    return expand(rows, rank)


def cp_pg_closed_form(r: int, q: int) -> IntPoly:
    """Characteristic polynomial of the rank-r projective geometry over
    GF(q): the product (lam - 1)(lam - q)...(lam - q**(r-1)).  A
    negative rank, an order below 2 or one that is not a prime power
    raises :class:`ArgumentError`, as a non-integer rank or order does."""
    r, q = _integer(r, "rank"), _integer(q, "field order")
    if r < 0:
        raise ArgumentError(f"rank must be nonnegative, got {r}")
    if q < 2:
        raise ArgumentError(f"the field order must be at least 2, got {q}")
    factor_prime_power(q)
    return _pg_closed_form(r, q)


def _pg_closed_form(r: int, q: int) -> IntPoly:
    """:func:`cp_pg_closed_form` for the order q of a field, unchecked."""
    return IntPoly(_pg_chi_coefficients(r, q))


def cp_uniform_closed_form(r: int, n: int) -> IntPoly:
    """Characteristic polynomial of U_{r,n}:
    sum_{k=0}^{r-1} (-1)**k (n choose k) (lam**(r-k) - 1).  Arguments
    other than integers 0 <= r <= n raise :class:`ArgumentError`."""
    r, n = _integer(r, "rank"), _integer(n, "element count")
    if not 0 <= r <= n:
        raise ArgumentError(f"a uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    if r == 0:
        # empty matroid if n == 0, otherwise every element is a loop
        return ONE if n == 0 else ZERO
    coeffs = [0] * (r + 1)
    for k in range(r):
        c = comb(n, k) * (-1 if k & 1 else 1)
        coeffs[r - k] += c
        coeffs[0] -= c
    return IntPoly(coeffs)


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def _pseudo_divmod(num, den) -> tuple[int, list[int], list[int]]:
    """(c, quot, rem) with c*num == quot*den + rem, c > 0, rem shorter
    than den and stripped of trailing zeros, all over the integers.  The
    remainder is scaled by the least factor that keeps each quotient term
    integral, so c is 1 for monic den.  Dense coefficient sequences,
    constant term first; den is nonzero."""
    rem = list(num)
    dlen = len(den)
    dlead = den[-1]
    c = 1
    quot = [0] * max(0, len(rem) - dlen + 1)
    for i in range(len(quot) - 1, -1, -1):
        lead = rem[i + dlen - 1]
        if lead:
            s = abs(dlead) // gcd(lead, dlead)
            if s != 1:
                c *= s
                rem = [x * s for x in rem]
                quot = [x * s for x in quot]
            t = quot[i] = lead * s // dlead
            for j, dj in enumerate(den):
                rem[i + j] -= t * dj
    del rem[dlen - 1:]  # cancelled by the quotient
    while rem and not rem[-1]:
        rem.pop()
    return c, quot, rem


def poly_exact_div(num: IntPoly, den: IntPoly) -> IntPoly:
    """Quotient num / den when the division is exact over the integers;
    raises InexactDivisionError otherwise (DivisionByZeroError at 0)."""
    if den.is_zero:
        raise DivisionByZeroError("polynomial division by zero")
    if num.is_zero:
        return ZERO
    if num.degree < den.degree:
        raise InexactDivisionError("quotient would have negative degree")
    c, quot, rem = _pseudo_divmod(num.coeffs, den.coeffs)
    if rem:
        raise InexactDivisionError("nonzero remainder")
    if any(x % c for x in quot):
        raise InexactDivisionError("quotient has fractional coefficients")
    return IntPoly(x // c for x in quot)


# ---------------------------------------------------------------------------
# Sturm chains and real roots
# ---------------------------------------------------------------------------

def _primitive(coeffs) -> tuple[int, ...]:
    """Divide out the positive content; the sign pattern is preserved."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    if g <= 1:
        return tuple(coeffs)
    return tuple(c // g for c in coeffs)


def _deflate(cs: list, c: int) -> list | None:
    """The coefficients of p / (lam - c), constant term first, for p
    with coefficients cs (constant term first), or None when lam - c
    does not divide p.  Synthetic division: Horner's rule from the lead
    down gives the quotient's coefficients and, last, the remainder
    p(c)."""
    out = []
    b = 0
    for a in reversed(cs):
        b = a + c * b
        out.append(b)
    if out.pop():
        return None
    out.reverse()
    return out


def _positive_integer_roots(cs: list) -> tuple[list[int], list]:
    """The positive integer roots, ascending, of the polynomial with
    coefficients cs (constant term first and nonzero), and its cofactor
    once each is divided out as often as it divides.

    A root c divides the constant term, and by Cauchy's bound it is
    below 1 + M / |lead|, M the largest coefficient of sign opposite to
    the lead's; with no such coefficient there is no positive root
    (Descartes).  The walk tries each c up to that bound, which shrinks
    with each root found, and stops when the cofactor is constant.  It
    goes no further than len(cs)**2 times the bit length of the largest
    coefficient, about the work of a Sturm chain and a bisection on the
    polynomial: a larger root is left in the cofactor, whose Sturm count
    still counts it exactly, so a walk over a huge bound costs no more
    than that."""
    roots = []
    c = 1
    budget = len(cs) ** 2 * max(map(abs, cs)).bit_length()
    while len(cs) > 1:
        lead = cs[-1]
        against = -min(cs) if lead > 0 else max(cs)
        if against <= 0:
            break
        limit = min(abs(cs[0]), -(-against // abs(lead)), budget)
        while c <= limit:
            if not cs[0] % c:
                quot = _deflate(cs, c)
                if quot is not None:
                    break
            c += 1
        else:
            break
        roots.append(c)
        while quot is not None:
            cs, quot = quot, _deflate(quot, c) if len(quot) > 1 and not quot[0] % c else None
        c += 1
    return roots, cs


def _integer_split(p: IntPoly) -> tuple[tuple[int, ...], IntPoly]:
    """(roots, rest) for nonzero p: its distinct integer roots,
    ascending, and the squarefree part of the cofactor that is left once
    each is divided out exactly as often as it divides, primitive with
    positive lead (ONE when that cofactor is constant).  The squarefree
    part of p is rest times the product of (lam - c) over the roots.

    Zero roots are the low zero coefficients.  The negative roots are
    the positive roots of p(-lam), tried only when its coefficients
    change sign, which those of a loopless chi never do.  Only the rest
    needs a gcd with its derivative (Euclid on primitive remainders), and
    on a chi that splits over Z, as that of a supersolvable geometry does
    (Stanley, 1971), there is none."""
    cs = list(p.coeffs)
    low = 0
    while not cs[low]:
        low += 1
    roots = [0] if low else []
    del cs[:low]
    found, flipped = _positive_integer_roots([-c if i & 1 else c for i, c in enumerate(cs)])
    if found:
        roots[:0] = [-c for c in reversed(found)]
        cs = [-c if i & 1 else c for i, c in enumerate(flipped)]
    found, cs = _positive_integer_roots(cs)
    roots += found
    if len(cs) == 1:
        return tuple(roots), ONE
    # Euclid on primitive remainders: g ends as a gcd of the cofactor and its derivative
    rest = IntPoly(cs)
    g, y = cs, rest.derivative().coeffs
    while y:
        g, y = y, _primitive(_pseudo_divmod(g, y)[2])
    if len(g) > 1:
        # by Gauss's lemma the cofactor is divisible by the primitive part of g
        rest = poly_exact_div(rest, IntPoly(_primitive(g)))
    sf = _primitive(rest.coeffs)
    if sf[-1] < 0:
        sf = tuple(-c for c in sf)
    return tuple(roots), IntPoly(sf)


def _times_roots(rest: IntPoly, roots) -> IntPoly:
    """rest times the product of (lam - c) over the roots, one synthetic
    multiplication each."""
    cs = list(rest.coeffs)
    for c in roots:
        cs = [below - c * b for below, b in zip([0] + cs, cs + [0])]
    return IntPoly(cs)


def squarefree_part(p: IntPoly) -> IntPoly:
    """p divided by gcd(p, p'), scaled primitive with positive lead.
    Same real roots as p, all simple.  Built from the integer-root split
    of the root layer (:func:`_integer_split`): the product of
    (lam - c) over p's integer roots c, times the squarefree part of the
    cofactor they leave."""
    if p.is_zero:
        raise ArgumentError("the zero polynomial has no squarefree part")
    roots, rest = _integer_split(p)
    return _times_roots(rest, roots)


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain of a squarefree polynomial, with content stripped at
    every step to keep the integers small.  Scaling factors are always
    positive, so sign variation counts are unaffected.  The zero
    polynomial raises :class:`RootArgumentError`."""
    _nonzero(p, "has no Sturm chain")
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        rem = _pseudo_divmod(chain[-2].coeffs, chain[-1].coeffs)[2]
        if not rem:
            break
        chain.append(IntPoly(_primitive([-c for c in rem])))
    return [c for c in chain if not c.is_zero]


# coefficient tuple -> (distinct integer roots, squarefree part, Sturm
# chain of the cofactor's squarefree part (empty when it is constant),
# root counts by bound, brackets by tolerance); insertion order is age.
# Lookups are single dict reads; _remember's check-then-drop holds the
# lock, so threads that share a table never drop one entry twice.
_ROOT_MEMO: dict[tuple[int, ...], tuple[tuple[int, ...], IntPoly, list[IntPoly], dict, dict]] = {}
_MEMO_LOCK = Lock()


def _remember(table: dict, key, value, cap: int):
    """Store value under key, first dropping the oldest entry when the
    table already holds cap entries; returns value.  The two
    process-wide tables, this module's root memo and the harness's
    charpoly memo, store through it, and so do the tables in their
    entries: root counts, brackets and bound answers."""
    with _MEMO_LOCK:
        if len(table) >= cap:
            del table[next(iter(table))]
        table[key] = value
    return value


def _exact(x, name: str) -> tuple[int, int]:
    """x as an exact ratio (numerator, denominator) in lowest terms with
    a positive denominator; it keys the counts and brackets of the memo.
    Anything ``Fraction`` does not accept (a malformed string, None, an
    infinity or a NaN) raises :class:`RootArgumentError` naming the
    argument ``name``."""
    if type(x) is not Fraction:
        try:
            x = Fraction(x)
        except (TypeError, ValueError, OverflowError):
            raise RootArgumentError(
                f"{name} must be a finite rational number, got {x!r}"
            ) from None
    return x.numerator, x.denominator


def _nonzero(p: IntPoly, why: str) -> None:
    if p.is_zero:
        raise RootArgumentError(f"p is the zero polynomial, which {why}")


def _root_analysis(p: IntPoly) -> tuple[tuple[int, ...], IntPoly, list[IntPoly], dict, dict]:
    """The root analysis of nonzero p: its distinct integer roots, read
    exactly by synthetic division (:func:`_integer_split`), its
    squarefree part sf, the Sturm chain of the squarefree part of the
    cofactor the integer roots leave (empty when that is constant), and
    the dicts of its root counts by bound and its brackets by tolerance.
    The analysis is shared per distinct polynomial: it is built on the
    first use of p's coefficients and kept in a table of at most
    ``MAX_ROOT_MEMO`` entries, so every verdict and bracket on an equal
    polynomial reads the same roots and chain."""
    entry = _ROOT_MEMO.get(p.coeffs)
    if entry is None:
        roots, rest = _integer_split(p)
        chain = sturm_chain(rest) if rest.degree > 0 else []
        entry = _remember(_ROOT_MEMO, p.coeffs,
                          (roots, _times_roots(rest, roots), chain, {}, {}), MAX_ROOT_MEMO)
    return entry


def _homogeneous(p: IntPoly, num: int, den: int) -> int:
    """den**deg(p) * p(num/den) by Horner's rule over the integers; for
    den > 0 it has the sign of p at num/den."""
    acc = 0
    power = 1
    for c in reversed(p.coeffs):
        acc = acc * num + c * power
        power *= den
    return acc


def _variations(values) -> int:
    """Sign changes along a sequence of integers, zeros skipped."""
    out = 0
    prev = 0
    for v in values:
        if v:
            if prev and (v > 0) != (prev > 0):
                out += 1
            prev = v
    return out


def _variations_at(chain, num: int, den: int) -> int:
    return _variations(_homogeneous(c, num, den) for c in chain)


def _variations_at_pos_inf(chain) -> int:
    return _variations(c.leading for c in chain)


def _taylor_shift(p: IntPoly, num: int, den: int) -> list[int]:
    """Coefficients of den**deg(p) * p((num + y)/den) in y, constant
    term first: :func:`_homogeneous` with y left symbolic."""
    acc: list[int] = []
    power = 1
    for c in reversed(p.coeffs):
        out = [a * num for a in acc] + [0]
        for i, a in enumerate(acc):
            out[i + 1] += a
        out[0] += c * power
        acc = out
        power *= den
    return acc


def count_roots_above(p: IntPoly, bound) -> int:
    """Number of distinct real roots of p in the open interval
    (bound, +infinity): the integer roots of p above it, plus the Sturm
    count of the cofactor they leave (:func:`_root_analysis`).

    A count not yet in p's memo entry is certified a second way before
    it is kept: the roots of the squarefree part sf above b = num/den
    are the positive roots of den**d * sf((num + y)/den), so by
    Budan-Fourier (Descartes' rule after the Taylor shift) the count is
    at most that polynomial's sign variations V and has V's parity.
    Otherwise :class:`RootCertificateError` is raised.  A zero p, or a
    bound that is not a finite rational number, raises
    :class:`RootArgumentError`."""
    _nonzero(p, "has every point as a root")
    num, den = key = _exact(bound, "bound")
    roots, sf, chain, counts, _ = _root_analysis(p)
    count = counts.get(key)
    if count is None:
        count = sum(c * den > num for c in roots)
        if chain:
            count += _variations_at(chain, num, den) - _variations_at_pos_inf(chain)
        v = _variations(_taylor_shift(sf, num, den))
        if count > v or (v - count) % 2:
            raise RootCertificateError(
                f"the root layer counts {count} roots of {p!r} above {Fraction(num, den)}, "
                f"but the shifted polynomial has {v} sign variations"
            )
        _remember(counts, key, count, MAX_ROOT_ANSWERS)
    return count


def sturm_positive_beyond(p: IntPoly, bound) -> bool:
    """Whether p(lam) > 0 for every rational lam strictly above bound.
    A root exactly at the bound does not spoil the verdict because the
    region is open on the left.  A zero p, or a bound that is not a
    finite rational number, raises :class:`RootArgumentError`."""
    _nonzero(p, "is nowhere positive")
    _exact(bound, "bound")  # a bad bound raises even where no count is needed
    if p.degree == 0:
        return p.leading > 0
    if p.leading < 0:
        return False
    return count_roots_above(p, bound) == 0


def cauchy_root_bound(p: IntPoly) -> int:
    """Integer B with every real root of p strictly inside (-B, B)."""
    lead = abs(p.leading)
    worst = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return 1 + (worst + lead - 1) // lead if worst else 1


def _simplest_in(a: Fraction, b: Fraction) -> Fraction:
    """Simplest rational in the closed interval [a, b]: smallest
    denominator, ties broken towards zero."""
    if a > b:
        raise ArgumentError("empty interval")
    if a == b:
        return a
    ceil_a = -((-a.numerator) // a.denominator)
    if ceil_a <= b:
        if a <= 0 <= b:
            return Fraction(0)
        if a > 0:
            return Fraction(ceil_a)
        return Fraction(b.numerator // b.denominator)
    floor_a = a.numerator // a.denominator
    inner = _simplest_in(1 / (b - floor_a), 1 / (a - floor_a))
    return floor_a + 1 / inner


def largest_real_root(p: IntPoly, tol) -> tuple[Fraction, Fraction] | None:
    """Bracket the largest real root of p to within tol.

    Returns a pair (lo, hi) of exact rationals with lo < root <= hi and
    hi - lo <= tol.  When the root itself is the simplest rational in
    the final bracket (an integer root, in particular), the bracket
    collapses to the degenerate pair (root, root).  Returns None when p
    has no real root.  The result is kept in p's memo entry
    (:func:`_root_analysis`) under the exact tolerance.  A zero p, or a
    tol that is not a positive finite rational, raises
    :class:`RootArgumentError`.

    An integer largest root is read off the root analysis: it is p's
    largest integer root c when the cofactor those roots leave has no
    root above c (one Sturm count on the cofactor's chain, none when the
    cofactor is constant).  If tol is also below the bracket's width at
    the first level of the bisection below where it is narrower than 1
    (any tol below 1 is), the answer is (c, c) at once: that bracket and
    every later one hold c as their only integer, so the final check
    would return (c, c) from the simplest rational in the last bracket.
    Every other answer is the bisection's, on the Sturm chain of the
    whole squarefree part sf, built for it.

    The bracket starts at the Cauchy bound and is halved on dyadic
    midpoints, in two phases of one loop:

    - Isolate: while more than one distinct root lies above lo, each
      midpoint costs a Sturm count of the whole chain, and lo keeps its
      count.
    - Refine: once the largest root rho is the only root of sf above
      lo, sf (positive lead, simple roots) is negative exactly on
      (lo, rho), so the sign of sf alone at the midpoint makes the same
      choice as the chain count.
    """
    _nonzero(p, "has no largest root")
    tol_num, tol_den = key = _exact(tol, "tol")
    if tol_num <= 0:
        raise RootArgumentError(f"tol must be positive, got {tol!r}")
    roots, sf, chain, _, brackets = _root_analysis(p)
    try:
        return brackets[key]
    except KeyError:  # None is a kept answer: p has no real root
        pass
    if roots:
        c = roots[-1]
        width = 2 * cauchy_root_bound(sf)  # the bracket's width, times 2**k at level k
        if (width * tol_den > tol_num << (width.bit_length() - 1)  # it reaches width < 1
                and (not chain or _variations_at(chain, c, 1) == _variations_at_pos_inf(chain))):
            root = Fraction(c)
            return _remember(brackets, key, (root, root), MAX_ROOT_ANSWERS)
    return _remember(brackets, key, _bracket(sturm_chain(sf), tol_num, tol_den), MAX_ROOT_ANSWERS)


def _bracket(chain: list[IntPoly], tol_num: int, tol_den: int) -> tuple[Fraction, Fraction] | None:
    """:func:`largest_real_root` from the Sturm chain of the squarefree
    part to within tol_num / tol_den, with no memo."""
    sf = chain[0]
    v_hi = _variations_at_pos_inf(chain)
    bound = cauchy_root_bound(sf)
    v_lo = _variations_at(chain, -bound, 1)
    if v_lo == v_hi:
        return None
    # invariant: the largest root lies in (lo / 2**k, hi / 2**k], and
    # v_lo - v_hi distinct roots lie above lo / 2**k
    lo, hi, k = -bound, bound, 0
    while (hi - lo) * tol_den > tol_num << k:
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        if v_lo > v_hi + 1:
            v_mid = _variations_at(chain, mid, 1 << k)
            if v_mid > v_hi:
                lo, v_lo = mid, v_mid
            else:
                hi = mid
        elif _homogeneous(sf, mid, 1 << k) < 0:
            lo = mid
        else:
            hi = mid
    lo, hi = Fraction(lo, 1 << k), Fraction(hi, 1 << k)
    # a root in (lo, hi] with no root above it is the largest root
    for x in (hi, _simplest_in(lo, hi)):
        num, den = x.numerator, x.denominator
        if x > lo and _homogeneous(sf, num, den) == 0 and _variations_at(chain, num, den) == v_hi:
            return x, x
    return lo, hi
