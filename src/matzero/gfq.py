"""Dense arithmetic tables for small finite fields GF(q), q <= 32, and
Gaussian elimination on vectors packed into ints.

Field elements are plain integers in ``[0, q)``.  For prime ``q`` the
integer is the residue itself.  For a prime power ``q = p**d`` with
``d > 1`` the integer encodes a polynomial residue digit by digit in
base ``p``: the element ``sum(c_i * x**i)`` is stored as the index
``sum(c_i * p**i)``, constant term in the lowest digit.  With the
default modulus for GF(4) the element ``x`` is index 2 and ``x + 1``
is index 3.

A vector over GF(q) is one ``int`` (:meth:`GF.pack`): coordinate i is
the digit at bits ``[i*b, (i+1)*b)``, where the width b depends only on
the field.  An element's digit holds its d base-p coefficients in d
sub-digits of s bits each, constant term lowest, so b = d*s.

* Characteristic 2: s = 1, so b = d and the digit is the element index
  itself.  Adding vectors is XOR.  Multiplying v by c XORs
  ``((v >> j) & ONES) * (c * x**j)`` over j < d, where ONES has bit 0
  of every digit set; over GF(2) every elimination step is one XOR.
* Odd characteristic: every sub-digit gets guard bits.  ``v - c*w`` is
  computed as ``v + (p - c)*w``, whose sub-digits stay below
  ``(p - 1) + d*(p - 1)**2``; s is one bit more than that bound needs,
  and the top bit of each sub-digit is its guard.  Each sub-digit is
  then reduced mod p by conditional subtraction of ``p * 2**t``, t
  descending, all sub-digits at once: where ``(x | guard) - p * 2**t``
  keeps a sub-digit's guard bit, that sub-digit was at least
  ``p * 2**t``.  This is SIMD within a register; bit-slicing (Boothby
  and Bradshaw, arXiv:0901.1413) would instead spread each coefficient's
  bits over separate words.  GF(3) has b = 4, GF(5) b = 6, GF(7) b = 7,
  GF(9) b = 10, GF(25) b = 14 and GF(27) b = 15.

The masks these steps use depend only on the field and the height of
the vectors; they are built on first use.  The pivot of a vector is
its lowest nonzero digit, and an echelon row is a vector scaled to 1
there (:meth:`GF.normalize`), so equal rows span equal lines and a row
can be a dict key.  :meth:`GF.reduce`, :meth:`GF.normalize`,
:meth:`GF.project` (a list of rows along one echelon row, one call per
list), :meth:`GF.echelon` and its continuation :meth:`GF.echelon_into`
are the only elimination routines in the package, with the one pass
that tracks coordinates (``matroid._standard_rows``);
:meth:`GF.span_points` lists the combinations of a few rows, one
``v - c·w`` step each.

Tables are built eagerly, so every scalar operation afterwards is a
pair of list lookups.  Instances are safe to share between threads:
after construction only the mask table and the subspace tables
(:meth:`GF.subspaces`) grow, one whole entry at a time.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_, index, lshift, rshift

from .errors import (
    ArgumentError,
    DivisionByZeroError,
    NotPrimeError,
    OrderTooLargeError,
    ReduciblePolynomialError,
)

MAX_ORDER = 32
# the points of PG(r - 1, q) up to which GF.subspaces keeps a table:
# binary ranks 3 to 5 and the planes over GF(3), GF(4) and GF(5)
MAX_TABLE_POINTS = 31

#: Modulus polynomials shipped for the non-prime orders that need no
#: user input.  Coefficients are listed constant term first and the
#: polynomials are monic.  Order 32 is supported but requires an
#: explicit modulus.
DEFAULT_IRREDUCIBLE = {
    4: (1, 1, 1),          # x^2 + x + 1
    8: (1, 1, 0, 1),       # x^3 + x + 1
    9: (1, 0, 1),          # x^2 + 1
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1
    25: (2, 0, 1),         # x^2 + 2
    27: (1, 2, 0, 1),      # x^3 + 2x + 1
}


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def _integer(value, name: str) -> int:
    """``value`` through ``operator.index``: a float or a string raises
    :class:`ArgumentError` naming it, never truncated."""
    try:
        return index(value)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {value!r}") from None


def _integers(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints through ``operator.index``; the
    first that is not an integer raises :class:`ArgumentError` naming
    it, never truncated."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        return tuple([_integer(v, name) for v in values])


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, d) with q == p**d, or raise :class:`ArgumentError`
    (a ``ValueError``)."""
    if q < 2:
        raise ArgumentError(f"field order must be at least 2, got {q}")
    for p in range(2, q + 1):
        if q % p == 0:
            d = 0
            m = q
            while m % p == 0:
                m //= p
                d += 1
            if m != 1 or not is_prime(p):
                raise ArgumentError(f"{q} is not a prime power")
            return p, d
    raise ArgumentError(f"{q} is not a prime power")


# -- polynomial helpers over Z_p (coefficient tuples, constant first) -------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_zp(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod_zp(num, den, p):
    """Remainder of num modulo the monic den over Z_p."""
    num = list(num)
    _poly_trim(num)
    dd = len(den) - 1
    while len(num) - 1 >= dd and num:
        shift = len(num) - 1 - dd
        factor = num[-1]
        for i in range(dd + 1):
            num[shift + i] = (num[shift + i] - factor * den[i]) % p
        _poly_trim(num)
    return num


def _pg_chi_coefficients(k: int, q: int) -> list[int]:
    """The coefficients of (lam - 1)(lam - q)...(lam - q**(k-1)), the
    characteristic polynomial of PG(k - 1, q), constant term first."""
    row = [1]
    for i in range(k):
        row = [a - q ** i * b for a, b in zip([0] + row, row + [0])]
    return row


class _Masks(dict):
    """Bit length -> (low, guard, steps) for packed vectors of that
    length, built on first use; the masks cover ceil(length / width)
    digits, so they depend only on the field and the height.

    ``low`` holds ``2**s - 1`` at the bottom of every digit (s being the
    sub-digit width) and ``guard`` the top bit of every sub-digit;
    ``steps`` lists the pairs (p * 2**t in every sub-digit, p * 2**t)
    for the conditional subtractions, t descending."""

    __slots__ = ("field",)

    def __init__(self, field):
        super().__init__()
        self.field = field

    def __missing__(self, length):
        field = self.field
        p, width, sub = field.p, field.width, field._sub_width
        digits = -(-length // width) * field.d  # sub-digits covered
        every = ((1 << digits * sub) - 1) // ((1 << sub) - 1)  # bit 0 of each sub-digit
        low = ((1 << digits * sub) - 1) // ((1 << width) - 1) * ((1 << sub) - 1)
        steps = tuple((every * (p << t), p << t) for t in range(field._top, -1, -1))
        masks = self[length] = (low, every << (sub - 1), steps)
        return masks


class GF:
    """A finite field of order ``p**d`` with full lookup tables, and
    elimination on vectors packed into ints (see the module docstring).

    Use :func:`ff_build` or :func:`gf` instead of constructing directly
    unless a custom modulus polynomial is wanted.
    """

    __slots__ = (
        "p", "d", "q", "irreducible", "_hash", "add", "mul", "neg", "inv",
        "width", "_sub_width", "_top", "_digit", "_spread", "_code", "_terms", "_masks", "_submul",
        "_subspaces",
    )

    def __init__(self, p: int, d: int = 1, irreducible=None):
        p, d = _integer(p, "characteristic"), _integer(d, "extension degree")
        if not is_prime(p):
            raise NotPrimeError(f"characteristic {p} is not prime")
        if d < 1:
            raise ArgumentError(f"extension degree must be positive, got {d}")
        q = p ** d
        if q > MAX_ORDER:
            raise OrderTooLargeError(f"order {q} exceeds the supported maximum {MAX_ORDER}")
        if d == 1:
            if irreducible is not None:
                raise ArgumentError("a modulus polynomial only applies to extension fields")
            irreducible = (0, 1)  # x: products of residues reduce to themselves
        else:
            if irreducible is None:
                irreducible = DEFAULT_IRREDUCIBLE.get(q)
                if irreducible is None:
                    raise ArgumentError(
                        f"no default modulus is shipped for order {q}; pass one explicitly"
                    )
            try:
                irreducible = tuple(index(c) % p for c in irreducible)
            except TypeError:
                raise ArgumentError(
                    f"modulus must be a sequence of integers, got {irreducible!r}"
                ) from None
            if len(irreducible) != d + 1 or irreducible[-1] != 1:
                raise ArgumentError(
                    "modulus must be monic of degree equal to the extension degree"
                )
        self.p = p
        self.d = d
        self.q = q
        self.irreducible = tuple(irreducible)
        # fields key the bound suites' tables, so the hash is made once
        self._hash = hash((p, d, self.irreducible))
        self._build_tables()
        self._build_packing()

    def _build_tables(self):
        """Addition, multiplication, negation and inversion on the
        base-p digits of the elements, constant term first, products
        reduced modulo the monic modulus polynomial; a prime field is the
        case d = 1, modulus x.  The inverse table is the irreducibility
        test: Z_p[x]/(f) is a field exactly when f is irreducible (Lidl
        and Niederreiter, *Finite Fields*, ch. 1), and a factor of a
        reducible f is a nonzero element with no inverse, so such a
        modulus raises :class:`ReduciblePolynomialError`."""
        p, d, q = self.p, self.d, self.q
        digits = [[a // p ** i % p for i in range(d)] for a in range(q)]

        def pack(cs):
            return sum(c * p ** i for i, c in enumerate(cs))

        modulus = list(self.irreducible)
        self.add = [[pack([(x + y) % p for x, y in zip(a, b)]) for b in digits] for a in digits]
        self.mul = [
            [pack(_poly_mod_zp(_poly_mul_zp(a, b, p), modulus, p)) for b in digits] for a in digits
        ]
        self.neg = [pack([(-x) % p for x in a]) for a in digits]
        try:
            self.inv = [0] + [row.index(1) for row in self.mul[1:]]
        except ValueError:
            raise ReduciblePolynomialError(
                f"modulus {self.irreducible} is reducible over GF({p})"
            ) from None

    def _build_packing(self):
        """Digit layout of packed vectors (module docstring): the digit
        width, the digit of each element and back, and for each c the
        terms that multiply a vector by c."""
        p, d, q = self.p, self.d, self.q
        if p == 2:
            sub = 1
            self._top = -1  # nothing to fold
        else:
            # the largest sub-digit before folding: v + (p - c)·w, with
            # d products per sub-digit in an extension field
            bound = (p - 1) + d * (p - 1) ** 2
            sub = bound.bit_length() + 1  # plus a guard bit
            # the first conditional subtraction is p * 2**top, the
            # largest such multiple up to ``bound``
            top = 0
            while p << (top + 1) <= bound:
                top += 1
            self._top = top
        self._sub_width = sub
        self.width = width = d * sub
        self._digit = (1 << width) - 1
        # coefficient j of an element's polynomial in sub-digit j
        self._spread = spread = {
            a: sum((a // p ** j % p) << (j * sub) for j in range(d)) for a in range(q)
        }
        self._code = {digit: a for a, digit in spread.items()}
        # c·v = sum over j of (sub-digit j of v) · (c·x**j), x**j being p**j
        self._terms = [
            tuple((j * sub, spread[self.mul[c][p ** j]]) for j in range(d)) for c in range(q)
        ]
        self._masks = _Masks(self)
        self._subspaces = {}
        if q == 2:
            self._submul = self._submul_binary
        elif p == 2:
            self._submul = self._submul_char2
        else:
            self._submul = self._submul_prime if d == 1 else self._submul_odd

    # -- scalar operations --------------------------------------------------

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def invert(self, a: int) -> int:
        if a == 0:
            raise DivisionByZeroError("zero has no multiplicative inverse")
        return self.inv[a]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.invert(a), -k
        out = 1
        while k:
            if k & 1:
                out = self.mul[out][a]
            a = self.mul[a][a]
            k >>= 1
        return out

    # -- packed vectors ----------------------------------------------------------

    def pack(self, vec) -> int:
        """The packed form of a sequence of elements, coordinate i in
        digit i; an entry that is not an element raises
        :class:`ArgumentError`."""
        spread, width = self._spread, self.width
        v = 0
        try:
            for x in reversed(vec):
                v = v << width | spread[x]
        except KeyError:
            raise ArgumentError(f"entry {x} is not an element of {self!r}") from None
        return v

    def unpack(self, v: int, height: int) -> tuple[int, ...]:
        """The first ``height`` coordinates of a packed vector."""
        code, digit, width = self._code, self._digit, self.width
        return tuple(code[v >> i * width & digit] for i in range(height))

    def _times(self, c: int, v: int) -> int:
        """c·v over an extension field, its sub-digits not yet reduced
        mod p: one product per sub-digit of an element, XORed in
        characteristic 2."""
        low = self._masks[v.bit_length()][0]
        out = 0
        if self.p == 2:
            for shift, term in self._terms[c]:
                out ^= (v >> shift & low) * term
        else:
            for shift, term in self._terms[c]:
                out += (v >> shift & low) * term
        return out

    def _fold(self, x: int) -> int:
        """x with every sub-digit reduced mod p (odd p), each one below
        its guard bit on entry: where a sub-digit is at least p * 2**t,
        which its guard bit survives, subtract p * 2**t, t descending."""
        _, guard, steps = self._masks[x.bit_length()]
        g = self._sub_width - 1
        for big, small in steps:
            x -= (((x | guard) - big & guard) >> g) * small
        return x

    # v - c·w for a nonzero element c, one kernel per kind of field:
    # XOR in characteristic 2, v + (p - c)·w folded in odd characteristic

    def _submul_binary(self, v: int, c: int, w: int) -> int:
        return v ^ w

    def _submul_char2(self, v: int, c: int, w: int) -> int:
        return v ^ self._times(c, w)

    def _submul_prime(self, v: int, c: int, w: int) -> int:
        return self._fold(v + (self.p - c) * w)

    def _submul_odd(self, v: int, c: int, w: int) -> int:
        return self._fold(v + self._times(self.neg[c], w))

    # -- elimination -------------------------------------------------------------

    def reduce(self, basis, v: int) -> int:
        """Reduce a packed vector against an echelon basis from
        :meth:`echelon`: for each row, subtract the multiple that clears
        v at the row's pivot.  The result is zero exactly when v lies in
        the span of the basis."""
        code, digit, submul = self._code, self._digit, self._submul
        for w in basis:
            low = w & -w  # bit 0 of w's pivot digit
            c = v & low * digit
            if c:
                v = submul(v, code[c // low], w)
        return v

    def normalize(self, v: int) -> int:
        """The echelon row of a packed vector: v scaled to 1 at its
        pivot, the first nonzero coordinate; 0 for the zero vector.  Two
        nonzero vectors span the same line exactly when their rows are
        equal.  A vector that already leads with 1, as every nonzero one
        over GF(2) does, comes back as it is."""
        if not v or self.q == 2:
            return v
        width = self.width
        c = self._code[v >> ((v & -v).bit_length() - 1) // width * width & self._digit]
        if c == 1:
            return v
        c = self.inv[c]
        if self.d == 1:
            return self._fold(c * v)
        v = self._times(c, v)
        return v if self.p == 2 else self._fold(v)

    def project(self, rows, prow: int) -> list[int]:
        """Each echelon row of ``rows`` reduced by the one echelon row
        ``prow``, in input order: ``normalize(reduce((prow,), row))``,
        with one elimination step per row.  ``prow`` is zero before its
        pivot k and 1 at k, so a row that is zero at k comes back
        unchanged, and any other keeps its pivot and scale unless the
        two pivots are equal; only then is the result normalized (0 for
        a parallel row).  Over GF(2) each step is one conditional XOR."""
        low = prow & -prow  # bit 0 of digit k
        if self.q == 2:
            return [row ^ prow if row & low else row for row in rows]
        at_k, below = low * self._digit, low - 1
        code, submul, normalize = self._code, self._submul, self.normalize
        out = []
        for row in rows:
            c = row & at_k
            if c:
                v = submul(row, code[c // low], prow)
                row = v if row & below else normalize(v)
            out.append(row)
        return out

    def span_points(self, rows):
        """Yield sum c_i·rows[i] for every coefficient vector c whose
        first nonzero entry is 1: with independent rows, the points of
        PG(d-1, q), d = len(rows), as packed combinations, each one
        once.  (Rows that are not echelon rows give combinations that
        are not either.)  The combinations led by rows[i] are rows[i]
        plus each of the q**(d-1-i) combinations of the rows after it,
        visited in p-ary Gray code order over the base-p coefficients
        of those rows' coefficients: step t adds x**j·rows[k] for the
        base-p digit (k, j) where t has its lowest nonzero digit, so
        every combination after rows[i] is reached from the one before
        by one ``v - c·w`` step."""
        p, d, neg, submul = self.p, self.d, self.neg, self._submul
        for i, v in enumerate(rows):
            yield v
            # v + x**j·w is v - c·w with c = -x**j, and x**j is element p**j
            steps = [(neg[p ** j], w) for w in rows[i + 1:] for j in range(d)]
            for t in range(1, p ** len(steps)):
                digit = 0
                while not t % p:  # the lowest nonzero base-p digit of t
                    t //= p
                    digit += 1
                c, w = steps[digit]
                v = submul(v, c, w)
                yield v

    def echelon(self, vectors) -> list[int]:
        """Gaussian elimination over this field, one packed vector at a
        time.

        Returns the echelon row (:meth:`normalize`) of each vector that is
        independent of those before it, reduced against the earlier rows,
        in input order.  The length is the rank of the input.
        """
        return self.echelon_into([], vectors)

    def echelon_into(self, basis: list[int], vectors) -> list[int]:
        """:meth:`echelon` continued: append to ``basis``, a list of rows
        from :meth:`echelon`, the echelon row of each vector independent
        of the rows before it, and return ``basis``, which is then the
        echelon of the old rows followed by ``vectors``."""
        reduce, normalize = self.reduce, self.normalize
        for v in vectors:
            v = normalize(reduce(basis, v))
            if v:
                basis.append(v)
        return basis

    def subspaces(self, rank: int):
        """What the finite-field count of chi (:func:`charpoly._subspace_chi`)
        reads off PG(rank - 1, q), rank >= 3: ``(masks, base, blocks)``,
        or None when PG(rank - 1, q) has more than ``MAX_TABLE_POINTS``
        points.  Built on first use and kept on the field, once per rank,
        the refusal too.

        ``masks`` maps each point, a packed echelon row of ``rank``
        digits, to one int holding, dimension by dimension, a bit for
        each subspace of that dimension through the point.  Each of
        ``blocks`` is (shift, span, row) for one dimension d from 1 to
        rank - 1: its bits are ``mask >> shift & span``, and row lists
        the coefficients of P_(rank - d)(lam), where
        P_k = (lam - 1)(lam - q)...(lam - q**(k-1)).  ``base`` is P_rank
        plus the sum over d of N_d P_(rank - d), N_d the number of
        subspaces of dimension d of GF(q)**rank.
        """
        try:
            return self._subspaces[rank]
        except KeyError:
            pass
        if rank < 3:
            raise ArgumentError(f"subspace tables start at rank 3, got {rank}")
        q = self.q
        table = None
        if (q ** rank - 1) // (q - 1) <= MAX_TABLE_POINTS:
            # within the cap a field of order q >= 3 has rank 3 alone
            masks, layout = self._binary_incidences(rank) if q == 2 else self._plane_incidences()
            counts = [1]  # the Gaussian binomials [rank, d]_q, d = 0, 1, ...
            for d in range(rank - 1):
                counts.append(counts[-1] * (q ** (rank - d) - 1) // (q ** (d + 1) - 1))
            base = _pg_chi_coefficients(rank, q)
            blocks = []
            for d, shift, length in layout:
                row = _pg_chi_coefficients(rank - d, q)
                base = [a + counts[d] * b for a, b in zip(base, row + [0] * d)]
                blocks.append((shift, (1 << length) - 1, tuple(row)))
            table = masks, tuple(base), tuple(blocks)
        self._subspaces[rank] = table
        return table

    def _plane_incidences(self):
        """(masks, layout) of PG(2, q): masks maps each point to an int
        with its own bit and the bits of the lines through it, and layout
        lists (d, shift, length), the bits ``mask >> shift`` of length
        ``length`` for dimension d.

        The points are listed by :meth:`span_points` over the unit rows,
        point i in bit i, and the values f·p of every functional f at
        every point p are one walk of :meth:`span_points` over the
        coordinate columns, in the same order.  So the line of the i-th
        functional holds point k exactly when that of the k-th holds
        point i: the lines through a point are the point set of its own
        line, with no transposition."""
        width = self.width
        digit = (1 << width) - 1
        points = list(self.span_points([1, 1 << width, 1 << 2 * width]))
        n = len(points)
        at = range(0, n * width, width)
        columns = [
            sum(map(lshift, map(and_, map(rshift, points, repeat(j * width)), repeat(digit)), at))
            for j in range(3)
        ]
        # the top bit of each digit of ((v & low) + low) | v is set exactly
        # where v is nonzero; the zero digits, one character per digit,
        # are the line's points
        ones = ((1 << n * width) - 1) // digit
        low, top = ones * (digit >> 1), ones << width - 1
        spec = f"0{n * width}b"
        lines = [
            int(format(top ^ (((v & low) + low | v) & top), spec)[::width], 2)
            for v in self.span_points(columns)
        ]
        masks = {p: line << n | 1 << i for i, (p, line) in enumerate(zip(points, lines))}
        return masks, ((1, 0, n), (2, n, n))

    def _binary_incidences(self, rank: int):
        """:meth:`_plane_incidences` over GF(2), rank 3 to 5, in bit
        operations: a point is its own packed row x < 2**rank = w and
        takes bit x, and the functionals are numbered the same way.

        The hyperplanes through x are the functionals f with f·x = 0, an
        even number of common bits, so their mask is that of x's lowest
        bit cleared XOR the mask B_j of the functionals with bit j.  A
        line of functionals {f, g, f ^ g} is named by its least two, bit
        f*w + g with f < g < f ^ g; the subspace of codimension 2 it cuts
        out holds x exactly when f and g are hyperplanes through x, so
        its bits are those of H_x * spread(H_x), spread moving bit g to
        g*w (the product cannot carry), kept where a pair names a line.
        A line of points is named the same way, and holds x when x is f,
        g or f ^ g: the row of x, the column of x, and the diagonal
        f*w + (f ^ x), which one swap of blocks per bit of x moves from
        the main diagonal.  Points, hyperplanes, codimension 2 and lines
        are every dimension up to rank 5.
        """
        w = 1 << rank
        full = (1 << w) - 1
        every = ((1 << w * w) - 1) // full  # bit f*w for every f
        # B_j, the x < w with bit j, and spread(B_j), bit x at x*w
        bits = [full // ((1 << (2 << j)) - 1) * ((1 << (1 << j)) - 1 << (1 << j)) for j in range(rank)]
        spread = [((1 << w * w) - 1) // ((1 << (w << j + 1)) - 1)
                  * (((1 << (w << j)) - 1) // full << (w << j)) for j in range(rank)]
        # the pairs that name a line: g above f and clear at f's top bit
        named = sum((full >> f + 1 << f + 1 & ~bits[f.bit_length() - 1]) << f * w for f in range(1, w))
        even, spread_even = [full], [every]
        for x in range(1, w):
            j = (x & -x).bit_length() - 1
            even.append(even[x & x - 1] ^ bits[j])
            spread_even.append(spread_even[x & x - 1] ^ spread[j])
        masks = [1 << x | (even[x] & ~1) << w for x in range(w)]
        layout = [(1, 0, w), (rank - 1, w, w)]
        if rank > 3:
            masks = [mask | (even[x] * spread_even[x] & named) << 2 * w for x, mask in enumerate(masks)]
            layout.append((rank - 2, 2 * w, w * w))
        if rank > 4:
            keep = [every * (full ^ b) for b in bits]  # positions f*w + g with bit j of g clear
            diagonal = [((1 << w * (w + 1)) - 1) // ((1 << w + 1) - 1)]  # bit f*w + f
            for x in range(1, w):
                j = (x & -x).bit_length() - 1
                d = diagonal[x & x - 1]
                diagonal.append((d >> (1 << j) & keep[j]) | (d & keep[j]) << (1 << j))
                line = (named >> x * w & full) << x * w | named & (every << x | diagonal[x])
                masks[x] |= line << 2 * w + w * w
            layout.append((2, 2 * w + w * w, w * w))
        return dict(zip(range(1, w), masks[1:])), tuple(layout)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.d, self.irreducible) == (other.p, other.d, other.irreducible)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.q})"


def ff_build(p: int, d: int = 1, irreducible=None) -> GF:
    """Build GF(p**d), validating primality, order, and the modulus."""
    return GF(p, d, irreducible)


# order -> the field gf(order) returns; at most one per prime power up
# to MAX_ORDER
_FIELDS: dict[int, GF] = {}


def gf(q: int) -> GF:
    """GF(q) from the order alone, using shipped default moduli.  One
    field is built per order and shared by every later call, since a
    field is immutable; a failed build is not kept.  An order that is
    not an integer raises :class:`ArgumentError` naming it.  The order
    is checked against ``MAX_ORDER`` before it is factored, because
    factoring trial-divides up to q."""
    # only an int order is looked up: a float equal to a kept order
    # must still be refused
    field = _FIELDS.get(q) if type(q) is int else None
    if field is None:
        order = _integer(q, "field order")
        if order > MAX_ORDER:
            raise OrderTooLargeError(f"order {order} exceeds the supported maximum {MAX_ORDER}")
        p, d = factor_prime_power(order)
        field = _FIELDS.setdefault(order, GF(p, d))
    return field
