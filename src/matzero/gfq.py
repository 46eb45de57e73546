"""Dense arithmetic tables for small finite fields GF(q), q <= 32.

Field elements are plain integers in ``[0, q)``.  For prime ``q`` the
integer is the residue itself.  For a prime power ``q = p**d`` with
``d > 1`` the integer encodes a polynomial residue digit by digit in
base ``p``: the element ``sum(c_i * x**i)`` is stored as the index
``sum(c_i * p**i)``, constant term in the lowest digit.  With the
default modulus for GF(4) the element ``x`` is index 2 and ``x + 1``
is index 3.

Tables are built eagerly, so every operation afterwards is a pair of
list lookups.  Instances are immutable once constructed and safe to
share between threads.
"""

from __future__ import annotations

from .errors import (
    ArgumentError,
    DivisionByZeroError,
    NotPrimeError,
    OrderTooLargeError,
    ReduciblePolynomialError,
)

MAX_ORDER = 32

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
    """Remainder of num modulo den over Z_p; den need not be monic."""
    num = list(num)
    _poly_trim(num)
    dd = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    while len(num) - 1 >= dd and num:
        shift = len(num) - 1 - dd
        factor = (num[-1] * lead_inv) % p
        for i in range(dd + 1):
            num[shift + i] = (num[shift + i] - factor * den[i]) % p
        _poly_trim(num)
    return num


def _monic_polys_zp(degree, p):
    """All monic polynomials of the given degree over Z_p."""
    if degree == 0:
        yield [1]
        return
    span = p ** degree
    for code in range(span):
        coeffs = []
        m = code
        for _ in range(degree):
            coeffs.append(m % p)
            m //= p
        coeffs.append(1)
        yield coeffs


def _is_irreducible_zp(poly, p) -> bool:
    d = len(poly) - 1
    if d < 1:
        return False
    # linear polynomials are always irreducible
    if d == 1:
        return True
    # degree 2 and 3: irreducible iff no root
    for x in range(p):
        acc = 0
        xp = 1
        for c in poly:
            acc = (acc + c * xp) % p
            xp = (xp * x) % p
        if acc == 0:
            return False
    if d <= 3:
        return True
    # general degree: trial division by all monic factors up to d // 2
    for deg in range(2, d // 2 + 1):
        for cand in _monic_polys_zp(deg, p):
            if not _poly_mod_zp(poly, cand, p):
                return False
    return True


class GF:
    """A finite field of order ``p**d`` with full lookup tables.

    Use :func:`ff_build` or :func:`gf` instead of constructing directly
    unless a custom modulus polynomial is wanted.
    """

    __slots__ = ("p", "d", "q", "irreducible", "add", "mul", "neg", "inv")

    def __init__(self, p: int, d: int = 1, irreducible=None):
        if not is_prime(p):
            raise NotPrimeError(f"characteristic {p} is not prime")
        if d < 1:
            raise ValueError(f"extension degree must be positive, got {d}")
        q = p ** d
        if q > MAX_ORDER:
            raise OrderTooLargeError(f"order {q} exceeds the supported maximum {MAX_ORDER}")
        if d == 1:
            if irreducible is not None:
                raise ValueError("a modulus polynomial only applies to extension fields")
            irreducible = (0, 1)  # formally x; unused for prime fields
        else:
            if irreducible is None:
                irreducible = DEFAULT_IRREDUCIBLE.get(q)
                if irreducible is None:
                    raise ValueError(
                        f"no default modulus is shipped for order {q}; pass one explicitly"
                    )
            irreducible = tuple(int(c) % p for c in irreducible)
            if len(irreducible) != d + 1 or irreducible[-1] != 1:
                raise ValueError("modulus must be monic of degree equal to the extension degree")
            if not _is_irreducible_zp(list(irreducible), p):
                raise ReduciblePolynomialError(
                    f"modulus {irreducible} is reducible over GF({p})"
                )
        self.p = p
        self.d = d
        self.q = q
        self.irreducible = tuple(irreducible)
        self._build_tables()

    def _build_tables(self):
        p, d, q = self.p, self.d, self.q
        if d == 1:
            self.add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul = [[(a * b) % p for b in range(p)] for a in range(p)]
            self.neg = [(-a) % p for a in range(p)]
        else:
            digits = []
            for a in range(q):
                m, ds = a, []
                for _ in range(d):
                    ds.append(m % p)
                    m //= p
                digits.append(ds)

            def pack(cs):
                idx = 0
                for i, c in enumerate(cs):
                    idx += c * (p ** i)
                return idx

            modulus = list(self.irreducible)
            self.add = [
                [pack([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
                for a in range(q)
            ]
            mul = []
            for a in range(q):
                row = []
                for b in range(q):
                    prod = _poly_mul_zp(digits[a], digits[b], p)
                    rem = _poly_mod_zp(prod, modulus, p)
                    rem = rem + [0] * (d - len(rem))
                    row.append(pack(rem))
                mul.append(row)
            self.mul = mul
            self.neg = [pack([(-x) % p for x in digits[a]]) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            row = self.mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self.inv = inv

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

    # -- elimination -----------------------------------------------------------

    def reduce(self, basis, v):
        """Reduce a vector against an echelon basis from :meth:`echelon`.
        The result is zero exactly when v lies in the span of the basis."""
        add, mul, neg = self.add, self.mul, self.neg
        for pivot, bv in basis:
            c = v[pivot]
            if c:
                minus_c = mul[neg[c]]
                v = [add[x][minus_c[y]] for x, y in zip(v, bv)]
        return v

    def normalize(self, v) -> tuple[int, tuple[int, ...]] | None:
        """The echelon row of a vector: (pivot, v scaled to 1 at its
        pivot), the pivot being the index of the first nonzero
        coordinate; None for the zero vector.  Two nonzero vectors span
        the same line exactly when their rows are equal.  A vector
        that already leads with 1, as every nonzero one over GF(2)
        does, is only made a tuple."""
        lead = next(filter(None, v), 0)
        if not lead:
            return None
        if lead == 1:
            return v.index(1), tuple(v)
        scale = self.mul[self.inv[lead]]
        return v.index(lead), tuple(map(scale.__getitem__, v))

    def project(self, row, prow) -> tuple[int, tuple[int, ...]] | None:
        """The echelon row of ``row``'s vector reduced by the one echelon
        row ``prow``: ``normalize(reduce((prow,), row[1]))``, with one
        elimination step.  ``prow`` is zero before its pivot k and 1 at
        k, so a row that is zero at k comes back unchanged, and any
        other keeps its pivot and scale unless the two pivots are equal;
        only then is the result normalized (None for a parallel row)."""
        pivot, v = row
        k = prow[0]
        if not v[k]:
            return row
        v = self.reduce((prow,), v)
        if pivot == k:
            return self.normalize(v)
        return pivot, tuple(v)

    def echelon(self, vectors) -> list[tuple[int, tuple[int, ...]]]:
        """Gaussian elimination over this field, one vector at a time.

        Returns one (pivot, vector) pair per vector that is independent
        of those before it, in input order: the vector reduced against
        the earlier pairs and scaled to 1 at its pivot (:meth:`normalize`).
        The length is the rank of the input.
        """
        reduce, normalize = self.reduce, self.normalize
        basis: list[tuple[int, tuple[int, ...]]] = []
        for v in vectors:
            row = normalize(reduce(basis, v))
            if row is not None:
                basis.append(row)
        return basis

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.d, self.irreducible) == (other.p, other.d, other.irreducible)
        )

    def __hash__(self):
        return hash((self.p, self.d, self.irreducible))

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
    field is immutable; a failed build is not kept.  The order is
    checked against ``MAX_ORDER`` before it is factored, because
    factoring trial-divides up to q."""
    # only an int order is looked up: a float equal to a kept order
    # must still fail in factor_prime_power
    field = _FIELDS.get(q) if type(q) is int else None
    if field is None:
        if q > MAX_ORDER:
            raise OrderTooLargeError(f"order {q} exceeds the supported maximum {MAX_ORDER}")
        p, d = factor_prime_power(q)
        field = _FIELDS.setdefault(q, GF(p, d))
    return field
