"""Finite field tables: axioms, known values, and error handling."""

import hashlib
import random
import sys
import threading
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matzero.errors import (
    ArgumentError,
    DivisionByZeroError,
    NotPrimeError,
    OrderTooLargeError,
    ReduciblePolynomialError,
)
from matzero import gfq
from matzero.gfq import GF, MAX_ORDER, factor_prime_power, ff_build, gf, is_prime
from support import pivot


def test_is_prime_small_values():
    primes = [p for p in range(40) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(32) == (2, 5)
    for bad in (1, 6, 12, 15, 100):
        with pytest.raises(ArgumentError):
            factor_prime_power(bad)
    assert issubclass(ArgumentError, ValueError)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    """Commutativity, associativity, distributivity, identities, and
    inverses, checked over every element triple."""
    F = gf(q)
    els = range(q)
    add, mul = F.add, F.mul
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert mul[a][0] == 0
        assert add[a][F.neg[a]] == 0
        if a:
            assert mul[a][F.inv[a]] == 1
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in els:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_frobenius(q):
    """(a + b)**p == a**p + b**p in characteristic p."""
    F = gf(q)
    p = F.p
    for a in range(q):
        for b in range(q):
            lhs = F.pow(F.add[a][b], p)
            rhs = F.add[F.pow(a, p)][F.pow(b, p)]
            assert lhs == rhs


def test_gf4_table_values():
    # with modulus x^2 + x + 1: element 2 is x, and x * x = x + 1 = element 3
    F = gf(4)
    assert F.mul[2][2] == 3
    assert F.inv[2] == 3
    assert F.add[2][3] == 1


def test_gf5_inverse():
    F = gf(5)
    assert F.invert(3) == 2
    assert F.invert(4) == 4


def test_extension_tables_match_polynomial_arithmetic():
    """GF(9) multiplication against direct polynomial arithmetic mod the
    shipped modulus x^2 + 1 over Z_3."""
    F = gf(9)
    p = 3
    for a in range(9):
        a0, a1 = a % p, a // p
        for b in range(9):
            b0, b1 = b % p, b // p
            # (a0 + a1 x)(b0 + b1 x) with x^2 = -1
            c0 = (a0 * b0 - a1 * b1) % p
            c1 = (a0 * b1 + a1 * b0) % p
            assert F.mul[a][b] == c0 + p * c1


def test_pow():
    F = gf(7)
    for a in range(1, 7):
        assert F.pow(a, 6) == 1
        assert F.pow(a, 0) == 1
        assert F.mul[F.pow(a, -1)][a] == 1
    assert F.pow(3, 2) == 2


def test_sub():
    F = gf(5)
    for a in range(5):
        for b in range(5):
            assert F.add[F.sub(a, b)][b] == a


def test_echelon_and_reduce():
    F = gf(3)
    pack = F.pack
    basis = F.echelon(map(pack, [(1, 2, 0), (2, 1, 0), (0, 1, 1), (1, 0, 1)]))
    assert basis == [pack((1, 2, 0)), pack((0, 1, 1))]
    assert [pivot(F, row) for row in basis] == [0, 1]
    assert F.reduce(basis, pack((2, 2, 1))) == 0
    assert F.unpack(F.reduce(basis, pack((1, 1, 1))), 3) == (0, 0, 2)
    assert F.echelon([]) == []


@given(st.sampled_from([2, 3, 4, 5, 9]), st.data())
@settings(max_examples=200, deadline=None)
def test_echelon_into_continues_echelon(q, data):
    """Echelon rows appended one chunk at a time are those of the whole
    input at once, and after each vector their count is the rank of
    the prefix."""
    F = gf(q)
    height = data.draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(0, q - 1)] * height).map(F.pack)
    chunks = data.draw(st.lists(st.lists(vector, max_size=4), max_size=4))
    basis: list[int] = []
    for chunk in chunks:
        assert F.echelon_into(basis, chunk) is basis
    vectors = [v for chunk in chunks for v in chunk]
    assert basis == F.echelon(vectors)
    prefix: list[int] = []
    ranks = [len(F.echelon_into(prefix, [v])) for v in vectors]
    assert ranks == [len(F.echelon(vectors[:i + 1])) for i in range(len(vectors))]


@pytest.mark.parametrize("p", [p for p in range(2, 32) if is_prime(p)])
def test_prime_field_tables_are_residue_arithmetic(p):
    F = GF(p)
    residues = range(p)
    assert F.add == [[(a + b) % p for b in residues] for a in residues]
    assert F.mul == [[a * b % p for b in residues] for a in residues]
    assert F.neg == [-a % p for a in residues]
    assert F.inv == [0] + [pow(a, p - 2, p) for a in range(1, p)]


def test_extension_tables_are_pinned():
    """The tables of the shipped extension fields, unchanged since they
    were first built digit by digit."""
    tables = [(F.add, F.mul, F.neg, F.inv) for F in map(gf, (4, 8, 9, 16, 25, 27))]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
        "e7c362086f6e52d4cf033195bf39f02f845282ecad0a8e01bdf4a1ab71a93f0e"
    )


def _echelon_row(F, rng, width, pivot):
    """A random echelon row, packed: zero before ``pivot``, 1 at it."""
    tail = [rng.randrange(F.q) for _ in range(width - pivot - 1)]
    return F.pack((0,) * pivot + (1, *tail))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_normalize_matches_the_rescaling_formula(q):
    """normalize gives the vector times the inverse of its first
    nonzero entry, whose index is the pivot, packed from lists and
    tuples alike, whether or not the lead is already 1, with nothing
    above the height; 0 for a zero vector."""
    F = gf(q)
    rng = random.Random(2000 + q)
    leads = set()
    for _ in range(400):
        v = [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(rng.randint(0, 6))]
        for given in (v, tuple(v)):
            got = F.normalize(F.pack(given))
            nonzero = [i for i, x in enumerate(v) if x]
            if not nonzero:
                assert got == 0
                continue
            first = nonzero[0]
            scale = F.inv[v[first]]
            assert pivot(F, got) == first
            assert F.unpack(got, len(v)) == tuple(F.mul[scale][x] for x in v)
            assert got >> len(v) * F.width == 0
            leads.add(v[first])
    assert leads == set(range(1, q))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_project_matches_reduce_then_normalize(q):
    """project([row], prow) is [normalize(reduce((prow,), row's vector))]
    in every case: a pivot below, at (parallel or not) or above prow's, and
    a row that is zero at prow's pivot, which comes back as it is."""
    F = gf(q)
    rng = random.Random(1000 + q)
    width = 5
    seen = set()
    for _ in range(300):
        k = rng.randrange(width)
        prow = _echelon_row(F, rng, width, k)
        case = rng.choice(["below", "same", "parallel", "above", "zero at k"])
        if case == "parallel":
            row = prow
        elif case == "same":
            row = _echelon_row(F, rng, width, k)
        elif case == "above" and k < width - 1:
            row = _echelon_row(F, rng, width, rng.randrange(k + 1, width))
        elif case in ("below", "zero at k") and k > 0:
            v = list(F.unpack(_echelon_row(F, rng, width, rng.randrange(k)), width))
            v[k] = 0 if case == "zero at k" else rng.randrange(1, q)
            row = F.pack(v)
        else:
            continue
        expected = F.normalize(F.reduce((prow,), row))
        [got] = F.project([row], prow)
        assert got == expected, (row, prow)
        if not F.unpack(row, width)[k]:
            assert got == row
        if case == "parallel":
            assert got == 0
        seen.add(case)
    assert seen >= {"below", "same", "parallel", "above", "zero at k"}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_span_points_lists_each_point_once_one_step_each(q, monkeypatch):
    """span_points of d independent rows gives sum c_i rows[i] for every
    coefficient vector c led by 1, each one once, in (q**d - 1)/(q - 1)
    combinations, every one after each rows[i] by one v - c·w step: on
    unit rows those are the points of PG(d-1, q) as pack lists them,
    and on random independent rows of height 5 the coefficients read
    back by elimination."""
    F = gf(q)
    steps = []
    real = F._submul

    def submul(v, c, w):
        steps.append(c)
        return real(v, c, w)

    monkeypatch.setattr(F, "_submul", submul)
    rng = random.Random(3000 + q)
    for d in range(1, 4 if q < 7 else 3):
        units = [F.pack(tuple(int(i == j) for i in range(d))) for j in range(d)]
        steps.clear()
        points = list(F.span_points(units))
        count = (q ** d - 1) // (q - 1)
        assert len(points) == count and len(steps) == count - d
        assert sorted(points) == sorted(F.pack(c) for c in product(range(q), repeat=d)
                                        if any(c) and c[next(i for i, x in enumerate(c) if x)] == 1)
        rows = []
        while len(rows) < d:
            row = F.pack([rng.randrange(q) for _ in range(5)])
            if len(F.echelon(rows + [row])) > len(rows):
                rows.append(row)
        # the rows (rows[i] | e_i) reduce (v | 0) to (0 | minus v's coefficients)
        marked = F.echelon(row | 1 << i * F.width << 5 * F.width for i, row in enumerate(rows))
        seen = set()
        for v in F.span_points(rows):
            coeffs = F.unpack(F.reduce(marked, v) >> 5 * F.width, d)
            lead = next(x for x in coeffs if x)
            assert F.neg[lead] == 1
            seen.add(coeffs)
        assert len(seen) == count


def test_order_32_needs_explicit_modulus():
    with pytest.raises(ValueError):
        gf(32)
    F = ff_build(2, 5, (1, 0, 1, 0, 0, 1))  # x^5 + x^2 + 1
    assert F.q == 32
    for a in range(1, 32):
        assert F.mul[a][F.inv[a]] == 1


def test_construction_errors():
    with pytest.raises(NotPrimeError):
        GF(4)
    with pytest.raises(OrderTooLargeError):
        gf(37)
    with pytest.raises(OrderTooLargeError):
        ff_build(2, 6)
    with pytest.raises(ReduciblePolynomialError):
        ff_build(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(ValueError):
        GF(2, 0)
    with pytest.raises(ValueError):
        GF(5, 1, irreducible=(1, 1))
    with pytest.raises(ValueError):
        ff_build(2, 3, (1, 1))  # degree mismatch


@pytest.mark.parametrize(
    "args",
    [
        (2, 0),  # extension degree below 1
        (3, -1),
        (5, 1, (1, 1)),  # a modulus for a prime field
        (2, 5),  # no shipped modulus for order 32
        (2, 3, (1, 1)),  # wrong degree
        (3, 2, (1, 0, 2)),  # not monic
        (2, 2, (1, 1.7, 1)),  # a coefficient that is not an integer
        (2, 2, (1, 0, "x")),
        (2, 2, 7),  # a modulus that is not a sequence
        (gf, 2.0),  # gf: an order that is not an integer
        (gf, "4"),
        (gf, None),
        (gf, True),
        (gf, 1),
    ],
)
def test_construction_argument_errors_are_typed(args):
    """Bad arguments to GF, and bad orders to gf, raise ArgumentError, a
    MatZeroError that is still a ValueError; an order that is not an
    integer is named in the message."""
    build, *rest = args if callable(args[0]) else (GF, *args)
    with pytest.raises(ArgumentError) as info:
        build(*rest)
    if build is gf and type(rest[0]) not in (int, bool):
        assert repr(rest[0]) in str(info.value)


def _monic(p, degree):
    """Every monic polynomial of the given degree over Z_p, as its
    coefficients, constant term first."""
    return [low + (1,) for low in product(range(p), repeat=degree)]


def _times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize(
    "p, d, irreducible",
    [(2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 5, 6), (3, 2, 3), (3, 3, 8), (5, 2, 10)],
)
def test_a_modulus_builds_exactly_when_it_is_irreducible(p, d, irreducible):
    """Every monic modulus of degree d >= 2 with p**d <= 32, 121 in all:
    GF(p, d, f) builds exactly when f is no product of monic factors of
    degrees k and d - k, 1 <= k <= d // 2, and then every nonzero
    element has an inverse.  The irreducible ones number (1/d) times the
    sum over e | d of mu(d/e) p**e (Gauss), given per (p, d)."""
    reducible = {
        _times(f, g, p)
        for k in range(1, d // 2 + 1)
        for f in _monic(p, k)
        for g in _monic(p, d - k)
    }
    built = 0
    for f in _monic(p, d):
        if f in reducible:
            with pytest.raises(
                ReduciblePolynomialError, match=rf"^modulus \({', '.join(map(str, f))}\) "
                                                rf"is reducible over GF\({p}\)$"
            ):
                GF(p, d, f)
        else:
            F = GF(p, d, f)
            assert all(F.mul[a][F.inv[a]] == 1 for a in range(1, F.q))
            built += 1
    assert built == irreducible


def test_order_is_capped_before_it_is_factored():
    """Factoring trial-divides up to q, so a large prime order must be
    turned away by the cap first: this returns at once."""
    with pytest.raises(OrderTooLargeError):
        gf(2**61 - 1)
    with pytest.raises(OrderTooLargeError):
        gf(64)


def test_zero_has_no_inverse():
    F = gf(3)
    with pytest.raises(DivisionByZeroError):
        F.invert(0)
    # also catchable as the builtin
    with pytest.raises(ZeroDivisionError):
        F.invert(0)


def test_equality_and_hash():
    assert gf(4) == gf(4)
    assert gf(4) != gf(5)
    assert hash(gf(9)) == hash(gf(9))
    custom = ff_build(3, 2, (2, 2, 1))
    assert custom != gf(9)  # different modulus, different field object


def test_gf_shares_one_field_per_order(monkeypatch):
    """gf builds each order once; ff_build always builds afresh."""
    monkeypatch.setattr(gfq, "_FIELDS", {})
    orders = [q for q in range(2, MAX_ORDER + 1) if q != 32]
    for q in orders:
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        assert gf(q) is gf(q)
        assert gf(q).q == q
    assert gf(4) is not ff_build(2, 2)
    assert ff_build(2, 2) is not ff_build(2, 2)
    assert ff_build(2, 2) == gf(4)
    assert set(gfq._FIELDS) == {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31}


@pytest.mark.parametrize(
    "q, error",
    [
        (1, ValueError),
        (6, ValueError),
        (12, ValueError),
        (32, ValueError),  # no shipped modulus
        (37, OrderTooLargeError),
        (2**61 - 1, OrderTooLargeError),
        (2.0, ArgumentError),
        (4.0, ArgumentError),
    ],
)
def test_gf_keeps_no_failure(monkeypatch, q, error):
    """A failing order raises on every call and is never kept; a float
    is not an order even when an equal int is already kept, and raises
    the typed error."""
    monkeypatch.setattr(gfq, "_FIELDS", {})
    gf(2), gf(4)
    for _ in range(2):
        with pytest.raises(error):
            gf(q)
    assert set(gfq._FIELDS) == {2, 4}


def test_gf_shares_one_field_between_threads(monkeypatch):
    """Threads racing to build the same orders all get one field each."""
    monkeypatch.setattr(gfq, "_FIELDS", {})
    seen = []

    def work():
        seen.append([gf(q) for q in (27, 4, 2, 25, 3, 16)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 6
    for fields in zip(*seen):
        assert len({id(f) for f in fields}) == 1


# -- the packed kernels against the tuple elimination they replaced ----------
#
# The reference below is the tuple-level elimination the library ran
# before vectors were packed into ints: rows are (pivot, tuple) pairs and
# None stands for the zero vector.


def _ref_reduce(F, basis, v):
    add, mul, neg = F.add, F.mul, F.neg
    for pivot, bv in basis:
        c = v[pivot]
        if c:
            minus_c = mul[neg[c]]
            v = [add[x][minus_c[y]] for x, y in zip(v, bv)]
    return v


def _ref_normalize(F, v):
    lead = next(filter(None, v), 0)
    if not lead:
        return None
    if lead == 1:
        return v.index(1), tuple(v)
    scale = F.mul[F.inv[lead]]
    return v.index(lead), tuple(map(scale.__getitem__, v))


def _ref_project(F, row, prow):
    pivot, v = row
    k = prow[0]
    if not v[k]:
        return row
    v = _ref_reduce(F, (prow,), v)
    if pivot == k:
        return _ref_normalize(F, v)
    return pivot, tuple(v)


def _ref_echelon(F, vectors):
    basis = []
    for v in vectors:
        row = _ref_normalize(F, _ref_reduce(F, basis, list(v)))
        if row is not None:
            basis.append(row)
    return basis


def _all_fields():
    fields = [gf(q) for q in range(2, MAX_ORDER) if _is_prime_power(q)]
    return fields + [ff_build(2, 5, (1, 0, 1, 0, 0, 1))]  # x^5 + x^2 + 1


def _is_prime_power(q):
    try:
        factor_prime_power(q)
    except ValueError:
        return False
    return True


# digit width per field: d bits in characteristic 2; in odd
# characteristic d sub-digits, each wide enough for (p - 1) + d(p - 1)**2
# plus a guard bit
WIDTHS = {2: 1, 4: 2, 8: 3, 16: 4, 32: 5, 3: 4, 5: 6, 7: 7, 11: 8, 13: 9, 17: 10,
          19: 10, 23: 10, 29: 11, 31: 11, 9: 10, 25: 14, 27: 15}


@pytest.mark.parametrize("F", _all_fields(), ids=repr)
def test_packed_kernels_match_the_tuple_reference(F):
    """echelon, reduce, normalize and project on packed vectors give the
    reference's rows after unpacking, for every prime power up to 32,
    heights 0-24, zero vectors, parallel rows and every scalar."""
    q = F.q
    assert F.width == WIDTHS[q]
    rng = random.Random(q)
    for h in range(25):
        for _ in range(3):
            vs = [
                tuple(rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(h))
                for _ in range(rng.randint(0, h + 2))
            ]
            if vs:  # a zero vector and a rescaled copy
                vs.insert(rng.randrange(len(vs) + 1), (0,) * h)
                c = rng.randrange(1, q)
                vs.insert(rng.randrange(len(vs) + 1), tuple(F.mul[c][x] for x in vs[0]))
            packed = [F.pack(v) for v in vs]
            assert [F.unpack(v, h) for v in packed] == vs
            ref = _ref_echelon(F, vs)
            basis = F.echelon(packed)
            assert [(pivot(F, row), F.unpack(row, h)) for row in basis] == ref
            v = tuple(rng.randrange(q) for _ in range(h))
            assert F.unpack(F.reduce(basis, F.pack(v)), h) == tuple(_ref_reduce(F, ref, list(v)))
            assert all(F.project([row], row) == [0] for row in basis)  # parallel
            for c in range(q):
                w = [F.mul[c][x] for x in v]
                row, expected = F.normalize(F.pack(w)), _ref_normalize(F, w)
                if expected is None:
                    assert row == 0
                    continue
                assert (pivot(F, row), F.unpack(row, h)) == expected
                for prow in ref:  # every scalar against every echelon row
                    [got] = F.project([row], F.pack(prow[1]))
                    want = _ref_project(F, expected, prow)
                    assert (pivot(F, got), F.unpack(got, h)) == (want or (-1, (0,) * h))


@pytest.mark.parametrize("F", _all_fields(), ids=repr)
def test_batched_project_matches_the_tuple_reference(F):
    """project(rows, prow) gives, row by row and in input order, the
    reference's projection of each row, for every prime power up to 32:
    rows whose pivot is before, at or after prow's, parallel rows (0)
    and the empty list ([])."""
    q = F.q
    rng = random.Random(3000 + q)

    def echelon(h, pivot):
        return pivot, (0,) * pivot + (1,) + tuple(rng.randrange(q) for _ in range(h - pivot - 1))

    seen = set()
    for h in range(1, 9):
        for _ in range(6):
            prow = echelon(h, rng.randrange(h))
            k = prow[0]
            assert F.project([], F.pack(prow[1])) == []
            rows = [echelon(h, rng.randrange(h)) for _ in range(rng.randint(1, 8))]
            rows.insert(rng.randrange(len(rows) + 1), prow)  # parallel
            rows.insert(rng.randrange(len(rows) + 1), echelon(h, k))
            packed = [F.pack(v) for _, v in rows]
            got = F.project(packed, F.pack(prow[1]))
            assert len(got) == len(rows)
            for row, v, out in zip(rows, packed, got):
                want = _ref_project(F, row, prow)
                assert (pivot(F, out), F.unpack(out, h)) == (want or (-1, (0,) * h))
                if row == prow:
                    assert out == 0
                elif not row[1][k]:
                    assert out == v
                seen.add("before" if row[0] < k else "at" if row[0] == k else "after")
            assert F.project(packed[::-1], F.pack(prow[1])) == got[::-1]
    assert seen == {"before", "at", "after"}


def test_packed_elimination_shared_between_threads():
    """Threads eliminating vectors of many heights over one fresh field,
    whose mask table fills while they run, all get the answers of a
    single thread."""
    rng = random.Random(7)
    batches = [
        [tuple(rng.randrange(9) for _ in range(h)) for _ in range(h + 1)] for h in range(1, 25)
    ]

    def solve(F, order):
        return {i: [F.unpack(row, len(batches[i][0])) for row in F.echelon(map(F.pack, batches[i]))]
                for i in order}

    expected = solve(ff_build(3, 2), range(len(batches)))
    shared = ff_build(3, 2)
    seen, errors = [], []

    def work(offset):
        try:
            order = [(i + offset) % len(batches) for i in range(len(batches))][::-1 if offset % 2 else 1]
            seen.append(solve(shared, order))
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert seen == [expected] * 6
