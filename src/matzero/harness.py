"""Instance generation and end-to-end verification of the zero-free
bounds.

Everything here is deterministic given a seed, and every numeric claim
in a report is exact: bounds and root brackets are rational numbers
carried as numerator/denominator pairs in the JSON output.  The env var
``MZ_SEED`` overrides the seed passed to a public generator, suite or
seed spec; the sub-seeds a suite derives from it are used unchanged.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .charpoly import (
    MAX_ROOT_ANSWERS,
    IntPoly,
    ZERO,
    _chi_from_rows,
    _cocircuit_chi,
    _remember,
    largest_real_root,
    poly_exact_div,
    sturm_positive_beyond,
)
from .errors import (
    ArgumentError,
    InexactDivisionError,
    LineMinorPresentError,
    ParseError,
    TooLargeError,
    WidthWitnessExceededError,
)
from .gfq import _integer, gf
from .matroid import (
    MAX_GROUND,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    _coloops,
    _delete_contract_rows,
    _min_cocircuit,
    _standard_rows,
    load_matroid,
    mask_bits,
    mask_of,
    save_matroid,
)
from .projgeom import _chi_by_splits, _telescoped_chi, pg_build, pg_point_count
from .treedecomp import (
    TreeDecomposition,
    _scored_path,
    best_heuristic,
    load_decomposition,
    save_decomposition,
)

ROOT_TOL = Fraction(1, 2 ** 30)
# keys of whole bound-suite instances whose characteristic polynomial
# and verdicts are kept for the process; the oldest is dropped when full
MAX_CHARPOLY_MEMO = 1024


def effective_seed(seed):
    env = os.environ.get("MZ_SEED")
    if env is not None:
        return int(env)
    return seed


def charpoly_auto(m: Matroid) -> IntPoly:
    """The production engine for bulk verification: the split engine
    (:func:`projgeom._chi_by_splits`) on m's standard form, which splits
    chi along direct sums and filled necks of the element-order path and
    leaves the pieces to the leaf :func:`charpoly._chi_from_rows` (the
    finite-field count within its table cap, the deletion-contraction
    recursion :func:`charpoly._row_chi` above it); zero when m has a
    loop.  The other engines are kept as test oracles.  The bound
    suites run the split engine on the standard form they key their
    memo with, once per memo entry (:func:`_shared_entry`): 268 times
    for the 2000 instances of main-c05 at seed 0."""
    basis, coordinates = m._standard_form()
    return _chi_by_splits(m._points()[0], coordinates, basis.bit_count())


# (field, frozenset of packed echelon rows) -> (chi, answers), each entry
# filed under a point-set key and a standard-form key, which may be one
# key; insertion order is age
_CHARPOLY_MEMO: dict[tuple, tuple[IntPoly, dict]] = {}


def _shared_entry(m: Matroid) -> tuple[IntPoly, dict]:
    """(chi, answers) of m, one entry per distinct simple matroid: chi
    from the split engine of :func:`charpoly_auto`
    (:func:`projgeom._chi_by_splits`) on m's standard form, and
    ``answers`` mapping an integer bound b, keyed (b, 1), to the
    (bound, verdict, bracket) that :func:`_verify_bound` found for chi
    there, the bound as the ``Fraction`` its reports carry.

    A loopless matroid's chi is that of its simplification, which the
    set of its columns' projective points fixes: relabelling, rescaling
    or repeating a column leaves it alone.  So the first key is the
    field of the root's matrix and the set of m's points
    (:meth:`Matroid._points`: its normalized columns, reduced modulo the
    contracted span for a minor), packed into ints, so matrices that
    differ only by zero rows at the bottom share it.  A point set not in
    the table is looked up again by the field and the set of rows of
    m's standard form (:meth:`Matroid._standard_form`) before the engine
    runs, and the entry is then filed under both keys.  Those rows are
    the points of a matrix [I_r | D] of the same simple matroid, so
    both kinds of key name a simple matroid by a set of its points and
    no key can stand for two polynomials.  They are each point's
    coordinates in the first basis of points in element order, each
    basis point scaled to 1 at its first nonzero entry, so matrices
    with their columns in one order that differ by a change of basis
    keeping every point's leading entry share one engine run: any
    change of basis over GF(2), and adding multiples of rows to later
    rows over any field.  The field compares p, d and the modulus, so
    fields that encode elements differently never share an entry.  The
    table holds at most ``MAX_CHARPOLY_MEMO`` keys, and each entry's
    answers at most ``MAX_ROOT_ANSWERS`` bounds.  A matroid with a loop
    gets chi from :func:`charpoly_auto` afresh and an answers dict of
    its own, kept nowhere.

    The point key is probed first, so an instance whose simple matroid
    is in the table costs one dict read.  The rows are scanned for a
    loop (a zero row) only on a miss: a key holding row 0 is never
    filed, so a matroid with a loop always misses and reaches the scan.

    Only the bound suites read this table.  :func:`verify_identities`
    runs the deletion-contraction recursion, with no split, on the rows
    of each instance and of its one-element minors, and the CLI's
    closed-form check calls the engine directly: their job is to
    compute chi again and compare, and a shared table would turn those
    checks into reads of an earlier answer.
    """
    field, _, rows = m._points()
    points = (field, frozenset(rows))
    entry = _CHARPOLY_MEMO.get(points)
    if entry is not None:
        return entry
    if 0 in rows:  # never filed, so a loop is looked for only on a miss
        return charpoly_auto(m), {}
    basis, coordinates = m._standard_form()
    form = (field, frozenset(coordinates))
    entry = _CHARPOLY_MEMO.get(form)
    if entry is None:
        # charpoly_auto's engine, on the standard form in hand
        chi = _chi_by_splits(field, coordinates, basis.bit_count())
        entry = _remember(_CHARPOLY_MEMO, form, (chi, {}), MAX_CHARPOLY_MEMO)
    if form != points:
        _remember(_CHARPOLY_MEMO, points, entry, MAX_CHARPOLY_MEMO)
    return entry


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class InstanceRecord:
    id: str
    q: int | None
    matroid: Matroid
    decomposition: TreeDecomposition | None
    construction: dict = field(default_factory=dict)
    seed: int | None = None

    @property
    def witnessed_width(self) -> int | None:
        if self.decomposition is None:
            return None
        return self.decomposition.width()


def gen_random_linear(q: int, r: int, n: int, seed) -> InstanceRecord:
    """Uniformly random r x n matrix over GF(q); zero columns are
    resampled so the result is loopless.  Comes with the best of the
    cheap decomposition heuristics as a width witness.  A rank or column
    count that is not an integer raises :class:`ArgumentError`."""
    r, n = _integer(r, "rank"), _integer(n, "column count")
    return _random_linear(q, r, n, effective_seed(seed), {})


def _random_linear(q: int, r: int, n: int, seed, built: dict) -> InstanceRecord:
    """The draw of :func:`gen_random_linear`.  ``built`` maps each draw
    made earlier in the same call, keyed by (q, r, drawn codes), to its
    matroid and witness, which a repeated draw shares."""
    if r < 1:
        raise ArgumentError(f"a random matrix needs rank r >= 1, got r={r}")
    if n < 0:
        raise ArgumentError(f"a random matrix needs n >= 0 columns, got n={n}")
    rng = random.Random(f"random:{q}:{r}:{n}:{seed}")
    fieldq = gf(q)
    top = q ** r
    codes = tuple([rng.randrange(1, top) for _ in range(n)])
    key = (q, r, codes)
    hit = built.get(key)
    if hit is None:
        cols = []
        for code in codes:
            col = []
            for _ in range(r):
                col.append(code % q)
                code //= q
            cols.append(col)
        m = LinearMatroid(fieldq, cols)
        hit = built[key] = m, best_heuristic(m)
    m, dec = hit
    return InstanceRecord(
        id=f"random-q{q}r{r}n{n}-s{seed}",
        q=q,
        matroid=m,
        decomposition=dec,
        construction={"kind": "random", "q": q, "r": r, "n": n},
        seed=seed,
    )


def _glued_column(point, block_rank: int, height: int) -> tuple[int, ...]:
    """The column of ``height`` coordinates of a glued point (offset,
    local) (:func:`_build_glued_points`)."""
    offset, local = point
    return (0,) * offset + local + (0,) * (height - offset - block_rank)


def _check_glued_shape(block_rank: int, blocks: int, overlap_rank: int) -> None:
    if not 0 <= overlap_rank < block_rank:
        raise ArgumentError(
            f"a glued path needs 0 <= overlap_rank < block_rank, "
            f"got overlap_rank={overlap_rank}, block_rank={block_rank}"
        )
    if blocks < 1:
        raise ArgumentError(f"a glued path needs at least one block, got {blocks}")


def _glued_size(q: int, block_rank: int, blocks: int, overlap_rank: int, delete_count: int) -> int:
    """How many points :func:`gen_glued` keeps, counted without building
    any.  Block b is the points of the coordinate window [b*s, b*s +
    block_rank), s = block_rank - overlap_rank.  Windows are intervals
    of one line, so the blocks holding a point are consecutive, and
    inclusion-exclusion over consecutive pairs alone counts the union:
    consecutive blocks share PG(overlap_rank - 1, q), and consecutive
    overlaps PG(overlap_rank - s - 1, q) when overlap_rank > s.  The
    draw deletes all but one of the private points at most.  The shape
    must have passed :func:`_check_glued_shape` and q :func:`gf`."""
    def points(rank: int) -> int:
        return (q ** max(0, rank) - 1) // (q - 1)

    step = block_rank - overlap_rank
    full = blocks * points(block_rank) - (blocks - 1) * points(overlap_rank)
    shared = (blocks - 1) * points(overlap_rank) - max(0, blocks - 2) * points(overlap_rank - step)
    return full - min(delete_count, max(0, full - shared - 1))


def _build_glued_points(q: int, block_rank: int, blocks: int, overlap_rank: int):
    """What every draw of a glued shape shares: (points, block
    memberships, overlaps, private points, first block) of a path of
    full projective-geometry blocks, consecutive blocks sharing an
    overlap coordinate window.  Each point is (offset, local): the
    offset of the window of its first block, the lowest block holding
    it, and its coordinates in that window, so the result grows with
    the points times ``block_rank`` and not with the height of the
    whole path (:func:`_glued_column` expands a kept point).  The
    private points are those in no overlap, in index order.  All are
    tuples, so no draw that shares them can change them.  The shape
    must have passed :func:`_check_glued_shape`."""
    step = block_rank - overlap_rank
    # a point of the path is fixed by the coordinate where its nonzero
    # run starts and by that run, so blocks sharing it find one key
    spans = []
    for pt in pg_build(block_rank, q):
        lead = pt.index(1)  # pg_build scales each point to 1 there
        last = max(i for i, x in enumerate(pt) if x)
        spans.append((pt, lead, pt[lead:last + 1]))
    points: list[tuple[int, tuple[int, ...]]] = []
    where: dict[tuple, int] = {}
    block_elements: list[list[int]] = [[] for _ in range(blocks)]
    first_block: list[int] = []
    for b in range(blocks):
        off = b * step
        for pt, lead, run in spans:
            idx = where.setdefault((off + lead, run), len(points))
            if idx == len(points):
                points.append((off, pt))
                first_block.append(b)
            block_elements[b].append(idx)
    overlap_elements = tuple(
        tuple(sorted(set(block_elements[j]) & set(block_elements[j + 1])))
        for j in range(blocks - 1)
    )
    shared = set().union(*overlap_elements)
    private = tuple(e for e in range(len(points)) if e not in shared)
    return (
        tuple(points), tuple(map(tuple, block_elements)), overlap_elements, private,
        tuple(first_block),
    )


def gen_glued(
    q: int,
    block_rank: int,
    blocks: int,
    overlap_rank: int,
    seed=None,
    delete_count: int = 0,
) -> InstanceRecord:
    """Glue full projective-geometry blocks along a path, overlapping in
    a common coordinate subspace, then optionally delete some random
    non-shared points.  The natural one-bag-per-block path decomposition
    is attached; with no deletions its width is exactly block_rank.  A
    shape or delete count that is not an integer raises
    :class:`ArgumentError`."""
    block_rank, blocks = _integer(block_rank, "block rank"), _integer(blocks, "block count")
    overlap_rank = _integer(overlap_rank, "overlap rank")
    delete_count = _integer(delete_count, "delete count")
    return _glued(q, block_rank, blocks, overlap_rank, effective_seed(seed), delete_count, {})


def _glued(
    q: int, block_rank: int, blocks: int, overlap_rank: int, seed, delete_count: int,
    built: dict,
) -> InstanceRecord:
    """The draw of :func:`gen_glued`.  The size cap is checked before any
    point is built (:func:`_glued_size`).  ``built``, the table of the
    calling suite or generator, maps each shape drawn earlier in the
    call to its points (:func:`_build_glued_points`), and each draw,
    keyed by (shape, kept points), to its matroid, witness and
    relabelled blocks and overlaps, which a repeated draw shares; its
    construction lists are its own.  A shape key has four entries, a
    draw key two and a random draw's key three, so no two kinds meet."""
    if delete_count < 0:
        raise ArgumentError(f"the delete count must be nonnegative, got {delete_count}")
    shape = (q, block_rank, blocks, overlap_rank)
    _check_glued_shape(block_rank, blocks, overlap_rank)
    fieldq = gf(q)
    size = _glued_size(q, block_rank, blocks, overlap_rank, delete_count)
    if size > MAX_GROUND:
        raise TooLargeError(
            f"glued construction would have {size} elements; the cap is {MAX_GROUND}"
        )
    glued = built.get(shape)
    if glued is None:
        glued = built[shape] = _build_glued_points(*shape)
    points, block_elements, overlap_elements, private, first_block = glued
    keep = range(len(points))
    if delete_count:
        rng = random.Random(f"glued:{q}:{block_rank}:{blocks}:{overlap_rank}:{seed}")
        private = list(private)
        rng.shuffle(private)
        victims = set(private[: min(delete_count, max(0, len(private) - 1))])
        keep = [e for e in keep if e not in victims]
    key = (shape, tuple(keep))
    hit = built.get(key)
    if hit is None:
        height = block_rank + (blocks - 1) * (block_rank - overlap_rank)
        m = LinearMatroid(fieldq, [_glued_column(points[e], block_rank, height) for e in keep])
        bags: list[list[int]] = [[] for _ in range(blocks)]
        relabel = {}
        for i, e in enumerate(keep):
            bags[first_block[e]].append(i)
            relabel[e] = i
        hit = built[key] = (
            m,
            _scored_path(m, bags),
            [sorted(relabel[e] for e in elems if e in relabel) for elems in block_elements],
            [sorted(relabel[e] for e in ov if e in relabel) for ov in overlap_elements],
        )
    m, dec, kept_blocks, kept_overlaps = hit
    construction = {
        "kind": "glued",
        "q": q,
        "block_rank": block_rank,
        "blocks": blocks,
        "overlap_rank": overlap_rank,
        "block_elements": [list(elems) for elems in kept_blocks],
        "overlap_elements": [list(ov) for ov in kept_overlaps],
    }
    return InstanceRecord(
        id=f"glued-q{q}b{block_rank}x{blocks}o{overlap_rank}-s{seed}d{delete_count}",
        q=q,
        matroid=m,
        decomposition=dec,
        construction=construction,
        seed=seed,
    )


def _check_width(k: int) -> int:
    """k as an int; one that is not an integer, or below 1, raises
    :class:`ArgumentError`."""
    if type(k) is not int:
        k = _integer(k, "the width bound k")
    if k < 1:
        raise ArgumentError(f"the width bound needs k >= 1, got k={k}")
    return k


def _check_bound_arguments(q: int, k: int) -> tuple[int, int]:
    """(q, k) as ints; a q that is not an integer, or below 2, raises
    :class:`ArgumentError`, and k is read by :func:`_check_width`."""
    if type(q) is not int:
        q = _integer(q, "the field order q")
    if q < 2:
        raise ArgumentError(f"the bounds need q >= 2, got q={q}")
    return q, _check_width(k)


def _check_count(count) -> int:
    """An instance count as an int; one that is not an integer, or is
    negative, raises :class:`ArgumentError` naming it.  Zero is a count."""
    count = _integer(count, "instance count")
    if count < 0:
        raise ArgumentError(f"the instance count must be nonnegative, got {count}")
    return count


def _suite(q: int, k: int, count: int, seed, tag: str, max_n: int) -> list[InstanceRecord]:
    """``count`` seeded instances over GF(q) of witnessed width at most
    k, alternating random matrices of at most 10 columns and glued
    chains of at most ``max_n`` points and at most 3 blocks.  A glued
    draw wider than k is drawn again with no deletions, and a draw
    still wider than k is dropped.  Draws often repeat, so the suite
    keeps one table for the whole call: a draw equal to an earlier one
    shares its matroid and witness and gets a record of its own, and
    every glued draw of a shape reads one build of its points.  A
    witness's width and r(M) are read off elimination passes, so
    generating a suite asks the rank oracle nothing.  A count that is
    not an integer, or is negative, raises :class:`ArgumentError`."""
    k, count = _check_width(k), _check_count(count)
    seed = effective_seed(seed)
    gf(q)  # an order that names no field is refused before any draw
    rng = random.Random(f"suite:{tag}:{q}:{k}:{seed}")
    out = []
    built: dict = {}
    glued_shapes = []
    for block_rank in range(1, k + 1):
        for overlap_rank in range(0, block_rank):
            for blocks in range(1, 4):
                full_n = _glued_size(q, block_rank, blocks, overlap_rank, 0)
                if full_n <= max_n:
                    glued_shapes.append((block_rank, blocks, overlap_rank, full_n))
    i = 0
    while len(out) < count:
        sub = rng.randrange(1 << 30)
        if i % 2 == 0 or not glued_shapes:
            r = rng.randint(1, k)
            n = rng.randint(max(r, 2), min(10, max_n))
            rec = _random_linear(q, r, n, sub, built)
        else:
            block_rank, blocks, overlap_rank, full_n = glued_shapes[
                rng.randrange(len(glued_shapes))
            ]
            room = max(0, full_n - max(2, full_n // 2))
            dels = rng.randint(0, room)
            rec = _glued(q, block_rank, blocks, overlap_rank, sub, dels, built)
            if rec.witnessed_width > k:
                rec = _glued(q, block_rank, blocks, overlap_rank, sub, 0, built)
        if rec.witnessed_width <= k:
            rec.id = f"{tag}-q{q}k{k}-{len(out):04d}"
            out.append(rec)
        i += 1
    return out


def main_theorem_suite(q: int, k: int, count: int, seed=0) -> list[InstanceRecord]:
    """Seeded instances over GF(q) with witnessed width at most k."""
    return _suite(q, k, count, seed, "main", max_n=18)


def no_lines_suite(q: int, k: int, count: int, seed=0) -> list[InstanceRecord]:
    """Like the main suite but sized so the lattice-of-flats scan for
    long-line minors stays cheap."""
    return _suite(q, k, count, seed, "nolines", max_n=13)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _frac_pair(x: Fraction) -> list[str]:
    x = Fraction(x)
    return [str(x.numerator), str(x.denominator)]


@dataclass(slots=True)
class BoundReport:
    instance_id: str
    theorem: str
    q: int
    k: int | None
    n: int
    rank: int
    witnessed_width: int | None
    bound: Fraction
    verdict: bool
    largest_root: tuple[Fraction, Fraction] | None = None
    cocircuit_size: int | None = None
    identically_zero: bool = False

    def to_json(self) -> str:
        payload = {
            "instance": self.instance_id,
            "theorem": self.theorem,
            "q": self.q,
            "k": self.k,
            "n": self.n,
            "rank": self.rank,
            "witnessed_width": self.witnessed_width,
            "bound": _frac_pair(self.bound),
            "verdict": self.verdict,
            "largest_root": None
            if self.largest_root is None
            else [_frac_pair(self.largest_root[0]), _frac_pair(self.largest_root[1])],
            "cocircuit_size": self.cocircuit_size,
            "identically_zero": self.identically_zero,
        }
        return json.dumps(payload, separators=(",", ":"))


@dataclass(slots=True)
class IdentityCheck:
    instance_id: str
    check: str
    passed: bool
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "instance": self.instance_id,
                "check": self.check,
                "passed": self.passed,
                "detail": self.detail,
            },
            separators=(",", ":"),
        )


def reports_to_jsonl(reports) -> str:
    return "\n".join(r.to_json() for r in reports) + "\n"


def all_verdicts_true(reports) -> bool:
    return all(getattr(r, "verdict", None) is True or getattr(r, "passed", None) is True for r in reports)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _check_other_matroid(rec: InstanceRecord) -> None:
    """Refuse a width witness built on a matroid other than rec's
    unless that one has the same field and points
    (:meth:`Matroid._points`, height aside), by raising
    :class:`WidthWitnessExceededError` naming the record."""
    mine, theirs = rec.matroid._points(), rec.decomposition.matroid._points()
    if mine[0] != theirs[0] or mine[2] != theirs[2]:
        raise WidthWitnessExceededError(f"{rec.id}: the width witness decomposes another matroid")


def _check_witness(rec: InstanceRecord, k: int) -> int:
    dec = rec.decomposition
    if dec is None:
        raise WidthWitnessExceededError(f"{rec.id}: no width witness attached")
    if dec.matroid is not rec.matroid:
        _check_other_matroid(rec)
    w = dec.width()
    if w > k:
        raise WidthWitnessExceededError(f"{rec.id}: witness width {w} exceeds k={k}")
    return w


def _verify_bound(
    instances, theorem: str, q: int, k: int, bound: int, line_length: int | None = None
) -> list[BoundReport]:
    """The body of both bound suites: check the width witness, reject a
    ``line_length``-point line minor when one is given, then prove
    positivity beyond the integer ``bound`` by counting the roots above
    it.

    The answer for an instance is kept in its memo entry
    (:func:`_shared_entry`) under (bound, 1): the bound as the
    ``Fraction`` its reports carry, the verdict and the root bracket.
    The first instance of a simple matroid asks
    :func:`sturm_positive_beyond` and :func:`largest_real_root`, whose
    root count (the integer roots above the bound plus the Sturm count
    of the cofactor they leave) has passed the Budan-Fourier check on
    the whole squarefree part, and every later one reads the answer
    back with no call into the root layer and no ``Fraction`` built."""
    key = (bound, 1)
    out = []
    for rec in instances:
        w = _check_witness(rec, k)
        m = rec.matroid
        if line_length is not None and m.has_line_minor(line_length):
            raise LineMinorPresentError(
                f"{rec.id}: contains a {line_length}-point line minor"
            )
        chi, answers = _shared_entry(m)
        zero = not chi.coeffs
        if zero:
            exact, verdict, root = Fraction(bound), True, None
        else:
            answer = answers.get(key)
            if answer is None:
                exact = Fraction(bound)
                answer = _remember(
                    answers, key,
                    (exact, sturm_positive_beyond(chi, exact), largest_real_root(chi, ROOT_TOL)),
                    MAX_ROOT_ANSWERS,
                )
            exact, verdict, root = answer
        out.append(BoundReport(rec.id, theorem, q, k, m.n, m.full_rank, w, exact,
                               verdict, root, None, zero))
    return out


def verify_main_theorem(instances, q: int, k: int) -> list[BoundReport]:
    """Check chi > 0 strictly beyond q**(k-1) (or chi identically zero)
    for every instance; the witness decomposition must have width <= k.
    A q or k that is not an integer, q < 2 or k < 1 raises
    :class:`ArgumentError` before any instance is read."""
    q, k = _check_bound_arguments(q, k)
    return _verify_bound(instances, "main", q, k, q ** (k - 1))


def verify_no_lines_theorem(instances, q: int, k: int) -> list[BoundReport]:
    """Positivity beyond (q**k - 1)/(q - 1), an integer, for instances
    with no (q+2)-point line minor.  Here q may be any integer >= 2 and
    k any integer >= 1; any other raises :class:`ArgumentError` before
    any instance is read, and an instance that does contain such a line
    is a hard error."""
    q, k = _check_bound_arguments(q, k)
    return _verify_bound(instances, "no-lines", q, k, (q ** k - 1) // (q - 1), q + 2)


def _poly_str(p: IntPoly) -> str:
    return "[" + ",".join(p.to_json()) + "]"


def _check_delete_contract(field, basis: int, coordinates: list[int]) -> tuple[IntPoly, str]:
    """chi(m) and the identity chi(m) = chi(m minus e) - chi(m contract e)
    at every element e that is neither a loop nor a coloop, all from m's
    standard form over ``field`` (:meth:`Matroid._standard_form`): the
    rows of m minus e are the others, and those of m contract e their
    projection along e's row (:func:`matroid._delete_contract_rows`),
    so no minor is built and no elimination pass made.  Each chi is
    computed afresh by :func:`charpoly._chi_from_rows`, none read from
    a memo of answers.  Returns chi(m) and "" when every identity holds,
    or else a detail naming the first element that fails and both
    polynomials."""
    rank = basis.bit_count()
    chi = _chi_from_rows(field, coordinates, rank)
    nonloops = mask_of(e for e, row in enumerate(coordinates) if row)
    for e in mask_bits(nonloops & ~_coloops(field, basis, coordinates)):
        deleted, contracted = _delete_contract_rows(field, coordinates, e)
        rhs = _chi_from_rows(field, deleted, rank) - _chi_from_rows(field, contracted, rank - 1)
        if chi != rhs:
            return chi, f"element {e}: chi={_poly_str(chi)} but del-con gives {_poly_str(rhs)}"
    return chi, ""


def _element_lists(value, n: int) -> bool:
    """Whether ``value`` is a list of lists of element ids 0..n-1."""
    return isinstance(value, list) and all(
        isinstance(ids, list) and all(type(e) is int and 0 <= e < n for e in ids)
        for ids in value
    )


def _split_chi(m: Matroid, cons: dict) -> tuple[IntPoly | None, str]:
    """chi of a glued instance through Brylawski's factorization
    chi(L) chi(P) / chi(C) (*Modular constructions for combinatorial
    geometries*, 1975), L the last block of ``cons``, P the union of the
    earlier ones and C the last overlap, all read off m's points
    (:meth:`Matroid._points`) with no minor built.

    Pieces cut from one matrix need no lattice walk and no check that
    they agree on C, only linear algebra: C lies in both pieces,
    r(L) + r(P) - r(L u P) = r(C), so the spans of L and P meet in
    span(C) alone, and C has all (q**d - 1)/(q - 1) points of span(C),
    d = r(C), and no loop.  Then every point of span(L) ^ span(P) is a
    point of C, so span(C) is a modular flat and the factorization
    holds.  Each chi is one standard form (:func:`matroid._standard_rows`)
    and the leaf (:func:`charpoly._chi_from_rows`).

    Returns (chi, ""), or (None, detail) when the construction names no
    blocks and overlaps among m's elements, when the pieces fail that
    precondition, or when the division leaves a remainder, which only
    a wrong chi can make."""
    blocks, overlaps = cons.get("block_elements"), cons.get("overlap_elements")
    if not (_element_lists(blocks, m.n) and _element_lists(overlaps, m.n)
            and len(blocks) >= 2 and overlaps):
        return None, (
            f"split failed: the construction names no blocks and overlaps "
            f"among the elements 0..{m.n - 1}"
        )
    field, height, points = m._points()
    last, common = mask_of(blocks[-1]), mask_of(overlaps[-1])
    prefix = mask_of(e for elems in blocks[:-1] for e in elems)
    if common & ~(last & prefix):
        return None, "split failed: the overlap is not in both pieces"
    forms = [
        _standard_rows(field, height, [points[e] for e in mask_bits(piece)])
        for piece in (last, prefix, common)
    ]
    rl, rp, rc = (bmask.bit_count() for bmask, _ in forms)
    if rl + rp - m.rank_mask(last | prefix) != rc:
        return None, "split failed: the spans of the pieces meet outside the span of the overlap"
    shown = {points[e] for e in mask_bits(common)}
    full = pg_point_count(rc, field.q)
    if 0 in shown or len(shown) != full:
        return None, f"split failed: the overlap is not the {full} points of its span"
    chi_l, chi_p, chi_c = (
        _chi_from_rows(field, rows, bmask.bit_count()) for bmask, rows in forms
    )
    try:
        return poly_exact_div(chi_l * chi_p, chi_c), ""
    except InexactDivisionError as exc:
        return None, f"split failed: {exc}"


def verify_identities(instances) -> list[IdentityCheck]:
    """Exact identity checks on every instance, from one standard form
    of it (:meth:`Matroid._standard_form`):

    * deletion-contraction at every element that is neither a loop nor
      a coloop, both minors derived from the standard form
      (:func:`_check_delete_contract`);
    * the glued-block factorization through the last overlap, when the
      construction metadata identifies the blocks, from the pieces'
      points with a linear-algebra precondition in place of a lattice
      walk (:func:`_split_chi`); a construction that names no blocks
      among the elements, or a split that fails the precondition, is a
      failed check with a ``split failed:`` detail;
    * on the simplification of a loopless matrix, the distinct rows of
      the standard form (its own standard form, since the first basis
      repeats no point), the cocircuit expansion
      (:func:`charpoly._cocircuit_chi`) and the telescoping extension
      expansion along the first neck of the element-order path with the
      most external points that keeps the extension within 20 elements,
      only that neck listed (:func:`projgeom._telescoped_chi`).

    No minor, embedding, extension or simplification is built, and every
    chi is computed afresh, none read from a memo of answers.  Any
    mismatch is reported with the offending polynomials.  A construction
    that :func:`_construction_problem` rejects raises
    :class:`ArgumentError` naming the record.
    """
    out = []
    for rec in instances:
        m, cons = rec.matroid, rec.construction
        problem = _construction_problem(cons)
        if problem:
            raise ArgumentError(f"{rec.id}: {problem}")
        field = m._points()[0]
        basis, coordinates = m._standard_form()
        chi, detail = _check_delete_contract(field, basis, coordinates)
        out.append(IdentityCheck(rec.id, "delete-contract", not detail, detail))

        if cons.get("kind") == "glued" and cons.get("blocks", 1) >= 2:
            via_split, detail = _split_chi(m, cons)
            if via_split is not None and via_split != chi:
                detail = f"factored {_poly_str(via_split)} vs direct {_poly_str(chi)}"
            out.append(IdentityCheck(rec.id, "glued-factorization", not detail, detail))

        if isinstance(m, LinearMatroid) and 0 not in coordinates:
            # a loopless matroid and its simplification share chi
            rows = list(dict.fromkeys(coordinates))
            ok = _cocircuit_chi(field, rows, basis.bit_count()) == chi
            out.append(IdentityCheck(rec.id, "cocircuit-expansion", ok))

            if len(rows) >= 2:
                # the fattest external neck that still fits makes the
                # most demanding check; the leaf edge always fits
                total = _telescoped_chi(field, rows, 20 - len(rows))
                if total is not None:
                    ok = total == chi
                    detail = "" if ok else (
                        f"telescoped {_poly_str(total)} vs direct {_poly_str(chi)}"
                    )
                    out.append(IdentityCheck(rec.id, "telescoping-extension", ok, detail))
    return out


def verify_size_and_cocircuit_bounds(instances, q: int, k: int) -> list[BoundReport]:
    """Two counting bounds on simple instances:

    * point count at most (q**r - 1)/(q - 1) when no (q+2)-point line
      minor exists;
    * some cocircuit of size at most q**(k-1) when a width-k witness
      exists over GF(q).

    Both are read on the simplification, the distinct nonzero rows of the
    instance's standard form with no matroid built; a loop changes no
    rank, so the witness width still holds there.  A witness of another
    matroid raises :class:`WidthWitnessExceededError`
    (:func:`_check_other_matroid`)."""
    q, k = _check_bound_arguments(q, k)
    out = []
    for rec in instances:
        dec = rec.decomposition
        if dec is not None and dec.matroid is not rec.matroid:
            _check_other_matroid(rec)
        field = rec.matroid._points()[0]
        basis, coordinates = rec.matroid._standard_form()
        rows = [row for row in dict.fromkeys(coordinates) if row]
        n, r = len(rows), basis.bit_count()
        if r == 0:
            continue
        if not rec.matroid.has_line_minor(q + 2):
            bound = Fraction(q ** r - 1, q - 1)
            out.append(
                BoundReport(
                    instance_id=rec.id,
                    theorem="size",
                    q=q,
                    k=None,
                    n=n,
                    rank=r,
                    witnessed_width=rec.witnessed_width,
                    bound=bound,
                    verdict=n <= bound,
                )
            )
        if dec is not None and rec.q == q:
            w = dec.width()
            if w <= k:
                size = _min_cocircuit(field, rows).bit_count()
                bound = Fraction(q ** (k - 1))
                out.append(
                    BoundReport(
                        instance_id=rec.id,
                        theorem="cocircuit",
                        q=q,
                        k=k,
                        n=n,
                        rank=r,
                        witnessed_width=w,
                        bound=bound,
                        verdict=size <= bound,
                        cocircuit_size=size,
                    )
                )
    return out


# ---------------------------------------------------------------------------
# graphic cross-check
# ---------------------------------------------------------------------------

def chromatic_polynomial(num_vertices: int, edges) -> IntPoly:
    """Chromatic polynomial of a multigraph by deletion-contraction,
    written directly on graphs so it is independent of the matroid
    engines.  Subgraphs are memoized for the length of one call.  The
    graph is checked as :class:`GraphicMatroid` checks it."""
    num_vertices, edges = GraphicMatroid._checked_graph(num_vertices, edges)
    memo: dict[tuple, IntPoly] = {}

    def rec(num_vertices: int, edges) -> IntPoly:
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        key = (num_vertices, edges)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if any(u == v for u, v in edges):
            out = ZERO
        else:
            dedup = tuple(sorted(set(edges)))
            if not dedup:
                out = IntPoly([0] * num_vertices + [1])  # lam ** num_vertices
            else:
                u, v = dedup[0]
                rest = dedup[1:]
                merged = []
                for a, b in rest:
                    a2 = u if a == v else a
                    b2 = u if b == v else b
                    a2 = a2 - 1 if a2 > v else a2
                    b2 = b2 - 1 if b2 > v else b2
                    merged.append((a2, b2))
                out = rec(num_vertices, rest) - rec(num_vertices - 1, merged)
        memo[key] = out
        return out

    return rec(num_vertices, edges)


@dataclass
class GraphicCrossCheck:
    chromatic: IntPoly
    matroid_charpoly: IntPoly
    components: int
    passed: bool


def cross_check_graphic(num_vertices: int, edges) -> GraphicCrossCheck:
    """P_G(lam) must equal lam**c * chi(M(G)) with c the number of
    connected components (isolated vertices included)."""
    m = GraphicMatroid(num_vertices, edges)
    chi = charpoly_auto(m)
    c = num_vertices - m.full_rank
    shifted = chi * IntPoly([0] * c + [1])
    chrom = chromatic_polynomial(num_vertices, edges)
    return GraphicCrossCheck(chrom, chi, c, chrom == shifted)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def save_instances(directory, instances) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for rec in instances:
        save_matroid(rec.matroid, d / f"{rec.id}.matrix")
        if rec.decomposition is not None:
            save_decomposition(rec.decomposition, d / f"{rec.id}.decomp")
        meta = {"id": rec.id, "q": rec.q, "seed": rec.seed, "construction": rec.construction}
        (d / f"{rec.id}.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")


def _construction_problem(cons) -> str:
    """What makes a construction unusable, or "": one that is not an
    object, or a glued one whose ``blocks`` is not an integer."""
    if not isinstance(cons, dict):
        return "the construction is not a JSON object"
    if cons.get("kind") == "glued" and type(cons.get("blocks", 1)) is not int:
        return "the glued block count is not an integer"
    return ""


def _metadata_problem(meta: dict, n: int) -> str:
    """What makes instance metadata unusable for a matroid on n
    elements, or "": an ``id`` that is not a string, a ``q`` that is not
    an integer >= 2, a ``construction`` that :func:`_construction_problem`
    rejects, or a glued construction whose ``block_elements`` or
    ``overlap_elements`` is not a list of lists of element ids 0..n-1.
    Absent fields take their defaults."""
    if not isinstance(meta.get("id", ""), str):
        return "the instance id is not a string"
    q = meta.get("q")
    if q is not None and (type(q) is not int or q < 2):
        return f"q is {q!r}, not an integer >= 2"
    cons = meta.get("construction", {})
    problem = _construction_problem(cons)
    if problem:
        return problem
    if cons.get("kind") == "glued":
        for key in ("block_elements", "overlap_elements"):
            if not _element_lists(cons.get(key), n):
                return f"{key} is not a list of lists of element ids 0..{n - 1}"
    return ""


def load_instances(directory) -> list[InstanceRecord]:
    d = Path(directory)
    out = []
    for matrix_path in sorted(d.glob("*.matrix")):
        stem = matrix_path.stem
        m = load_matroid(matrix_path)
        dec = None
        dpath = d / f"{stem}.decomp"
        if dpath.exists():
            dec = load_decomposition(dpath, m)
        meta = {}
        jpath = d / f"{stem}.json"
        if jpath.exists():
            try:
                meta = json.loads(jpath.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ParseError(f"{exc.msg} in {jpath}", exc.lineno) from None
            if not isinstance(meta, dict):
                raise ParseError(f"the instance metadata in {jpath} is not a JSON object")
            problem = _metadata_problem(meta, m.n)
            if problem:
                raise ParseError(f"{jpath}: {problem}")
        q = meta.get("q")
        if q is None and isinstance(m, LinearMatroid):
            q = m.field.q
        out.append(
            InstanceRecord(
                id=meta.get("id", stem),
                q=q,
                matroid=m,
                decomposition=dec,
                construction=meta.get("construction", {}),
                seed=meta.get("seed"),
            )
        )
    return out


def resolve_instances(spec: str, q: int, k: int) -> list[InstanceRecord]:
    """Either a directory of instance files or a seed spec
    ``kind:count:seed`` with kind one of mixed, random, glued."""
    k = _check_width(k)
    if os.path.isdir(spec):
        return load_instances(spec)
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(
            f"{spec!r} is neither a directory nor a seed spec 'kind:count:seed'"
        )
    kind, count, seed = parts
    try:
        count, seed = int(count), int(seed)
    except ValueError:
        raise ParseError(f"{spec!r}: the count and the seed must be integers") from None
    if count < 0:
        raise ParseError(f"{spec!r}: the count must be nonnegative")
    seed = effective_seed(seed)
    if kind == "mixed":
        return main_theorem_suite(q, k, count, seed)
    built: dict = {}  # one table of draws for the whole call, as in _suite
    if kind == "random":
        rng = random.Random(f"cli-random:{q}:{k}:{seed}")
        out = []
        for i in range(count):
            r = rng.randint(1, k)
            n = rng.randint(max(r, 2), 10)
            rec = _random_linear(q, r, n, rng.randrange(1 << 30), built)
            rec.id = f"random-q{q}k{k}-{i:04d}"
            out.append(rec)
        return out
    if kind == "glued":
        rng = random.Random(f"cli-glued:{q}:{k}:{seed}")
        out = []
        tries = 0
        while len(out) < count:
            block_rank = rng.randint(1, k)
            overlap = rng.randint(0, block_rank - 1)
            blocks = rng.randint(1, 3)
            tries += 1
            try:
                rec = _glued(q, block_rank, blocks, overlap, rng.randrange(1 << 30), 0, built)
            except TooLargeError:
                if tries > 100 * count:
                    raise
                continue
            rec.id = f"glued-q{q}k{k}-{len(out):04d}"
            out.append(rec)
        return out
    raise ParseError(f"{spec!r}: unknown instance kind {kind!r}; use mixed, random or glued")
