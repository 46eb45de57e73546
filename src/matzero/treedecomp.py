"""Tree-decompositions of matroids and their width.

A decomposition is a tree T together with an arbitrary assignment of
ground-set elements to tree vertices (bags may be empty).  Removing a
vertex v splits T into components; each component's elements form a
displayed set B, whose rank defect is rd(B) = r(M) - r(E - B).  The
node width of v is r(M) minus the sum of the rank defects of its
displayed sets (just r(M) at a single-vertex tree), the width of the
decomposition is the largest node width, and the tree-width of M is the
minimum width over all decompositions.

For the component of T - v across the edge vu, E - B is the side of vu
that holds v, so nw(v) = sum over the edges vu of r(side holding v)
minus (deg(v) - 1) r(M).  Evaluating a width therefore costs one rank
per oriented tree edge: the tree is rooted once and the bags are ORed
up into subtree masks, which give both sides of every edge.

``exact_treewidth_small`` settles the minimum exactly for small ground
sets; ``heuristic_decomposition`` builds quick path witnesses for
anything larger.  On a path whose vertices hold the bags B_1..B_t in
turn, the sets displayed at B_v are the bags before it and the bags
after it, so its node width is r(B_1..B_v) + r(B_v..B_t) - r(M).  A
path's width therefore costs one elimination pass over its points each
way, in bag order and back, and asks the rank oracle nothing: r(M) is
the last prefix rank.  The greedy path of singleton bags is scored so
in one place, for ``heuristic_decomposition`` and ``best_heuristic``
alike, the greedy order being found by the forward pass that gives its
prefix ranks; the ground-order path and a glued instance's path of
blocks are scored the same way.  Each hands r(M) to the matroid, which
keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .errors import ArgumentError, NotInTreeError, ParseError, TooLargeError
from .matroid import MAX_GROUND, Matroid, content_lines, mask_bits, parse_ints

EXACT_SEARCH_MAX = 10


class Tree:
    """An unrooted tree on vertices 0..num_vertices-1."""

    def __init__(self, num_vertices: int, edges):
        edges = tuple((min(u, v), max(u, v)) for u, v in edges)
        if num_vertices < 1:
            raise ArgumentError("a tree needs at least one vertex")
        if len(edges) != num_vertices - 1:
            raise ArgumentError("a tree on l vertices has exactly l - 1 edges")
        adj: list[list[int]] = [[] for _ in range(num_vertices)]
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices) or u == v:
                raise ArgumentError(f"bad edge ({u}, {v})")
            adj[u].append(v)
            adj[v].append(u)
        self.num_vertices = num_vertices
        self.edges = edges
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        # connectivity check; acyclicity follows from the edge count
        if len(self._reach(0, -1)) != num_vertices:
            raise ArgumentError("edge list does not form a connected tree")

    def _reach(self, u: int, w: int) -> set[int]:
        """The vertices reachable from u without entering w; a w that is
        not a vertex, such as -1, blocks nothing."""
        seen = {w, u}
        stack = [u]
        while stack:
            for y in self.adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        seen.discard(w)
        return seen

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def leaves(self) -> list[int]:
        return [v for v in range(self.num_vertices) if len(self.adj[v]) == 1]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.num_vertices and v in self.adj[u]

    def components_without_vertex(self, v: int) -> list[tuple[int, ...]]:
        """Vertex sets of the components of T - v, ordered by their
        smallest member."""
        if not 0 <= v < self.num_vertices:
            raise NotInTreeError(f"vertex {v} is not in the tree")
        return sorted(tuple(sorted(self._reach(start, v))) for start in self.adj[v])

    def edge_sides(self, u: int, w: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Vertex sets of the two components of T minus the edge uw,
        the side containing u first."""
        if not self.has_edge(u, w):
            raise NotInTreeError(f"edge ({u}, {w}) is not in the tree")
        side_u = self._reach(u, w)
        side_w = [x for x in range(self.num_vertices) if x not in side_u]
        return tuple(sorted(side_u)), tuple(side_w)


@dataclass
class WidthReport:
    """Evaluation of one decomposition: per-vertex node widths, the
    displayed sets and their rank defects, and whether some edge
    displays a set of full rank on one of its sides (which a fully
    reduced decomposition never does)."""

    width: int
    node_widths: list[int]
    displayed: list[list[int]]          # per vertex: displayed set masks
    rank_defects: list[list[int]]       # aligned with displayed
    full_rank_side: bool                # some edge side has rank r(M)


class TreeDecomposition:
    """A tree plus an element-to-vertex assignment for a fixed matroid."""

    def __init__(self, matroid: Matroid, tree: Tree, assignment):
        assignment = tuple(map(int, assignment))
        if len(assignment) != matroid.n:
            raise ArgumentError("assignment length must equal the ground set size")
        for v in assignment:
            if not 0 <= v < tree.num_vertices:
                raise NotInTreeError(f"assignment targets vertex {v} outside the tree")
        self.matroid = matroid
        self.tree = tree
        self.assignment = assignment
        self._width = None

    def bags(self) -> list[int]:
        out = [0] * self.tree.num_vertices
        for e, v in enumerate(self.assignment):
            out[v] |= 1 << e
        return out

    def bag(self, v: int) -> int:
        self._check_vertex(v)
        m = 0
        for e, w in enumerate(self.assignment):
            if w == v:
                m |= 1 << e
        return m

    def _displays(self) -> list[list[tuple[int, int]]]:
        """Per vertex v, one (displayed set, rank defect) pair for each
        component of T - v, in the order of ``components_without_vertex``.

        T is rooted at vertex 0 once and each subtree's bags are ORed
        together, so the edge from v to its parent has v's subtree on
        one side and the rest on the other.  Each side is the set
        displayed by one end of the edge, and its rank defect is r(M)
        minus the rank of the other side, so each side's rank is asked
        once.  The component holding v's parent holds vertex 0, so it
        comes first, and the child components follow by their smallest
        vertex."""
        adj = self.tree.adj
        m = self.matroid
        r, full, rank = m.full_rank, m.full_mask, m.rank_mask
        parent = [-1] * self.tree.num_vertices
        order = [0]
        for v in order:
            for u in adj[v]:
                if u != parent[v]:
                    parent[u] = v
                    order.append(u)
        below = self.bags()
        low = list(range(self.tree.num_vertices))
        for v in reversed(order[1:]):
            p = parent[v]
            below[p] |= below[v]
            low[p] = min(low[p], low[v])
        shown: list[list[tuple[int, int, int]]] = [[] for _ in order]
        for v in order[1:]:
            inner = below[v]
            outer = full & ~inner
            shown[v].append((0, outer, r - rank(inner)))
            shown[parent[v]].append((low[v], inner, r - rank(outer)))
        return [[(mask, defect) for _, mask, defect in sorted(s)] for s in shown]

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.tree.num_vertices:
            raise NotInTreeError(f"vertex {v} is not in the tree")

    def displayed_sets_vertex(self, v: int) -> list[int]:
        """Element masks displayed by v: one per component of T - v,
        in the component order of ``components_without_vertex``."""
        self._check_vertex(v)
        return [mask for mask, _ in self._displays()[v]]

    def displayed_sets_edge(self, edge) -> tuple[int, int]:
        """Element masks displayed by an edge (u, w): the side holding
        u's bag first."""
        u, w = edge
        side_u, side_w = self.tree.edge_sides(u, w)
        bags = self.bags()
        mu = 0
        for x in side_u:
            mu |= bags[x]
        mw = 0
        for x in side_w:
            mw |= bags[x]
        return mu, mw

    def rank_defect(self, displayed_mask: int) -> int:
        m = self.matroid
        return m.full_rank - m.rank_mask(m.full_mask & ~displayed_mask)

    def _node_widths(self, displays) -> list[int]:
        r = self.matroid.full_rank
        return [r - sum(defect for _, defect in shown) for shown in displays]

    def node_width(self, v: int) -> int:
        self._check_vertex(v)
        return self._node_widths(self._displays())[v]

    def width_report(self) -> WidthReport:
        """Every node width, displayed set and rank defect, from one
        rank per oriented edge.  Each displayed set is one side of an
        edge, so some edge side has rank r(M) exactly when some
        displayed set has rank defect 0."""
        displays = self._displays()
        widths = self._node_widths(displays)
        return WidthReport(
            max(widths),
            widths,
            [[mask for mask, _ in shown] for shown in displays],
            [[defect for _, defect in shown] for shown in displays],
            any(defect == 0 for shown in displays for _, defect in shown),
        )

    def width(self) -> int:
        """The largest node width, computed on the first call and kept."""
        if self._width is None:
            self._width = max(self._node_widths(self._displays()))
        return self._width

    def __repr__(self):
        return (
            f"TreeDecomposition(vertices={self.tree.num_vertices}, "
            f"n={self.matroid.n}, width={self.width()})"
        )


@lru_cache(maxsize=MAX_GROUND)
def _path_tree(length: int) -> Tree:
    """The path 0 - 1 - ... - (length - 1).  A Tree is never changed
    after it is built, so one is kept per length and shared by every
    decomposition on a path of that length.  A matroid's path of
    singletons has at most ``MAX_GROUND`` vertices, so every such length
    is kept; longer paths, such as a glued chain of more blocks than
    that, share the same bounded table."""
    return Tree(length, [(i, i + 1) for i in range(length - 1)])


def single_vertex_decomposition(m: Matroid) -> TreeDecomposition:
    return TreeDecomposition(m, _path_tree(1), (0,) * m.n)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _reduction_candidates(dec: TreeDecomposition):
    """Oriented edges (u, w) whose u-side display lies in the closure of
    the w-side display, sorted so the behaviour is deterministic."""
    m = dec.matroid
    out = []
    for a, b in dec.tree.edges:
        for u, w in ((a, b), (b, a)):
            du, dw = dec.displayed_sets_edge((u, w))
            if du & ~m.closure_mask(dw) == 0:
                out.append((u, w))
    out.sort()
    return out


def reduce(dec: TreeDecomposition) -> TreeDecomposition:
    """Repeatedly collapse reducible edges.

    If the edge uw displays (U, W) with U inside cl(W), the whole
    subtree on u's side is removed and its elements are reassigned to w.
    The width never increases.  Candidates are processed smallest
    oriented vertex pair first, so the result is deterministic.
    """
    current = dec
    while True:
        cands = _reduction_candidates(current)
        if not cands:
            return current
        u, w = cands[0]
        side_u, _ = current.tree.edge_sides(u, w)
        gone = set(side_u)
        keep = [v for v in range(current.tree.num_vertices) if v not in gone]
        relabel = {old: i for i, old in enumerate(keep)}
        new_edges = [
            (relabel[a], relabel[b])
            for a, b in current.tree.edges
            if a not in gone and b not in gone
        ]
        new_assignment = [
            relabel[w] if v in gone else relabel[v] for v in current.assignment
        ]
        current = TreeDecomposition(
            current.matroid, Tree(len(keep), new_edges), new_assignment
        )


# ---------------------------------------------------------------------------
# exact tree-width by fragment dynamic programming
# ---------------------------------------------------------------------------
#
# Root the (unknown) tree anywhere.  For a vertex v whose subtree holds
# the elements S, the node width of v is determined by its child
# subtrees' element sets P_1..P_c and by S alone:
#
#     nw(v) = r - sum_i rd(P_i) - rd(E - S),
#
# and rd(E - S) = r - r(S), so nw(v) <= w iff sum_i rd(P_i) >= r(S) - w.
# Tree shape beyond the subtree element sets is irrelevant, which turns
# "is there a decomposition of width <= w" into a subset DP.  No bound
# on the number of tree vertices is assumed: vertices with empty bags
# (useful as branch points, since rank defects are superadditive) are
# covered by the empty-bag partition case.

_NEG = -(1 << 30)
_INF = 1 << 30


@dataclass
class TreewidthResult:
    width: int
    decomposition: TreeDecomposition
    num_vertices: int


def _fragment_tables(ranks, full, w):
    """Subset tables for a target width w.

    valid[S]: some rooted fragment covering exactly S keeps every one of
    its vertices at node width <= w (the fragment root sees E - S as one
    extra displayed component).
    g[S]: largest achievable sum of rank defects over partitions of S
    into valid fragments (_NEG when S has no such partition).
    gle[S]: max of g over all subsets of S.
    """
    r = ranks[full]
    size = full + 1
    g = [_NEG] * size
    gle = [0] * size
    valid = [False] * size
    g[0] = 0
    for S in sorted(range(1, size), key=lambda s: s.bit_count()):
        low = S & -S
        # partitions of all of S into two or more valid fragments
        # (the fragment root keeps an empty bag); the first part is
        # anchored at the lowest element to avoid double counting
        best_split = _NEG
        sub = (S - 1) & S
        while sub:
            if sub & low and valid[sub] and g[S ^ sub] > _NEG:
                cand = (r - ranks[full & ~sub]) + g[S ^ sub]
                if cand > best_split:
                    best_split = cand
            sub = (sub - 1) & S
        # or children drawn from a strict subset, the rest in the bag
        gsub = 0
        t = S
        while t:
            bit = t & -t
            t ^= bit
            if gle[S ^ bit] > gsub:
                gsub = gle[S ^ bit]
        best_children = best_split if best_split > gsub else gsub
        valid[S] = best_children >= ranks[S] - w
        g[S] = best_split
        if valid[S]:
            own = r - ranks[full & ~S]
            if own > g[S]:
                g[S] = own
        best = g[S] if g[S] > gsub else gsub
        gle[S] = best
    return valid, g, gle


def _min_vertex_witness(m, ranks, tw, valid):
    """Witness of width tw with the fewest tree vertices, from tw's ``valid`` table."""
    full = m.full_mask
    r = ranks[full]
    rdv = [r - ranks[full & ~s] for s in range(full + 1)]

    vcost: dict[int, int] = {}
    vplan: dict[int, tuple] = {}
    kmemo: dict[tuple[int, int], int] = {}
    kpick: dict[tuple[int, int], int] = {}

    def kbest(C: int, s: int) -> int:
        """Fewest vertices partitioning C into valid fragments whose
        rank defects sum to at least s."""
        if C == 0:
            return 0 if s == 0 else _INF
        key = (C, s)
        hit = kmemo.get(key)
        if hit is not None:
            return hit
        low = C & -C
        best, pick = _INF, 0
        sub = C
        while sub:
            if sub & low and valid[sub]:
                vs = vcost.get(sub, _INF)
                if vs < _INF:
                    rest = kbest(C ^ sub, s - rdv[sub] if s > rdv[sub] else 0)
                    if vs + rest < best:
                        best, pick = vs + rest, sub
            sub = (sub - 1) & C
        kmemo[key] = best
        kpick[key] = pick
        return best

    for S in sorted(range(1, full + 1), key=lambda s: s.bit_count()):
        if not valid[S]:
            continue
        t = ranks[S] - tw
        if t < 0:
            t = 0
        best, plan = _INF, None
        sub = (S - 1) & S
        while True:  # bag = S - sub, possibly all of S
            c = kbest(sub, t)
            if 1 + c < best:
                best, plan = 1 + c, ("bag", S ^ sub, sub, t)
            if sub == 0:
                break
            sub = (sub - 1) & S
        low = S & -S
        sub = (S - 1) & S
        while sub:  # empty bag, first child anchored at the low bit
            if sub & low and valid[sub]:
                vs = vcost.get(sub, _INF)
                if vs < _INF:
                    s2 = t - rdv[sub] if t > rdv[sub] else 0
                    c = kbest(S ^ sub, s2)
                    if 1 + vs + c < best:
                        best, plan = 1 + vs + c, ("split", sub, S ^ sub, s2)
            sub = (sub - 1) & S
        if best < _INF:
            vcost[S] = best
            vplan[S] = plan

    t_root = r - tw
    if t_root < 0:
        t_root = 0
    best, root_children = _INF, 0
    sub = full
    while True:
        c = kbest(sub, t_root)
        if 1 + c < best:
            best, root_children = 1 + c, sub
        if sub == 0:
            break
        sub = (sub - 1) & full

    bags: list[int] = []
    edges: list[tuple[int, int]] = []

    def unroll(C: int, s: int) -> list[int]:
        parts = []
        while C:
            p = kpick[(C, s)]
            parts.append(p)
            s = s - rdv[p] if s > rdv[p] else 0
            C ^= p
        return parts

    def build(S: int, parent: int | None) -> None:
        vid = len(bags)
        kind = vplan[S][0]
        if kind == "bag":
            _, bagmask, C, s = vplan[S]
            parts = unroll(C, s)
        else:
            _, first, C, s = vplan[S]
            bagmask = 0
            parts = [first] + unroll(C, s)
        bags.append(bagmask)
        if parent is not None:
            edges.append((parent, vid))
        for p in parts:
            build(p, vid)

    bags.append(full & ~root_children)
    for p in unroll(root_children, t_root):
        build(p, 0)

    assignment = [0] * m.n
    for vid, bagmask in enumerate(bags):
        for e in mask_bits(bagmask):
            assignment[e] = vid
    dec = TreeDecomposition(m, Tree(len(bags), edges), assignment)
    return dec, best


def exact_treewidth_small(m: Matroid) -> TreewidthResult:
    """Exact tree-width for small ground sets, with a witness.

    Widths are tried in increasing order up to r(M), which is always
    feasible; at the first feasible width a second pass over its table
    finds a witness decomposition with the fewest tree vertices among
    all optimal-width decompositions.
    """
    n = m.n
    if n > EXACT_SEARCH_MAX:
        raise TooLargeError(f"exact search is capped at {EXACT_SEARCH_MAX} elements")
    if n == 0:
        return TreewidthResult(0, single_vertex_decomposition(m), 1)
    ranks = m.ranks_table()
    full = m.full_mask
    r = ranks[full]
    for tw in range(r + 1):
        valid, _g, gle = _fragment_tables(ranks, full, tw)
        if gle[full] >= r - tw:
            break
    return TreewidthResult(tw, *_min_vertex_witness(m, ranks, tw, valid))


# ---------------------------------------------------------------------------
# heuristics
# ---------------------------------------------------------------------------

def _prefix_ranks(m: Matroid, bags) -> list[int]:
    """r(B_1..B_v) for every prefix of ``bags``, lists of elements, by
    one incremental elimination over the points of m
    (:meth:`Matroid._points`), one :meth:`GF.echelon_into` step per
    bag."""
    field, _, rows = m._points()
    basis: list[int] = []
    return [len(field.echelon_into(basis, map(rows.__getitem__, bag))) for bag in bags]


def _greedy_order(m: Matroid) -> tuple[list[int], list[int]]:
    """Element order that grows rank as slowly as possible: the lowest
    remaining element in the closure of the prefix, or else the lowest
    remaining element.  Returned with the prefix ranks.  The remaining
    points of m (:meth:`Matroid._points`) are kept as echelon rows
    modulo the prefix's span: a new basis row, itself such a row, is
    projected out of all of them by one :meth:`GF.project` call, so an
    element lies in the closure exactly when its row has come down to
    zero; no rank is queried."""
    field, _, rows = m._points()
    left = dict(enumerate(rows))
    order: list[int] = []
    ranks: list[int] = []
    rank = 0
    while left:
        for e in [e for e, v in left.items() if not v]:
            del left[e]
            order.append(e)
            ranks.append(rank)
        if left:
            e = next(iter(left))
            row = left.pop(e)
            left = dict(zip(left, field.project(left.values(), row)))
            rank += 1
            order.append(e)
            ranks.append(rank)
    return order, ranks


def _path_width(m: Matroid, bags, prefix_ranks) -> int:
    """Width of the path whose vertices hold the nonempty list ``bags``
    in turn, given its prefix ranks (:func:`_prefix_ranks`): the node
    width at B_v is r(B_1..B_v) + r(B_v..B_t) - r(M), and the suffix
    ranks cost one pass backward.  A path of singleton bags is the
    path heuristics' case.  r(M), the last prefix rank, is handed to m
    to keep, so no rank is computed now or when a verifier reads it."""
    m._full_rank = prefix_ranks[-1]
    suffix_ranks = _prefix_ranks(m, bags[::-1])[::-1]
    return max(map(add, prefix_ranks, suffix_ranks)) - prefix_ranks[-1]


def _path_decomposition(m: Matroid, bags, width: int) -> TreeDecomposition:
    """The decomposition whose path vertices hold the nonempty list
    ``bags`` in turn, on the shared path tree of that length, with
    ``width`` kept as its width."""
    assignment = [0] * m.n
    for v, bag in enumerate(bags):
        for e in bag:
            assignment[e] = v
    dec = TreeDecomposition(m, _path_tree(len(bags)), assignment)
    dec._width = width
    return dec


def _scored_path(m: Matroid, bags) -> TreeDecomposition:
    """:func:`_path_decomposition` of ``bags`` with its width kept,
    scored by one elimination pass each way (:func:`_path_width`)."""
    return _path_decomposition(m, bags, _path_width(m, bags, _prefix_ranks(m, bags)))


def _greedy_path(m: Matroid) -> tuple[list[tuple[int]], int]:
    """The singleton bags of the greedy path of m, n >= 1, and its
    width, scored from the prefix ranks that found the greedy order
    (:func:`_greedy_order`), so only the backward pass is added."""
    order, prefix_ranks = _greedy_order(m)
    bags = [(e,) for e in order]
    return bags, _path_width(m, bags, prefix_ranks)


def heuristic_decomposition(m: Matroid, strategy: str = "greedy") -> TreeDecomposition:
    """Quick width witnesses.

    ``"path"``    - singleton bags along a path in ground-set order
    ``"greedy"``  - singleton bags along a path in greedy rank order
    ``"single"``  - everything in one bag (width is exactly r(M))
    """
    if strategy not in ("single", "path", "greedy"):
        raise ArgumentError(f"unknown strategy {strategy!r}")
    if strategy == "single" or m.n == 0:
        return single_vertex_decomposition(m)
    if strategy == "path":
        return _scored_path(m, [(e,) for e in range(m.n)])
    return _path_decomposition(m, *_greedy_path(m))


def best_heuristic(m: Matroid) -> TreeDecomposition:
    """The greedy path if it is narrower than r(M), else the single
    bag, with its width kept.

    This equals the minimum over (width, tree vertices) of the greedy
    path, the ground-order path and the single bag, ties going to the
    first, because the ground-order path is never narrower than the
    greedy one.  The greedy order moves each element forward to where
    the prefix first spans it: at an element left in place the prefix
    rank is unchanged and the suffix shrinks, and a moved element's
    node width is at most that of the node before it.  A one-element
    path is the single bag.  No rank is asked of the rank oracle:
    scoring the greedy path (:func:`_greedy_path`) hands m r(M), its
    last prefix rank, to keep for the single bag and for the
    verification that reads it."""
    if m.n:
        bags, width = _greedy_path(m)
        if width < m._full_rank:
            return _path_decomposition(m, bags, width)
    else:
        m._full_rank = 0
    return _path_decomposition(m, [range(m.n)], m._full_rank)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------
#
#   tree L
#   u v            (L - 1 edge lines; omitted when L == 1)
#   tau
#   e v            (one line per element)


def format_decomposition(dec: TreeDecomposition) -> str:
    lines = [f"tree {dec.tree.num_vertices}"]
    lines += [f"{u} {v}" for u, v in dec.tree.edges]
    lines.append("tau")
    lines += [f"{e} {v}" for e, v in enumerate(dec.assignment)]
    return "\n".join(lines) + "\n"


def parse_decomposition_text(text: str, matroid: Matroid) -> TreeDecomposition:
    lines = content_lines(text)
    head_line, head = lines[0] if lines else (None, "")
    tokens = head.split()
    if not tokens or tokens[0] != "tree":
        raise ParseError("decomposition files start with a 'tree L' line", head_line)
    (l,) = parse_ints(head_line, tokens[1:], 1)
    if l < 1:
        raise ParseError("a tree needs at least one vertex", head_line)
    edges = []
    for number, line in lines[1:l]:
        u, v = parse_ints(number, line.split(), 2)
        if not (0 <= u < l and 0 <= v < l):
            raise ParseError(f"edge ({u}, {v}) has an endpoint outside 0..{l - 1}", number)
        edges.append((u, v))
    if len(lines) <= l or lines[l][1] != "tau":
        raise ParseError(
            f"expected {l - 1} edge lines and then a 'tau' line",
            lines[l][0] if len(lines) > l else None,
        )
    try:
        tree = Tree(l, edges)
    except ValueError as exc:
        raise ParseError(str(exc), head_line) from None
    assignment = [None] * matroid.n
    for number, line in lines[l + 1:]:
        e, v = parse_ints(number, line.split(), 2)
        if not 0 <= e < matroid.n:
            raise ParseError(f"element {e} is outside 0..{matroid.n - 1}", number)
        if not 0 <= v < l:
            raise ParseError(f"vertex {v} is outside 0..{l - 1}", number)
        if assignment[e] is not None:
            raise ParseError(f"element {e} is assigned twice", number)
        assignment[e] = v
    if None in assignment:
        raise ParseError(f"element {assignment.index(None)} has no assignment line")
    return TreeDecomposition(matroid, tree, assignment)


def load_decomposition(path, matroid: Matroid) -> TreeDecomposition:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_decomposition_text(fh.read(), matroid)


def save_decomposition(dec: TreeDecomposition, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_decomposition(dec))
