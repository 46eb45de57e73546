"""Small named matroids and decompositions used throughout the tests
and demos."""

from __future__ import annotations

from .errors import ArgumentError
from .gfq import gf
from .matroid import GraphicMatroid, LinearMatroid, Matroid, UniformMatroid
from .projgeom import pg_build
from .treedecomp import Tree, TreeDecomposition, _path_tree


def fano() -> LinearMatroid:
    """PG(2, 2): all seven nonzero binary vectors of length three, in
    lexicographic order."""
    return pg_matroid(3, 2)


def pg_matroid(r: int, q: int) -> LinearMatroid:
    """The rank-r projective geometry over GF(q) as a matroid (small
    models only; the ground-set cap applies)."""
    return LinearMatroid(gf(q), pg_build(r, q))


def non_fano() -> LinearMatroid:
    """The seven Fano point coordinates read over GF(3); a rank-3
    matroid in which the three 'diagonal' points are independent."""
    return LinearMatroid(
        gf(3),
        [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)],
    )


def k4_graphic() -> GraphicMatroid:
    """Cycle matroid of the complete graph on four vertices."""
    return GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def wide_uniform_decomposition() -> tuple[UniformMatroid, TreeDecomposition]:
    """A worked decomposition of U_{11,16} on a ten-vertex tree.

    Vertex 3 has degree four; its displayed sets have sizes 6, 5, 3, 1,
    giving rank defects 1, 0, 0, 0 and node width 11 - 1 = 10.  The
    vertices and bag sizes:

        0 -- 1 -- 2 -- 3 -- 4 -- 5        bags 2, 2, 2, 1, 3, 2
                       |
                       6 -- 7 -- 8        bags 1, 1, 1
                       |
                       9                  bag  1
    """
    m = UniformMatroid(11, 16)
    tree = Tree(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (7, 8), (3, 9)],
    )
    assignment = (
        0, 0,          # elements 0..1   -> vertex 0
        1, 1,          # elements 2..3   -> vertex 1
        2, 2,          # elements 4..5   -> vertex 2
        3,             # element  6      -> vertex 3 (the hub)
        4, 4, 4,       # elements 7..9   -> vertex 4
        5, 5,          # elements 10..11 -> vertex 5
        6, 7, 8,       # elements 12..14 -> the path hanging off the hub
        9,             # element  15     -> vertex 9
    )
    return m, TreeDecomposition(m, tree, assignment)


def uniform_line_path(n: int) -> tuple[UniformMatroid, TreeDecomposition]:
    """U_{2,n} with singleton bags along a path."""
    m = UniformMatroid(2, n)
    return m, TreeDecomposition(m, _path_tree(n), tuple(range(n)))


def named(name: str) -> Matroid:
    table = {
        "fano": fano,
        "non-fano": non_fano,
        "k4": k4_graphic,
    }
    if name in table:
        return table[name]()
    raise ArgumentError(f"unknown instance name {name!r}; known: {', '.join(table)}")
