"""Necks, extensions, and factoring a characteristic polynomial.

Embed a binary matroid in its projective geometry, its points named by
their packed echelon rows, read off the neck of a decomposition edge
(the points both sides span), fill it, and split the matroid across it.  Because the neck spans a modular flat, the
characteristic polynomial factors through the pieces.
"""

from matzero import Tree, TreeDecomposition, cp_delete_contract
from matzero.gfq import gf
from matzero.matroid import LinearMatroid
from matzero.projgeom import (
    brylawski_charpoly,
    embed,
    extend,
    neck_of_edge,
    pg_build,
    pg_point_count,
    split_along_neck,
    telescoping_expansion,
)


def two_planes_sharing_a_line():
    """Eleven points of rank 4 over GF(2): a Fano plane on coordinates
    0-2 glued to another on coordinates 1-3 along their common line."""
    plane = pg_build(3, 2)
    cols = [p + (0,) for p in plane]
    cols += [(0,) + p for p in plane if p[2] == 1]
    return LinearMatroid(gf(2), cols)


def main():
    m = two_planes_sharing_a_line()
    base = embed(m)
    print(f"glued matroid: rank {m.full_rank}, {m.n} points, "
          f"of the {pg_point_count(4, 2)} points of PG(3, 2)")

    dec = TreeDecomposition(base, Tree(2, [(0, 1)]), [0] * 7 + [1] * 4)
    print(f"two-bag decomposition width: {dec.width()}")

    neck, external = neck_of_edge(base, dec, (0, 1))
    print(f"neck of the edge: {len(neck)} geometry points, "
          f"{len(external)} of them not elements")
    # all three neck points are already elements here, so no extension
    # is needed before splitting
    ext = extend(base, external)

    m1, m2, common = split_along_neck(ext, dec, (0, 1))
    print(f"split pieces: {m1.n} + {m2.n} points over a common {common.n}-point line")

    chi1 = cp_delete_contract(m1)
    chi2 = cp_delete_contract(m2)
    chic = cp_delete_contract(common)
    print(f"  chi(piece 1) = {chi1}")
    print(f"  chi(piece 2) = {chi2}")
    print(f"  chi(common)  = {chic}")

    factored = brylawski_charpoly(m1, m2, common)
    direct = cp_delete_contract(ext.matroid)
    print(f"  chi1 * chi2 / chi_common = {factored}")
    assert factored == direct
    print("  equals the direct computation, as the modular flat promises")

    # The telescoping identity rewrites the base polynomial through any
    # chain of single point extensions: chi(M) equals chi of the full
    # extension plus one contraction term per added point.
    field = gf(5)
    lbase = embed(LinearMatroid(field, [(1, 0), (0, 1), (1, 1)]))
    missing = [p for p in map(field.pack, pg_build(2, 5)) if p not in lbase.packed]
    lext = extend(lbase, missing)
    print(f"\nthree points on the GF(5) line, extended by {len(missing)} more:")
    total = None
    for term, role in telescoping_expansion(lext):
        chi = cp_delete_contract(term)
        total = chi if total is None else total + chi
        print(f"  {role:14s} {chi}")
    print(f"  sum            {total}")
    assert total == cp_delete_contract(lbase)
    print("  the sum telescopes back to chi of the original three points")


if __name__ == "__main__":
    main()
