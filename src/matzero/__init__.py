"""Exact characteristic polynomials of matroids, tree-decompositions of
bounded width, and verified zero-free regions for the roots.

The package is organized around five layers:

* :mod:`matzero.gfq` dense finite-field arithmetic tables;
* :mod:`matzero.matroid` rank oracles, minors, flats, Mobius values;
* :mod:`matzero.charpoly` exact polynomials, four independent engines,
  Sturm root counting and isolation;
* :mod:`matzero.treedecomp` tree-decompositions, width, reduction,
  exact small-instance tree-width;
* :mod:`matzero.projgeom` points of projective geometries as packed
  rows, extensions, necks, splitting along a modular flat;

with :mod:`matzero.harness` generating seeded instances and verifying
every bound, and :mod:`matzero.cli` exposing the lot on the command
line.  All arithmetic is exact (integers and rationals), every sign a
Sturm chain needs is settled in integer arithmetic, and no claim rests
on floating point.
"""

from .charpoly import (
    IntPoly,
    cauchy_root_bound,
    count_roots_above,
    cp_boolean_expansion,
    cp_cocircuit_expansion,
    cp_delete_contract,
    cp_mobius,
    cp_pg_closed_form,
    cp_uniform_closed_form,
    largest_real_root,
    poly_exact_div,
    squarefree_part,
    sturm_chain,
    sturm_positive_beyond,
)
from .gfq import GF, ff_build, gf
from .harness import (
    BoundReport,
    GraphicCrossCheck,
    IdentityCheck,
    InstanceRecord,
    charpoly_auto,
    chromatic_polynomial,
    cross_check_graphic,
    gen_glued,
    gen_random_linear,
    load_instances,
    main_theorem_suite,
    no_lines_suite,
    save_instances,
    verify_identities,
    verify_main_theorem,
    verify_no_lines_theorem,
    verify_size_and_cocircuit_bounds,
)
from .instances import (
    fano,
    k4_graphic,
    named,
    non_fano,
    pg_matroid,
    uniform_line_path,
    wide_uniform_decomposition,
)
from .matroid import (
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    MinorMatroid,
    UniformMatroid,
    graphic,
    load_matroid,
    save_matroid,
    uniform,
)
from .projgeom import (
    brylawski_charpoly,
    embed,
    extend,
    induced_decomposition,
    is_modular_flat,
    neck_of_edge,
    path_necks,
    pg_build,
    pg_point_count,
    split_along_neck,
    telescoping_expansion,
)
from .treedecomp import (
    Tree,
    TreeDecomposition,
    TreewidthResult,
    WidthReport,
    best_heuristic,
    exact_treewidth_small,
    heuristic_decomposition,
    reduce,
    single_vertex_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "ff_build",
    "gf",
    "Matroid",
    "LinearMatroid",
    "UniformMatroid",
    "GraphicMatroid",
    "MinorMatroid",
    "uniform",
    "graphic",
    "load_matroid",
    "save_matroid",
    "IntPoly",
    "cp_mobius",
    "cp_boolean_expansion",
    "cp_delete_contract",
    "cp_cocircuit_expansion",
    "cp_pg_closed_form",
    "cp_uniform_closed_form",
    "poly_exact_div",
    "squarefree_part",
    "sturm_chain",
    "count_roots_above",
    "sturm_positive_beyond",
    "cauchy_root_bound",
    "largest_real_root",
    "Tree",
    "TreeDecomposition",
    "WidthReport",
    "TreewidthResult",
    "single_vertex_decomposition",
    "heuristic_decomposition",
    "best_heuristic",
    "reduce",
    "exact_treewidth_small",
    "pg_build",
    "pg_point_count",
    "embed",
    "extend",
    "neck_of_edge",
    "path_necks",
    "induced_decomposition",
    "is_modular_flat",
    "split_along_neck",
    "brylawski_charpoly",
    "telescoping_expansion",
    "InstanceRecord",
    "BoundReport",
    "IdentityCheck",
    "GraphicCrossCheck",
    "charpoly_auto",
    "gen_random_linear",
    "gen_glued",
    "main_theorem_suite",
    "no_lines_suite",
    "verify_main_theorem",
    "verify_no_lines_theorem",
    "verify_identities",
    "verify_size_and_cocircuit_bounds",
    "chromatic_polynomial",
    "cross_check_graphic",
    "save_instances",
    "load_instances",
    "fano",
    "non_fano",
    "pg_matroid",
    "k4_graphic",
    "uniform_line_path",
    "wide_uniform_decomposition",
    "named",
    "__version__",
]
