"""Command line front end.

Subcommands:

* ``charpoly``   characteristic polynomial of a matroid file
* ``treewidth``  width bounds and decompositions
* ``verify``     run a verification suite, exit 0 iff every verdict holds
* ``generate``   write instance files
* ``minors``     query for long-line minors

Polynomials are printed as JSON arrays of decimal strings, constant
coefficient first; the empty array is the zero polynomial.  The env var
``MZ_SEED`` overrides any ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .charpoly import (
    ZERO,
    _cocircuit_chi,
    cp_boolean_expansion,
    cp_delete_contract,
    cp_mobius,
    cp_uniform_closed_form,
)
from .errors import ArgumentError, MatZeroError
from .harness import (
    _random_linear,
    all_verdicts_true,
    charpoly_auto,
    effective_seed,
    gen_glued,
    reports_to_jsonl,
    resolve_instances,
    save_instances,
    verify_identities,
    verify_main_theorem,
    verify_no_lines_theorem,
    verify_size_and_cocircuit_bounds,
)
from .matroid import GraphicMatroid, UniformMatroid, load_matroid, save_matroid
from .treedecomp import (
    best_heuristic,
    exact_treewidth_small,
    heuristic_decomposition,
    load_decomposition,
    save_decomposition,
)


def _engine_charpoly(m, engine: str):
    if engine == "auto":
        return charpoly_auto(m)
    if engine == "mobius":
        return cp_mobius(m)
    if engine == "boolean":
        return cp_boolean_expansion(m)
    if engine == "delcon":
        return cp_delete_contract(m)
    if engine == "cocircuit":
        if m.loops_mask():
            return ZERO
        basis, coordinates = m._standard_form()
        return _cocircuit_chi(m._points()[0], list(dict.fromkeys(coordinates)), basis.bit_count())
    raise ArgumentError(f"unknown engine {engine!r}")


def _cmd_charpoly(args) -> int:
    m = load_matroid(args.file)
    p = _engine_charpoly(m, args.engine)
    print(json.dumps(p.to_json()))
    if args.pretty:
        print(p, file=sys.stderr)
    return 0


def _cmd_treewidth(args) -> int:
    m = load_matroid(args.file)
    if args.evaluate:
        dec = load_decomposition(args.evaluate, m)
        report = dec.width_report()
        print(json.dumps({"width": report.width, "node_widths": list(report.node_widths)}))
        return 0
    if args.exact:
        res = exact_treewidth_small(m)
        dec = res.decomposition
        out = {"width": res.width, "exact": True, "tree_vertices": res.num_vertices}
    else:
        if args.heuristic == "best":
            dec = best_heuristic(m)
        else:
            dec = heuristic_decomposition(m, args.heuristic)
        out = {
            "width": dec.width(),
            "exact": False,
            "tree_vertices": dec.tree.num_vertices,
        }
    print(json.dumps(out))
    if args.decomp:
        save_decomposition(dec, args.decomp)
    return 0


def _cmd_verify(args) -> int:
    instances = resolve_instances(args.instances, args.q, args.k)
    if args.suite == "main":
        reports = verify_main_theorem(instances, args.q, args.k)
    elif args.suite == "nolines":
        reports = verify_no_lines_theorem(instances, args.q, args.k)
    elif args.suite == "identities":
        reports = verify_identities(instances)
    elif args.suite == "bounds":
        reports = verify_size_and_cocircuit_bounds(instances, args.q, args.k)
    else:
        raise ArgumentError(f"unknown suite {args.suite!r}")
    text = reports_to_jsonl(reports)
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if all_verdicts_true(reports) else 1


def _cmd_generate(args) -> int:
    # build everything before the output directory exists, so that
    # rejected arguments leave nothing behind
    outdir = Path(args.out)
    if args.kind in ("random", "glued"):
        if args.kind == "random":
            seed = effective_seed(args.seed)
            built: dict = {}
            recs = [_random_linear(args.q, args.rank, args.n, seed + i, built)
                    for i in range(args.count)]
        else:
            recs = [gen_glued(
                args.q, args.block_rank, args.blocks, args.overlap, args.seed,
                delete_count=args.delete,
            )]
        outdir.mkdir(parents=True, exist_ok=True)
        save_instances(outdir, recs)
        for rec in recs:
            print(outdir / f"{rec.id}.matrix")
        return 0
    if args.kind == "uniform":
        m = UniformMatroid(args.rank, args.n).matrix()
        stem = f"uniform-r{args.rank}n{args.n}"
    elif args.kind == "graphic":
        v = args.vertices
        if args.shape == "complete":
            edges = [(i, j) for i in range(v) for j in range(i + 1, v)]
        elif args.shape == "cycle":
            edges = [(i, (i + 1) % v) for i in range(v)]
        elif args.shape == "path":
            edges = [(i, i + 1) for i in range(v - 1)]
        else:
            raise ArgumentError(f"unknown shape {args.shape!r}")
        m = GraphicMatroid(v, edges)
        stem = f"graphic-{args.shape}{v}"
    else:
        raise ArgumentError(f"unknown instance kind {args.kind!r}")
    decomposition = best_heuristic(m)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{stem}.matrix"
    save_matroid(m, path)
    save_decomposition(decomposition, outdir / f"{stem}.decomp")
    print(path)
    if args.kind == "uniform" and charpoly_auto(m) != cp_uniform_closed_form(args.rank, args.n):
        print("warning: representation does not match the closed form", file=sys.stderr)
        return 1
    return 0


def _cmd_minors(args) -> int:
    m = load_matroid(args.file)
    present = m.has_line_minor(args.length)
    print(json.dumps({"line_length": args.length, "present": present}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="matzero", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charpoly", help="characteristic polynomial of a matroid file")
    p.add_argument("file")
    p.add_argument(
        "--engine",
        choices=["auto", "mobius", "boolean", "delcon", "cocircuit"],
        default="auto",
    )
    p.add_argument("--pretty", action="store_true", help="also print a human form to stderr")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("treewidth", help="width of a matroid")
    p.add_argument("file")
    p.add_argument("--exact", action="store_true", help="exact search (tiny ground sets only)")
    p.add_argument(
        "--heuristic", choices=["best", "path", "greedy", "single"], default="best"
    )
    p.add_argument("--decomp", help="write the found decomposition here")
    p.add_argument("--evaluate", help="evaluate the width of this decomposition file")
    p.set_defaults(func=_cmd_treewidth)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["main", "nolines", "identities", "bounds"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument(
        "--instances",
        required=True,
        help="directory of instance files, or seed spec kind:count:seed",
    )
    p.add_argument("--report", help="write JSON lines here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="write instance files")
    gsub = p.add_subparsers(dest="kind", required=True)

    g = gsub.add_parser("random")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--rank", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=".")
    g.set_defaults(func=_cmd_generate)

    g = gsub.add_parser("glued")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--block-rank", type=int, required=True)
    g.add_argument("--blocks", type=int, default=2)
    g.add_argument("--overlap", type=int, default=1)
    g.add_argument("--delete", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=".")
    g.set_defaults(func=_cmd_generate)

    g = gsub.add_parser("uniform")
    g.add_argument("--rank", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", default=".")
    g.set_defaults(func=_cmd_generate)

    g = gsub.add_parser("graphic")
    g.add_argument("--shape", choices=["complete", "cycle", "path"], required=True)
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--out", default=".")
    g.set_defaults(func=_cmd_generate)

    p = sub.add_parser("minors", help="minor queries")
    msub = p.add_subparsers(dest="query", required=True)
    q = msub.add_parser("line", help="is there an l-point line minor?")
    q.add_argument("file")
    q.add_argument("--l", "--length", dest="length", type=int, required=True)
    q.set_defaults(func=_cmd_minors)

    return top


def main(argv=None) -> int:
    """Run one subcommand.  A :class:`MatZeroError` (bad input, a size
    cap, a failed precondition) or an ``OSError`` (a file that is
    missing, unreadable or a directory) ends the run with a one-line
    message on stderr and exit status 2; a verify run whose verdicts
    fail exits 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatZeroError, OSError) as exc:
        print(f"matzero: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
