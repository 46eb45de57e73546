"""Correctness of a worker's reports, against golden results or invariants.

Golden files (``golden/<workload>-s<seed>.json``, written by golden.py)
hold per instance the verdict, bound, witnessed width, n, rank and the
largest real root to within 2**-64 (exact when it is rational), or the
identity checks and their outcomes.  A report bracket passes when it
contains the golden root and is no wider than ROOT_TOL; the bisection
points themselves may change.

Every seed, golden or not, is also held to the invariants of its
theorem, and gets a digest of its verdict-level results so two commits
can be compared on any seed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import BOUND_THEOREMS

ROOT_TOL = Fraction(1, 2 ** 30)
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
IDENTITY_CHECKS = ("delete-contract", "glued-factorization",
                   "cocircuit-expansion", "telescoping-extension")


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{workload}-s{seed}.json"


def load_golden(workload: str, seed: int):
    path = golden_path(workload, seed)
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return {inst["id"]: inst for inst in data["instances"]}


def frac(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def theorem_bound(theorem: str, q: int, k: int) -> Fraction:
    return Fraction(q ** (k - 1)) if theorem == "main" else Fraction(q ** k - 1, q - 1)


def root_contains(root, golden) -> bool:
    """Whether a report bracket (lo, hi] (or exact point) holds the root
    that the golden interval (glo, ghi] (or exact point) pins down."""
    if golden is None or root is None:
        return golden is None and root is None
    lo, hi = root
    glo, ghi = (Fraction(s) for s in golden)
    if glo == ghi:
        return lo == hi == glo or lo < glo <= hi
    return lo != hi and lo <= glo and ghi <= hi


def bound_problems(theorem: str, meta: dict, reports: list) -> list[str]:
    """Invariants of one verify_main_theorem / verify_no_lines_theorem call."""
    if len(reports) != 1:
        return [f"{len(reports)} reports for one instance"]
    rep = reports[0]
    q, k = meta["args"]
    out = []
    if rep["instance"] != meta["id"] or rep["theorem"] != theorem:
        out.append(f"report for {rep['instance']}/{rep['theorem']}")
    if (rep["q"], rep["k"], rep["n"], rep["rank"]) != (q, k, meta["n"], meta["rank"]):
        out.append("q, k, n or rank differ from the instance")
    if rep["witnessed_width"] != meta["width"] or rep["witnessed_width"] > k:
        out.append(f"witnessed width {rep['witnessed_width']}, instance {meta['width']}, k {k}")
    bound = theorem_bound(theorem, q, k)
    if frac(rep["bound"]) != bound:
        out.append(f"bound {rep['bound']} is not {bound}")
    if rep["verdict"] is not True:
        out.append("verdict is not true")
    root = rep["largest_root"]
    if rep["identically_zero"] or meta["rank"] == 0:
        if root is not None:
            out.append("a root bracket for a polynomial without roots")
        return out
    if root is None:
        return out + ["no root bracket"]
    lo, hi = frac(root[0]), frac(root[1])
    if not lo <= hi or hi - lo > ROOT_TOL:
        out.append(f"bracket [{lo}, {hi}] is empty or wider than ROOT_TOL")
    if hi < 1:
        out.append("largest root below 1, but chi(1) = 0")
    if not (lo < bound or lo == hi == bound):
        out.append(f"root bracket [{lo}, {hi}] lies above the bound {bound}")
    return out


def bound_golden_problems(rep: dict, gold: dict) -> list[str]:
    out = []
    for key, field in (("verdict", "verdict"), ("width", "witnessed_width"),
                       ("n", "n"), ("rank", "rank")):
        if gold[key] != rep[field]:
            out.append(f"{field} {rep[field]} differs from golden {gold[key]}")
    if Fraction(gold["bound"]) != frac(rep["bound"]):
        out.append("bound differs from golden")
    root = rep["largest_root"]
    root = None if root is None else (frac(root[0]), frac(root[1]))
    if not root_contains(root, gold["root"]):
        out.append(f"bracket {root} does not hold the golden root {gold['root']}")
    return out


def identity_problems(meta: dict, reports: list) -> list[str]:
    names = [rep["check"] for rep in reports]
    out = [f"{rep['check']} failed: {rep['detail']}" for rep in reports if rep["passed"] is not True]
    if any(rep["instance"] != meta["id"] for rep in reports):
        out.append("a check names another instance")
    if any(name not in IDENTITY_CHECKS for name in names) or len(set(names)) != len(names):
        out.append(f"unexpected checks {names}")
    need = ["delete-contract", "cocircuit-expansion"]
    if meta["glued_blocks"] >= 2:
        need.append("glued-factorization")
    if any(name not in names for name in need):
        out.append(f"missing checks: have {names}, need {need}")
    return out


def identity_golden_problems(meta: dict, reports: list, gold: dict) -> list[str]:
    out = []
    if (gold["n"], gold["rank"]) != (meta["n"], meta["rank"]):
        out.append("n or rank differ from golden")
    got = [[rep["check"], rep["passed"]] for rep in reports]
    if got != gold["checks"]:
        out.append(f"checks {got} differ from golden {gold['checks']}")
    return out


def verdict_line(workload: str, reports: list) -> str:
    """The part of a result that a faithful change keeps byte-identical."""
    if workload in BOUND_THEOREMS:
        return "|".join(
            f"{r['instance']},{r['verdict']},{r['bound'][0]}/{r['bound'][1]},"
            f"{r['witnessed_width']},{r['n']},{r['rank']},{r['identically_zero']}"
            for r in reports
        )
    return "|".join(f"{r['instance']},{r['check']},{r['passed']}" for r in reports)


def check_result(workload: str, result: dict, golden) -> dict:
    """Per-instance failures, problems, and digests of one worker result."""
    failed: dict[str, list[str]] = {}
    verdicts = hashlib.sha256()
    full = hashlib.sha256()
    theorem = BOUND_THEOREMS.get(workload)
    if golden is not None and set(golden) != {m["id"] for m in result["meta"]}:
        failed["(batch)"] = ["instance ids differ from the golden set"]
    for meta, lines, error in zip(result["meta"], result["reports"], result["errors"]):
        reports = [json.loads(line) for line in lines]
        for line in lines:
            full.update(line.encode() + b"\n")
        verdicts.update(verdict_line(workload, reports).encode() + b"\n")
        if error is not None:
            failed[meta["id"]] = [f"raised {error}"]
            continue
        gold = None if golden is None else golden.get(meta["id"])
        if theorem is not None:
            problems = bound_problems(theorem, meta, reports)
            if gold is not None and len(reports) == 1:
                problems += bound_golden_problems(reports[0], gold)
        else:
            problems = identity_problems(meta, reports)
            if gold is not None:
                problems += identity_golden_problems(meta, reports, gold)
        if problems:
            failed[meta["id"]] = problems
    return {
        "failed": failed,
        "result_digest": verdicts.hexdigest()[:16],
        "report_digest": full.hexdigest()[:16],
    }
