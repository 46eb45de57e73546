"""Write the golden results that check.py compares reports against.

For every instance of a workload at a golden seed this records the
report's verdict-level fields and the largest real root to within
2**-64, computed from a characteristic polynomial that two independent
engines agree on (``charpoly_auto`` and ``cp_mobius``).  Identity
workloads record each check and its outcome.

    python3 perfbench/golden.py             # every workload, seeds 0 and 1
    python3 perfbench/golden.py identities  # one workload
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import worker  # noqa: F401  (puts the checkout's src on the path)
from check import frac_str, golden_path
from workloads import BOUND_THEOREMS, WORKLOADS

import matzero

GOLDEN_SEEDS = (0, 1)  # the default seed and a held-out one
GOLDEN_TOL = Fraction(1, 2 ** 64)


def cross_checked_charpoly(m):
    chi = matzero.charpoly_auto(m)
    if chi != matzero.cp_mobius(m):
        raise AssertionError(f"charpoly_auto and cp_mobius disagree on {m!r}")
    return chi


def golden_instance(workload: str, item) -> dict:
    rec = item.rec
    m = rec.matroid
    reports = item.verify(matzero)
    chi = cross_checked_charpoly(m)
    out = {"id": item.id, "n": m.n, "rank": m.full_rank}
    if workload not in BOUND_THEOREMS:
        out["checks"] = [[rep.check, rep.passed] for rep in reports]
        return out
    (rep,) = reports
    root = None
    if not chi.is_zero:
        bracket = matzero.largest_real_root(chi, GOLDEN_TOL)
        if bracket is not None:
            root = [frac_str(bracket[0]), frac_str(bracket[1])]
    out.update(verdict=rep.verdict, bound=frac_str(rep.bound),
               width=rep.witnessed_width, root=root)
    return out


def write_golden(workload: str, seed: int) -> None:
    items = WORKLOADS[workload](matzero, seed, False)
    rows = [json.dumps(golden_instance(workload, item), separators=(",", ":")) for item in items]
    path = golden_path(workload, seed)
    path.parent.mkdir(exist_ok=True)
    head = json.dumps({"workload": workload, "seed": seed, "root_tol": frac_str(GOLDEN_TOL)},
                      separators=(",", ":"))
    path.write_text(head[:-1] + ',"instances":[\n' + ",\n".join(rows) + "\n]}\n", encoding="utf-8")
    print(f"{path.name}: {len(rows)} instances", flush=True)


def main(argv) -> int:
    for workload in argv or sorted(WORKLOADS):
        for seed in GOLDEN_SEEDS:
            write_golden(workload, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
