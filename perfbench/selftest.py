"""Fast self-test of the benchmark itself (about ten seconds).

    python3 perfbench/selftest.py

For each workload at tiny size it checks that the traced and untraced
runs give the same reports, that each instance's top-level spans
account for its traced time, and that the one-at-a-time reports equal
the batch call's.  It also checks that a wrapped name missing from
matzero is reported as unmeasured rather than crashing, that the
checker rejects wrong reports, and that BENCHMARK.json names exactly
the metrics and workloads the code produces.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import worker  # puts the checkout's src on the path
from check import check_result, frac_str, root_contains
from run import PER_LAYER, ROOT, SPANS_DIR, WORKER, per_layer
from tracer import SPANS
from workloads import WORKLOADS

import matzero

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def spawn_tiny(workload: str, mode: str) -> dict:
    cmd = [sys.executable, "-I", str(WORKER), "--workload", workload, "--seed", "0",
           "--mode", mode, "--tiny"]
    if mode == "traced":
        SPANS_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(SPANS_DIR / f"selftest-{workload}.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str) -> None:
    plain = spawn_tiny(workload, "plain")
    traced = spawn_tiny(workload, "traced")
    verdicts = [check_result(workload, res, None) for res in (plain, traced)]
    for mode, verdict in zip(("plain", "traced"), verdicts):
        expect(not verdict["failed"], f"{workload} {mode}: {verdict['failed']}")
    expect(verdicts[0]["report_digest"] == verdicts[1]["report_digest"],
           f"{workload}: traced and untraced reports differ")
    for meta, top, lat in zip(traced["meta"], traced["top_level_s"], traced["latency_s"]):
        expect(top <= lat and lat - top <= 0.1 * lat + 1e-4,
               f"{workload} {meta['id']}: top-level spans {top:.6f} s of {lat:.6f} s")

    # one instance at a time gives the same reports as one batch call
    items = WORKLOADS[workload](matzero, 0, True)
    groups: dict = {}
    for item in items:
        groups.setdefault((item.verify_name, item.args), []).append(item.rec)
    batch = []
    for (name, args), recs in groups.items():
        batch += [rep.to_json() for rep in getattr(matzero, name)(recs, *args)]
    expect(batch == [line for lines in plain["reports"] for line in lines],
           f"{workload}: per-instance reports differ from the batch call")


def check_missing_names() -> None:
    """A name gone from matzero is unmeasured, and the run still checks."""
    missing = (("harness", "no_such_function"), ("matroid", "Matroid.no_such_method"))
    matzero.__all__.remove("sturm_chain")
    try:
        traced = worker.run("main-c05", 0, "traced", tiny=True, spans=SPANS + missing)
    finally:
        matzero.__all__.append("sturm_chain")
    gone = set(traced["trace"]["unmeasured"])
    want = {"harness.no_such_function", "matroid.no_such_method", "charpoly.sturm_chain"}
    expect(gone == want, f"unmeasured {sorted(gone)}, expected {sorted(want)}")
    metrics, unmeasured = per_layer(traced, traced)
    expect(unmeasured == ["charpoly.sturm_chain.len"], f"unmeasured metrics {unmeasured}")
    expect("charpoly.largest_real_root.s" in metrics, "other metrics lost with one name")
    expect(not check_result("main-c05", traced, None)["failed"], "traced run with a missing name")
    expect(matzero.sturm_chain.__module__ == "matzero.charpoly", "wrappers were not removed")


def check_checker() -> None:
    """The checker accepts any honest bracket and rejects wrong reports."""
    two = Fraction(2)
    expect(root_contains((two, two), ["2/1", "2/1"]), "exact root rejected")
    expect(root_contains((two - Fraction(1, 4), two), ["2/1", "2/1"]), "bracket at exact root")
    expect(not root_contains((two - Fraction(1, 4), two - Fraction(1, 8)), ["2/1", "2/1"]),
           "bracket below an exact root accepted")
    glo, ghi = Fraction(3, 2), Fraction(3, 2) + Fraction(1, 2 ** 64)
    golden = [frac_str(glo), frac_str(ghi)]
    expect(root_contains((Fraction(1), two), golden), "enclosing bracket rejected")
    expect(not root_contains((ghi, two), golden), "bracket missing the root accepted")
    expect(not root_contains((glo, glo), golden), "point at an irrational root accepted")

    res = worker.run("main-c05", 0, "plain", tiny=True)
    rep = json.loads(res["reports"][0][0])
    for field, value in (("verdict", False), ("witnessed_width", 9),
                         ("largest_root", [["0", "1"], ["1", "1"]])):
        bad = dict(res, reports=[[json.dumps(dict(rep, **{field: value}))]] + res["reports"][1:])
        expect(res["meta"][0]["id"] in check_result("main-c05", bad, None)["failed"],
               f"a report with a wrong {field} passed")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER],
           "per-layer metrics differ from run.PER_LAYER")
    expect([m["name"] for m in spec["end_to_end"]]
           == ["instances_per_s", "instance_ms_p50", "instance_ms_tail", "setup_s", "peak_rss_mb"],
           "end-to-end metric names")


def main() -> int:
    for workload in WORKLOADS:
        check_workload(workload)
    check_missing_names()
    check_checker()
    check_benchmark_json()
    for line in failures:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
