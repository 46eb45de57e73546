"""matzero benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload main-c05 --seed 0 --seconds 10 --trace 0

Every measured repeat is a fresh interpreter (worker.py) that imports
matzero from ``src``, generates the workload from the seed and verifies
it one instance at a time, so no cache warmed by one repeat is timed by
the next.  With ``--trace 0`` the run repeats until ``--seconds`` have
passed and reports the end-to-end metrics as medians over repeats, in
CPU time scaled by a reference kernel to a fixed host speed; with
``--trace 1`` it runs one untraced and one traced repeat and reports
the per-layer metrics of the traced one, whose spans it writes to
``perfbench/out/``.  Either way every report is checked (check.py) and
the last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The program must not see ``MZ_SEED``: it overrides derived sub-seeds
and collapses suites, so the benchmark refuses to run when it is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_result, load_golden
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"

SETUP_REPEATS = 5  # set-up-only processes per untraced run, on top of the measured ones
RUN_DEADLINE_S = 170.0  # a run must finish within 180 s
# Reported times are CPU times scaled to a host on which worker.py's
# reference kernel takes this long; the factor is printed with each run.
REFERENCE_S = 0.015

# (metric, unit, source).  Sources: ("span", name, field) with field
# 0 = outermost seconds, 1 = self seconds, 2 = calls, 3 = summed result
# length; ("rank", field); ("probe", name); ("self", layer); ("overhead",);
# ("distinct",).
PER_LAYER = (
    ("charpoly.largest_real_root.s", "s", ("span", "charpoly.largest_real_root", 0)),
    ("charpoly.largest_real_root.self_s", "s", ("span", "charpoly.largest_real_root", 1)),
    ("charpoly.largest_real_root.calls", "count", ("span", "charpoly.largest_real_root", 2)),
    ("charpoly.sturm_positive_beyond.s", "s", ("span", "charpoly.sturm_positive_beyond", 0)),
    ("charpoly.sturm_positive_beyond.calls", "count", ("span", "charpoly.sturm_positive_beyond", 2)),
    ("charpoly.sturm_chain.len", "count", ("span", "charpoly.sturm_chain", 3)),
    ("charpoly.IntPoly.evaluate.calls", "count", ("probe", "charpoly.evaluate")),
    ("harness.charpoly_auto.s", "s", ("span", "harness.charpoly_auto", 0)),
    ("harness.charpoly_auto.self_s", "s", ("span", "harness.charpoly_auto", 1)),
    ("harness.charpoly_auto.calls", "count", ("span", "harness.charpoly_auto", 2)),
    ("charpoly.cp_cocircuit_expansion.s", "s", ("span", "charpoly.cp_cocircuit_expansion", 0)),
    ("charpoly.cp_cocircuit_expansion.calls", "count", ("span", "charpoly.cp_cocircuit_expansion", 2)),
    ("matroid.find_small_cocircuit.s", "s", ("span", "matroid.find_small_cocircuit", 0)),
    ("matroid.find_small_cocircuit.calls", "count", ("span", "matroid.find_small_cocircuit", 2)),
    ("charpoly.cp_delete_contract.s", "s", ("span", "charpoly.cp_delete_contract", 0)),
    ("charpoly.cp_delete_contract.calls", "count", ("span", "charpoly.cp_delete_contract", 2)),
    ("matroid.has_line_minor.s", "s", ("span", "matroid.has_line_minor", 0)),
    ("matroid.has_line_minor.calls", "count", ("span", "matroid.has_line_minor", 2)),
    ("matroid.rank_mask.s", "s", ("rank", "s")),
    ("matroid.rank_mask.calls", "count", ("rank", "calls")),
    ("matroid.rank_mask.misses", "count", ("rank", "misses")),
    ("matroid.rank_hit_ratio", "ratio", ("rank", "hit_ratio")),
    ("treedecomp.width.s", "s", ("span", "treedecomp.width", 0)),
    ("treedecomp.width.calls", "count", ("span", "treedecomp.width", 2)),
    ("treedecomp.best_heuristic.s", "s", ("span", "treedecomp.best_heuristic", 0)),
    ("gfq.gf.s", "s", ("span", "gfq.gf", 0)),
    ("gfq.gf.calls", "count", ("span", "gfq.gf", 2)),
    ("harness.generate.s", "s", ("span", "harness.generate", 0)),
    ("projgeom.embed.s", "s", ("span", "projgeom.embed", 0)),
    ("projgeom.neck_of_edge.s", "s", ("span", "projgeom.neck_of_edge", 0)),
    ("projgeom.extend.s", "s", ("span", "projgeom.extend", 0)),
    ("projgeom.telescoping_expansion.s", "s", ("span", "projgeom.telescoping_expansion", 0)),
    ("projgeom.brylawski_charpoly.s", "s", ("span", "projgeom.brylawski_charpoly", 0)),
    ("harness.self_s", "s", ("self", "harness")),
    ("harness.distinct_instances", "count", ("distinct",)),
    ("trace.overhead_ratio", "ratio", ("overhead",)),
)


class WorkerFailed(Exception):
    pass


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> str:
    try:
        load = " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        load = "unknown"
    return (f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
            f"commit {read_commit()}, loadavg {load}")


def spawn(args, mode: str, deadline: float, spans_path=None) -> dict:
    cmd = [sys.executable, "-I", str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker passed the run deadline") from None
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - start
    result["wall_s"] = time.monotonic() - start
    return result


def speed(res: dict) -> float:
    """Factor that scales a repeat's CPU times to the reference host."""
    return REFERENCE_S / statistics.median(res["reference_s"])


def middle_mean(ordered: list) -> float:
    """The median, estimated as the mean of the middle tenth of the
    sorted values (for the 16 of glued-nolines, the ordinary median).  main-c05
    has a gap in its latencies at the median, so the single middle value
    jumps when the instance mix moves it across; this moves smoothly."""
    cut = 9 * len(ordered) // 20
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(setups: list, runs: list, clock: str) -> tuple[dict, str]:
    """End-to-end metrics from ``clock``: "scaled" (CPU time at the
    reference speed, the reported one), "cpu" or "wall"."""
    def scale(res):
        return speed(res) if clock == "scaled" else 1.0

    per = "latency_s" if clock == "wall" else "cpu_s"
    setup = "setup_s" if clock == "wall" else "setup_cpu_s"
    n = len(runs[0][per])
    latency = sorted(statistics.median(r[per][i] * scale(r) for r in runs) for i in range(n))
    # p95, or the highest rank with ten samples beyond it when that is
    # lower.  main-c05's p99.5 is not used: 1 to 11 of its instances are
    # heavy, by seed, so its 11th slowest jumps between about 54 and 77 ms.
    tail = max(0, min(n - 11, math.ceil(0.95 * n) - 1))
    metrics = {
        "instances_per_s": (n / sum(latency), "1/s"),
        "instance_ms_p50": (1000 * middle_mean(latency), "ms"),
        "instance_ms_tail": (1000 * latency[tail], "ms"),
        "setup_s": (statistics.median(r[setup] * scale(r) for r in setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in runs) / 1024, "MB"),
    }
    note = f"instance_ms_tail is p{100 * (tail + 1) / n:g} of {n} instances"
    return metrics, note


def per_layer(traced: dict, plain: dict) -> tuple[dict, list]:
    trace = traced["trace"]
    totals, gone = trace["totals"], set(trace["unmeasured"])
    rank = dict(trace["rank"])
    rank["hit_ratio"] = 1 - rank["misses"] / rank["calls"] if rank["calls"] else None
    metrics, unmeasured = {}, []
    for name, unit, source in PER_LAYER:
        kind = source[0]
        value = None
        if kind == "span" and source[1] not in gone and source[1] in totals:
            value = totals[source[1]][source[2]]
        elif kind == "rank" and "matroid.rank_mask" not in gone:
            value = rank[source[1]]
        elif kind == "probe" and source[1] not in gone:
            value = trace["evaluate_calls"]
        elif kind == "self":
            value = sum(t[1] for k, t in totals.items() if k.startswith(source[1] + "."))
        elif kind == "overhead":
            value = (sum(traced["cpu_s"]) * speed(traced)) / (sum(plain["cpu_s"]) * speed(plain))
        elif kind == "distinct":
            value = traced["distinct_instances"]
        if value is None:
            unmeasured.append(name)
        else:
            metrics[name] = (value, unit)
    return metrics, unmeasured


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="matzero benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run_start = time.monotonic()
    deadline = run_start + RUN_DEADLINE_S
    if "MZ_SEED" in os.environ:
        print("perfbench: MZ_SEED is set; it overrides the workload's sub-seeds. Unset it.",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "matzero" / "__init__.py").is_file():
        print(f"perfbench: no matzero sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"perfbench: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"environment: {environment()}")
    golden = load_golden(args.workload, args.seed)
    notes, problems = [], []
    try:
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans_path = SPANS_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
            plain = spawn(args, "plain", deadline)
            traced = spawn(args, "traced", deadline, spans_path)
            checked = [plain, traced]
            metrics, unmeasured = per_layer(traced, plain)
            ranked = sorted(traced["trace"]["totals"].items(), key=lambda kv: -kv[1][1])
            notes.append("largest self times: " + ", ".join(
                f"{name} {tot[1]:.3f} s" for name, tot in ranked[:4]))
            notes.append(f"{traced['trace']['spans']} spans written to {spans_path.relative_to(ROOT)}")
            if unmeasured:
                notes.append("unmeasured (name missing from matzero): " + ", ".join(unmeasured))
        else:
            setups = [spawn(args, "setup", deadline) for _ in range(SETUP_REPEATS)]
            checked = []
            measure_start = time.monotonic()
            while True:
                res = spawn(args, "plain", deadline)
                checked.append(res)
                setups.append(res)
                now = time.monotonic()
                if now - measure_start >= args.seconds or now + res["wall_s"] > deadline:
                    break
            metrics, note = end_to_end(setups, checked, "scaled")
            notes.append(note)
            notes.append(f"repeats {len(checked)}, set-ups {len(setups)}; host speed factors "
                         + " ".join(f"{speed(r):.3f}" for r in setups))
            for clock in ("cpu", "wall"):
                raw, _ = end_to_end(setups, checked, clock)
                notes.append(f"unscaled {clock} time: " + ", ".join(
                    f"{k} {v[0]:.6g} {v[1]}" for k, v in raw.items() if v[1] != "MB"))
    except WorkerFailed as exc:
        print(f"error: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0

    attempted = failed = 0
    digests = set()
    for res in checked:
        verdict = check_result(args.workload, res, golden)
        attempted += len(res["meta"])
        failed += min(len(verdict["failed"]), len(res["meta"]))
        digests.add((verdict["result_digest"], verdict["report_digest"]))
        for inst, why in list(verdict["failed"].items())[:5]:
            problems.append(f"{inst}: {'; '.join(why)}")
    if len(digests) != 1:
        problems.append(f"repeats disagree: {sorted(digests)}")
    first = checked[0]
    print(f"instances: {len(first['meta'])}, distinct {first['distinct_instances']}")
    print(f"check: {'golden seed' if golden else 'invariants only'}; failed {failed} of "
          f"{attempted} (fail_ratio {failed / attempted:g}); result_digest "
          f"{min(digests)[0]}; report_digest {min(digests)[1]}")
    for line in notes + problems:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    payload = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
