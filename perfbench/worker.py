"""One measured process of the benchmark.

``run.py`` starts this file in a fresh interpreter for every repeat, so
the rank caches on the matroids and matzero's module-level memo tables
start empty and the instances are generated again each time.  It
imports matzero from the checkout's ``src``, generates the workload,
verifies it one instance at a time and prints one JSON object.

Modes: ``setup`` stops after generation; ``plain`` verifies untraced;
``traced`` wraps the layers (see tracer.py) and also writes the spans.

Times are the process's CPU time.  On a shared host the speed of the
same code can drift by half or more over minutes, mostly through
contention for the caches, so the worker also times a fixed cache-bound reference kernel (which uses no
matzero code) before, between and after the instances; run.py scales
each repeat's times by that kernel's median.  The kernel's tables are
built before matzero is imported, and their CPU time and resident size
are taken out of ``setup_cpu_s`` and ``rss_kb``.

    python3 perfbench/worker.py --workload main-c05 --seed 0 --mode plain
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def peak_rss_kb() -> int:
    """High-water resident size of this process's own address space.
    ``ru_maxrss`` would not do: Linux carries it across exec, so a worker
    would inherit its parent's peak."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def build_reference_tables():
    """An 8 MB byte table and a 64k-entry dict: larger than a 2 MB
    per-core L2 cache, so the kernel feels cache contention."""
    table = bytes(range(256)) * (1 << 15)
    lookup = {(i * 2654435761) & 0xFFFFFFF: i & 255 for i in range(1 << 16)}
    return table, lookup, list(lookup)


_rss_before = peak_rss_kb()
_cpu_before = time.process_time()
REFERENCE_TABLES = build_reference_tables()
TABLES_CPU_S = time.process_time() - _cpu_before
TABLES_RSS_KB = peak_rss_kb() - _rss_before

import matzero  # noqa: E402  (after the path is set)

from tracer import GENERATE, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


CALIBRATE_EVERY_S = 0.25  # CPU seconds of verification between kernel timings
CALIBRATE_EDGE = 5  # kernel timings before and after the instances


def reference_kernel() -> int:
    """Fixed pseudo-random reads from the reference tables."""
    table, lookup, keys = REFERENCE_TABLES
    tmask, kmask = len(table) - 1, len(keys) - 1
    acc, x = 0, 12345
    for _ in range(15000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += table[x & tmask] + lookup[keys[x & kmask]]
    return acc


def reference_seconds() -> float:
    start = time.process_time()
    reference_kernel()
    return time.process_time() - start


def instance_meta(item) -> dict:
    rec = item.rec
    m = rec.matroid
    cons = rec.construction
    return {
        "id": item.id,
        "n": m.n,
        "rank": m.full_rank,
        "width": rec.witnessed_width,
        "args": list(item.args),
        "glued_blocks": cons.get("blocks", 0) if cons.get("kind") == "glued" else 0,
        "key": repr((rec.q, getattr(m, "columns", None))),
    }


def run(workload: str, seed: int, mode: str, tiny: bool = False,
        spans=SPANS, spans_path=None) -> dict:
    """Generate and (unless mode is ``setup``) verify one workload."""
    if matzero.__file__ is None or Path(matzero.__file__).resolve().parent != ROOT / "src" / "matzero":
        raise RuntimeError(f"matzero was imported from {matzero.__file__}, not the checkout")
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install(matzero, spans)
        items = tracer.call(GENERATE, WORKLOADS[workload], matzero, seed, tiny)
    else:
        items = WORKLOADS[workload](matzero, seed, tiny)
    setup_cpu_s = time.process_time() - TABLES_CPU_S
    setup_end = time.monotonic()
    reference = [reference_seconds() for _ in range(CALIBRATE_EDGE)]
    if mode == "setup":
        return {"setup_end": setup_end, "setup_cpu_s": setup_cpu_s, "reference_s": reference}

    outputs, errors, latency, cpu = [], [], [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    batch_start = clock()
    calibrate_at = cpu_clock() + CALIBRATE_EVERY_S
    for item in items:
        if cpu_clock() >= calibrate_at:
            reference.append(reference_seconds())
            calibrate_at = cpu_clock() + CALIBRATE_EVERY_S
        if tracer is not None:
            tracer.instance = item.id
        start, cpu_start = clock(), cpu_clock()
        try:
            outputs.append(item.verify(matzero))
            errors.append(None)
        except Exception as exc:  # a failed instance is counted, not fatal
            outputs.append([])
            errors.append(f"{type(exc).__name__}: {exc}")
        cpu.append(cpu_clock() - cpu_start)
        latency.append(clock() - start)
    if tracer is not None:
        tracer.instance = None
        tracer.uninstall()
    reference += [reference_seconds() for _ in range(CALIBRATE_EDGE)]

    meta = [instance_meta(item) for item in items]
    result = {
        "setup_end": setup_end,
        "setup_cpu_s": setup_cpu_s,
        "reference_s": reference,
        "latency_s": latency,
        "cpu_s": cpu,
        "reports": [[rep.to_json() for rep in reps] for reps in outputs],
        "errors": errors,
        "meta": meta,
        "distinct_instances": len({m["key"] for m in meta}),
        "rss_kb": peak_rss_kb() - TABLES_RSS_KB,
    }
    if tracer is not None:
        top = tracer.top_level_seconds()
        result["top_level_s"] = [top.get(item.id, 0.0) for item in items]
        result["trace"] = {
            "totals": tracer.totals,
            "unmeasured": tracer.unmeasured,
            "rank": {"calls": tracer.rank[0], "s": tracer.rank[1], "misses": tracer.rank_misses},
            "evaluate_calls": tracer.evaluate_calls[0],
            "spans": len(tracer.spans),
        }
        if spans_path is not None:
            tracer.write_spans(spans_path, batch_start)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), default="plain")
    ap.add_argument("--tiny", action="store_true", help="a few instances, for the self-test")
    ap.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.mode, args.tiny, spans_path=args.spans)
    sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
