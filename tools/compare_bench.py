#!/usr/bin/env python3
"""Compare Google Benchmark JSON snapshots and flag perf regressions.

Typical uses:

    # CI trajectory check: fresh run vs the in-repo snapshots
    tools/compare_bench.py bench/snapshots bench-results

    # Gate mode: non-zero exit when any benchmark regressed >10%
    tools/compare_bench.py bench/snapshots bench-results --strict

    # Single pair of files
    tools/compare_bench.py old/BENCH_bench_kms.json new/BENCH_bench_kms.json

    # Scaling curves: rows of Arg-swept benchmarks from one snapshot set
    tools/compare_bench.py bench-results --series bm_obs_alert_evaluate_sweep

Inputs are files or directories of ``BENCH_*.json`` as written by
``--benchmark_out_format=json`` (the CI bench-examples job and the
"refreshing the snapshots" recipe in DESIGN.md use identical flags).
Benchmarks are matched by (file stem, benchmark name); comparison is on
``real_time`` normalised to nanoseconds via each entry's ``time_unit``.

Only matched names are compared: added or removed benchmarks are listed
informationally and never fail the run (the corpus is expected to grow).
Pure table-printing entries (aggregates with no timing) are skipped.

Every run prints each side's context (``num_cpus`` and
``library_build_type`` from the JSON ``context`` block). A timing is only
meaningful against one taken in the same context, and a scaling curve
needs more than one core, so ``--strict`` refuses (exit 2) when the two
sides' contexts differ, either side mixes contexts, or either side ran on
one CPU; ``--series`` refuses likewise when its files mix contexts or ran
on one CPU. The advisory comparison only reports.

stdlib-only on purpose — runs anywhere python3 exists, no installs.
"""

import argparse
import json
import sys
from pathlib import Path

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def snapshot_files(path: Path):
    """The BENCH_*.json files behind `path` (a dir or a single file), with
    a clean one-line error — not a traceback — when it does not exist."""
    if not path.exists():
        raise SystemExit(f"error: snapshot path does not exist: {path}")
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no BENCH_*.json under {path}")
    return files


def load_doc(file: Path):
    try:
        return json.loads(file.read_text())
    except json.JSONDecodeError as err:
        raise SystemExit(f"error: {file}: not valid JSON ({err})")


def context_of(doc):
    """The (num_cpus, library_build_type) a snapshot was recorded in."""
    context = doc.get("context", {})
    return (context.get("num_cpus"), context.get("library_build_type"))


def describe_contexts(contexts):
    return ", ".join(f"num_cpus={cpus} library_build_type={build}"
                     for cpus, build in sorted(contexts, key=str))


def context_problem(label, contexts):
    """Why timings from these contexts cannot be gated on, or None."""
    if len(contexts) != 1:
        return f"{label} mixes contexts ({describe_contexts(contexts)})"
    (cpus, _build), = contexts
    if cpus is None or cpus <= 1:
        return f"{label} ran on num_cpus={cpus}"
    return None


def load_snapshots(path: Path):
    """((file stem, benchmark name) -> real_time in ns, set of contexts)."""
    files = snapshot_files(path)
    results = {}
    contexts = set()
    for file in files:
        doc = load_doc(file)
        contexts.add(context_of(doc))
        stem = file.stem
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue  # compare raw repetitions only, not mean/stddev rows
            name = bench.get("name")
            real_time = bench.get("real_time")
            if name is None or real_time is None:
                continue
            unit = TIME_UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
            results[(stem, name)] = real_time * unit
    return results, contexts


def load_series(path: Path, prefix: str):
    """(rows of ``prefix/<arg>`` entries as (arg, real_time ns, items/s),
    set of contexts of the files those rows came from)."""
    files = snapshot_files(path)
    rows = []
    contexts = set()
    for file in files:
        doc = load_doc(file)
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("name", "")
            if not name.startswith(prefix + "/"):
                continue
            try:
                arg = int(name[len(prefix) + 1:].split("/")[0])
            except ValueError:
                continue
            unit = TIME_UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
            rows.append((arg, bench.get("real_time", 0.0) * unit,
                         bench.get("items_per_second")))
            contexts.add(context_of(doc))
    return sorted(rows), contexts


def print_series(path: Path, prefix: str) -> int:
    """The scaling curve: one row per Arg, speedup relative to the first."""
    rows, contexts = load_series(path, prefix)
    if not rows:
        print(f"error: no '{prefix}/<arg>' benchmarks under {path}",
              file=sys.stderr)
        return 1
    print(f"series {prefix} ({len(rows)} points; "
          f"{describe_contexts(contexts)})")
    problem = context_problem(str(path), contexts)
    if problem:
        print(f"error: refusing --series: {problem}; a scaling curve "
              "needs one multi-core context", file=sys.stderr)
        return 2
    print(f"  {'arg':>6} {'time':>12} {'items/s':>12} {'speedup':>8}")
    base_items = rows[0][2]
    base_time = rows[0][1]
    for arg, time_ns, items in rows:
        if items is not None and base_items:
            speedup = items / base_items
        else:
            speedup = base_time / time_ns if time_ns else float("nan")
        items_text = f"{items:,.0f}" if items is not None else "-"
        print(f"  {arg:>6} {time_ns / 1e6:>10.2f}ms {items_text:>12} "
              f"{speedup:>7.2f}x")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Flag >N%% benchmark real_time regressions "
        "between two snapshot sets."
    )
    parser.add_argument("baseline", type=Path,
                        help="snapshot dir or file (the committed reference)")
    parser.add_argument("candidate", type=Path, nargs="?",
                        help="snapshot dir or file (the fresh run); "
                        "omitted in --series mode")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default 10)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 if any benchmark regresses past the "
                        "threshold (default: report only)")
    parser.add_argument("--series", metavar="PREFIX", action="append",
                        help="print the scaling curve of one Arg-swept "
                        "benchmark (rows PREFIX/<arg>) from a single "
                        "snapshot set instead of comparing two; repeatable "
                        "for several curves in one invocation")
    args = parser.parse_args()

    if args.series:
        status = 0
        for i, prefix in enumerate(args.series):
            if i:
                print()
            status = max(status,
                         print_series(args.candidate or args.baseline,
                                      prefix))
        return status
    if args.candidate is None:
        parser.error("candidate is required unless --series is given")

    base, base_contexts = load_snapshots(args.baseline)
    cand, cand_contexts = load_snapshots(args.candidate)
    print(f"baseline:  {describe_contexts(base_contexts)}")
    print(f"candidate: {describe_contexts(cand_contexts)}")
    if args.strict:
        problem = (context_problem("baseline", base_contexts)
                   or context_problem("candidate", cand_contexts))
        if problem is None and base_contexts != cand_contexts:
            problem = "baseline and candidate contexts differ"
        if problem:
            print(f"error: refusing --strict: {problem}", file=sys.stderr)
            return 2

    matched = sorted(set(base) & set(cand))
    added = sorted(set(cand) - set(base))
    removed = sorted(set(base) - set(cand))

    regressions = []
    improvements = []
    for key in matched:
        delta_pct = (cand[key] - base[key]) / base[key] * 100.0
        if delta_pct > args.threshold:
            regressions.append((key, delta_pct))
        elif delta_pct < -args.threshold:
            improvements.append((key, delta_pct))

    def describe(key):
        stem, name = key
        return f"{stem}:{name}"

    print(f"compared {len(matched)} benchmarks "
          f"(threshold {args.threshold:.0f}%)")
    for key, delta in sorted(regressions, key=lambda r: -r[1]):
        print(f"  REGRESSED  {describe(key)}  +{delta:.1f}%  "
              f"({base[key]:.0f}ns -> {cand[key]:.0f}ns)")
    for key, delta in sorted(improvements, key=lambda r: r[1]):
        print(f"  improved   {describe(key)}  {delta:.1f}%")
    if added:
        print(f"  new (not compared): {len(added)}")
        for key in added:
            print(f"    + {describe(key)}")
    if removed:
        print(f"  missing from candidate: {len(removed)}")
        for key in removed:
            print(f"    - {describe(key)}")
    if not regressions:
        print("  no regressions past threshold")

    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
