#!/usr/bin/env python3
"""Bench-regression smoke gate: compare BENCH_*.json runs against the
committed baselines in bench/baselines/.

CI machines and the baseline machine differ (and CI runs the benches in
--smoke mode), so absolute times are meaningless across the pair. The gate
therefore self-normalizes: for every benchmark present in both the baseline
and the current run it computes the ratio current/baseline, takes the MEDIAN
ratio per bench file as that machine's speed factor, and flags only
benchmarks that regressed by more than --max-regress RELATIVE to the median
(default 0.25, the "fail >25%" contract). A uniform slowdown — a slower
runner — moves every ratio equally and trips nothing; a single benchmark
whose ratio stands out against its siblings is a real regression in that
code path.

--slo-gate REPORT.json gates the session-workload SLO contract on a live
dgr_soak report (see check_slo_gate): hard §5.4.1/telemetry invariants plus
the absolute sessions/s floor and mutator-stall p99 ceiling recorded in the
committed bench/baselines/SESSIONS_soak_smoke.json (--slo-baseline).

--trace-gate BENCH_marking_scale.json bounds what enabled tracing costs,
within that one run: BM_ThreadedCycleTraced/2 (the same cycle with the trace
ring enabled) over BM_ThreadedCycle/2 real time must not exceed
TRACE_RATIO_MAX (its comment says how the bound was derived).

Additionally --throughput-ratio-floor R asserts, within the CURRENT run of
BENCH_latency.json alone (no cross-machine comparison at all), that the
batched cross-PE throughput leg (BM_CrossPeTaskThroughput/1) beats the
unbatched leg (/0) by at least R on the tasks/s counter. The committed
baseline records the reference ratio from a quiet machine; CI uses a lower
floor because --smoke measurements are noisy.

Exit status: 0 clean, 1 regression or missing data, 2 usage error.
"""

import argparse
import json
import os
import statistics
import sys

# Bound for --trace-gate: traced over untraced BM_ThreadedCycle/2 real time
# in one full `bench_marking_scale --smoke` run. Twelve such runs on a
# 4-vCPU host (RelWithDebInfo, GCC 12.2.0) gave a median ratio of 1.034 with
# quartiles 0.982 and 1.094; the bound is median + 3 x IQR. docs/PERF.md,
# "Trace compiled in, compiled out and enabled", lists the runs.
TRACE_RATIO_MAX = 1.37


def load_runs(path):
    """BENCH_*.json -> {benchmark name: run dict}. Raw runs only."""
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for r in doc.get("runs", []):
        if not r.get("error", False):
            runs[r["name"]] = r
    return runs


def check_file(name, base_path, cur_path, max_regress):
    """Compare one bench file pair. Returns a list of failure strings."""
    base = load_runs(base_path)
    cur = load_runs(cur_path)
    shared = sorted(set(base) & set(cur))
    if not shared:
        return ["%s: no shared benchmarks between baseline and current" % name]

    ratios = {}
    for bench in shared:
        bt = base[bench]["real_time"]
        ct = cur[bench]["real_time"]
        if base[bench].get("time_unit") != cur[bench].get("time_unit"):
            return ["%s: time_unit mismatch for %s" % (name, bench)]
        if bt <= 0:
            continue
        ratios[bench] = ct / bt
    if not ratios:
        return ["%s: no comparable timings" % name]

    machine = statistics.median(ratios.values())
    failures = []
    print("%s: %d shared benchmarks, machine factor %.3fx" %
          (name, len(ratios), machine))
    for bench, ratio in sorted(ratios.items()):
        rel = ratio / machine
        status = "ok"
        if rel > 1.0 + max_regress:
            # UseRealTime legs time whole multi-threaded marking cycles in
            # wall clock; on an oversubscribed CI core their per-run scatter
            # exceeds any sane ratio contract, so they are report-only here.
            # Their regression contract is the --scaling-gate check on the
            # committed baseline instead.
            if bench.endswith("/real_time"):
                status = "noisy (report-only; gated via --scaling-gate)"
            else:
                status = "REGRESSED"
                failures.append(
                    "%s: %s is %.0f%% slower than its baseline relative to "
                    "the run's median (ratio %.3f, median %.3f)" %
                    (name, bench, (rel - 1.0) * 100.0, ratio, machine))
        print("  %-60s %8.3fx  rel %6.3f  %s" % (bench, ratio, rel, status))
    return failures


def load_nproc(path):
    """The nproc of a BENCH_*.json's host context block, or None."""
    with open(path) as f:
        return json.load(f).get("context", {}).get("nproc")


def check_scaling_gate(path, label):
    """Multi-PE marking must beat single-PE on wall-clock marks/s.

    This is the 2-PE-cliff contract: in BENCH_marking_scale.json at `path`,
    every BM_ThreadedCycle/{2,4,8} leg whose PE count fits the recording
    host's cores (context.nproc) must exceed BM_ThreadedCycle/1 on the
    wall-clock marks/s counter. A leg with more PEs than cores oversubscribes
    them, so whether it beats /1 says nothing about the engine; it is printed
    and not judged. A file without a context block cannot be judged at all.
    Applied to the committed baseline (the reference machine's record —
    deterministic in CI); the current run's values are printed alongside for
    drift tracking but only gate when --scaling-gate-current is given
    (smoke-mode timings are too noisy to fail CI on).
    """
    runs = load_runs(path)
    nproc = load_nproc(path)
    if not nproc:
        return ["scaling-gate(%s): %s has no context.nproc, so no leg can be "
                "judged; re-record it (docs/PERF.md)" % (label, path)]

    def marks_per_s(stem):
        # The bench uses UseRealTime, which suffixes names with /real_time;
        # accept either spelling so older baselines still parse.
        for name in (stem + "/real_time", stem):
            v = runs.get(name, {}).get("counters", {}).get("marks/s")
            if v is not None:
                return v
        return None

    base = marks_per_s("BM_ThreadedCycle/1")
    if base is None:
        return ["scaling-gate(%s): BM_ThreadedCycle/1 marks/s missing from %s"
                % (label, path)]
    failures = []
    for pes in (2, 4, 8):
        name = "BM_ThreadedCycle/%d" % pes
        v = marks_per_s(name)
        if pes > nproc:
            print("scaling-gate(%s): %s not judged: %d PEs > nproc %d" %
                  (label, name, pes, nproc))
            continue
        if v is None:
            failures.append("scaling-gate(%s): %s marks/s missing from %s" %
                            (label, name, path))
            continue
        ok = v > base
        print("scaling-gate(%s): %s %.3gM marks/s vs /1 %.3gM -> %s" %
              (label, name, v / 1e6, base / 1e6, "ok" if ok else "FAIL"))
        if not ok:
            failures.append(
                "scaling-gate(%s): %s marks/s %.4g does not beat "
                "BM_ThreadedCycle/1 (%.4g)" % (label, name, v, base))
    return failures


def check_slo_gate(report_path, baseline_path):
    """Session-SLO contract over one dgr_soak --report JSON.

    The report must come from a faulted+audited soak (dgr_soak --faults
    --audit N --report ...). Hard invariants (machine-independent): the run's
    own ok flag, zero audit violations, zero telemetry drops, zero replica
    divergence, zero leaked slots, zero lingering sessions, and at least one
    §5.4.1 audit actually executed. Absolute floors (machine-dependent, so
    deliberately loose) come from the committed baseline record
    (bench/baselines/SESSIONS_soak_smoke.json): sessions_per_sec must beat
    slo.sessions_per_sec_floor and stall p99 must stay under
    slo.stall_p99_us_max. The baseline's own reference measurements are
    checked against the same floors, so a baseline refresh that regresses
    the SLO cannot land.
    """
    try:
        with open(report_path) as f:
            rep = json.load(f)
    except (OSError, ValueError) as e:
        return ["slo-gate(current): cannot read %s: %s" % (report_path, e)]
    try:
        with open(baseline_path) as f:
            base = json.load(f)
    except (OSError, ValueError) as e:
        return ["slo-gate(baseline): cannot read %s: %s" % (baseline_path, e)]
    slo = base.get("slo", {})
    floor = slo.get("sessions_per_sec_floor")
    ceil = slo.get("stall_p99_us_max")
    if floor is None or ceil is None:
        return ["slo-gate(baseline): %s lacks slo.sessions_per_sec_floor / "
                "slo.stall_p99_us_max" % baseline_path]

    failures = []

    def check_report(label, doc, hard):
        if hard:
            if not doc.get("ok", False):
                failures.append("slo-gate(%s): report ok=false" % label)
            for key in ("audit_violations", "telemetry_dropped", "divergence",
                        "leaked_slots", "lingering_sessions"):
                v = doc.get(key, 0)
                if v:
                    failures.append("slo-gate(%s): %s = %s (must be 0)" %
                                    (label, key, v))
            if doc.get("audits", 0) < 1:
                failures.append("slo-gate(%s): no §5.4.1 audits ran — gate "
                                "needs dgr_soak --audit N" % label)
        sps = doc.get("sessions_per_sec", 0.0)
        p99 = doc.get("stall_us", {}).get("p99", doc.get("stall_p99_us"))
        if p99 is None:
            failures.append("slo-gate(%s): stall p99 missing" % label)
            p99 = 0.0
        print("slo-gate(%s): %.1f sessions/s (floor %.1f), stall p99 "
              "%.1f us (max %.1f us)" % (label, sps, floor, p99, ceil))
        if sps < floor:
            failures.append("slo-gate(%s): %.1f sessions/s below the %.1f "
                            "floor" % (label, sps, floor))
        if p99 > ceil:
            failures.append("slo-gate(%s): stall p99 %.1f us above the "
                            "%.1f us ceiling" % (label, p99, ceil))

    check_report("current", rep, hard=True)
    # The trimmed baseline record carries only the reference measurements; a
    # refresh is only ever cut from a clean run, so hard invariants are
    # implicit there.
    check_report("baseline", base, hard=False)
    return failures


def check_trace_gate(path):
    """Enabled-trace overhead on BM_ThreadedCycle/2, within one run."""
    runs = load_runs(path)
    base = runs.get("BM_ThreadedCycle/2/real_time", {}).get("real_time")
    traced = runs.get("BM_ThreadedCycleTraced/2/real_time",
                      {}).get("real_time")
    if not base or traced is None:
        return ["trace-gate: BM_ThreadedCycle/2 or BM_ThreadedCycleTraced/2 "
                "missing from %s" % path]
    ratio = traced / base
    print("trace-gate: traced %.1f vs untraced %.1f real time = %.3fx "
          "(max %.2fx)" % (traced, base, ratio, TRACE_RATIO_MAX))
    if ratio > TRACE_RATIO_MAX:
        return ["trace-gate: enabled tracing makes BM_ThreadedCycle/2 %.3fx "
                "slower, over the %.2fx bound" % (ratio, TRACE_RATIO_MAX)]
    return []


def check_throughput_ratio(cur_path, floor):
    """Batched vs unbatched cross-PE throughput, current run only."""
    cur = load_runs(cur_path)
    legs = {}
    for name, run in cur.items():
        if not name.startswith("BM_CrossPeTaskThroughput/"):
            continue
        arg = name.split("/")[1]
        legs[arg] = run.get("counters", {}).get("tasks/s")
    if legs.get("0") is None or legs.get("1") is None:
        return ["throughput-ratio: BM_CrossPeTaskThroughput legs missing "
                "from %s" % cur_path]
    ratio = legs["1"] / legs["0"]
    print("throughput-ratio: batched %.3gM/s vs unbatched %.3gM/s = %.2fx "
          "(floor %.2fx)" % (legs["1"] / 1e6, legs["0"] / 1e6, ratio, floor))
    if ratio < floor:
        return ["throughput-ratio: batched/unbatched = %.2fx, below the "
                "%.2fx floor" % (ratio, floor)]
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="bench/baselines",
                    help="directory of committed BENCH_*.json baselines")
    ap.add_argument("--current",
                    help="directory of freshly produced BENCH_*.json files "
                         "(required unless only --slo-gate or --trace-gate "
                         "is used)")
    ap.add_argument("--max-regress", type=float, default=0.25,
                    help="max tolerated per-benchmark slowdown relative to "
                         "the median machine factor (default 0.25 = 25%%)")
    ap.add_argument("--throughput-ratio-floor", type=float, default=None,
                    help="require batched/unbatched cross-PE tasks/s in the "
                         "current BENCH_latency.json to be at least this")
    ap.add_argument("--scaling-gate", action="store_true",
                    help="require each BM_ThreadedCycle/{2,4,8} leg with no "
                         "more PEs than the recording host's nproc to beat "
                         "/1 on marks/s in the committed baseline "
                         "BENCH_marking_scale.json (the 2-PE-cliff contract)")
    ap.add_argument("--scaling-gate-current", action="store_true",
                    help="additionally enforce the scaling gate on the "
                         "current run (off by default: smoke timings on a "
                         "loaded CI runner are too noisy to gate on)")
    ap.add_argument("--trace-gate", metavar="BENCH_JSON",
                    help="bound BM_ThreadedCycleTraced/2 over "
                         "BM_ThreadedCycle/2 real time in this "
                         "BENCH_marking_scale.json by TRACE_RATIO_MAX")
    ap.add_argument("--slo-gate", metavar="REPORT_JSON",
                    help="gate the session-SLO contract on this dgr_soak "
                         "--report file from a faulted+audited soak run")
    ap.add_argument("--slo-baseline", metavar="JSON",
                    default="bench/baselines/SESSIONS_soak_smoke.json",
                    help="committed SLO reference record carrying the "
                         "absolute floors (default %(default)s)")
    args = ap.parse_args()

    failures = []
    if args.trace_gate:
        failures += check_trace_gate(args.trace_gate)
    if args.slo_gate:
        failures += check_slo_gate(args.slo_gate, args.slo_baseline)

    if args.current is None:
        if not (args.slo_gate or args.trace_gate):
            print("--current is required unless --slo-gate or --trace-gate "
                  "is used", file=sys.stderr)
            return 2
        if failures:
            print("\nFAIL:", file=sys.stderr)
            for f in failures:
                print("  " + f, file=sys.stderr)
            return 1
        print("\nbench regression gate: clean")
        return 0

    if not os.path.isdir(args.baseline):
        print("no baseline directory '%s'" % args.baseline, file=sys.stderr)
        return 2
    baselines = sorted(f for f in os.listdir(args.baseline)
                       if f.startswith("BENCH_") and f.endswith(".json"))
    if not baselines:
        print("no BENCH_*.json baselines in '%s'" % args.baseline,
              file=sys.stderr)
        return 2

    for fname in baselines:
        cur_path = os.path.join(args.current, fname)
        if not os.path.exists(cur_path):
            failures.append("%s: missing from current run" % fname)
            continue
        failures += check_file(fname, os.path.join(args.baseline, fname),
                               cur_path, args.max_regress)

    if args.throughput_ratio_floor is not None:
        failures += check_throughput_ratio(
            os.path.join(args.current, "BENCH_latency.json"),
            args.throughput_ratio_floor)

    if args.scaling_gate or args.scaling_gate_current:
        failures += check_scaling_gate(
            os.path.join(args.baseline, "BENCH_marking_scale.json"),
            "baseline")
        cur_scale = os.path.join(args.current, "BENCH_marking_scale.json")
        if os.path.exists(cur_scale):
            cur_failures = check_scaling_gate(cur_scale, "current")
            if args.scaling_gate_current:
                failures += cur_failures
            elif cur_failures:
                print("note: current-run scaling gate would have failed "
                      "(not enforced without --scaling-gate-current)")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("\nbench regression gate: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
