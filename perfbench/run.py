#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the system and the benchmark binary from
source (CMake, into $CARGO_TARGET_DIR or .bench_build), runs one workload and
relays its report. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The exit
status is nonzero when the build fails, when the metrics do not match
BENCHMARK.json (no result line then), or when a correctness check fails (the
result line then says "correct": false).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and build into the build directory; returns it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no system sources (src/) next to perfbench/; nothing to build")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out],
                ["cmake", "--build", out, "-j", jobs]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return out


def host_context():
    """Git sha when the tree is a git checkout, else a digest of the sources."""
    ctx = {"git_sha": "unknown"}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            ctx["git_sha"] = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    ctx["source_sha256"] = h.hexdigest()[:16]
    return ctx


def run_bench(out, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [os.path.join(out, "perfbench"),
           "--worker-bin", os.path.join(out, "dgr_worker")] + args
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return r.returncode, r.stdout.splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the run printed no result line")


def self_test(spec, out):
    """The benchmark's own arithmetic, then the gate's negative case: a 2 ms
    delay in the benchmark's mutate wrapper must push op_latency_us_p50 past
    its bound."""
    code, lines = run_bench(out, ["--self-test"])
    print("\n".join(lines))
    if code != 0:
        fail("arithmetic self-test failed", 1)
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "op_latency_us_p50")
    p50 = {}
    for delay in ("0", "2000"):
        code, lines = run_bench(out, [
            "--workload", "sessions_thread", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--mutate-delay-us", delay])
        res = result_of(lines)
        if code != 0 or not res["correct"]:
            fail(f"sessions_thread run with delay {delay} us failed", 1)
        p50[delay] = res["metrics"]["op_latency_us_p50"]["value"]
    worse = p50["2000"] / p50["0"] - 1
    tripped = worse > bound
    print(f"{'ok  ' if tripped else 'FAIL'} a 2 ms mutate delay moves "
          f"op_latency_us_p50 {p50['0']:.1f} -> {p50['2000']:.1f} us "
          f"(+{worse:.0%}, bound {bound:.0%})")
    return 0 if tripped else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not a.self_test and a.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    out = build()
    if a.self_test:
        sys.exit(self_test(spec, out))

    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    spans = os.path.join(out, "spans")
    os.makedirs(spans, exist_ok=True)
    code, lines = run_bench(out, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(seconds), "--trace", a.trace, "--out-dir", spans,
        "--host-json", json.dumps(host_context())])
    res = result_of(lines)
    print("\n".join(lines[:-1]))
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if a.trace == "1" else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
             f"want {sorted(want.items())}")
    print(lines[-1])
    if code != 0 or not res["correct"]:
        fail(f"correctness check failed (exit {code})", 1)


if __name__ == "__main__":
    main()
