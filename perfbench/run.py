#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe with dune in the
release profile into .bench_build/, runs it, and prints its report.  The
last stdout line is one JSON object {correct, attempted, failed, metrics}
holding exactly the metrics BENCHMARK.json declares for the mode:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
host_peak_rss_mb is the benchmark process's peak resident set, taken from
its rusage when it exits.  Exits non-zero, printing no result, when the
build fails, a declared metric is missing, or the run fails; exits 1
after printing the result when a correctness check failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
PROFILE = "release"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", PROFILE, "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        die("cannot run dune: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        die("build failed (dune exit %d)" % proc.returncode)


def declared(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    return spec["per_layer" if trace else "end_to_end"]


def run(args):
    trace_file = os.path.join(OUT_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file", trace_file, "--build-profile", PROFILE]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill(*_):
        os.killpg(proc.pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.alarm(TIMEOUT_S)
    last = None
    for line in proc.stdout:
        if last is not None:
            sys.stdout.write(last)
        last = line
    _, status, usage = os.wait4(proc.pid, 0)
    signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, last, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    metrics = declared(args.trace)
    build()
    code, last, rss_mb = run(args)
    try:
        result = json.loads(last or "")
    except ValueError:
        die("benchmark exited %d without a result" % code)
    if code not in (0, 1) or (code == 1 and result.get("correct")):
        die("benchmark exited %d" % code)
    got = result["metrics"]
    if not args.trace:
        got["host_peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print("metric %-40s %.6g MB" % ("host_peak_rss_mb", rss_mb))
    out = {}
    for m in metrics:
        name = m["name"]
        if name not in got:
            die("declared metric %s missing from the %s run" %
                (name, "traced" if args.trace else "untraced"))
        if got[name]["unit"] != m["unit"]:
            die("metric %s has unit %s, BENCHMARK.json says %s" %
                (name, got[name]["unit"], m["unit"]))
        out[name] = got[name]
    for name in sorted(set(got) - set(out)):
        print("undeclared metric %s (printed above, not in the result)" % name)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
