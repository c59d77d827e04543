#!/usr/bin/env python3
"""Perf gate: pin the repository benchmark's deterministic counts.

    python3 scripts/check_perf_counts.py [--write]

Run from the repository root.  On every workload BENCHMARK.json names,
runs `perfbench/run.py --seed 1 --seconds 0` (the fixed rounds only)
with --trace 0 and with --trace 1, and compares each result with EXPECT:
  - the run is correct, fails no operation and attempts as many;
  - the EXACT metrics (simulated results and counts) are equal;
  - the BANDS metric is within its band: its count depends on the compiler.
Every other metric measures host time or memory, or follows the
runtime's heap policy (GC majors): it is printed, not gated.  --write
rewrites EXPECT from this run instead.  Full run output goes to
.bench_out/counts-WORKLOAD-traceT.log.  Exits 1 on any mismatch.
"""

import argparse
import json
import os
import re
import subprocess
import sys

EXPECT = os.path.join("bench", "perf_counts.json")
EXACT = re.compile(r"(sim_(mops|lat_p\d+_cycles|useful_pct)|sim\.effects_per_op"
                   r"|sim\.conflict\..+|htm\..+|euno_tree\..+"
                   r"|tree\.\w+\.sim_cycles\..+|mem\..+|op_fail_frac)$")
BANDS = {"sim.minor_words_per_effect": 0.02}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    os.makedirs(".bench_out", exist_ok=True)
    with open(".bench_out/counts-%s-trace%d.log" % (workload, trace), "w") as f:
        f.write(proc.stdout)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit("%s --trace %d: perfbench/run.py exited %d with no result"
                 % (workload, trace, proc.returncode))


def check(result, want):
    """Print one line per metric; return the number of failures."""
    bad = [not result["correct"] or result["failed"] != 0,
           result["attempted"] != want.get("attempted")]
    print("  %-4s correct=%s failed=%d attempted=%d (expected %s)" % (
        "FAIL" if any(bad) else "ok", result["correct"], result["failed"],
        result["attempted"], want.get("attempted")))
    got = {k: m["value"] for k, m in result["metrics"].items()}
    for name in sorted(set(got) | set(want["metrics"])):
        v, w = got.get(name), want["metrics"].get(name)
        if name in BANDS:
            ok = v is not None and w is not None and abs(v - w) <= BANDS[name] * abs(w)
        elif EXACT.match(name):
            ok = v == w
        else:
            print("  time %-38s %s" % (name, v))
            continue
        bad.append(not ok)
        print("  %-4s %-38s %r%s" % ("ok" if ok else "FAIL", name, v,
                                     "" if v == w else " (expected %r)" % w))
    return sum(bad)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite %s from this run instead of comparing" % EXPECT)
    args = ap.parse_args()
    expected = {} if args.write else json.load(open(EXPECT))
    written, bad = {}, 0
    for w in [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]:
        for trace in (0, 1):
            result, mode = run(w, trace), "trace%d" % trace
            written.setdefault(w, {})[mode] = {
                "attempted": result["attempted"],
                "metrics": {k: m["value"] for k, m in sorted(result["metrics"].items())
                            if k in BANDS or EXACT.match(k)}}
            print("%s --trace %d" % (w, trace))
            want = written[w][mode] if args.write else expected.get(w, {}).get(mode, {})
            bad += check(result, {"metrics": {}, **want})
    if args.write:
        with open(EXPECT, "w") as f:
            f.write(json.dumps(written, indent=2) + "\n")
        print("wrote %s" % EXPECT)
    if bad:
        sys.exit("perf counts: %d mismatch(es); see the FAIL lines above" % bad)
    print("perf counts: every gated metric matches %s" % EXPECT)


if __name__ == "__main__":
    main()
