#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, then run it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One measured run. The last stdout line is the JSON result
      (correct, attempted, failed, metrics). W is one of paper_grid,
      fleet_single, fleet_sharded, live_loopback.
  python3 perfbench/run.py --aa N [--workloads a,b] [--seconds S] [--sets K]
      Steadiness check: K sets of N runs per workload (seeds 1..N),
      interleaved across workloads; prints each end-to-end metric's median,
      quartiles and spread (IQR / median) per set, the host-speed probe's
      spread, and the two fleets' flows_done/segments side by side.
  python3 perfbench/run.py --selftest
      Builds and runs the C++ self-test, checks metric names and units
      against BENCHMARK.json and the committed default-seed digests.
  python3 perfbench/run.py --write-digests
      Regenerates perfbench/digests.txt (only when simulated behaviour was
      meant to change).

The build goes to .bench_build/ at the checkout root (CMake, Release).
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
DIGESTS = os.path.join(HERE, "digests.txt")
WORKLOADS = ["paper_grid", "fleet_single", "fleet_sharded", "live_loopback"]


def build():
    """Configure (first time) and build; build chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def measure(workload, seed, seconds, trace):
    """One run of the binary; returns (stdout text, parsed JSON result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--digests", DIGESTS]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        sys.exit("perfbench: %s exited with %d" % (workload, res.returncode))
    return res.stdout, json.loads(res.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def aa(runs, workloads, seconds, sets):
    """Interleaved A/A runs: same code, seeds 1..runs, `sets` times."""
    data = {}  # (set, workload) -> list of (metrics, probe, fleet facts)
    for s in range(sets):
        for i in range(runs):
            for w in workloads:
                out, res = measure(w, i + 1, seconds, 0)
                probe = float(re.search(r"host_probe_s=([0-9.]+)", out).group(1))
                fleet = re.search(r"flows_done=(\d+) segments=(\d+)", out)
                data.setdefault((s, w), []).append(
                    (res, probe, fleet.groups() if fleet else None))
                m = res["metrics"]
                print("set %d run %d %-14s correct=%s failed=%d probe=%.3f setup_s=%.5g "
                      "seg_per_s=%.5g goodput_MBps=%.5g xfer_ms_p50=%.5g xfer_ms_p95=%.5g" % (
                          s, i + 1, w, res["correct"], res["failed"], probe,
                          m["setup_s"]["value"], m["seg_per_s"]["value"],
                          m["goodput_MBps"]["value"], m["xfer_ms_p50"]["value"],
                          m["xfer_ms_p95"]["value"]), flush=True)
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    for w in workloads:
        print("\n%s" % w)
        print("  %-14s %4s %14s %14s %14s %8s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound/3"))
        names = list(data[(0, w)][0][0]["metrics"].keys()) + ["host_probe_s"]
        for name in names:
            medians = []
            for s in range(sets):
                rows = data[(s, w)]
                if name == "host_probe_s":
                    vals = [probe for _, probe, _ in rows]
                else:
                    vals = [res["metrics"][name]["value"] for res, _, _ in rows]
                q1, q2, q3, sp = spread(vals)
                medians.append(q2)
                third = "%.4f" % (bounds[name] / 3) if name in bounds else "-"
                print("  %-14s %4d %14.6g %14.6g %14.6g %8.4f %8s" % (
                    name, s, q1, q2, q3, sp, third))
            if sets > 1 and medians[0]:
                print("  %-14s drift between set medians: %+.4f" % (
                    name, medians[-1] / medians[0] - 1))
    fleets = [w for w in ("fleet_single", "fleet_sharded") if w in workloads]
    if fleets:
        # Side by side, no speedup column: the two engines do different
        # work on this symmetric fleet (same-instant arrival ties order
        # differently across a shard cut; see README.md).
        print("\nfleet work per seed (flows_done / segments):")
        print("  %6s" % "seed" + "".join("  %26s" % w for w in fleets))
        for i in range(runs):
            cells = []
            for w in fleets:
                facts = data[(0, w)][i][2]
                cells.append("  %26s" % ("%s / %s" % facts if facts else "-"))
            print("  %6d" % (i + 1) + "".join(cells))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selftest():
    failures = 0
    res = subprocess.run([SELFTEST])
    failures += res.returncode != 0
    spec = load_spec()
    want = set()
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            want.add((kind, m["name"], m["unit"]))
    out = subprocess.run([BINARY, "--list-metrics"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    got = {tuple(line.split()) for line in out.splitlines() if line.strip()}
    ok = got == want
    print("%s printed metric names and units match BENCHMARK.json" % ("ok  " if ok else "FAIL"))
    for extra in sorted(got - want):
        print("     printed but not in BENCHMARK.json: %s" % (extra,))
    for missing in sorted(want - got):
        print("     in BENCHMARK.json but not printed: %s" % (missing,))
    failures += not ok
    committed = open(DIGESTS).read()
    emitted = subprocess.run([BINARY, "--emit-digests"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
    ok = emitted == committed
    print("%s default-seed digests equal the committed perfbench/digests.txt" % (
        "ok  " if ok else "FAIL"))
    failures += not ok
    print("selftest: %s" % ("PASS" if failures == 0 else "FAIL"))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--aa", type=int, metavar="N")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args()

    if not (args.workload or args.aa or args.selftest or args.write_digests):
        ap.error("nothing to do: give --workload, --aa, --selftest or --write-digests")
    build()
    if args.selftest:
        return selftest()
    if args.write_digests:
        out = subprocess.run([BINARY, "--emit-digests"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        with open(DIGESTS, "w") as f:
            f.write(out)
        sys.stdout.write(out)
        return 0
    if args.aa:
        workloads = [w for w in args.workloads.split(",") if w]
        bad = [w for w in workloads if w not in WORKLOADS]
        if bad:
            ap.error("unknown workload(s): %s" % ", ".join(bad))
        aa(args.aa, workloads, args.seconds, args.sets)
        return 0
    out, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
