#!/usr/bin/env python3
"""Gate bench_micro results against the committed perf baseline.

CI runs ``bench_micro --json=current.json`` on whatever machine it gets,
then calls this script with the committed ``BENCH_micro.json`` as the
baseline. Raw events/s are not comparable across machines, so the check
is two-layered:

1. **Calibrated throughput gate.** The legacy binary-heap engine is
   frozen code — it only changes if someone edits it deliberately — so
   the median of ``current/baseline`` over the legacy rows estimates the
   machine-speed ratio between the CI runner and the machine that wrote
   the baseline. Every row must then hit
   ``baseline_rate * scale * (1 - tolerance)``. A real regression slows
   pooled rows but not the legacy yardstick, so it cannot hide behind a
   slow runner.

2. **Machine-independent ratio gates.** Within a single run the
   pooled/legacy ratio cancels machine speed entirely: forward must stay
   >= 2x legacy and every churn-shaped bench >= 1x legacy (the churn
   regression this PR fixed must not come back), each with the same
   relative tolerance.

Allocation gates are absolute: pooled scheduler rows, the queue rings,
and e2e steady state must stay allocation-free (a tiny epsilon per unit
absorbs one-off container growth landing inside a measured window).

Exit status: 0 = pass, 1 = regression (or malformed input). Only stdlib.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

# Per-unit allocation budget for rows that must be allocation-free in
# steady state. 1e-4 allocs/event tolerates a stray container doubling
# (a handful of allocs per million events) without letting a real
# per-event allocation (>= 1.0/event) anywhere near the gate.
ALLOC_EPSILON = 1e-4

# (bench, numerator engine, denominator engine, required ratio)
RATIO_GATES = [
    ("forward", "pooled", "legacy", 2.0),
    ("churn", "pooled", "legacy", 1.0),
    ("churn_far", "pooled", "legacy", 1.0),
    ("reschedule", "pooled", "legacy", 1.0),
]

# Rows whose steady-state alloc rate must be ~zero.
ZERO_ALLOC_ROWS = [
    ("forward", "pooled"),
    ("churn", "pooled"),
    ("churn_far", "pooled"),
    ("reschedule", "pooled"),
    ("droptail_queue", "ring"),
    ("red_queue", "ring"),
    ("route_forward", "flat_table"),
]

# Rows whose rate depends on real parallelism (thread scheduling, core
# count): run-to-run spread exceeds the tolerance band even on one
# machine, and CI runners differ in core count, so the calibrated floor
# would flake. They must still be PRESENT (coverage check applies); only
# the throughput floor is skipped. The sharded engine's correctness is
# pinned by tests/pdes, not by this gate.
FLOOR_EXEMPT_ROWS = [
    ("shard_scaling", "shard4"),
]


def load_rows(path):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    rows = data["jobs"] if isinstance(data, dict) else data
    return {(r["bench"], r["engine"]): r for r in rows}


def rate_of(row):
    """Primary throughput of a row, in its own unit (events|packets|rearms)/s."""
    return row[f"{row['unit']}_per_sec"]


def alloc_rate_of(row):
    return row[f"allocs_per_{row['unit']}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_micro.json (the trajectory anchor)")
    ap.add_argument("--current", required=True,
                    help="freshly produced bench_micro JSON")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="relative slack on every gate (default 0.15)")
    args = ap.parse_args()

    try:
        baseline = load_rows(args.baseline)
        current = load_rows(args.current)
    except (OSError, KeyError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot load bench JSON: {e}")
        return 1

    tol = args.tolerance
    failures = []
    notes = []

    # -- machine-speed calibration over the frozen legacy rows ------------
    legacy_ratios = []
    for key, base_row in baseline.items():
        if key[1] != "legacy":
            continue
        cur_row = current.get(key)
        if cur_row is None:
            continue
        b, c = rate_of(base_row), rate_of(cur_row)
        if b > 0 and c > 0:
            legacy_ratios.append(c / b)
    if not legacy_ratios:
        print("FAIL: no legacy rows shared between baseline and current — "
              "cannot calibrate machine speed")
        return 1
    # One-sided clamp: a slower runner lowers every floor, but a faster
    # runner never raises them. Raising floors on a fast machine turns
    # benign per-bench noise into failures; hiding behind machine speed
    # is already impossible for relative regressions because the ratio
    # gates below cancel machine speed entirely.
    scale = min(statistics.median(legacy_ratios), 1.0)
    print(f"machine calibration: median legacy current/baseline = "
          f"{statistics.median(legacy_ratios):.3f} over {len(legacy_ratios)} "
          f"rows -> floor scale {scale:.3f}, tolerance {tol:.0%}")

    # -- per-row calibrated throughput gate -------------------------------
    for key, base_row in sorted(baseline.items()):
        cur_row = current.get(key)
        if cur_row is None:
            failures.append(f"row {key} present in baseline but missing from "
                            f"current run — bench coverage shrank")
            continue
        if cur_row["unit"] != base_row["unit"]:
            failures.append(f"{key[0]}/{key[1]}: unit {cur_row['unit']} but "
                            f"the baseline row counts {base_row['unit']} — "
                            f"convert the committed row")
            continue
        if key in FLOOR_EXEMPT_ROWS:
            print(f"  {key[0]:<15} {key[1]:<7} {rate_of(cur_row):>14,.0f} "
                  f"{base_row['unit']}/s  (floor exempt: parallel wall-clock)")
            continue
        floor = rate_of(base_row) * scale * (1.0 - tol)
        got = rate_of(cur_row)
        verdict = "ok" if got >= floor else "REGRESSION"
        line = (f"  {key[0]:<15} {key[1]:<7} {got:>14,.0f} {base_row['unit']}/s"
                f"  (floor {floor:>14,.0f})  {verdict}")
        print(line)
        if got < floor:
            failures.append(f"{key[0]}/{key[1]}: {got:,.0f} {base_row['unit']}/s "
                            f"< calibrated floor {floor:,.0f}")
    for key in sorted(set(current) - set(baseline)):
        notes.append(f"new bench row {key} (not in baseline; not gated)")

    # -- machine-independent ratio gates ----------------------------------
    for bench, num_eng, den_eng, need in RATIO_GATES:
        num = current.get((bench, num_eng))
        den = current.get((bench, den_eng))
        if num is None or den is None:
            failures.append(f"ratio gate {bench}: missing "
                            f"{num_eng if num is None else den_eng} row")
            continue
        ratio = rate_of(num) / rate_of(den)
        floor = need * (1.0 - tol)
        verdict = "ok" if ratio >= floor else "REGRESSION"
        print(f"  ratio {bench:<15} {num_eng}/{den_eng} = {ratio:5.2f}x "
              f"(floor {floor:.2f}x)  {verdict}")
        if ratio < floor:
            failures.append(f"{bench}: {num_eng} only {ratio:.2f}x {den_eng}, "
                            f"needs >= {floor:.2f}x")

    # -- allocation gates --------------------------------------------------
    for key in ZERO_ALLOC_ROWS:
        row = current.get(key)
        if row is None:
            failures.append(f"alloc gate: row {key} missing from current run")
            continue
        per_unit = alloc_rate_of(row)
        verdict = "ok" if per_unit <= ALLOC_EPSILON else "REGRESSION"
        print(f"  allocs {key[0]:<15} {key[1]:<7} {per_unit:.6f}/"
              f"{row['unit'][:-1]}  {verdict}")
        if per_unit > ALLOC_EPSILON:
            failures.append(f"{key[0]}/{key[1]}: {per_unit:.6f} allocs per "
                            f"{row['unit'][:-1]} (must be ~0)")
    for key, row in sorted(current.items()):
        if "steady_allocs_per_packet" not in row:
            continue
        steady = row["steady_allocs_per_packet"]
        verdict = "ok" if steady <= ALLOC_EPSILON else "REGRESSION"
        print(f"  allocs {key[0]:<15} steady  {steady:.6f}/packet  {verdict}")
        if steady > ALLOC_EPSILON:
            failures.append(f"{key[0]}: {steady:.6f} steady allocs/packet "
                            f"(must be ~0)")

    for n in notes:
        print(f"note: {n}")
    if failures:
        print(f"\nFAIL: {len(failures)} perf-trajectory gate(s) tripped:")
        for f in failures:
            print(f"  - {f}")
        print("\nIf the change is an intentional trade-off, refresh the "
              "committed BENCH_micro.json in the same PR and justify the "
              "delta in EXPERIMENTS.md.")
        return 1
    print("\nPASS: perf trajectory holds "
          f"({len(baseline)} rows, {len(RATIO_GATES)} ratio gates, "
          "alloc gates clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
