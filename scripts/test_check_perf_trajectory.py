#!/usr/bin/env python3
"""Unit tests for check_perf_trajectory.py (stdlib unittest — no pytest).

The gating logic has sharp edges worth pinning: the one-sided machine
calibration clamp, the machine-independent ratio floors, the absolute
allocation epsilon, and the row-coverage rules (a baseline row vanishing
must fail; a brand-new row must not). Each test builds small JSON files
and runs main() via argv patching, asserting on the exit status.

Run directly (``python3 scripts/test_check_perf_trajectory.py``) or via
ctest (``ctest -R perf_script``).
"""

import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_perf_trajectory as cpt  # noqa: E402  (path fixed up above)


def row(bench, engine, rate, allocs_per_unit=0.0, unit="events", **extra):
    r = {
        "bench": bench,
        "engine": engine,
        "unit": unit,
        f"{unit}_per_sec": rate,
        "wall_s": 1.0,
        "units": int(rate),
        "allocs": int(allocs_per_unit * rate),
        f"allocs_per_{unit}": allocs_per_unit,
    }
    r.update(extra)
    return r


def full_rowset(scale=1.0, forward_pooled_factor=2.5, alloc_overrides=None,
                steady=0.0):
    """A healthy bench result, all gates passing at scale=1.0.

    ``scale`` multiplies every rate (simulating a faster/slower machine);
    ``forward_pooled_factor`` sets forward pooled relative to legacy;
    ``alloc_overrides`` maps (bench, engine) -> allocs/unit.
    """
    allocs = alloc_overrides or {}

    def a(bench, engine):
        return allocs.get((bench, engine), 0.0)

    legacy_rate = 1e7 * scale
    rows = [
        row("forward", "legacy", legacy_rate, 2.0),
        row("forward", "pooled", legacy_rate * forward_pooled_factor,
            a("forward", "pooled")),
        row("churn", "legacy", 5e6 * scale, 1.5),
        row("churn", "pooled", 6e6 * scale, a("churn", "pooled")),
        row("churn_far", "legacy", 4e6 * scale, 1.5),
        row("churn_far", "pooled", 5e6 * scale, a("churn_far", "pooled")),
        row("reschedule", "legacy", 1.5e7 * scale, 2.0, unit="rearms"),
        row("reschedule", "pooled", 6e7 * scale,
            a("reschedule", "pooled"), unit="rearms"),
        row("droptail_queue", "ring", 3e7 * scale,
            a("droptail_queue", "ring"), unit="packets"),
        row("red_queue", "ring", 2.5e7 * scale,
            a("red_queue", "ring"), unit="packets"),
        row("route_forward", "flat_table", 5e7 * scale,
            a("route_forward", "flat_table"), unit="hops"),
        row("e2e_1flow", "pooled", 2e4 * scale, 0.1, unit="packets",
            steady_allocs_per_packet=steady),
        row("shard_scaling", "single", 5e6 * scale, 0.0, unit="packets"),
        row("shard_scaling", "shard4", 4e6 * scale, 0.001, unit="packets"),
    ]
    return rows


class GateHarness(unittest.TestCase):
    """Writes baseline/current JSON to temp files and runs cpt.main()."""

    def run_gate(self, baseline_rows, current_rows, tolerance=0.15):
        with tempfile.TemporaryDirectory() as td:
            base = os.path.join(td, "baseline.json")
            cur = os.path.join(td, "current.json")
            with open(base, "w", encoding="utf-8") as f:
                json.dump({"jobs": baseline_rows}, f)
            with open(cur, "w", encoding="utf-8") as f:
                json.dump({"jobs": current_rows}, f)
            argv = ["check_perf_trajectory.py", "--baseline", base,
                    "--current", cur, "--tolerance", str(tolerance)]
            with mock.patch.object(sys, "argv", argv), \
                    mock.patch("sys.stdout"):
                return cpt.main()


class CalibrationTests(GateHarness):
    def test_identical_runs_pass(self):
        rows = full_rowset()
        self.assertEqual(self.run_gate(rows, rows), 0)

    def test_slow_machine_lowers_floors(self):
        # Current machine is uniformly 2x slower: the legacy yardstick
        # scales every floor down, so nothing trips.
        self.assertEqual(
            self.run_gate(full_rowset(), full_rowset(scale=0.5)), 0)

    def test_fast_machine_does_not_raise_floors(self):
        # Runner is 3x faster overall but one row merely matched the
        # baseline rate. With the clamp at 1.0 that row still passes;
        # without the clamp the 3x scale would fail it. (route_forward
        # has no in-run ratio gate, so only the calibrated floor sees it.)
        current = full_rowset(scale=3.0)
        for r in current:
            if r["bench"] == "route_forward":
                r["hops_per_sec"] = 5e7  # baseline-speed, not 3x
        self.assertEqual(self.run_gate(full_rowset(), current), 0)

    def test_genuine_slowdown_fails_even_on_slow_machine(self):
        # Machine is 2x slower AND the pooled forward row lost another
        # 3x on top: the calibrated floor catches it because legacy rows
        # only explain the 2x.
        current = full_rowset(scale=0.5)
        for r in current:
            if r["bench"] == "forward" and r["engine"] == "pooled":
                r["events_per_sec"] /= 3.0
        self.assertEqual(self.run_gate(full_rowset(), current), 1)

    def test_no_shared_legacy_rows_fails(self):
        # Without a yardstick there is no calibration — must fail loudly,
        # not silently skip the throughput gates.
        current = [r for r in full_rowset() if r["engine"] != "legacy"]
        self.assertEqual(self.run_gate(full_rowset(), current), 1)


class RatioGateTests(GateHarness):
    def test_forward_speedup_below_2x_fails(self):
        # 1.5x pooled/legacy is below the 2.0x floor even with 15% slack,
        # on any machine (ratio gates ignore calibration entirely).
        current = full_rowset(forward_pooled_factor=1.5)
        self.assertEqual(self.run_gate(current, current), 1)

    def test_forward_speedup_within_tolerance_passes(self):
        # 1.75x >= 2.0 * (1 - 0.15) = 1.70x: inside the slack band.
        current = full_rowset(forward_pooled_factor=1.75)
        self.assertEqual(self.run_gate(current, current), 0)

    def test_churn_regression_fails(self):
        # The churn-below-legacy regression this harness exists to catch:
        # pooled at 0.5x legacy must trip the >= 1.0x gate.
        current = full_rowset()
        for r in current:
            if r["bench"] == "churn" and r["engine"] == "pooled":
                r["events_per_sec"] = 2.5e6  # legacy is 5e6
        self.assertEqual(self.run_gate(current, current), 1)

    def test_missing_ratio_row_fails(self):
        current = [r for r in full_rowset()
                   if not (r["bench"] == "reschedule"
                           and r["engine"] == "pooled")]
        self.assertEqual(self.run_gate(full_rowset(), current), 1)


class AllocGateTests(GateHarness):
    def test_epsilon_absorbs_stray_container_growth(self):
        # A handful of allocs per million events (5e-5/event) is below
        # ALLOC_EPSILON: pool growth landing inside a measured window
        # must not flake the gate.
        current = full_rowset(
            alloc_overrides={("churn", "pooled"): cpt.ALLOC_EPSILON / 2})
        self.assertEqual(self.run_gate(current, current), 0)

    def test_per_event_allocation_fails(self):
        # A real regression allocates >= 1/event — four orders of
        # magnitude above epsilon.
        current = full_rowset(alloc_overrides={("forward", "pooled"): 1.0})
        self.assertEqual(self.run_gate(current, current), 1)

    def test_route_forward_is_alloc_gated(self):
        # The FlatTable32 lookup row joined ZERO_ALLOC_ROWS: an alloc on
        # the per-hop path must fail.
        self.assertIn(("route_forward", "flat_table"), cpt.ZERO_ALLOC_ROWS)
        current = full_rowset(
            alloc_overrides={("route_forward", "flat_table"): 0.5})
        self.assertEqual(self.run_gate(current, current), 1)

    def test_e2e_steady_state_gated_separately_from_setup(self):
        # e2e rows carry setup allocs (0.1/packet overall) legitimately;
        # only steady_allocs_per_packet is gated.
        ok = full_rowset(steady=0.0)
        self.assertEqual(self.run_gate(ok, ok), 0)
        bad = full_rowset(steady=0.01)
        self.assertEqual(self.run_gate(bad, bad), 1)


class CoverageTests(GateHarness):
    def test_baseline_row_missing_from_current_fails(self):
        # Bench coverage must not silently shrink.
        current = [r for r in full_rowset()
                   if r["bench"] != "route_forward"]
        self.assertEqual(self.run_gate(full_rowset(), current), 1)

    def test_new_row_in_current_is_not_gated(self):
        # The reverse direction is fine: adding a bench before its
        # baseline lands must not fail the older baseline.
        baseline = [r for r in full_rowset()
                    if r["bench"] != "route_forward"]
        self.assertEqual(self.run_gate(baseline, full_rowset()), 0)

    def test_unit_change_fails_until_the_baseline_is_converted(self):
        # A row whose unit changed would compare packets/s against the
        # baseline's events/s; the committed row must be converted first.
        events = [dict(r) for r in full_rowset()]
        for r in events:
            if r["bench"] == "shard_scaling":
                r["unit"] = "events"
                r["events_per_sec"] = r.pop("packets_per_sec") * 2
        self.assertEqual(self.run_gate(events, full_rowset()), 1)
        self.assertEqual(self.run_gate(full_rowset(), full_rowset()), 0)

    def test_floor_exempt_row_may_slow_but_not_vanish(self):
        # shard_scaling/shard4 measures parallel wall-clock: its rate is
        # scheduling noise on a shared runner, so the calibrated floor
        # skips it — but dropping the row entirely still shrinks coverage.
        self.assertIn(("shard_scaling", "shard4"), cpt.FLOOR_EXEMPT_ROWS)
        slow = full_rowset()
        for r in slow:
            if r["bench"] == "shard_scaling" and r["engine"] == "shard4":
                r["packets_per_sec"] /= 10.0
        self.assertEqual(self.run_gate(full_rowset(), slow), 0)
        gone = [r for r in full_rowset()
                if not (r["bench"] == "shard_scaling"
                        and r["engine"] == "shard4")]
        self.assertEqual(self.run_gate(full_rowset(), gone), 1)

    def test_malformed_json_fails_cleanly(self):
        with tempfile.TemporaryDirectory() as td:
            base = os.path.join(td, "baseline.json")
            cur = os.path.join(td, "current.json")
            with open(base, "w", encoding="utf-8") as f:
                f.write("{not json")
            with open(cur, "w", encoding="utf-8") as f:
                json.dump({"jobs": full_rowset()}, f)
            argv = ["check_perf_trajectory.py", "--baseline", base,
                    "--current", cur]
            with mock.patch.object(sys, "argv", argv), \
                    mock.patch("sys.stdout"):
                self.assertEqual(cpt.main(), 1)


if __name__ == "__main__":
    unittest.main()
