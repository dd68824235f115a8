#!/usr/bin/env python3
"""Unit tests for gcov_layers.py (stdlib unittest, no gcov needed).

They feed the canned two-document gcov JSON in testdata/ through main()
and check the per-layer and per-file sums: a header's counts add up over
the translation units that ran it, a relative path resolves against the
document's working directory, and files outside src/ (benchmark sources,
system headers, /usr/src) are left out. The diff cases compare the
fixture with an edited copy of itself.

Run directly (``python3 scripts/test_gcov_layers.py``) or via ctest
(``ctest -R gcov_layers``).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gcov_layers as gl  # noqa: E402  (path fixed up above)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "testdata", "gcov_fixture.json")


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = gl.main(argv)
    return status, out.getvalue()


def rows(text):
    """First-column name -> remaining columns, for every table row."""
    table = {}
    for line in text.splitlines():
        cols = line.split()
        if cols:
            table[cols[0]] = cols[1:]
    return table


class FileCounts(unittest.TestCase):
    def setUp(self):
        self.files = gl.load(FIXTURE)

    def test_sums_lines_per_src_file_across_translation_units(self):
        self.assertEqual(dict(self.files), {
            "src/sim/simulator.cpp": 1250,
            "src/sim/simulator.hpp": 200,  # 40 + 60 + 100, two TUs
            "src/net/delay_line.hpp": 500,  # relative to its document's cwd
        })

    def test_layers_add_up_to_the_total(self):
        layers = gl.layer_counts(self.files)
        self.assertEqual(dict(layers), {"sim": 1450, "net": 500})
        self.assertEqual(sum(layers.values()), sum(self.files.values()))

    def test_paths_outside_src_are_dropped(self):
        self.assertIsNone(gl.src_relative("/work/checkout/perfbench/main.cpp"))
        self.assertIsNone(gl.src_relative("/usr/include/c++/12/vector"))
        self.assertIsNone(
            gl.src_relative("/usr/src/googletest/googletest/src/gtest.cc"))
        self.assertEqual(gl.src_relative("src/tcp/sender.cpp"),
                         "src/tcp/sender.cpp")
        self.assertEqual(gl.layer_of("src/tcp/sender.cpp"), "tcp")
        self.assertEqual(gl.layer_of("src/rrtcp.hpp"), "src")


class Cli(unittest.TestCase):
    def test_report_lists_layers_and_files(self):
        status, text = run_main([FIXTURE, "--top", "2"])
        self.assertEqual(status, 0)
        table = rows(text)
        self.assertEqual(table["sim"], ["1,450", "74.36%"])
        self.assertEqual(table["net"], ["500", "25.64%"])
        self.assertEqual(table["total"], ["1,950"])
        self.assertIn("src/sim/simulator.cpp", table)
        self.assertIn("src/net/delay_line.hpp", table)
        self.assertNotIn("src/sim/simulator.hpp", table)  # cut by --top 2

    def test_diff_of_identical_inputs_moves_nothing(self):
        status, text = run_main(["--diff", FIXTURE, FIXTURE])
        self.assertEqual(status, 0)
        self.assertIn("0 file(s) differ", text)
        self.assertEqual(rows(text)["sim"], ["1,450", "1,450", "+0", "+0.00%"])

    def test_diff_reports_each_moved_file(self):
        with open(FIXTURE) as fh:
            docs = list(gl.parse_documents(fh.read()))
        # B: one simulator.cpp line runs 50 times less, and a new file runs.
        docs[0]["files"][0]["lines"][1]["count"] = 200
        docs[1]["files"].append({"file": "/elsewhere/src/tcp/timer.cpp",
                                 "lines": [{"line_number": 1, "count": 7}]})
        with tempfile.TemporaryDirectory() as tmp:
            b = os.path.join(tmp, "b.json")
            with open(b, "w") as fh:
                fh.write("\n".join(json.dumps(d) for d in docs))
            status, text = run_main(["--diff", FIXTURE, b])
        self.assertEqual(status, 0)
        table = rows(text)
        self.assertIn("2 file(s) differ", text)
        self.assertEqual(table["sim"], ["1,450", "1,400", "-50", "-3.45%"])
        self.assertEqual(table["net"], ["500", "500", "+0", "+0.00%"])
        self.assertEqual(table["tcp"], ["0", "7", "+7", "new"])
        self.assertEqual(table["src/sim/simulator.cpp"],
                         ["1,250", "1,200", "-50", "-4.00%"])
        self.assertNotIn("src/sim/simulator.hpp", table)

    def test_missing_input_is_an_error(self):
        with contextlib.redirect_stderr(io.StringIO()):
            status, _ = run_main(["/nonexistent/gcov.json"])
        self.assertEqual(status, 2)

    def test_empty_build_directory_is_an_error(self):
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            status, _ = run_main([tmp])
        self.assertEqual(status, 2)
        self.assertIn("no .gcda files", err.getvalue())


if __name__ == "__main__":
    unittest.main()
