#!/usr/bin/env python3
"""Sum gcov line executions per ``src/`` layer and per file.

A ``--coverage`` build counts how often every source line ran. Those
counts are exact and repeat bit for bit, so two builds doing the same
work can be compared line for line, where wall-clock time on a shared
machine cannot. This script runs ``gcov --json-format`` over every
``.gcda`` file under a build directory and adds the line counts up by
layer (the first directory under ``src/``: ``sim``, ``net``, ``tcp``, ...)
and by file. Lines outside ``src/`` (the benchmark's own sources, system
headers) are left out. A layer's total includes the inline code of its
headers in every translation unit that ran it.

Recipe, on the repository benchmark's ``--emit-digests`` run::

    cmake -S perfbench -B DIR -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="--coverage -fprofile-update=atomic -O0" \\
        -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build DIR -j4
    DIR/perfbench --emit-digests
    python3 scripts/gcov_layers.py DIR

Both flags matter:

* ``-fprofile-update=atomic``: the workloads run worker threads, and
  without atomic updates concurrent increments of one counter are lost,
  so two builds doing identical work read different counts.
* ``-O0``: with inlining, the counts of inlined callees move onto the
  caller's lines (one ``delay_line.hpp`` line collected about 10M counts
  at ``-O1``), so per-file totals stop meaning "this file's code".

A line whose count depends on thread timing still moves between runs of
one binary: the worker's condition-variable wait predicate in
``src/pdes/sharded.cpp`` runs once per wake-up, tens of counts apart.

``--diff A B`` compares two builds (or two saved gcov JSON files) and
prints each layer's and each changed file's counts with the change.
The paths are matched from ``src/`` on, so A and B may be built from
different checkouts. Each input is a build directory or a file holding
the output of ``gcov --json-format --stdout`` (one JSON document per
``.gcda``).

Exit status: 0 on success, 2 on bad input. Only stdlib.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import subprocess
import sys


def src_relative(path, cwd=""):
    """Return ``path`` from its last ``src/`` component on, or None.

    System files (under /usr) are None even when their path has a
    ``src/`` in it, as Debian's /usr/src/googletest does.
    """
    if not os.path.isabs(path) and cwd:
        path = os.path.join(cwd, path)
    path = os.path.normpath(path).replace(os.sep, "/")
    if path.startswith("src/"):
        return path
    if path.startswith("/usr/"):
        return None
    cut = path.rfind("/src/")
    return None if cut < 0 else path[cut + 1:]


def layer_of(rel):
    """``src/sim/simulator.cpp`` -> ``sim``; a file directly in src/ -> ``src``."""
    parts = rel.split("/")
    return parts[1] if len(parts) > 2 else "src"


def parse_documents(text):
    """Yield every JSON document in ``text`` (gcov prints one per .gcda)."""
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return
        doc, pos = decoder.raw_decode(text, pos)
        yield doc


def file_counts(documents):
    """Sum line counts per ``src/``-relative file over gcov JSON documents."""
    counts = collections.Counter()
    for doc in documents:
        cwd = doc.get("current_working_directory", "")
        for f in doc.get("files", []):
            rel = src_relative(f["file"], cwd)
            if rel is None:
                continue
            counts[rel] += sum(line["count"] for line in f.get("lines", []))
    return counts


def layer_counts(files):
    layers = collections.Counter()
    for rel, n in files.items():
        layers[layer_of(rel)] += n
    return layers


def run_gcov(build_dir):
    """gcov's JSON for every .gcda under ``build_dir``; writes no files."""
    gcdas = []
    for root, _, names in os.walk(build_dir):
        gcdas.extend(os.path.join(root, n) for n in names if n.endswith(".gcda"))
    if not gcdas:
        raise ValueError(f"no .gcda files under {build_dir}: build with "
                         "--coverage and run the binary first")
    return subprocess.run(["gcov", "--json-format", "--stdout"] + sorted(gcdas),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          check=True, text=True).stdout


def load(source):
    """File counts of a build directory or a saved gcov JSON file."""
    if os.path.isdir(source):
        text = run_gcov(source)
    else:
        with open(source) as fh:
            text = fh.read()
    return file_counts(parse_documents(text))


def pct(part, whole):
    return f"{100.0 * part / whole:6.2f}%" if whole else "     -"


def change(a, b):
    if a:
        return f"{100.0 * (b - a) / a:+8.2f}%"
    return "       new" if b else f"{0.0:+8.2f}%"


def report(files, top, out):
    layers = layer_counts(files)
    total = sum(layers.values())
    out.write(f"{'layer':<12} {'line executions':>16} {'share':>7}\n")
    for name, n in sorted(layers.items(), key=lambda kv: (-kv[1], kv[0])):
        out.write(f"{name:<12} {n:>16,} {pct(n, total)}\n")
    out.write(f"{'total':<12} {total:>16,}\n\n")
    out.write(f"{'file':<44} {'line executions':>16} {'share':>7}\n")
    ranked = sorted(files.items(), key=lambda kv: (-kv[1], kv[0]))
    for rel, n in ranked[:top] if top else ranked:
        out.write(f"{rel:<44} {n:>16,} {pct(n, total)}\n")


def diff(a, b, out):
    """Print the layer counts of A and B, then every file whose count moved."""
    la, lb = layer_counts(a), layer_counts(b)
    out.write(f"{'layer':<12} {'A':>16} {'B':>16} {'B-A':>14} {'change':>9}\n")
    for name in sorted(set(la) | set(lb)):
        x, y = la[name], lb[name]
        out.write(f"{name:<12} {x:>16,} {y:>16,} {y - x:>+14,} {change(x, y)}\n")
    ta, tb = sum(la.values()), sum(lb.values())
    out.write(f"{'total':<12} {ta:>16,} {tb:>16,} {tb - ta:>+14,} {change(ta, tb)}\n")
    moved = sorted(rel for rel in set(a) | set(b) if a[rel] != b[rel])
    out.write(f"\n{len(moved)} file(s) differ\n")
    for rel in moved:
        x, y = a[rel], b[rel]
        out.write(f"{rel:<44} {x:>16,} {y:>16,} {y - x:>+14,} {change(x, y)}\n")


def main(argv=None):
    p = argparse.ArgumentParser(
        description="Sum gcov line executions per src/ layer and per file.")
    p.add_argument("source", nargs="?",
                   help="build directory, or a saved gcov JSON file")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"),
                   help="compare two builds or gcov JSON files")
    p.add_argument("--top", type=int, default=20,
                   help="files to list, most executed first (0 = all)")
    args = p.parse_args(argv)
    if (args.source is None) == (args.diff is None):
        p.error("give either one SOURCE or --diff A B")
    try:
        if args.diff:
            diff(load(args.diff[0]), load(args.diff[1]), sys.stdout)
        else:
            report(load(args.source), args.top, sys.stdout)
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"gcov_layers: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
