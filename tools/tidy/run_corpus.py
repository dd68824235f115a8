#!/usr/bin/env python3
"""Lint-corpus runner for the rrtcp-tidy checks.

Runs a checker over the fixture TUs in tools/tidy/corpus and asserts the
contract each fixture encodes:

  *_bad.cpp   must produce at least one diagnostic whose check id matches
              the fixture's `// EXPECT: rrtcp-...` marker;
  *_clean.cpp must produce no rrtcp-* diagnostic at all.

A fixture `<stem>_bad.cpp` or `<stem>_clean.cpp` may include a header
`<stem>.hpp` next to it; the lite checker, which reads only the files it
is given, then runs on both.

Two interchangeable checkers (same diagnostic format):

  --lite <binary>         the portable token-level fallback
                          (tools/tidy/lite), run directly on each file;
  --clang-tidy <exe> --plugin <path.so>
                          the real plugin, loaded via --load with
                          --checks=-*,rrtcp-*.

A third mode sweeps arbitrary sources and fails on any diagnostic:

  --sweep file...         (with --lite or --clang-tidy as above)

Exit status: 0 on success, 1 on contract violation, 2 on usage error.
"""

import argparse
import pathlib
import re
import subprocess
import sys

DIAG_RE = re.compile(r"\[(rrtcp-[a-z-]+)\]")
EXPECT_RE = re.compile(r"//\s*EXPECT:\s*(rrtcp-[a-z-]+)")


def run_checker(args, files):
    """Returns (set of rrtcp check ids seen, raw output)."""
    if args.lite:
        cmd = [args.lite] + [str(f) for f in files]
    else:
        cmd = [
            args.clang_tidy,
            f"--load={args.plugin}",
            "--checks=-*,rrtcp-*",
            "--quiet",
        ] + [str(f) for f in files] + [
            "--",
            "-std=c++20",
            f"-I{args.include}",
        ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    ids = set(DIAG_RE.findall(proc.stdout))
    return ids, proc.stdout


def fixture_files(args, fixture):
    """The files one fixture runs on: itself, plus its header for lite."""
    stem = re.sub(r"_(bad|clean)\.cpp$", "", fixture.name)
    header = fixture.with_name(stem + ".hpp")
    if args.lite and header.exists():
        return [fixture, header]
    return [fixture]


def check_corpus(args):
    corpus = pathlib.Path(args.corpus)
    bad = sorted(corpus.glob("*_bad.cpp"))
    clean = sorted(corpus.glob("*_clean.cpp"))
    if len(bad) < 5 or len(clean) < 5:
        print(
            f"error: corpus at {corpus} incomplete "
            f"({len(bad)} bad / {len(clean)} clean fixtures)"
        )
        return 2

    failures = 0
    for fixture in bad:
        expect = EXPECT_RE.search(fixture.read_text())
        if not expect:
            print(f"FAIL {fixture.name}: missing '// EXPECT: rrtcp-...'")
            failures += 1
            continue
        expected = expect.group(1)
        ids, output = run_checker(args, fixture_files(args, fixture))
        if expected in ids:
            print(f"ok   {fixture.name}: fired {expected}")
        else:
            print(
                f"FAIL {fixture.name}: expected {expected}, "
                f"got {sorted(ids) or 'nothing'}"
            )
            print(output)
            failures += 1

    for fixture in clean:
        ids, output = run_checker(args, fixture_files(args, fixture))
        if ids:
            print(f"FAIL {fixture.name}: expected clean, fired {sorted(ids)}")
            print(output)
            failures += 1
        else:
            print(f"ok   {fixture.name}: clean")

    if failures:
        print(f"{failures} corpus contract(s) violated")
        return 1
    print(f"corpus ok: {len(bad)} firing + {len(clean)} clean fixtures")
    return 0


def check_sweep(args):
    files = [pathlib.Path(f) for f in args.sweep]
    # One invocation over all files: the hot-path analyzer needs header
    # declarations and out-of-line definitions in the same run.
    ids, output = run_checker(args, files)
    if ids:
        sys.stdout.write(output)
        print(f"sweep FAILED: {sorted(ids)} over {len(files)} files")
        return 1
    print(f"sweep ok: {len(files)} files, no rrtcp diagnostics")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lite", help="path to the rrtcp_tidy_lite binary")
    parser.add_argument("--clang-tidy", dest="clang_tidy",
                        help="path to a clang-tidy executable")
    parser.add_argument("--plugin", help="path to the rrtcp-tidy plugin .so")
    parser.add_argument("--include", default="src",
                        help="include root for corpus TUs (clang-tidy mode)")
    parser.add_argument("--corpus", help="fixture directory to validate")
    parser.add_argument("--sweep", nargs="*",
                        help="source files that must produce no diagnostics")
    args = parser.parse_args()

    if bool(args.lite) == bool(args.clang_tidy):
        parser.error("exactly one of --lite / --clang-tidy is required")
    if args.clang_tidy and not args.plugin:
        parser.error("--clang-tidy requires --plugin")
    if bool(args.corpus) == bool(args.sweep):
        parser.error("exactly one of --corpus / --sweep is required")

    if args.corpus:
        return check_corpus(args)
    return check_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
