#!/usr/bin/env python3
"""Proves every tools/rsat_lint.py rule actually fires (and stays quiet
where it must). Runs the linter over tests/lint_fixtures/ — a miniature
repo tree of known-bad and known-clean snippets — and asserts the exact
per-file multiset of rules reported. A lint rule that silently stops
matching breaks this test, not just the invariant it guards."""

import collections
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
LINT = os.path.join(REPO, "tools", "rsat_lint.py")
FIXTURES = os.path.join(HERE, "lint_fixtures")

# file (fixture-root-relative) -> {rule: expected finding count}. Files
# absent here must produce no findings at all.
EXPECT = {
    "src/core/bad_raw_clock.cpp": {"raw-clock": 5},
    "src/service/bad_bare_mutex.cpp": {"bare-mutex": 7},
    "src/core/bad_unseeded_rng.cpp": {"unseeded-rng": 4},
    "src/core/bad_metric_literal.cpp": {"metric-literal": 9},
    "src/service/bad_iostream.cpp": {"iostream": 1},
    "src/service/bad_suppression.cpp": {"bad-suppression": 2},
    "tools/bad_bare_mutex.cpp": {"bare-mutex": 5},
}
CLEAN = [
    "src/service/suppressed_ok.cpp",
    "src/support/clean_support.cpp",
    "tools/rsat.cpp",
]

LINE_RE = re.compile(r"^(?P<file>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")


def main():
    proc = subprocess.run(
        [sys.executable, LINT, "--root", FIXTURES],
        capture_output=True, text=True)
    if proc.returncode != 1:
        print("FAIL: expected exit 1 (findings), got %d\nstdout:\n%s\n"
              "stderr:\n%s" % (proc.returncode, proc.stdout, proc.stderr))
        return 1

    got = collections.defaultdict(collections.Counter)
    for line in proc.stdout.splitlines():
        m = LINE_RE.match(line)
        if not m:
            print("FAIL: unparseable finding line: %r" % line)
            return 1
        got[m.group("file")][m.group("rule")] += 1

    failures = []
    for path, want in EXPECT.items():
        if dict(got.get(path, {})) != want:
            failures.append("%s: expected %s, got %s"
                            % (path, want, dict(got.get(path, {}))))
    for path in CLEAN:
        if path in got:
            failures.append("%s: expected clean, got %s"
                            % (path, dict(got[path])))
        if not os.path.exists(os.path.join(FIXTURES, path)):
            failures.append("%s: clean fixture missing on disk" % path)
    for path in got:
        if path not in EXPECT:
            failures.append("%s: unexpected findings %s"
                            % (path, dict(got[path])))

    if failures:
        print("FAIL:\n  " + "\n  ".join(failures))
        print("\nfull linter output:\n" + proc.stdout)
        return 1
    total = sum(sum(c.values()) for c in got.values())
    print("OK: %d findings across %d fixture files, %d clean files quiet"
          % (total, len(EXPECT), len(CLEAN)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
