#!/usr/bin/env python3
"""Self-test for resched-lint: run the analyzer over the fixture corpus and
compare findings against the `// LINT-EXPECT: R<n>` markers embedded in the
fixtures themselves.

Each fixture is analyzed in isolation (its own symbol harvest, its own call
graph) with every rule enabled, so a fixture written for one rule also proves
the other rules stay quiet on it.  A line may expect several rules
(`// LINT-EXPECT: R1, R2`).  Negative fixtures carry no markers and must
produce zero findings.  Every rule needs at least one positive
(`r<n>_pos*.cpp`) and one negative (`r<n>_neg*.cpp`) fixture.

Exit status: 0 if every fixture matches exactly, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import resched_lint  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
EXPECT_RE = re.compile(r"//\s*LINT-EXPECT:\s*([R0-9,\s]+?)\s*$")
ALL_RULES = ("R1", "R2", "R3")


def expected_findings(path):
    expected = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            m = EXPECT_RE.search(line)
            if not m:
                continue
            for rule in m.group(1).split(","):
                rule = rule.strip()
                if rule not in ALL_RULES:
                    raise ValueError(
                        f"{path}:{lineno}: bad LINT-EXPECT rule {rule!r}")
                expected.add((rule, lineno))
    return expected


def run_fixture(path):
    """Returns a list of mismatch strings (empty = pass)."""
    expected = expected_findings(path)
    findings, problems = resched_lint.analyze(FIXTURES, [path], ALL_RULES)
    errors = []
    for (rel, line, msg) in problems:
        errors.append(f"analysis problem at {rel}:{line}: {msg}")
    actual = {(f.rule, f.line) for f in findings}
    for rule, line in sorted(expected - actual):
        errors.append(f"expected {rule} at line {line}, not reported")
    for rule, line in sorted(actual - expected):
        detail = next(f.message for f in findings
                      if (f.rule, f.line) == (rule, line))
        errors.append(f"unexpected {rule} at line {line}: {detail}")
    return errors


def main():
    fixtures = sorted(
        os.path.join(FIXTURES, name)
        for name in os.listdir(FIXTURES)
        if name.endswith(".cpp"))
    names = [os.path.basename(path) for path in fixtures]
    for rule in ALL_RULES:
        for kind in ("pos", "neg"):
            prefix = f"{rule.lower()}_{kind}"
            if not any(name.startswith(prefix) for name in names):
                print(f"selftest: fixture corpus incomplete "
                      f"(no {prefix}*.cpp for {rule})", file=sys.stderr)
                return 1
    failures = 0
    for path in fixtures:
        name = os.path.basename(path)
        errors = run_fixture(path)
        if errors:
            failures += 1
            print(f"FAIL {name}")
            for err in errors:
                print(f"  {err}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"selftest: {failures}/{len(fixtures)} fixtures failed",
              file=sys.stderr)
        return 1
    print(f"selftest: {len(fixtures)} fixtures passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
