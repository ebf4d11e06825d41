#!/usr/bin/env python3
"""Fixture tests for tools/determinism_lint.py (wired into ctest).

Every known-bad fixture under tools/lint_fixtures/bad/ must produce at least
one finding of the rule named by its expectations entry; every good twin under
tools/lint_fixtures/good/ must come back completely clean. A fixture on disk
that the expectations table does not mention is a test failure too — the suite
must grow with the fixtures.
"""

import os
import sys
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS_DIR)

import determinism_lint  # noqa: E402

FIXTURES = os.path.join(TOOLS_DIR, "lint_fixtures")

# fixture path relative to lint_fixtures/bad -> set of rules it must trip.
BAD_EXPECTATIONS = {
    "src/core/participation_fanout.cpp": {"ungated-fanout"},
    "src/core/unordered_commit.cpp": {"unordered-iteration"},
    "src/core/raw_random.cpp": {"raw-randomness"},
    "src/dynamic/bare_thread.cpp": {"bare-thread"},
    "src/dynamic/stale_suppression.cpp": {"stale-suppression"},
    "src/graph/omp_pragma.cpp": {"raw-openmp"},
    "src/graph/ungated_fanout.cpp": {"ungated-fanout"},
    "src/service/publication.cpp": {"publication-order"},
    "src/service/publication_slot.cpp": {"publication-order"},
}


def lint(path):
    return determinism_lint.lint_file(path, use_libclang="auto")


def fixture_files(kind):
    root = os.path.join(FIXTURES, kind)
    out = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(determinism_lint.CPP_EXTENSIONS):
                out.append(
                    os.path.relpath(os.path.join(dirpath, name), root)
                )
    return sorted(out)


class BadFixtures(unittest.TestCase):
    def test_every_bad_fixture_is_expected(self):
        self.assertEqual(fixture_files("bad"), sorted(BAD_EXPECTATIONS))

    def test_bad_fixtures_fail_with_the_expected_rule(self):
        for rel, want_rules in BAD_EXPECTATIONS.items():
            with self.subTest(fixture=rel):
                findings = lint(os.path.join(FIXTURES, "bad", rel))
                got_rules = {f.rule for f in findings}
                self.assertTrue(
                    want_rules <= got_rules,
                    f"{rel}: wanted {sorted(want_rules)}, got "
                    f"{sorted(got_rules)} from {[f.render() for f in findings]}",
                )

    def test_raw_random_flags_every_entropy_source(self):
        findings = lint(
            os.path.join(FIXTURES, "bad", "src/core/raw_random.cpp")
        )
        self.assertGreaterEqual(
            len([f for f in findings if f.rule == "raw-randomness"]), 3
        )

    def test_raw_openmp_flags_the_pragma_line_only(self):
        # Exactly one finding, on the pragma line — the loop it decorates is
        # ordinary code and must not be swept up in the report.
        findings = lint(
            os.path.join(FIXTURES, "bad", "src/graph/omp_pragma.cpp")
        )
        omp = [f for f in findings if f.rule == "raw-openmp"]
        self.assertEqual(1, len(omp), [f.render() for f in findings])
        self.assertIn("gated_threads", omp[0].message)


class GoodFixtures(unittest.TestCase):
    def test_good_fixtures_are_clean(self):
        for rel in fixture_files("good"):
            with self.subTest(fixture=rel):
                findings = lint(os.path.join(FIXTURES, "good", rel))
                self.assertEqual(
                    [], [f.render() for f in findings],
                    f"{rel} should lint clean",
                )


class SuppressionPolicy(unittest.TestCase):
    def test_allow_without_reason_is_rejected(self):
        # The allow regex demands `-- <reason>`; a bare allow() keeps the
        # finding alive.
        self.assertIsNone(
            determinism_lint.ALLOW_RE.search(
                "// determinism-lint: allow(bare-thread)"
            )
        )

    def test_allow_with_reason_names_one_rule(self):
        m = determinism_lint.ALLOW_RE.search(
            "// determinism-lint: allow(raw-randomness) -- test-only entropy"
        )
        self.assertIsNotNone(m)
        self.assertEqual("raw-randomness", m.group(1))

    def test_stale_suppression_fixture_flags_all_three_rots(self):
        findings = lint(
            os.path.join(FIXTURES, "bad", "src/dynamic/stale_suppression.cpp")
        )
        stale = [f for f in findings if f.rule == "stale-suppression"]
        self.assertEqual(3, len(stale), [f.render() for f in findings])
        messages = " | ".join(f.message for f in stale)
        self.assertIn("names no known determinism-lint rule", messages)
        self.assertIn("lacks the mandatory ' -- <reason>' tail", messages)
        self.assertIn("bare NOLINT", messages)

    def test_analyzer_rule_names_stay_in_sync(self):
        # The stale-suppression rule validates bmf-analyzer allow() comments
        # against the analyzer's own registry — imported, not copied.
        self.assertIn("unordered-order-taint", determinism_lint.ANALYZER_RULES)
        self.assertIn("single-writer-ledger", determinism_lint.ANALYZER_RULES)


class RealTree(unittest.TestCase):
    def test_src_is_lint_clean(self):
        src = os.path.join(os.path.dirname(TOOLS_DIR), "src")
        findings = []
        for path in determinism_lint.collect_files([src]):
            findings.extend(lint(path))
        self.assertEqual([], [f.render() for f in findings])


if __name__ == "__main__":
    unittest.main()
