#!/usr/bin/env python3
"""Fixture + real-tree tests for tools/analyzer (wired into ctest).

Mirrors tools/test_determinism_lint.py: every known-bad fixture under
fixtures/bad/ must produce at least one finding of the rule named by its
expectations entry; every good twin must come back completely clean; a
fixture on disk the expectations table does not mention is itself a
failure. On top of that the suite checks the analyzer against reality:

  * the full src/ tree is clean under all rules and the default manifest;
  * the lock rule is not vacuous — it must *observe* the three manifest
    edges in src/ (a scan that sees nothing would trivially pass);
  * the planted-violation regression: putting a hash-map dedup back into
    framework.cpp's H' construction (a scratch copy) must trip
    unordered-order-taint unless its keys are sorted before they reach the
    oracle.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

ANALYZER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, ANALYZER_DIR)

import bmf_analyzer  # noqa: E402
import rules_locks  # noqa: E402
import source_model as sm  # noqa: E402

FIXTURES = os.path.join(ANALYZER_DIR, "fixtures")
REPO = os.path.dirname(os.path.dirname(ANALYZER_DIR))

# fixture path relative to fixtures/bad -> set of rules it must trip.
BAD_EXPECTATIONS = {
    "src/core/taint_direct.cpp": {"unordered-order-taint"},
    "src/core/taint_helper.cpp": {"unordered-order-taint"},
    "src/dynamic/taint_ptr_sort.cpp": {"unordered-order-taint"},
    "src/dynamic/ledger_in_lambda.cpp": {"single-writer-ledger"},
    "src/service/lock_leaf_nested.cpp": {"lock-order"},
    "src/service/lock_undeclared.cpp": {"lock-order"},
    "src/service/publication_pairing.cpp": {"publication-order"},
    "src/service/relaxed_unmarked.cpp": {"relaxed-audit"},
    "src/util/lock_cycle.cpp": {"lock-order"},
}


def fixture_manifest() -> dict:
    with open(
        os.path.join(FIXTURES, "lock_order_manifest.json"), encoding="utf-8"
    ) as f:
        return json.load(f)


def default_manifest() -> dict:
    with open(bmf_analyzer.default_manifest_path(), encoding="utf-8") as f:
        return json.load(f)


def analyze(paths, manifest, **kwargs):
    return bmf_analyzer.analyze(
        paths, manifest, set(sm.RULES), use_libclang="auto", **kwargs
    )


def fixture_files(kind):
    root = os.path.join(FIXTURES, kind)
    out = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(sm.CPP_EXTENSIONS):
                out.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(out)


class BadFixtures(unittest.TestCase):
    def test_every_bad_fixture_is_expected(self):
        self.assertEqual(fixture_files("bad"), sorted(BAD_EXPECTATIONS))

    def test_bad_fixtures_fail_with_the_expected_rule(self):
        manifest = fixture_manifest()
        for rel, want_rules in BAD_EXPECTATIONS.items():
            with self.subTest(fixture=rel):
                findings = analyze(
                    [os.path.join(FIXTURES, "bad", rel)], manifest
                )
                got_rules = {f.rule for f in findings}
                self.assertTrue(
                    want_rules <= got_rules,
                    f"{rel}: wanted {sorted(want_rules)}, got "
                    f"{sorted(got_rules)} from "
                    f"{[f.render() for f in findings]}",
                )

    def test_lock_cycle_names_the_cycle(self):
        findings = analyze(
            [os.path.join(FIXTURES, "bad", "src/util/lock_cycle.cpp")],
            fixture_manifest(),
        )
        cycles = [f for f in findings if "cycle" in f.message]
        self.assertEqual(1, len(cycles), [f.render() for f in findings])
        self.assertIn("CyclePool::a_ -> CyclePool::b_", cycles[0].message)

    def test_leaf_nesting_names_the_leaf(self):
        findings = analyze(
            [os.path.join(FIXTURES, "bad", "src/service/lock_leaf_nested.cpp")],
            fixture_manifest(),
        )
        self.assertTrue(
            any(
                "leaf mutex NestingSlot::slot_mutex_" in f.message
                for f in findings
            ),
            [f.render() for f in findings],
        )

    def test_manifest_edge_under_a_leaf_is_rejected(self):
        manifest = dict(fixture_manifest())
        manifest["allowed_edges"] = manifest["allowed_edges"] + [
            ["LeafSlot::slot_mutex_", "LeafSlot::stats_mutex_"]
        ]
        findings = analyze(
            [os.path.join(FIXTURES, "good", "src/service/lock_leaf_nested.cpp")],
            manifest,
        )
        self.assertEqual(
            ["lock_order_manifest.json"], [f.path for f in findings]
        )

    def test_ledger_catches_helper_one_level_down(self):
        findings = analyze(
            [os.path.join(FIXTURES, "bad", "src/dynamic/ledger_in_lambda.cpp")],
            fixture_manifest(),
        )
        self.assertTrue(
            any("charge_round" in f.message for f in findings),
            [f.render() for f in findings],
        )


class GoodFixtures(unittest.TestCase):
    def test_good_fixtures_are_clean(self):
        manifest = fixture_manifest()
        for rel in fixture_files("good"):
            with self.subTest(fixture=rel):
                findings = analyze(
                    [os.path.join(FIXTURES, "good", rel)], manifest
                )
                self.assertEqual(
                    [],
                    [f.render() for f in findings],
                    f"{rel} should analyze clean",
                )

    def test_good_and_bad_twins_pair_up(self):
        self.assertEqual(fixture_files("bad"), fixture_files("good"))


class SuppressionPolicy(unittest.TestCase):
    def test_allow_without_reason_is_rejected(self):
        self.assertIsNone(
            sm.ALLOW_RE.search("// bmf-analyzer: allow(lock-order)")
        )

    def test_allow_with_reason_names_one_rule(self):
        m = sm.ALLOW_RE.search(
            "// bmf-analyzer: allow(relaxed-audit) -- justified elsewhere"
        )
        self.assertIsNotNone(m)
        self.assertEqual("relaxed-audit", m.group(1))


class RealTree(unittest.TestCase):
    def test_src_is_clean_under_all_rules(self):
        findings = analyze([os.path.join(REPO, "src")], default_manifest())
        self.assertEqual([], [f.render() for f in findings])

    def test_lock_rule_observes_the_manifest_edges(self):
        # Guards against a vacuously-green lock rule: the three reviewed
        # nestings must actually be seen by the scan.
        files = [
            sm.parse_file(p)
            for p in sm.collect_files([os.path.join(REPO, "src")])
        ]
        reg = rules_locks._Registry(files)
        for sf in files:
            for fn in sf.functions:
                ids = {
                    reg.resolve_mutex(sf, fn, m.group(1))
                    for m in rules_locks.ACQUIRE_RE.finditer(sf.body(fn))
                }
                if ids:
                    reg.direct_acqs[id(fn)] = ids
        observed = set()
        for sf in files:
            for fn in sf.functions:
                _acqs, edges = rules_locks._scan_function(reg, sf, fn)
                observed |= {(e.src, e.dst) for e in edges}
        for edge in default_manifest()["allowed_edges"]:
            self.assertIn(tuple(edge), observed)

    def test_leaf_mutexes_are_declared_in_src(self):
        # A renamed or deleted leaf would make its manifest entry vacuous.
        files = [
            sm.parse_file(p)
            for p in sm.collect_files([os.path.join(REPO, "src")])
        ]
        declared = set()
        for quals in rules_locks._Registry(files).mutexes.values():
            declared |= quals
        for leaf in default_manifest()["leaf_mutexes"]:
            self.assertIn(leaf, declared)

    def test_relaxed_sites_in_src_are_all_justified(self):
        # Every memory_order_relaxed in src/ carries a relaxed-ok reason —
        # the audit half of the rule, asserted directly.
        findings = analyze([os.path.join(REPO, "src")], default_manifest())
        self.assertEqual(
            [], [f.render() for f in findings if f.rule == "relaxed-audit"]
        )


class PlantedViolation(unittest.TestCase):
    """Hash order fed back into the oracle input must be caught: the analyzer
    guards framework.cpp's H' construction, not just the fixtures. The H'
    sweep dedups structure pairs by sorting a flat keyed vector; each test
    swaps that block, in a scratch copy, for a dedup through a hash map."""

    FIXED = """\
    std::sort(keyed_.begin(), keyed_.end(),
              [](const KeyedArc& x, const KeyedArc& y) {
                return x.key != y.key ? x.key < y.key : x.seq < y.seq;
              });
    keyed_.erase(std::unique(keyed_.begin(), keyed_.end(),
                             [](const KeyedArc& x, const KeyedArc& y) {
                               return x.key == y.key;
                             }),
                 keyed_.end());
    h_.n = static_cast<std::int32_t>(nodes_.size());
    h_.edges.clear();
    for (const KeyedArc& k : keyed_)
      h_.edges.emplace_back(static_cast<std::int32_t>(k.key >> 31),
                            static_cast<std::int32_t>(k.key & ((1LL << 31) - 1)));
"""
    HASH_DEDUP = """\
    std::unordered_map<std::int64_t, KeyedArc> pair_witness;
    for (const KeyedArc& k : keyed_) pair_witness.emplace(k.key, k);
    h_.n = static_cast<std::int32_t>(nodes_.size());
    h_.edges.clear();
"""
    # The hash map's iteration order goes straight into the edge list.
    DIRECT = HASH_DEDUP + """\
    for (const auto& [key, k] : pair_witness) {
      (void)k;
      h_.edges.emplace_back(static_cast<std::int32_t>(key >> 31),
                            static_cast<std::int32_t>(key & ((1LL << 31) - 1)));
    }
"""
    SORT = "    std::sort(keys.begin(), keys.end());\n"
    # Collect the keys, sort them, emit: hash order never escapes.
    COLLECT_THEN_SORT = HASH_DEDUP + """\
    std::vector<std::int64_t> keys;
    keys.reserve(pair_witness.size());
    for (const auto& [key, k] : pair_witness) {
      (void)k;
      keys.push_back(key);
    }
""" + SORT + """\
    for (const std::int64_t key : keys)
      h_.edges.emplace_back(static_cast<std::int32_t>(key >> 31),
                            static_cast<std::int32_t>(key & ((1LL << 31) - 1)));
"""

    def taint_findings(self, replacement):
        src = os.path.join(REPO, "src", "core", "framework.cpp")
        with open(src, encoding="utf-8") as f:
            text = f.read()
        self.assertIn(
            self.FIXED, text,
            "framework.cpp's H' dedup changed shape; update the "
            "planted-violation template alongside it",
        )
        scratch = tempfile.mkdtemp(prefix="bmf_analyzer_planted_")
        try:
            planted_dir = os.path.join(scratch, "src", "core")
            os.makedirs(planted_dir)
            planted = os.path.join(planted_dir, "framework.cpp")
            with open(planted, "w", encoding="utf-8") as f:
                f.write(text.replace(self.FIXED, replacement))
            findings = analyze([planted], default_manifest())
        finally:
            shutil.rmtree(scratch)
        return [f.render() for f in findings if f.rule == "unordered-order-taint"]

    def test_hash_ordered_edges_are_caught(self):
        self.assertTrue(self.taint_findings(self.DIRECT))

    def test_unsorting_is_caught_even_via_the_collect_vector(self):
        # The collect-then-sort dedup is clean; dropping only its sort line
        # lets hash order through the collect vector and must be caught.
        self.assertEqual([], self.taint_findings(self.COLLECT_THEN_SORT))
        no_sort = self.COLLECT_THEN_SORT.replace(self.SORT, "")
        self.assertNotEqual(no_sort, self.COLLECT_THEN_SORT)
        self.assertTrue(self.taint_findings(no_sort))


if __name__ == "__main__":
    unittest.main()
