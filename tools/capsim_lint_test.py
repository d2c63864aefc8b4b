#!/usr/bin/env python3
"""Unit tests for tools/capsim-lint, run over the fixture trees in
tools/lint_fixtures/. Registered with CTest as `capsim_lint_selftest`."""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "capsim-lint")
FIXTURES = os.path.join(HERE, "lint_fixtures")
REPO_ROOT = os.path.dirname(HERE)


def run_lint(root, *paths):
    proc = subprocess.run(
        [sys.executable, LINT, "--repo-root", root, *paths],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout


class BadFixtureTest(unittest.TestCase):
    """Every rule must fire, on the expected lines, in the bad tree."""

    @classmethod
    def setUpClass(cls):
        cls.code, cls.out = run_lint(os.path.join(FIXTURES, "bad"))

    def findings(self, rule):
        return [l for l in self.out.splitlines() if "[%s]" % rule in l]

    def test_exit_code_signals_findings(self):
        self.assertEqual(self.code, 1, self.out)

    def test_raw_assert(self):
        hits = self.findings("raw-assert")
        self.assertEqual(len(hits), 2, self.out)
        self.assertTrue(any("model.cpp:11" in h for h in hits), self.out)
        self.assertTrue(any("model.cpp:12" in h for h in hits), self.out)

    def test_determinism(self):
        hits = self.findings("determinism")
        self.assertEqual(len(hits), 3, self.out)

    def test_float_equality(self):
        hits = self.findings("float-equality")
        self.assertEqual(len(hits), 1, self.out)
        self.assertIn("model.cpp:25", hits[0])

    def test_counter_registry_missing_visitor(self):
        hits = self.findings("counter-registry")
        self.assertTrue(any("OrphanStats" in h for h in hits), self.out)

    def test_counter_registry_unlisted_fields(self):
        hits = self.findings("counter-registry")
        self.assertTrue(
            any("PartialStats::forgotten " in h or
                "PartialStats::forgotten is" in h for h in hits), self.out)
        self.assertTrue(
            any("PartialStats::forgotten_cycles" in h for h in hits),
            self.out)
        self.assertEqual(
            len([h for h in hits if "stats_bad.hpp" in h]), 3, self.out)

    def test_counter_registry_one_definition(self):
        hits = [h for h in self.findings("counter-registry")
                if "stats_own_group.hpp" in h]
        # A hand-written merge beside the base; a struct with no base and a
        # hand-written visit; a struct deriving another group's base.
        for line, what in ((19, "HandMergeStats defines its own merge()"),
                           (23, "BaselessStats declares counters but does "
                                "not derive"),
                           (32, "BaselessStats defines its own "
                                "for_each_counter()"),
                           (39, "BorrowedStats declares counters but does "
                                "not derive")):
            self.assertTrue(
                any("stats_own_group.hpp:%d" % line in h and what in h
                    for h in hits), self.out)
        self.assertEqual(len(hits), 4, self.out)
        self.assertEqual(len(self.findings("counter-registry")), 7, self.out)

    def test_dead_counter(self):
        hits = self.findings("dead-counter")
        # Never named outside the struct, or named only in a comment and a
        # string; PartialStats::listed, registered and unused, is dead too.
        self.assertTrue(
            any("stats_dead.hpp:11" in h and "DeadStats::never_written" in h
                for h in hits), self.out)
        self.assertTrue(
            any("stats_dead.hpp:12" in h and "DeadStats::only_in_comment" in h
                for h in hits), self.out)
        self.assertTrue(
            any("PartialStats::listed" in h for h in hits), self.out)
        # A counter written in another file is live.
        self.assertFalse(
            any("DeadStats::written " in h for h in hits), self.out)
        self.assertEqual(len(hits), 3, self.out)

    def test_sleep_ledger(self):
        hits = self.findings("sleep-ledger")
        # Plain, const and brace-initialised members, also in a nested
        # struct; the Cycle member and the array of structs are not.
        for line in (10, 11, 16):
            self.assertTrue(
                any("hand_ledger.hpp:%d" % line in h for h in hits),
                self.out)
        self.assertEqual(len(hits), 3, self.out)

    def test_hot_path_function(self):
        hits = self.findings("hot-path-function")
        # Plain and brace-initialised predicates, a member of a nested
        # struct and a member whose type spans lines, reported where its
        # name is; the u32 member and the struct-typed member are not.
        for line, name in ((12, "eligible_"), (13, "waiting_mem_"),
                           (17, "on_done"), (22, "make_hooks")):
            self.assertTrue(
                any("predicate_member.hpp:%d" % line in h and name in h
                    for h in hits), self.out)
        self.assertEqual(len(hits), 4, self.out)

    def test_include_cpp(self):
        hits = self.findings("include-cpp")
        self.assertEqual(len(hits), 1, self.out)
        self.assertIn("include_cpp_test.cpp", hits[0])

    def test_leading_marker(self):
        hits = self.findings("leading-marker")
        self.assertEqual(len(hits), 3, self.out)
        self.assertTrue(
            any("marker_write.cpp:7" in h for h in hits), self.out)
        self.assertTrue(
            any("marker_write.cpp:9" in h for h in hits), self.out)
        # The rule is not src/-only: test code must also use the protocol.
        self.assertTrue(
            any("marker_write_test.cpp:6" in h for h in hits), self.out)

    def test_sweep_executor(self):
        hits = self.findings("sweep-executor")
        self.assertEqual(len(hits), 3, self.out)
        # Both call sites in the bench driver...
        self.assertTrue(
            any("fig_fixture.cpp:9" in h for h in hits), self.out)
        self.assertTrue(
            any("fig_fixture.cpp:11" in h for h in hits), self.out)
        # ...and the rule covers tools/ too.
        self.assertTrue(
            any("tool_fixture.cpp:7" in h for h in hits), self.out)

    def test_pattern_literal(self):
        hits = self.findings("pattern-literal")
        self.assertEqual(len(hits), 3, self.out)
        for line in (9, 10, 11):
            self.assertTrue(
                any("kernels_fixture.cpp:%d" % line in h for h in hits),
                self.out)


class CleanFixtureTest(unittest.TestCase):
    """Near-miss patterns, exempt paths, and allow() suppressions pass."""

    def test_clean_tree_has_no_findings(self):
        code, out = run_lint(os.path.join(FIXTURES, "clean"))
        self.assertEqual(code, 0, out)
        self.assertIn("clean", out)


class RealTreeTest(unittest.TestCase):
    """The actual repository must stay lint-clean (the CI gate)."""

    def test_repository_is_clean(self):
        code, out = run_lint(REPO_ROOT)
        self.assertEqual(code, 0, out)


class UsageTest(unittest.TestCase):
    def test_missing_inputs_is_a_usage_error(self):
        code, _ = run_lint(os.path.join(FIXTURES, "does-not-exist"))
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
