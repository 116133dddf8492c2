#!/usr/bin/env python3
"""Self-test for gva_lint.py: every rule must fire on its seeded fixture
(the deliberately-violating files under testdata/src/) and stay quiet on the
clean fixture. Run directly or via `ctest -L lint`."""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gva_lint  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


def findings_for(rel_path: str) -> list[gva_lint.Finding]:
    full = os.path.join(TESTDATA, rel_path)
    return gva_lint.lint_file(full, rel_path)


def rules_of(findings: list[gva_lint.Finding]) -> list[str]:
    return [f.rule for f in findings]


class DeterminismRngRule(unittest.TestCase):
    def test_every_pattern_fires_once(self) -> None:
        findings = findings_for("src/core/bad_rng.cc")
        self.assertEqual(rules_of(findings), ["determinism-rng"] * 5)
        messages = "\n".join(f.message for f in findings)
        for label in ("rand()", "srand()", "time(nullptr)",
                      "std::chrono::system_clock", "std::random_device"):
            self.assertIn(label, messages)

    def test_suppression_and_prose_do_not_fire(self) -> None:
        findings = findings_for("src/core/bad_rng.cc")
        flagged_lines = {f.line for f in findings}
        lines = open(os.path.join(TESTDATA, "src/core/bad_rng.cc"),
                     encoding="utf-8").read().splitlines()
        for i, line in enumerate(lines, 1):
            if "allow(determinism-rng)" in line or "ProseIsFine" in line:
                self.assertNotIn(i, flagged_lines)

    def test_outside_deterministic_dirs_is_exempt(self) -> None:
        # The same content under src/viz (not a scored subsystem) is legal.
        full = os.path.join(TESTDATA, "src/core/bad_rng.cc")
        lines = open(full, encoding="utf-8").read().splitlines()
        self.assertEqual(
            gva_lint.check_determinism_rng(full, "src/viz/bad_rng.cc", lines),
            [])


class DeterminismClockRule(unittest.TestCase):
    """Monotonic clocks in streaming/scoring paths: time-driven decisions
    (report cadence, eviction) make stream replay diverge from batch."""

    def test_monotonic_clocks_fire(self) -> None:
        findings = findings_for("src/core/bad_stream_clock.cc")
        self.assertEqual(rules_of(findings), ["determinism-rng"] * 2)
        messages = "\n".join(f.message for f in findings)
        self.assertIn("std::chrono::steady_clock", messages)
        self.assertIn("std::chrono::high_resolution_clock", messages)

    def test_observability_waiver_and_prose_do_not_fire(self) -> None:
        findings = findings_for("src/core/bad_stream_clock.cc")
        flagged_lines = {f.line for f in findings}
        lines = open(os.path.join(TESTDATA, "src/core/bad_stream_clock.cc"),
                     encoding="utf-8").read().splitlines()
        for i, line in enumerate(lines, 1):
            if "allow(determinism-rng)" in line or "ProseIsFine" in line:
                self.assertNotIn(i, flagged_lines)

    def test_streaming_sources_stay_clean(self) -> None:
        # The real streaming engine must never need a clock waiver: its
        # cadence and eviction are sample-counted, not time-driven.
        root = os.path.normpath(os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", ".."))
        for rel in ("src/core/streaming.cc", "src/core/streaming.h",
                    "src/sax/sax_transform.cc", "src/sax/sax_transform.h"):
            full = os.path.join(root, rel)
            lines = open(full, encoding="utf-8").read().splitlines()
            self.assertEqual(
                gva_lint.check_determinism_rng(full, rel, lines), [],
                f"{rel} must not read wall clocks")


class UnorderedIterationRule(unittest.TestCase):
    def test_local_param_and_member_all_fire(self) -> None:
        findings = findings_for("src/core/bad_unordered.cc")
        self.assertEqual(rules_of(findings), ["unordered-iteration"] * 3)

    def test_suppressed_line_does_not_fire(self) -> None:
        findings = findings_for("src/core/bad_unordered.cc")
        lines = open(os.path.join(TESTDATA, "src/core/bad_unordered.cc"),
                     encoding="utf-8").read().splitlines()
        for f in findings:
            self.assertNotIn("allow(unordered-iteration)", lines[f.line - 1])


class StatusSwallowRule(unittest.TestCase):
    """Discarding an error Status without examining it: the streaming
    example's pre-fix `if (!report.ok()) continue;` bug class."""

    def test_bare_discards_fire(self) -> None:
        findings = findings_for("src/core/bad_swallow.cc")
        self.assertEqual(rules_of(findings), ["status-swallow"] * 2)

    def test_examined_propagated_and_suppressed_do_not_fire(self) -> None:
        findings = findings_for("src/core/bad_swallow.cc")
        flagged_lines = {f.line for f in findings}
        lines = open(os.path.join(TESTDATA, "src/core/bad_swallow.cc"),
                     encoding="utf-8").read().splitlines()
        for i, line in enumerate(lines, 1):
            if ("IsFine" in line or "status().code()" in line
                    or "allow(status-swallow)" in line):
                self.assertNotIn(i, flagged_lines)

    def test_the_fixed_example_stays_clean(self) -> None:
        # The regression pin for the examples/streaming_monitor.cpp bugfix:
        # the pre-fix source (blanket `if (!report.ok()) continue;`) is
        # exactly what this rule flags, so reintroducing it fails
        # lint.gva_lint (the examples/ tree is on the default surface).
        root = os.path.normpath(os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", ".."))
        rel = "examples/streaming_monitor.cpp"
        full = os.path.join(root, rel)
        lines = open(full, encoding="utf-8").read().splitlines()
        self.assertEqual(gva_lint.check_status_swallow(full, rel, lines), [])
        pre_fix = [
            "    auto report = monitor->Report();",
            "    if (!report.ok()) {",
            "      continue;  // not enough data yet",
            "    }",
        ]
        self.assertEqual(
            [f.rule for f in gva_lint.check_status_swallow(
                full, rel, pre_fix)],
            ["status-swallow"])


class SpanNamingRule(unittest.TestCase):
    def test_bad_names_and_non_literal_fire(self) -> None:
        findings = findings_for("src/discord/bad_span.cc")
        self.assertEqual(rules_of(findings), ["span-naming"] * 3)
        messages = "\n".join(f.message for f in findings)
        self.assertIn('"induce"', messages)
        self.assertIn('"Grammar.Induce"', messages)
        self.assertIn("string literal", messages)


class CheckInHeaderRule(unittest.TestCase):
    def test_bare_check_family_fires_in_header(self) -> None:
        findings = findings_for("src/grammar/bad_check.h")
        self.assertEqual(rules_of(findings), ["check-in-header"] * 3)

    def test_cc_files_are_exempt(self) -> None:
        full = os.path.join(TESTDATA, "src/grammar/bad_check.h")
        lines = open(full, encoding="utf-8").read().splitlines()
        self.assertEqual(
            gva_lint.check_check_in_header(full, "src/grammar/bad_check.cc",
                                           lines),
            [])


class IncludeHygieneRules(unittest.TestCase):
    def test_self_include_not_first_fires(self) -> None:
        findings = findings_for("src/sax/bad_include_order.cc")
        self.assertEqual(rules_of(findings), ["include-self-first"])
        self.assertIn("bad_include_order.h", findings[0].message)

    def test_bits_include_fires(self) -> None:
        findings = findings_for("src/timeseries/bad_bits.cc")
        self.assertEqual(rules_of(findings), ["include-bits"])


class SimdIntrinsicsRule(unittest.TestCase):
    """ISA-specific code outside src/backend/ bypasses the runtime
    capability gate and the per-file ISA compile flags."""

    def test_headers_intrinsics_and_types_fire(self) -> None:
        findings = findings_for("src/discord/bad_simd.cc")
        self.assertEqual(rules_of(findings), ["simd-intrinsics"] * 6)
        messages = "\n".join(f.message for f in findings)
        self.assertIn("vector-intrinsics header", messages)
        self.assertIn("x86 vector", messages)
        self.assertIn("NEON vector", messages)

    def test_prose_strings_and_suppression_do_not_fire(self) -> None:
        findings = findings_for("src/discord/bad_simd.cc")
        flagged_lines = {f.line for f in findings}
        lines = open(os.path.join(TESTDATA, "src/discord/bad_simd.cc"),
                     encoding="utf-8").read().splitlines()
        for i, line in enumerate(lines, 1):
            if ("ProseIsFine" in line or "kDoc" in line
                    or "allow(simd-intrinsics)" in line):
                self.assertNotIn(i, flagged_lines)

    def test_backend_tree_is_exempt(self) -> None:
        # The identical content under src/backend/ is the one legal home.
        full = os.path.join(TESTDATA, "src/discord/bad_simd.cc")
        lines = open(full, encoding="utf-8").read().splitlines()
        self.assertEqual(
            gva_lint.check_simd_intrinsics(full, "src/backend/simd.cc",
                                           lines),
            [])

    def test_real_backend_sources_are_the_only_intrinsic_users(self) -> None:
        # The dispatch refactor's point: nothing outside src/backend/ in the
        # real tree touches an intrinsic, so the default lint surface stays
        # clean without suppressions.
        root = os.path.normpath(os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", ".."))
        for rel in ("src/discord/distance.cc", "src/sax/sax_transform.cc",
                    "examples/gva_cli.cpp"):
            full = os.path.join(root, rel)
            lines = open(full, encoding="utf-8").read().splitlines()
            self.assertEqual(
                gva_lint.check_simd_intrinsics(full, rel, lines), [],
                f"{rel} must dispatch through backend::ActiveBackend()")


class SignalSafetyRule(unittest.TestCase):
    """Allocation, stdio, or locks inside a *SignalHandler* function: the
    flight recorder's fatal-signal dump runs in async-signal context where
    only write/open/close/raise are legal."""

    def test_alloc_stdio_and_lock_fire(self) -> None:
        findings = findings_for("src/obs/bad_signal_handler.cc")
        self.assertEqual(rules_of(findings), ["signal-safety"] * 4)
        messages = "\n".join(f.message for f in findings)
        self.assertIn("allocating std type", messages)
        self.assertIn("stdio call", messages)
        self.assertIn("heap allocation", messages)
        self.assertIn("lock primitive", messages)
        for f in findings:
            self.assertIn("CrashSignalHandler", f.message)

    def test_safe_suppressed_and_non_handler_do_not_fire(self) -> None:
        findings = findings_for("src/obs/bad_signal_handler.cc")
        flagged_lines = {f.line for f in findings}
        full = os.path.join(TESTDATA, "src/obs/bad_signal_handler.cc")
        lines = open(full, encoding="utf-8").read().splitlines()
        in_crash = False
        for i, line in enumerate(lines, 1):
            if "CrashSignalHandler" in line:
                in_crash = True
            elif line.startswith("void "):
                in_crash = False
            if not in_crash:
                self.assertNotIn(i, flagged_lines,
                                 f"line {i} flagged outside the bad handler")

    def test_tests_tree_is_exempt(self) -> None:
        full = os.path.join(TESTDATA, "src/obs/bad_signal_handler.cc")
        lines = open(full, encoding="utf-8").read().splitlines()
        self.assertEqual(
            gva_lint.check_signal_safety(
                full, "tests/obs/bad_signal_handler.cc", lines),
            [])

    def test_real_flight_handler_is_clean(self) -> None:
        # The regression pin for src/obs/recorder.cc: its fatal-signal
        # handler promises (in a comment) that this rule machine-checks it.
        root = os.path.normpath(os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", ".."))
        rel = "src/obs/recorder.cc"
        full = os.path.join(root, rel)
        lines = open(full, encoding="utf-8").read().splitlines()
        self.assertEqual(gva_lint.check_signal_safety(full, rel, lines), [],
                         "the flight-dump signal handler must stay "
                         "async-signal-safe")
        # And the rule genuinely watches that file: seeding a printf into
        # the handler body is caught.
        seeded = []
        for line in lines:
            seeded.append(line)
            if "void FlightSignalHandler(int signum) {" in line:
                seeded.append('  std::printf("crash\\n");')
        self.assertEqual(
            [f.rule for f in gva_lint.check_signal_safety(
                full, rel, seeded)],
            ["signal-safety"])


class FpValueFlagsRule(unittest.TestCase):
    """Value-changing floating-point options: the SAX kernel's per-file
    flags are value-preserving, and its words bit-identical to the
    reference path, only while none of these reaches a translation unit."""

    FLAGS = ("-ffast-math", "-Ofast", "-ffinite-math-only",
             "-funsafe-math-optimizations", "-fassociative-math",
             "-freciprocal-math", "-fno-signed-zeros", "-ffp-contract=fast")

    def test_every_cmake_option_fires_once(self) -> None:
        findings = findings_for("cmake/CMakeLists.txt")
        self.assertEqual(rules_of(findings), ["fp-value-flags"] * 8)
        messages = [f.message for f in findings]
        for flag in self.FLAGS:
            self.assertEqual(
                sum(m.startswith(flag + " ") for m in messages), 1, flag)

    def test_cmake_comments_safe_options_and_waiver_do_not_fire(self) -> None:
        findings = findings_for("cmake/CMakeLists.txt")
        flagged_lines = {f.line for f in findings}
        lines = open(os.path.join(TESTDATA, "cmake/CMakeLists.txt"),
                     encoding="utf-8").read().splitlines()
        for i, line in enumerate(lines, 1):
            if (line.lstrip().startswith("#") or "allow(fp-value-flags)" in line
                    or "-fno-math-errno" in line or "=off" in line):
                self.assertNotIn(i, flagged_lines)

    def test_pragmas_and_attributes_fire(self) -> None:
        findings = findings_for("src/sax/bad_fp_flags.cc")
        self.assertEqual(rules_of(findings), ["fp-value-flags"] * 3)
        lines = open(os.path.join(TESTDATA, "src/sax/bad_fp_flags.cc"),
                     encoding="utf-8").read().splitlines()
        flagged_lines = {f.line for f in findings}
        for i, line in enumerate(lines, 1):
            self.assertEqual(i in flagged_lines, "// finding" in line, line)

    def test_driver_always_scans_the_cmake_files(self) -> None:
        # Whatever source paths are given, a value-changing option in a
        # CMake file under src/ fails the run.
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src"))
            with open(os.path.join(root, "src", "ok.cc"), "w",
                      encoding="utf-8") as f:
                f.write("int x = 0;\n")
            self.assertEqual(gva_lint.main(["--root", root, "src"]), 0)
            with open(os.path.join(root, "src", "CMakeLists.txt"), "w",
                      encoding="utf-8") as f:
                f.write("add_compile_options(-ffast-math)\n")
            self.assertEqual(gva_lint.main(["--root", root, "src"]), 1)

    def test_real_cmake_files_are_clean(self) -> None:
        root = os.path.normpath(os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", ".."))
        scanned = gva_lint.cmake_files(root)
        rels = {rel for _, rel in scanned}
        for rel in ("CMakeLists.txt", "src/CMakeLists.txt",
                    "bench/pipeline_bench/CMakeLists.txt",
                    "tests/CMakeLists.txt", "tools/lint/CMakeLists.txt"):
            self.assertIn(rel, rels)
        self.assertFalse(any("testdata" in rel for rel in rels))
        for full, rel in scanned:
            self.assertEqual(gva_lint.lint_file(full, rel), [], rel)


class CleanFixture(unittest.TestCase):
    def test_clean_pair_has_no_findings(self) -> None:
        self.assertEqual(findings_for("src/ensemble/clean.cc"), [])
        self.assertEqual(findings_for("src/ensemble/clean.h"), [])


class DriverBehaviour(unittest.TestCase):
    def test_main_exit_codes(self) -> None:
        # Over the violating fixture tree: findings, exit 1.
        self.assertEqual(gva_lint.main(["--root", TESTDATA, "src"]), 1)
        # Over the clean subtree only: exit 0.
        self.assertEqual(
            gva_lint.main(["--root", TESTDATA, "src/ensemble"]), 0)

    def test_fixture_tree_total(self) -> None:
        # One place asserting the full seeded-violation inventory: if a rule
        # regresses to never firing, this count drops and the suite fails.
        total = []
        for dirpath, _, filenames in os.walk(os.path.join(TESTDATA, "src")):
            for name in sorted(filenames):
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, TESTDATA)
                total.extend(gva_lint.lint_file(full, rel))
        by_rule: dict[str, int] = {}
        for f in total:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        self.assertEqual(by_rule, {
            "determinism-rng": 7,
            "unordered-iteration": 3,
            "status-swallow": 2,
            "span-naming": 3,
            "check-in-header": 3,
            "include-self-first": 1,
            "include-bits": 1,
            "simd-intrinsics": 6,
            "signal-safety": 4,
            "fp-value-flags": 3,
        })


if __name__ == "__main__":
    unittest.main()
