#!/usr/bin/env python3
"""gva_lint: project-specific static checks clang-tidy cannot express.

The repo's correctness story rests on invariants that are conventions, not
types: scoring paths must be deterministic, reductions must not depend on
hash-table iteration order, observability spans follow a naming scheme, and
library headers must not abort through unprefixed macros. This lint makes
those conventions machine-checked. Run as:

    python3 tools/lint/gva_lint.py [--root REPO_ROOT] [paths...]

With no paths it checks the default surface (src/ and examples/). Exit
code 0 means no
findings; 1 means findings were printed, one per line, in
`path:line: [rule] message` form.

Suppressions: append `// gva-lint: allow(<rule>)` to the offending line.
Every suppression is a documented exception — the comment survives review.

Rules
-----
determinism-rng      rand()/std::rand/srand/time(nullptr)/system_clock/
                     steady_clock/high_resolution_clock/random_device in
                     deterministic subsystems
                     (src/{core,discord,grammar,sax,ensemble,timeseries}).
                     Scores must be replayable; wall clocks and global RNG
                     state are not — a clock read that feeds an eviction or
                     report decision makes streaming replay diverge. Use
                     util/rng.h (seeded), count samples instead of seconds,
                     or suppress with a comment proving the value only
                     feeds observability (timings exported via obs).
unordered-iteration  range-for over a std::unordered_{map,set} in the same
                     deterministic subsystems. Iteration order is
                     implementation-defined; anything it feeds (sums, best-
                     candidate reductions, output ordering) silently loses
                     the bit-identical-results contract. Iterate a sorted
                     copy or an index vector instead.
status-swallow       an `if (!x.ok())` branch (src/ and examples/) whose
                     body discards the error — bare continue/break/return —
                     without examining it (.code()/.status()/print/record).
                     Swallowing a Status turns real failures into silent
                     no-ops; the streaming example once treated every
                     Report() error as "not enough data yet" this way.
                     Branch on status().code() for the benign case and
                     fail loudly otherwise.
span-naming          GVA_OBS_SPAN names must be dotted lowercase
                     "subsystem.verb" (e.g. "grammar.sequitur.induce") so
                     trace files and stage metrics aggregate predictably.
check-in-header      bare CHECK(/DCHECK( (no GVA_ prefix) in headers under
                     src/. Library headers ship to users; only the
                     namespaced GVA_CHECK family may abort.
include-self-first   a .cc file's first #include must be its own header,
                     proving the header is self-contained.
include-bits         #include <bits/...> is libstdc++ internals; spell the
                     real header.
simd-intrinsics      vector-intrinsic headers (immintrin.h, arm_neon.h, ...)
                     or identifiers (_mm*, v*q_f64, __m256d, float64x2_t)
                     outside src/backend/. ISA-specific code must live
                     behind the dispatch table (backend::ActiveBackend());
                     an intrinsic inlined elsewhere skips the runtime
                     capability gate (SIGILL on older hardware), dodges the
                     per-file -mavx2 isolation, and is invisible to the
                     backend differential suite.
fp-value-flags       floating-point options that can change a computed
                     value (-ffast-math, -Ofast, -ffinite-math-only,
                     -funsafe-math-optimizations, -fassociative-math,
                     -freciprocal-math, -fno-signed-zeros,
                     -ffp-contract=fast) in the root CMakeLists.txt, in the
                     CMake files under src/, bench/, tests/ and tools/
                     (always scanned, whatever paths are given), and in
                     `#pragma GCC optimize` / `optimize(...)` attributes in
                     sources. The SAX kernel's bit-identity with its
                     reference path, and the flags its file does take
                     (-fno-math-errno, -fno-trapping-math, which change no
                     value), rest on none of these reaching a TU.
signal-safety        allocation (malloc/new/std::string/containers), stdio
                     (printf/fopen/iostream), or locks (std::mutex,
                     lock_guard, condition_variable) inside a function whose
                     name contains "SignalHandler". Such functions run in
                     async-signal context (the flight recorder's fatal-signal
                     dump, DESIGN.md §12): only async-signal-safe syscalls
                     (write/open/close/raise) and hand-rolled formatting are
                     legal — a malloc inside a handler that interrupted
                     malloc deadlocks, and iostream locks are not
                     reentrant.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# Subsystems whose outputs must be bit-reproducible across runs, thread
# counts, and platforms (the determinism contract in DESIGN.md §5b).
DETERMINISTIC_DIRS = (
    "src/core",
    "src/discord",
    "src/grammar",
    "src/sax",
    "src/ensemble",
    "src/timeseries",
)

ALLOW_RE = re.compile(r"//\s*gva-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
LINE_COMMENT_RE = re.compile(r"//.*$")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed_rules(line: str) -> set[str]:
    m = ALLOW_RE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def strip_strings_and_comments(line: str) -> str:
    """Removes string literal contents and // comments so pattern rules do
    not fire on prose. Char literals and raw strings are approximated —
    good enough for the patterns checked here."""
    out = []
    i = 0
    in_str = None
    while i < len(line):
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
                out.append(c)
            i += 1
            continue
        if c in ("\"", "'"):
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and line[i : i + 2] == "//":
            break
        out.append(c)
        i += 1
    return "".join(out)


# --- rule: determinism-rng --------------------------------------------------

RNG_PATTERNS = [
    (re.compile(r"(?<![\w.:])(?:std::)?rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"(?<![\w.:])(?:std::)?srand\s*\("), "srand()"),
    (re.compile(r"(?<![\w.:])(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time(nullptr)"),
    (re.compile(r"std::chrono::system_clock"), "std::chrono::system_clock"),
    # Monotonic clocks are fine for *observability* (suppress with a comment
    # saying so) but not for logic: anything time-driven — eviction, report
    # cadence, retry — replays differently, and the streaming engine's
    # contract is that replaying a stream reproduces the batch result
    # bit-for-bit. Count samples, not seconds.
    (re.compile(r"std::chrono::steady_clock"), "std::chrono::steady_clock"),
    (re.compile(r"std::chrono::high_resolution_clock"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"(?<![\w.:])(?:std::)?random_device"), "std::random_device"),
]


def check_determinism_rng(path: str, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith(DETERMINISTIC_DIRS):
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        if "determinism-rng" in allowed_rules(raw):
            continue
        code = strip_strings_and_comments(raw)
        for pattern, label in RNG_PATTERNS:
            if pattern.search(code):
                findings.append(Finding(
                    rel, i, "determinism-rng",
                    f"{label} in a deterministic subsystem; scoring paths "
                    "must be replayable — use util/rng.h (seeded) or take "
                    "the value as a parameter"))
    return findings


# --- rule: unordered-iteration ----------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*>\s*"
    r"(&?\s*)(\w+)\s*[;={(,)]")
RANGE_FOR_RE = re.compile(r"for\s*\(.*?:\s*(\*?\s*[\w.\->]+?)\s*\)")


def check_unordered_iteration(path: str, rel: str,
                              lines: list[str]) -> list[Finding]:
    if not rel.startswith(DETERMINISTIC_DIRS):
        return []
    # Pass 1: names declared (anywhere in the file) with an unordered type.
    unordered_names: set[str] = set()
    for raw in lines:
        code = strip_strings_and_comments(raw)
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(2))
    if not unordered_names:
        return []
    # Pass 2: range-for statements whose range expression resolves to one of
    # those names (directly, or via ->name / .name member access).
    findings = []
    for i, raw in enumerate(lines, 1):
        if "unordered-iteration" in allowed_rules(raw):
            continue
        code = strip_strings_and_comments(raw)
        for m in RANGE_FOR_RE.finditer(code):
            expr = m.group(1).lstrip("*").strip()
            terminal = re.split(r"\.|->", expr)[-1]
            if terminal in unordered_names:
                findings.append(Finding(
                    rel, i, "unordered-iteration",
                    f"range-for over unordered container '{terminal}': "
                    "iteration order is implementation-defined and breaks "
                    "the bit-identical-results contract — iterate a sorted "
                    "copy, or suppress with a comment proving order cannot "
                    "reach a score/reduction/output"))
    return findings


# --- rule: status-swallow -----------------------------------------------------

STATUS_IF_RE = re.compile(r"if\s*\(\s*!\s*[\w.>-]+?(?:\.|->)ok\s*\(\s*\)\s*\)")
DISCARD_STMT_RE = re.compile(
    r"^\s*(?:continue|break|return(?:\s+(?:0|false|true|nullptr|\{\s*\}))?)"
    r"\s*;", re.MULTILINE)
# Any of these in the branch body means the error was examined, printed,
# recorded, or propagated rather than dropped. (A `return <expr>;` that
# isn't in the trivial-discard set above never fires the rule at all, so
# propagating returns need no entry here.)
EXAMINED_RE = re.compile(
    r"code\s*\(|status\s*\(|ToString|printf|fprintf|cerr|cout|abort|throw|"
    r"[Ll]og|[Ee]rror")


def check_status_swallow(path: str, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith(("src/", "examples/")):
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        code = strip_strings_and_comments(raw)
        m = STATUS_IF_RE.search(code)
        if not m:
            continue
        # Collect the branch body: the remainder of this line, plus following
        # lines until the opening brace balances (braceless ifs take the next
        # line). Good enough for the formatted code this repo contains.
        body_lines = [code[m.end():]]
        depth = body_lines[0].count("{") - body_lines[0].count("}")
        end = i  # 0-based index just past the last body line consumed
        if "{" not in body_lines[0]:
            if not body_lines[0].strip() and end < len(lines):
                body_lines.append(strip_strings_and_comments(lines[end]))
                end += 1
        else:
            while depth > 0 and end < len(lines):
                nxt = strip_strings_and_comments(lines[end])
                end += 1
                body_lines.append(nxt)
                depth += nxt.count("{") - nxt.count("}")
        if any("status-swallow" in allowed_rules(lines[k])
               for k in range(i - 1, min(end, len(lines)))):
            continue
        body = "\n".join(body_lines)
        if EXAMINED_RE.search(body):
            continue
        if DISCARD_STMT_RE.search(body):
            findings.append(Finding(
                rel, i, "status-swallow",
                "error Status discarded without being examined: branch on "
                "status().code() for the benign case (e.g. "
                "kFailedPrecondition = not enough data yet) and print/"
                "propagate everything else — or suppress with a comment "
                "saying why every failure here is ignorable"))
    return findings


# --- rule: span-naming --------------------------------------------------------

SPAN_CALL_RE = re.compile(r"GVA_OBS_SPAN\s*\(\s*(\"([^\"]*)\")?")
SPAN_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


def check_span_naming(path: str, rel: str, lines: list[str]) -> list[Finding]:
    if "obs/trace.h" in rel:  # the macro's own definition site
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        if "span-naming" in allowed_rules(raw):
            continue
        if re.match(r"\s*#\s*define\b", raw):  # macro definition site
            continue
        for m in SPAN_CALL_RE.finditer(raw):
            if m.group(1) is None:
                findings.append(Finding(
                    rel, i, "span-naming",
                    "GVA_OBS_SPAN name must be a string literal (trace "
                    "events keep the pointer, not a copy)"))
                continue
            name = m.group(2)
            if not SPAN_NAME_RE.match(name):
                findings.append(Finding(
                    rel, i, "span-naming",
                    f'span name "{name}" must be dotted lowercase '
                    '"subsystem.verb" (e.g. "grammar.sequitur.induce")'))
    return findings


# --- rule: check-in-header ----------------------------------------------------

BARE_CHECK_RE = re.compile(
    r"(?<![\w])(?<!GVA_)D?CHECK(?:_(?:EQ|NE|LT|LE|GT|GE|OK))?\s*\(")


def check_check_in_header(path: str, rel: str,
                          lines: list[str]) -> list[Finding]:
    if not (rel.startswith("src/") and rel.endswith(".h")):
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        if "check-in-header" in allowed_rules(raw):
            continue
        code = strip_strings_and_comments(raw)
        if BARE_CHECK_RE.search(code):
            findings.append(Finding(
                rel, i, "check-in-header",
                "bare CHECK()/DCHECK() in a shipped header; only the "
                "GVA_CHECK family (util/check.h) may abort from library "
                "code"))
    return findings


# --- rule: include-self-first -------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*(["<])([^">]+)[">]')


def check_include_self_first(path: str, rel: str,
                             lines: list[str]) -> list[Finding]:
    if not (rel.startswith("src/") and rel.endswith(".cc")):
        return []
    own_header = rel[len("src/"):-len(".cc")] + ".h"
    if not os.path.exists(os.path.join(os.path.dirname(path),
                                       os.path.basename(own_header))):
        return []  # no paired header (e.g. a main file): nothing to check
    for i, raw in enumerate(lines, 1):
        m = INCLUDE_RE.match(raw)
        if not m:
            continue
        if "include-self-first" in allowed_rules(raw):
            return []
        if m.group(1) == '"' and m.group(2) == own_header:
            return []
        return [Finding(
            rel, i, "include-self-first",
            f'first #include must be the file\'s own header "{own_header}" '
            "(proves the header is self-contained)")]
    return []


# --- rule: include-bits -------------------------------------------------------

BITS_RE = re.compile(r'#\s*include\s*<bits/')


def check_include_bits(path: str, rel: str, lines: list[str]) -> list[Finding]:
    findings = []
    for i, raw in enumerate(lines, 1):
        if "include-bits" in allowed_rules(raw):
            continue
        if BITS_RE.search(raw):
            findings.append(Finding(
                rel, i, "include-bits",
                "<bits/...> is libstdc++ internals; include the standard "
                "header instead"))
    return findings


# --- rule: simd-intrinsics ----------------------------------------------------

# The only tree allowed to contain ISA-specific code: its TUs get per-file
# ISA flags in src/CMakeLists.txt and its tables are gated by runtime
# cpuid checks before the registry hands them out.
SIMD_ALLOWED_DIRS = ("src/backend/",)

SIMD_PATTERNS = [
    (re.compile(
        r"#\s*include\s*[<\"](?:immintrin|x86intrin|emmintrin|smmintrin|"
        r"avxintrin|arm_neon)\.h[>\"]"),
     "vector-intrinsics header"),
    (re.compile(r"(?<![\w])_mm\d*_\w+"), "x86 vector intrinsic"),
    (re.compile(r"(?<![\w])__m(?:512|256|128)[di]?\b"), "x86 vector type"),
    (re.compile(r"(?<![\w])v\w+q_f64\b"), "NEON vector intrinsic"),
    (re.compile(r"(?<![\w])float64x[12]_t\b"), "NEON vector type"),
]


def check_simd_intrinsics(path: str, rel: str,
                          lines: list[str]) -> list[Finding]:
    if not rel.startswith(("src/", "examples/")):
        return []
    if rel.startswith(SIMD_ALLOWED_DIRS):
        return []
    findings = []
    for i, raw in enumerate(lines, 1):
        if "simd-intrinsics" in allowed_rules(raw):
            continue
        code = strip_strings_and_comments(raw)
        for pattern, label in SIMD_PATTERNS:
            if pattern.search(code):
                findings.append(Finding(
                    rel, i, "simd-intrinsics",
                    f"{label} outside src/backend/: ISA-specific code must "
                    "go through the dispatch table (backend::ActiveBackend()"
                    ") — inlined intrinsics skip the runtime capability "
                    "gate and the per-file ISA compile flags"))
                break  # one finding per line is enough
    return findings


# --- rule: signal-safety ------------------------------------------------------

# A definition (not a call) of a function whose name contains
# "SignalHandler": a return type token, then the name, then an argument
# list. Calls (`obs::InstallFlightSignalHandler();`) have no type token
# before the name and do not match; whether the match is a definition or
# a mere declaration is decided later by which of `{` / `;` comes first.
SIGNAL_DEF_RE = re.compile(
    r"^\s*(?:static\s+|inline\s+|extern\s+)*[\w:]+(?:<[^>]*>)?[\s*&]+"
    r"((?:\w+::)*\w*SignalHandler\w*)\s*\(")

SIGNAL_UNSAFE_PATTERNS = [
    (re.compile(r"(?<![\w.:])(?:std::)?(?:malloc|calloc|realloc|free)\s*\("),
     "heap allocation"),
    (re.compile(r"(?<![\w:])new\s+[\w:(<]"), "operator new"),
    (re.compile(r"(?<![\w:])delete\b"), "operator delete"),
    (re.compile(
        r"std::(?:string|vector|deque|list|map|set|unordered_map|"
        r"unordered_set|basic_string|i?o?stringstream|function)\b"),
     "allocating std type"),
    (re.compile(
        r"(?<![\w.:])(?:std::)?(?:printf|fprintf|sprintf|snprintf|"
        r"vsnprintf|puts|fputs|putchar|fwrite|fread|fopen|fclose|"
        r"fflush)\s*\("),
     "stdio call"),
    (re.compile(r"std::(?:cout|cerr|clog|endl)\b"), "iostream"),
    (re.compile(
        r"std::(?:recursive_mutex|shared_mutex|mutex|lock_guard|"
        r"unique_lock|scoped_lock|shared_lock|condition_variable)\b"),
     "lock primitive"),
]


def check_signal_safety(path: str, rel: str,
                        lines: list[str]) -> list[Finding]:
    if not rel.startswith(("src/", "examples/")):
        return []
    findings = []
    name = None  # handler whose signature or body we are inside
    in_body = False  # False while the signature awaits its `{` or `;`
    depth = 0
    for i, raw in enumerate(lines, 1):
        code = strip_strings_and_comments(raw)
        rest = code
        if name is None:
            m = SIGNAL_DEF_RE.search(code)
            if not m:
                continue
            name = m.group(1)
            in_body = False
            rest = code[m.end():]
        if not in_body:
            brace = rest.find("{")
            semi = rest.find(";")
            if semi != -1 and (brace == -1 or semi < brace):
                name = None  # declaration only, no body to check
                continue
            if brace == -1:
                continue  # signature spans lines; keep waiting
            in_body = True
            depth = 0
            rest = rest[brace:]
        depth += rest.count("{") - rest.count("}")
        if "signal-safety" not in allowed_rules(raw):
            for pattern, label in SIGNAL_UNSAFE_PATTERNS:
                if pattern.search(code):
                    findings.append(Finding(
                        rel, i, "signal-safety",
                        f"{label} inside signal handler {name}(): the "
                        "fatal-signal flight dump (DESIGN.md §12) runs in "
                        "async-signal context, where only write/open/close/"
                        "raise and hand-rolled formatting are legal — an "
                        "allocation that interrupted malloc deadlocks, and "
                        "stdio/iostream locks are not reentrant"))
                    break  # one finding per line is enough
        if depth <= 0:
            name = None
    return findings


# --- rule: fp-value-flags -----------------------------------------------------

# Options that let the compiler change a floating-point value: reassociate,
# use reciprocals, assume finite operands or ignore the sign of zero, or
# fuse a multiply and an add into one rounding.
FP_VALUE_FLAG_NAMES = (r"fast-math|finite-math-only|unsafe-math-optimizations|"
                       r"associative-math|reciprocal-math|no-signed-zeros|"
                       r"fp-contract=fast")
# In CMake the options are spelled in full.
FP_VALUE_FLAG_CMAKE_RE = re.compile(
    r"(?<![\w-])(?:-f(?:" + FP_VALUE_FLAG_NAMES + r")|-Ofast)(?![\w-])")
# In a pragma or an optimize attribute the leading "-f" is optional.
FP_VALUE_FLAG_OPTION_RE = re.compile(
    r"(?<![\w-])(?:(?:-f)?(?:" + FP_VALUE_FLAG_NAMES + r")|-?Ofast)(?![\w-])")
OPTIMIZE_DIRECTIVE_RE = re.compile(
    r"#\s*pragma\s+GCC\s+optimize\b|\boptimize\s*\(")
CMAKE_ALLOW_RE = re.compile(r"#\s*gva-lint:\s*allow\(fp-value-flags\)")
# The CMake files the rule always scans, relative to the repo root.
CMAKE_SCAN_ROOTS = ("CMakeLists.txt", "src", "bench", "tests", "tools")


def is_cmake_file(rel: str) -> bool:
    name = os.path.basename(rel)
    return name == "CMakeLists.txt" or name.endswith(".cmake")


def strip_cmake_comment(line: str) -> str:
    """Drops a # comment, keeping any # inside a quoted argument."""
    in_str = False
    for i, c in enumerate(line):
        if c == "\"":
            in_str = not in_str
        elif c == "#" and not in_str:
            return line[:i]
    return line


def fp_value_flag_finding(rel: str, line: int, flag: str) -> Finding:
    return Finding(
        rel, line, "fp-value-flags",
        f"{flag} can change floating-point results: the SAX kernel's words "
        "must stay bit-identical to its reference path, and only "
        "value-preserving options (-fno-math-errno, -fno-trapping-math) may "
        "be set")


def check_fp_value_flags(path: str, rel: str,
                         lines: list[str]) -> list[Finding]:
    findings = []
    if is_cmake_file(rel):
        for i, raw in enumerate(lines, 1):
            if CMAKE_ALLOW_RE.search(raw):
                continue
            m = FP_VALUE_FLAG_CMAKE_RE.search(strip_cmake_comment(raw))
            if m:
                findings.append(fp_value_flag_finding(rel, i, m.group(0)))
        return findings
    for i, raw in enumerate(lines, 1):
        if "fp-value-flags" in allowed_rules(raw):
            continue
        if not OPTIMIZE_DIRECTIVE_RE.search(strip_strings_and_comments(raw)):
            continue
        # The options are string arguments: search the line minus comments.
        m = FP_VALUE_FLAG_OPTION_RE.search(raw.split("//")[0])
        if m:
            findings.append(fp_value_flag_finding(rel, i, m.group(0)))
    return findings


def cmake_files(root: str) -> list[tuple[str, str]]:
    """The CMake files under CMAKE_SCAN_ROOTS, lint fixtures excluded."""
    out = []
    for entry in CMAKE_SCAN_ROOTS:
        absolute = os.path.join(root, entry)
        if os.path.isfile(absolute):
            out.append((absolute, entry))
            continue
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".") and d != "testdata")
            for name in sorted(filenames):
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                if is_cmake_file(rel):
                    out.append((full, rel))
    return out


# --- driver -------------------------------------------------------------------

ALL_RULES = {
    "determinism-rng": check_determinism_rng,
    "unordered-iteration": check_unordered_iteration,
    "status-swallow": check_status_swallow,
    "span-naming": check_span_naming,
    "check-in-header": check_check_in_header,
    "include-self-first": check_include_self_first,
    "include-bits": check_include_bits,
    "simd-intrinsics": check_simd_intrinsics,
    "signal-safety": check_signal_safety,
    "fp-value-flags": check_fp_value_flags,
}

SOURCE_EXTENSIONS = (".cc", ".cpp", ".h", ".hpp")


def lint_file(path: str, rel: str) -> list[Finding]:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        return [Finding(rel, 0, "io", f"unreadable: {e}")]
    rel = rel.replace(os.sep, "/")
    if is_cmake_file(rel):
        return check_fp_value_flags(path, rel, lines)
    findings = []
    for checker in ALL_RULES.values():
        findings.extend(checker(path, rel, lines))
    return findings


def collect_files(root: str, paths: list[str]) -> list[tuple[str, str]]:
    out = []
    for p in paths:
        absolute = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(absolute):
            out.append((absolute, os.path.relpath(absolute, root)))
            continue
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    out.append((full, os.path.relpath(full, root)))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root findings are reported relative to "
                             "(default: this script's ../../)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint "
                             "(default: src examples)")
    args = parser.parse_args(argv)

    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    paths = args.paths or ["src", "examples"]

    findings: list[Finding] = []
    files = collect_files(root, paths) + cmake_files(root)
    for full, rel in files:
        findings.extend(lint_file(full, rel))

    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(f)
    if findings:
        print(f"gva_lint: {len(findings)} finding(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    print(f"gva_lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
