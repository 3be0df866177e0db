#!/usr/bin/env python3
"""Repo-invariant lint for segram.

Textual (token-level) checks for invariants the compiler cannot
enforce and that code review keeps re-litigating. Comments and string
literals are stripped before matching, so prose about a rule never
trips it.

Rules
-----
hot-path-alloc   No explicit heap allocation (`new`, make_unique/
                 make_shared, malloc/calloc/realloc) in hot-path
                 files: src/align/, src/seed/, src/core/segram.cc,
                 src/graph/linearize.cc.
                 Per-read temporaries there must come from reusable
                 workspaces (MapWorkspace) — an allocation per window
                 or per seed is a throughput bug, not a style issue.
no-endl          No `std::endl` in hot-path files: it flushes the
                 stream on every use; hot paths buffer and write
                 '\n'. (The PafWriter exists precisely for this.)
hot-path-graph-scan
                 No call to the whole-graph GenomeGraph queries
                 `isTopologicallySorted(` or `pathLength(` in hot-path
                 files. Each walks every node or edge, so one per read
                 or per region makes mapping cost O(graph) instead of
                 O(region). The one-shot sites (a mapper constructor,
                 a whole-graph analysis) carry an allow marker.
bare-assert      No bare `assert(` anywhere under src/. Use
                 SEGRAM_CHECK (user input, always on, throws) or
                 SEGRAM_DCHECK (internal invariant, debug-only,
                 aborts with a message). `static_assert` is fine.
errno-capture    In src/serve/ and src/io/, `errno` may only be
                 reset (`errno = 0`), compared (`errno == EINTR`),
                 or captured (`const int saved_errno = errno;`).
                 Passing `errno` directly as a function argument is
                 rejected: evaluation order of the other arguments
                 is unspecified, and building a message string can
                 clobber errno (malloc) before it is read.

Suppression: append `// segram-lint: allow(<rule>)` to the offending
line (or put it on the line above).

Usage
-----
  segram_lint.py [--root DIR] [--compile-commands FILE]
  segram_lint.py --self-test

With --compile-commands, translation units are taken from the
compile database (filtered to the repo's src/), so the lint sees
exactly what the build builds; headers under src/ are always added
by glob since they never appear in a compile database. Without it,
everything under src/ is linted. Exit status: 0 clean, 1 violations,
2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

HOT_PATH_PREFIXES = ("src/align/", "src/seed/")
HOT_PATH_FILES = ("src/core/segram.cc", "src/graph/linearize.cc")
ERRNO_SCOPE_PREFIXES = ("src/serve/", "src/io/")

ALLOW_RE = re.compile(r"//\s*segram-lint:\s*allow\(([a-z-]+)\)")

RULE_ALLOC = "hot-path-alloc"
RULE_ENDL = "no-endl"
RULE_GRAPH_SCAN = "hot-path-graph-scan"
RULE_ASSERT = "bare-assert"
RULE_ERRNO = "errno-capture"
ALL_RULES = (RULE_ALLOC, RULE_ENDL, RULE_GRAPH_SCAN, RULE_ASSERT,
             RULE_ERRNO)

ALLOC_RE = re.compile(
    r"(?<![A-Za-z0-9_])(?:"
    r"new\s+[A-Za-z_:(<]"          # new T / new (nothrow) T
    r"|new\s*\["                    # new[]
    r"|(?:std::)?make_unique\s*<"
    r"|(?:std::)?make_shared\s*<"
    r"|malloc\s*\("
    r"|calloc\s*\("
    r"|realloc\s*\("
    r")"
)
ENDL_RE = re.compile(r"std\s*::\s*endl")
GRAPH_SCAN_RE = re.compile(
    r"(?<![A-Za-z0-9_])(?:isTopologicallySorted|pathLength)\s*\(")
ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
ERRNO_RE = re.compile(r"(?<![A-Za-z0-9_])errno(?![A-Za-z0-9_])")
ERRNO_OK_RES = (
    re.compile(r"(?<![A-Za-z0-9_])errno\s*=\s*0\b"),   # reset
    re.compile(r"=\s*errno\s*;"),                       # capture
    re.compile(r"(?<![A-Za-z0-9_])errno\s*(==|!=)"),    # compare
    re.compile(r"(==|!=)\s*errno(?![A-Za-z0-9_])"),     # compare
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string and char literals, preserving line
    structure so reported line numbers stay meaningful."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i : j + 2]
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 1))
            if j < n and text[j] == quote:
                out.append(quote)
                j += 1
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def allowed_lines(raw_lines: list[str]) -> dict[int, set[str]]:
    """Maps 1-based line numbers to the rules suppressed on them (a
    marker also covers the following line, so it can sit alone)."""
    allows: dict[int, set[str]] = {}
    for lineno, line in enumerate(raw_lines, start=1):
        for match in ALLOW_RE.finditer(line):
            rule = match.group(1)
            allows.setdefault(lineno, set()).add(rule)
            allows.setdefault(lineno + 1, set()).add(rule)
    return allows


def is_hot_path(rel: str) -> bool:
    return rel.startswith(HOT_PATH_PREFIXES) or rel in HOT_PATH_FILES


def in_errno_scope(rel: str) -> bool:
    return rel.startswith(ERRNO_SCOPE_PREFIXES)


def lint_text(rel: str, text: str, *, hot_path: bool,
              errno_scope: bool) -> list[tuple[str, int, str, str]]:
    """Returns (path, line, rule, message) tuples."""
    raw_lines = text.splitlines()
    allows = allowed_lines(raw_lines)
    stripped = strip_comments_and_strings(text).splitlines()
    findings = []

    def report(lineno: int, rule: str, message: str) -> None:
        if rule in allows.get(lineno, ()):  # suppressed
            return
        findings.append((rel, lineno, rule, message))

    for lineno, line in enumerate(stripped, start=1):
        if hot_path:
            if ALLOC_RE.search(line):
                report(lineno, RULE_ALLOC,
                       "heap allocation in a hot-path file; use a "
                       "workspace (see MapWorkspace)")
            if ENDL_RE.search(line):
                report(lineno, RULE_ENDL,
                       "std::endl flushes per use; write '\\n' and let "
                       "the writer batch flushes")
            if GRAPH_SCAN_RE.search(line):
                report(lineno, RULE_GRAPH_SCAN,
                       "whole-graph scan in a hot-path file costs O(graph) "
                       "per call; check once at construction")
        if ASSERT_RE.search(line):
            report(lineno, RULE_ASSERT,
                   "bare assert(); use SEGRAM_CHECK (input, throws) or "
                   "SEGRAM_DCHECK (invariant, debug-only)")
        if errno_scope and ERRNO_RE.search(line):
            probe = line
            for ok in ERRNO_OK_RES:
                probe = ok.sub("", probe)
            if ERRNO_RE.search(probe):
                report(lineno, RULE_ERRNO,
                       "errno used outside reset/compare/capture; save "
                       "it first: const int saved_errno = errno;")
    return findings


def lint_file(root: Path, path: Path) -> list[tuple[str, int, str, str]]:
    rel = path.relative_to(root).as_posix()
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return [(rel, 0, "io", f"unreadable: {error}")]
    return lint_text(rel, text, hot_path=is_hot_path(rel),
                     errno_scope=in_errno_scope(rel))


def collect_files(root: Path, compile_commands: Path | None) -> list[Path]:
    src = root / "src"
    files = set(src.rglob("*.h"))
    if compile_commands is not None:
        with open(compile_commands, encoding="utf-8") as handle:
            database = json.load(handle)
        for entry in database:
            path = Path(entry["file"])
            if not path.is_absolute():
                path = Path(entry["directory"]) / path
            path = path.resolve()
            if path.is_relative_to(src) and path.exists():
                files.add(path)
    else:
        files.update(src.rglob("*.cc"))
    return sorted(files)


def self_test() -> int:
    """Lints the checked-in fixtures: the violating fixtures must fire
    exactly the expected rules, the clean fixture must not fire at
    all. Proves the lint can actually fail, so a future regex typo
    cannot silently turn it into a no-op."""
    fixtures = Path(__file__).resolve().parent / "tests"
    failures = []

    def expect(name: str, *, hot_path: bool, errno_scope: bool,
               want: dict[str, int]) -> None:
        path = fixtures / name
        text = path.read_text(encoding="utf-8")
        findings = lint_text(name, text, hot_path=hot_path,
                             errno_scope=errno_scope)
        got: dict[str, int] = {}
        for _, _, rule, _ in findings:
            got[rule] = got.get(rule, 0) + 1
        if got != want:
            failures.append(f"{name}: expected {want}, got {got}")

    expect("hot_path_violations.cc", hot_path=True, errno_scope=False,
           want={RULE_ALLOC: 4, RULE_ENDL: 1, RULE_GRAPH_SCAN: 2,
                 RULE_ASSERT: 1})
    expect("errno_violations.cc", hot_path=False, errno_scope=True,
           want={RULE_ERRNO: 2})
    expect("clean.cc", hot_path=True, errno_scope=True, want={})

    if failures:
        for failure in failures:
            print(f"self-test FAIL: {failure}", file=sys.stderr)
        return 1
    print("segram_lint self-test: all fixtures behaved as expected")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root (default: two levels above "
                             "this script)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compile_commands.json to take the "
                             "translation-unit list from")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the checked-in fixtures instead of "
                             "the tree")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root or Path(__file__).resolve().parents[2]
    root = root.resolve()
    if not (root / "src").is_dir():
        print(f"error: no src/ under {root}", file=sys.stderr)
        return 2

    findings = []
    for path in collect_files(root, args.compile_commands):
        findings.extend(lint_file(root, path))

    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"segram_lint: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    print("segram_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
