#!/usr/bin/env python3
"""daisy_lint: fast source linter for invariants the compiler cannot see.

Rules (each scoped to the directories where the invariant applies):

  raw-io      [src/, tools/]   No raw file I/O — ``::open``/``::write``/
              ``::fsync``/``::rename``/``::unlink``, ``fopen``-family, or
              std file streams — outside src/persist/env.cc. All durable
              file operations route through persist::Env so fault
              injection, crash tests, and the health machine see them.

  raw-stderr  [src/, tools/]   No direct stderr output — ``std::cerr`` or
              ``fprintf(stderr, ...)`` — outside src/common/logger.cc.
              Diagnostics go through the structured logger
              (common/logger.h) so every line is JSON with a timestamp,
              level, and component; tool mains may pragma-allow usage/
              flag-parse text that must print before logging makes sense.

  raw-thread  [src/, tools/]   No ``std::mutex`` / ``std::shared_mutex`` /
              ``std::condition_variable`` / ``std::*_lock`` outside
              src/common/mutex.h — locking goes through the annotated
              daisy::Mutex wrappers so clang's -Wthread-safety can check
              the protocol. ``std::thread`` is additionally confined to
              the approved worker-pool files.

  raw-getenv  [src/, tools/]   No ``getenv`` outside
              src/clean/daisy_engine.cc. Environment overrides are read
              in one place (ApplyEnvOverrides) with one strict parser, so
              every DAISY_* variable means the same thing to every
              consumer.

  mutable-cell [src/, tools/]  No ``mutable_cell(`` / ``mutable_row(``
              outside src/datagen/ and src/storage/table.{h,cc}. Candidate
              writes go through Table::SetCandidates, which keeps the
              column cache current in O(1); in-place access drops the
              table's whole column cache (the next access builds a new
              one), so it is reserved for data generators editing
              originals.

  row-oracle  [src/, tools/]   No ``ViolatedBy(`` / ``RowMaySatisfy(``
              calls outside src/constraints/denial_constraint.{h,cc}.
              libdaisy evaluates predicates and DC pair checks only on the
              ColumnCache projections; row-at-a-time evaluation is the
              rule's definition and otherwise belongs in the test oracles
              (tests/*_oracle.h).

  ingest-poll [src/, tools/]   No ``deleted_rows_log(`` outside src/storage/
              and src/persist/. Consumers of ingest are told about each
              batch (the engine pushes every TableDelta into the rule's
              detectors and cleanσ state at the write); nobody polls the
              table's log to find out what changed. Only the table itself
              and the snapshot codec read it.

  test-nondet [tests/]         No nondeterminism sources on test golden
              paths: ``std::random_device``, ``srand``/``rand``,
              ``time(nullptr)``. Tests seed their PRNGs with constants so
              failures replay.

A finding can be suppressed with an inline pragma on the same line or the
line directly above, with a mandatory reason:

    // daisy-lint: allow(raw-io) socket file cleanup, not a data file

Exit status: 0 = clean, 1 = findings, 2 = usage/configuration error.
Run as ``daisy_lint.py --root <repo>``; CTest registers it over the tree.
"""

import argparse
import os
import re
import sys

# Per-rule whole-file exemptions (repo-relative, '/'-separated).
RAW_IO_EXEMPT = {
    "src/persist/env.cc",
}
RAW_STDERR_EXEMPT = {
    "src/common/logger.cc",  # the one sanctioned stderr writer
}
RAW_GETENV_EXEMPT = {
    "src/clean/daisy_engine.cc",  # ApplyEnvOverrides: the one env reader
}
MUTABLE_CELL_EXEMPT = {
    "src/storage/table.h",  # the accessors themselves
    "src/storage/table.cc",
}
MUTABLE_CELL_EXEMPT_DIRS = ("src/datagen/",)  # original-value perturbation
# The table and the snapshot codec own the deleted-rows log.
INGEST_POLL_EXEMPT_DIRS = ("src/storage/", "src/persist/")
ROW_ORACLE_EXEMPT = {
    "src/constraints/denial_constraint.h",  # ViolatedBy: the rule itself
    "src/constraints/denial_constraint.cc",
}
RAW_THREAD_EXEMPT = {
    "src/common/mutex.h",
    "src/common/thread_annotations.h",
}
# std::thread (but not raw mutexes) is allowed in the approved pool files.
THREAD_POOL_FILES = {
    "src/plan/plan_node.cc",     # morsel worker pool
    "src/detect/theta_join.cc",  # DetectAll partition scan pool
    "src/server/server.cc",      # accept/worker/watchdog threads
    "src/server/server.h",
}

SOURCE_EXTS = (".cc", ".h", ".cpp", ".hpp")

RULES = [
    {
        "name": "raw-io",
        "dirs": ("src", "tools"),
        "exempt": RAW_IO_EXEMPT,
        "patterns": [
            (re.compile(r"::(open|write|fsync|rename|unlink)\s*\("),
             "raw POSIX file I/O; route it through persist::Env"),
            (re.compile(r"\bf(open|write|sync)\s*\("),
             "raw stdio file I/O; route it through persist::Env"),
            (re.compile(r"\bstd::[io]?fstream\b"),
             "raw file stream; route it through persist::Env"),
        ],
    },
    {
        "name": "raw-stderr",
        "dirs": ("src", "tools"),
        "exempt": RAW_STDERR_EXEMPT,
        "patterns": [
            (re.compile(r"\bstd::cerr\b"),
             "direct stderr output; use the structured logger "
             "(common/logger.h)"),
            (re.compile(r"\bfprintf\s*\(\s*stderr\b"),
             "direct stderr output; use the structured logger "
             "(common/logger.h)"),
        ],
    },
    {
        "name": "raw-thread",
        "dirs": ("src", "tools"),
        "exempt": RAW_THREAD_EXEMPT,
        "patterns": [
            (re.compile(r"\bstd::(mutex|shared_mutex|recursive_mutex|"
                        r"condition_variable(_any)?|lock_guard|unique_lock|"
                        r"shared_lock|scoped_lock)\b"),
             "raw locking primitive; use the annotated wrappers in "
             "common/mutex.h"),
        ],
    },
    {
        "name": "raw-thread",  # std::thread: separate exemption set
        "dirs": ("src", "tools"),
        "exempt": RAW_THREAD_EXEMPT | THREAD_POOL_FILES,
        "patterns": [
            (re.compile(r"\bstd::thread\b"),
             "std::thread outside the approved worker-pool files"),
        ],
    },
    {
        "name": "raw-getenv",
        "dirs": ("src", "tools"),
        "exempt": RAW_GETENV_EXEMPT,
        "patterns": [
            (re.compile(r"\bgetenv\s*\("),
             "environment read outside ApplyEnvOverrides "
             "(src/clean/daisy_engine.cc); add a DaisyOptions field there"),
        ],
    },
    {
        "name": "mutable-cell",
        "dirs": ("src", "tools"),
        "exempt": MUTABLE_CELL_EXEMPT,
        "exempt_dirs": MUTABLE_CELL_EXEMPT_DIRS,
        "patterns": [
            (re.compile(r"\bmutable_(cell|row)\s*\("),
             "candidate writes go through Table::SetCandidates; original "
             "edits belong to datagen"),
        ],
    },
    {
        "name": "row-oracle",
        "dirs": ("src", "tools"),
        "exempt": ROW_ORACLE_EXEMPT,
        "patterns": [
            (re.compile(r"\b(ViolatedBy|RowMaySatisfy)\s*\("),
             "row-at-a-time evaluation; use the compiled ColumnCache "
             "paths (row evaluators belong in tests/*_oracle.h)"),
        ],
    },
    {
        "name": "ingest-poll",
        "dirs": ("src", "tools"),
        "exempt": set(),
        "exempt_dirs": INGEST_POLL_EXEMPT_DIRS,
        "patterns": [
            (re.compile(r"\bdeleted_rows_log\s*\("),
             "polling the table's deleted-rows log; take the TableDelta "
             "pushed at the write (ApplyDelta) instead"),
        ],
    },
    {
        "name": "test-nondet",
        "dirs": ("tests",),
        "exempt": set(),
        "patterns": [
            (re.compile(r"\bstd::random_device\b"),
             "nondeterministic seed; use a fixed constant"),
            (re.compile(r"\bs?rand\s*\("),
             "C PRNG; use a fixed-seed <random> engine"),
            (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"),
             "wall-clock seed; use a fixed constant"),
        ],
    },
]

ALLOW_RE = re.compile(r"daisy-lint:\s*allow\(([a-z-]+)\)\s*(\S.*)?$")


def strip_code(text):
    """Returns `text` with comments and string/char literals blanked out
    (replaced by spaces, newlines preserved) so patterns only match code."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def allowances(raw_lines):
    """Maps 1-based line number -> set of rule names allowed there.

    A pragma covers its own line and the next line (the idiomatic
    comment-above placement). A pragma without a reason is itself a
    finding, returned as the second element.
    """
    allowed = {}
    bad_pragmas = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2)
        if not reason:
            bad_pragmas.append(
                (idx, "allow(%s) pragma without a reason" % rule))
            continue
        allowed.setdefault(idx, set()).add(rule)
        allowed.setdefault(idx + 1, set()).add(rule)
    return allowed, bad_pragmas


def lint_file(root, rel):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [(rel, 0, "lint", "unreadable file: %s" % e)]

    raw_lines = text.splitlines()
    code_lines = strip_code(text).splitlines()
    allowed, bad_pragmas = allowances(raw_lines)

    findings = [(rel, ln, "lint", msg) for ln, msg in bad_pragmas]
    top_dir = rel.split("/", 1)[0]
    for rule in RULES:
        if top_dir not in rule["dirs"] or rel in rule["exempt"]:
            continue
        if rel.startswith(rule.get("exempt_dirs", ())):
            continue
        for idx, line in enumerate(code_lines, start=1):
            for pattern, msg in rule["patterns"]:
                if not pattern.search(line):
                    continue
                if rule["name"] in allowed.get(idx, ()):
                    continue
                findings.append((rel, idx, rule["name"], msg))
    return findings


def iter_sources(root):
    for top in ("src", "tools", "tests"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root to lint (default: cwd)")
    parser.add_argument("files", nargs="*",
                        help="repo-relative files to lint (default: all)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print("daisy_lint: no such directory: %s" % root, file=sys.stderr)
        return 2

    rels = args.files or list(iter_sources(root))
    findings = []
    for rel in rels:
        findings.extend(lint_file(root, rel.replace(os.sep, "/")))

    for rel, line, rule, msg in findings:
        print("%s:%d: [%s] %s" % (rel, line, rule, msg))
    if findings:
        print("daisy_lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
