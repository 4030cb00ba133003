#!/usr/bin/env python3
"""Self-test for daisy_lint.py: per rule, one fixture that must FAIL the
lint and one that must PASS, so the linter's teeth cannot silently rot.

Fixtures are written into a temp tree shaped like the repo (src/, tools/,
tests/) because the rules are directory-scoped. Run directly or from
CTest; exits nonzero on the first failed expectation.
"""

import os
import shutil
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "daisy_lint.py")

# (name, repo-relative path, file content, expected finding count)
FIXTURES = [
    # --- raw-io ---
    ("raw-io posix call flagged", "src/x/a.cc",
     'int f(int fd) { return ::write(fd, "x", 1); }\n', 1),
    ("raw-io fstream flagged", "src/x/b.cc",
     '#include <fstream>\nvoid f() { std::ofstream out("p"); }\n', 1),
    ("raw-io allowed with pragma", "src/x/c.cc",
     "// daisy-lint: allow(raw-io) socket file cleanup, not data\n"
     'int f() { return ::unlink("p"); }\n', 0),
    ("raw-io pragma without reason is a finding", "src/x/d.cc",
     "// daisy-lint: allow(raw-io)\n"
     'int f() { return ::unlink("p"); }\n', 2),
    ("raw-io exempt in env.cc", "src/persist/env.cc",
     'int f(int fd) { return ::fsync(fd); }\n', 0),
    ("raw-io in comment ignored", "src/x/e.cc",
     "// calls ::write(fd) eventually, via persist::Env\nint x;\n", 0),
    ("raw-io in string ignored", "src/x/f.cc",
     'const char* k = "::rename(a, b)";\n', 0),
    ("raw-io not scoped to tests", "tests/a_test.cpp",
     'int f(int fd) { return ::write(fd, "x", 1); }\n', 0),
    # --- raw-stderr ---
    ("std::cerr flagged in src", "src/x/k.cc",
     '#include <iostream>\nvoid f() { std::cerr << "oops\\n"; }\n', 1),
    ("fprintf(stderr) flagged in src", "src/x/l.cc",
     '#include <cstdio>\nvoid f() { std::fprintf(stderr, "oops\\n"); }\n',
     1),
    ("fprintf(stderr) flagged in tools", "tools/m_main.cc",
     '#include <cstdio>\nint main() { fprintf(stderr, "x\\n"); }\n', 1),
    ("stderr exempt in logger.cc", "src/common/logger.cc",
     '#include <cstdio>\nvoid f() { std::fprintf(stderr, "line\\n"); }\n',
     0),
    ("stderr allowed with pragma", "tools/n_main.cc",
     "// daisy-lint: allow(raw-stderr) usage text before logging exists\n"
     'int usage() { std::fprintf(stderr, "usage\\n"); return 2; }\n', 0),
    ("stderr in comment ignored", "src/x/m.cc",
     "// writes to std::cerr? no: the logger owns stderr\nint x;\n", 0),
    ("stderr not scoped to tests", "tests/e_test.cpp",
     '#include <cstdio>\nvoid f() { std::fprintf(stderr, "dbg\\n"); }\n',
     0),
    # --- raw-thread ---
    ("raw mutex flagged", "src/x/g.cc",
     "#include <mutex>\nstd::mutex mu;\n", 1),
    # One finding per offending line (not per occurrence).
    ("raw shared_mutex + lock flagged", "src/x/h.cc",
     "#include <shared_mutex>\nstd::shared_mutex mu;\n"
     "void f() { std::shared_lock<std::shared_mutex> l(mu); }\n", 2),
    ("raw thread flagged outside pool files", "src/x/i.cc",
     "#include <thread>\nvoid f() { std::thread t; t.join(); }\n", 1),
    ("thread allowed in pool file", "src/plan/plan_node.cc",
     "#include <thread>\nvoid f() { std::thread t; t.join(); }\n", 0),
    ("mutex NOT allowed in pool file", "src/plan/plan_node.cc",
     "#include <mutex>\nstd::mutex mu;\n", 1),
    ("wrapper header exempt", "src/common/mutex.h",
     "#include <mutex>\nstd::mutex mu;\nstd::condition_variable cv;\n", 0),
    # --- raw-getenv ---
    ("std::getenv flagged in src", "src/x/o.cc",
     '#include <cstdlib>\nconst char* v = std::getenv("DAISY_X");\n', 1),
    ("bare getenv flagged in tools", "tools/p_main.cc",
     '#include <cstdlib>\nint main() { return getenv("X") != nullptr; }\n',
     1),
    ("getenv exempt in daisy_engine.cc", "src/clean/daisy_engine.cc",
     '#include <cstdlib>\nconst char* v = std::getenv("DAISY_X");\n', 0),
    ("getenv in comment ignored", "src/x/q.cc",
     "// never std::getenv(\"DAISY_X\") here\nint x;\n", 0),
    ("getenv not scoped to tests", "tests/g_test.cpp",
     '#include <cstdlib>\nconst char* v = std::getenv("DAISY_X");\n', 0),
    # --- mutable-cell ---
    ("candidate write through mutable_cell flagged", "src/repair/provenance.cc",
     "void F(Table* table, RowId row, size_t col) {\n"
     "  Cell& cell = table->mutable_cell(row, col);\n"
     "  cell.ClearCandidates();\n}\n", 1),
    ("snapshot decoder mutable_cell flagged", "src/persist/snapshot.cc",
     "void F(Table& table, uint64_t row, uint32_t col) {\n"
     "  table.mutable_cell(row, col).set_candidates(std::move(cands));\n}\n",
     1),
    ("mutable_row flagged in tools", "tools/m_main.cc",
     "void F(Table* t) { t->mutable_row(0); }\n", 1),
    ("SetCandidates passes", "src/repair/provenance.cc",
     "void F(Table* t) { t->SetCandidates(0, 1, {}); }\n", 0),
    ("datagen exempt", "src/datagen/ssb.cc",
     "void F(Table* t) { t->mutable_cell(0, 1) = Cell(Value(1)); }\n", 0),
    ("table accessors exempt", "src/storage/table.h",
     "Cell& mutable_cell(RowId r, size_t c) { return rows_[r].cells[c]; }\n",
     0),
    ("mutable_cell in comment ignored", "src/x/m.cc",
     "// never mutable_cell(r, c) here\nint x;\n", 0),
    ("mutable_cell not scoped to tests", "tests/m_test.cpp",
     "void F(Table* t) { t->mutable_cell(0, 0) = Cell(Value(1)); }\n", 0),
    # --- ingest-poll ---
    ("deleted-log poll flagged in a detector", "src/detect/p.cc",
     "size_t F(const Table* t) { return t->deleted_rows_log().size(); }\n",
     1),
    ("deleted-log poll flagged in tools", "tools/p_main.cc",
     "void F(const Table& t) { (void)t.deleted_rows_log(); }\n", 1),
    ("deleted-log read exempt in storage", "src/storage/table.h",
     "const std::vector<RowId>& deleted_rows_log() const { return l_; }\n",
     0),
    ("deleted-log read exempt in persist", "src/persist/snapshot.cc",
     "void F(const Table& t) { Encode(t.deleted_rows_log()); }\n", 0),
    ("deleted-log poll in comment ignored", "src/clean/p.cc",
     "// never deleted_rows_log() here\nint x;\n", 0),
    ("deleted-log poll not scoped to tests", "tests/p_test.cpp",
     "void F(const Table& t) { (void)t.deleted_rows_log(); }\n", 0),
    # --- row-oracle ---
    ("ViolatedBy pair check flagged in src", "src/detect/theta_join.cc",
     "bool F(const DenialConstraint& dc, const Table& t) {\n"
     "  return dc.ViolatedBy(t, 0, 1);\n}\n", 1),
    ("RowMaySatisfy flagged in src", "src/plan/plan_node.cc",
     "auto ok = RowMaySatisfy(*table_, r, *expr_);\n", 1),
    ("ViolatedBy flagged in tools", "tools/r_main.cc",
     "bool b = dc->ViolatedBy (t, a, b);\n", 1),
    ("denial_constraint defines the rule",
     "src/constraints/denial_constraint.cc",
     "bool DenialConstraint::ViolatedBy(const Table& t, RowId a, RowId b) "
     "const {\n  return false;\n}\n", 0),
    ("row-oracle in comment ignored", "src/x/r.cc",
     "// per-cell ViolatedBy(t, a, b) used to live here\nint x;\n", 0),
    ("row-oracle not scoped to tests", "tests/eval_oracle.h",
     "inline bool F() { return dc.ViolatedBy(t, 0, 1); }\n", 0),
    # --- test-nondet ---
    ("random_device flagged in tests", "tests/b_test.cpp",
     "#include <random>\nstd::random_device rd;\n", 1),
    ("time(nullptr) seed flagged in tests", "tests/c_test.cpp",
     "#include <ctime>\nlong s = time(nullptr);\n", 1),
    ("fixed seed passes", "tests/d_test.cpp",
     "#include <random>\nstd::mt19937 rng(42);\n", 0),
    ("nondet not scoped to src", "src/x/j.cc",
     "#include <random>\nstd::random_device rd;\n", 0),
]


def run_case(name, rel, content, expected):
    tree = tempfile.mkdtemp(prefix="daisy_lint_test_")
    try:
        path = os.path.join(tree, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--root", tree],
            capture_output=True, text=True)
        found = len([l for l in proc.stdout.splitlines() if l.strip()])
        want_rc = 0 if expected == 0 else 1
        if proc.returncode != want_rc or found != expected:
            print("FAIL: %s" % name)
            print("  expected %d finding(s) rc=%d, got %d rc=%d"
                  % (expected, want_rc, found, proc.returncode))
            for line in proc.stdout.splitlines():
                print("  | " + line)
            return False
        print("ok: %s" % name)
        return True
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def main():
    failures = sum(0 if run_case(*case) else 1 for case in FIXTURES)
    if failures:
        print("%d case(s) failed" % failures, file=sys.stderr)
        return 1
    print("all %d cases passed" % len(FIXTURES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
