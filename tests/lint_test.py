#!/usr/bin/env python3
"""Self-test for tools/lint.py, with every fixture inline.

Each fixture marks the lines the linter must flag with a trailing
`// VIOLATION <rule>` comment (comments are stripped before matching, so the
marker never causes a finding); every other line must stay clean.

Run: python3 tests/lint_test.py
"""

import importlib.util
import re
import subprocess
import sys
import unittest
from pathlib import Path

LINT_PATH = Path(__file__).resolve().parent.parent / "tools" / "lint.py"
_spec = importlib.util.spec_from_file_location("lint", LINT_PATH)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)

FINDING_RE = re.compile(r"^[^:]+:(\d+): \[([a-z-]+)\]")


def findings(text, rel, rule):
    """Sorted line numbers `rule` flags in `text` linted as file `rel`."""
    lines = []
    for error in lint.lint_text(text, rel):
        m = FINDING_RE.match(error)
        if m and m.group(2) == rule:
            lines.append(int(m.group(1)))
    return sorted(lines)


def marked(text, rule):
    """Sorted line numbers carrying a `// VIOLATION <rule>` marker."""
    return [
        n
        for n, line in enumerate(text.splitlines(), start=1)
        if f"// VIOLATION {rule}" in line
    ]


BARE_ASSERT = """\
#include <cassert>

namespace tfc {

int Checked(int credits) {
  assert(credits >= 0);  // VIOLATION bare-assert
  static_assert(sizeof(int) == 4, "static_assert is a compile-time check");
  TFC_DCHECK(credits >= 0);
  return credits;
}

}  // namespace tfc
"""

HOT_IO = """\
#include <cstdio>
#include <fstream>
#include <sstream>

namespace tfc {

void Narrate(long now) {
  std::printf("t=%ld\\n", now);  // VIOLATION hot-io
}

class Dumper {
 public:
  void Open() { out_.open("dump.txt"); }

 private:
  std::ofstream out_;  // VIOLATION hot-io
};

void Stream() {
  std::cout.put('x');  // VIOLATION hot-io
}

void Sanctioned() {
  std::printf("cold\\n");  // lint:allow hot-io (one-off banner)
}

}  // namespace tfc
"""

# Constructs hot-io must catch, one per line, each with and without std::
# where the spelling allows it.
HOT_IO_CONSTRUCTS = [
    'std::fputs("x", f);',
    'fputs("x", f);',
    "std::fwrite(p, 1, n, f);",
    "fwrite(p, 1, n, f);",
    'std::puts("x");',
    'puts("x");',
    "std::putchar('x');",
    "putchar('x');",
    "std::vprintf(fmt, ap);",
    "vprintf(fmt, ap);",
    "std::vfprintf(f, fmt, ap);",
    "vfprintf(f, fmt, ap);",
    'printf("x");',
    'std::fprintf(f, "x");',
    'fprintf(f, "x");',
    "std::cout << 1;",
    "cout << 1;",
    "std::cerr << 1;",
    "cerr << 1;",
    "std::clog << 1;",
    "clog << 1;",
    "std::wcout << 1;",
    "wcout << 1;",
    "std::wcerr << 1;",
    "wcerr << 1;",
    "std::wclog << 1;",
    "wclog << 1;",
    "std::stringstream ss;",
    "stringstream ss;",
    "std::ostringstream os;",
    "ostringstream os;",
    "std::basic_stringstream<char> ss;",
    "std::basic_ostringstream<char> os;",
    "std::ofstream out;",
    "std::fstream io;",
    "std::basic_ofstream<char> out;",
    "std::basic_fstream<char> io;",
]

# Near misses: spellings that must stay clean in a hot layer.
HOT_IO_NEAR_MISSES = [
    "#include <fstream>",
    "#include <sstream>",
    "#include <cstdio>",
    "std::istringstream in(text);",
    "std::ifstream in(path);",
    'std::snprintf(buf, sizeof(buf), "%d", 1);',
    'snprintf(buf, sizeof(buf), "%d", 1);',
    "void Dump(std::ostream& os);",
    "out.puts(line);",
    "sink->fwrite(p, n);",
    "Logger::printf(x);",
    "int coutput = 0;",
    "recorder_cout_ = 1;",
]

TELEMETRY_CC = """\
#include "src/sim/telemetry.h"

namespace tfc {

void TimeSeriesRecorder::Tick(TimeNs now) {
  auto it = cells_.find(now);  // VIOLATION recorder-hot
  std::printf("%ld", now);  // VIOLATION recorder-hot
  total_ += now;
  const size_t n = plan_reads_.size();  // clean: accessor, not a lookup
}

void TimeSeriesRecorder::FoldTile(long v) {
  buf_[0] = v;  // clean: indexed store into a pre-sized buffer
  auto it = cells_.find(v);  // VIOLATION recorder-hot
  std::multimap<long, long> local;  // VIOLATION recorder-hot
}

void TimeSeriesRecorder::Arm() {
  auto it = cells_.find(0);  // clean: Arm() is the sanctioned cold setup
  std::printf("armed\\n");
}

}  // namespace tfc
"""

FLIGHT_H = """\
namespace tfc {

class FlightRecorder {
 public:
  void Arm(size_t n) { ring_.resize(n); }  // clean: cold setup

  void Record(long v) {
    ring_.push_back(v);  // VIOLATION recorder-hot
    long* p = new long(v);  // VIOLATION recorder-hot
    delete p;
  }

  FlightEvent* Append() {
    pending_.emplace(1);  // VIOLATION recorder-hot
    std::deque<long> spill;  // VIOLATION recorder-hot
    std::list<long> chain;  // VIOLATION recorder-hot
    if (seen_.count(head_) != 0) {}  // VIOLATION recorder-hot
    return &ring_[head_++ & mask_];
  }

 private:
  std::vector<long> ring_;
};

}  // namespace tfc
"""


class BareAssertTest(unittest.TestCase):
    def test_flags_assert_but_not_static_assert(self):
        for rel in ("src/tfc/credit.cc", "tests/credit_test.cc", "bench/b.cc"):
            with self.subTest(rel=rel):
                self.assertEqual(
                    findings(BARE_ASSERT, rel, "bare-assert"),
                    marked(BARE_ASSERT, "bare-assert"),
                )

    def test_lint_allow(self):
        text = "  assert(x);  // lint:allow bare-assert\n"
        self.assertEqual(findings(text, "src/sim/x.cc", "bare-assert"), [])


class HotIoTest(unittest.TestCase):
    def test_seeded_violations(self):
        self.assertEqual(
            findings(HOT_IO, "src/net/dumper.cc", "hot-io"),
            marked(HOT_IO, "hot-io"),
        )

    def test_every_construct_is_caught(self):
        for line in HOT_IO_CONSTRUCTS:
            with self.subTest(line=line):
                self.assertEqual(findings(line, "src/tfc/x.cc", "hot-io"), [1])

    def test_near_misses_stay_clean(self):
        for line in HOT_IO_NEAR_MISSES:
            with self.subTest(line=line):
                self.assertEqual(findings(line, "src/tfc/x.cc", "hot-io"), [])

    def test_only_hot_layers(self):
        for rel in ("src/transport/x.cc", "examples/x.cc", "tests/x_test.cc"):
            with self.subTest(rel=rel):
                self.assertEqual(findings(HOT_IO, rel, "hot-io"), [])

    def test_funnel_files_are_allowlisted(self):
        for rel in sorted(lint.HOT_IO_ALLOWED_FILES):
            with self.subTest(rel=rel):
                self.assertEqual(findings(HOT_IO, rel, "hot-io"), [])


class RecorderHotTest(unittest.TestCase):
    def test_sampler_scopes(self):
        self.assertEqual(
            findings(TELEMETRY_CC, "src/sim/telemetry.cc", "recorder-hot"),
            marked(TELEMETRY_CC, "recorder-hot"),
        )

    def test_ring_append_scopes(self):
        self.assertEqual(
            findings(FLIGHT_H, "src/sim/flight.h", "recorder-hot"),
            marked(FLIGHT_H, "recorder-hot"),
        )

    def test_only_scope_files(self):
        self.assertEqual(findings(TELEMETRY_CC, "src/sim/other.cc", "recorder-hot"), [])

    def test_lint_allow(self):
        text = TELEMETRY_CC.replace(
            "auto it = cells_.find(now);  // VIOLATION recorder-hot",
            "auto it = cells_.find(now);  // lint:allow recorder-hot",
        )
        self.assertEqual(
            findings(text, "src/sim/telemetry.cc", "recorder-hot"),
            marked(text, "recorder-hot"),
        )

    def test_scope_matching_no_body_is_an_error(self):
        renamed = TELEMETRY_CC.replace("TimeSeriesRecorder::Tick(", "TimeSeriesRecorder::Sample(")
        declared_only = "void TimeSeriesRecorder::Tick(TimeNs now);\n" + renamed
        for text in (renamed, declared_only):
            with self.subTest(text=text.splitlines()[0]):
                errors = lint.lint_text(text, "src/sim/telemetry.cc")
                missing = [e for e in errors if "matches no function body" in e]
                self.assertEqual(len(missing), 1, errors)
                self.assertIn("TimeSeriesRecorder::Tick", missing[0])


class PacketDropTest(unittest.TestCase):
    def test_drop_trace_outside_funnels(self):
        text = "  net_->EmitTrace(FlightEventType::kDrop, *pkt, node, port);\n"
        self.assertEqual(findings(text, "src/tfc/switch_port.cc", "packet-drop"), [1])
        self.assertEqual(findings(text, "src/net/port.cc", "packet-drop"), [])

    def test_split_call_is_flagged_at_its_first_line(self):
        text = (
            "void Drop() {\n"
            "  net->EmitTrace(  // arbiter expiry\n"
            "      FlightEventType::kDrop, *pkt, switch_, port_);\n"
            "}\n"
        )
        self.assertEqual(findings(text, "src/tfc/switch_port.cc", "packet-drop"), [2])

    def test_split_call_with_marker_is_clean(self):
        text = (
            "  net->EmitTrace(  // lint:allow packet-drop (arbiter_expired_)\n"
            "      FlightEventType::kDrop, *pkt, switch_, port_);\n"
        )
        self.assertEqual(findings(text, "src/tfc/switch_port.cc", "packet-drop"), [])


class DaemonTickTest(unittest.TestCase):
    LOOP = "  tick_ = sched->ScheduleDaemonAfter(period_, [this] { Tick(); });\n"

    def test_hand_rolled_loop_is_flagged(self):
        self.assertEqual(findings(self.LOOP, "src/sim/telemetry.cc", "daemon-tick"), [1])

    def test_sanctioned_files_and_other_trees_are_clean(self):
        for rel in sorted(lint.DAEMON_TICK_ALLOWED_FILES) + ["tests/audit_test.cc"]:
            with self.subTest(rel=rel):
                self.assertEqual(findings(self.LOOP, rel, "daemon-tick"), [])


class CommandLineTest(unittest.TestCase):
    def test_rejects_flags(self):
        run = subprocess.run(
            [sys.executable, str(LINT_PATH), "--fix"],
            capture_output=True,
            text=True,
        )
        self.assertEqual(run.returncode, 2, run.stderr)


if __name__ == "__main__":
    unittest.main()
