#!/usr/bin/env python3
"""Repo-convention linter (no third-party deps; stdlib only).

Rules enforced (see docs/correctness.md):
  include-root    quoted #includes must be repo-root-relative, i.e. start
                  with src/ or bench/ (system headers use <...>).
  new-packet      `new Packet` may appear only in the pool allocator
                  (src/net/packet_pool.h). All other code must allocate via
                  PacketPool::Allocate so poisoning / pooling stay airtight.
                  Suppress a sanctioned site with `// lint:allow new-packet`.
  std-function    src/sim and src/net are hot-path layers: callbacks there
                  must use InplaceFunction (no allocation, SBO) rather than
                  std::function. Suppress with `// lint:allow std-function`.
  bare-assert     use TFC_CHECK / TFC_DCHECK (src/sim/check.h), which print
                  context and abort under all build types; bare assert()
                  vanishes in NDEBUG builds. static_assert is fine.
  hot-io          src/sim, src/net, and src/tfc are simulation hot paths:
                  no stream/printf I/O there — the std stream objects
                  ((w)cout/cerr/clog), the printf/puts/fwrite family, and
                  file/string stream types ((o)fstream, (o)stringstream and
                  their basic_ forms), qualified or not. Observability goes
                  through the metric registry / tracer / exporter
                  (src/sim/telemetry.h) so the per-event cost is a pointer
                  bump, not formatting. The tracer and exporter
                  implementations themselves are allowlisted. Suppress a
                  sanctioned site with `// lint:allow hot-io`.
  packet-drop     packet loss must stay auditable: the only sanctioned
                  emission sites for kDrop / kFaultDrop trace events in src/
                  are the port TX path (src/net/port.cc) and the fault
                  injector (src/net/fault.cc). Any other layer that destroys
                  a packet must either route it through those funnels or
                  carry an explicit `// lint:allow packet-drop` with a
                  counter/metric justifying the loss (e.g. host teardown
                  drops, arbiter expiry). The call is matched across line
                  breaks and reported (and suppressed) at the line of
                  `EmitTrace(`.
  daemon-tick     periodic work in src/ ticks through PeriodicTimer
                  (src/sim/timer.h): `ScheduleDaemonAfter(` may appear only
                  in the scheduler itself, in timer.h, and in the fault
                  injector's one-shot timeline (src/net/fault.cc), so no
                  hand-rolled self-rescheduling loop comes back. No
                  suppression marker.
  raw-thread      threading primitives in src/ must be the annotated wrappers
                  from src/sim/thread_annotations.h (tfc::Mutex, MutexLock)
                  so clang's -Wthread-safety sees every lock. Raw
                  std::mutex / std::lock_guard / std::thread & co. are
                  allowed only inside src/sim/thread_annotations.h (the
                  wrappers themselves). Suppress with
                  `// lint:allow raw-thread`.
  guarded-by      a tfc::Mutex that guards nothing is either dead or — worse
                  — a lock someone forgot to annotate: every Mutex declared
                  in src/ must have at least one TFC_GUARDED_BY /
                  TFC_PT_GUARDED_BY user naming it in the same file.
  units           the quantity-carrying layers (src/sim, src/net, src/tfc,
                  src/transport, src/topo, src/workload) are migrated to the
                  strong unit types in src/sim/units.h: a declaration of a
                  raw arithmetic type (double, uint64_t, ...) whose name is
                  suffixed _bytes/_tokens/_ns/_bps is a dimension the type
                  system can no longer see. Declare it as Bytes / Tokens /
                  TimeNs / BitsPerSec instead. Wire-format boundaries
                  (src/net/packet.h header fields) are allowlisted; named
                  raw-view escapes carry `// lint:allow units`.
  recorder-hot    the per-event recording hot paths must stay allocation-,
                  lookup-, and I/O-free. Each function named in
                  RECORDER_HOT_SCOPES is scanned brace to brace: the
                  telemetry sampler (TimeSeriesRecorder::Tick and its
                  per-sample tile fold TimeSeriesRecorder::FoldTile in
                  src/sim/telemetry.cc — no std::map / unordered_map, no
                  keyed lookups, no stream I/O; cold helpers like
                  RebuildPlan and the exporter do that work), the
                  flight-recorder ring append (FlightRecorder::Record /
                  Append in src/sim/flight.h — a masked store, so
                  additionally no allocation or container growth), and the
                  trace emission path (Network::EmitTrace / EmitTraceArmed
                  in src/net/network.h — a gate branch plus an inline record
                  fill). A named function that matches no body in its file
                  is itself an error: a moved or renamed hot path must not
                  go unchecked. Suppress with `// lint:allow recorder-hot`.

tools/astlint.py owns only the libclang det-* determinism rules; every rule
above has this file as its single implementation (docs/correctness.md).

Exit status: 0 when clean, 1 when any violation is found.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tests", "bench", "examples")
# Seeded-violation analyzer test data (tests/astlint/) is violating by
# construction — it exists to prove tools/astlint.py flags those patterns.
SKIP_PREFIXES = ("tests/astlint/",)
CXX_SUFFIXES = {".h", ".cc", ".cpp"}

INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"')
NEW_PACKET_RE = re.compile(r"\bnew\s+Packet\b")
STD_FUNCTION_RE = re.compile(r"\bstd::function\b")
# assert( not preceded by an identifier character (rules out static_assert,
# TFC_ASSERT-style macros, and _assert suffixes).
BARE_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
LINE_COMMENT_RE = re.compile(r"//.*$")

ROOT_PREFIXES = tuple(f"{d}/" for d in SCAN_DIRS)
HOT_LAYERS = ("src/sim/", "src/net/")
POOL_FILE = "src/net/packet_pool.h"

# hot-io: stream/printf I/O is banned in the simulation hot layers. The
# tracer and the telemetry exporter are the sanctioned I/O funnels; check.h
# prints on the abort path only.
HOT_IO_LAYERS = ("src/sim/", "src/net/", "src/tfc/")
HOT_IO_ALLOWED_FILES = {
    "src/net/trace.h",
    "src/net/trace.cc",
    "src/sim/telemetry.h",
    "src/sim/telemetry.cc",
    "src/sim/check.h",
    # Flight-recorder dump/load: cold-path file I/O only (post-mortem spill
    # and offline loader); the per-event Record stays in flight.h and is
    # covered by the recorder-hot rule.
    "src/sim/flight.cc",
    # The run supervisor forks/reaps children, reads their report pipes, and
    # writes the merged sweep manifest — cold orchestration I/O, once per
    # run attempt or per sweep, never per event.
    "src/sim/supervisor.cc",
}
# packet-drop: the sanctioned drop-trace funnels. Everything else in src/
# needs an explicit suppression tied to a counter.
# Matched against comment-stripped whole-file text: \s spans line breaks.
PACKET_DROP_RE = re.compile(
    r"EmitTrace\s*\(\s*FlightEventType::k(?:Fault)?Drop\b"
)
PACKET_DROP_ALLOWED_FILES = {
    "src/net/port.cc",
    "src/net/fault.cc",
}

# daemon-tick: the only places in src/ that may schedule daemon events.
DAEMON_TICK_RE = re.compile(r"\bScheduleDaemonAfter\s*\(")
DAEMON_TICK_ALLOWED_FILES = {
    "src/sim/scheduler.h",  # the primitive itself
    "src/sim/timer.h",      # PeriodicTimer, the one periodic ticker
    "src/net/fault.cc",     # the injector's cancellable one-shot timeline
}

# raw-thread: the annotated wrappers are the only threading primitives
# allowed in src/ — everything else would be invisible to -Wthread-safety.
RAW_THREAD_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable|condition_variable_any|thread|jthread"
    r"|atomic|atomic_[a-z0-9_]+)\b"
)
RAW_THREAD_ALLOWED_FILES = {
    "src/sim/thread_annotations.h",  # the wrappers themselves
}

# guarded-by: a declared tfc::Mutex must be named by at least one
# TFC_GUARDED_BY / TFC_PT_GUARDED_BY in the same file. Matches member and
# namespace-scope declarations ("Mutex mu_;", "tfc::Mutex g_mu;"); pointers
# and references ("Mutex* mu") are uses, not declarations, and are skipped.
MUTEX_DECL_RE = re.compile(r"\b(?:tfc::)?Mutex\s+(\w+)\s*;")
GUARDED_BY_RE = re.compile(r"\bTFC_(?:PT_)?GUARDED_BY\s*\(\s*([A-Za-z0-9_:.\->]+)\s*\)")

# hot-io: stream objects and stream types match with or without std::
# (an unqualified spelling only after a non-identifier, non-scope, non-'<'
# character, so `#include <fstream>` and `Foo::cout` stay clean); the
# printf/puts/fwrite family matches std::-qualified, or unqualified when
# called.
HOT_IO_RE = re.compile(
    r"(?:(?<![\w:])std::|(?<![\w:<]))"
    r"(?:w?c(?:out|err|log)|(?:basic_)?o?(?:stringstream|fstream))\b"
    r"|(?<![\w:])std::(?:v?f?printf|fputs|fwrite|puts|putchar)\b"
    r"|(?<![\w:.>])(?:v?f?printf|fputs|fwrite|puts|putchar)\s*\("
)

# units: in the migrated layers, a raw arithmetic declaration whose name
# carries a unit suffix must be a strong type from src/sim/units.h. The
# regex intentionally matches both variable and function declarations
# ("double token_bytes;" and "double token_bytes() const") — a raw-typed
# accessor leaks the dimension just as much as a raw member.
UNITS_LAYERS = (
    "src/sim/",
    "src/net/",
    "src/tfc/",
    "src/transport/",
    "src/topo/",
    "src/workload/",
)
UNITS_ALLOWED_FILES = {
    "src/sim/units.h",   # the unit types' own raw-view escapes (bytes_per_ns)
    "src/net/packet.h",  # wire format: header fields are raw on purpose
}
UNITS_RAW_TYPE = (
    r"(?:double|float|u?int(?:8|16|32|64)_t|size_t"
    r"|unsigned(?:\s+long(?:\s+long)?|\s+int)?|long(?:\s+long)?(?:\s+int)?)"
)
UNITS_RE = re.compile(
    r"\b" + UNITS_RAW_TYPE + r"\s+(?:const\s+)?(\w*_(?:bytes|tokens|ns|bps))_?\s*(?=[;=,(){])"
)

# recorder-hot: per-event recording hot functions, matched by definition
# and scanned brace-to-brace. Each scope is (file, {function: definition
# regex}, ban regex, hint); every function must resolve to a body. The
# telemetry sampler bans lookups; the flight-recorder append and trace gate
# additionally ban allocation and container growth — those bodies are a
# branch plus a masked store.
RECORDER_HOT_LOOKUP_BAN = (
    r"\bstd::(?:unordered_)?(?:multi)?map\b"
    r"|\.(?:find|at)\s*\("
    r"|\.count\s*\(\s*[^)\s]"  # .count(key) lookups; .count() accessors are fine
    r"|\bseries_\s*\["
)
RECORDER_HOT_LOOKUP_BAN_RE = re.compile(RECORDER_HOT_LOOKUP_BAN)
RECORDER_HOT_APPEND_BAN_RE = re.compile(
    RECORDER_HOT_LOOKUP_BAN
    + r"|\bnew\b|\bmalloc\s*\(|\bstd::(?:string|vector|deque|list)\b"
    r"|\.(?:resize|reserve|push_back|emplace_back|emplace|assign|insert)\s*\("
)
RECORDER_HOT_SCOPES = [
    (
        "src/sim/telemetry.cc",
        {
            "TimeSeriesRecorder::Tick": r"TimeSeriesRecorder::Tick",
            "TimeSeriesRecorder::FoldTile": r"TimeSeriesRecorder::FoldTile",
        },
        RECORDER_HOT_LOOKUP_BAN_RE,
        "resolve in RebuildPlan instead",
    ),
    (
        "src/sim/flight.h",
        {
            "FlightRecorder::Record": r"void\s+Record",
            "FlightRecorder::Append": r"FlightEvent\*\s+Append",
        },
        RECORDER_HOT_APPEND_BAN_RE,
        "the ring append is a masked store; do setup work in Arm()",
    ),
    (
        "src/net/network.h",
        {
            "Network::EmitTrace": r"void\s+EmitTrace",
            "Network::EmitTraceArmed": r"void\s+EmitTraceArmed",
        },
        RECORDER_HOT_APPEND_BAN_RE,
        "the emission gate is one branch and the armed fill is direct "
        "stores; batch-format offline instead",
    ),
]


def recorder_hot_body_lines(text: str, definition: str) -> list[tuple[int, str]]:
    """(lineno, line) pairs inside the bodies of functions defined by
    `definition` (a regex for the text before the parameter list)."""
    out = []
    for m in re.finditer(r"\b" + definition + r"\s*\(", text):
        open_brace = text.find("{", m.end())
        if open_brace < 0:
            continue
        # A declaration ends in ';' before any '{': skip it, or the scan
        # would brace-match some unrelated later body.
        if ";" in text[m.end():open_brace]:
            continue
        depth = 0
        end = open_brace
        for i in range(open_brace, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        first_line = text.count("\n", 0, open_brace) + 1
        body = text[open_brace:end]
        for offset, line in enumerate(body.splitlines()):
            out.append((first_line + offset, line))
    return out


def allow(line: str, tag: str) -> bool:
    return f"lint:allow {tag}" in line


def lint_recorder_hot(text: str, rel: str) -> list[str]:
    errors = []
    for scope_file, functions, ban_re, hint in RECORDER_HOT_SCOPES:
        if rel != scope_file:
            continue
        for name, definition in functions.items():
            body = recorder_hot_body_lines(text, definition)
            if not body:
                errors.append(
                    f"{rel}: [recorder-hot] hot path {name} matches no "
                    "function body in this file — it moved or was renamed; "
                    "update RECORDER_HOT_SCOPES in tools/lint.py"
                )
            for lineno, raw in body:
                code = LINE_COMMENT_RE.sub("", raw)
                if allow(raw, "recorder-hot"):
                    continue
                if ban_re.search(code):
                    errors.append(
                        f"{rel}:{lineno}: [recorder-hot] banned construct in "
                        f"a recording hot path — {hint}"
                    )
                if HOT_IO_RE.search(code):
                    errors.append(
                        f"{rel}:{lineno}: [recorder-hot] no stream/printf I/O "
                        f"in a recording hot path — {hint}"
                    )
    return errors


def lint_packet_drop(text: str, rel: str) -> list[str]:
    if not rel.startswith("src/") or rel in PACKET_DROP_ALLOWED_FILES:
        return []
    raw_lines = text.splitlines()
    code = "\n".join(LINE_COMMENT_RE.sub("", line) for line in raw_lines)
    errors = []
    for m in PACKET_DROP_RE.finditer(code):
        lineno = code.count("\n", 0, m.start()) + 1
        if allow(raw_lines[lineno - 1], "packet-drop"):
            continue
        errors.append(
            f"{rel}:{lineno}: [packet-drop] drop traces may only be "
            "emitted by src/net/port.cc or src/net/fault.cc; other "
            "sites need a counter and `// lint:allow packet-drop`"
        )
    return errors


def lint_text(text: str, rel: str) -> list[str]:
    """All violations in one file's text; `rel` is its repo-relative path,
    which decides the layer-scoped rules and allowlists."""
    errors = lint_recorder_hot(text, rel) + lint_packet_drop(text, rel)
    mutex_decls: list[tuple[int, str]] = []  # (lineno, mutex name)
    guarded_names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = INCLUDE_RE.match(raw)
        if m and not m.group(1).startswith(ROOT_PREFIXES):
            errors.append(
                f"{rel}:{lineno}: [include-root] quoted include "
                f'"{m.group(1)}" must be repo-root-relative (src/... or bench/...)'
            )
        # Strip trailing // comments before content rules so prose like
        # "never call new Packet directly" does not trip them — but check
        # the raw line for suppressions first.
        code = LINE_COMMENT_RE.sub("", raw)
        if NEW_PACKET_RE.search(code) and rel != POOL_FILE and not allow(raw, "new-packet"):
            errors.append(
                f"{rel}:{lineno}: [new-packet] allocate packets via "
                "PacketPool::Allocate, not bare new Packet"
            )
        if (
            STD_FUNCTION_RE.search(code)
            and rel.startswith(HOT_LAYERS)
            and not allow(raw, "std-function")
        ):
            errors.append(
                f"{rel}:{lineno}: [std-function] hot-path layers use "
                "InplaceFunction (src/sim/inplace_function.h), not std::function"
            )
        if BARE_ASSERT_RE.search(code) and not allow(raw, "bare-assert"):
            errors.append(
                f"{rel}:{lineno}: [bare-assert] use TFC_CHECK / TFC_DCHECK "
                "(src/sim/check.h) instead of assert()"
            )
        if (
            HOT_IO_RE.search(code)
            and rel.startswith(HOT_IO_LAYERS)
            and rel not in HOT_IO_ALLOWED_FILES
            and not allow(raw, "hot-io")
        ):
            errors.append(
                f"{rel}:{lineno}: [hot-io] no stream/printf I/O in hot-path "
                "layers; use the metric registry / tracer / exporter "
                "(src/sim/telemetry.h)"
            )
        if (
            DAEMON_TICK_RE.search(code)
            and rel.startswith("src/")
            and rel not in DAEMON_TICK_ALLOWED_FILES
        ):
            errors.append(
                f"{rel}:{lineno}: [daemon-tick] periodic work ticks through "
                "PeriodicTimer (src/sim/timer.h), not a hand-rolled "
                "ScheduleDaemonAfter loop"
            )
        if (
            RAW_THREAD_RE.search(code)
            and rel.startswith("src/")
            and rel not in RAW_THREAD_ALLOWED_FILES
            and not allow(raw, "raw-thread")
        ):
            errors.append(
                f"{rel}:{lineno}: [raw-thread] use the annotated wrappers "
                "from src/sim/thread_annotations.h (tfc::Mutex / MutexLock), "
                "not raw std threading primitives"
            )
        if (
            rel.startswith(UNITS_LAYERS)
            and rel not in UNITS_ALLOWED_FILES
            and not allow(raw, "units")
        ):
            m = UNITS_RE.search(code)
            if m:
                errors.append(
                    f"{rel}:{lineno}: [units] '{m.group(1)}' declares a "
                    "unit-suffixed quantity with a raw arithmetic type — use "
                    "Bytes / Tokens / TimeNs / BitsPerSec (src/sim/units.h), "
                    "or mark a sanctioned raw view with `// lint:allow units`"
                )
        if rel.startswith("src/") and rel != "src/sim/thread_annotations.h":
            m = MUTEX_DECL_RE.search(code)
            if m and not allow(raw, "guarded-by"):
                mutex_decls.append((lineno, m.group(1)))
            for g in GUARDED_BY_RE.finditer(code):
                guarded_names.add(g.group(1))
    for lineno, name in mutex_decls:
        # The annotation may spell the mutex with qualifiers ("impl_->mu_");
        # a substring match on the bare name keeps the rule usable.
        if not any(name in g for g in guarded_names):
            errors.append(
                f"{rel}:{lineno}: [guarded-by] tfc::Mutex '{name}' has no "
                "TFC_GUARDED_BY user in this file — annotate the data it "
                "protects (or delete the unused lock)"
            )
    return errors


def main() -> int:
    if sys.argv[1:]:
        print(f"lint.py: unknown argument(s): {' '.join(sys.argv[1:])}", file=sys.stderr)
        return 2
    errors = []
    files = 0
    for d in SCAN_DIRS:
        for path in sorted((REPO / d).rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                rel = path.relative_to(REPO).as_posix()
                if rel.startswith(SKIP_PREFIXES):
                    continue
                files += 1
                errors.extend(lint_text(path.read_text(), rel))
    for scope_file, *_ in RECORDER_HOT_SCOPES:
        if not (REPO / scope_file).is_file():
            errors.append(
                f"{scope_file}: [recorder-hot] hot-path file is missing — "
                "update RECORDER_HOT_SCOPES in tools/lint.py"
            )
    for e in errors:
        print(e)
    print(f"lint.py: {files} files, {len(errors)} violation(s)", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
