#!/usr/bin/env python3
"""Validator for telemetry run directories (stdlib only; used by ci.sh).

Usage: telemetry_schema.py RUN_DIR [RUN_DIR ...]
       telemetry_schema.py --flight DIR [DIR ...]
       telemetry_schema.py --sweep SWEEP_DIR [SWEEP_DIR ...]

Checks the files the exporter (src/sim/telemetry.cc) writes per run:

  manifest.json   object with schema_version == 2, git_describe,
                  created_unix / created_utc, and a "run" object.
  metrics.tfcb    binary series spill (all little-endian), version 2:
                  "TFCB" magic, u32 version, u32 series_count,
                  u64 tick_count, u64 run_count, interned name table
                  ({u32 len, bytes} per series), tick_count i64 tick times,
                  then 20-byte runs {u32 series_id, u32 first_tick,
                  u32 ticks, f64 v}. Tick times must be non-decreasing;
                  every run must cover ticks >= 1 with first_tick + ticks
                  <= tick_count and name an in-range series; runs are
                  grouped by series in name-table order, and a series'
                  runs are ordered and do not overlap. Other versions
                  are rejected. This checker is the spill's only reader.
  summary.json    schema_version == 2 plus counters / gauges / histograms /
                  profile sections with the shapes documented in
                  docs/observability.md.

Flight-recorder artifacts (src/sim/flight.cc) are validated when present in
a run directory, or standalone via `--flight DIR`:

  flight.tfct           binary ring dump: "TFCT" magic, u32 version (=1),
                        u32 record_bytes (=40), u32 node_count,
                        u64 recorded_total, u64 event_count, a name table
                        ({u32 len, bytes} per node), then fixed 40-byte
                        little-endian records {i64 time_ns, u64 seq, i32 a,
                        i32 b, i32 c, i32 flow, i16 node, i16 port, u8 type,
                        u8 ptype, u8 flags, u8 weight}. Timestamps must be
                        non-decreasing (the ring preserves record order),
                        types in range, and event_count <= recorded_total.
  trace.perfetto.json   Chrome trace-event export (`tfcsim --export-trace`):
                        a traceEvents array whose non-metadata events have
                        non-decreasing ts, whose "X" slices have dur >= 0,
                        and whose async "b"/"e" span pairs balance per
                        (cat, id).

Sweep directories (`tfcsim --sweep N --telemetry-dir=DIR`) are validated
via `--sweep DIR`:

  sweep.json      object with schema_version == 2, git_describe, a "sweep"
                  config object, and a "runs" list with one row per run:
                  {index, name, status, exit_code, signal, attempts,
                  wall_seconds} plus an optional "salvaged" file list.
                  status is one of ok / failed / timeout / skipped-cached;
                  every completed run's directory must itself validate as a
                  full run directory (a degraded sweep may carry failed
                  rows, but never corrupt completed ones).

Exit status: 0 when every directory validates, 1 otherwise.
"""

import json
import struct
import sys
from pathlib import Path

SCHEMA_VERSION = 2
TFCB_MAGIC = b"TFCB"
TFCB_PREFIX = struct.Struct("<4sII")     # magic, version, series_count
TFCB_VERSION = 2
TFCB_COUNTS = struct.Struct("<QQ")       # tick_count, run_count
TFCB_TICK = struct.Struct("<q")          # t_ns
TFCB_RUN = struct.Struct("<IIId")        # series_id, first_tick, ticks, v

TFCT_MAGIC = b"TFCT"
TFCT_VERSION = 1
TFCT_HEADER = struct.Struct("<4sIIIQQ")  # magic, version, record_bytes,
                                         # node_count, recorded_total, events
TFCT_RECORD = struct.Struct("<qQiiiihhBBBB")
TFCT_EVENT_TYPE_COUNT = 23  # kFlightEventTypeCount (src/sim/flight.h)


class Checker:
    def __init__(self):
        self.errors = []

    def error(self, where: str, msg: str) -> None:
        self.errors.append(f"{where}: {msg}")

    def expect(self, cond: bool, where: str, msg: str) -> bool:
        if not cond:
            self.error(where, msg)
        return cond


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_uint(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def load_json(path: Path, ck: Checker):
    try:
        with path.open() as f:
            return json.load(f)
    except FileNotFoundError:
        ck.error(str(path), "missing")
    except json.JSONDecodeError as e:
        ck.error(str(path), f"invalid JSON: {e}")
    return None


def check_manifest(path: Path, ck: Checker) -> None:
    doc = load_json(path, ck)
    if doc is None:
        return
    where = str(path)
    if not ck.expect(isinstance(doc, dict), where, "top level must be an object"):
        return
    ck.expect(doc.get("schema_version") == SCHEMA_VERSION, where,
              f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    ck.expect(isinstance(doc.get("git_describe"), str) and doc.get("git_describe"),
              where, "git_describe must be a non-empty string")
    ck.expect(is_uint(doc.get("created_unix")), where,
              "created_unix must be a non-negative integer")
    created_utc = doc.get("created_utc")
    ck.expect(isinstance(created_utc, str) and created_utc.endswith("Z"),
              where, "created_utc must be an ISO-8601 UTC string ending in Z")
    ck.expect(isinstance(doc.get("run"), dict), where, '"run" must be an object')


def check_metrics_tfcb(path: Path, ck: Checker) -> int:
    """Validates the binary spill; returns its sample count (or 0 on error)."""
    where = str(path)
    if not path.exists():
        ck.error(where, "missing")
        return 0
    data = path.read_bytes()
    if len(data) < TFCB_PREFIX.size:
        ck.error(where, f"truncated header ({len(data)} bytes)")
        return 0
    magic, version, series_count = TFCB_PREFIX.unpack_from(data)
    if not ck.expect(magic == TFCB_MAGIC, where, f"bad magic {magic!r}"):
        return 0
    if not ck.expect(version == TFCB_VERSION, where,
                     f"version must be {TFCB_VERSION}, got {version}"):
        return 0
    if len(data) < TFCB_PREFIX.size + TFCB_COUNTS.size:
        ck.error(where, f"truncated header ({len(data)} bytes)")
        return 0
    tick_count, run_count = TFCB_COUNTS.unpack_from(data, TFCB_PREFIX.size)
    off = TFCB_PREFIX.size + TFCB_COUNTS.size
    names = []
    for i in range(series_count):
        if off + 4 > len(data):
            ck.error(where, f"truncated name table at entry {i}")
            return 0
        (length,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + length > len(data):
            ck.error(where, f"truncated name table at entry {i}")
            return 0
        try:
            name = data[off:off + length].decode("utf-8")
        except UnicodeDecodeError:
            ck.error(where, f"name {i} is not valid UTF-8")
            name = ""
        ck.expect(bool(name), where, f"name {i} must be non-empty")
        names.append(name)
        off += length
    return check_tfcb_body(data[off:], names, tick_count, run_count, where, ck)


def check_tfcb_body(body, names, tick_count, run_count, where, ck) -> int:
    ticks_size = tick_count * TFCB_TICK.size
    if not ck.expect(len(body) == ticks_size + run_count * TFCB_RUN.size, where,
                     f"body is {len(body)} bytes, header promises {tick_count} "
                     f"ticks and {run_count} runs"):
        return 0
    prev_t = None
    for i, (t_ns,) in enumerate(TFCB_TICK.iter_unpack(body[:ticks_size])):
        if not ck.expect(prev_t is None or t_ns >= prev_t, where,
                         f"tick {i} time went backwards: {prev_t} -> {t_ns}"):
            return 0
        prev_t = t_ns
    samples = 0
    prev_sid, prev_end = -1, 0  # previous run's series and one-past-last tick
    for i, (sid, first, ticks, _v) in enumerate(
            TFCB_RUN.iter_unpack(body[ticks_size:])):
        loc = f"run {i}"
        if not (ck.expect(sid < len(names), where,
                          f"{loc} names out-of-range series {sid}")
                and ck.expect(ticks >= 1, where, f"{loc} covers zero ticks")
                and ck.expect(first + ticks <= tick_count, where,
                              f"{loc} ends at tick {first + ticks}, past "
                              f"tick_count {tick_count}")
                and ck.expect(sid > prev_sid or (sid == prev_sid and first >= prev_end),
                              where, f"{loc} ({names[sid]!r}) is out of order or "
                              "overlaps the run before it")):
            return 0
        prev_sid, prev_end = sid, first + ticks
        samples += ticks
    return samples


def check_flight_tfct(path: Path, ck: Checker) -> int:
    """Validates a flight-recorder dump; returns its event count (0 on error)."""
    where = str(path)
    data = path.read_bytes()
    if len(data) < TFCT_HEADER.size:
        ck.error(where, f"truncated header ({len(data)} bytes)")
        return 0
    magic, version, record_bytes, node_count, recorded_total, event_count = \
        TFCT_HEADER.unpack_from(data)
    if not ck.expect(magic == TFCT_MAGIC, where, f"bad magic {magic!r}"):
        return 0
    if not ck.expect(version == TFCT_VERSION, where,
                     f"version must be {TFCT_VERSION}, got {version}"):
        return 0
    if not ck.expect(record_bytes == TFCT_RECORD.size, where,
                     f"record size must be {TFCT_RECORD.size}, got {record_bytes}"):
        return 0
    ck.expect(event_count <= recorded_total, where,
              f"ring holds {event_count} events but only {recorded_total} "
              "were ever recorded")
    off = TFCT_HEADER.size
    for i in range(node_count):
        if off + 4 > len(data):
            ck.error(where, f"truncated node-name table at entry {i}")
            return 0
        (length,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + length > len(data):
            ck.error(where, f"truncated node-name table at entry {i}")
            return 0
        try:
            data[off:off + length].decode("utf-8")
        except UnicodeDecodeError:
            ck.error(where, f"node name {i} is not valid UTF-8")
        off += length
    body = len(data) - off
    if not ck.expect(body == event_count * TFCT_RECORD.size, where,
                     f"event section is {body} bytes, header promises "
                     f"{event_count * TFCT_RECORD.size}"):
        return 0
    prev_time = None
    for i in range(event_count):
        time_ns, _seq, _a, _b, _c, flow, node, port, etype, _pt, _fl, _w = \
            TFCT_RECORD.unpack_from(data, off)
        off += TFCT_RECORD.size
        loc = f"{where} event[{i}]"
        ck.expect(time_ns >= 0, loc, f"negative timestamp {time_ns}")
        ck.expect(prev_time is None or time_ns >= prev_time, loc,
                  f"time went backwards: {prev_time} -> {time_ns}")
        prev_time = time_ns
        if not ck.expect(etype < TFCT_EVENT_TYPE_COUNT, loc,
                         f"unknown event type {etype}"):
            return 0
        ck.expect(flow >= -1, loc, f"bad flow id {flow}")
        ck.expect(node >= -1, loc, f"bad node id {node}")
        ck.expect(port >= -1, loc, f"bad port index {port}")
    return event_count


def check_perfetto_json(path: Path, ck: Checker) -> int:
    """Validates a Chrome trace-event export; returns its event count."""
    doc = load_json(path, ck)
    if doc is None:
        return 0
    where = str(path)
    if not ck.expect(isinstance(doc, dict), where, "top level must be an object"):
        return 0
    events = doc.get("traceEvents")
    if not ck.expect(isinstance(events, list), where,
                     '"traceEvents" must be a list'):
        return 0
    prev_ts = None
    open_spans = {}  # (cat, id) -> open-begin depth
    for i, ev in enumerate(events):
        loc = f"{where} traceEvents[{i}]"
        if not ck.expect(isinstance(ev, dict), loc, "event must be an object"):
            continue
        ph = ev.get("ph")
        if not ck.expect(isinstance(ph, str) and ph, loc,
                         '"ph" must be a non-empty string'):
            continue
        if ph == "M":
            ck.expect(isinstance(ev.get("name"), str), loc,
                      "metadata needs a name")
            continue
        ts = ev.get("ts")
        if not ck.expect(is_number(ts), loc, '"ts" must be a number'):
            continue
        ck.expect(prev_ts is None or ts >= prev_ts - 1e-9, loc,
                  f"ts went backwards: {prev_ts} -> {ts}")
        prev_ts = ts
        if ph == "X":
            ck.expect(is_number(ev.get("dur")) and ev.get("dur") >= 0, loc,
                      'slice "dur" must be a non-negative number')
        elif ph == "b":
            key = (ev.get("cat"), ev.get("id"))
            open_spans[key] = open_spans.get(key, 0) + 1
        elif ph == "e":
            key = (ev.get("cat"), ev.get("id"))
            if not ck.expect(open_spans.get(key, 0) > 0, loc,
                             f"span end without begin for {key}"):
                continue
            open_spans[key] -= 1
    for key, depth in open_spans.items():
        ck.expect(depth == 0, where, f"unclosed async span {key}")
    return len(events)


def check_flight_dir(run_dir: Path, ck: Checker) -> int:
    """Validates a directory's flight artifacts; returns the event count."""
    tfct = run_dir / "flight.tfct"
    if not tfct.exists():
        ck.error(str(tfct), "missing")
        return 0
    events = check_flight_tfct(tfct, ck)
    perfetto = run_dir / "trace.perfetto.json"
    if perfetto.exists():
        check_perfetto_json(perfetto, ck)
    return events


def check_histogram(h, where: str, ck: Checker) -> None:
    if not ck.expect(isinstance(h, dict), where, "histogram must be an object"):
        return
    for key in ("count", "sum", "min", "max", "p50", "p90", "p99", "p999"):
        ck.expect(is_uint(h.get(key)), where, f"{key} must be a non-negative integer")
    ck.expect(is_number(h.get("mean")), where, "mean must be a number")
    buckets = h.get("buckets")
    if not ck.expect(isinstance(buckets, list), where, "buckets must be a list"):
        return
    total = 0
    for i, b in enumerate(buckets):
        loc = f"{where} bucket[{i}]"
        if not ck.expect(isinstance(b, list) and len(b) == 3, loc,
                         "bucket must be [lower, upper, count]"):
            continue
        lo, hi, n = b
        ck.expect(is_uint(lo) and is_uint(hi) and is_uint(n), loc,
                  "bucket fields must be non-negative integers")
        # upper == 0 marks the unbounded top bucket.
        ck.expect(hi == 0 or hi > lo, loc, f"empty bucket range [{lo}, {hi})")
        ck.expect(n > 0, loc, "sparse export must omit empty buckets")
        if is_uint(n):
            total += n
    ck.expect(total == h.get("count"), where,
              f"bucket counts sum to {total}, count says {h.get('count')}")


def check_summary(path: Path, ck: Checker) -> None:
    doc = load_json(path, ck)
    if doc is None:
        return
    where = str(path)
    if not ck.expect(isinstance(doc, dict), where, "top level must be an object"):
        return
    ck.expect(doc.get("schema_version") == SCHEMA_VERSION, where,
              f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    for section in ("counters", "gauges", "histograms", "profile"):
        ck.expect(isinstance(doc.get(section), dict), where,
                  f'"{section}" must be an object')
    for name, v in (doc.get("counters") or {}).items():
        ck.expect(is_uint(v), f"{where} counters[{name!r}]",
                  "counter must be a non-negative integer")
    for name, v in (doc.get("gauges") or {}).items():
        ck.expect(v is None or is_number(v), f"{where} gauges[{name!r}]",
                  "gauge must be a number or null")
    for name, h in (doc.get("histograms") or {}).items():
        check_histogram(h, f"{where} histograms[{name!r}]", ck)
    for name, site in (doc.get("profile") or {}).items():
        loc = f"{where} profile[{name!r}]"
        if ck.expect(isinstance(site, dict), loc, "site must be an object"):
            for key in ("hits", "sim_ns", "wall_ns"):
                ck.expect(is_uint(site.get(key)), loc,
                          f"{key} must be a non-negative integer")


def check_run_dir(run_dir: Path, ck: Checker) -> int:
    check_manifest(run_dir / "manifest.json", ck)
    samples = check_metrics_tfcb(run_dir / "metrics.tfcb", ck)
    check_summary(run_dir / "summary.json", ck)
    # Flight-recorder artifacts ride along when the run was armed.
    if (run_dir / "flight.tfct").exists():
        check_flight_dir(run_dir, ck)
    return samples


SWEEP_SCHEMA_VERSION = 2
RUN_STATUSES = {"ok", "failed", "timeout", "skipped-cached"}


def check_sweep_dir(sweep_dir: Path, ck: Checker) -> int:
    """Validates sweep.json and every completed run's directory; returns the
    number of run rows."""
    path = sweep_dir / "sweep.json"
    doc = load_json(path, ck)
    if doc is None:
        return 0
    where = str(path)
    if not ck.expect(isinstance(doc, dict), where, "top level must be an object"):
        return 0
    ck.expect(doc.get("schema_version") == SWEEP_SCHEMA_VERSION, where,
              f"schema_version must be {SWEEP_SCHEMA_VERSION}, "
              f"got {doc.get('schema_version')!r}")
    ck.expect(isinstance(doc.get("git_describe"), str) and doc.get("git_describe"),
              where, "git_describe must be a non-empty string")
    ck.expect(isinstance(doc.get("sweep"), dict), where, '"sweep" must be an object')
    runs = doc.get("runs")
    if not ck.expect(isinstance(runs, list) and runs, where,
                     '"runs" must be a non-empty list'):
        return 0
    for i, r in enumerate(runs):
        loc = f"{where} runs[{i}]"
        if not ck.expect(isinstance(r, dict), loc, "run must be an object"):
            continue
        ck.expect(r.get("index") == i, loc,
                  f'index must be {i}, got {r.get("index")!r}')
        name = r.get("name")
        ck.expect(isinstance(name, str) and name, loc,
                  "name must be a non-empty string")
        status = r.get("status")
        if not ck.expect(status in RUN_STATUSES, loc,
                         f"status must be one of {sorted(RUN_STATUSES)}, "
                         f"got {status!r}"):
            continue
        exit_code = r.get("exit_code")
        ck.expect(isinstance(exit_code, int) and not isinstance(exit_code, bool),
                  loc, "exit_code must be an integer")
        ck.expect(is_uint(r.get("signal")), loc,
                  "signal must be a non-negative integer")
        ck.expect(is_uint(r.get("attempts")), loc,
                  "attempts must be a non-negative integer")
        wall = r.get("wall_seconds")
        ck.expect(is_number(wall) and wall >= 0, loc,
                  "wall_seconds must be a non-negative number")
        salvaged = r.get("salvaged", [])
        ck.expect(isinstance(salvaged, list) and
                  all(isinstance(s, str) and s for s in salvaged), loc,
                  "salvaged must be a list of non-empty strings")
        # Status/field consistency.
        if status in ("ok", "skipped-cached"):
            ck.expect(exit_code == 0, loc, f"{status} run with exit_code {exit_code!r}")
            ck.expect(r.get("signal") == 0, loc, f"{status} run with a signal")
        else:
            ck.expect(exit_code != 0, loc, f"{status} run with exit_code 0")
        if status == "skipped-cached":
            ck.expect(r.get("attempts") == 0, loc,
                      "skipped-cached run must record 0 attempts (never forked)")
        elif is_uint(r.get("attempts")):
            ck.expect(r.get("attempts") >= 1, loc,
                      f"{status} run must record at least 1 attempt")
        # A completed run must have left a fully valid run directory behind
        # (sweep.json lives in the telemetry dir, so run dirs are siblings).
        if status in ("ok", "skipped-cached") and isinstance(name, str) and name:
            run_dir = sweep_dir / name
            if ck.expect(run_dir.is_dir(), loc,
                         f"completed run has no run directory {run_dir}"):
                check_run_dir(run_dir, ck)
    return len(runs)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ck = Checker()
    args = argv[1:]
    mode = "run"
    if args and args[0] in ("--flight", "--sweep"):
        mode = args[0][2:]
        args = args[1:]
        if not args:
            print(__doc__.strip(), file=sys.stderr)
            return 2
    for arg in args:
        run_dir = Path(arg)
        if not run_dir.is_dir():
            ck.error(arg, "not a directory")
            continue
        if mode == "flight":
            events = check_flight_dir(run_dir, ck)
            print(f"telemetry_schema.py: {run_dir}: {events} flight event(s)",
                  file=sys.stderr)
        elif mode == "sweep":
            runs = check_sweep_dir(run_dir, ck)
            print(f"telemetry_schema.py: {run_dir}: {runs} sweep run(s)",
                  file=sys.stderr)
        else:
            samples = check_run_dir(run_dir, ck)
            print(f"telemetry_schema.py: {run_dir}: {samples} samples",
                  file=sys.stderr)
    for e in ck.errors:
        print(e)
    print(f"telemetry_schema.py: {len(ck.errors)} violation(s)", file=sys.stderr)
    return 1 if ck.errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
