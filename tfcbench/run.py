#!/usr/bin/env python3
"""End-to-end benchmark of the TFC simulator on the paper's own scenarios.

Run from the repository root:

    python3 tfcbench/run.py --workload websearch [--seed N|default|heldout]
                            [--seconds S] [--trace 0|1]

--workload all runs every workload in turn. The script builds the scenario program
(tfcbench/CMakeLists.txt, which compiles ../src) under $CARGO_TARGET_DIR or
.bench_build, runs one scenario process per scenario run for --seconds seconds,
checks every run's simulated outcomes, and prints each metric as
"name value unit". Its last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced runs; --trace 1 the
per-layer metrics from traced runs, each paired with an untraced run. See
tfcbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from statistics import fmean, median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")

# name -> (default seed, held-out seed, traffic draws per run). Defaults are
# the figure benches' seeds (161 for the leaf-spine and the fat tree, 151 for
# the star) and tfcsim's seed 1 for the tfcsim scenario.
#
# A run with seed S simulates the draws S, S + DRAW_STRIDE, ... and reports
# the mean over draws. telemetry_leafspine needs 12: its 0.3 s of traffic
# holds only a few heavy-tailed background flows, so one draw's event count
# ranges 1.2M-3.0M with the seed. websearch's work varies a few percent with
# the seed, and 3 draws average that out. incast and the shuffle draw
# nothing random, so one draw is the whole input.
WORKLOADS = {
    "websearch": (161, 2016, 3),
    "incast": (151, 2016, 1),
    "shuffle_fattree": (161, 2016, 1),
    "telemetry_leafspine": (1, 2016, 12),
}
DRAW_STRIDE = 1_000_000

END_TO_END = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("wall_per_sim_s", "s/s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
]

# Profiler sites present at this commit. Sites are read generically; a site
# the library no longer has reports 0, and new ones are printed as extras.
PROFILE_SITES = ["port.serialize", "tfc.release_parked", "tfc.failover",
                 "transport.rto", "net.audit_tick"]

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.heap_depth_mean", "count"),
    ("sim.heap_depth_max", "count"),
    ("sim.run_s", "s"),
    ("sim.telemetry.series", "count"),
    ("sim.telemetry.ticks", "count"),
    ("sim.telemetry.record_s", "s"),
    ("sim.telemetry.export_s", "s"),
    ("sim.telemetry.spill_bytes", "B"),
] + [(f"sim.profile.{site}.{field}", unit) for site in PROFILE_SITES
     for field, unit in (("calls", "count"), ("self_s", "s"))] + [
    ("sim.unattributed_s", "s"),
    ("net.packets_tx", "count"),
    ("net.events_per_packet", "ratio"),
    ("net.hops_per_packet", "ratio"),
    ("net.pool_hits", "count"),
    ("net.pool_misses", "count"),
    ("net.pool_high_water", "count"),
    ("net.drops", "count"),
    ("net.ecn_marks", "count"),
    ("net.max_queue_kb", "KB"),
    ("net.bottleneck_busy_frac", "ratio"),
    ("topo.build_s", "s"),
    ("topo.nodes", "count"),
    ("topo.ports", "count"),
    ("tfc.install_s", "s"),
    ("tfc.agents", "count"),
    ("tfc.slots", "count"),
    ("tfc.parked_acks", "count"),
    ("transport.flows", "count"),
    ("transport.data_packets", "count"),
    ("transport.retransmits", "count"),
    ("transport.timeouts", "count"),
    ("transport.useful_frac", "ratio"),
    ("workload.start_s", "s"),
    ("workload.ops", "count"),
    ("workload.ops_failed", "count"),
    ("teardown_s", "s"),
    ("trace.overhead", "ratio"),
]

# Per-layer values that come straight from the traced run's counters.
SCENARIO_LAYERS = [
    "sim.events", "sim.heap_depth_mean", "sim.heap_depth_max",
    "net.packets_tx", "net.events_per_packet", "net.hops_per_packet",
    "net.pool_hits", "net.pool_misses", "net.pool_high_water", "net.drops",
    "net.ecn_marks", "net.max_queue_kb", "net.bottleneck_busy_frac",
    "topo.nodes", "topo.ports", "tfc.agents", "tfc.slots", "tfc.parked_acks",
    "transport.flows", "transport.data_packets", "transport.retransmits",
    "transport.timeouts", "transport.useful_frac",
]

# Phase spans whose self time is reported as a per-layer metric.
SPAN_METRICS = {
    "topo.build": "topo.build_s",
    "tfc.install": "tfc.install_s",
    "workload.start": "workload.start_s",
    "sim.telemetry.export": "sim.telemetry.export_s",
    "teardown": "teardown_s",
}

SETUPS_PER_PROCESS = 10


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Spans


def validate_spans(spans):
    """Raises BenchError unless the spans form one properly nested tree."""
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] == -1]
    if len(roots) != 1:
        raise BenchError(f"expected one root span, found {len(roots)}")
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            raise BenchError(f"span {s['id']} ({s['name']}) never closed")
        if s["parent"] == -1:
            continue
        p = by_id.get(s["parent"])
        if p is None or p["id"] >= s["id"]:
            raise BenchError(f"span {s['id']} has bad parent {s['parent']}")
        if not p["start_ns"] <= s["start_ns"] <= s["end_ns"] <= p["end_ns"]:
            raise BenchError(f"span {s['id']} ({s['name']}) escapes its parent")
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for kids in children.values():
        kids = sorted(kids, key=lambda k: k["start_ns"])
        for a, b in zip(kids, kids[1:]):
            if b["start_ns"] < a["end_ns"]:
                raise BenchError(f"sibling spans {a['id']} and {b['id']} overlap")


def self_times(spans):
    """Span id -> duration minus the part of it its child spans cover (ns)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda k: k["start_ns"]):
            lo, hi = max(c["start_ns"], reach), min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered
    return out


def self_seconds_by_name(spans):
    """Span name -> summed self time (s) of every span with that name."""
    totals = self_times(spans)
    named = {}
    for s in spans:
        named[s["name"]] = named.get(s["name"], 0) + totals[s["id"]]
    return {k: v / 1e9 for k, v in named.items()}


# ---------------------------------------------------------------------------
# Build and run


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to tfcbench/")
    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "tfcbench")
    out_dir = os.path.abspath(os.path.join(root, out_dir))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("build failed: " + " ".join(cmd))
    return out_dir, os.path.join(out_dir, "tfcbench_scenario")


def run_scenario(binary, work, workload, seed, mode, setups=0, recorder=True):
    """Runs one scenario process (one scenario run); returns its JSON report."""
    run_dir = os.path.join(work, "run")
    spans_path = os.path.join(work, "spans.json")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}", f"--mode={mode}",
           f"--run-dir={run_dir}", f"--setups={setups}"]
    if mode == "traced":
        cmd.append(f"--spans={spans_path}")
    if not recorder:
        cmd.append("--no-recorder")
    env = {k: v for k, v in os.environ.items() if k not in ("TFC_PROFILE", "TFC_AUDIT")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=170)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"scenario exited with {proc.returncode}: {' '.join(cmd)}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode == "traced":
        with open(spans_path) as f:
            report["spans"] = json.load(f)
        os.remove(spans_path)
    return report


# ---------------------------------------------------------------------------
# Output check


def draw_seeds(workload, seed):
    return [seed + k * DRAW_STRIDE for k in range(WORKLOADS[workload][2])]


def load_goldens():
    if not os.path.isfile(GOLDENS):
        return {}
    with open(GOLDENS) as f:
        return json.load(f)


class Checker:
    """Compares each run's simulated outcomes for exact equality against the
    golden recorded for (workload, draw seed) when one exists, and always
    against the first run of the same draw in this invocation. A mismatch
    fails every operation of that run."""

    def __init__(self, workload):
        self.goldens = load_goldens().get(workload, {})
        self.first = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0

    def check(self, report, seed, label):
        outcomes = report["outcomes"]
        ops, failed = int(report["ops_attempted"]), int(report["ops_failed"])
        golden = self.goldens.get(str(seed))
        self.golden_checked += golden is not None
        ok = True
        for ref_name, ref in (("golden", golden), ("first run", self.first.get(seed))):
            if ref is not None and ref != outcomes:
                diff = sorted(k for k in set(ref) | set(outcomes)
                              if ref.get(k) != outcomes.get(k))
                self.problems.append(
                    f"{label} (seed {seed}): outcomes differ from {ref_name}: {diff}")
                ok = False
        self.first.setdefault(seed, outcomes)
        self.attempted += ops
        self.failed += failed if ok else ops
        return ok

    @property
    def correct(self):
        return not self.problems


# ---------------------------------------------------------------------------
# Measurement


def fits(deadline, took):
    """True if a run as long as the last one (`took` s) ends by `deadline`.
    Runs never start past the window, so a benchmark run lasts `seconds`
    rather than `seconds` plus most of one scenario run."""
    return time.monotonic() + took <= deadline


def measure_end_to_end(binary, work, workload, seed, seconds, checker):
    """Runs every draw once, then cycles through them again while the next
    run fits in `seconds`. Each metric is the mean over draws of the draw's
    median."""
    draws = draw_seeds(workload, seed)
    reports = {d: [] for d in draws}
    took = {}
    deadline = time.monotonic() + seconds
    n = 0
    while n < len(draws) or fits(deadline, took[draws[n % len(draws)]]):
        d = draws[n % len(draws)]
        t0 = time.monotonic()
        r = run_scenario(binary, work, workload, d, "plain", setups=SETUPS_PER_PROCESS)
        took[d] = time.monotonic() - t0
        checker.check(r, d, f"run {n}")
        reports[d].append(r)
        n += 1

    def per_draw(fn):
        return fmean(median([fn(r) for r in reps]) for reps in reports.values())

    setups = [s for reps in reports.values() for r in reps for s in r["setup_samples_s"]]
    metrics = {
        "total_s": per_draw(lambda r: r["total_s"]),
        "setup_s": median(setups),
        "wall_per_sim_s": per_draw(lambda r: r["run_s"] / r["sim_s"]),
        "peak_rss_mb": per_draw(lambda r: r["peak_rss_kb"] / 1024.0),
        "output_mb": per_draw(lambda r: r["output_bytes"] / 1e6),
    }
    first = reports[draws[0]][0]
    info = (f"{n} run(s) over {len(draws)} draw(s), {len(setups)} set-ups; seed {seed}: "
            f"sim {first['sim_s']:.6g} s, {first['events']:.0f} events")
    return metrics, info


def layer_values(plain, bare, traced):
    """Per-layer metrics of one (untraced, traced) pair of runs."""
    layers = traced["layers"]
    spans = traced["spans"]["spans"]
    validate_spans(spans)
    selfs = self_seconds_by_name(spans)
    run_span = next(s for s in spans if s["name"] == "sim.run")
    traced_run_s = (run_span["end_ns"] - run_span["start_ns"]) / 1e9
    m = {k: layers[k] for k in SCENARIO_LAYERS}
    profile = layers["profile"]
    attributed = 0.0
    for site in sorted(set(PROFILE_SITES) | set(profile)):
        calls, wall_s = profile.get(site, [0, 0.0])
        m[f"sim.profile.{site}.calls"] = calls
        m[f"sim.profile.{site}.self_s"] = wall_s
        attributed += wall_s
    m["sim.unattributed_s"] = traced_run_s - attributed
    m["sim.run_s"] = traced_run_s
    m["sim.events_per_s"] = plain["events"] / plain["run_s"]
    m["sim.telemetry.series"] = traced["series"]
    m["sim.telemetry.ticks"] = traced["ticks"]
    m["sim.telemetry.spill_bytes"] = traced["spill_bytes"]
    m["sim.telemetry.record_s"] = plain["run_s"] - bare["run_s"] if bare else 0.0
    for span_name, metric in SPAN_METRICS.items():
        m[metric] = selfs.get(span_name, 0.0)
    m["workload.ops"] = traced["ops_attempted"]
    m["workload.ops_failed"] = traced["ops_failed"]
    m["trace.overhead"] = traced_run_s / plain["run_s"]
    return m


def measure_per_layer(binary, work, workload, seed, seconds, checker, wants_bare):
    rows = []
    took = 0.0
    deadline = time.monotonic() + seconds
    while not rows or fits(deadline, took):
        t0 = time.monotonic()
        plain = run_scenario(binary, work, workload, seed, "plain")
        checker.check(plain, seed, f"untraced run {len(rows)}")
        bare = None
        if wants_bare:
            bare = run_scenario(binary, work, workload, seed, "plain", recorder=False)
            checker.check(bare, seed, f"recorder-detached run {len(rows)}")
        traced = run_scenario(binary, work, workload, seed, "traced")
        checker.check(traced, seed, f"traced run {len(rows)}")
        rows.append(layer_values(plain, bare, traced))
        took = time.monotonic() - t0
    names = sorted(set().union(*rows))
    metrics = {k: median([r.get(k, 0) for r in rows]) for k in names}
    return metrics, f"{len(rows)} traced/untraced pair(s)"


def run_workload(binary, work, workload, seed, seconds, trace):
    checker = Checker(workload)
    if trace:
        metrics, info = measure_per_layer(binary, work, workload, seed, seconds, checker,
                                          wants_bare=workload == "telemetry_leafspine")
        spec = PER_LAYER
    else:
        metrics, info = measure_end_to_end(binary, work, workload, seed, seconds, checker)
        spec = END_TO_END
    print(f"# {workload} seed={seed}: {info}; {checker.golden_checked} run(s) golden-checked; "
          f"ops {checker.attempted} attempted, {checker.failed} failed")
    for problem in checker.problems:
        print(f"# OUTPUT CHECK FAILED: {problem}")
    units = dict(spec)
    out = {}
    for name, unit in spec:
        out[name] = {"value": metrics.get(name, 0), "unit": unit}
    for name, value in metrics.items():
        if name not in units:
            print(f"# extra (not in BENCHMARK.json): {name} {value:.6g}")
    for name, m in out.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": checker.correct, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": out}


def resolve_seed(workload, seed):
    default, heldout, _ = WORKLOADS[workload]
    if seed in (None, "default"):
        return default
    if seed == "heldout":
        return heldout
    if not re.fullmatch(r"\d{1,19}", seed):
        raise BenchError(f"--seed must be a whole number, 'default' or 'heldout': {seed}")
    return int(seed)


def record_goldens(binary, work, workload, seeds):
    goldens = load_goldens()
    for seed in [d for s in seeds for d in draw_seeds(workload, s)]:
        r = run_scenario(binary, work, workload, seed, "plain")
        if r["ops_failed"]:
            raise BenchError(f"{workload} seed {seed}: {r['ops_failed']} ops failed")
        goldens.setdefault(workload, {})[str(seed)] = r["outcomes"]
        print(f"recorded {workload} seed {seed}")
    # One line per (workload, seed) keeps the file reviewable.
    lines = ["{"]
    for wi, w in enumerate(sorted(goldens)):
        lines.append(f" {json.dumps(w)}: {{")
        seeds = sorted(goldens[w], key=int)
        for si, seed in enumerate(seeds):
            comma = "," if si + 1 < len(seeds) else ""
            lines.append(f"  {json.dumps(seed)}: {json.dumps(goldens[w][seed])}{comma}")
        lines.append(" }" + ("," if wi + 1 < len(goldens) else ""))
    lines.append("}")
    with open(GOLDENS, "w") as f:
        f.write("\n".join(lines) + "\n")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", help="whole number, 'default' or 'heldout'")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", metavar="SEEDS",
                    help="comma-separated seeds whose draws' outcomes to store in "
                         "goldens.json")
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        out_dir, binary = build(root)
        work = os.path.join(out_dir, "work", str(os.getpid()))
        os.makedirs(work, exist_ok=True)
        try:
            workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
            if args.record_goldens:
                for w in workloads:
                    seeds = [resolve_seed(w, s) for s in args.record_goldens.split(",")]
                    record_goldens(binary, work, w, seeds)
                return 0
            results = {w: run_workload(binary, work, w, resolve_seed(w, args.seed),
                                       args.seconds, args.trace) for w in workloads}
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        print(f"tfcbench: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
