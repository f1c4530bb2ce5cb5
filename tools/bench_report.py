#!/usr/bin/env python3
"""Benchmark-trajectory report over the codic_run scenarios.

Runs the bench_hotpath microbenchmark plus the fleet + scheduler +
refresh + QoS + serving + thermal/co-sim scenarios, extracts the hot
path's wall-clock throughput and the scenarios' *modeled* metrics
(makespan, latency percentiles, read-queue latencies, energy, thermal
peaks, contention slowdowns - deterministic, machine-independent
values) into a BENCH_PR10.json trajectory file, and checks every
scenario document it runs against tools/contracts.py, the one place
the per-run checks on scenario output live.

Its own gates are the three that compare runs:

  1. No lower-is-better modeled metric regresses more than TOLERANCE
     (15%) against the committed baseline. Metrics and scenarios
     absent from the baseline are recorded without gating.
  2. The batched bank-parallel shard replay improves the 8-shard
     fleet_scaling makespan by at least MIN_IMPROVEMENT_PCT (20%)
     over the eager single-request replay.
  3. bench_hotpath wall-clock throughput (transactions over the
     median of its repeated wall_s samples) does not drop more than
     HOTPATH_TOLERANCE (15%) below the baseline's txn_per_sec. The
     baseline is pinned per runner class, so only a genuine hot-path
     slowdown trips it.

Scenario wall_s values (--timings) are telemetry, never gated: only
modeled values are comparable across machines. The PUF layer is
recorded the same way: puf_fig5_jaccard at --scale 0.1 contributes
each PUF's intra_mean/inter_mean per voltage section (no GATED key,
so never gated) plus its process wall_s under --timings.

Usage:
  bench_report.py --build-dir build --out BENCH_PR10.json \
      [--baseline bench/BENCH_baseline.json] [--write-baseline FILE] \
      [--skip-hotpath] [--timings]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import contracts

SCHEMA = "codic-bench-trajectory-v2"

TOLERANCE = 0.15
HOTPATH_TOLERANCE = 0.15
MIN_IMPROVEMENT_PCT = 20.0

BENCH_SCALE = "0.25"
PUF_SCALE = "0.1"
FLEET_ARGS = ["--devices", "1000", "--requests", "20000"]

# Committed sample trace replayed for the trajectory (relative to
# the repository root, where CI invokes this script).
SAMPLE_TRACE = os.path.join("bench", "traces",
                            "ablation_scheduler_seed1.trace")


def run_codic(build_dir, args, timings):
    """Run codic_run and return its parsed JSON document."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as f:
        out_path = f.name
    cmd = [os.path.join(build_dir, "codic_run"), *args,
           "--out", out_path, "--quiet"]
    if timings:
        cmd.append("--timings")
    try:
        subprocess.run(cmd, check=True)
        with open(out_path) as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def run_hotpath(build_dir):
    """Run bench_hotpath and derive txn_per_sec from its wall_s.

    The binary reports its own median/txn_per_sec, but the gate
    re-derives both from the raw wall_s samples so the gated number
    is exactly transactions / median(wall_s) regardless of binary
    version.
    """
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as f:
        out_path = f.name
    cmd = [os.path.join(build_dir, "bench_hotpath"),
           "--out", out_path]
    try:
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        with open(out_path) as f:
            doc = json.load(f)
    finally:
        os.unlink(out_path)
    if doc.get("schema") != "codic-hotpath-v1":
        raise SystemExit("bench_report: unexpected bench_hotpath "
                         f"schema {doc.get('schema')!r}")
    hotpath = {}
    for name, loop in sorted(doc["loops"].items()):
        wall = sorted(loop["wall_s"])
        median_wall_s = wall[len(wall) // 2]
        hotpath[name] = {
            "transactions": loop["transactions"],
            "wall_s": loop["wall_s"],
            "median_wall_s": median_wall_s,
            "txn_per_sec": loop["transactions"] / median_wall_s,
        }
    return hotpath


def first(doc, predicate, what):
    """First row matching `predicate`; exits when none was emitted."""
    for scenario in doc:
        for r in scenario["rows"]:
            if predicate(r):
                return r
    raise SystemExit(f"bench_report: no {what} row emitted")


def with_wall(r, out):
    """Add the row's wall-clock telemetry (--timings) to `out`."""
    if "wall_s" in r:
        out["wall_s"] = r["wall_s"]
    return out


def latency_metrics(doc):
    """Metrics of a scenario that emits a modeled-latency row.

    These scenarios report summed service time (total_service_ms),
    not a makespan, so the two metrics are never conflated.
    """
    r = first(doc, lambda r: "p99_us" in r, "latency")
    return with_wall(r, {
        "total_service_ms": r["total_service_ms"],
        "p50_us": r["p50_us"],
        "p95_us": r["p95_us"],
        "p99_us": r["p99_us"],
        "energy_mj": r["energy_mj"],
    })


def scaling_metrics(doc, shards):
    """Makespan of one shard count of a fleet_scaling sweep."""
    r = first(doc, lambda r: r.get("shards") == shards and
              "makespan_ms" in r, f"{shards}-shard scaling")
    return with_wall(r, {
        "makespan_ms": r["makespan_ms"],
        "speedup_vs_1_shard": r["speedup_vs_1_shard"],
    })


def ablation_metrics(doc):
    """Batched replay point of the ablation_scheduler sweep."""
    r = first(doc, lambda r: r.get("replay_batch") == 8 and
              "makespan_ms" in r, "replay_batch=8 ablation")
    return {
        "makespan_ms": r["makespan_ms"],
        "speedup_vs_serial": r["speedup_vs_serial"],
    }


def read_window_metrics(doc, window):
    """Read-queue metrics of one ablation_refresh window point."""
    r = first(doc, lambda r: r.get("read_window") == window,
              f"read_window={window} refresh-ablation")
    return {
        "makespan_ms": r["makespan_us"] / 1e3,
        "p50_us": r["read_p50_us"],
        "p95_us": r["read_p95_us"],
        "read_mean_us": r["read_mean_us"],
        "activations": r["activations"],
    }


def thermal_metrics(doc):
    """Closed-loop summary of a thermal_feedback run."""
    r = first(doc, lambda r: "idle_matches_static" in r,
              "thermal_feedback summary")
    return {
        "storm_peak_temp_c": r["storm_peak_temp_c"],
        "min_mean_jaccard": r["min_mean_jaccard"],
    }


def contention_metrics(doc, cores):
    """Aggregate slowdown of one multicore_contention core count."""
    r = first(doc, lambda r: r.get("cores") == cores and
              "mean_slowdown" in r, f"{cores}-core contention summary")
    return {
        "makespan_ms": r["makespan_us"] / 1e3,
        "mean_slowdown": r["mean_slowdown"],
    }


def qos_metrics(doc):
    """Urgent-read p99 of the ablation_qos priority storm under the
    serving preset (gated as p99_us) plus the improvement record."""
    r = first(doc, lambda r: "storm_p99_improvement_pct" in r,
              "ablation_qos improvement")
    return {
        "p99_us": r["storm_p99_serving_us"],
        "storm_p99_blind_us": r["storm_p99_blind_us"],
        "storm_p99_improvement_pct": r["storm_p99_improvement_pct"],
        "fleet_p99_blind_us": r["fleet_p99_blind_us"],
        "fleet_p99_serving_us": r["fleet_p99_serving_us"],
        "fleet_p99_improvement_pct": r["fleet_p99_improvement_pct"],
    }


def overload_metrics(doc):
    """Worst admitted urgent p99 of a fleet_overload sweep (gated as
    p99_us) plus the capacity and the shed-rate curve."""
    r = first(doc, lambda r: "p99_bounded" in r,
              "fleet_overload summary")
    return {
        "p99_us": r["worst_urgent_p99_us"],
        "capacity_krps": r["capacity_krps"],
        "in_capacity_urgent_p99_us": r["in_capacity_urgent_p99_us"],
        "shed_rate_curve": [
            p["shed_rate"] for s in doc for p in s["rows"]
            if "offered_over_capacity" in p],
    }


def region_metrics(doc):
    """Global roll-up of a fleet_region_serving storm: fleet-wide
    modeled percentiles and energy (gated) plus the shed rate."""
    r = first(doc, lambda r: "regions" in r and "latency_p99_us" in r,
              "fleet_region_serving global roll-up")
    return with_wall(r, {
        "p50_us": r["latency_p50_us"],
        "p95_us": r["latency_p95_us"],
        "p99_us": r["latency_p99_us"],
        "energy_mj": r["energy_mj"],
        "regions": r["regions"],
        "shed_rate": r["shed_rate"],
    })


def puf_jaccard_metrics(doc):
    """Intra-/Inter-Jaccard means of each PUF, keyed by voltage
    section then PUF name, from a puf_fig5_jaccard run."""
    out = {}
    for scenario in doc:
        for r in scenario["rows"]:
            if "intra_mean" in r and "inter_mean" in r:
                out.setdefault(r["section"], {})[r["puf"]] = {
                    "intra_mean": r["intra_mean"],
                    "inter_mean": r["inter_mean"],
                }
    if not out:
        raise SystemExit("bench_report: no PUF Jaccard row emitted")
    return out


def trace_replay_metrics(doc):
    """Modeled metrics of a trace_replay run."""
    r = first(doc, lambda r: "read_p99_us" in r and "records" in r,
              "trace-replay")
    return {
        "makespan_ms": r["makespan_ms"],
        "p50_us": r["read_p50_us"],
        "p95_us": r["read_p95_us"],
        "p99_us": r["read_p99_us"],
        "records": r["records"],
        "activations": r["activations"],
    }


def collect(build_dir, timings, skip_hotpath):
    """Run everything; returns (report, contract failures)."""
    report = {"schema": SCHEMA, "scenarios": {}, "derived": {},
              "hotpath": {}}
    if not skip_hotpath:
        report["hotpath"] = run_hotpath(build_dir)
    failures = []

    def run(scenario, *args):
        doc = run_codic(build_dir, ["--scenario", scenario, *args],
                        timings)
        failures.extend(f"contract {f}" for f in contracts.check(doc))
        return doc

    scaled = ("--scale", BENCH_SCALE)
    s = report["scenarios"]
    s["fleet_auth_load"] = latency_metrics(
        run("fleet_auth_load", *FLEET_ARGS))
    s["fleet_mixed"] = latency_metrics(run("fleet_mixed", *FLEET_ARGS))
    s["fleet_scaling@8shards:batched"] = scaling_metrics(
        run("fleet_scaling", *scaled, "--shards", "8"), 8)
    s["fleet_scaling@8shards:eager"] = scaling_metrics(
        run("fleet_scaling", *scaled, "--shards", "8", "--sched",
            "eager"), 8)
    s["ablation_scheduler@replay8"] = ablation_metrics(
        run("ablation_scheduler", *scaled))
    # The batched preset's 8-wide read-reordering window against the
    # strict arrival-order window=1 point of the same sweep.
    refresh_doc = run("ablation_refresh", *scaled)
    s["ablation_refresh@window1"] = read_window_metrics(refresh_doc, 1)
    s["ablation_refresh@window8"] = read_window_metrics(refresh_doc, 8)
    # A missing sample trace is a warning, not an error: the
    # trajectory must keep working from a partial checkout.
    if os.path.exists(SAMPLE_TRACE):
        s["trace_replay@sample"] = trace_replay_metrics(
            run("trace_replay", "--trace", SAMPLE_TRACE))
    else:
        print(f"bench_report: WARNING: sample trace {SAMPLE_TRACE} "
              "not found; skipping trace_replay metrics",
              file=sys.stderr)
    s["thermal_feedback"] = thermal_metrics(
        run("thermal_feedback", *scaled))
    s["multicore_contention@8cores"] = contention_metrics(
        run("multicore_contention", *scaled, "--cores", "8"), 8)
    s["ablation_qos"] = qos_metrics(run("ablation_qos", *scaled))
    s["fleet_overload"] = overload_metrics(
        run("fleet_overload", *scaled))
    s["fleet_region_serving"] = region_metrics(
        run("fleet_region_serving", *scaled))
    # The PUF device models run outside the DRAM system; the scenario
    # emits no wall-clock row, so the process is timed from here.
    start = time.perf_counter()
    puf_doc = run("puf_fig5_jaccard", "--scale", PUF_SCALE)
    s["puf_fig5_jaccard"] = puf_jaccard_metrics(puf_doc)
    if timings:
        s["puf_fig5_jaccard"]["wall_s"] = time.perf_counter() - start

    eager = s["fleet_scaling@8shards:eager"]["makespan_ms"]
    batched = s["fleet_scaling@8shards:batched"]["makespan_ms"]
    w1 = s["ablation_refresh@window1"]["read_mean_us"]
    w8 = s["ablation_refresh@window8"]["read_mean_us"]
    report["derived"] = {
        "fleet_scaling_batched_improvement_pct":
            100.0 * (1.0 - batched / eager),
        "read_window_mean_latency_improvement_pct":
            100.0 * (1.0 - w8 / w1),
        "qos_storm_p99_improvement_pct":
            s["ablation_qos"]["storm_p99_improvement_pct"],
    }
    return report, failures


# Lower-is-better metric keys gated against the baseline.
GATED = ("makespan_ms", "total_service_ms", "p50_us", "p95_us",
         "p99_us", "energy_mj")


def check_regressions(report, baseline):
    failures = []
    # Scenarios the report has but the baseline predates are
    # recorded without gating - a warning, never a KeyError, so a
    # new subsystem can add metrics before its first baseline
    # refresh.
    for name in sorted(report.get("scenarios", {})):
        if name not in baseline.get("scenarios", {}):
            print(f"bench_report: WARNING: scenario '{name}' is "
                  "absent from the baseline; recorded without "
                  "gating", file=sys.stderr)
    for name, base_metrics in baseline.get("scenarios", {}).items():
        new_metrics = report["scenarios"].get(name)
        if new_metrics is None:
            failures.append(f"scenario '{name}' missing from report")
            continue
        for key in GATED:
            base = base_metrics.get(key)
            new = new_metrics.get(key)
            if base is None or new is None:
                continue
            if new > base * (1.0 + TOLERANCE):
                failures.append(
                    f"{name}.{key}: {new:.4g} regressed "
                    f">{TOLERANCE:.0%} over baseline {base:.4g}")
    return failures


def check_hotpath(report, baseline):
    """Wall-clock throughput gate: higher is better, so a loop fails
    when its txn_per_sec drops more than HOTPATH_TOLERANCE below the
    pinned baseline. Loops absent from the baseline are recorded
    only."""
    failures = []
    for name, base_loop in baseline.get("hotpath", {}).items():
        if not isinstance(base_loop, dict):
            continue
        base = base_loop.get("txn_per_sec")
        new = report.get("hotpath", {}).get(name, {}).get("txn_per_sec")
        if base is None or new is None:
            continue
        if new < base * (1.0 - HOTPATH_TOLERANCE):
            failures.append(
                f"hotpath.{name}.txn_per_sec: {new:,.0f} regressed "
                f">{HOTPATH_TOLERANCE:.0%} below baseline {base:,.0f}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", default="BENCH_PR10.json")
    ap.add_argument("--baseline", default=None,
                    help="committed baseline to gate against")
    ap.add_argument("--skip-hotpath", action="store_true",
                    help="skip the bench_hotpath wall-clock runs "
                         "(e.g. on sanitizer builds)")
    ap.add_argument("--timings", action="store_true",
                    help="record wall-clock telemetry in the report")
    ap.add_argument("--write-baseline", default=None,
                    help="also write the report (minus wall "
                         "telemetry) as a new baseline file")
    args = ap.parse_args()

    report, failures = collect(args.build_dir, args.timings,
                               args.skip_hotpath)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_report: wrote {args.out}")

    for name, loop in sorted(report["hotpath"].items()):
        print(f"bench_report: hotpath {name}: "
              f"{loop['txn_per_sec']:,.0f} txn/s "
              f"(median of {len(loop['wall_s'])})")
    for name, value in sorted(report["derived"].items()):
        print(f"bench_report: {name}: {value:.1f}")

    improvement = report["derived"][
        "fleet_scaling_batched_improvement_pct"]
    if improvement < MIN_IMPROVEMENT_PCT:
        failures.append(
            f"batched replay improvement {improvement:.1f}% is below "
            f"the required {MIN_IMPROVEMENT_PCT:.0f}%")

    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        failures += check_regressions(report, baseline)
        if not args.skip_hotpath:
            failures += check_hotpath(report, baseline)

    if args.write_baseline:
        clean = json.loads(json.dumps(report))
        for metrics in clean["scenarios"].values():
            metrics.pop("wall_s", None)
        # The hotpath baseline keeps only the gated throughput (the
        # raw samples are telemetry of one run, not a pin).
        clean["hotpath"] = {
            name: {"txn_per_sec": loop["txn_per_sec"],
                   "transactions": loop["transactions"]}
            for name, loop in clean["hotpath"].items()
        }
        with open(args.write_baseline, "w") as f:
            json.dump(clean, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bench_report: wrote baseline {args.write_baseline}")

    if failures:
        for failure in failures:
            print(f"bench_report: FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench_report: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
