#!/usr/bin/env python3
"""Host-time benchmark of the CODIC simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload secdealloc_mix --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout. The first run builds codic_run
and the traced driver from source into $CARGO_TARGET_DIR (default
.bench_build). Every timing is host time.

--trace 0 runs the workload in fresh single-process runs of codic_run
and reports the end-to-end metrics: medians over the runs that fit in
--seconds. Each codic_run process follows one run of the host-speed
reference kernel (perfbench_calibrate), and its times are scaled by
the kernel's reference time over its measured time, so that the host
running slower for a while does not move them. Each run's modeled JSON
output is checked against the pinned reference digest (pinned seed) or
against the first run's digest (any other seed: the simulator is
deterministic).

--trace 1 reruns the same workload through perfbench_trace, which times
each layer from outside through decorators over the library's public
interfaces and asserts that the modeled result equals the untraced
public entry point. It reports the per-layer metrics.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOADS_FILE = BENCH_DIR / "workloads.json"

# End-to-end metrics the untraced runner measures, with their units.
E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

SETUP_PROBES = 21  # Set-up probe processes per run (median reported).
MIN_SAMPLES = 3   # codic_run processes per run, at least.


class BenchError(Exception):
    """A benchmark that cannot run: no result is printed."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- specification ---------------------------------------------------------


def load_spec():
    """BENCHMARK.json plus the pinned workload table; both validated."""
    try:
        spec = json.loads(SPEC_FILE.read_text())
        table = json.loads(WORKLOADS_FILE.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read the benchmark spec: {e}")
    check_spec(spec, table)
    return spec, table


def check_spec(spec, table):
    """Reject workload or metric names the runner does not know."""
    names = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(names) - set(table["workloads"]))
    if unknown:
        raise BenchError(f"unknown workload(s) in BENCHMARK.json: {unknown}")
    for m in spec["end_to_end"]:
        if E2E_UNITS.get(m["name"]) != m["unit"]:
            raise BenchError(
                f"unknown end-to-end metric {m['name']!r} ({m['unit']})")


def scenario_entries(text):
    """Map scenario name -> exact bytes of its entry in a codic_run
    JSON document (also the layout of bench/GOLDEN_*.json)."""
    starts = []
    key = '\n{"scenario":"'
    pos = text.find(key)
    while pos >= 0:
        starts.append(pos + 1)
        pos = text.find(key, pos + 1)
    entries = {}
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else len(text)
        entry = text[start:end].rstrip()
        if entry.endswith("]"):  # Closing bracket of the document.
            entry = entry[:-1].rstrip()
        entry = entry.removesuffix(",")
        name = json.loads(entry)["scenario"]
        entries[name] = entry
    return entries


def digest(entry):
    return hashlib.sha256(entry.encode()).hexdigest()


# --- build -----------------------------------------------------------------


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


@contextlib.contextmanager
def locked(path):
    """Hold an exclusive lock on `path` (concurrent runs in one checkout
    build and synthesize the store once)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        yield


def run_logged(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError(f"build step failed ({r.returncode}): "
                         + " ".join(map(str, cmd)))


def build():
    """Build codic_run, perfbench_calibrate and perfbench_trace; return
    their paths."""
    bdir = build_dir()
    cmake_dir = bdir / "cmake"
    with locked(bdir / "build.lock"):
        # Configured every time (0.1 s when cached), so an existing build
        # directory learns targets added since it was made.
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                    "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", str(cmake_dir), "-j", jobs,
                    "--target", "codic_run", "perfbench_calibrate",
                    "perfbench_trace"])
    return (cmake_dir / "codic" / "codic_run",
            cmake_dir / "perfbench_calibrate",
            cmake_dir / "perfbench_trace")


def store_path(w, table, driver):
    """The fleet_serve store: synthesized once per checkout at the pinned
    population seed, outside every timed run."""
    devices = w["flags"]["devices"]
    path = build_dir() / "stores" / f"fleet_{devices}_seed{table['pinned_seed']}.v2"
    with locked(build_dir() / "store.lock"):
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            r = subprocess.run(
                [str(driver), "--workload", "fleet_serve", "--mode",
                 "make-store", "--store", str(tmp), "--devices", str(devices),
                 "--seed", str(table["pinned_seed"])],
                stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                raise BenchError("store synthesis failed")
            tmp.replace(path)
    return path


# --- measurement -----------------------------------------------------------


def flag_args(w, seed, store):
    args = ["--seed", str(seed)]
    for k, v in w["flags"].items():
        args += [f"--{k}", str(v)]
    if store:
        args += ["--store", str(store)]
    return args


def spawn(cmd, out_path):
    """Run one fresh process; return (exit code, wall s, cpu s, rss MB)."""
    err_path = out_path.with_suffix(".err")
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        log(f"perfbench: exit {p.returncode}: {' '.join(cmd)}")
        log(err_path.read_text()[-2000:])
    err_path.unlink()
    return (p.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


def probe_setup(driver, name, args):
    """One fresh set-up probe: host time of the set-up calls."""
    r = subprocess.run([str(driver), "--workload", name, "--mode", "setup",
                        *args], capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError(f"set-up probe failed: {r.stderr.strip()}")
    return json.loads(r.stdout)


def calibrate(kernel):
    """Seconds of one fresh run of the host-speed reference kernel."""
    r = subprocess.run([str(kernel)], capture_output=True, text=True)
    try:
        seconds = float(r.stdout.split()[0])
    except (IndexError, ValueError):
        seconds = 0.0
    if r.returncode != 0 or seconds <= 0:
        raise BenchError(f"reference kernel failed: {r.stderr.strip()}")
    return seconds


def check_output(out_path, scenario, expected):
    """Digest of the run's modeled output and whether it is correct."""
    try:
        entry = scenario_entries(out_path.read_text())[scenario]
    except (OSError, ValueError, KeyError):
        return None, False
    d = digest(entry)
    return d, expected is None or d == expected


def measure_untraced(name, w, seed, seconds, table, codic_run, kernel,
                     driver, store):
    args = flag_args(w, seed, store)
    start = time.monotonic()
    probes = [probe_setup(driver, name, args) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(p["setup_s"] for p in probes)
    work_units = probes[0]["work_units"]

    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{name}-{os.getpid()}.json"
    cmd = [str(codic_run), "--scenario", w["scenario"], *args, "--out",
           str(out_path), "--quiet"]
    if store:
        cmd.append("--store-mmap")
    expected = w["reference_sha256"] if seed == table["pinned_seed"] else None

    samples, failed, digests = [], 0, []
    while True:
        elapsed = time.monotonic() - start
        if len(samples) + failed >= MIN_SAMPLES and (
                not samples or
                elapsed + statistics.median(s[0] + s[3] for s in samples)
                > seconds):
            break
        out_path.unlink(missing_ok=True)
        cal = calibrate(kernel)
        rc, wall, cpu, rss = spawn(cmd, out_path)
        d, ok = check_output(out_path, w["scenario"], expected)
        if expected is None and rc == 0 and d is not None:
            expected = d  # Later runs must reproduce the first.
        out_path.unlink(missing_ok=True)
        if rc != 0 or not ok:
            failed += 1
            log(f"perfbench: run failed (exit {rc}, digest {d})")
            continue
        digests.append(d)
        samples.append((wall, cpu, rss, cal))

    # Host speed on a shared machine drifts for minutes at a time; the
    # reference kernel run just before each process slows with it, so
    # each process's time is scaled by reference / measured kernel time.
    ref = table["calibration"]["reference_s"]

    def scaled(i, minus=0.0):
        if not samples:
            return 0
        return statistics.median((s[i] - minus) * ref / s[3] for s in samples)

    run_s = scaled(0, setup_s)
    metrics = {
        "run_s": run_s,
        "setup_s": setup_s,
        "cpu_s": scaled(1),
        "peak_rss_mb": statistics.median(s[2] for s in samples) if samples else 0,
        "work_per_s": work_units / run_s if run_s > 0 else 0,
    }
    info = {
        "samples": len(samples),
        "setup_probes": len(probes),
        "work_units": work_units,
        "work_unit": w["work_unit"],
        "digest": digests[0] if digests else None,
        "digest_check": ("pinned reference"
                         if seed == table["pinned_seed"]
                         else "repeat of the first run"),
        "host_run_s": (statistics.median(s[0] for s in samples) - setup_s
                       if samples else 0),
        "host_cpu_s": (statistics.median(s[1] for s in samples)
                       if samples else 0),
        "kernel_s": (statistics.median(s[3] for s in samples)
                     if samples else 0),
        "kernel_reference_s": ref,
        "run_s_samples": [round(s[0] - setup_s, 4) for s in samples],
        "kernel_s_samples": [round(s[3], 4) for s in samples],
    }
    return metrics, len(samples) + failed, failed, info


def measure_traced(name, w, seed, seconds, driver, store, per_layer):
    args = flag_args(w, seed, store)
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans = trace_dir / f"{name}-seed{seed}.json"
    start = time.monotonic()
    runs, failed, last = [], 0, 0.0
    while True:
        if runs and time.monotonic() - start + last > seconds:
            break
        if not runs and failed >= MIN_SAMPLES:
            break
        t0 = time.monotonic()
        r = subprocess.run([str(driver), "--workload", name, "--mode", "trace",
                            "--spans", str(spans), *args],
                           capture_output=True, text=True)
        last = time.monotonic() - t0
        try:
            m = json.loads(r.stdout)
        except ValueError:
            m = {}
        if r.returncode != 0 or m.get("identical") != 1:
            failed += 1
            log(f"perfbench: traced run failed: {r.stderr.strip()}")
            continue
        runs.append(m)
    if not runs:
        return {}, failed, failed, {}

    extra = {"run_s", "untraced_run_s", "identical"}
    got = set(runs[0]) - extra
    if got != set(per_layer):
        raise BenchError(
            "per-layer metric names differ from BENCHMARK.json: unknown "
            f"{sorted(got - set(per_layer))}, missing "
            f"{sorted(set(per_layer) - got)}")
    # Counts are modeled and must repeat exactly; times are medians.
    for m in runs[1:]:
        for k in per_layer:
            if per_layer[k] == "count" and m[k] != runs[0][k]:
                failed += 1
                log(f"perfbench: count {k} differs between traced runs")
                break
    metrics = {k: statistics.median(m[k] for m in runs) for k in per_layer}
    info = {
        "traced_runs": len(runs),
        "traced_run_s": statistics.median(m["run_s"] for m in runs),
        "untraced_run_s": statistics.median(m["untraced_run_s"] for m in runs),
        "spans": str(spans),
    }
    return metrics, len(runs) + failed, failed, info


# --- reporting -------------------------------------------------------------


def source_identity():
    """The commit when the checkout is a git tree, and a digest of the
    simulator sources either way."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools"):
        files += (ROOT / top).rglob("*")
    for f in sorted(p for p in files if p.is_file()):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    return commit, h.hexdigest()[:16]


def machine():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{platform.node()} ({cpu}, {platform.machine()})"


def report(args, w, mode, metrics, units, attempted, failed, info):
    commit, source = source_identity()
    log(f"perfbench: workload={args.workload} seed={args.seed} mode={mode}")
    log(f"  commit={commit} source_sha256={source}")
    log(f"  machine={machine()} nproc={os.cpu_count()} "
        f"threads={w['flags']['threads']}")
    log(f"  flags={w['scenario']} " + " ".join(
        f"--{k} {v}" for k, v in w["flags"].items()))
    for k, v in info.items():
        log(f"  {k}={v}")
    log(f"  {'metric':34} {'value':>16} unit")
    for k, v in metrics.items():
        log(f"  {k:34} {v:16.6g} {units[k]}")
    log(f"  {'error_rate':34} {failed / attempted:16.6g} "
        f"({failed}/{attempted} runs)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec, table = load_spec()
        if args.workload not in {x["name"] for x in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seed is None:
            args.seed = table["pinned_seed"]
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        w = table["workloads"][args.workload]
        # A workload whose campaign cost depends on the seed keeps the
        # program at its pinned seed (see workloads.json).
        seed = w.get("program_seed", args.seed)
        codic_run, kernel, driver = build()
        store = store_path(w, table, driver) if w.get("store") else None
        if args.trace:
            per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, attempted, failed, info = measure_traced(
                args.workload, w, seed, args.seconds, driver, store,
                per_layer)
            units = per_layer
        else:
            metrics, attempted, failed, info = measure_untraced(
                args.workload, w, seed, args.seconds, table, codic_run,
                kernel, driver, store)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {k: metrics[k] for k in units}
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    info = {"program_seed": seed, **info}
    report(args, w, "traced" if args.trace else "untraced", metrics, units,
           attempted, failed, info)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
