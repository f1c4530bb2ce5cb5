#!/usr/bin/env python3
"""Contracts on codic_run scenario JSON: the one place a check on
scenario output is defined.

CONTRACTS maps a scenario name (doc[i]["scenario"]) to its named
contracts. Each contract reads only the rows of that scenario - never
the flags of the run that made them - so the same table judges a CI
smoke run, a bench_report run and a local run at any scale. A
contract whose rows are missing fails: a scenario that stops emitting
its summary must not pass by saying nothing. Scenarios without an
entry are only checked for the document shape.

Usage:
  contracts.py FILE...   exit 1 when any contract of any file fails
"""

import json
import sys


class Violation(Exception):
    """One contract's failure, with the offending rows in the text."""


def select(rows, key):
    """Rows carrying `key`; a Violation when there are none."""
    found = [r for r in rows if key in r]
    if not found:
        raise Violation(f"no rows with '{key}' emitted")
    return found


def require(ok, detail):
    if not ok:
        raise Violation(detail)


def each(key, test):
    """Contract: every row carrying `key` satisfies `test`."""
    def check(rows):
        bad = [r for r in select(rows, key) if not test(r)]
        require(not bad, f"violated by {bad}")
    return check


def holds(key):
    """Contract: boolean field `key` is true on every row carrying it."""
    return each(key, lambda r: r[key] is True)


def refs_track_trefi(r):
    """REF count within [elapsed - postpone - 1, elapsed + 1]."""
    slack = r["refresh_postpone"] + 1
    return (r["elapsed_trefi_intervals"] - slack <= r["refs"] <=
            r["elapsed_trefi_intervals"] + 1)


def read_window(rows):
    """The window-1 and window-8 points of the read-window sweep."""
    win = {r["read_window"]: r for r in select(rows, "read_window")}
    require(1 in win and 8 in win,
            f"read_window 1 and 8 not both emitted: {sorted(win)}")
    return win[1], win[8]


def read_window_latency(rows):
    """Window 8 mean read latency >= 20% below strict arrival order."""
    w1, w8 = read_window(rows)
    improvement = 100.0 * (1.0 - w8["read_mean_us"] / w1["read_mean_us"])
    require(improvement >= 20.0,
            f"window-8 mean read latency only {improvement:.1f}% below "
            f"window 1 (need >= 20%)")


def read_window_activations(rows):
    w1, w8 = read_window(rows)
    require(w8["activations"] < w1["activations"],
            f"window 8 activations {w8['activations']} not below "
            f"window 1's {w1['activations']}")


def overload_sweep_points(rows):
    sweep = select(rows, "offered_over_capacity")
    require(len(sweep) >= 5, f"only {len(sweep)} sweep points")


def overload_sweep_sheds(rows):
    sweep = select(rows, "offered_over_capacity")
    require(any(r["shed"] > 0 for r in sweep), "no sweep point sheds")


def region_global(rows):
    """The global roll-up row and the per-region rows."""
    glob = select(rows, "regions")
    return glob[0], select(rows, "region")


def region_rows(rows):
    glob, per_region = region_global(rows)
    require(len(per_region) == glob["regions"],
            f"{len(per_region)} per-region rows for "
            f"{glob['regions']} regions")


def region_names(rows):
    _, per_region = region_global(rows)
    names = [r["region"] for r in per_region]
    require(len(set(names)) == len(names),
            f"region names repeat: {names}")


def region_requests(rows):
    """The roll-up's counts are the per-region sums."""
    glob, per_region = region_global(rows)
    for key in ("requests", "admitted", "shed", "shed_urgent"):
        total = sum(r[key] for r in per_region)
        require(glob[key] == total,
                f"global {key} {glob[key]} != per-region sum {total}")


def origin_rows(rows):
    """Per scheduler variant: exactly origins 0 and 1; the urgent
    origin 1 reads one per storm wave and never writes; no row ops;
    the background origin 0 sees one storm, the same in every
    variant."""
    waves = {r["sched"]: r["waves"] for r in select(rows, "waves")}
    by_sched = {}
    for r in select(rows, "origin"):
        by_sched.setdefault(r["sched"], {}).setdefault(
            r["origin"], []).append(r)
    require(sorted(by_sched) == sorted(waves),
            f"origin rows for {sorted(by_sched)}, storm rows for "
            f"{sorted(waves)}")
    background = set()
    for sched, origins in sorted(by_sched.items()):
        require(set(origins) == {0, 1} and
                all(len(o) == 1 for o in origins.values()),
                f"{sched}: origins {origins} (need one row each of 0 "
                f"and 1)")
        urgent = origins[1][0]
        require(urgent["reads"] == waves[sched],
                f"{sched}: origin 1 reads {urgent['reads']} != waves "
                f"{waves[sched]}")
        require(urgent["writes"] == 0 and urgent["rowops"] == 0,
                f"{sched}: origin 1 writes/rowops {urgent}")
        require(origins[0][0]["rowops"] == 0,
                f"{sched}: origin 0 rowops {origins[0][0]}")
        background.add((origins[0][0]["reads"], origins[0][0]["writes"]))
    require(len(background) == 1,
            f"origin 0 (reads, writes) differ across variants: "
            f"{sorted(background)}")


CONTRACTS = {
    "ablation_engine_parallelism": {
        "bit_identical": holds("bit_identical"),
    },
    "ablation_scheduler": {
        "drained_equals_accepted": holds("drained_equals_accepted"),
    },
    "ablation_qos": {
        "storm_p99_improvement": each(
            "storm_p99_improvement_pct",
            lambda r: r["storm_p99_improvement_pct"] >= 20.0),
        "origin_rows": origin_rows,
    },
    "ablation_refresh": {
        "refs_track_trefi": each("refresh_postpone", refs_track_trefi),
        "read_window_latency": read_window_latency,
        "read_window_activations": read_window_activations,
    },
    "fleet_auth_load": {
        "true_accept_rate": each(
            "true_accept_rate",
            lambda r: r["true_accept_rate"] >= 0.9936),
        "no_unknown_device": each(
            "true_accept_rate", lambda r: r["unknown_device"] == 0),
    },
    "fleet_overload": {
        "p99_bounded": holds("p99_bounded"),
        "shed_monotone": holds("shed_monotone"),
        "urgent_protected": holds("urgent_protected"),
        "sweep_points": overload_sweep_points,
        "sweep_sheds": overload_sweep_sheds,
    },
    "fleet_region_serving": {
        "region_rows": region_rows,
        "region_names": region_names,
        "region_requests": region_requests,
    },
    "thermal_feedback": {
        "idle_matches_static": holds("idle_matches_static"),
        "flip_response_nonzero": holds("flip_response_nonzero"),
        "flip_response_monotone": holds("flip_response_monotone"),
        "temps_monotone": holds("temps_monotone"),
    },
    "thermal_throttling": {
        "peak_reduced": holds("peak_reduced"),
        "engagements": each("regulated_peak_c",
                            lambda r: r["engagements"] >= 1),
    },
    "multicore_contention": {
        "mean_slowdown": each("mean_slowdown",
                              lambda r: r["mean_slowdown"] >= 1.0),
    },
}


def check(doc):
    """Failed contracts of a codic_run document, as
    "scenario.contract: detail" strings (empty when all hold)."""
    if not isinstance(doc, list):
        return ["document: not a list of scenario results"]
    failures = []
    for i, scenario in enumerate(doc):
        if not (isinstance(scenario, dict) and "scenario" in scenario
                and isinstance(scenario.get("rows"), list)):
            failures.append(f"document[{i}]: not a scenario result")
            continue
        name = scenario["scenario"]
        for contract, test in CONTRACTS.get(name, {}).items():
            try:
                test(scenario["rows"])
            except Violation as v:
                failures.append(f"{name}.{contract}: {v}")
    return failures


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        with open(path) as f:
            failures = check(json.load(f))
        for failure in failures:
            print(f"contracts: {path}: FAIL: {failure}", file=sys.stderr)
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
