"""Tests of the scenario contract table (tools/contracts.py) over small
synthetic codic_run documents.

    python3 -m unittest discover -s tools/tests -v
"""

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TOOLS))
import contracts  # noqa: E402

# One conforming row set per contracted scenario.
GOOD = {
    "ablation_engine_parallelism": [
        {"threads": 1, "bit_identical": True},
        {"threads": 8, "bit_identical": True},
    ],
    "ablation_scheduler": [{"drained_equals_accepted": True}],
    "ablation_qos": [
        {"storm_p99_improvement_pct": 83.3},
        # Rows 1-3, 4-6, 7-9: each variant's storm row, origin 0 row
        # and origin 1 row.
        *(row for sched in ("batched_blind", "serving", "serving_refpb")
          for row in (
              {"sched": sched, "waves": 30},
              {"sched": sched, "origin": 0, "reads": 360,
               "writes": 1440, "rowops": 0},
              {"sched": sched, "origin": 1, "reads": 30, "writes": 0,
               "rowops": 0},
          )),
    ],
    "ablation_refresh": [
        {"refresh_postpone": 0, "refs": 2,
         "elapsed_trefi_intervals": 2.5},
        {"refresh_postpone": 8, "refs": 0,
         "elapsed_trefi_intervals": 2.5},
        {"read_window": 1, "read_mean_us": 0.40, "activations": 96},
        {"read_window": 8, "read_mean_us": 0.08, "activations": 12},
    ],
    "fleet_auth_load": [{"true_accept_rate": 0.998,
                         "unknown_device": 0}],
    "fleet_overload": [
        *({"offered_over_capacity": x, "shed": 0}
          for x in (0.5, 1, 1.5, 2)),
        {"offered_over_capacity": 3, "shed": 5},
        {"p99_bounded": True, "shed_monotone": True,
         "urgent_protected": True},
    ],
    "fleet_region_serving": [
        *({"selector": s, "requests": 1000}
          for s in ("hash", "rebalanced", "modulo")),
        {"regions": 3, "requests": 3000},
    ],
    "thermal_feedback": [{"idle_matches_static": True,
                          "flip_response_nonzero": True,
                          "flip_response_monotone": True,
                          "temps_monotone": True}],
    "thermal_throttling": [{"regulated_peak_c": 36.8,
                            "peak_reduced": True, "engagements": 1}],
    "multicore_contention": [{"cores": 8, "mean_slowdown": 1.01}],
}


def set_field(row, key, value):
    def mutate(rows):
        rows[row][key] = value
    return mutate


def drop_field(row, key):
    def mutate(rows):
        del rows[row][key]
    return mutate


# (scenario, contract) -> one-field mutation that breaks only it.
VIOLATIONS = {
    ("ablation_engine_parallelism", "bit_identical"):
        set_field(1, "bit_identical", False),
    ("ablation_scheduler", "drained_equals_accepted"):
        set_field(0, "drained_equals_accepted", False),
    ("ablation_qos", "storm_p99_improvement"):
        set_field(0, "storm_p99_improvement_pct", 19.9),
    ("ablation_qos", "origin_rows"): set_field(3, "reads", 31),
    ("ablation_refresh", "refs_track_trefi"): set_field(0, "refs", 0),
    # 17.5% faster: the old "window 8 < window 1" check would pass.
    ("ablation_refresh", "read_window_latency"):
        set_field(3, "read_mean_us", 0.33),
    ("ablation_refresh", "read_window_activations"):
        set_field(3, "activations", 96),
    ("fleet_auth_load", "true_accept_rate"):
        set_field(0, "true_accept_rate", 0.9935),
    ("fleet_auth_load", "no_unknown_device"):
        set_field(0, "unknown_device", 1),
    ("fleet_overload", "p99_bounded"): set_field(5, "p99_bounded", False),
    ("fleet_overload", "shed_monotone"):
        set_field(5, "shed_monotone", False),
    ("fleet_overload", "urgent_protected"):
        set_field(5, "urgent_protected", False),
    ("fleet_overload", "sweep_points"):
        drop_field(0, "offered_over_capacity"),
    ("fleet_overload", "sweep_sheds"): set_field(4, "shed", 0),
    ("fleet_region_serving", "region_rows"): set_field(3, "regions", 4),
    ("fleet_region_serving", "region_requests"):
        set_field(3, "requests", 2999),
    ("thermal_feedback", "idle_matches_static"):
        set_field(0, "idle_matches_static", False),
    ("thermal_feedback", "flip_response_nonzero"):
        set_field(0, "flip_response_nonzero", False),
    ("thermal_feedback", "flip_response_monotone"):
        set_field(0, "flip_response_monotone", False),
    ("thermal_feedback", "temps_monotone"):
        set_field(0, "temps_monotone", False),
    ("thermal_throttling", "peak_reduced"):
        set_field(0, "peak_reduced", False),
    ("thermal_throttling", "engagements"): set_field(0, "engagements", 0),
    ("multicore_contention", "mean_slowdown"):
        set_field(0, "mean_slowdown", 0.99),
}


def doc_of(scenario, rows):
    return [{"scenario": scenario, "rows": rows}]


class ContractTableTest(unittest.TestCase):
    def test_every_contract_has_a_conforming_and_a_violating_case(self):
        table = {(s, c) for s, cs in contracts.CONTRACTS.items()
                 for c in cs}
        self.assertEqual(table, set(VIOLATIONS))
        self.assertEqual(set(contracts.CONTRACTS), set(GOOD))

    def test_conforming_documents_pass(self):
        for scenario, rows in GOOD.items():
            with self.subTest(scenario=scenario):
                self.assertEqual(
                    contracts.check(doc_of(scenario, rows)), [])
        whole = [{"scenario": s, "rows": r} for s, r in GOOD.items()]
        self.assertEqual(contracts.check(whole), [])

    def test_one_field_violation_fails_that_contract_only(self):
        for (scenario, contract), mutate in VIOLATIONS.items():
            with self.subTest(contract=f"{scenario}.{contract}"):
                rows = copy.deepcopy(GOOD[scenario])
                mutate(rows)
                failures = contracts.check(doc_of(scenario, rows))
                self.assertEqual(len(failures), 1, failures)
                self.assertTrue(failures[0].startswith(
                    f"{scenario}.{contract}: "), failures)

    def test_missing_rows_fail_every_contract_of_the_scenario(self):
        for scenario, table in contracts.CONTRACTS.items():
            with self.subTest(scenario=scenario):
                failures = contracts.check(doc_of(scenario, []))
                self.assertEqual(
                    sorted(f.split(":")[0] for f in failures),
                    sorted(f"{scenario}.{c}" for c in table))

    def test_uncontracted_scenario_passes_and_bad_shapes_fail(self):
        self.assertEqual(contracts.check(doc_of("fleet_mixed", [])), [])
        self.assertEqual(len(contracts.check({"scenario": "x"})), 1)
        self.assertEqual(len(contracts.check([{"rows": []}])), 1)

    def test_origin_rows_rejects_each_broken_accounting(self):
        def delete_row(i):
            return lambda rows: rows.pop(i)

        def append_row(row):
            return lambda rows: rows.append(row)

        broken = {
            "origin 1 missing": delete_row(6),
            "origin 0 twice": append_row(
                {"sched": "serving", "origin": 0, "reads": 360,
                 "writes": 1440, "rowops": 0}),
            "third origin": append_row(
                {"sched": "serving", "origin": 2, "reads": 0,
                 "writes": 0, "rowops": 0}),
            "no storm row": set_field(7, "sched", "serving_x"),
            "urgent reads off waves": set_field(4, "waves", 31),
            "urgent writes": set_field(9, "writes", 1),
            "urgent rowops": set_field(6, "rowops", 1),
            "background rowops": set_field(2, "rowops", 1),
            "background reads differ": set_field(5, "reads", 359),
            "background writes differ": set_field(8, "writes", 1392),
        }
        for case, mutate in broken.items():
            with self.subTest(case=case):
                rows = copy.deepcopy(GOOD["ablation_qos"])
                mutate(rows)
                failures = contracts.check(doc_of("ablation_qos", rows))
                self.assertEqual(len(failures), 1, failures)
                self.assertTrue(failures[0].startswith(
                    "ablation_qos.origin_rows: "), failures)

    def test_cli_exit_status(self):
        bad_rows = copy.deepcopy(GOOD["ablation_qos"])
        VIOLATIONS[("ablation_qos", "storm_p99_improvement")](bad_rows)
        with tempfile.TemporaryDirectory() as tmp:
            good = Path(tmp) / "good.json"
            bad = Path(tmp) / "bad.json"
            good.write_text(json.dumps(
                doc_of("ablation_qos", GOOD["ablation_qos"])))
            bad.write_text(json.dumps(doc_of("ablation_qos", bad_rows)))
            cli = [sys.executable, str(TOOLS / "contracts.py")]
            self.assertEqual(subprocess.run(cli + [str(good)]).returncode,
                             0)
            run = subprocess.run(cli + [str(good), str(bad)],
                                 capture_output=True, text=True)
            self.assertEqual(run.returncode, 1)
            self.assertIn("ablation_qos.storm_p99_improvement",
                          run.stderr)


if __name__ == "__main__":
    unittest.main()
