"""Tests of the benchmark itself: runner checks, the tracer's self-time
arithmetic (perfbench_tests), and traced == untraced modeled results at
a small scale for every workload.

    python3 -m unittest discover -s perfbench/tests -v

Builds into $CARGO_TARGET_DIR (default .bench_build) like the runner.
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


def load():
    return run.load_spec()


class SpecTest(unittest.TestCase):
    def test_unknown_workload_in_spec_is_rejected(self):
        spec, table = load()
        spec["workloads"].append({"name": "nope", "why": "x"})
        with self.assertRaisesRegex(run.BenchError, "unknown workload"):
            run.check_spec(spec, table)

    def test_unknown_metric_is_rejected(self):
        spec, table = load()
        spec["end_to_end"].append(
            {"name": "latency_ms", "unit": "ms", "better": "lower",
             "bound": 0.1})
        with self.assertRaisesRegex(run.BenchError, "unknown end-to-end"):
            run.check_spec(spec, table)

    def test_unknown_workload_argument_exits_nonzero(self):
        self.assertNotEqual(run.main(["--workload", "nope"]), 0)

    def test_entries_parse_first_middle_and_last(self):
        doc = ('[\n{"scenario":"a","rows":[\n {"x":1}]},\n'
               '{"scenario":"b","rows":[]}\n]\n')
        entries = run.scenario_entries(doc)
        self.assertEqual(entries["a"], '{"scenario":"a","rows":[\n {"x":1}]}')
        self.assertEqual(entries["b"], '{"scenario":"b","rows":[]}')


def fake_program(directory, name, body):
    path = Path(directory) / name
    path.write_text(f"#!{sys.executable}\nimport sys, json\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


class DigestMismatchTest(unittest.TestCase):
    """A run whose modeled output differs from the reference fails."""

    def measure(self, entry_json):
        spec, table = load()
        w = dict(table["workloads"]["puf_campaign"])
        with tempfile.TemporaryDirectory() as d:
            kernel = fake_program(d, "kernel", 'print("0.2 1")')
            driver = fake_program(
                d, "driver",
                'print(json.dumps({"setup_s": 0.001, "work_units": 10}))')
            codic = fake_program(
                d, "codic_run",
                "out = sys.argv[sys.argv.index('--out') + 1]\n"
                f"open(out, 'w').write('[\\n' + {entry_json!r} + '\\n]\\n')")
            old = os.environ.get("CARGO_TARGET_DIR")
            os.environ["CARGO_TARGET_DIR"] = d
            try:
                return run.measure_untraced(
                    "puf_campaign", w, table["pinned_seed"], 0.0, table,
                    codic, kernel, driver, None)
            finally:
                if old is None:
                    del os.environ["CARGO_TARGET_DIR"]
                else:
                    os.environ["CARGO_TARGET_DIR"] = old

    def test_mismatch_counts_as_failed_run(self):
        _, attempted, failed, _ = self.measure(
            '{"scenario":"puf_fig5_jaccard","rows":[]}')
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, attempted)

    def test_missing_scenario_counts_as_failed_run(self):
        _, attempted, failed, _ = self.measure(
            '{"scenario":"other","rows":[]}')
        self.assertEqual(failed, attempted)


class BuiltTest(unittest.TestCase):
    """Needs the benchmark build (cmake)."""

    @classmethod
    def setUpClass(cls):
        cls.codic_run, _, _ = run.build()
        cmake_dir = run.build_dir() / "cmake"
        run.run_logged(["cmake", "--build", str(cmake_dir), "--target",
                        "perfbench_tests"])
        cls.cmake_dir = cmake_dir
        cls.driver = cmake_dir / "perfbench_trace"

    def test_secdealloc_digest_at_golden_scale_is_the_golden_entry(self):
        _, table = load()
        w = table["workloads"]["secdealloc_mix"]
        g = w["golden"]
        entry = run.scenario_entries(
            (run.ROOT / g["file"]).read_text())[g["scenario"]]
        with tempfile.TemporaryDirectory() as d:
            out = Path(d) / "out.json"
            subprocess.run([str(self.codic_run), "--scenario", w["scenario"],
                            "--scale", str(g["scale"]), "--threads", "1",
                            "--seed", str(w["program_seed"]), "--out",
                            str(out), "--quiet"], check=True)
            d_run, ok = run.check_output(out, w["scenario"], run.digest(entry))
        self.assertTrue(ok, d_run)

    def test_tracer_self_time_arithmetic(self):
        r = subprocess.run([str(self.cmake_dir / "perfbench_tests")],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def traced(self, workload, *args):
        r = subprocess.run(
            [str(self.driver), "--workload", workload, "--mode", "trace",
             "--threads", "1", *args], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stderr)
        m = json.loads(r.stdout)
        self.assertEqual(m["identical"], 1)
        spec, _ = load()
        names = {x["name"] for x in spec["per_layer"]}
        self.assertEqual(set(m) - {"run_s", "untraced_run_s", "identical"},
                         names)
        return m

    def test_secdealloc_traced_equals_untraced(self):
        m = self.traced("secdealloc_mix", "--scale", "0.02")
        setup = run.probe_setup(self.driver, "secdealloc_mix",
                                ["--scale", "0.02", "--threads", "1"])
        self.assertEqual(m["sim.core.steps"], setup["work_units"])
        self.assertGreater(m["mem.txn.rowops"], 0)
        self.assertEqual(m["puf.codic_sig.evals"], 0)
        self.assertEqual(m["fleet.auth.requests"], 0)

    def test_puf_traced_equals_untraced(self):
        m = self.traced("puf_campaign", "--scale", "0.01")
        for p in ("codic_sig", "prelat", "latency"):
            self.assertEqual(m[f"puf.{p}.evals"], 2 * 100 * 4)
        self.assertEqual(m["sim.core.steps"], 0)
        self.assertEqual(m["mem.submit.calls"], 0)

    def test_fleet_traced_equals_untraced(self):
        with tempfile.TemporaryDirectory() as d:
            store = str(Path(d) / "store.v2")
            subprocess.run([str(self.driver), "--workload", "fleet_serve",
                            "--mode", "make-store", "--store", store,
                            "--devices", "5000"], check=True)
            m = self.traced("fleet_serve", "--scale", "0.05", "--devices",
                            "5000", "--store", store)
        self.assertEqual(m["fleet.auth.requests"], 4 * 400)
        self.assertGreater(m["trng.enroll.devices"], 0)
        self.assertGreater(m["fleet.store.put.calls"], 0)
        self.assertEqual(m["sim.core.steps"], 0)


if __name__ == "__main__":
    unittest.main()
