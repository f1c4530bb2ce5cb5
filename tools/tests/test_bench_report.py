"""Tests of the PUF and secure-deallocation telemetry extractors in
tools/bench_report.py over small synthetic scenario documents, and of
the wait4 usage record of its codic_run launcher.

    python3 -m unittest discover -s tools/tests -v
"""

import copy
import os
import stat
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TOOLS))
import bench_report  # noqa: E402


def jaccard_row(section, puf, intra, inter):
    return {"section": section, "puf": puf, "chips": 64, "pairs": 200,
            "intra_mean": intra, "intra_p5": intra - 0.05,
            "inter_mean": inter, "inter_p95": inter + 0.01,
            "intra_hist": "   @", "inter_hist": "@   "}


DOC = [{
    "scenario": "puf_fig5_jaccard",
    "rows": [
        jaccard_row("DDR3 1.50V Jaccard indices", "DRAM Latency PUF",
                    0.83, 0.0006),
        jaccard_row("DDR3 1.50V Jaccard indices", "CODIC-sig PUF",
                    0.9998, 0.0003),
        jaccard_row("DDR3L 1.35V Jaccard indices", "PreLatPUF",
                    0.9987, 0.51),
    ],
}]


class PufJaccardMetricsTest(unittest.TestCase):
    def test_means_keyed_by_section_then_puf(self):
        self.assertEqual(bench_report.puf_jaccard_metrics(DOC), {
            "DDR3 1.50V Jaccard indices": {
                "DRAM Latency PUF": {"intra_mean": 0.83,
                                     "inter_mean": 0.0006},
                "CODIC-sig PUF": {"intra_mean": 0.9998,
                                  "inter_mean": 0.0003},
            },
            "DDR3L 1.35V Jaccard indices": {
                "PreLatPUF": {"intra_mean": 0.9987, "inter_mean": 0.51},
            },
        })

    def test_document_without_jaccard_rows_is_an_error(self):
        doc = [{"scenario": "puf_fig5_jaccard",
                "rows": [{"section": "notes", "value": 1}]}]
        with self.assertRaises(SystemExit):
            bench_report.puf_jaccard_metrics(doc)

    def test_puf_metrics_are_never_gated(self):
        base = {"scenarios": {
            "puf_fig5_jaccard": bench_report.puf_jaccard_metrics(DOC)}}
        moved = copy.deepcopy(DOC)
        for r in moved[0]["rows"]:
            r["intra_mean"] = 0.0
            r["inter_mean"] = 1.0
        report = {"scenarios": {
            "puf_fig5_jaccard": bench_report.puf_jaccard_metrics(moved)}}
        report["scenarios"]["puf_fig5_jaccard"]["wall_s"] = 99.0
        self.assertEqual(bench_report.check_regressions(report, base), [])


def comparison_row(name, lisa, rowclone, codic):
    return {"name": name, "lisa_speedup": lisa,
            "rowclone_speedup": rowclone, "codic_speedup": codic,
            "lisa_energy": 0.1, "rowclone_energy": 0.2,
            "codic_energy": 0.3}


FIG9_DOC = [{
    "scenario": "secdealloc_fig9",
    "rows": [
        comparison_row("MIX1", 0.5, 0.6, 0.7),
        {"mixes": 3, "lisa_speedup": 0.041, "rowclone_speedup": 0.052,
         "codic_speedup": 0.063, "lisa_energy": 0.1,
         "rowclone_energy": 0.2, "codic_energy": 0.3},
    ],
}]


class SecdeallocFig9MetricsTest(unittest.TestCase):
    def test_random_mix_average_speedups(self):
        self.assertEqual(bench_report.secdealloc_fig9_metrics(FIG9_DOC), {
            "codic_speedup": 0.063,
            "lisa_speedup": 0.041,
            "rowclone_speedup": 0.052,
        })

    def test_document_without_average_row_is_an_error(self):
        doc = [{"scenario": "secdealloc_fig9",
                "rows": [comparison_row("MIX1", 0.5, 0.6, 0.7)]}]
        with self.assertRaises(SystemExit):
            bench_report.secdealloc_fig9_metrics(doc)

    def test_fig9_metrics_are_never_gated(self):
        base = {"scenarios": {"secdealloc_fig9":
                              bench_report.secdealloc_fig9_metrics(
                                  FIG9_DOC)}}
        moved = {key: -1.0 for key in base["scenarios"]["secdealloc_fig9"]}
        moved.update(peak_rss_mb=1e6, wall_s=99.0)
        report = {"scenarios": {"secdealloc_fig9": moved}}
        self.assertEqual(bench_report.check_regressions(report, base), [])


class RunCodicUsageTest(unittest.TestCase):
    def fake_build_dir(self, tmp, exit_code):
        """A codic_run stand-in that writes an empty document."""
        path = os.path.join(tmp, "codic_run")
        with open(path, "w") as f:
            f.write(f"""#!{sys.executable}
import sys
with open(sys.argv[sys.argv.index("--out") + 1], "w") as f:
    f.write("[]")
sys.exit({exit_code})
""")
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return tmp

    def test_usage_records_wall_and_peak_rss(self):
        with tempfile.TemporaryDirectory() as tmp:
            usage = {}
            doc = bench_report.run_codic(self.fake_build_dir(tmp, 0),
                                         ["--scenario", "x"], False,
                                         usage)
        self.assertEqual(doc, [])
        self.assertEqual(sorted(usage), ["peak_rss_mb", "wall_s"])
        self.assertGreater(usage["peak_rss_mb"], 0.0)
        self.assertGreater(usage["wall_s"], 0.0)

    def test_failing_process_raises(self):
        with tempfile.TemporaryDirectory() as tmp:
            with self.assertRaises(subprocess.CalledProcessError):
                bench_report.run_codic(self.fake_build_dir(tmp, 3),
                                       ["--scenario", "x"], False, {})


if __name__ == "__main__":
    unittest.main()
