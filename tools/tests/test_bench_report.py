"""Tests of the PUF telemetry extractor in tools/bench_report.py over a
small synthetic puf_fig5_jaccard document.

    python3 -m unittest discover -s tools/tests -v
"""

import copy
import sys
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


if __name__ == "__main__":
    unittest.main()
