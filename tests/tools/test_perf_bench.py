"""perf_bench's --compare gate: a regressed engine figure is flagged."""

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import perf_bench  # noqa: E402


class TestCompareReports:
    def test_engine_row_regression_is_flagged(self):
        old = {"engine": {"dfp": {"runs_per_sec": 5.4}, "sip": {"runs_per_sec": 4.0}}}
        new = {"engine": {"dfp": {"runs_per_sec": 2.0}, "sip": {"runs_per_sec": 3.9}}}
        rows = perf_bench.compare_reports(old, new, tolerance=0.5)
        regressed = {label for label, _, _, flag in rows if flag}
        assert regressed == {"engine.dfp.runs_per_sec"}
