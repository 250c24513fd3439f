"""BENCHMARK.json names exactly the workloads and metrics the benchmark prints."""

import json
import re

from perfbench import suite, table
from perfbench.tests.conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_the_suite():
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert workload["why"] == suite.WHY[workload["name"]]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_match_the_tables():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(table.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _base in table.LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_names_and_units_fit_the_contract():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
