"""The old-vs-new layer table."""

import json

from perfbench import compare


def output(workload, fault_us, fault_calls):
    info = {"perfbench": {"workload": workload, "trace": 1, "accesses": 10}}
    result = {
        "correct": True,
        "attempted": 2,
        "failed": 0,
        "metrics": {
            "driver.fault_us": {"value": fault_us, "unit": "us"},
            "driver.fault_calls": {"value": fault_calls, "unit": "count"},
        },
    }
    return f"noise\n{json.dumps(info)}\n{json.dumps(result)}\n"


def test_renders_ratio_and_base_per_workload():
    old = compare.parse(output("observed", 12.1, 1_640_000))
    new = compare.parse(
        output("observed", 10.9, 1_640_000) + output("observed", 11.1, 1_640_000)
    )
    text = compare.render(old, new)
    assert text.splitlines()[0].startswith("observed (traced; 1 old, 2 new outputs)")
    line = next(ln for ln in text.splitlines() if "driver.fault_us" in ln)
    assert "12.1 → 11 us (0.91×, base 1.64 M driver.fault_calls)" in line


def test_reports_workloads_on_one_side_only():
    text = compare.render(compare.parse(output("observed", 1.0, 1)), {})
    assert "only on one side: observed trace=1" in text
