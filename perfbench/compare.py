"""Old-vs-new table of two sets of benchmark outputs.

Usage::

    python3 perfbench/compare.py OLD.txt NEW.txt

Each file holds the standard output of one or more benchmark runs, for
example the traced runs of every workload on the parent commit::

    for w in solo-demand solo-preload observed; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 20 --trace 1
    done > old.txt

Outputs are grouped by workload and trace mode; several outputs of one
group (several seeds) are reduced to each metric's median.  Every metric
both sides report is printed as ``old → new (ratio×, base …)``, where the
base is the count the metric is measured per, taken from the new side.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.table import LAYER_METRICS  # noqa: E402

__all__ = ["main", "parse", "render"]

#: (workload, trace) → {"metrics": {name: (value, unit)}, "info": {...}}
Outputs = Dict[Tuple[str, int], dict]

BASES = {name: base for name, _unit, base in LAYER_METRICS}


def parse(text: str) -> Outputs:
    """Group the outputs in ``text`` and take per-metric medians."""
    groups: Dict[Tuple[str, int], List[Tuple[dict, dict]]] = defaultdict(list)
    info = None
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "perfbench" in record:
            info = record["perfbench"]
        elif "metrics" in record and info is not None:
            groups[(info["workload"], info["trace"])].append((info, record))
            info = None
    reduced: Outputs = {}
    for key, runs in groups.items():
        names = runs[0][1]["metrics"]
        reduced[key] = {
            "metrics": {
                name: (
                    statistics.median(
                        r["metrics"][name]["value"] for _i, r in runs if name in r["metrics"]
                    ),
                    names[name]["unit"],
                )
                for name in names
            },
            "info": {
                k: statistics.median(i[k] for i, _r in runs)
                for k, v in runs[0][0].items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            },
            "runs": len(runs),
        }
    return reduced


def _fmt(value: float) -> str:
    for floor, scale, suffix in ((1e9, 1e9, " G"), (1e6, 1e6, " M"), (1e4, 1e3, " k")):
        if abs(value) >= floor:
            return f"{value / scale:.3g}{suffix}"
    return f"{value:.3g}"


def _base(name: str, new: dict) -> str:
    base = BASES.get(name)
    if base is None:
        return ""
    if base in new["metrics"]:
        value = new["metrics"][base][0]
    else:
        value = new["info"].get(base)
    return "" if value is None else f", base {_fmt(value)} {base}"


def render(old: Outputs, new: Outputs) -> str:
    lines = []
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        before, after = old[key], new[key]
        lines.append(
            f"{workload} ({'traced' if trace else 'untraced'}; "
            f"{before['runs']} old, {after['runs']} new outputs)"
        )
        names = [n for n in after["metrics"] if n in before["metrics"]]
        width = max((len(n) for n in names), default=0)
        for name in names:
            was, unit = before["metrics"][name]
            now = after["metrics"][name][0]
            ratio = f"{now / was:.2f}×" if was else "n/a"
            lines.append(
                f"  {name:<{width}}  {_fmt(was)} → {_fmt(now)} {unit} "
                f"({ratio}{_base(name, after)})"
            )
    missing = sorted(set(old) ^ set(new))
    if missing:
        lines.append("only on one side: " + ", ".join(f"{w} trace={t}" for w, t in missing))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    old, new = (parse(Path(p).read_text(encoding="utf-8")) for p in args)
    print(render(old, new))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
