"""Compare two sets of benchmark runs, refusing mixed kernel backends.

Usage::

    python3 perfbench/compare.py BASE.log NEW.log

Each log is the saved standard output of one or more ``run.py`` runs
(its ``context`` line and final JSON line per run).  For every workload
and metric the two medians are printed with their change; end-to-end
metrics are judged against the bounds in ``BENCHMARK.json``.  Exits 2
without comparing when the runs used different kernel backends, and 1
when an end-to-end metric is worse than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """``{(workload, trace): {metric: [values]}}`` and the backends seen."""
    groups, backends, context = {}, set(), None
    for line in Path(path).read_text().splitlines():
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
            backends.add(context["kernel_backend"])
        elif line.startswith("{") and context is not None:
            result = json.loads(line)
            group = groups.setdefault(
                (context["workload"], context["trace"]), {})
            for name, metric in result["metrics"].items():
                group.setdefault(name, []).append(metric["value"])
            context = None
    return groups, backends


def main(argv) -> int:
    base, base_backends = load(argv[1])
    new, new_backends = load(argv[2])
    if len(base_backends | new_backends) != 1:
        print(f"refusing to compare: kernel backends {sorted(base_backends)}"
              f" vs {sorted(new_backends)}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} (trace {key[1]})")
        for name, values in base[key].items():
            if name not in new[key]:
                continue
            a, b = statistics.median(values), statistics.median(new[key][name])
            change = (b - a) / a if a else 0.0
            line = f"{name:34s} {a:12.6g} -> {b:12.6g} ({change:+.1%})"
            if name in bounds:
                lower = bounds[name]["better"] == "lower"
                loss = change if lower else -change
                verdict = "WORSE" if loss > bounds[name]["bound"] else "ok"
                worse += verdict == "WORSE"
                line += f" bound {bounds[name]['bound']:.0%} {verdict}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
