"""Regenerate the pinned optimal depths in ``expected.json``.

Every exact-class compile in the catalog gets its optimal depth from a
source other than the mapper under test:

* ``olsq-oracle``: ``repro.baselines.OlsqStyleMapper``, the uninformed,
  filter-free depth-bounded solver (no heuristic, no dominance, no
  swap-free fast path);
* ``ideal``: the all-to-all depth, a lower bound for every schedule,
  for stand-ins built to embed swap-free (the QUEKO construction and the
  line-interaction Table-1 rows).  A checker-valid schedule of this
  depth is optimal by definition.

Run from the repository root (takes several minutes)::

    python3 perfbench/pin_expected.py > perfbench/expected.new.json

The ``known_failures`` block of ``expected.json`` is written by hand and
carried over unchanged.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import build  # noqa: E402
import catalog  # noqa: E402

ORACLE_MAX_NODES = 1_500_000
ORACLE_MAX_SECONDS = 240.0

#: Stand-ins generated to embed into their target swap-free: the QUEKO
#: construction (Table-2 ``queko_*`` and the embeddable rows, laid out on
#: a subgraph of the target) and the Table-1 rows restricted to a line
#: interaction graph.  The oracle, which has no embedding shortcut, may
#: run out of budget on the 16-qubit ones; their optimum is the ideal
#: depth by construction.
SWAP_FREE_BY_CONSTRUCTION = {
    "t1-4gt13_92@ibmqx2.table1", "t1-miller_11@ibmqx2.table1",
    "t2-qaoa5@ibmqx2.olsq", "t2-queko_10_3@aspen-4.olsq",
}


def exact_class_specs():
    seen = {}
    for group in (catalog.EXACT, catalog.STREAM, *catalog.TINY.values()):
        for spec in group:
            if spec.mapper != "heuristic":
                seen.setdefault(spec.key, spec)
    return list(seen.values())


def main() -> int:
    pkg, _ = build.build()
    sys.path.insert(0, str(pkg))
    # Cap the oracle's memory: without a filter it stores every node.
    limit = 3 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    from repro import OlsqStyleMapper, SearchBudgetExceeded
    from repro.circuit.qasm import parse_qasm, to_qasm

    previous = json.loads((HERE / "expected.json").read_text()) if (
        HERE / "expected.json"
    ).is_file() else {}
    rows = {}
    for spec in exact_class_specs():
        logical = parse_qasm(to_qasm(catalog.circuit(spec)))
        latency = catalog.latency_model(spec)
        ideal = logical.depth(latency)
        row = {"ideal": ideal}
        start = time.perf_counter()
        try:
            result = OlsqStyleMapper(
                catalog.coupling(spec), latency,
                max_nodes=ORACLE_MAX_NODES, max_seconds=ORACLE_MAX_SECONDS,
            ).map(logical)
        except (SearchBudgetExceeded, MemoryError) as exc:
            row["oracle"] = f"unresolved: {type(exc).__name__}"
            if spec.key in SWAP_FREE_BY_CONSTRUCTION:
                row.update(depth=ideal, source="ideal")
            else:
                row.update(depth=None, source="unresolved")
        else:
            row.update(oracle=result.depth, depth=result.depth,
                       source="olsq-oracle")
        row["oracle_s"] = round(time.perf_counter() - start, 2)
        rows[spec.key] = row
        print(spec.key, row, file=sys.stderr, flush=True)
    out = {
        "optimal_depth": rows,
        "known_failures": previous.get("known_failures", {}),
    }
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
