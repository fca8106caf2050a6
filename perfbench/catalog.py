"""Workload catalog: which circuits each workload compiles, and how.

The circuits come straight from the program's ``benchcircuits`` tables
and QFT generator; the benchmark's own seeded RNG decides only the order
(``exact``, ``heuristic``) or the request stream (``stream``).  Nothing
here goes through ``repro.analysis.corpus``, so a later change to the
program cannot shift the inputs.

A :class:`Spec` names one compile: the circuit, the architecture, the
latency model and the mapper class.  Circuits are written to QASM by the
benchmark before it times anything; the timed compile reads them back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Spec:
    """One compile request: circuit source, target and mapper class."""

    family: str  # "t1" | "t2" | "t3" | "qft"
    name: str  # table row name, or qubit count for "qft"
    arch: str  # repro.arch.library.by_name() name
    latency: str  # key of LATENCIES
    mapper: str  # "optimal" | "heuristic" | "portfolio"
    gate_cap: Optional[int] = None  # Table-3 scale-down cap

    @property
    def key(self) -> str:
        """Unique, file-name-safe label (also the expected-answer key)."""
        return f"{self.family}-{self.name}@{self.arch}.{self.latency}"


#: Latency names → ``repro.circuit.latency`` constants.  ``table1`` is the
#: paper's Table-1/Table-3 model (1-qubit 1, CX 2, SWAP 6).
LATENCIES = {
    "table1": "TABLE1_LATENCY",
    "olsq": "OLSQ_LATENCY",
    "qft": "QFT_LATENCY",
}

#: Gate cap for the ``heuristic`` workload's Table-3 circuits: about 1-2 s
#: per compile on a 2-vCPU host.
HEURISTIC_GATE_CAP = 150

#: Gate cap for the Table-3 circuits in the ``stream`` pool.  The
#: program's corpus model caps them at 300 gates; at 100 one ``stream``
#: call (every request) takes about 20 s on a 2-vCPU host, so a 40 s run
#: makes one call after its set-up probes.
STREAM_GATE_CAP = 100

#: Times each stream base circuit occurs in one request stream: the
#: program's corpus model default (``build_corpus(repeat_factor=10)``).
#: The repeat share is ``1 - 1 / STREAM_COPIES`` = 0.9.
STREAM_COPIES = 10

#: Worker processes of the ``stream`` workload's ``map_many`` call.
#: Fixed, not ``nproc``, so runs on hosts of different sizes do the same
#: work; two is ``nproc`` on the host the benchmark was designed for.
STREAM_WORKERS = 2


def _t1(name: str, mapper: str = "optimal") -> Spec:
    return Spec("t1", name, "ibmqx2", "table1", mapper)


def _t2(name: str, arch: str, mapper: str = "optimal") -> Spec:
    return Spec("t2", name, arch, "olsq", mapper)


def _qft(n: int, arch: str) -> Spec:
    return Spec("qft", str(n), arch, "qft", "optimal")


def _t3(name: str, cap: int) -> Spec:
    return Spec("t3", name, "tokyo", "table1", "heuristic", cap)


#: ``exact``: what ``repro map --mapper optimal --search-initial`` runs.
#: Table-1 rows on QX2, Table-2 rows on their own architectures, QFT on
#: LNN and 2xN.  Rows whose exact solve takes over ~2 s on a 2-vCPU host
#: (4mod5-v0_19, alu-v1_28, alu-v2_33, alu-v4_37, mod5mils_65 at both
#: latencies, rd32-v1_68, queko_15_1) are left out so a 40 s run makes
#: three passes after its set-up probes, and 4mod5-v1_22 on grid2by4 because
#: its optimum could not be pinned (the oracle runs out of memory).  The
#: swap-free rows (4gt13_92, miller_11, qaoa5, queko_10_3) take the
#: monomorphism fast path.
EXACT: Tuple[Spec, ...] = (
    _t1("4gt11_82"),
    _t1("4gt13_92"),
    _t1("4mod5-v0_20"),
    _t1("4mod5-v1_22"),
    _t1("4mod5-v1_24"),
    _t1("alu-v3_34"),
    _t1("alu-v3_35"),
    _t1("miller_11"),
    _t1("mod5d1_63"),
    _t1("qft_4"),
    _t1("rd32-v0_66"),
    _t2("4mod5-v1_22", "grid2by3"),
    _t2("4mod5-v1_22", "ibmqx2"),
    _t2("adder", "ibmqx2"),
    _t2("qaoa5", "ibmqx2"),
    _t2("queko_10_3", "aspen-4"),
    _qft(5, "lnn-5"),
    _qft(6, "lnn-6"),
    _qft(6, "grid2x3"),
)

#: ``heuristic``: the paper's section 6.2 path on IBM Tokyo, eight
#: Table-3 circuits from 8 to 16 qubits (qft_10 is the exact regenerated
#: QFT; its 190 gates are never capped).
HEURISTIC: Tuple[Spec, ...] = tuple(
    _t3(name, HEURISTIC_GATE_CAP)
    for name in (
        "cm82a_208", "urf1_278", "qft_10", "z4_268",
        "sqrt8_260", "adr4_197", "ham15_107", "inc_237",
    )
)

#: ``stream`` base pool.  Its shape is the program's own request-stream
#: model, ``repro.analysis.corpus.build_corpus`` at its defaults: 100
#: requests of 10 distinct circuits, dealt round-robin over four families
#: (QFT 3, Table-1 3, Table-2 2, Table-3 2), each requested
#: ``STREAM_COPIES`` times.  The rows are fixed rather than drawn, so
#: every seed does the same work; they come from the corpus model's own
#: family lists, except alu-v3_35, a documented portfolio seed defect
#: kept in the stream on purpose (as are 4gt13_92 and qaoa5).  Exact
#: class (Table-1/Table-2 rows): ``PortfolioMapper(lanes=("exact",))``
#: on the row's own architecture and latency.  Heuristic class (QFT and
#: Table-3): ``HeuristicMapper`` on Tokyo.
STREAM: Tuple[Spec, ...] = (
    *(Spec("qft", str(n), "tokyo", "table1", "heuristic") for n in (7, 8, 9)),
    *(_t1(name, "portfolio") for name in ("4gt13_92", "alu-v3_34", "alu-v3_35")),
    *(_t2(name, "ibmqx2", "portfolio") for name in ("adder", "qaoa5")),
    *(_t3(name, STREAM_GATE_CAP) for name in ("qft_10", "rd53_251")),
)

WORKLOADS: Dict[str, Tuple[Spec, ...]] = {
    "exact": EXACT,
    "heuristic": HEURISTIC,
    "stream": STREAM,
}

#: Tiny mode (the benchmark's own tests): two cheap circuits per workload.
TINY: Dict[str, Tuple[Spec, ...]] = {
    "exact": (_t1("4mod5-v1_22"), _qft(5, "lnn-5")),
    "heuristic": (
        Spec("qft", "7", "tokyo", "table1", "heuristic"),
        _t3("rd53_251", 40),
    ),
    "stream": (_t1("mod5d1_63", "portfolio"), _t1("alu-v3_35", "portfolio")),
}


def specs(workload: str, tiny: bool = False) -> Tuple[Spec, ...]:
    return (TINY if tiny else WORKLOADS)[workload]


def order(workload_specs, seed: int) -> List[Spec]:
    """The one-shot workloads' compile order for ``seed``."""
    shuffled = list(workload_specs)
    random.Random(seed).shuffle(shuffled)
    return shuffled


def request_stream(base, seed: int) -> List[Spec]:
    """Every base circuit ``STREAM_COPIES`` times, in seeded order.

    The composition is fixed so every seed does the same work; the seed
    decides only the arrival order, which the scheduler's warm-cache
    affinity and tail packing depend on.
    """
    stream = [spec for spec in base for _ in range(STREAM_COPIES)]
    random.Random(seed).shuffle(stream)
    return stream


# -- program-side constructors (import repro lazily: the catalog is
# -- imported before the program under test is on sys.path) -----------


def latency_model(spec: Spec):
    from repro.circuit import latency

    return getattr(latency, LATENCIES[spec.latency])


def coupling(spec: Spec):
    from repro.arch.library import by_name

    return by_name(spec.arch)


def circuit(spec: Spec):
    """Regenerate the spec's logical circuit from the program's tables."""
    from repro.benchcircuits import large_circuit, olsq_circuit, wille_circuit
    from repro.circuit.generators import qft_skeleton

    if spec.family == "t1":
        return wille_circuit(spec.name)
    if spec.family == "t2":
        return olsq_circuit(spec.name)
    if spec.family == "t3":
        return large_circuit(spec.name, scale_gate_cap=spec.gate_cap)
    return qft_skeleton(int(spec.name))


def mapper(spec: Spec, kernel=None):
    """The mapper a user of each workload would build, library defaults."""
    from repro import HeuristicMapper, OptimalMapper
    from repro.analysis.portfolio import PortfolioMapper

    target, latency = coupling(spec), latency_model(spec)
    if spec.mapper == "optimal":
        return OptimalMapper(
            target, latency, search_initial_mapping=True, kernel=kernel
        )
    if spec.mapper == "portfolio":
        return PortfolioMapper(target, latency, lanes=("exact",), kernel=kernel)
    return HeuristicMapper(target, latency, kernel=kernel)
