"""Parallel batch mapping: route many circuits across worker processes.

``map_many`` is the scale-out entry point the ROADMAP asks for: it takes a
list of :class:`BatchTask` (label, circuit, mapper) and returns one
:class:`BatchRecord` per task *in submission order* regardless of
completion order.  Failure is contained per task: a search-budget abort,
a mapper exception, or a crashed worker process each produce an error
record (with exception type and truncated traceback) for the affected
task instead of poisoning the whole batch.

Work is distributed by a **work-stealing scheduler**: a
coordinator-side task deque, drained cost-descending (predicted from
gate count × qubit count, so the straggler tail shrinks) through
one-task leases to a pool of dedicated worker processes.  A worker that
dies only affects its own leased task, which is retried on a
replacement worker up to ``orphan_retries`` times before it becomes an
error record.

The pool workers (and the in-process ``max_workers=1`` path) can install
a per-process **architecture warm cache** (``warm_cache=True``, see
:mod:`repro.core.warmcache`): tasks targeting the same device share the
distance matrix, automorphism group, SWAP-split LUT, heuristic memo and
compiled-kernel capsule, with hit/miss/evict counters surfaced in the
fleet rollup.  Warm-cache runs stay bit-identical to cold runs — every
shared structure is a pure cache of values the search would recompute
identically.

Every successful record carries the mapper's ``stats`` dict, which all
mappers in this library emit in the normalized schema
(:data:`repro.obs.schema.REQUIRED_STAT_KEYS`), so batch output tabulates
uniformly across mappers — the same property
:mod:`repro.analysis.compare` relies on.

Design constraints worth knowing:

* Workers are module-level functions and tasks are plain picklable
  objects — mappers constructed with ``telemetry=None`` (the default)
  pickle fine; telemetry sinks hold file handles and do not, so
  ``map_many`` refuses instrumented mappers up front rather than failing
  inside the pool with an opaque pickling error.  Fleet observability
  goes through ``telemetry_spec`` instead: a picklable
  :class:`~repro.obs.telemetry.TelemetrySpec` that each worker process
  builds exactly once, writing resource samples plus per-task
  ``worker_task`` records into its own JSONL shard; the coordinator
  merges shards into a fleet rollup (:mod:`repro.obs.export`) when the
  batch returns.
* ``max_workers=1`` (or a single-CPU machine with ``max_workers=None``)
  runs every task in-process with no pool at all, which keeps coverage,
  debugging and profiling simple and avoids fork overhead where it could
  never pay off.
* Budgets (``max_nodes`` / ``max_seconds``) are applied per task by
  copying the mapper, so the caller's mapper instance is never mutated.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import multiprocessing
import os
import queue as _queue
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.circuit import Circuit
from ..core.astar import SearchBudgetExceeded
from ..core.warmcache import WarmCachePool
from ..core.result import MappingResult
from ..obs.events import SearchProgressEvent
from ..obs.schema import (
    MAPPER_TOQM_OPTIMAL,
    STAT_BUDGET_REASON,
    STAT_INCUMBENT_DEPTH,
    STAT_KERNEL_BACKEND,
    STAT_MODE2_ROOTS,
    base_stats,
)
from ..obs.runtime import peak_rss_bytes
from ..obs.telemetry import Telemetry, TelemetrySpec, resolve
from ..obs.trace import (
    INCUMBENT_SEED,
    PRUNE_ROOT_RESTRICTION,
    PRUNE_SYMMETRY,
    TraceRecorder,
    TraceSpec,
)
from ..verify.checker import validate_result


@dataclass(frozen=True)
class BatchTask:
    """One unit of batch work: route ``circuit`` with ``mapper``.

    ``mapper`` may be any object with a ``map(circuit)`` method returning
    a :class:`MappingResult`; for pool execution it must be picklable
    (all library mappers are, with telemetry left unset).
    """

    label: str
    circuit: Circuit
    mapper: object


@dataclass
class BatchRecord:
    """Outcome of one :class:`BatchTask`.

    ``ok`` distinguishes success from containment: on failure ``error``
    holds a one-line description and ``stats`` holds whatever partial
    counters were salvaged (budget aborts carry their
    ``partial_stats``; crashes carry an empty dict).
    """

    label: str
    ok: bool
    seconds: float = 0.0
    depth: Optional[int] = None
    swaps: Optional[int] = None
    stats: Dict = field(default_factory=dict)
    error: Optional[str] = None
    result: Optional[MappingResult] = None
    #: Worker-process peak RSS after this task (``getrusage``; a
    #: process-lifetime high-water mark, so within one worker it is
    #: monotone across tasks).
    peak_rss_bytes: Optional[int] = None
    #: Exception class name on failure (``"SearchBudgetExceeded"``,
    #: ``"WorkerCrashed"`` for a dead worker process, ...); ``None`` on
    #: success.  The fleet rollup aggregates failures by this.
    error_type: Optional[str] = None
    #: Truncated (tail-kept) traceback text for unexpected mapper
    #: exceptions; ``None`` for successes, budget trips and crashes.
    traceback: Optional[str] = None


#: Characters of traceback tail kept on failed records — enough for the
#: raising frame chain without shipping unbounded text through pickles.
_TRACEBACK_CHARS = 2000


def _truncated_traceback() -> str:
    text = _traceback.format_exc().rstrip()
    if len(text) > _TRACEBACK_CHARS:
        text = "...(truncated)...\n" + text[-_TRACEBACK_CHARS:]
    return text


def _with_warm_cache(mapper, warm_pool: Optional[WarmCachePool]):
    """A copy of ``mapper`` wired to the pool's shared ``ArchContext``.

    Returns ``mapper`` unchanged when warm caching is off or the mapper
    has no coupling graph to key on.  The copy also adopts the context's
    canonical coupling instance, so graph-level memos (distance table,
    automorphisms) are shared rather than duplicated per task.
    """
    if warm_pool is None:
        return mapper
    coupling = getattr(mapper, "coupling", None)
    if coupling is None:
        return mapper
    context = warm_pool.context(coupling, getattr(mapper, "latency", None))
    warm = copy.copy(mapper)
    warm.coupling = context.coupling
    warm.latency = context.latency
    warm.arch_context = context
    return warm


def _run_task(
    task: BatchTask,
    max_nodes: Optional[int],
    max_seconds: Optional[float],
    keep_results: bool,
    validate: bool,
    warm_pool: Optional[WarmCachePool] = None,
) -> BatchRecord:
    """Execute one task, converting every failure into an error record."""
    mapper = _with_warm_cache(task.mapper, warm_pool)
    if max_nodes is not None or max_seconds is not None:
        if mapper is task.mapper:
            mapper = copy.copy(mapper)
        if max_nodes is not None and hasattr(mapper, "max_nodes"):
            mapper.max_nodes = max_nodes
        if max_seconds is not None and hasattr(mapper, "max_seconds"):
            mapper.max_seconds = max_seconds
    start = time.perf_counter()
    try:
        result = mapper.map(task.circuit)
        if validate:
            validate_result(result)
    except SearchBudgetExceeded as exc:
        return BatchRecord(
            label=task.label,
            ok=False,
            seconds=time.perf_counter() - start,
            stats=dict(exc.partial_stats),
            error=f"budget exceeded: {exc}",
            error_type=type(exc).__name__,
            peak_rss_bytes=peak_rss_bytes(),
        )
    except Exception as exc:  # noqa: BLE001 - containment is the point
        return BatchRecord(
            label=task.label,
            ok=False,
            seconds=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__,
            traceback=_truncated_traceback(),
            peak_rss_bytes=peak_rss_bytes(),
        )
    return BatchRecord(
        label=task.label,
        ok=True,
        seconds=time.perf_counter() - start,
        depth=result.depth,
        swaps=result.num_inserted_swaps,
        stats=dict(result.stats),
        result=result if keep_results else None,
        peak_rss_bytes=peak_rss_bytes(),
    )


#: Per-process fleet telemetry, built lazily from the first
#: :class:`TelemetrySpec` seen and cached for the worker's lifetime
#: (pool workers have no shutdown hook — shards stay durable because
#: ``JsonlSink`` flushes every record and the sampler is a daemon
#: thread that dies with the process).  Keyed by shard directory so a
#: long-lived process serving two fleets keeps the shards apart.
_WORKER_TELEMETRY: Dict[str, Telemetry] = {}


def _worker_telemetry(spec: Optional[TelemetrySpec]) -> Optional[Telemetry]:
    """This process's fleet telemetry for ``spec`` (built on first use)."""
    if spec is None:
        return None
    telemetry = _WORKER_TELEMETRY.get(spec.directory)
    if telemetry is None:
        telemetry = spec.build(os.getpid())
        _WORKER_TELEMETRY[spec.directory] = telemetry
        if telemetry.sink is not None:
            meta = {
                "type": "worker_meta",
                "worker": os.getpid(),
                "pid": os.getpid(),
                "started_ts": time.time(),
                "sample_resources": spec.sample_resources,
                "resource_interval_s": spec.resource_interval,
                "profile": spec.profile,
            }
            run_id = getattr(spec, "run_id", None)
            if run_id is not None:
                meta["run_id"] = run_id
            telemetry.sink.emit(meta)
    return telemetry


def _emit_worker_task(
    telemetry: Optional[Telemetry],
    record: BatchRecord,
    queue_wait_s: Optional[float],
    warm_pool: Optional[WarmCachePool] = None,
) -> None:
    """One ``worker_task`` shard record — everything the fleet rollup
    needs (who ran what, for how long, after waiting how long, at what
    peak RSS, against how warm a cache) without reading coordinator
    state.  ``warm_cache`` carries the worker's *cumulative* counters;
    the rollup keeps each worker's last snapshot and sums across
    workers."""
    if telemetry is None or telemetry.sink is None:
        return
    payload = {
        "type": "worker_task",
        "worker": os.getpid(),
        "label": record.label,
        "ok": record.ok,
        "seconds": round(record.seconds, 6),
        "queue_wait_s": (
            round(max(0.0, queue_wait_s), 6)
            if queue_wait_s is not None else None
        ),
        "nodes_expanded": int(record.stats.get("nodes_expanded", 0) or 0),
        "depth": record.depth,
        "peak_rss_bytes": record.peak_rss_bytes,
        "ts": time.time(),
    }
    if telemetry.run_id is not None:
        payload["run_id"] = telemetry.run_id
    if record.error_type is not None:
        payload["error_type"] = record.error_type
    if warm_pool is not None:
        payload["warm_cache"] = warm_pool.counters()
    telemetry.sink.emit(payload)


def _default_workers() -> int:
    import os

    return os.cpu_count() or 1


def _reject_unpicklable_telemetry(tasks: Sequence[BatchTask]) -> None:
    for task in tasks:
        tele = getattr(task.mapper, "telemetry", None)
        if tele is not None and getattr(tele, "enabled", False):
            raise ValueError(
                f"task {task.label!r}: mappers with live telemetry cannot "
                "cross a process boundary (sinks hold file handles); "
                "run with max_workers=1, detach telemetry, or pass "
                "telemetry_spec= for per-worker fleet telemetry"
            )


def _predicted_cost(task: BatchTask) -> int:
    """Crude per-task cost prediction: gate count × qubit count.

    Only the *ordering* matters — dispatching predicted-heavy tasks
    first shrinks the straggler tail (a heavy task started last would
    run alone while every other worker idles).
    """
    try:
        return len(task.circuit) * max(1, task.circuit.num_qubits)
    except (TypeError, AttributeError):
        return 0


def _stealing_worker(
    worker_id: int,
    lease_q,
    result_q,
    max_nodes: Optional[int],
    max_seconds: Optional[float],
    keep_results: bool,
    validate: bool,
    telemetry_spec: Optional[TelemetrySpec],
    warm_cache: bool,
) -> None:
    """Worker process: run one-task leases until the ``None`` sentinel.

    Each worker owns a private :class:`WarmCachePool` built fresh at
    startup (never inherited through fork), so its warmth is exactly
    the batch's own history — deterministic regardless of what the
    coordinator process mapped before.
    """
    _WORKER_TELEMETRY.clear()  # never adopt a forked parent's sinks
    telemetry = _worker_telemetry(telemetry_spec)
    warm_pool = WarmCachePool() if warm_cache else None
    while True:
        lease = lease_q.get()
        if lease is None:
            break
        index, task, enqueued_ts = lease
        queue_wait = time.time() - enqueued_ts
        record = _run_task(task, max_nodes, max_seconds, keep_results,
                           validate, warm_pool=warm_pool)
        _emit_worker_task(telemetry, record, queue_wait,
                          warm_pool=warm_pool)
        result_q.put((worker_id, index, record))


class _WorkerHandle:
    """Coordinator-side state for one stealing worker."""

    __slots__ = ("process", "lease_q", "current")

    def __init__(self, process, lease_q) -> None:
        self.process = process
        self.lease_q = lease_q
        self.current: Optional[int] = None  # leased task index


#: Coordinator poll interval while waiting for results — bounds how
#: long a dead worker goes unnoticed without burning CPU.
_STEAL_POLL_S = 0.05

#: How deep into the pending deque the affinity dispatch looks for a
#: task whose circuit the requesting worker has already warmed.  Tasks
#: are cost-ordered, so repeats of one circuit sit adjacent and the scan
#: succeeds early; the bound caps coordinator work on huge corpora.
_AFFINITY_SCAN = 256


def _map_many_stealing(
    tasks: List[BatchTask],
    workers: int,
    max_nodes: Optional[int],
    max_seconds: Optional[float],
    keep_results: bool,
    validate: bool,
    telemetry_spec: Optional[TelemetrySpec],
    warm_cache: bool,
    orphan_retries: int,
) -> List[BatchRecord]:
    """Work-stealing coordinator: shared deque, one-task leases.

    The deque is drained cost-descending; every idle worker immediately
    leases the heaviest remaining task, so load balances itself without
    up-front chunk guesses.  With ``warm_cache`` on, dispatch is
    affinity-aware: an idle worker first gets a pending task whose
    circuit it has already warmed (scanning at most
    :data:`_AFFINITY_SCAN` deep), falling back to the heaviest remaining
    task — placement never changes results, only which worker's cache
    gets the hit.  Worker death orphans at most its one leased task,
    which is retried on a replacement worker up to ``orphan_retries``
    times before becoming a ``WorkerCrashed`` record.
    """
    from ..core.warmcache import circuit_fingerprint

    ctx = multiprocessing.get_context()
    order = sorted(
        range(len(tasks)),
        key=lambda i: (-_predicted_cost(tasks[i]), i),
    )
    pending = deque(order)
    attempts = [0] * len(tasks)
    results: List[Optional[BatchRecord]] = [None] * len(tasks)
    completed = 0
    enqueued_ts = time.time()
    result_q = ctx.Queue()
    worker_ids = itertools.count()
    handles: Dict[int, _WorkerHandle] = {}
    fingerprints: List[Optional[str]] = [None] * len(tasks)
    worker_warmth: Dict[int, set] = {}

    def _fp(index: int) -> str:
        fp = fingerprints[index]
        if fp is None:
            try:
                fp = circuit_fingerprint(tasks[index].circuit)
            except Exception:  # noqa: BLE001 - exotic circuit object
                fp = f"task-{index}"
            fingerprints[index] = fp
        return fp

    def take_pending(worker_id: int) -> int:
        """Pop the best pending task for this worker.

        Preference order: (1) a task this worker has already warmed —
        a guaranteed cache hit; (2) a task *no* worker has warmed —
        claiming a fresh circuit instead of duplicating a cache some
        other worker already paid for (repeats sit adjacent in the
        cost-ordered deque, so without this rule the opening dispatch
        burst would hand the same circuit to every worker at once);
        (3) the heaviest remaining task.
        """
        if warm_cache:
            scan = min(len(pending), _AFFINITY_SCAN)
            seen = worker_warmth.get(worker_id)
            if seen:
                for k in range(scan):
                    if _fp(pending[k]) in seen:
                        index = pending[k]
                        del pending[k]
                        return index
            claimed = set()
            for warmth in worker_warmth.values():
                claimed |= warmth
            if claimed:
                for k in range(scan):
                    if _fp(pending[k]) not in claimed:
                        index = pending[k]
                        del pending[k]
                        return index
        return pending.popleft()

    def spawn() -> None:
        worker_id = next(worker_ids)
        lease_q = ctx.SimpleQueue()
        process = ctx.Process(
            target=_stealing_worker,
            args=(worker_id, lease_q, result_q, max_nodes, max_seconds,
                  keep_results, validate, telemetry_spec, warm_cache),
            daemon=True,
        )
        process.start()
        handles[worker_id] = _WorkerHandle(process, lease_q)

    def absorb(worker_id: int, index: int, record: BatchRecord) -> None:
        nonlocal completed
        handle = handles.get(worker_id)
        if handle is not None and handle.current == index:
            handle.current = None
        if results[index] is None:
            results[index] = record
            completed += 1

    def drain_nowait() -> None:
        while True:
            try:
                absorb(*result_q.get_nowait())
            except _queue.Empty:
                return

    def reap_dead_workers() -> None:
        """Handle worker death: orphan-retry its lease, spawn a spare."""
        nonlocal completed
        dead = [
            (worker_id, handle)
            for worker_id, handle in handles.items()
            if not handle.process.is_alive()
        ]
        if not dead:
            return
        # A worker can finish its lease and die before the coordinator
        # reads the result — drain first so those count as completed,
        # not orphaned.
        drain_nowait()
        for worker_id, handle in dead:
            index = handle.current
            if index is not None and results[index] is None:
                attempts[index] += 1
                if attempts[index] > orphan_retries:
                    exitcode = handle.process.exitcode
                    results[index] = BatchRecord(
                        label=tasks[index].label,
                        ok=False,
                        error=(
                            "worker failed: process exited with code "
                            f"{exitcode} while running this task "
                            f"(attempt {attempts[index]})"
                        ),
                        error_type="WorkerCrashed",
                    )
                    completed += 1
                else:
                    pending.appendleft(index)  # retry at the front
            handle.process.join()
            del handles[worker_id]
            worker_warmth.pop(worker_id, None)
        in_flight = sum(
            1 for handle in handles.values() if handle.current is not None
        )
        while (
            len(handles) < workers
            and len(handles) < len(pending) + in_flight + 1
            and completed + in_flight < len(tasks)
        ):
            spawn()

    try:
        for _ in range(min(workers, len(tasks))):
            spawn()
        while completed < len(tasks):
            for worker_id, handle in handles.items():
                if handle.current is None and pending:
                    index = take_pending(worker_id)
                    handle.current = index
                    if warm_cache:
                        worker_warmth.setdefault(worker_id, set()).add(
                            _fp(index)
                        )
                    try:
                        # SimpleQueue pickles fully before writing, so a
                        # failure here never corrupts the lease stream.
                        handle.lease_q.put(
                            (index, tasks[index], enqueued_ts)
                        )
                    except Exception as exc:  # noqa: BLE001 - unpicklable
                        handle.current = None
                        results[index] = BatchRecord(
                            label=tasks[index].label,
                            ok=False,
                            error=(
                                "worker failed: task not picklable: "
                                f"{type(exc).__name__}: {exc}"
                            ),
                            error_type=type(exc).__name__,
                        )
                        completed += 1
            try:
                absorb(*result_q.get(timeout=_STEAL_POLL_S))
            except _queue.Empty:
                reap_dead_workers()
    finally:
        for handle in handles.values():
            try:
                handle.lease_q.put(None)
            except Exception:  # noqa: BLE001 - already-dead worker
                pass
        for handle in handles.values():
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join()
        result_q.close()
        result_q.join_thread()
    return [record for record in results if record is not None]


def map_many(
    tasks: Sequence[BatchTask],
    *,
    max_workers: Optional[int] = None,
    max_nodes: Optional[int] = None,
    max_seconds: Optional[float] = None,
    keep_results: bool = True,
    validate: bool = True,
    telemetry_spec: Optional[TelemetrySpec] = None,
    warm_cache: bool = True,
    orphan_retries: int = 1,
) -> List[BatchRecord]:
    """Route every task, in parallel when it can pay off.

    Args:
        tasks: Work items; results come back in this order.
        max_workers: Pool size; ``None`` means the CPU count.  A resolved
            value of 1 executes in-process without a pool — the
            bit-identity reference path for the stealing scheduler.
        max_nodes: Optional per-task node budget, applied to mappers that
            have a ``max_nodes`` attribute (the exact search).
        max_seconds: Optional per-task wall-clock budget, likewise.
        keep_results: Attach the full :class:`MappingResult` to each
            record.  Turn off for large sweeps where only depth/stats
            matter — results are the bulk of the pickled payload.
        validate: Structurally verify each schedule in the worker.
        telemetry_spec: Optional fleet-telemetry recipe; each worker
            process writes its own JSONL shard under
            ``telemetry_spec.directory`` and the coordinator writes the
            merged ``fleet.json`` rollup before returning.  Works on the
            in-process path too (one shard).
        warm_cache: Share per-architecture search artifacts across tasks
            through :mod:`repro.core.warmcache`.  Bit-identical results;
            hit/miss/evict counters land in the fleet rollup.
        orphan_retries: How many times a task orphaned by a dead worker
            is retried on a replacement before it becomes a
            ``WorkerCrashed`` error record.

    Returns:
        One :class:`BatchRecord` per task, submission-ordered.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    workers = _default_workers() if max_workers is None else max_workers
    _write_fleet_meta(telemetry_spec, total_tasks=len(tasks),
                      workers=workers, scheduler="stealing")
    if workers <= 1:
        telemetry = _worker_telemetry(telemetry_spec)
        warm_pool = WarmCachePool() if warm_cache else None
        submitted = time.time()
        records = []
        for task in tasks:
            queue_wait = time.time() - submitted
            record = _run_task(task, max_nodes, max_seconds, keep_results,
                               validate, warm_pool=warm_pool)
            _emit_worker_task(telemetry, record, queue_wait,
                              warm_pool=warm_pool)
            records.append(record)
        _write_rollup(telemetry_spec)
        return records

    _reject_unpicklable_telemetry(tasks)
    records = _map_many_stealing(
        tasks, workers, max_nodes, max_seconds, keep_results, validate,
        telemetry_spec, warm_cache, orphan_retries,
    )
    _write_rollup(telemetry_spec)
    return records


def _write_rollup(telemetry_spec: Optional[TelemetrySpec]) -> None:
    """Coordinator-side shard merge (no-op without a spec)."""
    if telemetry_spec is None:
        return
    from ..obs.export import write_fleet_rollup

    write_fleet_rollup(telemetry_spec.directory)


def _write_fleet_meta(
    telemetry_spec: Optional[TelemetrySpec],
    total_tasks: int,
    workers: int,
    scheduler: str,
) -> None:
    """Coordinator-side ``fleet_meta`` record written *before* dispatch.

    Live consumers (``repro top``) need the planned task total to render
    queue depth while the fleet is still running; shards alone only show
    completions.  Also carries the run_id so the telemetry directory is
    self-describing even before the rollup exists.  No-op without a spec.
    """
    if telemetry_spec is None:
        return
    from ..obs.export import write_fleet_meta

    write_fleet_meta(
        telemetry_spec.directory,
        total_tasks=total_tasks,
        workers=workers,
        scheduler=scheduler,
        run_id=getattr(telemetry_spec, "run_id", None),
    )


# ----------------------------------------------------------------------
# Parallel mode-2 root fan-out
# ----------------------------------------------------------------------

#: Counters summed across fan-out root searches into the final stats dict.
_FANOUT_SUM_KEYS = (
    "nodes_expanded",
    "nodes_generated",
    "filtered_equivalent",
    "filtered_dominated",
    "killed",
    "redundant",
    "memo_hits",
    "memo_misses",
    "pruned_by_bound",
    "incumbent_updates",
    "swaps_restricted",
    "symmetry_pruned",
    "pruned_by_assignment_lb",
    "pruned_by_layer_weight",
    "root_candidates_restricted",
    "closed_dominated",
)


class SharedBound:
    """Cross-process monotone-min incumbent depth.

    A single ``multiprocessing.Value`` guarded by its own lock; workers
    :meth:`offer` every improved terminal depth and :meth:`peek` it
    periodically (every ``_SHARED_BOUND_POLL`` expansions) so one root's
    incumbent prunes every other root's queue.  The handle itself is not
    picklable — it reaches pool workers through the pool initializer
    (inheritance), never through task payloads.
    """

    _SENTINEL = 1 << 62

    def __init__(self) -> None:
        self._value = multiprocessing.Value("q", self._SENTINEL)

    def peek(self) -> Optional[int]:
        """Best depth offered so far, or ``None`` if none yet."""
        with self._value.get_lock():
            depth = self._value.value
        return None if depth >= self._SENTINEL else depth

    def offer(self, depth: int) -> bool:
        """Lower the bound to ``depth`` if it improves; True when it did."""
        with self._value.get_lock():
            if depth < self._value.value:
                self._value.value = depth
                return True
        return False


#: Per-process shared-bound handle, installed by the pool initializer.
_SHARED_BOUND: Optional[SharedBound] = None


def _init_mode2_worker(shared: SharedBound) -> None:
    global _SHARED_BOUND
    _SHARED_BOUND = shared


def _worker_mapper(mapper) -> "object":
    """A pickle-safe mode-1 copy of ``mapper`` for one fan-out root."""
    worker = copy.copy(mapper)
    worker.search_initial_mapping = False
    worker.seed_incumbent = False  # the fan-out seeds once, in the parent
    worker.mode2_workers = None
    worker.telemetry = None
    worker.shared_incumbent = None  # installed from _SHARED_BOUND in-worker
    return worker


def _worker_trace_telemetry(
    trace_spec: Optional[TraceSpec],
) -> Tuple[Optional[Telemetry], Optional[TraceRecorder]]:
    """In-memory trace telemetry for one fan-out root.

    Telemetry handles cannot cross the process boundary (sinks hold file
    handles), so a traced fan-out ships a picklable :class:`TraceSpec`
    instead; the worker records into memory and its ``drain()`` rides the
    outcome tuple back to the coordinator.
    """
    if trace_spec is None:
        return None, None
    recorder = TraceRecorder.from_spec(trace_spec)
    return Telemetry(search_trace=recorder), recorder


def _emit_root_task(
    telemetry: Optional[Telemetry],
    index: int,
    ok: bool,
    stats: Dict,
    seconds: float,
    queue_wait_s: Optional[float],
    depth: Optional[int],
) -> None:
    """Fan-out twin of :func:`_emit_worker_task`: one record per root."""
    if telemetry is None or telemetry.sink is None:
        return
    payload = {
        "type": "worker_task",
        "worker": os.getpid(),
        "label": f"root-{index}",
        "ok": ok,
        "seconds": round(seconds, 6),
        "queue_wait_s": (
            round(max(0.0, queue_wait_s), 6)
            if queue_wait_s is not None else None
        ),
        "nodes_expanded": int(stats.get("nodes_expanded", 0) or 0),
        "depth": depth,
        "peak_rss_bytes": peak_rss_bytes(),
        "ts": time.time(),
    }
    if telemetry.run_id is not None:
        payload["run_id"] = telemetry.run_id
    telemetry.sink.emit(payload)


def _run_mode2_root(payload) -> Tuple[int, bool, Optional[MappingResult],
                                      Dict, Optional[str],
                                      Optional[List[Dict]]]:
    """Pool worker: exact mode-1 search of one fan-out root mapping.

    Returns ``(index, ok, result, stats, budget_reason, trace_records)``;
    an exhausted queue (``budget_reason == "exhausted"``) is the *benign*
    outcome of a root whose optimum cannot beat the shared incumbent.
    ``trace_records`` streams the root's expansion-level trace chunk back
    when the coordinator requested one (None otherwise).
    """
    mapper, circuit, mapping, index, trace_spec, fleet_spec, submitted_ts = (
        payload
    )
    fleet = _worker_telemetry(fleet_spec)
    queue_wait = (
        time.time() - submitted_ts if submitted_ts is not None else None
    )
    mapper.shared_incumbent = _SHARED_BOUND
    telemetry, recorder = _worker_trace_telemetry(trace_spec)
    if telemetry is not None:
        mapper.telemetry = telemetry
    start = time.perf_counter()
    try:
        result = mapper.map(circuit, initial_mapping=list(mapping))
    except SearchBudgetExceeded as exc:
        stats = dict(exc.partial_stats)
        _emit_root_task(fleet, index, False, stats,
                        time.perf_counter() - start, queue_wait, None)
        return (index, False, None, stats,
                stats.get(STAT_BUDGET_REASON, "unknown"),
                recorder.drain() if recorder is not None else None)
    _emit_root_task(fleet, index, True, dict(result.stats),
                    time.perf_counter() - start, queue_wait, result.depth)
    return (index, True, result, dict(result.stats), None,
            recorder.drain() if recorder is not None else None)


def map_mode2_fanout(
    mapper,
    circuit: Circuit,
    max_workers: Optional[int] = None,
) -> MappingResult:
    """Mode 2 as a parallel fan-out over deduplicated prefix-root mappings.

    Enumerates every initial mapping the free-SWAP prefix of Section 5.3
    can reach (:func:`repro.core.astar.enumerate_mode2_mappings`), seeds
    one heuristic incumbent, then searches each mapping as an independent
    mode-1 problem — across a process pool when ``max_workers > 1``,
    sequentially in-process otherwise.  Workers share the best incumbent
    depth through a :class:`SharedBound`, so a good early root prunes all
    the others.  The minimum depth over all roots is exactly the serial
    mode-2 optimum (each root search is itself exact, and the root set
    is a superset of what the serial prefix expansion reaches).

    Budget semantics: ``mapper.max_nodes`` / ``max_seconds`` apply as a
    *cumulative* budget over roots on the sequential path and per root on
    the pool path.  When the budget trips before every root is resolved,
    the raised :class:`SearchBudgetExceeded` carries ``partial_stats``
    aggregated across all roots searched so far.  An expired anytime
    ``deadline`` instead returns the best schedule known with
    ``optimal=False``.

    Returns:
        The time-optimal :class:`MappingResult`; its ``stats`` aggregate
        node/heuristic counters over every root search and record
        ``mode2_roots`` / ``mode2_workers``.
    """
    from ..core.astar import enumerate_mode2_mappings
    from ..core.heuristic_mapper import incumbent_result
    from ..core.kernels import resolve_backend
    from ..core.problem import MappingProblem

    # The coordinator keeps any live telemetry for itself (progress
    # events, coordinator-side trace records); workers never carry it
    # across the process boundary — a traced run ships a picklable
    # TraceSpec instead and workers stream their chunks back.
    tele = resolve(getattr(mapper, "telemetry", None))
    trace = tele.search_trace if tele.enabled else None
    trace_spec = trace.spec() if trace is not None else None
    # Fleet telemetry rides the same attribute convention: the CLI (or
    # any caller) sets ``mapper.telemetry_spec`` and every fan-out worker
    # writes its own shard; ``conclude`` merges them into the rollup.
    fleet_spec: Optional[TelemetrySpec] = getattr(
        mapper, "telemetry_spec", None
    )

    start = time.perf_counter()
    if hasattr(mapper, "_problem"):
        problem = mapper._problem(circuit)  # warm-cache aware
    else:
        problem = MappingProblem(circuit, mapper.coupling, mapper.latency)
    sym_counters: Dict[str, int] = {}
    mappings = enumerate_mode2_mappings(
        problem,
        try_swap_free_fast_path=mapper.try_swap_free_fast_path,
        reduce_symmetry=getattr(mapper, "reduce_symmetry", True),
        counters=sym_counters,
    )
    if trace is not None and sym_counters.get("symmetry_pruned"):
        # Orbit-mates dropped during root enumeration — the fan-out's
        # analogue of the serial prefix quotient.
        trace.prune(PRUNE_SYMMETRY, count=sym_counters["symmetry_pruned"])
    root_restricted = 0
    if getattr(mapper, "root_restriction", False):
        # Burgholzer-style candidate restriction (repro.core.bounds): a
        # root placing no dependency-free pair on an edge cannot begin an
        # optimal schedule.  The enumeration above already covers every
        # prefix-reachable mapping, so dropping a root here loses nothing
        # the serial search's kept-prefix expansion would have found.
        from ..core.bounds import root_mapping_allowed, root_restriction_pairs
        pairs = root_restriction_pairs(problem)
        if pairs is not None:
            kept = [m for m in mappings
                    if root_mapping_allowed(problem, m, pairs)]
            if kept:  # all-restricted would leave nothing to certify with
                root_restricted = len(mappings) - len(kept)
                mappings = kept
            if root_restricted and trace is not None:
                trace.prune(PRUNE_ROOT_RESTRICTION, count=root_restricted)
    workers = _default_workers() if max_workers is None else max_workers
    workers = max(1, min(workers, len(mappings)))
    _write_fleet_meta(fleet_spec, total_tasks=len(mappings),
                      workers=workers, scheduler="fanout")

    shared = SharedBound()
    incumbent: Optional[MappingResult] = None
    if mapper.seed_incumbent:
        incumbent = incumbent_result(mapper.coupling, mapper.latency, circuit)
        if incumbent is not None:
            shared.offer(incumbent.depth)
            if trace is not None:
                trace.incumbent(incumbent.depth, INCUMBENT_SEED)

    totals: Dict[str, int] = {key: 0 for key in _FANOUT_SUM_KEYS}
    totals["symmetry_pruned"] = sym_counters.get("symmetry_pruned", 0)
    totals["root_candidates_restricted"] = root_restricted
    roots_searched = 0

    def accumulate(stats: Dict) -> None:
        for key in _FANOUT_SUM_KEYS:
            value = stats.get(key)
            if value is not None:
                totals[key] += int(value)

    def aggregate_stats(**extra) -> Dict[str, float]:
        counters = {
            k: v for k, v in totals.items()
            if k not in ("nodes_expanded", "nodes_generated",
                         "filtered_equivalent", "filtered_dominated")
        }
        return base_stats(
            MAPPER_TOQM_OPTIMAL,
            nodes_expanded=totals["nodes_expanded"],
            nodes_generated=totals["nodes_generated"],
            filtered_equivalent=totals["filtered_equivalent"],
            filtered_dominated=totals["filtered_dominated"],
            seconds=time.perf_counter() - start,
            **counters,
            **{STAT_MODE2_ROOTS: len(mappings),
               "mode2_roots_searched": roots_searched,
               "mode2_workers": workers,
               STAT_KERNEL_BACKEND: resolve_backend(
                   getattr(mapper, "kernel", None)
               ).name},
            **extra,
        )

    outcomes: List[Tuple[int, bool, Optional[MappingResult], Dict,
                         Optional[str], Optional[List[Dict]]]] = []

    def absorb(outcome) -> None:
        """Record one root outcome: stats totals + its trace chunk."""
        nonlocal roots_searched
        outcomes.append(outcome)
        roots_searched += 1
        accumulate(outcome[3])
        if trace is not None and outcome[5]:
            for record in outcome[5]:
                tagged = dict(record)
                tagged["root"] = outcome[0]
                trace.emit_raw(tagged)

    if workers <= 1:
        remaining_nodes = mapper.max_nodes
        for index, mapping in enumerate(mappings):
            worker = _worker_mapper(mapper)
            worker.shared_incumbent = shared
            if remaining_nodes is not None:
                worker.max_nodes = max(0, remaining_nodes)
            if mapper.max_seconds is not None:
                worker.max_seconds = mapper.max_seconds - (
                    time.perf_counter() - start
                )
            outcome = _run_mode2_root_inproc(
                worker, circuit, mapping, index, trace_spec, fleet_spec,
            )
            absorb(outcome)
            if remaining_nodes is not None:
                remaining_nodes -= int(outcome[3].get("nodes_expanded", 0))
            reason = outcome[4]
            if reason is not None and reason != "exhausted":
                break  # genuine budget trip: stop burning the budget
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_mode2_worker,
            initargs=(shared,),
        ) as pool:
            template = _worker_mapper(mapper)
            # Never ship a warm-cache context through the pool pickle —
            # it drags every retained problem across the boundary; the
            # workers rebuild problems locally instead.
            if getattr(template, "arch_context", None) is not None:
                template.arch_context = None
            submitted_ts = time.time()
            futures = [
                pool.submit(
                    _run_mode2_root,
                    (template, circuit, mapping, index, trace_spec,
                     fleet_spec, submitted_ts),
                )
                for index, mapping in enumerate(mappings)
            ]
            for index, future in enumerate(futures):
                try:
                    outcome = future.result()
                except Exception as exc:  # noqa: BLE001 - dead worker
                    outcome = (
                        index, False, None, {},
                        f"worker failed: {type(exc).__name__}: {exc}",
                        None,
                    )
                absorb(outcome)

    best: Optional[Tuple[int, MappingResult]] = None
    failures = [
        (outcome[0], outcome[4])
        for outcome in outcomes
        if not outcome[1] and outcome[4] != "exhausted"
    ]
    for outcome in outcomes:
        index, ok, result = outcome[0], outcome[1], outcome[2]
        if ok and (best is None or result.depth < best[1].depth):
            best = (index, result)

    def conclude(stats: Dict, winning_root: int, depth: Optional[int]) -> None:
        """Final coordinator telemetry: the parallel fan-out previously
        ended without any terminal ``phase="done"`` progress event, so
        subscribers could not tell a finished run from a stalled one.
        Emit it here with the aggregated counters and the winning root,
        and close the trace with the authoritative cross-root summary."""
        if tele.enabled:
            tele.publish_progress(SearchProgressEvent(
                mapper=MAPPER_TOQM_OPTIMAL,
                phase="done",
                nodes_expanded=int(stats.get("nodes_expanded", 0)),
                nodes_generated=int(stats.get("nodes_generated", 0)),
                heap_size=0,
                best_f=depth if depth is not None else -1,
                elapsed_seconds=time.perf_counter() - start,
                extra={
                    "winning_root": winning_root,
                    "mode2_roots": len(mappings),
                    "mode2_roots_searched": roots_searched,
                },
            ))
        if trace is not None:
            trace.summary(stats, scope="aggregate")
        _write_rollup(fleet_spec)

    if not failures:
        if best is not None:
            depth = best[1].depth
            stats = aggregate_stats(**{STAT_INCUMBENT_DEPTH: depth})
            conclude(stats, winning_root=best[0], depth=depth)
            return dataclasses.replace(best[1], optimal=True, stats=stats)
        if incumbent is not None:
            # Every root exhausted against the seed bound: the heuristic
            # schedule is proven time-optimal for mode 2.
            stats = aggregate_stats(
                **{STAT_INCUMBENT_DEPTH: incumbent.depth}
            )
            conclude(stats, winning_root=-1, depth=incumbent.depth)
            return dataclasses.replace(
                incumbent, optimal=True, stats=stats
            )
        stats = aggregate_stats(**{STAT_BUDGET_REASON: "exhausted"})
        conclude(stats, winning_root=-1, depth=None)
        raise SearchBudgetExceeded(
            "mode-2 fan-out found no schedule and had no incumbent",
            partial_stats=stats,
        )

    if all(reason == "deadline" for _i, reason in failures):
        # Anytime semantics: hand back the best schedule known.
        anytime = best[1] if best is not None else incumbent
        if anytime is not None:
            stats = aggregate_stats(**{
                STAT_BUDGET_REASON: "deadline",
                STAT_INCUMBENT_DEPTH: anytime.depth,
            })
            conclude(
                stats,
                winning_root=best[0] if best is not None else -1,
                depth=anytime.depth,
            )
            return dataclasses.replace(
                anytime, optimal=False, stats=stats
            )
    reasons = sorted({str(reason) for _i, reason in failures})
    stats = aggregate_stats(
        **{STAT_BUDGET_REASON: reasons[0] if len(reasons) == 1
           else "mixed"}
    )
    conclude(stats, winning_root=-1, depth=None)
    raise SearchBudgetExceeded(
        f"mode-2 fan-out budget exceeded on {len(failures)} of "
        f"{roots_searched} roots searched ({', '.join(reasons)})",
        partial_stats=stats,
    )


def _run_mode2_root_inproc(
    worker, circuit: Circuit, mapping, index: int,
    trace_spec: Optional[TraceSpec] = None,
    fleet_spec: Optional[TelemetrySpec] = None,
) -> Tuple[int, bool, Optional[MappingResult], Dict, Optional[str],
           Optional[List[Dict]]]:
    """Sequential-path twin of :func:`_run_mode2_root` (no global handle)."""
    fleet = _worker_telemetry(fleet_spec)
    telemetry, recorder = _worker_trace_telemetry(trace_spec)
    if telemetry is not None:
        worker.telemetry = telemetry
    start = time.perf_counter()
    try:
        result = worker.map(circuit, initial_mapping=list(mapping))
    except SearchBudgetExceeded as exc:
        stats = dict(exc.partial_stats)
        _emit_root_task(fleet, index, False, stats,
                        time.perf_counter() - start, None, None)
        return (index, False, None, stats,
                stats.get(STAT_BUDGET_REASON, "unknown"),
                recorder.drain() if recorder is not None else None)
    _emit_root_task(fleet, index, True, dict(result.stats),
                    time.perf_counter() - start, None, result.depth)
    return (index, True, result, dict(result.stats), None,
            recorder.drain() if recorder is not None else None)


def summarize(records: Sequence[BatchRecord]) -> Dict[str, float]:
    """Aggregate counters over a batch (for logs and JSON reports)."""
    done = [r for r in records if r.ok]
    return {
        "tasks": len(records),
        "succeeded": len(done),
        "failed": len(records) - len(done),
        "total_seconds": sum(r.seconds for r in records),
        "total_nodes_expanded": sum(
            int(r.stats.get("nodes_expanded", 0)) for r in records
        ),
    }
