"""Persistent run ledger: durable identity + artifacts for every run.

Telemetry so far has been *per-invocation*: spans, traces, fleet shards
and stats land in whatever files the caller named, with nothing tying
them together afterwards.  The ledger gives each ``map`` / ``map-batch``
/ ``corpus`` / ``portfolio`` invocation a durable **run_id**, an
append-only JSONL **index** and a per-run **artifact directory**, so
questions like "how did this circuit map last week?" or "which commit
regressed qft6?" have a recorded answer (the cross-run comparison
machinery the literature justifies its pruning rules with — see
:mod:`repro.analysis.runs` for ``diff`` / ``regressions``).

Layout under the ledger root (``--ledger-dir`` / ``$REPRO_LEDGER_DIR``
/ ``~/.repro/runs``)::

    index.jsonl                  # append-only, one JSON object per line
    <run_id>/                    # artifact directory of one run
        fleet/worker-*.jsonl     # e.g. fleet shards of a map-batch run
        fleet/fleet.json
        ...

Index rows are ``type="run"`` records carrying the run's kind, status,
config + config *fingerprint* (the grouping key for cross-run
regression scans), git SHA, python/cpu info, the final stats snapshot
and pointers to every artifact.  ``type="gc"`` rows record retention
sweeps; pruned runs keep their index rows (history stays diffable) but
lose their artifact directories.

Concurrency: the index is append-only and every row is written with a
single ``write()`` of one line (O_APPEND semantics), so concurrent
writers never interleave mid-record and a reader racing a writer sees
at worst a truncated *tail* — which :func:`repro.obs.sinks.read_jsonl`
tolerates with ``strict=False`` (the default used by :meth:`RunLedger.
entries`).  The run_id doubles as the **correlation ID** threaded
through :class:`~repro.obs.telemetry.Telemetry` /
:class:`~repro.obs.telemetry.TelemetrySpec`, so worker shards, progress
events and fleet rollups all name the run they belong to.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time
import uuid
from typing import Dict, List, Optional

from .sinks import read_jsonl

#: Environment variable naming the default ledger root.
LEDGER_ENV = "REPRO_LEDGER_DIR"

#: Index filename inside the ledger root.
INDEX_NAME = "index.jsonl"

#: Config keys excluded from the fingerprint digest: they describe the
#: invocation, not the work, so two runs of the same problem on
#: different days or output paths must still group together.
_VOLATILE_CONFIG_KEYS = frozenset({
    "argv", "json_out", "metrics_out", "search_trace", "qasm_out",
    "telemetry_dir", "profile_out", "bench_json",
})


def default_ledger_dir() -> str:
    """The configured ledger root: ``$REPRO_LEDGER_DIR`` or ``~/.repro/runs``."""
    env = os.environ.get(LEDGER_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".repro", "runs")


def new_run_id() -> str:
    """A fresh run identifier: UTC timestamp + random suffix.

    Sortable by start time (the timestamp prefix) yet collision-free
    across concurrent processes (the uuid suffix); safe as a directory
    name on every platform.
    """
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def git_sha(short: bool = False) -> str:
    """The checkout's commit SHA, or ``"unknown"`` outside git.

    A ``-dirty`` suffix marks uncommitted changes to tracked files, so a
    number measured on a modified tree is not attributed to its parent
    commit.  Runs in the process's working directory.
    """
    args = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        sha = subprocess.run(
            args, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not sha:
            return "unknown"
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout
    except Exception:  # noqa: BLE001 - not a git checkout / no git binary
        return "unknown"
    return sha + "-dirty" if status.strip() else sha


def host_info() -> Dict:
    """Python/CPU facts recorded per run (perf numbers need context)."""
    import platform

    return {
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def config_fingerprint(config: Dict) -> str:
    """Digest of the *reproducible* part of a run configuration.

    Volatile keys (output paths, raw argv) are dropped before hashing so
    the fingerprint answers "same circuit, same device, same mapper and
    flags?" — the grouping key ``repro runs regressions`` scans by.
    """
    import hashlib

    stable = {
        key: value for key, value in sorted(config.items())
        if key not in _VOLATILE_CONFIG_KEYS
    }
    payload = json.dumps(stable, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class LedgerRun:
    """One in-flight run: its identity, artifact directory and index row.

    Created by :meth:`RunLedger.open_run`; the caller threads
    :attr:`run_id` through telemetry, drops artifacts under
    :meth:`artifact_path`, then calls :meth:`finish` exactly once with
    the outcome.  Nothing is written to the index until ``finish`` —
    a run killed hard leaves only its artifact directory, which a later
    ``runs gc`` sweep removes.
    """

    def __init__(self, ledger: "RunLedger", kind: str, config: Dict,
                 run_id: Optional[str] = None) -> None:
        self.ledger = ledger
        self.kind = kind
        self.config = dict(config)
        self.run_id = run_id or new_run_id()
        self.fingerprint = config_fingerprint(self.config)
        self.started_ts = time.time()
        self._started = time.perf_counter()
        self.artifacts: Dict[str, str] = {}
        self._finished = False

    @property
    def directory(self) -> str:
        """This run's artifact directory (``<root>/<run_id>``)."""
        return os.path.join(self.ledger.root, self.run_id)

    def artifact_path(self, name: str, register: Optional[str] = None) -> str:
        """A path under the artifact directory (created on first use).

        ``register`` also records the path in :attr:`artifacts` under
        that key, so the index row points at it.
        """
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, name)
        if register is not None:
            self.artifacts[register] = path
        return path

    def add_artifact(self, name: str, path: str) -> None:
        """Register an artifact living *outside* the run directory
        (e.g. a user-named ``--metrics-out`` file)."""
        self.artifacts[name] = os.path.abspath(path)

    def finish(
        self,
        status: str = "ok",
        stats: Optional[Dict] = None,
        error: Optional[str] = None,
        extra: Optional[Dict] = None,
    ) -> Dict:
        """Append this run's index row (idempotent) and return it.

        ``status`` is ``"ok"``, ``"budget"`` (a contained
        ``SearchBudgetExceeded``) or ``"error"``.  ``stats`` is the
        final normalized stats snapshot (or aggregated batch totals);
        ``extra`` carries kind-specific headline fields (depth, swaps,
        circuits/min, ...).
        """
        if self._finished:
            return {}
        self._finished = True
        row = {
            "type": "run",
            "run_id": self.run_id,
            "kind": self.kind,
            "status": status,
            "started_ts": round(self.started_ts, 6),
            "wall_s": round(time.perf_counter() - self._started, 6),
            "fingerprint": self.fingerprint,
            "config": self.config,
            "git_sha": git_sha(),
            **host_info(),
            "stats": dict(stats) if stats else {},
            "artifacts": dict(self.artifacts),
        }
        if error is not None:
            row["error"] = str(error)
        if extra:
            row.update(extra)
        self.ledger.append(row)
        return row


class RunLedger:
    """The persistent ledger: append-only index + per-run directories."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = os.path.abspath(root or default_ledger_dir())
        self.index_path = os.path.join(self.root, INDEX_NAME)

    # -- writing -------------------------------------------------------
    def open_run(self, kind: str, config: Dict,
                 run_id: Optional[str] = None) -> LedgerRun:
        """Start recording one run of ``kind`` with ``config``."""
        os.makedirs(self.root, exist_ok=True)
        return LedgerRun(self, kind, config, run_id=run_id)

    def append(self, row: Dict) -> None:
        """Append one index row as a single atomic-append line.

        One ``write()`` call per row in ``"a"`` mode: with POSIX
        O_APPEND semantics concurrent writers (fleet workers, parallel
        CLI invocations) never interleave mid-record, so a racing
        reader sees at worst a truncated final line.
        """
        os.makedirs(self.root, exist_ok=True)
        line = json.dumps(row, default=str) + "\n"
        with open(self.index_path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()

    # -- reading -------------------------------------------------------
    def entries(self, strict: bool = False) -> List[Dict]:
        """Every index row, tolerant of a concurrently-torn tail.

        ``strict=False`` (the default) is load-bearing: ``runs list``
        racing an active fleet run must not blow up on the half-written
        last line — the corrupt-vs-truncated semantics of
        :func:`~repro.obs.sinks.read_jsonl` drop only a torn *tail*
        while still raising on mid-file corruption.
        """
        if not os.path.exists(self.index_path):
            return []
        return read_jsonl(self.index_path, strict=strict)

    def runs(self, kind: Optional[str] = None) -> List[Dict]:
        """All ``type="run"`` rows, oldest first, optionally by kind."""
        rows = [r for r in self.entries() if r.get("type") == "run"]
        if kind is not None:
            rows = [r for r in rows if r.get("kind") == kind]
        return rows

    def get(self, run_id: str) -> Dict:
        """The run row for ``run_id`` (unique prefixes accepted).

        Raises ``KeyError`` with a helpful message for unknown or
        ambiguous identifiers.
        """
        rows = self.runs()
        exact = [r for r in rows if r.get("run_id") == run_id]
        if exact:
            return exact[-1]  # re-recorded id: latest row wins
        matches = [
            r for r in rows if str(r.get("run_id", "")).startswith(run_id)
        ]
        if not matches:
            raise KeyError(f"no run {run_id!r} in {self.index_path}")
        distinct = {r["run_id"] for r in matches}
        if len(distinct) > 1:
            raise KeyError(
                f"run id prefix {run_id!r} is ambiguous: "
                f"{', '.join(sorted(distinct))}"
            )
        return matches[-1]

    def artifact_dir(self, run_id: str) -> str:
        return os.path.join(self.root, run_id)

    # -- retention -----------------------------------------------------
    def gc(self, keep: int) -> List[str]:
        """Remove artifact directories of all but the newest ``keep`` runs.

        Index rows are **never** deleted — the ledger stays an append-only
        history usable by ``runs diff`` / ``regressions`` — only the bulky
        per-run artifact directories go.  Directories under the root that
        match no indexed run (crashed runs that never reached ``finish``)
        are pruned too.  Appends one ``type="gc"`` audit row naming what
        was removed; returns the pruned run ids/directories.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        rows = self.runs()
        order: List[str] = []
        for row in rows:  # oldest first; dedup re-recorded ids
            run_id = row.get("run_id")
            if run_id and run_id not in order:
                order.append(run_id)
        keep_ids = set(order[len(order) - keep:] if keep else [])
        pruned: List[str] = []
        if os.path.isdir(self.root):
            indexed = set(order)
            for name in sorted(os.listdir(self.root)):
                path = os.path.join(self.root, name)
                if not os.path.isdir(path):
                    continue
                if name in keep_ids:
                    continue
                if name not in indexed and not _looks_like_run_dir(name):
                    continue  # never touch foreign directories
                shutil.rmtree(path, ignore_errors=True)
                pruned.append(name)
        if pruned:
            self.append({
                "type": "gc",
                "ts": round(time.time(), 6),
                "keep": keep,
                "pruned": pruned,
            })
        return pruned


def _looks_like_run_dir(name: str) -> bool:
    """Heuristic for unindexed (crashed-run) directories: the
    ``<stamp>-<hex>`` shape :func:`new_run_id` produces."""
    parts = name.split("-")
    if len(parts) != 2:
        return False
    stamp, suffix = parts
    return (
        len(stamp) == 15 and stamp[8] == "T"
        and stamp[:8].isdigit() and stamp[9:].isdigit()
        and len(suffix) == 8
        and all(c in "0123456789abcdef" for c in suffix)
    )
