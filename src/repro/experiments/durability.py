"""Crash-safe, self-healing parallel experiment runner.

``python -m repro bench --parallel N`` routes through this module: instead
of a fire-and-forget ``multiprocessing.Pool``, jobs run under a *supervised
worker pool* in the shape of a preemption-tolerant training-job harness:

- **heartbeats** — each worker touches a per-job heartbeat file on a
  background thread; a worker that stops beating (OOM-frozen, stalled I/O)
  is killed and its job retried;
- **wall-clock timeouts** — a job exceeding ``job_timeout`` seconds is
  killed and retried;
- **retries with exponential backoff** — :class:`BenchRetryPolicy` mirrors
  the shape of :class:`repro.simulation.migration.RetryPolicy`: capped
  doubling backoff per consecutive failure;
- **poison-job quarantine** — a job failing ``max_attempts`` times is
  quarantined (reported failed, never blocks the rest of the suite);
- **crash-safe journal** — every lifecycle transition is appended to
  ``journal.jsonl`` (a :class:`repro.durable.Journal`) as a typed event,
  so a SIGKILL of the *supervisor* loses at most the in-flight jobs'
  progress.  A torn final line (crash mid-append) is truncated, not fatal;
- **resume** — ``python -m repro bench --resume <run-dir>`` re-executes
  only jobs without a verified result (journal says finished *and* the
  on-disk table matches the recorded content hash) and re-aggregates a
  byte-identical ``BENCH_results.json``;
- **chaos mode** — ``--chaos kill-worker:p=0.2,stall:p=0.1`` makes workers
  kill themselves or stop heartbeating with *deterministic* per-(job,
  attempt) draws, so CI exercises the recovery path reproducibly.

Recovery actions are emitted as typed telemetry events
(:class:`~repro.telemetry.BenchJobRetried`,
:class:`~repro.telemetry.BenchJobQuarantined`,
:class:`~repro.telemetry.BenchJobInterrupted`,
:class:`~repro.telemetry.RunResumed`) and counted in the ambient metrics
registry (``bench_jobs_retried_total``, ``bench_jobs_quarantined_total``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import signal
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import multiprocessing

from repro.durable import Journal, atomic_write, canonical, read_journal
from repro.perf.bench import (
    BenchJobResult,
    _execute_job,
    _ProgressStream,
    aggregate_results,
    iter_job_names,
    job_seed,
)
from repro.telemetry import (
    BenchJobFinished,
    BenchJobInterrupted,
    BenchJobQuarantined,
    BenchJobRetried,
    BenchJobStarted,
    BenchRunStarted,
    RunResumed,
    TelemetryEvent,
    event_from_dict,
    resolve,
)
from repro.utils.validation import check_integer

logger = logging.getLogger(__name__)

__all__ = [
    "BenchRetryPolicy",
    "ChaosConfig",
    "DurableRunReport",
    "JobJournal",
    "run_durable_bench",
]

JOURNAL_NAME = "journal.jsonl"
WORK_DIR_NAME = ".work"


# --------------------------------------------------------------------- #
# policies
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BenchRetryPolicy:
    """Backoff/quarantine knobs for failure-prone bench jobs.

    The wall-clock twin of
    :class:`repro.simulation.migration.RetryPolicy`: capped exponential
    backoff per consecutive failure, with a hard attempt ceiling after
    which the job is quarantined as poison.
    """

    base_backoff_seconds: float = 0.5
    max_backoff_seconds: float = 8.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.base_backoff_seconds < 0:
            raise ValueError(
                f"base_backoff_seconds must be >= 0, "
                f"got {self.base_backoff_seconds}")
        if self.max_backoff_seconds < self.base_backoff_seconds:
            raise ValueError(
                "max_backoff_seconds must be >= base_backoff_seconds")
        check_integer(self.max_attempts, "max_attempts", minimum=1)

    def backoff(self, consecutive_failures: int) -> float:
        """Backoff (seconds) after the n-th consecutive failure (capped)."""
        return min(self.max_backoff_seconds,
                   self.base_backoff_seconds
                   * 2 ** (consecutive_failures - 1))


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic fault injection for the worker pool.

    Parsed from specs like ``kill-worker:p=0.2,stall:p=0.1``.  Draws are a
    pure function of ``(seed, job, attempt, mode)`` (CRC-32 hashed into
    [0, 1)), so a chaos run is bit-reproducible: the same jobs die on the
    same attempts every time — which is what lets CI assert recovery.
    """

    kill_worker_p: float = 0.0
    stall_p: float = 0.0
    seed: int = 0

    MODES = ("kill-worker", "stall", "timeout")

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "ChaosConfig":
        """Parse ``mode:p=0.2,mode:p=0.1`` (``timeout`` aliases ``stall``)."""
        kill_p = stall_p = 0.0
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            mode, _, prob = part.partition(":")
            mode = mode.strip()
            if mode not in cls.MODES:
                raise ValueError(
                    f"unknown chaos mode {mode!r} "
                    f"(expected one of {', '.join(cls.MODES)})")
            if not prob.startswith("p="):
                raise ValueError(
                    f"chaos mode {mode!r} needs a probability, e.g. "
                    f"'{mode}:p=0.2', got {part!r}")
            try:
                p = float(prob[2:])
            except ValueError:
                raise ValueError(
                    f"invalid chaos probability in {part!r}") from None
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"chaos probability must be in [0, 1], got {p}")
            if mode == "kill-worker":
                kill_p = p
            else:
                stall_p = p
        return cls(kill_worker_p=kill_p, stall_p=stall_p, seed=seed)

    def spec(self) -> str:
        """Round-trippable textual form (empty when chaos is off)."""
        parts = []
        if self.kill_worker_p:
            parts.append(f"kill-worker:p={self.kill_worker_p:g}")
        if self.stall_p:
            parts.append(f"stall:p={self.stall_p:g}")
        return ",".join(parts)

    def draw(self, job: str, attempt: int, mode: str) -> bool:
        """Deterministic chaos draw for one (job, attempt, mode)."""
        p = self.kill_worker_p if mode == "kill-worker" else self.stall_p
        if p <= 0.0:
            return False
        u = zlib.crc32(f"{self.seed}:{job}:{attempt}:{mode}".encode()) / 2**32
        return u < p


# --------------------------------------------------------------------- #
# the journal
# --------------------------------------------------------------------- #
class JobJournal(Journal):
    """Typed telemetry events on a :class:`repro.durable.Journal`.

    Every append is fsync'd before returning: after a crash at any
    instant, the journal holds every acknowledged event plus at most one
    torn trailing line, which opening truncates and :meth:`read` counts.
    Garbage followed by valid events raises ``ValueError`` naming the line.
    """

    def __init__(self, path: str | os.PathLike):
        super().__init__(path, event_from_dict)

    def append(self, event: TelemetryEvent) -> None:
        """Durably append one event (write + fsync)."""
        super().append(event.to_dict())

    @staticmethod
    def read(path: str | os.PathLike) -> tuple[list[TelemetryEvent], int]:
        """Read a journal without writing: ``(events, torn_tail_lines)``."""
        _, events, _, torn = read_journal(path, event_from_dict)
        return events, torn


# --------------------------------------------------------------------- #
# the worker side
# --------------------------------------------------------------------- #
def _worker_entry(name: str, seed: int | None, attempt: int,
                  chaos: ChaosConfig | None, workdir: str,
                  heartbeat_interval: float) -> None:
    """Worker process body: beat, maybe inject chaos, run, write result.

    The result file is written atomically (``atomic_write``) so the
    supervisor never reads a torn payload; a worker that dies before the
    rename simply leaves no result, which the supervisor treats as a
    crash.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # supervisor drains us
    hb_path = Path(workdir) / f"hb_{name}_{attempt}"
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            hb_path.touch()
            stop.wait(heartbeat_interval)

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    if chaos is not None and chaos.draw(name, attempt, "kill-worker"):
        os._exit(137)  # simulated OOM-kill / preemption
    if chaos is not None and chaos.draw(name, attempt, "stall"):
        stop.set()  # stop beating: the supervisor must notice and kill us
        time.sleep(3600)
    payload = _execute_job((name, seed))
    atomic_write(Path(workdir) / f"res_{name}_{attempt}.json",
                 canonical(payload))
    stop.set()


# --------------------------------------------------------------------- #
# the supervisor
# --------------------------------------------------------------------- #
@dataclass
class _Active:
    """One in-flight job."""

    proc: multiprocessing.process.BaseProcess
    name: str
    seed: int | None
    attempt: int
    started: float
    deadline: float
    hb_path: Path
    res_path: Path


@dataclass
class DurableRunReport:
    """What a durable bench run accomplished."""

    results: list[BenchJobResult]
    run_dir: Path
    interrupted: bool = False
    resumed: bool = False
    retried: int = 0
    quarantined: list[str] = field(default_factory=list)
    #: jobs restored from the journal instead of re-executed
    restored: list[str] = field(default_factory=list)


def _load_completed(run_dir: Path) -> tuple[dict[str, BenchJobResult],
                                            str, int | None, int]:
    """Recover verified results + run config from a run directory.

    A job counts as completed only when the journal says it finished OK
    *and* its on-disk table hashes to the recorded ``rows_sha256`` — a
    crash between the journal append and the table write (or a truncated
    table) demotes the job back to pending.

    Returns ``(completed, pattern, base_seed, skipped_journal_lines)``.
    """
    journal_path = run_dir / JOURNAL_NAME
    if not journal_path.exists():
        raise FileNotFoundError(
            f"{run_dir} has no {JOURNAL_NAME}; nothing to resume")
    events, skipped = JobJournal.read(journal_path)
    pattern, base_seed = "*", None
    for ev in events:
        if ev.kind == "bench_run_started":
            pattern = ev.pattern
            base_seed = None if ev.base_seed < 0 else ev.base_seed
            break
    completed: dict[str, BenchJobResult] = {}
    for ev in events:
        if ev.kind != "bench_job_finished" or not ev.ok:
            continue
        table = run_dir / f"{ev.job}.txt"
        if not table.exists():
            continue
        text = table.read_text()
        if text.endswith("\n"):
            text = text[:-1]
        if hashlib.sha256(text.encode()).hexdigest() != ev.rows_sha256:
            logger.warning(
                "resume: table %s does not match its journalled hash; "
                "re-running %s", table, ev.job)
            continue
        completed[ev.job] = BenchJobResult(
            name=ev.job, seed=None if ev.seed < 0 else ev.seed,
            seconds=ev.seconds, ok=True, error="", text=text,
            rows_sha256=ev.rows_sha256,
        )
    return completed, pattern, base_seed, skipped


def run_durable_bench(
    pattern: str = "*",
    *,
    parallel: int = 2,
    output_dir: Path | str,
    base_seed: int | None = None,
    retry: BenchRetryPolicy | None = None,
    job_timeout: float = 900.0,
    heartbeat_timeout: float = 15.0,
    heartbeat_interval: float = 0.25,
    poll_interval: float = 0.05,
    chaos: ChaosConfig | None = None,
    resume: bool = False,
    progress_path: Path | str | None = None,
    on_event: Callable[[TelemetryEvent], None] | None = None,
    install_signal_handlers: bool = False,
) -> DurableRunReport:
    """Run the bench suite under the supervised, journaled worker pool.

    Parameters
    ----------
    pattern, base_seed:
        As in :func:`repro.perf.bench.run_bench`; ignored when resuming
        (the journal's recorded run config wins).
    parallel:
        Worker processes (>= 1; every job runs in a worker even at 1, so
        the supervision/chaos path is identical).
    output_dir:
        The run directory: per-job tables, ``BENCH_results.json`` /
        ``BENCH_timings.json``, the journal, and worker scratch space.
    retry:
        :class:`BenchRetryPolicy`; default retries a job 3 times with
        0.5 s → 1 s capped-doubling backoff before quarantining it.
    job_timeout, heartbeat_timeout:
        Per-attempt wall-clock ceiling, and how long a worker may go
        without touching its heartbeat file before being declared hung.
    chaos:
        Optional :class:`ChaosConfig` fault injection (CI's recovery
        drill).
    resume:
        Treat ``output_dir`` as an interrupted run: verified-complete jobs
        are restored from the journal, everything else re-executes.
    install_signal_handlers:
        CLI mode: first SIGINT/SIGTERM drains gracefully (workers
        terminated, in-flight jobs journalled ``interrupted``, journal
        flushed), a second force-exits with code 130.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    retry = retry if retry is not None else BenchRetryPolicy()
    run_dir = Path(output_dir)
    report = DurableRunReport(results=[], run_dir=run_dir, resumed=resume)

    completed: dict[str, BenchJobResult] = {}
    skipped_lines = 0
    if resume:
        completed, pattern, base_seed, skipped_lines = _load_completed(run_dir)
        report.restored = sorted(completed)

    names = iter_job_names(pattern)
    if not names:
        raise ValueError(f"no experiment matches filter {pattern!r}")
    run_dir.mkdir(parents=True, exist_ok=True)
    workdir = run_dir / WORK_DIR_NAME
    workdir.mkdir(exist_ok=True)

    journal = JobJournal(run_dir / JOURNAL_NAME)
    progress = _ProgressStream(
        Path(progress_path) if progress_path is not None else None, on_event)
    seq = 0

    def publish(event: TelemetryEvent) -> None:
        journal.append(event)
        progress.emit(event)

    tel = resolve(None)
    m_retried = m_quarantined = None
    if tel is not None:
        m_retried = tel.metrics.counter(
            "bench_jobs_retried_total", "bench jobs retried after a failure")
        m_quarantined = tel.metrics.counter(
            "bench_jobs_quarantined_total",
            "bench jobs quarantined as poison")

    remaining = [n for n in names if n not in completed]
    pending: list[tuple[float, str, int | None, int]] = [
        (0.0, name,
         job_seed(base_seed, name) if base_seed is not None else None, 1)
        for name in remaining
    ]
    active: dict[str, _Active] = {}
    results: dict[str, BenchJobResult] = dict(completed)
    failures: dict[str, str] = {}  # job -> last error (for quarantine msg)

    signals_seen = 0
    previous_handlers = {}

    def _on_signal(signum, frame):  # pragma: no cover - signal timing
        nonlocal signals_seen
        signals_seen += 1
        if signals_seen >= 2:
            os._exit(130)

    if install_signal_handlers:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[sig] = signal.signal(sig, _on_signal)

    ctx = multiprocessing.get_context("fork")

    if resume:
        publish(RunResumed(
            time=seq, run_dir=str(run_dir), completed=len(completed),
            remaining=len(remaining), skipped_journal_lines=skipped_lines))
        seq += 1
    publish(BenchRunStarted(
        time=seq, pattern=pattern,
        base_seed=base_seed if base_seed is not None else -1,
        jobs=tuple(remaining), parallel=parallel,
        chaos=chaos.spec() if chaos is not None else ""))
    seq += 1

    def record_success(payload: dict) -> None:
        nonlocal seq
        result = BenchJobResult(**payload)
        results[result.name] = result
        if result.ok:
            atomic_write(run_dir / f"{result.name}.txt",
                         (result.text + "\n").encode())
        publish(BenchJobFinished(
            time=seq, job=result.name, seconds=result.seconds,
            ok=result.ok, error=result.error,
            rows_sha256=result.rows_sha256,
            seed=result.seed if result.seed is not None else -1))
        seq += 1

    def handle_failure(name: str, seed: int | None, attempt: int,
                       error: str) -> None:
        nonlocal seq
        failures[name] = error
        if attempt >= retry.max_attempts:
            report.quarantined.append(name)
            results[name] = BenchJobResult(
                name=name, seed=seed, seconds=0.0, ok=False,
                error=f"quarantined after {attempt} attempts: {error}",
                text="", rows_sha256="")
            publish(BenchJobQuarantined(time=seq, job=name,
                                        attempts=attempt, error=error))
            seq += 1
            if m_quarantined is not None:
                m_quarantined.inc()
            logger.warning("bench job %s quarantined after %d attempts: %s",
                           name, attempt, error)
            return
        backoff = retry.backoff(attempt)
        report.retried += 1
        pending.append((time.monotonic() + backoff, name, seed, attempt + 1))
        publish(BenchJobRetried(time=seq, job=name, attempt=attempt,
                                error=error, backoff_seconds=backoff))
        seq += 1
        if m_retried is not None:
            m_retried.inc()
        logger.warning("bench job %s failed on attempt %d (%s); "
                       "retrying in %.1fs", name, attempt, error, backoff)

    def kill_worker(entry: _Active) -> None:
        if entry.proc.is_alive():
            entry.proc.terminate()
            entry.proc.join(timeout=5.0)
            if entry.proc.is_alive():  # pragma: no cover - stuck in kernel
                entry.proc.kill()
                entry.proc.join(timeout=5.0)

    try:
        while pending or active:
            if signals_seen:
                break
            now = time.monotonic()
            # launch ready jobs into free slots
            pending.sort(key=lambda item: item[0])
            while len(active) < parallel and pending \
                    and pending[0][0] <= now:
                _, name, seed, attempt = pending.pop(0)
                hb_path = workdir / f"hb_{name}_{attempt}"
                res_path = workdir / f"res_{name}_{attempt}.json"
                hb_path.touch()
                proc = ctx.Process(
                    target=_worker_entry,
                    args=(name, seed, attempt, chaos, str(workdir),
                          heartbeat_interval),
                    daemon=True,
                )
                proc.start()
                active[name] = _Active(
                    proc=proc, name=name, seed=seed, attempt=attempt,
                    started=now, deadline=now + job_timeout,
                    hb_path=hb_path, res_path=res_path)
                publish(BenchJobStarted(
                    time=seq, job=name,
                    seed=seed if seed is not None else 0,
                    worker_count=parallel, attempt=attempt))
                seq += 1

            # poll in-flight jobs
            for name in list(active):
                entry = active[name]
                if entry.res_path.exists():
                    entry.proc.join(timeout=5.0)
                    kill_worker(entry)
                    try:
                        payload = json.loads(entry.res_path.read_text())
                    except ValueError:  # pragma: no cover - rename is atomic
                        handle_failure(name, entry.seed, entry.attempt,
                                       "unreadable result payload")
                        del active[name]
                        continue
                    del active[name]
                    if payload["ok"]:
                        record_success(payload)
                    else:
                        handle_failure(name, entry.seed, entry.attempt,
                                       payload["error"])
                    continue
                if not entry.proc.is_alive():
                    code = entry.proc.exitcode
                    del active[name]
                    handle_failure(name, entry.seed, entry.attempt,
                                   f"worker exited with code {code} "
                                   "before reporting a result")
                    continue
                now = time.monotonic()
                try:
                    beat_age = time.time() - entry.hb_path.stat().st_mtime
                except OSError:
                    beat_age = float("inf")
                if now > entry.deadline:
                    kill_worker(entry)
                    del active[name]
                    handle_failure(
                        name, entry.seed, entry.attempt,
                        f"timeout after {job_timeout:.0f}s")
                    continue
                if beat_age > heartbeat_timeout:
                    kill_worker(entry)
                    del active[name]
                    handle_failure(
                        name, entry.seed, entry.attempt,
                        f"heartbeat lost for {beat_age:.1f}s")
                    continue
            if pending or active:
                time.sleep(poll_interval)

        if signals_seen:
            report.interrupted = True
            logger.warning("interrupted: draining %d worker(s), journal "
                           "flushed; resume with --resume %s",
                           len(active), run_dir)
            for name in sorted(active):
                entry = active.pop(name)
                kill_worker(entry)
                publish(BenchJobInterrupted(time=seq, job=name,
                                            attempt=entry.attempt))
                seq += 1
    finally:
        if install_signal_handlers:
            for sig, handler in previous_handlers.items():
                signal.signal(sig, handler)
        progress.close()
        journal.close()

    report.results = [results[n] for n in names if n in results]
    if not report.interrupted:
        aggregate_results(run_dir, report.results, pattern=pattern,
                          parallel=parallel, base_seed=base_seed)
    return report
