"""The parallel experiment runner behind ``python -m repro bench``.

The figure/ablation matrix is embarrassingly parallel: every job is one
registered experiment (a ``fig*`` artifact or an ``ablation_*`` study),
each internally seeded and side-effect free until its table is rendered.
:func:`run_bench` fans the selected jobs across ``multiprocessing``
workers, streams per-job progress events
(:class:`~repro.telemetry.BenchJobStarted` /
:class:`~repro.telemetry.BenchJobFinished`) onto the ambient telemetry bus
and an optional JSONL file, and aggregates the rendered tables under a
results directory (``benchmarks/results/`` by convention).

Determinism contract: with ``parallel=1`` jobs execute serially in sorted
name order through *exactly* the same code path; with ``parallel=N`` the
same jobs run in worker processes and only wall-clock changes — the
rendered tables and ``BENCH_results.json`` (per-job seeds, outcomes, and
content hashes; wall-clock lives in the separate ``BENCH_timings.json``)
are byte-identical, which the CI ``bench-smoke`` and ``chaos-smoke`` jobs
assert by diffing runs.

Per-job seeds: every job derives a stable seed from ``(base_seed, name)``
(CRC-32 — cheap, deterministic, platform-independent).  With the default
``base_seed=None`` each experiment runs with its own published seed, so
``bench`` output matches ``python -m repro run`` byte for byte; passing
``--seed`` re-seeds the figure experiments for seed-sensitivity sweeps.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import multiprocessing
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from repro.telemetry import (
    BenchJobFinished,
    BenchJobStarted,
    TelemetryEvent,
    resolve,
)

#: canonical aggregation directory (mirrors the pytest benchmark harness)
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"


@dataclass(frozen=True)
class BenchJobResult:
    """Outcome of one benchmark job."""

    name: str
    seed: int | None
    seconds: float
    ok: bool
    error: str
    text: str
    rows_sha256: str

    def summary_dict(self) -> dict:
        """JSON-safe summary without the (possibly large) rendered table."""
        d = asdict(self)
        d.pop("text")
        return d


def iter_job_names(pattern: str = "*") -> list[str]:
    """Registered experiment ids matching ``pattern``, sorted."""
    from repro.experiments.runner import EXPERIMENTS

    return sorted(n for n in EXPERIMENTS if fnmatch.fnmatch(n, pattern))


def job_seed(base_seed: int, name: str) -> int:
    """Stable per-job seed derived from the base seed and the job name."""
    return zlib.crc32(f"{base_seed}:{name}".encode())


def _seeded_runners() -> dict[str, Callable]:
    """Figure experiments that accept an explicit ``seed`` kwarg."""
    from repro.experiments.fig5_packing import run_fig5
    from repro.experiments.fig6_cvr import run_fig6
    from repro.experiments.fig7_cost import run_fig7
    from repro.experiments.fig8_trace import run_fig8
    from repro.experiments.fig9_migration import run_fig9
    from repro.experiments.fig10_timeline import run_fig10

    return {"fig5": run_fig5, "fig6": run_fig6, "fig7": run_fig7,
            "fig8": run_fig8, "fig9": run_fig9, "fig10": run_fig10}


def _execute_job(spec: tuple[str, int | None]) -> dict:
    """Run one experiment (in-process or in a worker); never raises.

    Returns a plain dict so the result pickles cheaply across the pool
    boundary.
    """
    name, seed = spec
    from repro.analysis.report import render_result
    from repro.experiments.runner import EXPERIMENTS

    t0 = time.perf_counter()
    try:
        seeded = _seeded_runners()
        if seed is not None and name in seeded:
            result = seeded[name](seed=seed)
        else:
            fn, _ = EXPERIMENTS[name]
            result = fn()
        text = render_result(result)
        ok, error = True, ""
    except Exception as exc:  # worker crash must surface, not hang the pool
        text, ok, error = "", False, f"{type(exc).__name__}: {exc}"
    return {
        "name": name,
        "seed": seed,
        "seconds": time.perf_counter() - t0,
        "ok": ok,
        "error": error,
        "text": text,
        "rows_sha256": hashlib.sha256(text.encode()).hexdigest() if ok else "",
    }


class _ProgressStream:
    """Fans progress events to the ambient bus, a JSONL file, a callback."""

    def __init__(self, progress_path: Path | None,
                 on_event: Callable[[TelemetryEvent], None] | None):
        self._fh = None
        if progress_path is not None:
            progress_path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(progress_path, "w")
        self._on_event = on_event

    def emit(self, event: TelemetryEvent) -> None:
        tel = resolve(None)
        if tel is not None:
            tel.emit(event)
        if self._fh is not None:
            self._fh.write(json.dumps(event.to_dict()) + "\n")
            self._fh.flush()
        if self._on_event is not None:
            self._on_event(event)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def run_bench(
    pattern: str = "*",
    *,
    parallel: int = 1,
    output_dir: Path | str | None = None,
    progress_path: Path | str | None = None,
    base_seed: int | None = None,
    on_event: Callable[[TelemetryEvent], None] | None = None,
) -> list[BenchJobResult]:
    """Run every experiment matching ``pattern``; return results by name.

    Parameters
    ----------
    pattern:
        ``fnmatch`` glob over experiment ids (``fig*``, ``ablation_*`` ...).
    parallel:
        Worker processes.  ``1`` (default) runs serially in-process — the
        identical code path, just without a pool.
    output_dir:
        When given, write ``<name>.txt`` per job plus the
        ``BENCH_results.json`` summary (outcomes, content hashes) and
        ``BENCH_timings.json`` (wall-clock).
    progress_path:
        When given, stream started/finished events to this JSONL file.
    base_seed:
        When given, figure jobs are re-run with per-job seeds derived via
        :func:`job_seed`; ``None`` keeps every experiment's published seed.
    on_event:
        Optional live callback for each progress event (the CLI's printer).
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    names = iter_job_names(pattern)
    if not names:
        raise ValueError(f"no experiment matches filter {pattern!r}")
    specs = [
        (name, job_seed(base_seed, name) if base_seed is not None else None)
        for name in names
    ]
    progress = _ProgressStream(
        Path(progress_path) if progress_path is not None else None, on_event)
    raw: dict[str, dict] = {}
    try:
        for i, (name, seed) in enumerate(specs):
            progress.emit(BenchJobStarted(
                time=i, job=name, seed=seed if seed is not None else 0,
                worker_count=parallel))
        if parallel == 1:
            for spec in specs:
                raw[spec[0]] = payload = _execute_job(spec)
                progress.emit(_finished_event(len(raw) - 1, payload))
        else:
            with multiprocessing.Pool(processes=min(parallel, len(specs))) \
                    as pool:
                for payload in pool.imap_unordered(_execute_job, specs,
                                                   chunksize=1):
                    raw[payload["name"]] = payload
                    progress.emit(_finished_event(len(raw) - 1, payload))
    finally:
        progress.close()
    results = [BenchJobResult(**raw[name]) for name in names]
    if output_dir is not None:
        aggregate_results(Path(output_dir), results, pattern=pattern,
                          parallel=parallel, base_seed=base_seed)
    return results


def _finished_event(order: int, payload: dict) -> BenchJobFinished:
    return BenchJobFinished(
        time=order, job=payload["name"], seconds=payload["seconds"],
        ok=payload["ok"], error=payload["error"],
        rows_sha256=payload["rows_sha256"],
        seed=payload["seed"] if payload["seed"] is not None else -1)


def aggregate_results(output_dir: Path, results: list[BenchJobResult], *,
                      pattern: str, parallel: int,
                      base_seed: int | None) -> None:
    """Persist per-job tables and the run summaries under ``output_dir``.

    ``BENCH_results.json`` holds only run-invariant facts (per-job seed,
    outcome, error, content hash) so any two runs of the same suite — serial
    vs parallel, clean vs chaos-interrupted-then-resumed — produce byte-for-
    byte identical files.  Wall-clock noise goes to ``BENCH_timings.json``.
    """
    output_dir.mkdir(parents=True, exist_ok=True)
    for r in results:
        if r.ok:
            (output_dir / f"{r.name}.txt").write_text(r.text + "\n")
    summary = {
        "pattern": pattern,
        "base_seed": base_seed,
        "jobs": {
            r.name: {"seed": r.seed, "ok": r.ok, "error": r.error,
                     "rows_sha256": r.rows_sha256}
            for r in results
        },
    }
    (output_dir / "BENCH_results.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    timings = {
        "parallel": parallel,
        "jobs": {r.name: r.seconds for r in results},
    }
    (output_dir / "BENCH_timings.json").write_text(
        json.dumps(timings, indent=2, sort_keys=True) + "\n")
