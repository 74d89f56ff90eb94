"""`repro serve` end to end, including the kill -9 chaos drill.

These run the real CLI in subprocesses — the kill drill's ``os._exit(137)``
cannot be simulated in-process.  The CI ``service-smoke`` job runs the
same drill at 1k-arrival scale; this is the fast tier-1 version.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.service.cli import _key_tick
from repro.service.service import PlacementService

SRC = str(Path(__file__).resolve().parent.parent / "src")

BASE = ["--arrivals", "60", "--rate", "3", "--pms", "8", "--seed", "13",
        "--recalibrate-every", "7"]
#: what a resumed run must reproduce byte for byte
DURABLE_FILES = ("state.json", "wal.jsonl", "wal.jsonl.ckpt.json")


def serve(tmp_path, *extra, every=20):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve",
         "--wal", str(tmp_path / "wal.jsonl"), *BASE,
         "--checkpoint-every", str(every), *extra],
        capture_output=True, text=True, env=env, timeout=300)


@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory):
    """Uninterrupted runs by --checkpoint-every: the parity references."""
    runs = {}

    def clean(every=20):
        if every not in runs:
            tmp_path = tmp_path_factory.mktemp(f"clean{every}")
            proc = serve(tmp_path, "--state-out",
                         str(tmp_path / "state.json"), every=every)
            assert proc.returncode == 0, proc.stderr
            runs[every] = proc, tmp_path
        return runs[every]
    return clean


@pytest.fixture(scope="module")
def clean_state(clean_runs):
    """The default run's output and state file."""
    proc, tmp_path = clean_runs()
    return proc, (tmp_path / "state.json").read_bytes()


def test_clean_run_reports_and_writes_state(clean_state):
    proc, state = clean_state
    assert "state fingerprint:" in proc.stdout
    parsed = json.loads(state)
    assert set(parsed) == {"consolidator", "pool", "results", "counters"}


@pytest.mark.parametrize("every", [20, 4])
def test_kill_twice_then_resume_is_byte_identical(tmp_path, clean_runs,
                                                  every):
    """Kill at seq 25 and at 60 (a checkpoint boundary), then resume.  At
    --checkpoint-every 4 the window is 16 of the run's 96 records, so the
    resumes cross many windows."""
    _, reference = clean_runs(every)
    for seq in ("25", "60"):
        proc = serve(tmp_path, "--chaos", "kill", "--chaos-at", seq,
                     every=every)
        assert proc.returncode == 137, proc.stdout + proc.stderr
        assert f"kill -9 at WAL seq {seq}" in proc.stdout
    out = tmp_path / "state.json"
    final = serve(tmp_path, "--state-out", str(out), every=every)
    assert final.returncode == 0, final.stderr
    assert "[recover]" in final.stdout
    for name in DURABLE_FILES:
        assert (tmp_path / name).read_bytes() \
            == (reference / name).read_bytes(), name


def test_resume_refuses_a_wal_whose_newest_key_names_no_tick(tmp_path):
    """Older builds keyed departures ``d-{vm_id}``: such a journal cannot
    say where in the schedule it ends, so the run exits 2."""
    svc = PlacementService([PMSpec(10.0)] * 8, QueuingFFD(rho=0.01, d=8),
                           wal_path=tmp_path / "wal.jsonl")
    svc.submit("a-0-0", VMSpec(p_on=0.1, p_off=0.5, r_base=2.0,
                               r_extra=3.0))
    svc.drain()
    svc.depart("d-0", 0)
    svc.wal.close()
    proc = serve(tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "'d-0' names no schedule tick" in proc.stderr
    # the refused run journaled nothing: the header and the two records
    assert len((tmp_path / "wal.jsonl").read_text().splitlines()) == 3


def test_resume_refuses_a_window_short_of_the_tick_start(tmp_path,
                                                         clean_runs):
    """Killed deeper into a tick than the window reaches (W = 4 at
    --checkpoint-every 1), the tick's first decisions are forgotten, so
    the run exits 2 instead of deciding them again."""
    _, full = clean_runs(0)  # no compaction: the whole journal
    lines = (full / "wal.jsonl").read_text().splitlines()[1:]
    ticks = [_key_tick(json.loads(line)["key"]) for line in lines]
    # the first record past seq 4 whose window of 4 starts in its own
    # tick, so no record of an earlier tick shows where the tick began
    seq = next(i + 1 for i in range(4, len(ticks))
               if ticks[i - 3] == ticks[i])
    killed = serve(tmp_path, "--chaos", "kill", "--chaos-at", str(seq),
                   every=1)
    assert killed.returncode == 137, killed.stdout + killed.stderr
    proc = serve(tmp_path, every=1)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert f"back to the first record of tick {ticks[seq - 1]}" \
        in proc.stderr


def test_corrupt_wal_is_truncated_and_state_preserved(tmp_path, clean_state):
    _, want = clean_state
    first = serve(tmp_path, "--chaos", "corrupt-wal")
    assert first.returncode == 0, first.stderr
    out = tmp_path / "state.json"
    second = serve(tmp_path, "--state-out", str(out))
    assert second.returncode == 0, second.stderr
    assert "1 torn tail lines dropped" in second.stdout
    assert out.read_bytes() == want


def test_stall_degrades_instead_of_failing(tmp_path):
    proc = serve(tmp_path, "--chaos", "stall", "--chaos-at", "10")
    assert proc.returncode == 0, proc.stderr
    staleness = int(proc.stdout.split("solver staleness ")[1].split(";")[0])
    assert staleness >= 1  # served on last-known-good, loudly
