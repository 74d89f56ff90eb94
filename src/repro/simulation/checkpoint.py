"""Durable simulation state: versioned, checksummed checkpoint files.

A checkpoint captures everything a :class:`~repro.simulation.scenario.ScenarioRun`
needs to continue bit-for-bit — all three RNG streams, the datacenter's
ON/OFF and placement state, scheduler backoff/blacklist maps, the monitor's
accumulated series, and failure-injector masks — plus enough *configuration*
to rebuild the component stack from scratch.  The hard guarantee (enforced
by ``tests/test_simulation_checkpoint.py`` across both tick modes):

    run(T)  ==  restore(checkpoint(run(T/2))).run(T/2)

with equality on the full :class:`~repro.simulation.scenario.ScenarioReport`
*and* the telemetry event stream.

On disk a checkpoint is a :class:`repro.durable.Envelope` (format
``repro-checkpoint``, version 1) whose checksum detects truncation and
bit-rot before any state is trusted; a crash mid-write, power loss
included, leaves the old checkpoint or the new one.  Its payload::

    {
      "config":      {...},   # rebuild recipe for the Scenario
      "nonportable": [...],   # config pieces that cannot be serialized
      "state":       {...}    # ScenarioRun.capture_state()
    }

Scenarios configured with *custom* components (a hand-rolled policy,
trigger, cost model, energy model, or an observatory) still checkpoint —
their dynamic state is captured where possible — but cannot be rebuilt from
the file alone; such configs are listed under ``nonportable`` and
:func:`restore_checkpoint` then requires the caller to supply an
identically-configured :class:`~repro.simulation.scenario.Scenario`.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.types import Placement, PMSpec, VMSpec
from repro.durable import Envelope, atomic_write, canonical
from repro.placement.base import Placer
from repro.simulation.costmodel import MigrationCostModel
from repro.simulation.energy import EnergyModel
from repro.simulation.migration import RetryPolicy
from repro.simulation.scenario import Scenario, ScenarioRun
from repro.simulation.topology import Topology
from repro.simulation.triggers import OverflowTrigger, SlidingWindowCVRTrigger
from repro.telemetry import CheckpointWritten, Telemetry, resolve

logger = logging.getLogger(__name__)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointRetention",
    "canonical_state_bytes",
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

_JSON_SCALARS = (bool, int, float, str, type(None))


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, corrupt, or incompatible."""


_ENVELOPE = Envelope(CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                     error=CheckpointError)


# --------------------------------------------------------------------- #
# config serialization
# --------------------------------------------------------------------- #
def _scenario_config(scenario: Scenario) -> tuple[dict, list[str]]:
    """Serialize the scenario's rebuild recipe; list what cannot be.

    Returns ``(config, nonportable)`` where ``nonportable`` names the
    configuration pieces (custom policy/trigger/models, observatory) a
    restore cannot reconstruct from the file alone.
    """
    nonportable: list[str] = []
    config: dict = {
        "vms": [[v.p_on, v.p_off, v.r_base, v.r_extra] for v in scenario.vms],
        "pms": [p.capacity for p in scenario.pms],
        "tick_mode": scenario.tick_mode,
        "migration_failure_probability":
            scenario.migration_failure_probability,
        "interval_seconds": scenario.interval_seconds,
        "start_stationary": scenario.start_stationary,
        "snapshot_every": scenario.snapshot_every,
        "topology": (scenario.topology.domain_of.tolist()
                     if scenario.topology is not None else None),
        "reconsolidation": (dict(scenario.reconsolidation)
                            if scenario.reconsolidation is not None else None),
        "serving": (dict(scenario.serving)
                    if scenario.serving is not None else None),
    }

    fk = scenario.failure_kwargs
    if fk is not None and not all(isinstance(v, _JSON_SCALARS)
                                  for v in fk.values()):
        nonportable.append("failure_kwargs")
        config["failure_kwargs"] = None
    else:
        config["failure_kwargs"] = fk

    rp = scenario.retry_policy
    config["retry_policy"] = (
        [rp.base_backoff_intervals, rp.max_backoff_intervals,
         rp.blacklist_threshold, rp.blacklist_intervals]
        if rp is not None else None
    )

    if scenario.policy is not None:
        nonportable.append("policy")

    trig = scenario.trigger
    if trig is None or type(trig) is OverflowTrigger:
        config["trigger"] = None if trig is None else ["overflow"]
    elif type(trig) is SlidingWindowCVRTrigger:
        config["trigger"] = ["sliding_window", trig.n_pms, trig.rho,
                             trig.window]
    else:
        nonportable.append("trigger")
        config["trigger"] = None

    cm = scenario.cost_model
    if cm is None or type(cm) is MigrationCostModel:
        config["cost_model"] = (
            [cm.bandwidth_units_per_interval, cm.downtime_floor_seconds,
             cm.downtime_per_duration_seconds, cm.cpu_overhead_fraction]
            if cm is not None else None
        )
    else:
        nonportable.append("cost_model")
        config["cost_model"] = None

    em = scenario.energy_model
    if em is None or type(em) is EnergyModel:
        config["energy_model"] = (
            [em.idle_power, em.peak_power] if em is not None else None
        )
    else:
        nonportable.append("energy_model")
        config["energy_model"] = None

    if scenario.observatory is not None:
        nonportable.append("observatory")

    return config, nonportable


class _RestoredPlacer(Placer):
    """Placeholder placer on a rebuilt scenario: the run already has a
    placement, so consolidating again is a bug."""

    name = "restored"

    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        raise CheckpointError(
            "a scenario rebuilt from a checkpoint carries no placer; its "
            "placement was restored from the checkpoint state"
        )


def _build_scenario(config: dict,
                    telemetry: Telemetry | None = None) -> Scenario:
    """Reconstruct a :class:`Scenario` from an embedded config block."""
    vms = [VMSpec(*row) for row in config["vms"]]
    pms = [PMSpec(c) for c in config["pms"]]

    trig_spec = config["trigger"]
    if trig_spec is None:
        trigger = None
    elif trig_spec[0] == "overflow":
        trigger = OverflowTrigger()
    elif trig_spec[0] == "sliding_window":
        trigger = SlidingWindowCVRTrigger(int(trig_spec[1]),
                                          float(trig_spec[2]),
                                          window=int(trig_spec[3]))
    else:  # pragma: no cover - future formats
        raise CheckpointError(f"unknown trigger spec {trig_spec!r}")

    rp = config["retry_policy"]
    cm = config["cost_model"]
    em = config["energy_model"]
    fk = config["failure_kwargs"]
    return Scenario(
        vms, pms,
        placer=_RestoredPlacer(),
        trigger=trigger,
        cost_model=MigrationCostModel(*cm) if cm is not None else None,
        failures=(dict(fk) if fk else fk is not None),
        topology=(Topology(config["topology"])
                  if config["topology"] is not None else None),
        migration_failure_probability=
            config["migration_failure_probability"],
        retry_policy=RetryPolicy(*rp) if rp is not None else None,
        energy_model=EnergyModel(*em) if em is not None else None,
        interval_seconds=config["interval_seconds"],
        start_stationary=config["start_stationary"],
        telemetry=telemetry,
        snapshot_every=config["snapshot_every"],
        tick_mode=config["tick_mode"],
        # .get: checkpoints written before the reconsolidation layer existed
        reconsolidation=config.get("reconsolidation"),
        # .get: checkpoints written before the serving plane existed
        serving=config.get("serving"),
    )


# --------------------------------------------------------------------- #
# file I/O
# --------------------------------------------------------------------- #
def canonical_state_bytes(state: dict) -> bytes:
    """Canonical byte encoding of a ``capture_state`` snapshot.

    Two snapshots are bit-identical exactly when these byte strings are
    equal — the comparison the autopilot's rollback-parity check and the
    CI forced-rollback drill are built on.
    """
    return canonical(state)


def save_checkpoint(run: ScenarioRun, path: str | os.PathLike) -> Path:
    """Snapshot ``run`` to ``path`` atomically; returns the path written.

    Emits a :class:`~repro.telemetry.CheckpointWritten` event (with the
    file's checksum and size) into the run's telemetry context when one is
    attached.
    """
    path = Path(path)
    config, nonportable = _scenario_config(run.scenario)
    digest, size = _ENVELOPE.write(path, {
        "config": config,
        "nonportable": sorted(nonportable),
        "state": run.capture_state(),
    })
    logger.info("checkpoint written: %s at interval %d (%d bytes)",
                path, run.time, size)
    tel = resolve(run.telemetry)
    if tel is not None and tel.events.enabled:
        tel.emit(CheckpointWritten(time=run.time, path=str(path),
                                   sha256=digest, size_bytes=size))
    return path


def load_checkpoint(path: str | os.PathLike) -> dict:
    """Read and verify a checkpoint file; returns the payload dict.

    Raises :class:`CheckpointError` on missing/truncated files, unknown
    format or version, or a checksum mismatch (bit-rot).
    """
    return _ENVELOPE.read(path)


def restore_checkpoint(path: str | os.PathLike, *,
                       scenario: Scenario | None = None,
                       telemetry: Telemetry | None = None) -> ScenarioRun:
    """Rebuild a live :class:`ScenarioRun` from a checkpoint file.

    Parameters
    ----------
    path:
        Checkpoint written by :func:`save_checkpoint`.
    scenario:
        Required when the checkpoint lists non-portable configuration
        (custom policy/trigger/models, observatory): supply a scenario
        configured identically to the one that was snapshotted.  When
        omitted, the scenario is rebuilt from the embedded config.
    telemetry:
        Telemetry context for the resumed run (only used when the scenario
        is rebuilt; a supplied ``scenario`` keeps its own).

    The restored run continues the original's RNG streams, clock, and
    accumulated observations exactly; no placement or resume events are
    re-emitted, so the concatenated event stream of the original segment
    plus the resumed segment is byte-identical to an uninterrupted run.
    """
    payload = load_checkpoint(path)
    state = payload["state"]
    if scenario is None:
        nonportable = payload.get("nonportable", [])
        if nonportable:
            raise CheckpointError(
                f"checkpoint {path} was taken from a scenario with "
                f"non-serializable configuration ({', '.join(nonportable)}); "
                "pass an identically-configured scenario= to restore it"
            )
        scenario = _build_scenario(payload["config"], telemetry=telemetry)
    placement = Placement(
        len(scenario.vms), len(scenario.pms),
        np.array(state["datacenter"]["assignment"], dtype=np.int64),
    )
    # Seed 0 is a placeholder: restore_state overwrites all three streams.
    run = scenario.start(seed=0, _placement=placement)
    try:
        run.restore_state(state)
    except Exception:
        run.close()
        raise
    logger.info("checkpoint restored: %s -> interval %d", path, run.time)
    return run


# --------------------------------------------------------------------- #
# retention
# --------------------------------------------------------------------- #
class CheckpointRetention:
    """Bounded rollback-point store: keep the last ``keep`` checkpoints.

    Long-running control loops (the autopilot, the durable bench runner)
    checkpoint before every replan; without a bound a churning run fills
    the disk.  This policy names files ``ckpt-<seq>-<label>.json`` under
    one directory, tracks them in an fsync'd index file (``index.json``,
    written atomically *before* pruning, so a crash between the two leaves
    extra files but never a dangling index entry), and unlinks
    oldest-first beyond ``keep``.

    Parameters
    ----------
    directory:
        Where checkpoints and the index live (created on first save).
    keep:
        How many most-recent checkpoints to retain; older ones are pruned
        on every save.
    """

    INDEX_NAME = "index.json"

    def __init__(self, directory: str | os.PathLike, *, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self._seq = 0
        self._entries: list[dict] = []
        index = self.directory / self.INDEX_NAME
        if index.exists():
            data = json.loads(index.read_text())
            self._entries = list(data.get("checkpoints", []))
            self._seq = int(data.get("next_seq", len(self._entries)))

    def _write_index(self) -> None:
        atomic_write(self.directory / self.INDEX_NAME, canonical(
            {"next_seq": self._seq, "checkpoints": self._entries}))

    def save(self, run: ScenarioRun, label: str = "rollback") -> Path:
        """Checkpoint ``run``, update the index, prune beyond ``keep``."""
        safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in label)
        name = f"ckpt-{self._seq:06d}-{safe}.json"
        self._seq += 1
        path = save_checkpoint(run, self.directory / name)
        self._entries.append({"file": name, "time": run.time})
        pruned = self._entries[:-self.keep]
        self._entries = self._entries[-self.keep:]
        self._write_index()
        for entry in pruned:
            victim = self.directory / entry["file"]
            try:
                victim.unlink()
            except OSError:  # pragma: no cover - already gone / perms
                logger.warning("could not prune checkpoint %s", victim)
        return path
