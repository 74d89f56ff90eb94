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
``repro-checkpoint``, version 2) whose checksum detects truncation and
bit-rot before any state is trusted; a crash mid-write, power loss
included, leaves the old checkpoint or the new one.  Its payload::

    {
      "config":      {...},   # rebuild recipe for the Scenario
      "nonportable": [...],   # config pieces that cannot be serialized
      "state":       {...}    # ScenarioRun.capture_state()
    }

Version 2 stores the large lists of that payload as typed columns of
:mod:`repro.durable` (:data:`_COLUMNS`: the VM specs and PM capacities,
the datacenter's masks, switch probabilities and assignment, the
injector's masks and lists, the monitor's series, counters and migration
history; ints as int16 or int32) and the serving plane's per-VM queue
batches as their :func:`~repro.serving.queue.queue_columns`.  A switch
probability column still equal to its field of the specs is stored as
``{"spec_field": i}``.  A list that would not read back identical -- an
int spec among floats, an int outside int32 -- stays a JSON list.
Version 1 stored the payload as it is.  :func:`load_checkpoint` returns
the version 1 payload from either version; :func:`restore_checkpoint`
hands a version 2 file's columns to ``restore_state`` as arrays.

Scenarios configured with *custom* components (a hand-rolled policy,
trigger, cost model, energy model, or an observatory) still checkpoint —
their dynamic state is captured where possible — but cannot be rebuilt from
the file alone; such configs are listed under ``nonportable`` and
:func:`restore_checkpoint` then requires the caller to supply an
identically-configured :class:`~repro.simulation.scenario.Scenario`, whose
VMs and PMs it checks against the file's.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.types import Placement, PMSpec, VMSpec
from repro.durable import (
    Envelope,
    atomic_write,
    canonical,
    encode_column,
    pack_column,
    unpack_column,
)
from repro.placement.base import Placer
from repro.serving.queue import queue_columns, queue_snapshots
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
CHECKPOINT_VERSION = 2

_JSON_SCALARS = (bool, int, float, str, type(None))


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, corrupt, or incompatible."""


_ENVELOPE = Envelope(CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                     error=CheckpointError, older=(1,))

#: the lists version 2 stores as typed columns, by path in the payload,
#: with the Python type of their values
_COLUMNS = (
    (("config", "vms"), float),
    (("config", "pms"), float),
    *((("state", "datacenter", key), kind) for key, kind in (
        ("on", bool), ("throttled", bool), ("p_on", float), ("p_off", float),
        ("assumed_p_on", float), ("assumed_p_off", float),
        ("assignment", int))),
    *((("state", "monitor", key), int) for key in (
        "pms_used", "migrations_per_interval", "events", "violations",
        "presence", "vm_suffering", "vm_down", "vm_degraded")),
    *((("state", "injector", key), kind) for key, kind in (
        ("failed", bool), ("domain_failed", bool), ("down_since", int),
        ("stranded", int), ("degraded", int))),
    *((("state", "injector", "record", key), int)
      for key in ("blast_radii", "repair_durations")),
)
#: the datacenter's switch probabilities and the ``config.vms`` field each
#: starts as; one that still equals it is stored as ``{"spec_field": i}``
_SPEC_FIELDS = {"p_on": 0, "p_off": 1, "assumed_p_on": 0, "assumed_p_off": 1}
#: the int columns of the serving plane's queues (beside ``max_depth``)
_QUEUE_COLUMNS = ("length", "arrival", "count")


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


def _listed(values):
    """``values`` as lists: an array's ``tolist()``, a list as it is."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _build_scenario(config: dict,
                    telemetry: Telemetry | None = None) -> Scenario:
    """Reconstruct a :class:`Scenario` from an embedded config block."""
    vms = [VMSpec(*row) for row in _listed(config["vms"])]
    pms = [PMSpec(c) for c in _listed(config["pms"])]

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
# the version 2 layout
# --------------------------------------------------------------------- #
def _holder(payload: dict, path: tuple) -> dict | None:
    """The dict at ``path`` in ``payload``, or None where it has none."""
    for key in path:
        payload = payload.get(key) if isinstance(payload, dict) else None
    return payload if isinstance(payload, dict) else None


def _slots(payload: dict):
    """``(holder, key, kind, name)`` of every :data:`_COLUMNS` entry whose
    holder the payload has (a run without failures has no injector)."""
    for path, kind in _COLUMNS:
        holder = _holder(payload, path[:-1])
        if holder is not None:
            yield holder, path[-1], kind, ".".join(path)


def _pack(payload: dict) -> dict:
    """A version 1 payload as version 2 stores it (in place).

    A datacenter switch probability column whose bytes equal its
    :data:`_SPEC_FIELDS` field of the specs -- no drift, no refit -- is
    stored as that field's reference.
    """
    for holder, key, kind, _ in _slots(payload):
        values = holder.get(key)
        column = pack_column(values, kind) if isinstance(values,
                                                         list) else None
        if column is not None:
            holder[key] = column
    specs, dc = payload["config"]["vms"], payload["state"]["datacenter"]
    if isinstance(specs, dict):
        specs = unpack_column(specs, name="config.vms", where="packing",
                              error=CheckpointError)
        for key, field in _SPEC_FIELDS.items():
            column = dc.get(key)
            if (isinstance(column, dict) and column["data"]
                    == encode_column(specs[:, field], "<f8")):
                dc[key] = {"spec_field": field}
    serving = _holder(payload, ("state", "serving"))
    if serving is not None:
        cols = queue_columns(serving["queues"])
        packed = [pack_column(cols[key], int) for key in _QUEUE_COLUMNS]
        if None not in packed:
            serving["queues"] = {"max_depth": cols["max_depth"],
                                 **dict(zip(_QUEUE_COLUMNS, packed))}
    return payload


def _unpack(payload: dict, path) -> dict:
    """A version 2 payload with its columns as read-only arrays (in place).

    Refuses, naming it, a column that is missing, not base64, of an
    unknown dtype or of the wrong byte length for its rows, a spec field
    reference to no ``config.vms`` field, and queue columns whose batch
    counts disagree.
    """
    where = f"checkpoint {path}"

    def unpack(holder: dict, key: str, name: str) -> None:
        if key not in holder:
            raise CheckpointError(f"{where}: column {name} is missing")
        value = holder[key]
        if isinstance(value, dict) and key in _SPEC_FIELDS \
                and "spec_field" in value:
            specs, field = payload["config"]["vms"], value["spec_field"]
            if not (isinstance(specs, np.ndarray) and specs.ndim == 2
                    and type(field) is int and 0 <= field < specs.shape[1]):
                raise CheckpointError(
                    f"{where}: column {name} refers to field {field!r} of "
                    "no config.vms column")
            holder[key] = specs[:, field]
        elif isinstance(value, dict):
            holder[key] = unpack_column(value, name=name, where=where,
                                        error=CheckpointError)

    for holder, key, _, name in _slots(payload):
        unpack(holder, key, name)
    queues = _holder(payload, ("state", "serving", "queues"))
    if queues is not None:
        for key in _QUEUE_COLUMNS:
            unpack(queues, key, f"state.serving.queues.{key}")
        batches = int(np.sum(queues["length"], dtype=np.int64))
        for key in ("arrival", "count"):
            if len(queues[key]) != batches:
                raise CheckpointError(
                    f"{where}: column state.serving.queues.{key} has "
                    f"{len(queues[key])} rows for the {batches} batches "
                    "state.serving.queues.length counts")
    return payload


def _as_v1(payload: dict) -> dict:
    """The version 1 payload an unpacked version 2 one holds (in place)."""
    for holder, key, _, _ in _slots(payload):
        holder[key] = _listed(holder[key])
    serving = _holder(payload, ("state", "serving"))
    if serving is not None and isinstance(serving["queues"], dict):
        serving["queues"] = queue_snapshots(serving["queues"])
    return payload


def _check_instance(config: dict, dc, path) -> None:
    """Refuse a supplied scenario whose VM specs or PM capacities differ
    from the file's, bit for bit as float64.

    ``dc`` is the scenario's freshly built datacenter: its switch
    probabilities are still the specs', so the check reads the arrays it
    already built instead of the specs.
    """
    for what, stored, live in (
            ("VM", config["vms"], np.column_stack(
                (dc._p_on, dc._p_off, dc._r_base, dc._r_extra))),
            ("PM", config["pms"], dc.pm_capacities())):
        stored = np.asarray(stored, dtype=np.float64)
        live = np.asarray(live, dtype=np.float64)
        differ = (stored.view(np.uint64)
                  != live.view(np.uint64)).reshape(len(live), -1).any(axis=1)
        if differ.any():
            i = int(np.argmax(differ))
            raise CheckpointError(
                f"checkpoint {path} does not match the supplied scenario: "
                f"{what} {i} is {stored[i].tolist()} in the file and "
                f"{live[i].tolist()} in the scenario")


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


def checkpoint_payload(run: ScenarioRun) -> dict:
    """``run``'s checkpoint payload as version 1 stores it: the config,
    the non-portable pieces and ``capture_state()``."""
    config, nonportable = _scenario_config(run.scenario)
    return {"config": config, "nonportable": sorted(nonportable),
            "state": run.capture_state()}


def save_checkpoint(run: ScenarioRun, path: str | os.PathLike) -> Path:
    """Snapshot ``run`` to ``path`` atomically; returns the path written.

    Writes format version 2 (module docstring).  Emits a
    :class:`~repro.telemetry.CheckpointWritten` event (with the file's
    checksum and size) into the run's telemetry context when one is
    attached.
    """
    path = Path(path)
    digest, size = _ENVELOPE.write(path, _pack(checkpoint_payload(run)))
    logger.info("checkpoint written: %s at interval %d (%d bytes)",
                path, run.time, size)
    tel = resolve(run.telemetry)
    if tel is not None and tel.events.enabled:
        tel.emit(CheckpointWritten(time=run.time, path=str(path),
                                   sha256=digest, size_bytes=size))
    return path


def load_checkpoint(path: str | os.PathLike) -> dict:
    """Read and verify a checkpoint file; returns the payload dict.

    The payload is the one version 1 stores, from a version 1 or 2 file
    alike: its ``state`` is what ``capture_state()`` returned.  Raises
    :class:`CheckpointError` on missing/truncated files, unknown format or
    version, a checksum mismatch (bit-rot), or a version 2 column that is
    missing or does not decode.
    """
    version, payload = _ENVELOPE.read_versioned(path)
    return payload if version == 1 else _as_v1(_unpack(payload, path))


def restore_checkpoint(path: str | os.PathLike, *,
                       scenario: Scenario | None = None,
                       telemetry: Telemetry | None = None) -> ScenarioRun:
    """Rebuild a live :class:`ScenarioRun` from a checkpoint file.

    Parameters
    ----------
    path:
        Checkpoint written by :func:`save_checkpoint` (version 1 or 2).
    scenario:
        Required when the checkpoint lists non-portable configuration
        (custom policy/trigger/models, observatory): supply a scenario
        configured identically to the one that was snapshotted.  Its VMs
        and PMs must equal the file's, bit for bit, or
        :class:`CheckpointError` names the first that differs.  When
        omitted, the scenario is rebuilt from the embedded config.
    telemetry:
        Telemetry context for the resumed run (only used when the scenario
        is rebuilt; a supplied ``scenario`` keeps its own).

    The restored run continues the original's RNG streams, clock, and
    accumulated observations exactly; no placement or resume events are
    re-emitted, so the concatenated event stream of the original segment
    plus the resumed segment is byte-identical to an uninterrupted run.
    A version 2 file's columns reach ``restore_state`` as arrays, with no
    list or per-migration object built on the way.
    """
    version, payload = _ENVELOPE.read_versioned(path)
    if version != 1:
        _unpack(payload, path)
    config, state = payload["config"], payload["state"]
    supplied = scenario is not None
    if supplied:
        sizes = (len(config["vms"]), len(config["pms"]))
        if sizes != (len(scenario.vms), len(scenario.pms)):
            raise CheckpointError(
                f"checkpoint {path} holds {sizes[0]} VMs and {sizes[1]} PMs "
                f"but the supplied scenario has {len(scenario.vms)} and "
                f"{len(scenario.pms)}")
    else:
        nonportable = payload.get("nonportable", [])
        if nonportable:
            raise CheckpointError(
                f"checkpoint {path} was taken from a scenario with "
                f"non-serializable configuration ({', '.join(nonportable)}); "
                "pass an identically-configured scenario= to restore it"
            )
        scenario = _build_scenario(config, telemetry=telemetry)
    placement = Placement(
        len(scenario.vms), len(scenario.pms),
        np.asarray(state["datacenter"]["assignment"], dtype=np.int64),
    )
    # Seed 0 is a placeholder: restore_state overwrites all three streams.
    run = scenario.start(seed=0, _placement=placement)
    try:
        if supplied:
            _check_instance(config, run.datacenter, path)
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
