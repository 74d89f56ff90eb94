"""Checkpoint/restore: the split-run == straight-run bit-identity guarantee.

The contract under test (see ``repro/simulation/checkpoint.py``)::

    run(T)  ==  restore(checkpoint(run(T/2))).run(T/2)

with equality on the *entire* final mutable state (all three RNG streams,
datacenter, scheduler, monitor, injector), the report summary, and the
telemetry event stream — across randomized configurations and both tick
modes, including snapshots taken mid-migration and mid-failure-window.
A version 2 (columnar) file and the version 1 file of the same state
restore and continue identically, and a scenario supplied to a restore
must hold the file's VMs and PMs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.durable import Envelope
from repro.perf.reference import save_checkpoint_v1
from repro.placement.base import InsufficientCapacityError
from repro.simulation import (
    CheckpointError,
    Scenario,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.simulation.checkpoint import canonical_state_bytes
from repro.simulation.costmodel import CostedScheduler, MigrationCostModel
from repro.simulation.energy import EnergyModel
from repro.simulation.migration import MigrationEvent
from repro.simulation.topology import Topology
from repro.telemetry import RingBufferSink, Telemetry

#: how many random configurations the property sweep covers (per tick mode)
N_RANDOM_CONFIGS = 20


def _PLACER() -> QueuingFFD:
    # rho = 0.4 under-reserves on purpose: overloads (and therefore
    # migrations, retries, blacklists) actually occur during the sweep
    return QueuingFFD(rho=0.4, d=16)


def _random_params(config_seed: int) -> dict:
    """Sample one scenario configuration (deterministic in the seed).

    Capacities are kept tight so overloads, migrations, and failures all
    actually occur — a checkpoint of an idle run proves nothing.
    """
    rng = np.random.default_rng(config_seed)
    n_vms = int(rng.integers(6, 12))
    n_pms = max(2, n_vms // 3)
    vms = [
        VMSpec(
            p_on=float(rng.uniform(0.05, 0.5)),
            p_off=float(rng.uniform(0.1, 0.6)),
            r_base=float(rng.uniform(5.0, 20.0)),
            r_extra=float(rng.uniform(20.0, 70.0)),
        )
        for _ in range(n_vms)
    ]
    # Tight enough for overloads/migrations, loose enough to be placeable:
    # probe multipliers of sum-of-peaks until QueuingFFD accepts the fleet.
    sum_peak = sum(v.r_base + v.r_extra for v in vms)
    pms = None
    for mult in (0.8, 0.9, 1.0, 1.1, 1.25, 1.4, 1.7, 2.0):
        candidate = [PMSpec(float(sum_peak / n_pms * mult))] * n_pms
        try:
            _PLACER().place(vms, candidate)
        except InsufficientCapacityError:
            continue
        pms = candidate
        break
    assert pms is not None, f"config seed {config_seed} never feasible"
    return {
        "vms": vms,
        "pms": pms,
        "failures": {
            "failure_probability": float(rng.uniform(0.0, 0.02)),
            "repair_probability": float(rng.uniform(0.2, 0.6)),
        },
        "migration_failure_probability": float(rng.uniform(0.0, 0.2)),
        "with_cost": bool(rng.integers(0, 2)),
        "with_energy": bool(rng.integers(0, 2)),
        "run_seed": int(rng.integers(0, 2**31)),
    }


def _make_scenario(params: dict, tick_mode: str,
                   telemetry: Telemetry | None) -> Scenario:
    return Scenario(
        params["vms"], params["pms"],
        placer=_PLACER(),
        failures=params["failures"],
        migration_failure_probability=params[
            "migration_failure_probability"],
        cost_model=MigrationCostModel() if params["with_cost"] else None,
        energy_model=EnergyModel() if params["with_energy"] else None,
        telemetry=telemetry,
        tick_mode=tick_mode,
    )


def _event_dicts(sink: RingBufferSink, *, drop_checkpoint: bool = False):
    return [e.to_dict() for e in sink.events
            if not (drop_checkpoint and e.kind == "checkpoint_written")]


def _straight(params: dict, tick_mode: str, n: int):
    """Uninterrupted run: (final_state, summary, event_dicts)."""
    sink = RingBufferSink()
    scn = _make_scenario(params, tick_mode, Telemetry(sink))
    run = scn.start(seed=params["run_seed"])
    run.advance(n)
    run.close()
    report = run.finish()
    report.telemetry = None  # the digest carries wall-clock, not state
    return run.capture_state(), report.summary(), _event_dicts(sink)


def _split(params: dict, tick_mode: str, n: int, split_at: int, tmp_path):
    """Checkpoint at ``split_at``, restore, finish: same tuple shape."""
    sink_a = RingBufferSink()
    scn = _make_scenario(params, tick_mode, Telemetry(sink_a))
    first = scn.start(seed=params["run_seed"])
    first.advance(split_at)
    path = save_checkpoint(first, tmp_path / "split.ckpt")
    first.close()

    sink_b = RingBufferSink()
    resumed = restore_checkpoint(path, telemetry=Telemetry(sink_b))
    assert resumed.time == split_at
    resumed.advance(n - split_at)
    resumed.close()
    report = resumed.finish()
    report.telemetry = None  # the digest carries wall-clock, not state
    events = (_event_dicts(sink_a, drop_checkpoint=True)
              + _event_dicts(sink_b))
    return resumed.capture_state(), report.summary(), events


class TestSplitRunParity:
    @pytest.mark.parametrize("tick_mode", ["vectorized", "scalar"])
    @pytest.mark.parametrize("config_seed", range(N_RANDOM_CONFIGS))
    def test_split_equals_straight(self, config_seed, tick_mode, tmp_path):
        params = _random_params(config_seed)
        n = 30
        straight = _straight(params, tick_mode, n)
        split = _split(params, tick_mode, n, n // 2, tmp_path)
        assert split[0] == straight[0]  # full final mutable state
        assert split[1] == straight[1]  # report summary
        assert split[2] == straight[2]  # telemetry event stream

    def test_modes_agree_through_a_checkpoint(self, tmp_path):
        # The two tick modes are bit-identical to each other, and stay so
        # when one of them round-trips through a checkpoint file.
        params = _random_params(3)
        vec = _straight(params, "vectorized", 30)
        scal = _split(params, "scalar", 30, 15, tmp_path)
        assert vec[1] == scal[1]
        assert vec[2] == scal[2]


def _advance_until(run, predicate, limit=400):
    for _ in range(limit):
        if predicate():
            return True
        run.advance(1)
    return False


class TestAwkwardSnapshotPoints:
    def test_mid_migration_snapshot(self, tmp_path):
        """Snapshot while migrations are in flight (costed scheduler)."""
        params = _random_params(7)
        params["with_cost"] = True
        # slow transfers keep migrations in flight across intervals
        sink_a = RingBufferSink()
        scn = Scenario(
            params["vms"], params["pms"],
            placer=_PLACER(),
            cost_model=MigrationCostModel(bandwidth_units_per_interval=5.0),
            telemetry=Telemetry(sink_a),
        )
        run = scn.start(seed=params["run_seed"])
        assert isinstance(run.scheduler, CostedScheduler)
        assert _advance_until(run, lambda: run.scheduler._in_flight), \
            "scenario never put a migration in flight"
        split_at = run.time
        path = save_checkpoint(run, tmp_path / "midmig.ckpt")
        run.advance(30)
        run.close()
        expected = run.capture_state()

        resumed = restore_checkpoint(path)
        assert resumed.scheduler._in_flight  # restored mid-transfer
        resumed.advance(30)
        resumed.close()
        assert resumed.capture_state() == expected
        assert resumed.time == split_at + 30

    @pytest.mark.parametrize("tick_mode", ["vectorized", "scalar"])
    def test_mid_failure_window_snapshot(self, tick_mode, tmp_path):
        """Snapshot while a PM is down and awaiting repair."""
        params = _random_params(11)
        params["failures"] = {"failure_probability": 0.05,
                              "repair_probability": 0.2}
        scn = _make_scenario(params, tick_mode, None)
        run = scn.start(seed=params["run_seed"])
        assert _advance_until(run, lambda: bool(run.injector.failed.any())), \
            "injector never crashed a PM"
        path = save_checkpoint(run, tmp_path / "midfail.ckpt")
        run.advance(40)
        run.close()
        expected = run.capture_state()

        resumed = restore_checkpoint(path)
        assert resumed.injector.failed.any()  # restored mid-outage
        resumed.advance(40)
        resumed.close()
        assert resumed.capture_state() == expected

    def test_topology_round_trips(self, tmp_path):
        params = _random_params(5)
        n_pms = len(params["pms"])
        topo = Topology([i % 2 for i in range(n_pms)])
        scn = Scenario(
            params["vms"], params["pms"],
            placer=_PLACER(),
            failures={"failure_probability": 0.02,
                      "domain_failure_probability": 0.01},
            topology=topo,
        )
        run = scn.start(seed=params["run_seed"])
        run.advance(10)
        path = save_checkpoint(run, tmp_path / "topo.ckpt")
        run.advance(20)
        expected = run.capture_state()
        resumed = restore_checkpoint(path)
        assert resumed.scenario.topology is not None
        resumed.advance(20)
        assert resumed.capture_state() == expected


class TestFileFormat:
    def _checkpoint(self, tmp_path):
        params = _random_params(0)
        run = _make_scenario(params, "vectorized", None).start(
            seed=params["run_seed"])
        run.advance(5)
        return save_checkpoint(run, tmp_path / "fmt.ckpt")

    def test_future_version_rejected(self, tmp_path):
        path = self._checkpoint(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["version"] = 99
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError, match="not a repro-checkpoint"):
            load_checkpoint(path)

    def test_checksum_detects_tampering(self, tmp_path):
        path = self._checkpoint(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["state"]["time"] += 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self._checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_checkpoint_written_event_emitted(self, tmp_path):
        params = _random_params(1)
        sink = RingBufferSink()
        run = _make_scenario(params, "vectorized", Telemetry(sink)).start(
            seed=params["run_seed"])
        run.advance(4)
        path = save_checkpoint(run, tmp_path / "ev.ckpt")
        written = [e for e in sink.events if e.kind == "checkpoint_written"]
        assert len(written) == 1
        assert written[0].time == 4
        assert written[0].path == str(path)
        assert written[0].size_bytes == path.stat().st_size


class TestNonPortableConfigs:
    def test_custom_trigger_needs_supplied_scenario(self, tmp_path):
        from repro.simulation.triggers import OverflowTrigger

        class MyTrigger(OverflowTrigger):
            pass

        params = _random_params(2)

        def build():
            return Scenario(params["vms"], params["pms"],
                            placer=_PLACER(),
                            trigger=MyTrigger())

        run = build().start(seed=params["run_seed"])
        run.advance(8)
        path = save_checkpoint(run, tmp_path / "custom.ckpt")
        run.advance(12)
        expected = run.capture_state()

        with pytest.raises(CheckpointError, match="non-serializable"):
            restore_checkpoint(path)

        # supplying an identically-configured scenario restores it fine
        resumed = restore_checkpoint(path, scenario=build())
        resumed.advance(12)
        assert resumed.capture_state() == expected

    def test_restored_scenario_placer_refuses_to_place(self, tmp_path):
        params = _random_params(4)
        run = _make_scenario(params, "vectorized", None).start(
            seed=params["run_seed"])
        run.advance(3)
        path = save_checkpoint(run, tmp_path / "p.ckpt")
        resumed = restore_checkpoint(path)
        with pytest.raises(CheckpointError, match="no placer"):
            resumed.scenario.placer.place(params["vms"], params["pms"])


def _every_column(tick_mode: str, telemetry: Telemetry | None = None):
    """A scenario whose state fills every version 2 column: failures,
    replans, migrations and the serving plane; and its run seed."""
    params = _random_params(0)
    return Scenario(
        params["vms"], params["pms"], placer=_PLACER(),
        failures={"failure_probability": 0.05, "repair_probability": 0.3},
        migration_failure_probability=0.1,
        reconsolidation={"period": 5, "rho": 0.4},
        serving=True, energy_model=EnergyModel(),
        telemetry=telemetry, tick_mode=tick_mode,
    ), params["run_seed"]


class TestColumnarVersion:
    """Version 2 (columns) against version 1 (JSON lists), the reference
    writer's layout."""

    @pytest.mark.parametrize("tick_mode", ["vectorized", "scalar"])
    def test_v1_and_v2_restore_and_continue_identically(self, tick_mode,
                                                        tmp_path):
        n, split = 30, 15
        sink = RingBufferSink()
        scenario, seed = _every_column(tick_mode, Telemetry(sink))
        run = scenario.start(seed=seed)
        run.advance(split)
        at_split = canonical_state_bytes(run.capture_state())
        assert run.monitor.capture_state()["events"], "no migration yet"
        assert run.injector.record.failures, "no PM failed yet"
        files = {1: save_checkpoint_v1(run, tmp_path / "v1.ckpt"),
                 2: save_checkpoint(run, tmp_path / "v2.ckpt")}
        first = _event_dicts(sink, drop_checkpoint=True)
        run.advance(n - split)
        run.close()
        report = run.finish()
        report.telemetry = None
        straight = (canonical_state_bytes(run.capture_state()),
                    report.summary(), _event_dicts(sink, drop_checkpoint=True))

        assert {v: json.loads(f.read_bytes())["version"]
                for v, f in files.items()} == {1: 1, 2: 2}
        assert load_checkpoint(files[1]) == load_checkpoint(files[2])
        for path in files.values():
            sink_b = RingBufferSink()
            resumed = restore_checkpoint(path, telemetry=Telemetry(sink_b))
            assert canonical_state_bytes(resumed.capture_state()) == at_split
            resumed.advance(n - split)
            resumed.close()
            report = resumed.finish()
            report.telemetry = None
            assert (canonical_state_bytes(resumed.capture_state()),
                    report.summary(), first + _event_dicts(sink_b)) \
                == straight

    def test_v2_stores_columns_and_loads_the_captured_state(self, tmp_path):
        scenario, seed = _every_column("vectorized")
        run = scenario.start(seed=seed)
        run.advance(12)
        # drift VM 2's actual ON law: p_on no longer equals the specs'
        run.datacenter.set_switch_probabilities([2], p_on=0.9)
        path = save_checkpoint(run, tmp_path / "v2.ckpt")
        stored = json.loads(path.read_bytes())["payload"]
        dtypes = {}
        for name in ("config.vms", "config.pms", "state.datacenter.on",
                     "state.datacenter.p_on", "state.datacenter.assignment",
                     "state.monitor.events", "state.injector.failed"):
            holder = stored
            for part in name.split("."):
                holder = holder[part]
            assert set(holder) == {"data", "dtype", "shape"}, name
            dtypes[name] = holder["dtype"]
        assert dtypes["config.vms"] == dtypes["state.datacenter.p_on"] \
            == "<f8"
        assert dtypes["state.monitor.events"] == "<i2"
        # the law still equal to the specs is a reference to their field
        assert {k: stored["state"]["datacenter"][k] for k in (
            "p_off", "assumed_p_on", "assumed_p_off")} == {
            "p_off": {"spec_field": 1}, "assumed_p_on": {"spec_field": 0},
            "assumed_p_off": {"spec_field": 1}}
        assert set(stored["state"]["serving"]["queues"]) == {
            "max_depth", "length", "arrival", "count"}
        assert load_checkpoint(path)["state"] == run.capture_state()

    def test_int_specs_stay_json_and_load_as_ints(self, tmp_path):
        # an int stored as float64 would read back as 8.0, not 8
        vms = [VMSpec(0.2, 0.3, 8, 30), VMSpec(0.1, 0.4, 6.0, 40.0)]
        run = Scenario(vms, [PMSpec(90)] * 2,
                       placer=QueuingFFD(rho=0.4, d=16)).start(seed=3)
        run.advance(4)
        path = save_checkpoint(run, tmp_path / "ints.ckpt")
        config = json.loads(path.read_bytes())["payload"]["config"]
        assert config["vms"] == [[0.2, 0.3, 8, 30], [0.1, 0.4, 6.0, 40.0]]
        assert config["pms"] == [90, 90]
        loaded = load_checkpoint(path)["config"]
        assert [list(map(type, row)) for row in loaded["vms"]] \
            == [[float, float, int, int], [float] * 4]
        resumed = restore_checkpoint(path)
        assert resumed.scenario.vms == vms
        assert canonical_state_bytes(resumed.capture_state()) \
            == canonical_state_bytes(run.capture_state())

    def test_a_restore_builds_no_migration_event(self, tmp_path, monkeypatch):
        scenario, seed = _every_column("vectorized")
        run = scenario.start(seed=seed)
        run.advance(20)
        run.close()
        events = run.finish().record.migrations
        assert events
        path = save_checkpoint(run, tmp_path / "v2.ckpt")

        def no_event(cls, *args, **kwargs):
            raise AssertionError("the restore built a MigrationEvent")

        with monkeypatch.context() as patch:
            patch.setattr(MigrationEvent, "__new__", no_event)
            patch.setattr(MigrationEvent, "_make", classmethod(no_event))
            resumed = restore_checkpoint(path)
        resumed.close()
        assert resumed.finish().record.migrations == events

    def test_queue_columns_that_disagree_are_refused(self, tmp_path):
        scenario, seed = _every_column("vectorized")
        run = scenario.start(seed=seed)
        run.advance(12)
        path = save_checkpoint(run, tmp_path / "v2.ckpt")
        payload = json.loads(path.read_bytes())["payload"]
        queues = payload["state"]["serving"]["queues"]
        queues["count"] = payload["state"]["monitor"]["presence"]
        Envelope("repro-checkpoint", 2, error=CheckpointError).write(
            path, payload)
        for read in (load_checkpoint, restore_checkpoint):
            with pytest.raises(CheckpointError,
                               match="column state.serving.queues.count has"):
                read(path)


def _twenty(vm=None, pm=None, n_vms=20) -> Scenario:
    """20 VMs of R_b 5 on 6 PMs; ``vm``/``pm`` = (index, R_b or capacity)."""
    vms = [VMSpec(0.2, 0.4, 5.0, 20.0) for _ in range(n_vms)]
    pms = [PMSpec(120.0) for _ in range(6)]
    if vm is not None:
        vms[vm[0]] = VMSpec(0.2, 0.4, vm[1], 20.0)
    if pm is not None:
        pms[pm[0]] = PMSpec(pm[1])
    return Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16))


class TestSuppliedScenario:
    """A scenario passed to restore_checkpoint must be the file's."""

    @pytest.fixture(params=["v1", "v2"])
    def checkpoint(self, request, tmp_path):
        write = save_checkpoint_v1 if request.param == "v1" \
            else save_checkpoint
        run = _twenty().start(seed=5)
        run.advance(5)
        path = write(run, tmp_path / "twenty.ckpt")
        run.close()
        return path, canonical_state_bytes(run.capture_state())

    def test_the_same_instance_restores(self, checkpoint):
        path, state = checkpoint
        resumed = restore_checkpoint(path, scenario=_twenty())
        assert canonical_state_bytes(resumed.capture_state()) == state

    @pytest.mark.parametrize("other, message", [
        (lambda: Scenario([VMSpec(0.2, 0.4, 25.0, 20.0)] * 20,
                          [PMSpec(120.0)] * 6,
                          placer=QueuingFFD(rho=0.01, d=16)),
         r"VM 0 is \[0\.2, 0\.4, 5\.0, 20\.0\] in the file and "
         r"\[0\.2, 0\.4, 25\.0, 20\.0\]"),
        (lambda: _twenty(vm=(13, 5.000000000000001)), "VM 13 "),
        (lambda: _twenty(pm=(4, 121.0)),
         r"PM 4 is 120\.0 in the file and 121\.0 in the scenario"),
        (lambda: _twenty(n_vms=21), "holds 20 VMs and 6 PMs"),
    ], ids=["every-r_base", "one-ulp-of-one-vm", "one-pm", "one-vm-more"])
    def test_another_instance_is_refused(self, checkpoint, other, message):
        path, _ = checkpoint
        with pytest.raises(CheckpointError, match=message):
            restore_checkpoint(path, scenario=other())
