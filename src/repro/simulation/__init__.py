"""Discrete-time datacenter simulator.

Stands in for the paper's Xen Cloud Platform testbed (see DESIGN.md,
substitutions): VM demands evolve as ON-OFF chains each information-update
interval (the paper's sigma = 30 s), local resizing tracks demand instantly,
and a dynamic scheduler reacts to capacity overflow with live migration.

- :mod:`repro.simulation.engine` — the interval clock and hook loop.
- :mod:`repro.simulation.datacenter` — the fleet's state arrays and local resizing.
- :mod:`repro.simulation.migration` — VM-selection and target-selection
  policies plus the migration cost model (idle deception lives here).
- :mod:`repro.simulation.scheduler` — the overflow-triggered migration loop.
- :mod:`repro.simulation.energy` — linear PM power model.
- :mod:`repro.simulation.monitor` — time series: migrations, PMs used, CVR.
"""

from repro.simulation.datacenter import Datacenter
from repro.simulation.energy import EnergyModel
from repro.simulation.engine import SimulationEngine
from repro.simulation.migration import (
    MigrationEvent,
    MigrationExecutor,
    MigrationPolicy,
    RetryPolicy,
    StandardPolicy,
    select_target_least_loaded,
    select_target_reservation_aware,
    select_vm_largest_demand,
)
from repro.simulation.monitor import Monitor, RunRecord
from repro.simulation.scheduler import DynamicScheduler, SimulationResult, run_simulation
from repro.simulation.arrivals import DynamicFleetRecord, DynamicFleetSimulator
from repro.simulation.failures import FailureInjector, FailureRecord
from repro.simulation.topology import Topology
from repro.simulation.reconsolidation import ReconsolidationScheduler
from repro.simulation.scenario import (
    Scenario,
    ScenarioReport,
    ScenarioRun,
    compare_scenarios,
)
from repro.simulation.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointRetention,
    canonical_state_bytes,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.simulation.costmodel import (
    CostedScheduler,
    MigrationAccount,
    MigrationCostModel,
)
from repro.simulation.triggers import OverflowTrigger, SlidingWindowCVRTrigger

__all__ = [
    "DynamicFleetRecord",
    "DynamicFleetSimulator",
    "FailureInjector",
    "FailureRecord",
    "Topology",
    "ReconsolidationScheduler",
    "Scenario",
    "ScenarioReport",
    "ScenarioRun",
    "compare_scenarios",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointRetention",
    "canonical_state_bytes",
    "load_checkpoint",
    "restore_checkpoint",
    "save_checkpoint",
    "CostedScheduler",
    "MigrationAccount",
    "MigrationCostModel",
    "OverflowTrigger",
    "SlidingWindowCVRTrigger",
    "Datacenter",
    "EnergyModel",
    "SimulationEngine",
    "MigrationEvent",
    "MigrationExecutor",
    "MigrationPolicy",
    "RetryPolicy",
    "StandardPolicy",
    "select_target_least_loaded",
    "select_target_reservation_aware",
    "select_vm_largest_demand",
    "Monitor",
    "RunRecord",
    "DynamicScheduler",
    "SimulationResult",
    "run_simulation",
]
