"""repro — burstiness-aware server consolidation via queueing theory.

A complete, self-contained reproduction of Luo & Qian, *"Burstiness-aware
Server Consolidation via Queuing Theory Approach in a Computing Cloud"*
(IPDPS 2013): the MapCal reservation algorithm, the QueuingFFD consolidation
scheme, the paper's baselines (RP, RB, RB-EX), and a discrete-time datacenter
simulator with live migration standing in for the paper's XCP testbed.

Quickstart
----------
>>> from repro import QueuingFFD, ffd_by_peak, generate_pattern_instance
>>> vms, pms = generate_pattern_instance("equal", n_vms=50, seed=0)
>>> queue = QueuingFFD(rho=0.01, d=16).place(vms, pms)
>>> peak = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
>>> queue.n_used_pms <= peak.n_used_pms
True
"""

import logging

from repro.core.mapcal import BlockMapping, mapcal, mapcal_table
from repro.core.multidim import MultiDimFirstFit, MultiDimPMSpec, MultiDimVMSpec
from repro.core.online import OnlineConsolidator
from repro.core.queuing_ffd import QueuingFFD
from repro.core.reservation import PMReservationState, fits_with_reservation
from repro.core.types import Placement, PMSpec, VMSpec
from repro.markov.chain import DiscreteMarkovChain
from repro.markov.onoff import OnOffChain
from repro.placement.base import InsufficientCapacityError, Placer
from repro.placement.ffd import FirstFitDecreasing, ffd_by_base, ffd_by_peak
from repro.placement.rbex import RBExPlacer
from repro.placement.sbp import StochasticBinPacker
from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK
from repro.simulation.scenario import Scenario, ScenarioReport
from repro.simulation.scheduler import SimulationResult, run_simulation
from repro.telemetry import (
    JSONLSink,
    RingBufferSink,
    Telemetry,
    timed,
    tracing,
)
from repro.workload.patterns import (
    TABLE_I,
    generate_pattern_instance,
    make_pms,
    table_i_vms,
)
from repro.workload.webserver import WebServerWorkload

__version__ = "1.0.0"

# Library logging etiquette: emit nothing unless the application configures
# handlers (anomalies surface as WARNINGs once it does).
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "BlockMapping",
    "mapcal",
    "mapcal_table",
    "MultiDimFirstFit",
    "MultiDimPMSpec",
    "MultiDimVMSpec",
    "OnlineConsolidator",
    "QueuingFFD",
    "PMReservationState",
    "fits_with_reservation",
    "Placement",
    "PMSpec",
    "VMSpec",
    "DiscreteMarkovChain",
    "OnOffChain",
    "InsufficientCapacityError",
    "Placer",
    "FirstFitDecreasing",
    "ffd_by_base",
    "ffd_by_peak",
    "RBExPlacer",
    "StochasticBinPacker",
    "FiniteSourceGeomGeomK",
    "Scenario",
    "ScenarioReport",
    "SimulationResult",
    "run_simulation",
    "JSONLSink",
    "RingBufferSink",
    "Telemetry",
    "timed",
    "tracing",
    "TABLE_I",
    "generate_pattern_instance",
    "make_pms",
    "table_i_vms",
    "WebServerWorkload",
    "__version__",
]
