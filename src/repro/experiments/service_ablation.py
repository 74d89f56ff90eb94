"""``ablation_service``: the placement service under sustained load.

Drives :class:`~repro.service.service.PlacementService` with a
deterministic arrival/departure process at several sustained rates and
compares the two selection rules it supports — the paper's QueuingFFD
first-fit and GRAND's uniform-random choice (arXiv:1212.0875) — with the
elastic PM pool off and on.

The yardstick is the **fluid-limit bound**: with mean offered load
``n = rate x mean_lifetime`` VMs and at most ``k*`` VMs per PM (the
largest ``k`` whose Eq. (17) reservation ``r_extra * table[k] +
k * r_base`` fits the capacity), no policy can hold steady state on fewer
than ``ceil(n / k*)`` PMs.  GRAND's spreading is expected to cost PMs
against first-fit at moderate load and to converge toward the same bound
as load saturates — that convergence is Stolyar's asymptotic-optimality
claim, observed here through the service (WAL, inbox, pool guard and all)
rather than through a bare packing loop.

Everything is seeded and hash-based, so reruns are byte-identical — the
CI ``service-smoke`` job asserts exactly that.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.report import ExperimentResult
from repro.core.mapcal import mapcal_table
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.placement.grand import GreedyRandomPlacer
from repro.service.pool import ElasticPMPool
from repro.service.service import PlacementService


def fluid_limit_pms(rate: float, mean_life: float, vm: VMSpec,
                    capacity: float, *, rho: float, d: int) -> int:
    """Lower bound on steady-state PMs for a homogeneous offered load.

    ``k*`` is the densest per-PM packing the Eq. (17) reservation allows
    for this VM class; the fluid limit then needs at least
    ``ceil(rate * mean_life / k*)`` PMs.  Infeasible VM classes (no
    ``k >= 1`` fits) raise — the experiment is misconfigured.
    """
    table = mapcal_table(d, vm.p_on, vm.p_off, rho)
    k_star = 0
    for k in range(1, d + 1):
        if vm.r_extra * int(table.table[k]) + k * vm.r_base \
                <= capacity + 1e-9:
            k_star = k
    if k_star == 0:
        raise ValueError("VM class fits on no PM; raise capacity")
    return max(1, math.ceil(rate * mean_life / k_star))


def _drive_service(placer, *, elastic: bool, rate: float, n_pms: int,
                   capacity: float, n_ticks: int, mean_life: float,
                   seed: int, workdir: Path) -> dict:
    """One service run; returns summary stats (deterministic in ``seed``)."""
    rng = np.random.RandomState(seed)
    pms = [PMSpec(capacity=capacity)] * n_pms
    pool = None
    if elastic:
        pool = ElasticPMPool(n_pms, initial_active=max(2, n_pms // 2),
                             low_watermark=1, high_watermark=2,
                             patience=4, drain_ticks=2)
    svc = PlacementService(
        pms, placer, wal_path=workdir / "wal.jsonl",
        checkpoint_path=workdir / "ckpt.json", checkpoint_every=256,
        inbox_capacity=64, pool=pool)
    deaths: dict[int, list[int]] = {}  # tick -> vm_ids departing
    used_samples: list[int] = []
    for t in range(n_ticks):
        for vm_id in deaths.pop(t, []):
            svc.depart(f"d-{vm_id}", vm_id)
        n_arr = int(rng.poisson(rate))
        keys = [f"a-{t}-{j}" for j in range(n_arr)]
        vm = VMSpec(p_on=0.1, p_off=0.5, r_base=2.0, r_extra=3.0)
        for key in keys:
            svc.submit(key, vm)
        svc.drain()
        for key in keys:
            outcome = svc.outcome(key)
            if outcome and outcome["op"] == "admit":
                life = int(rng.geometric(1.0 / mean_life))
                deaths.setdefault(t + max(1, life), []).append(
                    outcome["vm_id"])
        used_samples.append(svc.consolidator.n_used_pms)
    svc.wal.close()
    m = svc.metrics()
    # The drain-before-retire guard is an invariant, not a sample: every
    # retired PM went through prepare -> empty -> commit, or PoolGuardError
    # would have aborted the run above.
    return {
        "mean_used": float(np.mean(used_samples)) if used_samples else 0.0,
        "peak_used": int(max(used_samples)) if used_samples else 0,
        "shed_rate": (m["shed"] / m["requests"]) if m["requests"] else 0.0,
        "retired": m["retired_pms"],
        "active": m["active_pms"],
    }


def run_service_ablation(n_pms=10, capacity=10.0, n_ticks=40, mean_life=8.0,
                         rates=(0.5, 2.0, 5.0), seed=11):
    """PMs-used vs. the fluid bound: QueuingFFD x GRAND x pool elasticity."""
    vm = VMSpec(p_on=0.1, p_off=0.5, r_base=2.0, r_extra=3.0)
    result = ExperimentResult(
        experiment_id="ablation_service",
        description="Placement service: QueuingFFD vs GRAND, static vs "
                    "elastic pool, PMs-used against the fluid-limit bound",
        params={"n_pms": n_pms, "capacity": capacity, "n_ticks": n_ticks,
                "mean_life": mean_life, "rates": list(rates), "seed": seed},
        headers=["strategy", "pool", "rate", "PMs_fluid", "mean_used",
                 "peak_used", "shed_rate", "retired"],
    )
    for rate in rates:
        bound = fluid_limit_pms(rate, mean_life, vm, capacity,
                                rho=0.01, d=8)
        for name, make_placer in (
            ("QUEUE", lambda: QueuingFFD(rho=0.01, d=8)),
            ("GRAND", lambda: GreedyRandomPlacer(rho=0.01, d=8, seed=seed)),
        ):
            for elastic in (False, True):
                with tempfile.TemporaryDirectory() as tmp:
                    stats = _drive_service(
                        make_placer(), elastic=elastic, rate=rate,
                        n_pms=n_pms, capacity=capacity, n_ticks=n_ticks,
                        mean_life=mean_life, seed=seed, workdir=Path(tmp))
                result.add_row(
                    name, "elastic" if elastic else "static", rate, bound,
                    round(stats["mean_used"], 2), stats["peak_used"],
                    round(stats["shed_rate"], 4), stats["retired"])
    return result
