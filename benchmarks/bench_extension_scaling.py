"""Benchmark: placement cost of the extension reservations vs the paper's.

Both keep a distribution per PM and extend it by one convolution step per
admission test: the exact Poisson-binomial variant an ON-count PMF row of
``d + 1`` points, the quantile variant a spike-mass PMF row of up to
``(d + 1) * max_steps + 1`` grid points, against a table lookup for
QUEUE.  Both trade placement time for capacity.  This bench quantifies the
cost at the paper's scale so the trade-off is a known number, not
folklore.
"""

import pytest

from repro.core.heterogeneous import HeterogeneousQueuingFFD
from repro.core.quantile import QuantileFFD
from repro.core.queuing_ffd import QueuingFFD
from repro.workload.patterns import generate_pattern_instance

N_VMS = 300

PLACERS = {
    "QUEUE": lambda: QueuingFFD(rho=0.01, d=16),
    "QUEUE-HET": lambda: HeterogeneousQueuingFFD(rho=0.01, d=16),
    "QUANTILE": lambda: QuantileFFD(rho=0.01, d=16),
}


@pytest.fixture(scope="module")
def instance():
    return generate_pattern_instance("equal", N_VMS, seed=77)


@pytest.mark.parametrize("name", list(PLACERS))
def test_extension_placement_cost(benchmark, instance, name):
    vms, pms = instance
    placer = PLACERS[name]()
    if hasattr(placer, "mapping_for"):
        placer.mapping_for(vms)  # exclude the shared MapCal precompute

    placement = benchmark(lambda: placer.place(vms, pms))
    assert placement.all_placed


def test_extension_footprints_consistent(benchmark, instance, save_result):
    from repro.analysis.report import ExperimentResult

    vms, pms = instance
    result = ExperimentResult(
        experiment_id="extension_scaling",
        description="PMs used by each reservation variant (n=300, Rb=Re)",
        headers=["variant", "PMs_used"],
    )
    used = benchmark.pedantic(
        lambda: {name: factory().place(vms, pms).n_used_pms
                 for name, factory in PLACERS.items()},
        rounds=1, iterations=1,
    )
    for name, n in used.items():
        result.add_row(name, n)
    save_result(result)
    assert used["QUEUE-HET"] == used["QUEUE"]  # uniform fleet: identical
    assert used["QUANTILE"] <= used["QUEUE"]
