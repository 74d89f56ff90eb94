"""Stochastic-process substrate: finite discrete-time Markov chains.

This package provides the probabilistic machinery underlying the paper's
MapCal algorithm:

- :mod:`repro.markov.binomial` — vectorized construction of the busy-block
  transition kernel (Eq. 12 of the paper) from binomial ON->OFF / OFF->ON
  switch counts.
- :mod:`repro.markov.chain` — a general finite DTMC with several stationary
  distribution solvers, simulation, and structural diagnostics.
- :mod:`repro.markov.onoff` — the two-state ON-OFF chain used as the per-VM
  workload model (Fig. 2 of the paper), with closed-form burst statistics.
"""

from repro.markov.binomial import binomial_pmf_table, busy_block_kernel
from repro.markov.chain import DiscreteMarkovChain
from repro.markov.hmm import HMMFitDiagnostics, fit_hmm_onoff
from repro.markov.multilevel import MultiLevelChain, spiky_levels
from repro.markov.onoff import OnOffChain

__all__ = [
    "binomial_pmf_table",
    "busy_block_kernel",
    "DiscreteMarkovChain",
    "HMMFitDiagnostics",
    "fit_hmm_onoff",
    "MultiLevelChain",
    "spiky_levels",
    "OnOffChain",
]
