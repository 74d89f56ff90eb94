"""Request-level web-server workload (paper Section V-D, Fig. 8).

The paper's testbed ran programs inside VMs that emulate web servers serving
computation-intensive requests: each user sends a request, waits for a think
time drawn from an exponential distribution with mean 1 (floored at 0.1
"since in reality the user think time cannot be infinitely small"), and
repeats.  The instantaneous workload is quantified by the number of requests
arriving per interval, and the *user population* follows the VM's ON-OFF
state: ``N_b`` users normally, ``N_p`` users during a spike.

:class:`UserPool` models one population of users; :class:`WebServerWorkload`
couples a pool to an ON-OFF chain to produce Fig. 8-style traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.markov.onoff import OnOffChain
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_positive

#: paper's think-time law: Exp(mean=1), floored at 0.1 seconds
THINK_TIME_MEAN = 1.0
THINK_TIME_FLOOR = 0.1


@dataclass(frozen=True)
class UserPool:
    """A homogeneous population of users with exponential think times.

    Attributes
    ----------
    n_users:
        Population size.
    think_time_mean:
        Mean of the exponential think time.
    think_time_floor:
        Lower truncation of the think time.
    """

    n_users: int
    think_time_mean: float = THINK_TIME_MEAN
    think_time_floor: float = THINK_TIME_FLOOR

    def __post_init__(self) -> None:
        check_integer(self.n_users, "n_users", minimum=0)
        check_positive(self.think_time_mean, "think_time_mean")
        if not 0 <= self.think_time_floor < float("inf"):
            raise ValueError("think_time_floor must be finite and >= 0")

    @property
    def effective_mean_think_time(self) -> float:
        """Mean of the floored exponential: ``floor + E[(X - floor)^+]``.

        For X ~ Exp(mean m) truncated below at f (values below f are raised
        to f), E[max(X, f)] = f + m * exp(-f/m).
        """
        m, f = self.think_time_mean, self.think_time_floor
        return f + m * float(np.exp(-f / m))

    @property
    def request_rate(self) -> float:
        """Long-run requests per unit time from the whole pool.

        Each user cycles think -> request, so rate = n / E[think].  (Request
        processing time is absorbed into the think time, as in the paper's
        closed-loop generator.)
        """
        if self.n_users == 0:
            return 0.0
        return self.n_users / self.effective_mean_think_time

    def requests_in_interval(self, interval: float, n_intervals: int, *,
                             seed: SeedLike = None) -> np.ndarray:
        """Requests arriving per interval, simulated per user.

        Event-driven per user: advance each user's clock by successive think
        times, bin the request epochs into intervals.  Cost is proportional
        to the expected request count.
        """
        check_positive(interval, "interval")
        n_intervals = check_integer(n_intervals, "n_intervals", minimum=1)
        rng = as_generator(seed)
        horizon = interval * n_intervals
        counts = np.zeros(n_intervals, dtype=np.int64)
        expected_per_user = horizon / self.effective_mean_think_time
        batch = max(8, int(expected_per_user * 1.5) + 4)
        for _ in range(self.n_users):
            t = 0.0
            epochs: list[float] = []
            while t < horizon:
                draws = np.maximum(
                    rng.exponential(self.think_time_mean, size=batch),
                    self.think_time_floor,
                )
                cum = t + np.cumsum(draws)
                inside = cum[cum < horizon]
                epochs.extend(inside.tolist())
                t = float(cum[-1])
            if epochs:
                idx = (np.asarray(epochs) / interval).astype(np.int64)
                np.add.at(counts, idx, 1)
        return counts


class WebServerWorkload:
    """A VM's request workload driven by an ON-OFF user population.

    Parameters
    ----------
    chain:
        The VM's ON-OFF chain (one step per information-update interval
        ``sigma``).
    normal_users:
        Users during OFF periods (determines ``R_b``).
    peak_users:
        Users during ON periods (determines ``R_p``); must be >= normal.
    interval:
        Length of one ON-OFF interval in seconds (the paper's sigma = 30 s).
    """

    def __init__(self, chain: OnOffChain, normal_users: int, peak_users: int,
                 *, interval: float = 30.0):
        if peak_users < normal_users:
            raise ValueError(
                f"peak_users ({peak_users}) must be >= normal_users ({normal_users})"
            )
        check_integer(normal_users, "normal_users", minimum=0)
        check_positive(interval, "interval")
        self.chain = chain
        self.normal_users = normal_users
        self.peak_users = peak_users
        self.interval = interval

    def generate(self, n_intervals: int, *, seed: SeedLike = None,
                 exact: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``(states, request_counts)`` over ``n_intervals``.

        ``states`` is the 0/1 ON-OFF trajectory (length ``n_intervals``);
        ``request_counts[t]`` is the number of requests in interval ``t``.

        With ``exact=False`` (default) request counts are drawn Poisson with
        the pool's rate — accurate for many users and orders of magnitude
        faster; ``exact=True`` simulates each user's think-time renewals
        (used by tests to validate the Poisson approximation).
        """
        n_intervals = check_integer(n_intervals, "n_intervals", minimum=1)
        rng = as_generator(seed)
        states = self.chain.simulate(n_intervals - 1, seed=rng)
        pools = {
            0: UserPool(self.normal_users),
            1: UserPool(self.peak_users),
        }
        counts = np.zeros(n_intervals, dtype=np.int64)
        if exact:
            for t, s in enumerate(states):
                counts[t] = pools[int(s)].requests_in_interval(
                    self.interval, 1, seed=rng
                )[0]
        else:
            rates = np.where(
                states == 1,
                pools[1].request_rate,
                pools[0].request_rate,
            ) * self.interval
            counts = rng.poisson(rates)
        return np.asarray(states), counts
