"""Reproducible random-number streams for simulations.

Every stochastic component of the simulation draws from its own named
substream so that (a) runs are reproducible given a root seed, and (b)
changing how often one component draws does not perturb the variates seen
by the others — the classic "common random numbers" discipline used in
simulation studies.

Seeding belongs to :mod:`repro.rng` (the repository's single seeding
authority): deployments hand every component one
:class:`repro.rng.RNGManager` and components name their streams
(``"lan.<src>-><dst>"``, ``"client.<host>.think"``, …).

Distributions used by the reproduction (clipped-normal service delays,
exponential think times, bursty link delays) are exposed as small
wrapper classes with a uniform ``sample()`` interface so scenario files can
configure them declaratively.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Distribution",
    "Constant",
    "Uniform",
    "Exponential",
    "Normal",
    "Pareto",
    "MarkovModulated",
]


class Distribution:
    """Base class for one-dimensional sampling distributions.

    Every distribution draws from the generator it is handed — in a
    deployment, a named stream of the shared manager:

    >>> from repro.rng import RNGManager
    >>> rng = RNGManager(base_seed=42).stream("replica-3.service")
    >>> Constant(8.0).sample(rng)
    8.0
    >>> 0.0 <= Uniform(0.0, 2.0).sample(rng) < 2.0
    True
    """

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one variate."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic mean where known; used by tests and load balancing."""
        raise NotImplementedError



class Constant(Distribution):
    """Degenerate distribution: always ``value``."""

    def __init__(self, value: float) -> None:
        if not value >= 0:  # (NaN included)
            raise ValueError(f"constant delay must be >= 0, got {value}")
        self.value = float(value)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def mean(self) -> float:
        return self.value


    def __repr__(self) -> str:
        return f"Constant({self.value})"


class Uniform(Distribution):
    """Uniform on ``[low, high)``."""

    def __init__(self, low: float, high: float) -> None:
        if not low <= high:  # (NaN included)
            raise ValueError(f"need low <= high, got [{low}, {high})")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def mean(self) -> float:
        return (self.low + self.high) / 2.0


    def __repr__(self) -> str:
        return f"Uniform({self.low}, {self.high})"


class Exponential(Distribution):
    """Exponential with the given mean (not rate)."""

    def __init__(self, mean: float) -> None:
        if not mean > 0:  # (NaN included)
            raise ValueError(f"exponential mean must be > 0, got {mean}")
        self._mean = float(mean)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self._mean))

    def mean(self) -> float:
        return self._mean


    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean})"


class Normal(Distribution):
    """Normal(mu, sigma), clipped at zero (delays cannot be negative)."""

    def __init__(self, mu: float, sigma: float) -> None:
        if math.isnan(mu):
            raise ValueError("mu must be a number, got nan")
        if not sigma >= 0:  # (NaN included)
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, rng: np.random.Generator) -> float:
        return max(0.0, float(rng.normal(self.mu, self.sigma)))

    def mean(self) -> float:
        # Mean of the zero-clipped normal.
        if self.sigma == 0:
            return max(0.0, self.mu)
        z = self.mu / self.sigma
        phi = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        cdf = 0.5 * (1 + math.erf(z / math.sqrt(2)))
        return self.mu * cdf + self.sigma * phi


    def __repr__(self) -> str:
        return f"Normal(mu={self.mu}, sigma={self.sigma})"


class Pareto(Distribution):
    """Pareto with scale ``xm`` and shape ``alpha`` (heavy-tailed delays)."""

    def __init__(self, xm: float, alpha: float) -> None:
        if not (xm > 0 and alpha > 0):  # (NaN included)
            raise ValueError(f"need xm > 0 and alpha > 0, got {xm}, {alpha}")
        self.xm = float(xm)
        self.alpha = float(alpha)

    def sample(self, rng: np.random.Generator) -> float:
        return self.xm * (1.0 + float(rng.pareto(self.alpha)))

    def mean(self) -> float:
        if self.alpha <= 1:
            return math.inf
        return self.alpha * self.xm / (self.alpha - 1)

    def __repr__(self) -> str:
        return f"Pareto(xm={self.xm}, alpha={self.alpha})"


class MarkovModulated(Distribution):
    """Two-state Markov-modulated delay (normal vs. burst periods).

    Models the paper's "occasional periods of high traffic" on LAN links:
    the process sits in a *normal* state and occasionally jumps into a
    *burst* state where delays come from a slower distribution.  State
    sojourns are geometric in the number of samples drawn, with switch
    probabilities ``p_enter_burst`` and ``p_exit_burst``.
    """

    def __init__(
        self,
        normal_dist: Distribution,
        burst_dist: Distribution,
        p_enter_burst: float = 0.01,
        p_exit_burst: float = 0.2,
    ) -> None:
        for name, p in (("p_enter_burst", p_enter_burst), ("p_exit_burst", p_exit_burst)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.normal_dist = normal_dist
        self.burst_dist = burst_dist
        self.p_enter_burst = float(p_enter_burst)
        self.p_exit_burst = float(p_exit_burst)
        self._in_burst = False

    def sample(self, rng: np.random.Generator) -> float:
        if self._in_burst:
            if rng.random() < self.p_exit_burst:
                self._in_burst = False
        else:
            if rng.random() < self.p_enter_burst:
                self._in_burst = True
        active = self.burst_dist if self._in_burst else self.normal_dist
        return active.sample(rng)

    def mean(self) -> float:
        # Stationary distribution of the two-state chain.
        p, q = self.p_enter_burst, self.p_exit_burst
        if p + q == 0:
            return self.normal_dist.mean()
        pi_burst = p / (p + q)
        return (1 - pi_burst) * self.normal_dist.mean() + pi_burst * self.burst_dist.mean()

    def __repr__(self) -> str:
        return (
            f"MarkovModulated(normal={self.normal_dist!r}, "
            f"burst={self.burst_dist!r})"
        )
