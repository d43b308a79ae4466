"""The response-time model of §5.3.1, straight from the text.

Relative-frequency pmfs of the ``S_i`` and ``W_i`` windows, convolved, plus
``T_i`` (Equation 2), read off as ``F_{R_i}(t)``.  A pmf is an ``{atom:
probability}`` dict, a sample counts at its nearest 1 ms lattice point (ties
to even, as ``round``), a convolution is every pairwise sum and ``F(t)``
counts each atom up to ``t + 1e-9``.  Nothing is cached, batched or rounded.
"""

import bisect
import itertools
from collections import Counter

TOLERANCE = 1e-9


def window_pmf(samples):
    """Relative frequencies of ``samples`` counted on the 1 ms lattice."""
    counts = Counter(float(round(s)) for s in samples)
    return {atom: count / len(samples) for atom, count in counts.items()}


def _collect(pairs):
    pmf = {}
    for atom, probability in pairs:
        pmf[atom] = pmf.get(atom, 0.0) + probability
    return pmf


def convolve(a, b):
    """The pmf of ``X + Y`` for independent ``X ~ a`` and ``Y ~ b``."""
    return _collect((x + y, p * q) for x, p in a.items() for y, q in b.items())


def affine(a, factor=1.0, delta=0.0):
    """The pmf of ``factor · X + delta``."""
    return _collect((x * factor + delta, p) for x, p in a.items())


def cdf(a, t):
    return sum(p for x, p in a.items() if x <= t + TOLERANCE)


def response_time(record, queue_scaled=False):
    """``R_i = S_i ⊛ W_i + T_i`` of a repository record (``None`` without
    history).  ``queue_scaled`` first scales ``W_i`` by ``(q + 1) / (E[W] /
    E[S] + 1)``, ``q`` the live queue length (``QueueScaledEstimator``)."""
    if not record.has_history:
        return None
    service = window_pmf(record.service_times.values())
    queue = window_pmf(record.queue_delays.values())
    means = [sum(x * p for x, p in pmf.items()) for pmf in (service, queue)]
    if queue_scaled and means[0] > 0:
        depth = means[1] / means[0]
        queue = affine(queue, (record.queue_length + 1.0) / (depth + 1.0))
    base = convolve(service, queue)
    if record.gateway_delays is not None and len(record.gateway_delays):
        return convolve(base, window_pmf(record.gateway_delays.values()))
    return affine(base, delta=record.gateway_delay_ms)


def probability_by(record, deadline, queue_scaled=False):
    pmf = response_time(record, queue_scaled)
    return None if pmf is None else 0.0 if deadline <= 0 else cdf(pmf, deadline)


def agrees(pmf, spec, atol=1e-12, slack=1e-8):
    """Whether a shipped pmf is ``spec`` with atoms moved by at most ``slack``
    (its 9-decimal rounding) and ``F`` off by at most ``atol``: ``F`` is
    compared at every atom of either side and halfway between neighbours."""
    atoms = sorted(spec)
    below = [0.0, *itertools.accumulate(spec[x] for x in atoms)]
    points = sorted(atoms + pmf.values.tolist())
    probes = points + [(a + b) / 2 for a, b in zip(points, points[1:])] + [points[-1] + 1]
    return all(
        below[bisect.bisect_right(atoms, t - slack + TOLERANCE)] - atol
        <= pmf.cdf(t)
        <= below[bisect.bisect_right(atoms, t + slack + TOLERANCE)] + atol
        for t in probes
    )
