"""Pinned bits: the exact arrays the pmf kernels and the estimator produce.

The pinned experiment digests sit on the last bits of every pmf — a
batched FFT's size, a rounding, which kernel a pair takes — and the
§5.3 specification (``spec_model.py``) checks the arithmetic only to
1e-12.  This file holds those bits still: fixed seeded chains through
each kernel, and one fixed walk of the batch state per estimator
configuration, are hashed (sha256 of ``values`` / ``probs`` /
``cumulative_probs()`` and the lattice tag of every pmf, the float64
bytes of every ``F``).  A change that moves a single bit of any of them
fails here in a second, before the 50 s digest run.  The literals are
the bits the pinned digests were taken on; a change that means to move
them must say so.
"""

import hashlib

import numpy as np
import pytest

from repro.core.distribution import DiscretePMF, SampleCounts, _pairwise, batch_convolve
from repro.core.estimator import QueueScaledEstimator, ResponseTimeEstimator
from repro.core.repository import InformationRepository

PINNED = {
    "window": "fc02ad4a01959011",
    "shift": "92602962ea99ad87",
    "scale": "7edeb9c1f0053f72",
    "singleton": "b67ffecc89de69c3",
    "lattice_direct": "ad5574bf06b70a21",
    "lattice_fft": "aee2cd540b2803d4",
    "pairwise": "821abd521790bf81",
    "pairwise_many": "adeed30d43d1aeb0",
    "batch": "db6e2d67fed3c0a1",
    "walk_base": "d42baa694ecc0588",
    "walk_gateway_window": "451915a3bae551ab",
    "walk_queue_scaled": "1a0f0284c06b709a",
}


def digest(items):
    """sha256 (16 hex digits) over pmfs and float arrays, in order."""
    sha = hashlib.sha256()
    for item in items:
        if isinstance(item, DiscretePMF):
            sha.update(b"L" if item._lattice else b"U")
            for array in (item.values, item.probs, item.cumulative_probs()):
                sha.update(array.tobytes())
        else:
            sha.update(np.asarray(item, dtype=float).tobytes())
    return sha.hexdigest()[:16]


def samples(seed, count, spread, jitter=0.45):
    """``count`` measurements within ``spread`` ms of 20, off the lattice."""
    rng = np.random.default_rng(seed)
    return (20 + rng.integers(0, spread, count) + rng.uniform(-jitter, jitter, count)).tolist()


def window(seed, count, spread):
    return DiscretePMF.from_samples(samples(seed, count, spread))


def spanning(seed, span, count=8):
    """A window pmf whose atoms span exactly ``span`` lattice slots."""
    inner = samples(seed, count, span, jitter=0.0)
    return DiscretePMF.from_samples([20.0, 20.0 + span] + inner)


def chain_window():
    out = [window(seed, count, 30) for seed, count in ((1, 1), (2, 5), (3, 60))]
    counter, held = SampleCounts(), []
    for sample in samples(4, 40, 12):
        counter.replace(sample, held.pop(0) if len(held) == 6 else None)
        held.append(sample)
        out.append(counter.pmf())
    return out


def chain_shift():
    base = window(5, 20, 40)
    deltas = (0.0, 3.0, -2.5, 0.734, 1.23456789012, 1e-10, 123456.789)
    return [base.shift(delta) for delta in deltas] + [base.shift(0.734).shift(-0.734)]


def chain_scale():
    base = window(6, 20, 40).shift(0.734)
    factors = (0.0, 0.5, 1.0, 1.3, 2.0, 8.0 / 3.0, 1e-3)
    return [base.scale(factor) for factor in factors]


def chain_singleton():
    pmf, single = window(7, 9, 12).shift(0.25), DiscretePMF.from_samples([3.0] * 4)
    constant = DiscretePMF.degenerate(2.5)
    pairs = ((pmf, single), (single, pmf), (single, single), (pmf, constant),
             (constant, pmf), (constant, single), (pmf.scale(1.3), constant))
    return [a.convolve(b) for a, b in pairs]


def chain_lattice_direct():
    out = [window(8, 5, 9).convolve(window(9, 5, 9).shift(0.25))]
    out.append(window(10, 20, 40).convolve(window(11, 20, 40)))
    out.append(spanning(12, 62).convolve(spanning(13, 100)))  # 63 slots: direct
    sparse = DiscretePMF.from_samples([0.0, 7.0, 30.0])
    return out + [sparse.convolve(sparse), out[1].convolve(out[0])]


def chain_lattice_fft():
    a, b = window(14, 60, 200).shift(0.734), window(15, 60, 300)
    first = a.convolve(b)
    out = [first, first.convolve(a), first.convolve(a).shift(0.5)]
    out.append(spanning(16, 63).convolve(spanning(17, 63)))  # 64 slots: FFT
    sparse = DiscretePMF.from_samples([0.0, 70.0, 300.0])
    return out + [sparse.convolve(sparse.shift(1.5))]


def chain_pairwise():
    tagged = window(18, 6, 30).shift(0.25)
    scaled, doubled = tagged.scale(1.3), tagged.scale(2.0)
    outside = DiscretePMF(tagged.values, tagged.probs)
    pairs = ((tagged, scaled), (scaled, scaled), (tagged, doubled), (tagged, outside),
             (DiscretePMF([0.0, 0.3, 1.7], [0.2, 0.5, 0.3]), outside))
    return [a.convolve(b) for a, b in pairs]


def chain_pairwise_many():
    """Untagged pairs of unequal widths in one kernel call; the literal is
    each pair's own one-pair convolution, taken before there was a batch."""
    a, b, c, d = (window(seed, count, spread) for seed, count, spread in
                  ((41, 3, 6), (42, 6, 12), (43, 12, 30), (44, 30, 60)))
    return batch_convolve([
        (a, b.scale(0.5)), (b.scale(1.0), c), (c.shift(0.25), d.scale(2.0)),
        (d.scale(1.3), a.scale(0.5)), (a.scale(2.0), b.scale(1.0)),
        (DiscretePMF([0.0, 0.3, 1.7], [0.2, 0.5, 0.3]), d),
    ])


def chain_batch():
    pairs = [(window(seed, 5, 9), window(seed + 1, 5, 9).shift(0.25))
             for seed in range(20, 28, 2)]
    pairs += [(window(30, 60, 150), window(31, 60, 90)), (window(32, 5, 9), window(33, 1, 1))]
    pairs += [(spanning(34, 63), spanning(35, 10)), (window(36, 5, 9), DiscretePMF([0.0, 0.3], [0.5, 0.5]))]
    results = batch_convolve(pairs)
    untagged = _pairwise([pairs[-1]])[0]  # the pairwise row is its own call
    assert results[-1].values.tobytes() == untagged.values.tobytes()
    assert results[-1].probs.tobytes() == untagged.probs.tobytes()
    # 64 + 65 slots: 128 outputs, exactly one transform size.
    edge = [(spanning(37, 63), spanning(38, 64)), (window(39, 5, 9), window(40, 5, 9))]
    return results[:-1] + batch_convolve(pairs[:2]) + batch_convolve(edge)


def walk(estimator_cls, gateway_window):
    """Every ``F`` and pmf of one fixed walk of the batch state."""
    rng = np.random.default_rng(40)
    repo = InformationRepository(4, gateway_window_size=gateway_window)
    estimator, names, out = estimator_cls(repo), ["r1", "r2", "r3", "r4"], []

    def push(name):
        service, queue = max(0.0, rng.normal(100.0, 30.0)), rng.exponential(10.0)
        repo.record_performance(name, service, queue, int(rng.integers(0, 4)), now_ms=0.0)

    def ask(replicas, deadline):
        answer = estimator.batch_probability_by(replicas, deadline)
        out.append([np.nan if p is None else p for p in answer])

    for name in names:
        push(name)
        repo.record_gateway_delay(name, rng.uniform(0.0, 8.0), now_ms=0.0)
    for _ in range(150):
        name, kind = names[int(rng.integers(0, 4))], int(rng.integers(0, 12))
        deadline = [120.5, 120.5, 120.5, 90.0, 150.0, 0.0][int(rng.integers(0, 6))]
        if kind < 3:
            push(name)
        elif kind == 3:
            for other in names:  # a burst: several stale rows, one batched FFT
                push(other)
        elif kind == 4:
            repo.record_gateway_delay(name, rng.uniform(0.0, 8.0), now_ms=0.0)
        elif kind == 5 and name in repo:
            repo.record(name).queue_length = int(rng.integers(0, 6))
        elif kind == 6 and name in repo and len(repo) > 2:
            repo.remove_replica(name)  # the next push re-joins it afresh
        elif kind == 7:
            estimator.invalidate()
        elif kind == 8 and name in repo:
            direct = estimator.probability_by(name, deadline)
            out.append([np.nan if direct is None else direct])
            pmf = estimator.response_time_pmf(name)
            out.extend([] if pmf is None else [pmf])
        elif kind == 9:
            ask(repo.replicas()[::-1] + repo.replicas()[:1], deadline)
        ask(repo.replicas(), deadline)
    return out


CHAINS = {
    "window": chain_window,
    "shift": chain_shift,
    "scale": chain_scale,
    "singleton": chain_singleton,
    "lattice_direct": chain_lattice_direct,
    "lattice_fft": chain_lattice_fft,
    "pairwise": chain_pairwise,
    "pairwise_many": chain_pairwise_many,
    "batch": chain_batch,
    "walk_base": lambda: walk(ResponseTimeEstimator, None),
    "walk_gateway_window": lambda: walk(ResponseTimeEstimator, 3),
    "walk_queue_scaled": lambda: walk(QueueScaledEstimator, None),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_bits_are_pinned(name):
    assert digest(CHAINS[name]()) == PINNED[name]
