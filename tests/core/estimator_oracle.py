"""Reference estimator: the version-keyed cache pipeline, kept as the oracle.

This is ``repro.core.estimator`` as the repository shipped it before the
per-replica caches were folded into one change-log entry per replica:
a final-pmf cache keyed on ``(record, S-version, W-version, T key, bin
width[, queue length])``, an ``S ⊛ W`` cache keyed on ``(record,
S-version, W-version)``, the resident CDF matrix on the change log, and
``incremental=False`` as the from-scratch arm that rebuilds every pmf
from the raw window samples.  The class bodies are verbatim; only this
header, the imports and ``_window_pmf`` changed: every pmf here is built
by ``tests/core/distribution_oracle.py`` (the pmf algebra as shipped
before derived pmfs skipped the validating constructor), window pmfs
included — from ``window.counts()``, which is what
``SlidingWindow.pmf`` handed ``from_counts`` — so the shipped estimator
is compared against code that shares no pmf construction with it.  It
lives under ``tests/`` as the ``==`` oracle of
``tests/properties/test_resident_matrix_properties.py`` (every ``F`` and
every pmf array, bitwise) and as the from-scratch reference of the
estimator unit tests.

One known defect is kept on purpose: ``QueueScaledEstimator`` ignores a
gateway-delay window (it point-shifts by the last ``T_i``); the shipped
class no longer does, so that pairing is not compared against this file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.repository import InformationRepository, ReplicaRecord, SlidingWindow

from .distribution_oracle import DiscretePMF, batch_convolve

__all__ = ["ResponseTimeEstimator", "QueueScaledEstimator"]

# (record, S version, W version): the record itself is part of the key
# because a replica that leaves and re-joins gets a fresh record whose
# window versions restart at 0 and may collide with the old ones.
_ConvKey = Tuple[ReplicaRecord, int, int]


def _conv_key(record: ReplicaRecord) -> _ConvKey:
    return (record, record.service_times.version, record.queue_delays.version)


class _BatchState:
    """The resident CDF matrix of one replica tuple, one row per replica.

    Row ``i`` holds ``pmfs[i]``'s support in ``values[i, :sizes[i]]``
    (padded with ``inf``) and its running sum in ``cumulative`` (padded
    with 1); rows in ``missing`` have no history (``pmfs[i] is None``)
    and are all padding.  Everything reflects the repository as of
    ``version``.  A new state has no history in any row.
    """

    def __init__(self, replicas: Tuple[str, ...], width: int) -> None:
        count = len(replicas)
        self.replicas = replicas
        self.version = 0
        self.rows = {name: row for row, name in enumerate(replicas)}
        self.pmfs: List[Optional[DiscretePMF]] = [None] * count
        self.missing = set(range(count))
        self.values: npt.NDArray[np.float64] = np.full((count, width), np.inf)
        self.cumulative: npt.NDArray[np.float64] = np.ones((count, width))
        self.tolerances: npt.NDArray[np.float64] = np.zeros(count)
        self.sizes: npt.NDArray[np.intp] = np.zeros(count, dtype=np.intp)

    def write_row(self, row: int, pmf: Optional[DiscretePMF]) -> None:
        """Overwrite ``row`` with ``pmf``, widening the matrix if needed."""
        size = 0 if pmf is None else pmf.support_size
        grow = size - self.values.shape[1]
        if grow > 0:
            self.values = np.pad(
                self.values, ((0, 0), (0, grow)), constant_values=np.inf
            )
            self.cumulative = np.pad(
                self.cumulative, ((0, 0), (0, grow)), constant_values=1.0
            )
        self.values[row, size:] = np.inf
        self.cumulative[row, size:] = 1.0
        if pmf is None:
            self.missing.add(row)
        else:
            self.missing.discard(row)
            self.values[row, :size] = pmf.values
            self.cumulative[row, :size] = pmf.cumulative_probs()
            self.tolerances[row] = pmf.dust_tolerance()
        self.sizes[row] = size
        self.pmfs[row] = pmf


class ResponseTimeEstimator:
    """Estimates ``F_{R_i}(t)`` for the replicas in a repository.

    Parameters
    ----------
    repository:
        The gateway information repository to read measurements from.
    bin_width_ms:
        Quantization grid for the empirical pmfs.  The paper convolves raw
        measured values; a 1 ms grid keeps the convolution support bounded
        while staying well below the deadline scales of interest.
    incremental:
        When ``True`` (default) the versioned-window cache pipeline is
        active.  ``False`` rebuilds every pmf from the raw window samples
        on every (non-memoized) call — the paper's original cost model,
        kept for the Fig. 3 uncached baseline and for the property tests
        that check the cached path against a from-scratch rebuild.
    """

    def __init__(
        self,
        repository: InformationRepository,
        bin_width_ms: float = 1.0,
        incremental: bool = True,
    ) -> None:
        if bin_width_ms <= 0:
            raise ValueError(f"bin_width_ms must be > 0, got {bin_width_ms}")
        self.repository = repository
        self.bin_width_ms = float(bin_width_ms)
        self.incremental = bool(incremental)
        # replica -> (cache key, final response-time pmf).
        self._cache: Dict[str, Tuple[tuple, DiscretePMF]] = {}
        # replica -> (convolution key, S ⊛ W pmf).
        self._conv_cache: Dict[str, Tuple[_ConvKey, DiscretePMF]] = {}
        # The batched F(t) evaluation's resident matrix, kept in step with
        # the repository through its change log (see _synced_batch).
        self._batch: Optional[_BatchState] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.matrix_builds = 0
        self.rows_patched = 0

    # -- model construction ----------------------------------------------------
    def response_time_pmf(self, replica: str) -> Optional[DiscretePMF]:
        """The pmf of ``R_i`` for ``replica``; ``None`` without history."""
        record = self.repository.record(replica)
        if not record.has_history:
            return None
        key = self._cache_key(record)
        cached = self._cache.get(replica)
        if cached is not None and cached[0] == key:
            self.cache_hits += 1
            return cached[1]
        self.cache_misses += 1
        pmf = self._build_pmf(record)
        self._cache[replica] = (key, pmf)
        return pmf

    def _cache_key(self, record: ReplicaRecord) -> tuple:
        """Everything the final pmf depends on (docs/PERFORMANCE.md).

        A window version bump (the repository's push) changes the key and
        therefore invalidates; so does a new ``T_i`` value — but a ``T_i``
        change alone leaves the ``S ⊛ W`` convolution cache intact.
        """
        if record.gateway_delays is not None:
            t_key: object = ("window", record.gateway_delays.version)
        else:
            t_key = ("point", record.gateway_delay_ms)
        return (*_conv_key(record), t_key, self.bin_width_ms)

    def _window_pmf(self, window: SlidingWindow) -> DiscretePMF:
        """One window's empirical pmf, via the incremental path when on."""
        width = self.bin_width_ms
        if self.incremental:
            return DiscretePMF.from_counts(window.counts(), bin_width=width)
        return DiscretePMF.from_samples(window.values(), width)

    def _base_pmf(self, record: ReplicaRecord) -> DiscretePMF:
        """``S_i ⊛ W_i``, cached on the pair of window versions."""
        key = _conv_key(record)
        cached = self._conv_cache.get(record.name)
        if cached is not None and cached[0] == key:
            return cached[1]
        conv = self._window_pmf(record.service_times).convolve(
            self._window_pmf(record.queue_delays)
        )
        if self.incremental:
            self._conv_cache[record.name] = (key, conv)
        return conv

    def _refresh_convolutions(self, replicas: Sequence[str]) -> None:
        """Rebuild every stale ``S_i ⊛ W_i`` in one padded FFT pass.

        The per-replica convolution cache is consulted first; replicas
        whose window versions moved since the cached entry contribute one
        row each to :func:`repro.core.distribution.batch_convolve`, so a
        fleet-wide measurement burst costs one batched array kernel
        instead of ``n`` independent ``O(L²)`` products.  Rows the dense
        kernel declines (off-grid, over budget) simply stay stale and are
        rebuilt by the scalar path on first use — results are identical
        either way.
        """
        stale: List[Tuple[str, _ConvKey, DiscretePMF, DiscretePMF]] = []
        for name in replicas:
            if name not in self.repository:
                continue
            record = self.repository.record(name)
            if not record.has_history:
                continue
            key = _conv_key(record)
            cached = self._conv_cache.get(name)
            if cached is not None and cached[0] == key:
                continue
            stale.append(
                (
                    name,
                    key,
                    self._window_pmf(record.service_times),
                    self._window_pmf(record.queue_delays),
                )
            )
        if len(stale) < 2:
            return
        convolved = batch_convolve([(s, w) for _, _, s, w in stale])
        for (name, key, _, _), pmf in zip(stale, convolved):
            if pmf is not None:
                self._conv_cache[name] = (key, pmf)

    def _build_pmf(self, record: ReplicaRecord) -> DiscretePMF:
        base = self._base_pmf(record)
        # §5.3.1 extension: with a gateway-delay window, T_i enters as a
        # distribution (its own empirical pmf) rather than a point shift.
        if record.gateway_delays is not None and len(record.gateway_delays):
            return base.convolve(self._window_pmf(record.gateway_delays))
        assert record.gateway_delay_ms is not None  # guarded by has_history
        return base.shift(record.gateway_delay_ms)

    # -- queries -----------------------------------------------------------
    def probability_by(self, replica: str, deadline_ms: float) -> Optional[float]:
        """``F_{R_i}(deadline)`` — probability the reply arrives in time.

        Returns ``None`` when the replica has no usable history (the
        caller then falls back to the paper's select-all bootstrap).
        """
        pmf = self.response_time_pmf(replica)
        if pmf is None:
            return None
        if deadline_ms <= 0:
            return 0.0
        return pmf.cdf(deadline_ms)

    def probabilities_by(self, deadline_ms: float) -> Dict[str, Optional[float]]:
        """``F_{R_i}(deadline)`` for every tracked replica."""
        replicas = self.repository.replicas()
        return dict(
            zip(replicas, self.batch_probability_by(replicas, deadline_ms))
        )

    def batch_probability_by(
        self, replicas: Sequence[str], deadline_ms: float
    ) -> List[Optional[float]]:
        """``F_{R_i}(deadline)`` for ``replicas`` in one vectorized pass.

        Per-replica entries are ``None`` without history, exactly as
        :meth:`probability_by`.  Evaluation is a single comparison over
        the resident padded matrix — the hot path of
        ``DynamicSelectionPolicy`` — after :meth:`_synced_batch` has
        re-derived the rows whose replicas changed since the last call.
        """
        state = self._synced_batch(replicas)
        results: List[Optional[float]]
        if deadline_ms <= 0:
            results = [0.0] * len(state.pmfs)
        else:
            values, sizes = state.values, state.sizes
            counts = (
                values <= float(deadline_ms) + state.tolerances[:, None]
            ).sum(axis=1)
            indices = np.clip(counts - 1, 0, values.shape[1] - 1)
            probabilities = np.clip(
                state.cumulative[np.arange(sizes.size), indices], 0.0, 1.0
            )
            # Mirror the scalar cdf's exact end points.
            probabilities[counts == 0] = 0.0
            probabilities[counts >= sizes] = 1.0
            results = probabilities.tolist()
        for row in state.missing:
            results[row] = None
        return results

    def _synced_batch(self, replicas: Sequence[str]) -> _BatchState:
        """The resident matrix for ``replicas``, brought up to date.

        One invalidation rule: a row is re-derived iff the repository's
        change log names its replica since the version the matrix
        reflects; a membership change, another replica tuple,
        :meth:`invalidate` or :meth:`prune` rebuild every row.  (Only
        mutations routed through the repository/record APIs are logged —
        the only paths production code uses; mutating a window object
        directly bypasses the gate.)  Re-derivation goes through
        :meth:`_refresh_convolutions` and :meth:`response_time_pmf`, so
        the per-replica caches see the traffic a whole-fleet walk would
        give them: rows the log does not name are necessarily hits.
        ``incremental=False`` treats every row as changed on every call.
        """
        key = tuple(replicas)
        version = self.repository.version
        state = self._batch
        changed: Optional[List[str]] = None
        # (A tuple naming a replica twice has no row-by-name index: it is
        # rebuilt on every call.)
        if (
            state is not None
            and state.replicas == key
            and len(state.rows) == len(key)
        ):
            if not self.incremental:
                changed = list(key)
            elif state.version == version:
                return state
            else:
                changed = self.repository.changed_since(state.version)
        if state is None or changed is None:
            pmfs = self._derive(key)
            width = max(
                (pmf.support_size for pmf in pmfs if pmf is not None), default=1
            )
            state = self._batch = _BatchState(key, width)
            for row, pmf in enumerate(pmfs):
                if pmf is not None:
                    state.write_row(row, pmf)
            self.matrix_builds += 1
        else:
            rows = state.rows
            dirty = sorted(rows[name] for name in changed if name in rows)
            self.cache_hits += len(key) - len(state.missing) - sum(
                state.pmfs[row] is not None for row in dirty
            )
            for row, pmf in zip(dirty, self._derive([key[row] for row in dirty])):
                if pmf is not state.pmfs[row]:
                    state.write_row(row, pmf)
                    self.rows_patched += 1
        state.version = version
        return state

    def _derive(self, replicas: Sequence[str]) -> List[Optional[DiscretePMF]]:
        """Current pmfs of ``replicas``, through the per-replica caches."""
        if self.incremental and len(replicas) > 1:
            self._refresh_convolutions(replicas)
        return [self.response_time_pmf(replica) for replica in replicas]

    def expected_response_time(self, replica: str) -> Optional[float]:
        """Mean of the modeled response time (used by mean-based baselines)."""
        pmf = self.response_time_pmf(replica)
        if pmf is None:
            return None
        return pmf.mean()

    # -- cache control -------------------------------------------------------
    def invalidate(self, replica: Optional[str] = None) -> None:
        """Drop memoized pmfs (all replicas when ``replica`` is None)."""
        if replica is None:
            self._cache.clear()
            self._conv_cache.clear()
        else:
            self._cache.pop(replica, None)
            self._conv_cache.pop(replica, None)
        self._batch = None

    def prune(self, keep: Sequence[str]) -> None:
        """Drop cache entries for replicas not in ``keep`` (view changes)."""
        keep_set = set(keep)
        for name in list(self._cache):
            if name not in keep_set:
                del self._cache[name]
        for name in list(self._conv_cache):
            if name not in keep_set:
                del self._conv_cache[name]
        self._batch = None

    def cache_info(self) -> Dict[str, int]:
        """Counters of the final-pmf cache and the resident batch matrix.

        ``matrix_builds`` counts whole-matrix (re)builds, ``rows_patched``
        rows overwritten in place in a matrix that was kept.
        """
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
            "matrix_builds": self.matrix_builds,
            "rows_patched": self.rows_patched,
        }

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} bin={self.bin_width_ms}ms "
            f"replicas={len(self.repository)} incremental={self.incremental}>"
        )


class QueueScaledEstimator(ResponseTimeEstimator):
    """Extension: scale the queuing-delay pmf by the current queue depth.

    The paper's repository stores the replica's *current* queue length but
    the base model uses only the windowed queuing-delay history.  When load
    shifts faster than the window refreshes, the history lags.  This
    variant rescales the queuing-delay pmf by

        current_queue_length / mean_observed_queue_implied_length

    approximated as ``(q_now + 1) / (q_hist + 1)`` where ``q_hist`` is the
    window's mean queuing delay divided by the window's mean service time.
    It is **not** part of the paper's algorithm; it exists for the ablation
    that quantifies how much the simple windowed model leaves on the table.
    """

    def _cache_key(self, record: ReplicaRecord) -> tuple:
        # The scaled pmf also depends on the live queue depth, which can
        # change without a window version bump (e.g. probe replies).
        return super()._cache_key(record) + (record.queue_length,)

    def _refresh_convolutions(self, replicas: Sequence[str]) -> None:
        # The queue-scaled build path rescales W_i before convolving, so
        # the plain S ⊛ W convolution cache is never consulted — batching
        # it would be pure wasted work.
        return None

    def _build_pmf(self, record: ReplicaRecord) -> DiscretePMF:
        service_pmf = self._window_pmf(record.service_times)
        queue_pmf = self._window_pmf(record.queue_delays)
        mean_service = service_pmf.mean()
        if mean_service > 0:
            implied_hist_depth = queue_pmf.mean() / mean_service
            factor = (record.queue_length + 1.0) / (implied_hist_depth + 1.0)
            queue_pmf = queue_pmf.scale(factor)
        assert record.gateway_delay_ms is not None
        return service_pmf.convolve(queue_pmf).shift(record.gateway_delay_ms)
