"""Online response-time estimation (paper §5.3.1).

Builds, per replica, the pmf of the response time

    R_i = S_i + W_i + T_i

from the repository's sliding windows: the pmfs of ``S_i`` (service time)
and ``W_i`` (queuing delay) are the relative frequencies of the window
contents, and ``T_i`` (two-way gateway delay) enters as its most recent
measured value.  ``F_{R_i}(t)`` is then read off the convolved pmf.

Computing the distribution is ~90 % of the selection cost the paper
reports in Fig. 3, and between two requests only the replicas that
answered the last one have new measurements.  The estimator therefore
keeps **one entry per replica** — the record it was derived from and
the final pmf — under **one rule**: an entry is current iff the
repository's change log has not named its replica since the entry was
derived and its record is still the one the repository tracks.  The
stale entries of one derivation are rebuilt from their windows together:
their ``S_i ⊛ W_i`` pairs go to :func:`batch_convolve` in one call, so
several lattice pairs share one padded FFT.  A stale row pays only for
what changed: a window whose counts did not change hands back the pmf it
built last, and at an idle queue (``W_i = {0}``) ``S_i ⊛ W_i`` is the
``S_i`` pmf itself.
:class:`QueueScaledEstimator` scales ``W_i`` off the lattice, so its
stale rows share one call of the exact pairwise kernel; each row's
``+ T_i``, check and row write stay per row.

:meth:`ResponseTimeEstimator.batch_probability_by` answers
``F_{R_i}(t)`` for *all* replicas from the vector of ``F`` kept at the
deadline last asked: only the rows of replicas the change log names are
rewritten between calls, and each is read off its own pmf by
:meth:`DiscretePMF.cdf` (one binary search on the atoms).  The engine
asks one estimator at one deadline for its whole life, so a selection
costs work proportional to the rows that changed — Fig. 3's ``δ``
collapses, loosening Algorithm 1's ``t − δ``; another deadline reads
every row.
:meth:`ResponseTimeEstimator.invalidate` forgets every entry; calling it
before each selection is the uncached arm of ``BENCH_estimator.json``.
docs/PERFORMANCE.md §1–2 has the details.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .distribution import BIN_WIDTH_MS, DiscretePMF, batch_convolve
from .repository import InformationRepository, ReplicaRecord

__all__ = ["ResponseTimeEstimator", "QueueScaledEstimator"]


def _reads_f(deadline_ms: float) -> bool:
    """Whether ``F`` is read at ``deadline_ms``: a deadline ``<= 0`` is
    answered 0.0 without it, and a NaN one is refused (``ValueError``)."""
    if not deadline_ms >= -math.inf:  # (NaN fails every comparison)
        raise ValueError(f"deadline must be a number, got {deadline_ms}")
    return deadline_ms > 0


class _Entry(NamedTuple):
    """What an estimator remembers about one replica."""

    record: ReplicaRecord  # the one ``pmf`` was read from
    pmf: DiscretePMF  # S_i + W_i + T_i
    derived_at: int  # repository version ``pmf`` reflects


class _BatchState:
    """The view of one replica tuple's entries, one row per replica.

    Row ``i`` holds ``pmfs[i]``; rows in ``missing`` have no history
    (``pmfs[i] is None``).  Everything reflects the repository as of
    ``version``; a new state has no history in any row.  ``probabilities``
    is ``F_{R_i}(deadline)`` per row as last read (``None`` for a missing
    row): stale for the ``unread`` rows (written since), for all while
    ``deadline`` is ``None``.
    """

    def __init__(self, replicas: Tuple[str, ...]) -> None:
        count = len(replicas)
        self.replicas = replicas
        self.version = 0
        self.rows = {name: row for row, name in enumerate(replicas)}
        self.pmfs: List[Optional[DiscretePMF]] = [None] * count
        self.missing = set(range(count))
        self.deadline: Optional[float] = None
        self.probabilities: List[Optional[float]] = [None] * count
        self.unread: Set[int] = set()

    def write_row(self, row: int, pmf: Optional[DiscretePMF]) -> None:
        """Make ``pmf`` row ``row``'s, to be read at the next deadline."""
        if pmf is None:
            self.missing.add(row)
        else:
            self.missing.discard(row)
        self.pmfs[row] = pmf
        self.unread.add(row)

    def read_probabilities(self, deadline: float) -> int:
        """Bring ``probabilities`` to ``F(deadline)``; returns the rows read:
        all, or at the held deadline the ``unread`` ones, each off its own
        pmf (:meth:`DiscretePMF.cdf`)."""
        pmfs, probabilities = self.pmfs, self.probabilities
        rows = self.unread if deadline == self.deadline else range(len(pmfs))
        read = len(rows)
        for row in rows:
            pmf = pmfs[row]
            probabilities[row] = None if pmf is None else pmf.cdf(deadline)
        self.deadline = deadline
        self.unread.clear()
        return read


class ResponseTimeEstimator:
    """Estimates ``F_{R_i}(t)`` for the replicas in a repository.

    Parameters
    ----------
    repository:
        The gateway information repository to read measurements from.
    bin_width_ms:
        Quantization grid of the empirical pmfs.  The paper convolves raw
        measured values; the one lattice, :data:`BIN_WIDTH_MS` (1 ms),
        keeps the convolution support bounded while staying well below the
        deadline scales of interest.  Any other value is refused.
    """

    def __init__(
        self, repository: InformationRepository, bin_width_ms: float = BIN_WIDTH_MS
    ) -> None:
        if not math.isclose(bin_width_ms, BIN_WIDTH_MS):
            raise ValueError(
                f"bin_width_ms must be the {BIN_WIDTH_MS} ms lattice, "
                f"got {bin_width_ms}"
            )
        self.repository = repository
        self._entries: Dict[str, _Entry] = {}
        # The array view of the entries for the replica tuple last asked
        # about (see _synced_batch).
        self._batch: Optional[_BatchState] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.batch_builds = 0
        self.rows_patched = 0
        self.rows_evaluated = 0

    # -- model construction ----------------------------------------------------
    def response_time_pmf(self, replica: str) -> Optional[DiscretePMF]:
        """The pmf of ``R_i`` for ``replica``; ``None`` without history."""
        return self._derive([replica])[0]

    def _derive(self, replicas: Sequence[str]) -> List[Optional[DiscretePMF]]:
        """Current pmfs of ``replicas`` — the one place the rule is applied.

        Entries the rule finds stale (or that do not exist yet) are
        re-derived together and stamped with the repository version they
        now reflect; the others are served as they are.  Only mutations
        routed through the repository/record APIs reach the change log —
        the only paths production code uses.
        """
        repository, entries = self.repository, self._entries
        records = [repository.record(name) for name in replicas]
        stale: Dict[str, ReplicaRecord] = {}
        for record in records:
            entry = entries.get(record.name)
            if entry is not None and entry.record is not record:
                # Left and re-joined: the entry describes a record the
                # repository no longer holds.
                del entries[record.name]
                entry = None
            if entry is not None and (
                repository.changed_at(record.name) <= entry.derived_at
            ):
                self.cache_hits += 1
            elif record.has_history:
                stale[record.name] = record
        self.cache_misses += len(stale)
        rebuilt = list(stale.values())
        for record, base in zip(rebuilt, self._sums(rebuilt)):
            entries[record.name] = _Entry(
                record,
                # (The one sign/mass check a re-derived row pays.)
                self._add_gateway_delay(record, base).validated(),
                repository.version,
            )
        # (Only a record with history has an entry.)
        return [
            None if (entry := entries.get(record.name)) is None else entry.pmf
            for record in records
        ]

    def _sums(self, records: Sequence[ReplicaRecord]) -> List[DiscretePMF]:
        """``S_i + W_i`` of each record, all pairs in one
        :func:`batch_convolve` call: a fleet-wide measurement burst costs
        one array kernel, not ``n`` ``O(L²)`` products."""
        return batch_convolve(
            [(record.service_times.pmf(), self._queue_pmf(record)) for record in records]
        )

    def _queue_pmf(self, record: ReplicaRecord) -> DiscretePMF:
        """The pmf of ``W_i`` — the part of the model variants override."""
        return record.queue_delays.pmf()

    def _add_gateway_delay(
        self, record: ReplicaRecord, base: DiscretePMF
    ) -> DiscretePMF:
        """``base + T_i``: a point shift, or (§5.3.1 extension) a
        convolution with the gateway-delay window's empirical pmf."""
        if record.gateway_delays is not None and len(record.gateway_delays):
            return base.convolve(record.gateway_delays.pmf())
        assert record.gateway_delay_ms is not None  # guarded by has_history
        return base.shift(record.gateway_delay_ms)

    # -- queries -----------------------------------------------------------
    def probability_by(self, replica: str, deadline_ms: float) -> Optional[float]:
        """``F_{R_i}(deadline)`` — probability the reply arrives in time.

        Returns ``None`` when the replica has no usable history (the
        caller then falls back to the paper's select-all bootstrap).
        """
        read = _reads_f(deadline_ms)
        pmf = self.response_time_pmf(replica)
        if pmf is None:
            return None
        return pmf.cdf(deadline_ms) if read else 0.0

    def batch_probability_by(
        self, replicas: Sequence[str], deadline_ms: float
    ) -> List[Optional[float]]:
        """``F_{R_i}(deadline)`` for ``replicas`` in one vectorized pass.

        Per-replica entries are ``None`` without history, exactly as
        :meth:`probability_by`.  :meth:`_synced_batch` re-derives the
        rows whose replicas changed since the last call and evaluation —
        the hot path of ``DynamicSelectionPolicy`` — reads ``F`` off
        those rows' pmfs alone (every row at another deadline than the
        last); the other rows answer the ``F`` kept from the last call.
        """
        read = _reads_f(deadline_ms)
        state = self._synced_batch(replicas)
        if read:
            self.rows_evaluated += state.read_probabilities(float(deadline_ms))
            return list(state.probabilities)
        results: List[Optional[float]] = [0.0] * len(state.pmfs)
        for row in state.missing:
            results[row] = None
        return results

    def _synced_batch(self, replicas: Sequence[str]) -> _BatchState:
        """The batch state for ``replicas``, brought up to date.

        Rows of replicas the change log names since the version the
        state reflects are re-read from their entries; a membership
        change, another replica tuple or :meth:`invalidate` re-reads
        every row (entries of retained replicas stay current, so only
        the rows that have to be are re-derived).
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
            if state.version == version:
                return state
            changed = self.repository.changed_since(state.version)
        if state is None or changed is None:
            self._entries = {  # forget the replicas that left
                name: entry
                for name, entry in self._entries.items()
                if name in self.repository
            }
            state = self._batch = _BatchState(key)
            for row, pmf in enumerate(self._derive(key)):
                if pmf is not None:
                    state.write_row(row, pmf)
            self.batch_builds += 1
        else:
            rows = state.rows
            dirty = sorted(rows[name] for name in changed if name in rows)
            # Rows the log does not name are served without a look.
            self.cache_hits += len(key) - len(state.missing) - sum(
                state.pmfs[row] is not None for row in dirty
            )
            for row, pmf in zip(dirty, self._derive([key[row] for row in dirty])):
                if pmf is not state.pmfs[row]:
                    state.write_row(row, pmf)
                    self.rows_patched += 1
        state.version = version
        return state

    def expected_response_time(self, replica: str) -> Optional[float]:
        """Mean of the modeled response time (used by mean-based baselines)."""
        pmf = self.response_time_pmf(replica)
        if pmf is None:
            return None
        return pmf.mean()

    # -- cache control -------------------------------------------------------
    def invalidate(self) -> None:
        """Forget every derived pmf."""
        self._entries.clear()
        self._batch = None

    def cache_info(self) -> Dict[str, int]:
        """Counters of the per-replica entries and the batch state.

        ``hits`` counts rows and queries served without re-derivation,
        ``misses`` re-derivations; ``batch_builds`` whole-state
        (re)builds, ``rows_patched`` rows rewritten in a state that was
        kept, ``rows_evaluated`` rows ``F`` was read off.
        """
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._entries),
            "batch_builds": self.batch_builds,
            "rows_patched": self.rows_patched,
            "rows_evaluated": self.rows_evaluated,
        }

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} bin={BIN_WIDTH_MS}ms "
            f"replicas={len(self.repository)}>"
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

    def _queue_pmf(self, record: ReplicaRecord) -> DiscretePMF:
        """The window's ``W_i`` pmf scaled by the depth ratio (as it is when
        the window's mean service time is 0: then ``S_i = {0}``)."""
        queue_pmf = record.queue_delays.pmf()
        mean_service = record.service_times.pmf().mean()
        if mean_service > 0:
            implied_hist_depth = queue_pmf.mean() / mean_service
            factor = (record.queue_length + 1.0) / (implied_hist_depth + 1.0)
            queue_pmf = queue_pmf.scale(factor)
        return queue_pmf
