"""Unit tests for the gateway information repository."""

import math

import pytest

from repro.core.repository import InformationRepository, ReplicaRecord, SlidingWindow


class TestSlidingWindow:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_appends_until_capacity(self):
        window = SlidingWindow(3)
        for value in (1.0, 2.0, 3.0):
            window.append(value)
        assert window.values() == [1.0, 2.0, 3.0]
        assert len(window) == window.size

    def test_oldest_evicted_when_full(self):
        window = SlidingWindow(3)
        for value in (1.0, 2.0, 3.0, 4.0):
            window.append(value)
        assert window.values() == [2.0, 3.0, 4.0]

    def test_negative_measurement_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindow(3).append(-1.0)

    def test_version_bumps_on_append(self):
        window = SlidingWindow(3)
        v0 = window.version
        window.append(1.0)
        assert window.version == v0 + 1

    def test_pmf_tracks_eviction(self):
        window = SlidingWindow(2)
        for value in (10.0, 20.0, 30.0):
            window.append(value)
        assert window.pmf().items() == [(20.0, 0.5), (30.0, 0.5)]

    def test_counts_maintained_under_eviction(self):
        window = SlidingWindow(3)
        for value in (0.6, 1.2, 2.4):
            window.append(value)
        assert window.counts() == {1.0: 2, 2.0: 1}
        window.append(3.1)  # evicts 0.6
        assert window.counts() == {1.0: 1, 2.0: 1, 3.0: 1}
        window.append(2.2)  # evicts 1.2
        assert window.counts() == {2.0: 2, 3.0: 1}

    def test_pmf_on_empty_window_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindow(3).pmf()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_a_refused_value_changes_nothing(self, bad):
        window = SlidingWindow(2)
        for value in (1.0, 2.0):
            window.append(value)
        pmf = window.pmf()
        with pytest.raises(ValueError, match="finite|>= 0"):
            window.append(bad)
        assert window.values() == [1.0, 2.0] and window.version == 2
        assert window.counts() == {1.0: 1, 2.0: 1}
        assert window.pmf() is pmf

    def test_a_push_into_its_evictee_bin_keeps_the_pmf(self):
        window = SlidingWindow(2)
        for value in (1.0, 2.0):
            window.append(value)
        pmf = window.pmf()
        window.append(1.3)  # evicts 1.0: the same bin
        assert window.version == 3 and window.pmf() is pmf
        window.append(5.0)  # evicts 2.0
        assert window.pmf().items() == [(1.0, 0.5), (5.0, 0.5)]


class TestReplicaRecord:
    def test_no_history_initially(self):
        record = ReplicaRecord("r1", window_size=5)
        assert not record.has_history

    def test_history_needs_all_three_sources(self):
        record = ReplicaRecord("r1", window_size=5)
        record.record_performance(100.0, 5.0, 1, now_ms=0.0)
        assert not record.has_history  # gateway delay still missing
        record.record_gateway_delay(3.0, now_ms=1.0)
        assert record.has_history

    def test_negative_gateway_delay_clamped(self):
        record = ReplicaRecord("r1", window_size=5)
        record.record_gateway_delay(-0.4, now_ms=0.0)
        assert record.gateway_delay_ms == 0.0

    def test_negative_queue_length_rejected(self):
        record = ReplicaRecord("r1", window_size=5)
        with pytest.raises(ValueError):
            record.record_performance(1.0, 1.0, -1, now_ms=0.0)

    def test_a_new_record_has_an_empty_queue_and_no_history(self):
        record = ReplicaRecord("r1", window_size=5)
        assert record.queue_length == 0
        assert record.staleness(5.0) == math.inf
        record.record_gateway_delay(0.5, now_ms=0.0)
        assert record.gateway_delay_ms == 0.5  # only a negative delay is clamped
        assert not record.has_history
        record.queue_delays.append(1.0)  # a direct write: still no service time
        assert not record.has_history

    def test_reprs_name_what_they_hold(self):
        repo = InformationRepository(window_size=3)
        repo.record_performance("r1", 4.0, 0.0, 2, now_ms=1.0)
        record = repo.record("r1")
        assert repr(repo) == "<InformationRepository replicas=1 l=3>"
        assert repr(record.service_times) == "<SlidingWindow 1/3>"
        assert repr(record) == "<ReplicaRecord 'r1' qlen=2 T=None history=False>"

    @pytest.mark.parametrize(
        "service, queue, depth",
        [
            (6.0, -1.0, 0),
            (6.0, math.nan, 0),
            (6.0, math.inf, 0),
            (math.nan, 1.0, 0),
            (-math.inf, 1.0, 0),
            (6.0, 1.0, -1),
            (6.0, 1.0, math.nan),
        ],
    )
    def test_a_refused_update_leaves_the_record_as_it_was(self, service, queue, depth):
        repo = InformationRepository(window_size=3)
        repo.record_performance("r1", 4.0, 0.0, 2, now_ms=1.0)
        record, version = repo.record("r1"), repo.version
        with pytest.raises(ValueError):
            repo.record_performance("r1", service, queue, depth, now_ms=9.0)
        assert record.service_times.values() == [4.0]
        assert record.queue_delays.values() == [0.0]
        assert (record.queue_length, record.last_update_ms) == (2, 1.0)
        assert repo.version == version and repo.changed_since(version) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_gateway_delay_is_refused_before_any_write(self, bad):
        record = ReplicaRecord("r1", window_size=5, gateway_window_size=3)
        record.record_gateway_delay(2.0, now_ms=1.0)
        with pytest.raises(ValueError, match="finite"):
            record.record_gateway_delay(bad, now_ms=9.0)
        assert record.gateway_delay_ms == 2.0
        assert record.gateway_delays.values() == [2.0]
        assert record.last_update_ms == 1.0

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_only_a_finite_negative_gateway_delay_is_clamped(self, bad):
        # -inf is no clock-arithmetic dust: refused like +inf, not stored as 0.
        repo = InformationRepository(window_size=3, gateway_window_size=3)
        repo.record_gateway_delay("r1", 2.0, now_ms=1.0)
        record, version = repo.record("r1"), repo.version
        with pytest.raises(ValueError, match="finite"):
            repo.record_gateway_delay("r1", bad, now_ms=9.0)
        assert record.gateway_delay_ms == 2.0
        assert record.gateway_delays.values() == [2.0]
        assert record.last_update_ms == 1.0
        assert repo.version == version and repo.changed_since(version) == []
        repo.record_gateway_delay("r1", -1e300, now_ms=9.0)  # finite: clamped
        assert record.gateway_delays.values() == [2.0, 0.0]

    def test_a_minus_zero_gateway_delay_is_stored_as_zero(self):
        record = ReplicaRecord("r1", window_size=5)
        record.record_gateway_delay(-0.0, now_ms=0.0)
        assert math.copysign(1.0, record.gateway_delay_ms) == 1.0


class TestInformationRepository:
    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            InformationRepository(window_size=0)

    def test_add_is_idempotent(self):
        repo = InformationRepository()
        first = repo.add_replica("r1")
        assert repo.add_replica("r1") is first
        assert len(repo) == 1

    def test_remove_is_idempotent(self):
        repo = InformationRepository()
        repo.add_replica("r1")
        repo.remove_replica("r1")
        repo.remove_replica("r1")
        assert "r1" not in repo

    def test_record_unknown_replica_raises(self):
        with pytest.raises(KeyError):
            InformationRepository().record("ghost")

    def test_replicas_sorted(self):
        repo = InformationRepository()
        for name in ("r3", "r1", "r2"):
            repo.add_replica(name)
        assert repo.replicas() == ["r1", "r2", "r3"]

    def test_sync_members_adds_and_drops(self):
        repo = InformationRepository()
        repo.add_replica("r1")
        repo.add_replica("r2")
        repo.sync_members(["r2", "r3"])
        assert repo.replicas() == ["r2", "r3"]

    def test_sync_preserves_existing_history(self):
        repo = InformationRepository()
        repo.record_performance("r1", 100.0, 5.0, 1, now_ms=0.0)
        repo.record_gateway_delay("r1", 3.0, now_ms=0.0)
        repo.sync_members(["r1", "r2"])
        assert repo.record("r1").has_history
        assert not repo.record("r2").has_history

    def test_windows_use_configured_size(self):
        repo = InformationRepository(window_size=2)
        for i in range(5):
            repo.record_performance("r1", float(i), 0.0, 0, now_ms=float(i))
        assert repo.record("r1").service_times.values() == [3.0, 4.0]


class TestChangeLog:
    """``changed_since``: which replicas moved after a given version."""

    def _repo(self, *names):
        repo = InformationRepository()
        for name in names:
            repo.add_replica(name)
        return repo

    def test_names_every_kind_of_record_write_most_recent_first(self):
        repo = self._repo("r1", "r2", "r3")
        start = repo.version
        repo.record_performance("r1", 10.0, 1.0, 0, now_ms=0.0)
        repo.record_gateway_delay("r2", 3.0, now_ms=0.0)
        repo.record("r3").queue_length = 4  # a probe reply's direct write
        assert repo.changed_since(start) == ["r3", "r2", "r1"]
        repo.record_gateway_delay("r1", 3.0, now_ms=1.0)
        assert repo.changed_since(start) == ["r1", "r3", "r2"]  # once each

    def test_a_new_repository_has_seen_nothing(self):
        repo = InformationRepository(gateway_window_size=1)
        assert (repo.version, repo.window_size, len(repo)) == (0, 5, 0)
        assert repo.changed_since(0) == []

    def test_a_rejoined_replica_has_no_change_since_it_joined(self):
        repo = self._repo("r1")
        repo.record_gateway_delay("r1", 3.0, now_ms=0.0)
        assert repo.changed_at("r1") == repo.version
        repo.remove_replica("r1")
        assert "r1" not in repo
        repo.add_replica("r1")
        assert "r1" in repo
        assert repo.changed_at("r1") == 0 and repo.changed_at("r9") == 0

    def test_is_a_query_not_a_drain(self):
        repo = self._repo("r1", "r2")
        start = repo.version
        repo.record_gateway_delay("r1", 3.0, now_ms=0.0)
        middle = repo.version
        repo.record_gateway_delay("r2", 3.0, now_ms=0.0)
        # Two consumers at different versions, asked repeatedly.
        for _ in range(2):
            assert repo.changed_since(start) == ["r2", "r1"]
            assert repo.changed_since(middle) == ["r2"]
            assert repo.changed_since(repo.version) == []

    @pytest.mark.parametrize(
        "change",
        [
            lambda repo: repo.add_replica("r9"),
            lambda repo: repo.remove_replica("r1"),
            lambda repo: repo.sync_members(["r2"]),
            lambda repo: repo.record_performance("r9", 1.0, 1.0, 0, now_ms=0.0),
        ],
        ids=["add", "remove", "sync", "first-push"],
    )
    def test_membership_change_asks_for_a_full_rebuild(self, change):
        repo = self._repo("r1", "r2")
        start = repo.version
        change(repo)
        assert repo.changed_since(start) is None
        assert repo.changed_since(repo.version) == []

    @pytest.mark.parametrize(
        "evict",
        [
            lambda repo: repo.remove_replica("r1"),
            lambda repo: repo.sync_members(["r2"]),
        ],
        ids=["remove_replica", "sync_members"],
    )
    def test_leaver_is_dropped_from_the_log(self, evict):
        repo = self._repo("r1", "r2")
        leaver = repo.record("r1")
        repo.record_gateway_delay("r1", 3.0, now_ms=0.0)
        repo.record_gateway_delay("r2", 3.0, now_ms=0.0)
        evict(repo)
        after = repo.version
        # A late write through the evicted record's handle is not a change
        # to anything the repository tracks: no version bump, no entry.
        leaver.queue_length = 7
        assert repo.version == after
        assert repo.changed_since(after) == []
        # Re-joining is a membership change, not a row change.
        repo.add_replica("r1")
        assert repo.changed_since(after) is None
        assert repo.changed_since(repo.version) == []
