"""Reference wire: every rule of the schedule checked on every send.

This is :meth:`FaultyTransport.send` as it read before the wire kept only
the rules in force: each send walks every rule of every family and lets
the rule's own window test reject it.  It lives under ``tests/`` as the
oracle the windowed wire is compared against, verdict for verdict and
draw for draw (``test_wire_window.py``).
"""

from __future__ import annotations

from repro.faultinject.transport import FaultyTransport
from repro.net.message import Message

__all__ = ["FullScanTransport"]


class FullScanTransport(FaultyTransport):
    """A :class:`FaultyTransport` whose every send scans the whole schedule."""

    def send(self, message: Message, group_size: int = 1) -> float:
        now = self.sim.now
        for fault in self.schedule.partitions:
            if fault.severs(now, message) and (
                fault.drop_probability >= 1.0
                or self.rng.random() < fault.drop_probability
            ):
                self.injected_partition_drops += 1
                return 0.0

        for rule in self.schedule.drops:
            if rule.matches(now, message) and (
                rule.probability >= 1.0 or self.rng.random() < rule.probability
            ):
                self.injected_drops += 1
                return 0.0

        for fault in self.schedule.degradations:
            if fault.omission_probability <= 0.0 or not fault.active(now):
                continue
            if message.sender != fault.host and message.destination != fault.host:
                continue
            if (
                fault.omission_probability >= 1.0
                or self.rng.random() < fault.omission_probability
            ):
                self.injected_degradation_drops += 1
                return 0.0

        extra = 0.0
        for rule in self.schedule.delays:
            if rule.matches(now, message):
                extra += rule.extra_ms
        if extra > 0.0:
            self.injected_delays += 1

        for rule in self.schedule.duplicates:
            if rule.matches(now, message) and (
                rule.probability >= 1.0 or self.rng.random() < rule.probability
            ):
                for _ in range(rule.copies):
                    self.injected_duplicates += 1
                    self.sim.call_in(
                        extra + rule.late_by_ms,
                        lambda m=message, g=group_size: self.inner.send(m, g),
                    )

        if extra > 0.0:
            self.sim.call_in(
                extra,
                lambda m=message, g=group_size: self.inner.send(m, g),
            )
            return extra
        self.inner.send(message, group_size=group_size)
        return 0.0
