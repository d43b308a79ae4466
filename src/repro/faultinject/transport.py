"""A fault-injecting decorator around :class:`repro.net.transport.Transport`.

:class:`FaultyTransport` exposes the same surface as the transport it
wraps (``bind``/``send``/``multicast`` plus the delivery
counters), so it can be handed to gateways, handlers and the group layer
in place of the real one.  Every outbound message is checked against the
message-level rules of a :class:`~repro.faultinject.schedule.FaultSchedule`:

* a matching :class:`DropRule` loses the message before it reaches the
  wire (the inner transport never sees it),
* matching :class:`DelayRule` extra delays are summed and the transmission
  itself is postponed by that much,
* matching :class:`DuplicateRule` entries schedule extra transmissions of
  the *same* message (same ``msg_id``) — the receiver sees duplicated,
  possibly late, copies.

Faults compose: a message can be delayed and duplicated by one schedule.
Drops win over everything (a message that was never sent cannot be late).
A send checks only the rules whose window covers its instant (one outside
matches and draws nothing), kept until the clock passes a window edge.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

from ..net.message import Message
from ..net.transport import Receiver, Transport
from ..rng import RNGManager
from .schedule import FaultSchedule

__all__ = ["FaultyTransport"]


class FaultyTransport:
    """Drop/delay/duplicate injector wrapping an inner transport.

    Parameters
    ----------
    inner:
        The real transport; performs all actual deliveries.
    streams:
        The :class:`~repro.rng.RNGManager` whose ``"faultinject.wire"``
        stream supplies the probabilistic rules' draws, keeping fault
        randomness on a named substream independent of every other
        component's draws (docs/REPRODUCIBILITY.md).

    ``schedule`` holds the rules in force: the wire starts empty and is
    handed its schedule by :meth:`~repro.faultinject.plane
    .FaultPlane.apply`, which also arms the timed fault families.
    Assigning it takes effect at the next send.
    """

    #: Named stream the wire-level injection draws come from.
    STREAM_NAME = "faultinject.wire"

    def __init__(self, inner: Transport, streams: RNGManager) -> None:
        self.inner = inner
        self.sim = inner.sim
        self.lan = inner.lan
        self.schedule = FaultSchedule()
        self.rng = streams.stream(self.STREAM_NAME)
        self.injected_drops = 0
        self.injected_delays = 0
        self.injected_duplicates = 0
        self.injected_degradation_drops = 0
        self.injected_partition_drops = 0

    @property
    def schedule(self) -> FaultSchedule:
        """The message-level rules the wire enforces."""
        return self._schedule

    @schedule.setter
    def schedule(self, schedule: FaultSchedule) -> None:
        self._schedule = schedule
        self._since, self._until = math.inf, -math.inf  # rebuilt at next send

    def _rules_at(self, now: float) -> Optional[Tuple[Tuple[Any, ...], ...]]:
        """The partitions, drops, degradations, delays and duplicates live
        at ``now`` (``None``: no rule), kept until the clock passes the
        nearest window edge on either side of ``now``."""
        schedule = self._schedule
        families: Tuple[Tuple[Any, ...], ...] = (
            schedule.partitions, schedule.drops, schedule.degradations,
            schedule.delays, schedule.duplicates,
        )
        live = tuple(
            tuple(rule for rule in rules if rule.start_ms <= now < rule.end_ms)
            for rules in families
        )
        edges = [e for rules in families for r in rules for e in (r.start_ms, r.end_ms)]
        self._since = max((e for e in edges if e <= now), default=-math.inf)
        self._until = min((e for e in edges if e > now), default=math.inf)
        self._live = live if any(live) else None
        return self._live

    # -- wiring (delegated) ----------------------------------------------------
    def bind(self, host_name: str, receiver: Receiver) -> None:
        self.inner.bind(host_name, receiver)

    # -- counters (delegated) --------------------------------------------------
    @property
    def sent_count(self) -> int:
        return self.inner.sent_count

    @property
    def delivered_count(self) -> int:
        return self.inner.delivered_count

    @property
    def dropped_count(self) -> int:
        return self.inner.dropped_count

    @property
    def lost_count(self) -> int:
        return self.inner.lost_count

    # -- sending -------------------------------------------------------------
    def send(self, message: Message, group_size: int = 1) -> float:
        """Send through the schedule; returns the injected delay (ms).

        The return value is the *extra* injected delay (0.0 for a clean
        pass-through or a drop), not the LAN's sampled one-way delay —
        callers that depend on the exact delay should not be running under
        fault injection.
        """
        now = self.sim.now
        live = self._live if self._since <= now < self._until else self._rules_at(now)
        if live is None:
            self.inner.send(message, group_size)
            return 0.0
        partitions, drops, degradations, delays, duplicates = live
        # Partitions outrank every message-level rule: traffic that
        # cannot cross the cut is lost before drops/delays/duplicates
        # get a say.  Lossy partitions (drop_probability < 1) draw from
        # the wire stream; total cuts stay draw-free so adding a clean
        # blackout never perturbs the other injection draws.
        for fault in partitions:
            if fault.severs(now, message) and (
                fault.drop_probability >= 1.0
                or self.rng.random() < fault.drop_probability
            ):
                self.injected_partition_drops += 1
                return 0.0

        for rule in drops:
            if rule.matches(now, message) and (
                rule.probability >= 1.0 or self.rng.random() < rule.probability
            ):
                self.injected_drops += 1
                return 0.0

        # Degradation omissions: a degraded host's NIC loses traffic in
        # both directions — messages it sends and messages sent to it.
        for fault in degradations:
            if fault.omission_probability <= 0.0:
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
        for rule in delays:
            if rule.matches(now, message):
                extra += rule.extra_ms
        if extra > 0.0:
            self.injected_delays += 1

        for rule in duplicates:
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
        self.inner.send(message, group_size)
        return 0.0

    # The transport's fan-out, each copy through this wire's ``send``.
    multicast = Transport.multicast

    def __repr__(self) -> str:
        return (
            f"<FaultyTransport drops={self.injected_drops} "
            f"delays={self.injected_delays} "
            f"duplicates={self.injected_duplicates} inner={self.inner!r}>"
        )
