"""A fault-injecting decorator around :class:`repro.net.transport.Transport`.

:class:`FaultyTransport` exposes the same surface as the transport it
wraps (``bind``/``unbind``/``send``/``multicast`` plus the delivery
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
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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
    schedule:
        The rules in force; a deployment's wire starts empty and is
        handed its schedule by :meth:`~repro.faultinject.plane
        .FaultPlane.apply`, which also arms the timed fault families.
    """

    #: Named stream the wire-level injection draws come from.
    STREAM_NAME = "faultinject.wire"

    def __init__(
        self,
        inner: Transport,
        streams: RNGManager,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self.inner = inner
        self.sim = inner.sim
        self.lan = inner.lan
        self.schedule = schedule or FaultSchedule()
        self.rng = streams.stream(self.STREAM_NAME)
        self.injected_drops = 0
        self.injected_delays = 0
        self.injected_duplicates = 0
        self.injected_degradation_drops = 0
        self.injected_partition_drops = 0

    # -- wiring (delegated) ----------------------------------------------------
    def bind(self, host_name: str, receiver: Receiver) -> None:
        self.inner.bind(host_name, receiver)

    def unbind(self, host_name: str) -> None:
        self.inner.unbind(host_name)

    def is_bound(self, host_name: str) -> bool:
        return self.inner.is_bound(host_name)

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
        # Partitions outrank every message-level rule: traffic that
        # cannot cross the cut is lost before drops/delays/duplicates
        # get a say.  Lossy partitions (drop_probability < 1) draw from
        # the wire stream; total cuts stay draw-free so adding a clean
        # blackout never perturbs the other injection draws.
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

        # Degradation omissions: a degraded host's NIC loses traffic in
        # both directions — messages it sends and messages sent to it.
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

    def multicast(
        self, message: Message, destinations: Sequence[str]
    ) -> List[float]:
        """Per-destination send through the fault rules (same msg_id)."""
        if not destinations:
            raise ValueError("multicast needs at least one destination")
        group_size = len(destinations)
        return [
            self.send(message.with_destination(dst), group_size=group_size)
            for dst in destinations
        ]

    def __repr__(self) -> str:
        return (
            f"<FaultyTransport drops={self.injected_drops} "
            f"delays={self.injected_delays} "
            f"duplicates={self.injected_duplicates} inner={self.inner!r}>"
        )
