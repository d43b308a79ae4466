"""Message transport over the simulated LAN.

:class:`Transport` connects hosts to the :class:`~repro.net.lan.LanModel`:
components register a receive callback per host, and ``send`` /
``multicast`` deliver messages after a sampled one-way delay.  Deliveries
addressed to a crashed host are dropped silently — exactly the behaviour a
sender on a real LAN observes, and the reason the paper needs redundant
selection and group-membership crash notification.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Protocol, Sequence

from ..sim.kernel import Simulator
from .lan import LanModel
from .message import Message

__all__ = ["Receiver", "TransportAPI", "Transport"]

Receiver = Callable[[Message], None]


class TransportAPI(Protocol):
    """Structural interface of a message transport.

    Satisfied by :class:`Transport` and by decorators such as
    :class:`repro.faultinject.transport.FaultyTransport`; gateways,
    handlers and the group layer annotate against this so a
    fault-injecting wrapper slots in without inheritance.
    """

    def bind(self, host_name: str, receiver: Receiver) -> None:
        """Attach the receive callback for ``host_name``."""
        ...

    def send(self, message: Message, group_size: int = 1) -> float:
        """Send one unicast message; returns a delay in milliseconds."""
        ...

    def multicast(
        self, message: Message, destinations: Sequence[str]
    ) -> List[float]:
        """Send copies of ``message`` to every destination."""
        ...


class Transport:
    """Delivers messages between registered host endpoints.

    Parameters
    ----------
    sim:
        Simulation kernel (provides the clock and scheduling).
    lan:
        Latency/topology model.

    Its four counters (sent, delivered, dropped at the destination, lost
    in transit) are the plane's whole record.
    """

    def __init__(self, sim: Simulator, lan: LanModel) -> None:
        self.sim = sim
        self.lan = lan
        self._receivers: Dict[str, Receiver] = {}
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.lost_count = 0

    # -- wiring --------------------------------------------------------------
    def bind(self, host_name: str, receiver: Receiver) -> None:
        """Attach the receive callback for ``host_name``."""
        self.lan.host(host_name)  # validate the host exists
        if host_name in self._receivers:
            raise ValueError(f"host {host_name!r} already bound")
        self._receivers[host_name] = receiver

    # -- sending -------------------------------------------------------------
    def send(self, message: Message, group_size: int = 1) -> float:
        """Send one unicast message; returns the sampled one-way delay (ms).

        The message is delivered to the destination's receiver after the
        delay unless the destination is down (or goes down before the
        delivery instant), in which case it is dropped.
        """
        self.sent_count += 1
        lan, sender, destination = self.lan, message.sender, message.destination
        delay = lan.one_way_delay(
            sender, destination, message.size_bytes, group_size
        )
        if not lan.reachable(sender, destination):
            # The link is severed by a partition: nothing crosses, not
            # even copies a fault injector scheduled before the cut.
            self.lost_count += 1
            return delay
        if lan.should_drop(sender, destination):
            # Omission fault: the message vanishes in transit.
            self.lost_count += 1
            return delay
        self.sim.call_in(delay, lambda: self._deliver(message))
        return delay

    def multicast(
        self, message: Message, destinations: Sequence[str]
    ) -> List[float]:
        """Send copies of ``message`` to every destination.

        All copies share the original ``msg_id`` (one logical multicast) but
        each experiences its own link delay — the group pays the
        per-member overhead of the larger destination set.
        Returns the per-destination delays in destination order.
        """
        if not destinations:
            raise ValueError("multicast needs at least one destination")
        delays: List[float] = []
        group_size = len(destinations)
        for destination in destinations:
            copy = message.with_destination(destination)
            delays.append(self.send(copy, group_size=group_size))
        return delays

    # -- delivery ------------------------------------------------------------
    def _deliver(self, message: Message) -> None:
        receiver = self._receivers.get(message.destination)
        if receiver is None or not self.lan.is_up(message.destination):
            self.dropped_count += 1
            return
        self.delivered_count += 1
        receiver(message)

    def __repr__(self) -> str:
        return (
            f"<Transport sent={self.sent_count} delivered={self.delivered_count} "
            f"dropped={self.dropped_count}>"
        )
