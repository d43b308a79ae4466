"""RL009 clean: fan-out in a fixed order; sets only where order is invisible."""

from typing import Dict, Set

from repro.net.message import Message


class Server:
    def __init__(self, sim, transport):
        self.sim = sim
        self.transport = transport
        self._subscribers: Dict[str, None] = {}  # insertion-ordered
        self._evicted: Set[str] = set()

    def push(self, payload):
        for subscriber in self._subscribers:
            self.transport.send(
                Message(sender="s", destination=subscriber, kind="perf", payload=payload)
            )

    def rearm(self, hosts):
        for host in sorted(set(hosts)):
            self.sim.call_in(1.0, lambda host=host: self.poll(host))

    def forget(self):
        # Order cannot show: nothing is sent or scheduled from the loop.
        for host in self._evicted:
            self._subscribers.pop(host, None)


def notify(transport, message, targets: Set[str]):
    for target in sorted(targets):
        transport.multicast(message, [target])
