"""RL009 trigger: messages and timers handed out in set-iteration order."""

from typing import Set

from repro.net.message import Message


class Server:
    def __init__(self, sim, transport):
        self.sim = sim
        self.transport = transport
        self._subscribers: Set[str] = set()

    def push(self, payload):
        for subscriber in self._subscribers:
            self.transport.send(
                Message(sender="s", destination=subscriber, kind="perf", payload=payload)
            )

    def rearm(self, hosts):
        for host in set(hosts):
            self.sim.call_in(1.0, lambda host=host: self.poll(host))


def notify(transport, message, targets: Set[str]):
    for target in targets:
        if target:
            transport.multicast(message, [target])


def greet(transport, make):
    for name in {"a", "b"}:
        transport.send(make(name))
