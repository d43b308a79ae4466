"""Local-area-network latency model.

The paper's system model (§3) assumes a LAN whose links "do not experience
frequent fluctuations in traffic, but ... may experience occasional periods
of high traffic".  :class:`LanModel` reproduces that: a one-way
gateway-to-gateway delay is composed of

* a fixed *stack* cost (Maestro/Ensemble + gateway marshalling, per message),
* a per-byte transmission term,
* a per-destination multicast overhead (the paper notes the delay "varies
  with ... the number of group members involved in the communication"),
* a jitter distribution, optionally Markov-modulated to create the
  occasional high-traffic bursts.

Hosts are registered by name.  A host can be marked down (crashed); the
transport drops deliveries to down hosts, which is how replica crashes
manifest at the network layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..rng import RNGManager
from ..sim.random import Distribution, MarkovModulated, Normal

__all__ = ["Host", "LanModel", "LinkProfile", "bursty_jitter"]

ChangeListener = Callable[[Tuple[str, ...]], None]
_Link = Tuple["LinkProfile", np.random.Generator, Optional[np.random.Generator]]


@dataclass
class Host:
    """A machine on the simulated LAN."""

    name: str
    up: bool = True

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass(frozen=True)
class LinkProfile:
    """Latency parameters for one (ordered) host pair or the LAN default.

    Attributes
    ----------
    stack_ms:
        Fixed per-message cost of the protocol stack (both ends), ms.
    per_kb_ms:
        Transmission cost per kilobyte, ms.
    per_member_ms:
        Extra cost per additional multicast destination, ms.
    jitter:
        Additive random jitter distribution, ms.
    loss_probability:
        Probability that a message on this link is silently lost.  The
        paper's LAN is reliable (0.0); omission-fault ablations raise it.
    """

    stack_ms: float = 1.25
    per_kb_ms: float = 0.08
    per_member_ms: float = 0.05
    jitter: Distribution = field(default_factory=lambda: Normal(0.3, 0.15))
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {self.loss_probability}"
            )


def bursty_jitter() -> MarkovModulated:
    """Jitter with occasional high-traffic bursts (paper §3).

    The testbed's N(0.3, 0.15) ms jitter, with a 0.5 % chance per message
    of entering an N(8, 3) ms burst that each message leaves with
    probability 0.15 (bursts of ~7 messages).
    """
    return MarkovModulated(
        Normal(0.3, 0.15), Normal(8.0, 3.0), p_enter_burst=0.005, p_exit_burst=0.15
    )


class LanModel:
    """Topology + latency model for the simulated LAN.

    Parameters
    ----------
    streams:
        Named-stream manager (:class:`repro.rng.RNGManager`); each
        ordered host pair draws jitter from its own ``"lan.<src>-><dst>"``
        substream so link behaviours are independent and adding a host
        never perturbs existing links (docs/REPRODUCIBILITY.md).
    default_profile:
        Latency profile used for pairs without an explicit override.
    """

    def __init__(
        self,
        streams: RNGManager,
        default_profile: Optional[LinkProfile] = None,
        shared_congestion: Optional[Distribution] = None,
    ) -> None:
        self._streams = streams
        self.default_profile = default_profile or LinkProfile()
        self._hosts: Dict[str, Host] = {}
        self._profiles: Dict[Tuple[str, str], LinkProfile] = {}
        # Ordered pair -> (profile in effect, jitter stream, loss stream or
        # None on a reliable link), resolved on the pair's first message.
        # Only set_link_profile can change what a pair resolves to.
        self._links: Dict[Tuple[str, str], _Link] = {}
        # Severed ordered pairs -> severance count.  Reference-counted so
        # overlapping partitions compose: a link stays dead until every
        # cut covering it has healed (repro.faultinject.partition).
        self._severed: Dict[Tuple[str, str], int] = {}
        # LAN-wide correlated congestion (e.g. a shared switch): one
        # distribution sampled from a single stream for EVERY message,
        # so simultaneous transfers see correlated extra delay.  Breaks
        # the independence assumption of the paper's Equation 1 — used by
        # the model-calibration ablation, not by the base reproduction.
        self.shared_congestion = shared_congestion
        self._change_listeners: List[ChangeListener] = []

    # -- topology ----------------------------------------------------------
    def add_host(self, name: str) -> Host:
        """Register a host; names must be unique on the LAN."""
        if name in self._hosts:
            raise ValueError(f"host {name!r} already registered")
        host = Host(name=name)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Look up a registered host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def hosts(self) -> List[Host]:
        """All registered hosts in registration order."""
        return list(self._hosts.values())

    def has_host(self, name: str) -> bool:
        """Whether a host with this name exists."""
        return name in self._hosts

    def set_link_profile(self, src: str, dst: str, profile: LinkProfile) -> None:
        """Override the latency profile for the ordered pair (src, dst)."""
        self.host(src)
        self.host(dst)
        self._profiles[(src, dst)] = profile
        self._links.pop((src, dst), None)

    def link_profile(self, src: str, dst: str) -> LinkProfile:
        """Profile in effect for the ordered pair (default if no override)."""
        return self._profiles.get((src, dst), self.default_profile)

    def _link(self, src: str, dst: str) -> _Link:
        """Resolve and keep the pair's link record (same named streams)."""
        profile = self.link_profile(src, dst)
        lossy = profile.loss_probability > 0.0
        link = self._links[(src, dst)] = (
            profile,
            self._streams.stream(f"lan.{src}->{dst}"),
            self._streams.stream(f"lan.loss.{src}->{dst}") if lossy else None,
        )
        return link

    # -- change notification -------------------------------------------------
    def on_change(self, listener: ChangeListener) -> None:
        """Call ``listener(hosts)`` after every availability or
        connectivity mutation, with the hosts it touched.

        ``mark_down``/``mark_up`` report ``(name,)``, ``sever_link``/
        ``heal_link`` report ``(src, dst)`` — the only four ways the
        answers of :meth:`is_up` and :meth:`reachable` can change, so a
        subscriber (the failure detector) need not sample between calls.
        The listener runs synchronously, after the state has changed.
        """
        self._change_listeners.append(listener)

    def _changed(self, *hosts: str) -> None:
        for listener in self._change_listeners:
            listener(hosts)

    # -- availability --------------------------------------------------------
    def mark_down(self, name: str) -> None:
        """Crash a host: future deliveries to it are dropped."""
        self.host(name).up = False
        self._changed(name)

    def mark_up(self, name: str) -> None:
        """Bring a host back (recovery)."""
        self.host(name).up = True
        self._changed(name)

    def is_up(self, name: str) -> bool:
        """Whether the host is currently up."""
        return self.host(name).up

    # -- connectivity --------------------------------------------------------
    def sever_link(self, src: str, dst: str) -> None:
        """Cut the ordered link ``src`` → ``dst`` (reference-counted)."""
        self.host(src)
        self.host(dst)
        key = (src, dst)
        self._severed[key] = self._severed.get(key, 0) + 1
        self._changed(src, dst)

    def heal_link(self, src: str, dst: str) -> None:
        """Undo one severance of ``src`` → ``dst`` (idempotent at zero)."""
        key = (src, dst)
        count = self._severed.get(key, 0)
        if count <= 1:
            self._severed.pop(key, None)
        else:
            self._severed[key] = count - 1
        self._changed(src, dst)

    def reachable(self, src: str, dst: str) -> bool:
        """Whether traffic ``src`` → ``dst`` can currently cross the LAN.

        Unknown hosts are considered reachable — connectivity only ever
        *narrows* what an up, registered pair could do.
        """
        return (src, dst) not in self._severed

    def severed_links(self) -> List[Tuple[str, str]]:
        """Every currently severed ordered pair (sorted)."""
        return sorted(self._severed)

    # -- latency -----------------------------------------------------------
    def one_way_delay(
        self,
        src: str,
        dst: str,
        size_bytes: int = 256,
        group_size: int = 1,
    ) -> float:
        """Sample the one-way delay in ms for a message ``src`` → ``dst``.

        ``group_size`` is the number of destinations of the multicast this
        message is part of; larger groups pay a small per-member overhead,
        matching the paper's observation that gateway-to-gateway delay grows
        with the number of group members.
        """
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        profile, rng, _loss_rng = self._links.get((src, dst)) or self._link(src, dst)
        jitter = max(0.0, profile.jitter.sample(rng))
        delay = (
            profile.stack_ms
            + profile.per_kb_ms * (size_bytes / 1024.0)
            + profile.per_member_ms * (group_size - 1)
            + jitter
        )
        if self.shared_congestion is not None:
            shared_rng = self._streams.stream("lan.shared-congestion")
            delay += max(0.0, self.shared_congestion.sample(shared_rng))
        return max(0.0, delay)

    def should_drop(self, src: str, dst: str) -> bool:
        """Sample whether a message on (src, dst) is lost in transit."""
        profile, _rng, loss_rng = self._links.get((src, dst)) or self._link(src, dst)
        if loss_rng is None:
            return False
        return bool(loss_rng.random() < profile.loss_probability)

    def __repr__(self) -> str:
        up = sum(1 for h in self._hosts.values() if h.up)
        return f"<LanModel hosts={len(self._hosts)} up={up}>"
