"""Shared fixtures: a wired mini-stack for substrate-level tests."""

from __future__ import annotations

import pytest

from repro.net.lan import LanModel
from repro.net.transport import Transport
from repro.sim.kernel import Simulator
from repro.rng import RNGManager


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulation kernel."""
    return Simulator()


@pytest.fixture
def streams() -> RNGManager:
    """Deterministic random streams for tests."""
    return RNGManager(base_seed=1234)


@pytest.fixture
def lan(streams) -> LanModel:
    """A LAN with three hosts: one client, two servers."""
    lan = LanModel(streams)
    for name in ("client-1", "server-1", "server-2"):
        lan.add_host(name)
    return lan


@pytest.fixture
def transport(sim, lan) -> Transport:
    """Transport over the three-host LAN."""
    return Transport(sim, lan)
