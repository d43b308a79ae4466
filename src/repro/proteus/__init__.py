"""Proteus analog: dependability management for replicated services."""

from .manager import DependabilityManager

__all__ = ["DependabilityManager"]
