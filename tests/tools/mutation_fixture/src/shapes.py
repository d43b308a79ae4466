"""Class bodies the runner tells apart: a ``TypedDict`` or ``Protocol``
key is a declaration, a dataclass field a statement."""

from dataclasses import dataclass
from typing import Protocol, TypedDict


class Meta(TypedDict):
    load: float


class View(Protocol):
    name: str


@dataclass
class Point:
    x: float
