"""The frozen-dataclass ``NodeId`` that the tuple subclass in
``spokenud.core`` replaced, kept verbatim as the reference its hashing,
equality, ordering, ``str`` and ``repr`` are tested against."""

from __future__ import annotations

import functools
from dataclasses import dataclass


@functools.total_ordering
@dataclass(frozen=True)
class NodeId:
    """Token identifier: a positive integer, optionally with a dotted minor.

    Ordering is lexicographic with an absent minor sorting first, so
    6 < 6.1 < 7.
    """

    major: int
    minor: int | None = None

    def __post_init__(self):
        if self.major < 1:
            raise ValueError(f"node major must be >= 1, got {self.major}")
        if self.minor is not None and self.minor < 1:
            raise ValueError(f"dotted minor must be >= 1, got {self.minor}")

    @property
    def is_dotted(self) -> bool:
        return self.minor is not None

    def _key(self) -> tuple[int, int]:
        return (self.major, -1 if self.minor is None else self.minor)

    def __lt__(self, other: "NodeId") -> bool:
        if not isinstance(other, NodeId):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self) -> str:
        if self.minor is None:
            return str(self.major)
        return f"{self.major}.{self.minor}"

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        text = text.strip()
        if "." in text:
            major, _, minor = text.partition(".")
            return cls(int(major), int(minor))
        return cls(int(text))
