"""Modelled memory accounting.

Tools allocate and free *modelled* bytes against a :class:`MemoryMeter`.
The meter records the high-water mark, which stands in for the "max
resident set size" the paper measures (§5, Methodology).
"""

from __future__ import annotations

from typing import Dict, Optional


class MemoryMeter:
    """Tracks live and peak modelled memory, with named categories.

    Categories let an experiment attribute the peak to a phase (for
    example ``"disassembly"`` vs ``"cfg"``), matching the paper's
    discussion of where each tool's memory goes.
    """

    def __init__(self) -> None:
        self._live = 0
        self._peak = 0
        self._by_category: Dict[str, int] = {}

    @property
    def live_bytes(self) -> int:
        return self._live

    @property
    def peak_bytes(self) -> int:
        return self._peak

    def allocate(self, nbytes: int, category: str = "general") -> None:
        """Account for ``nbytes`` of newly materialized state."""
        if nbytes < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        self._live += nbytes
        self._by_category[category] = self._by_category.get(category, 0) + nbytes
        if self._live > self._peak:
            self._peak = self._live

    def free(self, nbytes: int, category: str = "general") -> None:
        """Release previously allocated modelled bytes."""
        if nbytes < 0:
            raise ValueError("cannot free a negative number of bytes")
        held = self._by_category.get(category, 0)
        if nbytes > held:
            raise ValueError(
                f"freeing {nbytes} bytes from category {category!r} which holds {held}"
            )
        self._live -= nbytes
        self._by_category[category] = held - nbytes

    def free_category(self, category: str) -> None:
        """Release everything held under ``category``."""
        held = self._by_category.pop(category, 0)
        self._live -= held

    def scope(self, nbytes: int, category: str = "general") -> "MemoryScope":
        """Context manager that allocates on entry and frees on exit."""
        return MemoryScope(self, nbytes, category)


class MemoryScope:
    """Allocate-on-enter / free-on-exit helper for :class:`MemoryMeter`."""

    def __init__(self, meter: MemoryMeter, nbytes: int, category: str):
        self._meter = meter
        self._nbytes = nbytes
        self._category = category

    def __enter__(self) -> "MemoryScope":
        self._meter.allocate(self._nbytes, self._category)
        return self

    def __exit__(self, exc_type, exc, tb) -> Optional[bool]:
        self._meter.free(self._nbytes, self._category)
        return None
