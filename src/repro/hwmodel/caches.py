"""Set-associative LRU cache model."""

from __future__ import annotations

from typing import Iterable, List


class SetAssociativeCache:
    """A classic set-associative cache with LRU replacement.

    Keys are non-negative integers (line/page/branch identifiers); the
    set index is the key modulo the set count, so callers should pass
    keys already stripped of offset bits.

    Each set is a fixed-length list, most recently used first, with
    empty ways holding ``-1``: a touch of the key that is already MRU
    -- most touches of a well-laid-out binary -- moves nothing.
    """

    def __init__(self, num_sets: int, ways: int):
        if num_sets < 1 or ways < 1:
            raise ValueError("cache needs at least one set and one way")
        self.num_sets = num_sets
        self.ways = ways
        self._sets: List[List[int]] = [[-1] * ways for _ in range(num_sets)]

    def access(self, key: int) -> bool:
        """Touch ``key``; returns True on hit.  Misses fill (LRU evict)."""
        return not self.access_many((key,))

    def access_many(self, keys: Iterable[int], next_line: bool = False) -> List[int]:
        """Touch ``keys`` in order; returns the positions that missed.

        With ``next_line`` a miss also streams ``key + 1`` in, the way a
        sequential prefetcher does: a free fill, not reported.
        """
        sets = self._sets
        num_sets = self.num_sets
        missed: List[int] = []
        for pos, key in enumerate(keys):
            ways = sets[key % num_sets]
            if ways[0] != key:
                try:
                    ways.remove(key)
                    ways.insert(0, key)
                except ValueError:
                    missed.append(pos)
                    ways.pop()
                    ways.insert(0, key)
                    if next_line:
                        key += 1
                        ways = sets[key % num_sets]
                        if key in ways:
                            ways.remove(key)
                        else:
                            ways.pop()
                        ways.insert(0, key)
        return missed

    def probe(self, key: int) -> bool:
        """Check residency without updating recency."""
        return key in self._sets[key % self.num_sets]

    @property
    def capacity(self) -> int:
        return self.num_sets * self.ways
