"""Multi-epoch profile management: retain, decay, merge.

Warehouse-scale deployments never profile just once: every release
ships while samples from the previous few are still arriving, and the
profile that feeds the next build is a *blend* (AutoFDO calls this
profile merging; BOLT ships ``merge-fdata``).  :class:`ProfileStore`
models that: profiles are added per synthetic "release" (epoch), and
:meth:`ProfileStore.merge` combines them with exponential per-epoch
decay, so recent behavior dominates but rare paths only seen in older
epochs are not forgotten outright.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.profiles.pgo import IRProfile

__all__ = ["ProfileStore", "merge_profiles"]


def _merge_weighted(pairs: Sequence[Tuple[float, IRProfile]]) -> IRProfile:
    """Weighted sum of profiles; anchors from the last entry that has any.

    Provenance accounting is re-derived from the merged counts: an
    entry is "dropped" only if every contributing epoch lost it (its
    weighted sum is still zero).
    """
    out = IRProfile()
    for weight, profile in pairs:
        for fn, blocks in profile.blocks.items():
            dst = out.blocks.setdefault(fn, {})
            for bb, count in blocks.items():
                dst[bb] = dst.get(bb, 0.0) + weight * count
        for fn, edges in profile.edges.items():
            dst = out.edges.setdefault(fn, {})
            for key, count in edges.items():
                dst[key] = dst.get(key, 0.0) + weight * count
        for fn, count in profile.call_counts.items():
            out.call_counts[fn] = out.call_counts.get(fn, 0.0) + weight * count
    for _weight, profile in reversed(pairs):
        anchors = profile.anchors
        if anchors:
            # Anchors describe CFG content, which merging cannot
            # average: the newest profile's CFG wins.
            out.anchors = {fn: dict(v) for fn, v in anchors.items()}
            break
    entries = zeros = 0
    for table in (out.blocks, out.edges):
        for counts in table.values():
            entries += len(counts)
            zeros += sum(1 for c in counts.values() if c <= 0)
    out.source_entries = entries
    out.dropped_entries = zeros
    return out


def merge_profiles(
    profiles: Sequence[IRProfile], decay: float = 0.5
) -> IRProfile:
    """Blend ``profiles`` (oldest first) with per-epoch decay.

    The newest profile has weight 1, the one before it ``decay``, the
    one before that ``decay**2``, and so on; counts are weighted sums.
    """
    if not profiles:
        raise ValueError("merge_profiles needs at least one profile")
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"decay must be in (0, 1], got {decay}")
    newest = len(profiles) - 1
    return _merge_weighted(
        [(decay ** (newest - i), p) for i, p in enumerate(profiles)]
    )


class ProfileStore:
    """Profiles from successive synthetic releases, merged on demand."""

    def __init__(self, decay: float = 0.5):
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.decay = decay
        self._epochs: List[Tuple[int, IRProfile]] = []

    def add(self, profile: IRProfile, epoch: Optional[int] = None) -> int:
        """Record ``profile`` under ``epoch`` (default: next in sequence).

        Epochs must be added in non-decreasing order -- the store is a
        release history, not a random-access map.
        """
        if epoch is None:
            epoch = self._epochs[-1][0] + 1 if self._epochs else 0
        if self._epochs and epoch < self._epochs[-1][0]:
            raise ValueError(
                f"epoch {epoch} is older than the newest stored epoch "
                f"{self._epochs[-1][0]}"
            )
        self._epochs.append((epoch, profile))
        return epoch

    def __len__(self) -> int:
        return len(self._epochs)

    @property
    def epochs(self) -> List[int]:
        return [epoch for epoch, _ in self._epochs]

    def latest(self) -> IRProfile:
        if not self._epochs:
            raise ValueError("empty ProfileStore")
        return self._epochs[-1][1]

    def merge(
        self,
        profiles: Optional[Sequence[IRProfile]] = None,
        decay: Optional[float] = None,
    ) -> IRProfile:
        """Blend stored epochs (or an explicit oldest-first list).

        When merging stored epochs the weight honors the epoch *gap*:
        a profile three releases old decays by ``decay**3`` even if no
        profile was collected for the releases in between.
        """
        if decay is None:
            decay = self.decay
        if profiles is not None:
            return merge_profiles(profiles, decay=decay)
        if not self._epochs:
            raise ValueError("empty ProfileStore")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        newest_epoch = self._epochs[-1][0]
        return _merge_weighted(
            [(decay ** (newest_epoch - epoch), profile)
             for epoch, profile in self._epochs]
        )
