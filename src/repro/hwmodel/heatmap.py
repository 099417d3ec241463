"""Instruction-access heat maps (Figure 7).

Buckets the executed-block stream over (time, address) and renders an
ASCII density map: the figure's tight low band for well-laid-out
binaries, and BOLT's displaced band at the new segment's high offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.elf import Executable
from repro.profiles import Trace


@dataclass
class AccessHeatmap:
    """counts[t][a]: accesses in time bucket t to address bucket a."""

    counts: np.ndarray
    addr_base: int
    addr_bucket_bytes: int
    time_buckets: int

    def occupied_addr_range(self) -> int:
        """Bytes spanned by buckets that were ever accessed (footprint)."""
        touched = np.nonzero(self.counts.sum(axis=0))[0]
        if touched.size == 0:
            return 0
        return int((touched[-1] - touched[0] + 1) * self.addr_bucket_bytes)

    def band_height(self, coverage: float = 0.95) -> int:
        """Bytes of the smallest set of buckets covering ``coverage`` of
        accesses -- how "tight" the heat band is."""
        totals = np.sort(self.counts.sum(axis=0))[::-1]
        if totals.sum() == 0:
            return 0
        cumulative = np.cumsum(totals) / totals.sum()
        needed = int(np.searchsorted(cumulative, coverage) + 1)
        return needed * self.addr_bucket_bytes


def record_heatmap(
    exe: Executable,
    trace: Trace,
    time_buckets: int = 64,
    addr_bucket_bytes: int = 4096,
) -> AccessHeatmap:
    """Bucket the trace's block visits over (time, address)."""
    addrs = np.asarray(trace.block_addrs, dtype=np.int64)
    if addrs.size == 0:
        raise ValueError("empty trace")
    base = min(s.vaddr for s in exe.sections)
    top = max(s.end for s in exe.sections)
    num_addr_buckets = max(1, (top - base + addr_bucket_bytes - 1) // addr_bucket_bytes)
    time_idx = np.minimum(
        (np.arange(addrs.size) * time_buckets) // max(1, addrs.size), time_buckets - 1
    )
    addr_idx = np.clip((addrs - base) // addr_bucket_bytes, 0, num_addr_buckets - 1)
    counts = np.zeros((time_buckets, num_addr_buckets), dtype=np.int64)
    np.add.at(counts, (time_idx, addr_idx), 1)
    return AccessHeatmap(
        counts=counts,
        addr_base=base,
        addr_bucket_bytes=addr_bucket_bytes,
        time_buckets=time_buckets,
    )


_SHADES = " .:-=+*#%@"


def render_heatmap(heatmap: AccessHeatmap, max_rows: int = 40) -> str:
    """ASCII art: rows are address buckets (low addresses at the bottom,
    like Figure 7), columns are time buckets."""
    counts = heatmap.counts.T  # (addr, time)
    occupied = np.nonzero(counts.sum(axis=1))[0]
    if occupied.size == 0:
        return "(no accesses)"
    lo, hi = int(occupied[0]), int(occupied[-1]) + 1
    window = counts[lo:hi]
    if window.shape[0] > max_rows:
        # Pool address buckets to fit the terminal.
        factor = (window.shape[0] + max_rows - 1) // max_rows
        pad = (-window.shape[0]) % factor
        if pad:
            window = np.vstack([window, np.zeros((pad, window.shape[1]), dtype=window.dtype)])
        window = window.reshape(-1, factor, window.shape[1]).sum(axis=1)
    peak = window.max() or 1
    lines: List[str] = []
    for row_idx in range(window.shape[0] - 1, -1, -1):
        row = window[row_idx]
        chars = [
            _SHADES[min(len(_SHADES) - 1, int(len(_SHADES) * v / (peak + 1)))] for v in row
        ]
        lines.append("".join(chars))
    header = (
        f"addr base {heatmap.addr_base:#x}, bucket {heatmap.addr_bucket_bytes} B, "
        f"rows {window.shape[0]} (high addr at top), time ->"
    )
    return header + "\n" + "\n".join(lines)
