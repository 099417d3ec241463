"""Last Branch Record sampling (§3.3).

Intel LBR hardware keeps a 32-deep ring buffer of the most recent
taken branches as (source, destination) address pairs.  ``perf``
snapshots the buffer on a sampling interrupt.  :func:`sample_lbr`
reproduces this over a generated trace: every ``period`` taken
branches, the previous 32 records become one sample.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Tuple

import numpy as np

from repro.profiles.trace import Projected, Trace, project_arrays, walk

LBR_DEPTH = 32
#: Modelled bytes of one (from, to) record in the perf.data stream.
_RECORD_BYTES = 16
_SAMPLE_HEADER_BYTES = 48


class PerfData:
    """A perf.data-shaped profile: LBR samples plus size accounting.

    Columns, not objects: sample ``i`` is records ``offsets[i]:offsets[i +
    1]`` (CSR, int64) of the parallel ``src``/``dst`` columns, oldest
    first.  An address is a uint64, as in the ``.lbr`` format.
    """

    def __init__(self, src=(), dst=(), offsets=(0,), period: int = 0,
                 binary_name: str = ""):
        self.src = np.asarray(src, dtype=np.uint64)
        self.dst = np.asarray(dst, dtype=np.uint64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.period = period
        self.binary_name = binary_name

    def __setstate__(self, state) -> None:
        """Refuse the tuple-per-record layout rather than load it half-made."""
        if not isinstance(state, dict) or not {"src", "dst", "offsets"} <= state.keys():
            raise ValueError("PerfData pickle of an older layout: no src/dst/offsets")
        self.__dict__.update(state)

    @property
    def num_samples(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_records(self) -> int:
        return len(self.src)

    @property
    def size_bytes(self) -> int:
        """Modelled on-disk profile size (Fig. 4 discusses 100-700MB files)."""
        return self.num_samples * _SAMPLE_HEADER_BYTES + self.num_records * _RECORD_BYTES

    def windows(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Each sample's ``(src, dst)`` column slices, oldest first."""
        for lo, hi in zip(self.offsets[:-1], self.offsets[1:]):
            yield self.src[lo:hi], self.dst[lo:hi]

    def digest(self) -> str:
        """SHA-256 over the sample content (period + every record).

        The content identity of a profile loaded from disk: downstream
        cached actions (WPA) key on it, so two different profiles never
        share an analysis cache entry.  An address is 16 little-endian
        bytes: its uint64 word, then a zero word.  Each sample is a
        ``b"\x00S"`` marker and its 32-byte records, laid into one buffer."""
        records = np.zeros((self.num_records, 4), dtype="<u8")
        records[:, 0], records[:, 2] = self.src, self.dst
        markers = 2 * np.arange(self.num_samples) + 32 * self.offsets[:-1]
        buf = np.zeros(2 * self.num_samples + 32 * self.num_records, dtype=np.uint8)
        buf[markers + 1] = ord("S")
        is_record = np.ones(len(buf), dtype=bool)
        is_record[markers] = is_record[markers + 1] = False
        buf[is_record] = records.view(np.uint8).ravel()
        h = hashlib.sha256(str(self.period).encode())
        h.update(buf)
        return h.hexdigest()


def sample_lbr(trace: Trace, period: int = 101, binary_name: str = "") -> PerfData:
    """Sample ``trace`` every ``period`` taken branches.

    A period coprime with small loop lengths (the default is prime)
    avoids systematic aliasing with loop structure, the same reason
    perf's default periods are odd.  Every window ``[at - LBR_DEPTH, at)``
    of the branch stream is gathered in one indexing pass; from a
    :class:`Projected` stream, nothing outside the windows is.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    ends = np.arange(period, len(trace.branch_src) + 1, period, dtype=np.int64)
    starts = np.maximum(ends - LBR_DEPTH, 0)
    offsets = np.concatenate(([0], np.cumsum(ends - starts)))
    index = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], ends - starts)
    src, dst = (stream[index] if isinstance(stream, Projected)
                else np.asarray(stream, dtype=np.int64)[index]
                for stream in (trace.branch_src, trace.branch_dst))
    return PerfData(src.view(np.uint64), dst.view(np.uint64), offsets, period, binary_name)


def collect_lbr_profile(
    exe, max_branches: int = 200_000, period: int = 101, seed: int = 0
) -> PerfData:
    """Convenience: trace ``exe`` and sample it in one step."""
    trace = project_arrays(walk(exe, max_branches, seed, record_blocks=False), exe)
    return sample_lbr(trace, period=period, binary_name=exe.name)
