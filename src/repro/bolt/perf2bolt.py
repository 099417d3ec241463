"""perf2bolt: profile conversion through disassembly (§5.1's comparison).

Where Propeller's Phase 3 maps samples through the 16-bytes-per-block
BB address map, perf2bolt must *disassemble the binary* to know where
basic blocks are, then aggregate LBR records against the reconstructed
CFGs.  Its peak memory therefore scales with total text size -- the
contrast Figure 4 draws.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import MemoryMeter
from repro.bolt.disasm import DisassemblyResult, disassemble
from repro.elf import Executable
from repro.profiles import PerfData


@dataclass
class BoltProfile:
    """Aggregated profile keyed by block start address."""

    block_counts: Dict[int, float] = field(default_factory=dict)
    #: (src block addr, dst block addr) -> weight, same-function only.
    edges: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: (caller, callee) function names -> weight.
    call_edges: Dict[Tuple[str, str], float] = field(default_factory=dict)
    records_dropped: int = 0

    @property
    def modelled_bytes(self) -> int:
        return len(self.block_counts) * 24 + len(self.edges) * 40 + len(self.call_edges) * 48


@dataclass
class Perf2BoltResult:
    profile: BoltProfile
    disassembly: DisassemblyResult
    peak_memory_bytes: int
    cost_units: int


class _BlockIndex:
    """Address -> (function, block) over disassembled functions."""

    def __init__(self, disassembly: DisassemblyResult):
        self.func_starts: List[int] = []
        self.funcs = []
        for func in sorted(disassembly.functions, key=lambda f: f.addr):
            if not func.blocks:
                continue
            self.func_starts.append(func.addr)
            self.funcs.append((func, [b.addr for b in func.blocks]))

    def lookup(self, addr: int):
        i = bisect.bisect_right(self.func_starts, addr) - 1
        if i < 0:
            return None
        func, starts = self.funcs[i]
        if addr >= func.end:
            return None
        j = bisect.bisect_right(starts, addr) - 1
        if j < 0:
            return None
        return func, j


def perf2bolt(
    exe: Executable, perf: PerfData, meter: Optional[MemoryMeter] = None
) -> Perf2BoltResult:
    """Convert a perf LBR profile to BOLT's aggregated form."""
    own = meter if meter is not None else MemoryMeter()
    own.allocate(perf.size_bytes, "bolt-profile-raw")
    disassembly = disassemble(exe, meter=own)
    index = _BlockIndex(disassembly)

    profile = BoltProfile()
    counts = profile.block_counts
    edges = profile.edges
    for srcs, dsts in perf.windows():
        prev_dst: Optional[int] = None
        for src, dst in zip(srcs.tolist(), dsts.tolist()):
            s = index.lookup(src)
            d = index.lookup(dst)
            if s is None or d is None:
                profile.records_dropped += 1
                prev_dst = None
                continue
            s_func, s_idx = s
            d_func, d_idx = d
            if prev_dst is not None:
                p = index.lookup(prev_dst)
                if p is not None and p[0] is s_func and p[1] <= s_idx:
                    for block in s_func.blocks[p[1] : s_idx + 1]:
                        counts[block.addr] = counts.get(block.addr, 0.0) + 1.0
                    run = s_func.blocks[p[1] : s_idx + 1]
                    for a, b in zip(run, run[1:]):
                        key = (a.addr, b.addr)
                        edges[key] = edges.get(key, 0.0) + 1.0
            if s_func is d_func:
                key = (s_func.blocks[s_idx].addr, d_func.blocks[d_idx].addr)
                edges[key] = edges.get(key, 0.0) + 1.0
            elif d_idx == 0 and dst == d_func.addr:
                ckey = (s_func.name, d_func.name)
                profile.call_edges[ckey] = profile.call_edges.get(ckey, 0.0) + 1.0
            prev_dst = dst
    own.allocate(profile.modelled_bytes, "bolt-profile-agg")
    peak = own.peak_bytes
    own.free_category("bolt-profile-raw")
    own.free_category("bolt-profile-agg")
    own.free_category("bolt-disasm")
    cost = disassembly.total_instrs + perf.num_records
    return Perf2BoltResult(
        profile=profile, disassembly=disassembly, peak_memory_bytes=peak, cost_units=cost
    )
