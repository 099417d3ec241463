"""perf2bolt: profile conversion through disassembly (§5.1's comparison).

Where Propeller's Phase 3 finds basic blocks in the 16-bytes-per-block
BB address map, perf2bolt must *disassemble the binary* to know where
they are.  The LBR records are then aggregated onto those blocks
exactly as Phase 3 aggregates them: the disassembly becomes a
:class:`~repro.core.wpa.BlockIndex` keyed by block address, and
:func:`~repro.core.wpa.build_dcfg` counts the records.  Only how the
blocks are found differs, so peak memory scales with total text size
-- the contrast Figure 4 draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis import MemoryMeter
from repro.bolt.disasm import DisassemblyResult, disassemble
from repro.core.wpa import BlockIndex, FunctionDCFG, WPAStats, build_dcfg
from repro.elf import Executable
from repro.profiles import PerfData


@dataclass
class BoltProfile:
    """Aggregated profile: per function, block counts and same-function
    edges keyed by block start address, plus call edges by name."""

    functions: Dict[str, FunctionDCFG] = field(default_factory=dict)
    #: (caller, callee) function names -> weight.
    call_edges: Dict[Tuple[str, str], float] = field(default_factory=dict)
    records_dropped: int = 0

    @property
    def modelled_bytes(self) -> int:
        blocks = sum(len(fd.block_counts) for fd in self.functions.values())
        edges = sum(len(fd.edges) for fd in self.functions.values())
        return blocks * 24 + edges * 40 + len(self.call_edges) * 48


@dataclass
class Perf2BoltResult:
    profile: BoltProfile
    disassembly: DisassemblyResult
    peak_memory_bytes: int
    cost_units: int


def perf2bolt(
    exe: Executable, perf: PerfData, meter: Optional[MemoryMeter] = None
) -> Perf2BoltResult:
    """Convert a perf LBR profile to BOLT's aggregated form."""
    own = meter if meter is not None else MemoryMeter()
    own.allocate(perf.size_bytes, "bolt-profile-raw")
    disassembly = disassemble(exe, meter=own)
    funcs, addrs, rows = disassembly.functions, [], []
    for func in funcs:
        rows.append(range(len(addrs), len(addrs) + len(func.blocks)))
        addrs += [block.addr for block in func.blocks]
    index = BlockIndex([func.name for func in funcs], [func.addr for func in funcs],
                       [func.end for func in funcs], rows, addrs, addrs)
    stats = WPAStats()
    dcfg, call_edges, _block_calls, _distinct = build_dcfg(index, perf, stats)
    profile = BoltProfile(dcfg, call_edges, stats.records_dropped)
    own.allocate(profile.modelled_bytes, "bolt-profile-agg")
    peak = own.peak_bytes
    own.free_category("bolt-profile-raw")
    own.free_category("bolt-profile-agg")
    own.free_category("bolt-disasm")
    cost = disassembly.total_instrs + perf.num_records
    return Perf2BoltResult(
        profile=profile, disassembly=disassembly, peak_memory_bytes=peak, cost_units=cost
    )
