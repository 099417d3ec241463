"""BOLT-style baseline: a disassembly-driven, monolithic post-link optimizer.

The comparison system of the paper's evaluation (§5), modelled on
BOLT/Lightning BOLT: it requires a binary linked with ``--emit-relocs``,
*disassembles the whole text section* to reconstruct CFGs, aggregates
the same LBR profile against those CFGs (perf2bolt), reorders blocks
with Ext-TSP, splits cold code, reorders functions with hfsort, and
rewrites the binary into a new text segment while keeping the original
``.text`` -- reproducing BOLT's memory, size and failure
characteristics:

* peak memory scales with *total* text size (every instruction becomes
  an in-memory object), not with the hot subset;
* the optimized binary grows by roughly the rewritten text (§5.3);
* rewriting breaks restartable sequences and FIPS startup integrity
  checks, and very large binaries trip the eh_frame rewriter (§5.8).
"""

from repro.bolt.disasm import BoltBlock, BoltFunction, DisassemblyResult, disassemble
from repro.bolt.perf2bolt import BoltProfile, Perf2BoltResult, perf2bolt
from repro.bolt.failures import BoltError, BoltStartupCrash, check_startup
from repro.bolt.optimizer import BoltResult, BoltStats, run_bolt

__all__ = [
    "BoltBlock",
    "BoltFunction",
    "DisassemblyResult",
    "disassemble",
    "BoltProfile",
    "Perf2BoltResult",
    "perf2bolt",
    "BoltError",
    "BoltStartupCrash",
    "check_startup",
    "BoltResult",
    "BoltStats",
    "run_bolt",
]
