"""AutoFDO: sampled hardware profiles as compiler (IR-level) profiles.

§2.2 describes two ways to feed PGO: instrumented runs and AutoFDO,
which converts production perf samples into compiler profiles.  This
module implements the conversion for the simulation: LBR samples are
mapped to machine blocks through the metadata binary's BB address map
(the same join Phase 3 uses) and then lifted to IR block/edge counts,
because machine block ids *are* IR block ids in this toolchain.

The resulting :class:`~repro.profiles.pgo.IRProfile` can drive the
baseline build in place of an instrumented profile -- and, like real
AutoFDO, it is only as good as its sampling: blocks that were never
sampled look dead to the compiler, which is precisely the gap
Propeller's post-link pass closes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.profiles.pgo import IRProfile


def convert_to_ir_profile(metadata_exe, perf) -> IRProfile:
    """Convert an LBR profile into an IR-level profile.

    ``metadata_exe`` must carry BB address maps (§3.2); ``perf`` is the
    sampled profile collected from it.
    """
    # Reuse Phase 3's sample-to-block machinery: the DCFG *is* the
    # IR-level profile in this toolchain (block ids are preserved).
    from repro.core.wpa import BlockIndex, WPAStats, build_dcfg

    index = BlockIndex.from_bb_addr_map(metadata_exe)
    dcfg, call_edges, _block_calls, _distinct = build_dcfg(index, perf, WPAStats())

    profile = IRProfile()
    for name, fd in dcfg.items():
        if not fd.block_counts:
            continue
        profile.blocks[name] = dict(fd.block_counts)
        profile.edges[name] = dict(fd.edges)
    for (caller, callee), weight in call_edges.items():
        profile.call_counts[callee] = profile.call_counts.get(callee, 0.0) + weight
        profile.call_counts.setdefault(caller, 0.0)
    return profile
