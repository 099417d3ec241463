"""The linker.

Resolves symbols, lays out sections (honouring a symbol ordering file,
the mechanism Propeller's global layout rides on -- §3.4), runs the
bespoke relaxation pass that removes explicit fall-through jumps and
shrinks long branches after basic-block-section reordering (§4.2),
applies relocations and produces an :class:`repro.elf.Executable`.
Inputs are read-only and never copied: relaxation records which branches
it re-encoded, every other offset is derived by one remap over all
sections' columns, and the output's bytes are built once, after the
fixed point.  The executable's tables are built from the link's
columns, each once.  :func:`without_bb_addr_map` derives the link of
the same objects without their BB address map from the link with it.

Peak link memory is modelled as roughly twice the input size plus the
output, the rule of thumb the paper cites ("~2X size of inputs", §5.2).
"""

from repro.linker.linker import (LinkError, LinkOptions, LinkResult, LinkStats, link,
                                 without_bb_addr_map)

__all__ = ["LinkError", "LinkOptions", "LinkResult", "LinkStats", "link",
           "without_bb_addr_map"]
