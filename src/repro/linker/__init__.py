"""The linker.

Resolves symbols, lays out sections (honouring a symbol ordering file,
the mechanism Propeller's global layout rides on -- §3.4), runs the
bespoke relaxation pass that removes explicit fall-through jumps and
shrinks long branches after basic-block-section reordering (§4.2),
applies relocations and produces an :class:`repro.elf.Executable`.
Inputs are read-only and never copied: relaxation records which branches
it re-encoded, every other offset is derived by one remap function, and
each section's bytes are built once, after the fixed point.

Peak link memory is modelled as roughly twice the input size plus the
output, the rule of thumb the paper cites ("~2X size of inputs", §5.2).
"""

from repro.linker.linker import LinkError, LinkOptions, LinkResult, LinkStats, link

__all__ = ["LinkError", "LinkOptions", "LinkResult", "LinkStats", "link"]
