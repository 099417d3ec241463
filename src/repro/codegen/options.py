"""Code generator configuration."""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence


#: Alignment of every function's primary text section, and the
#: callee-saved registers whose CFI each non-primary fragment re-emits
#: (§4.4).  Every compile uses them; :meth:`CodeGenOptions.cache_signature`
#: covers them.
ALIGN_FUNCTION = 16
CALLEE_SAVED_REGS = 3


class BBSectionsMode(enum.Enum):
    """How basic blocks map to sections (``-fbasic-block-sections=``)."""

    #: One section per function; blocks contiguous.
    NONE = "none"
    #: Every basic block in its own section (the §4.1 overhead strawman).
    ALL = "all"
    #: Sections follow an explicit per-function cluster list, the mode
    #: Propeller's Phase 4 uses (§3.4).
    LIST = "list"


@dataclass(frozen=True)
class CodeGenOptions:
    """Backend options for one compilation.

    ``clusters`` (LIST mode) maps a function name to its basic-block
    clusters: ``clusters[fn][0]`` is the primary (hot) cluster and must
    start with the entry block; any block of ``fn`` not named in a
    cluster is lowered into a trailing ``<fn>.cold`` section.  This is
    the ``cc_prof`` directive of Figure 1.

    ``ir_profile`` enables the baseline's PGO-guided local layout:
    within each (single) function section, likely successors are placed
    as fall-throughs and never-executed blocks sink to the end.
    """

    bb_sections: BBSectionsMode = BBSectionsMode.NONE
    clusters: Optional[Mapping[str, Sequence[Sequence[int]]]] = None
    bb_addr_map: bool = False
    ir_profile: Optional[object] = None  # repro.profiles.IRProfile (duck-typed)
    #: Software-prefetch directives (§3.5): function -> list of
    #: (bb_id, target symbol); a PREFETCH of the symbol is emitted at
    #: the start of the named block.
    prefetches: Optional[Mapping[str, Sequence[object]]] = None
    #: Emit DWARF debug information.  Discontiguous functions need one
    #: DW_AT_ranges descriptor (plus two boundary relocations) per
    #: basic-block cluster section (§4.3), so debug size grows with the
    #: fragment count -- another reason clusters beat per-block sections.
    debug_info: bool = False

    def prefetches_for(self, func_name: str):
        if self.prefetches is None:
            return ()
        return self.prefetches.get(func_name, ())

    def clusters_for(self, func_name: str) -> Optional[Sequence[Sequence[int]]]:
        if self.bb_sections != BBSectionsMode.LIST or self.clusters is None:
            return None
        return self.clusters.get(func_name)

    def cache_signature(self) -> str:
        """SHA-256 over everything here that changes generated code.

        A codegen action's cache key must cover its *full* input set --
        module content, these options, and the steering profile -- so a
        persistent cache shared across runs never replays an object
        compiled under different options (e.g. a different seed's
        ``ir_profile``).  The profile contributes via its ``digest()``
        when it defines one (duck-typed, like ``ir_profile`` itself).
        """
        h = hashlib.sha256()
        h.update(
            f"{self.bb_sections.value}:{int(self.bb_addr_map)}:{ALIGN_FUNCTION}:"
            f"{CALLEE_SAVED_REGS}:{int(self.debug_info)}".encode()
        )
        if self.clusters is not None:
            for fn in sorted(self.clusters):
                encoded = "|".join(
                    ",".join(str(bb) for bb in cluster) for cluster in self.clusters[fn]
                )
                h.update(f"\x00K{fn}={encoded}".encode())
        if self.prefetches is not None:
            for fn in sorted(self.prefetches):
                h.update(f"\x00P{fn}={sorted(map(tuple, self.prefetches[fn]))}".encode())
        profile_digest = getattr(self.ir_profile, "digest", None)
        h.update(b"\x00I")
        h.update(profile_digest().encode() if callable(profile_digest) else b"none")
        return h.hexdigest()
