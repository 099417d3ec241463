"""Micro-architectural frontend model (Skylake-shaped).

Replays a generated execution trace through models of the structures
code layout actually affects -- L1 instruction cache, L2 (code reads),
two-level iTLB with optional 2M hugepages, branch target buffer, and
the decoded stream buffer (DSB) -- and produces the counters of the
paper's Table 4 plus a simple additive cycle model.  Absolute cycle
counts are not meaningful; *relative* movement between layouts of the
same workload is the measured quantity (Table 3, Figure 8).
"""

from repro.hwmodel.caches import SetAssociativeCache
from repro.hwmodel.frontend import (
    TABLE4_LABELS,
    FrontendCounters,
    SkylakeParams,
    frontend_scorecard,
    simulate_frontend,
)
from repro.hwmodel.heatmap import AccessHeatmap, record_heatmap, render_heatmap

__all__ = [
    "SetAssociativeCache",
    "FrontendCounters",
    "SkylakeParams",
    "TABLE4_LABELS",
    "frontend_scorecard",
    "simulate_frontend",
    "AccessHeatmap",
    "record_heatmap",
    "render_heatmap",
]
