"""Profile-guided software prefetch planning (§3.5).

The paper sketches post-link prefetch insertion as a second
optimization that fits Propeller's split design: a whole-program
analysis decides *where* prefetches pay off, and summary directives
drive the distributed codegen actions that insert the instructions.

The planner targets instruction-side misses: for every hot
cross-function call edge, it asks the codegen to prefetch the callee's
entry from a *predecessor* of the calling block (to buy lead time), so
the callee's first lines are resident by the time the call retires.
Directives are ``(bb_id, target_symbol)`` pairs per function -- a few
bytes each, exactly the summary shape §3.5 calls for.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.wpa import FunctionDCFG

#: Calls below this fraction of the hottest call edge are not worth a slot.
_RELATIVE_THRESHOLD = 0.05
#: Directives per function: prefetch slots compete with real fetch
#: bandwidth, and flooding them hurts.
MAX_PER_FUNCTION = 4
#: Sampled count below which a call edge never gets a directive.
MIN_COUNT = 16.0


def plan_prefetches(
    dcfg: Dict[str, FunctionDCFG],
    block_call_edges: Dict[Tuple[str, int, str, int], float],
) -> Dict[str, List[Tuple[int, str]]]:
    """Choose prefetch directives from the sampled call graph.

    Returns ``{function: [(bb_id, callee_symbol), ...]}``, deduplicated
    and capped at :data:`MAX_PER_FUNCTION`.
    """
    if not block_call_edges:
        return {}
    hottest = max(block_call_edges.values())
    threshold = max(MIN_COUNT, hottest * _RELATIVE_THRESHOLD)

    # Hot call edges, heaviest first.
    candidates = sorted(
        ((w, caller, bb, callee) for (caller, bb, callee, _e), w in block_call_edges.items()
         if w >= threshold and caller != callee),
        reverse=True,
    )
    plan: Dict[str, List[Tuple[int, str]]] = {}
    seen: set = set()
    for _w, caller, bb, callee in candidates:
        directives = plan.setdefault(caller, [])
        if len(directives) >= MAX_PER_FUNCTION:
            continue
        site = _hoist_block(dcfg.get(caller), bb)
        key = (caller, site, callee)
        if key in seen:
            continue
        seen.add(key)
        directives.append((site, callee))
    return {fn: d for fn, d in plan.items() if d}


def _hoist_block(fd: FunctionDCFG, bb: int) -> int:
    """The hottest sampled predecessor of ``bb``, for lead time.

    Falls back to the calling block itself when no predecessor
    dominates (e.g. the call sits in the entry block).
    """
    if fd is None:
        return bb
    best = bb
    best_weight = 0.0
    for (src, dst), weight in fd.edges.items():
        if dst == bb and src != bb and weight > best_weight:
            best, best_weight = src, weight
    # Only hoist if the predecessor is clearly on the path.
    count = fd.block_counts.get(bb, 0.0)
    if best_weight < 0.5 * count:
        return bb
    return best
