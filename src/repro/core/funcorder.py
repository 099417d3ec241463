"""Hot function ordering via call-chain clustering (C3 / hfsort).

Propeller's global layout places hot function sections by a call-graph
clustering pass (the same family as BOLT's ``-reorder-functions=hfsort``).
The C3 heuristic processes functions from hottest to coldest and
appends each to the cluster of its most frequent caller, unless the
merged cluster would exceed a size cap (keeping clusters within an
instruction-page neighbourhood).  Final clusters are emitted in
decreasing execution density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

#: Cluster size cap: one 2MB hugepage would be far too lax for
#: i-cache locality; C3 traditionally uses the 4KB page.
DEFAULT_MAX_CLUSTER_BYTES = 4096


@dataclass
class _Cluster:
    funcs: List[str]
    size: int
    weight: float

    @property
    def density(self) -> float:
        return self.weight / max(1, self.size)


def hfsort_order(
    funcs: Dict[str, Tuple[int, float]],
    call_edges: Iterable[Tuple[str, str, float]],
) -> List[str]:
    """Order ``funcs`` (name -> (size, heat)) by call-chain clustering.

    ``call_edges`` are (caller, callee, count) samples.  Functions
    absent from ``funcs`` are ignored; every function in ``funcs``
    appears in the result exactly once.
    """
    heaviest_caller: Dict[str, Tuple[str, float]] = {}
    for caller, callee, weight in call_edges:
        if caller not in funcs or callee not in funcs or caller == callee:
            continue
        best = heaviest_caller.get(callee)
        if best is None or weight > best[1]:
            heaviest_caller[callee] = (caller, weight)

    cluster_of: Dict[str, _Cluster] = {}
    for name, (size, weight) in funcs.items():
        cluster_of[name] = _Cluster(funcs=[name], size=max(1, size), weight=weight)

    by_heat = sorted(funcs, key=lambda n: (-funcs[n][1], n))
    for name in by_heat:
        entry = heaviest_caller.get(name)
        if entry is None:
            continue
        caller, _weight = entry
        src = cluster_of[name]
        dst = cluster_of[caller]
        if src is dst:
            continue
        # The callee must still head its cluster, otherwise appending it
        # after its caller would not make the call edge short.
        if src.funcs[0] != name:
            continue
        if dst.size + src.size > DEFAULT_MAX_CLUSTER_BYTES:
            continue
        dst.funcs.extend(src.funcs)
        dst.size += src.size
        dst.weight += src.weight
        for moved in src.funcs:
            cluster_of[moved] = dst

    seen = set()
    clusters: List[_Cluster] = []
    for cluster in cluster_of.values():
        if id(cluster) in seen:
            continue
        seen.add(id(cluster))
        clusters.append(cluster)
    clusters.sort(key=lambda c: (-c.density, c.funcs[0]))
    return [name for cluster in clusters for name in cluster.funcs]
