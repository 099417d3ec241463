"""Stale-profile matching: fuzzy block matching plus count inference.

The pipeline's staleness model (:meth:`IRProfile.apply_drift`) mirrors
§2.4 of the paper: between the profiled release and the current source,
counts are distorted and a fraction of them are orphaned entirely --
dropped by dropout, or left behind by CFG transformations like
inlining.  Before this module existed the orphaned counts were simply
zero, so the PGO local layout laid hot blocks out as if they were cold.

:func:`match_profile` recovers them in two stages, following "Stale
Profile Matching" (Ayupov, Panchenko, Pupyrev) and BOLT:

1. **Tiered fuzzy matching.**  Blocks of the profiled CFG (whose
   anchors the profile carries from collection time) are matched to
   blocks of the current CFG strictly by content hash first, then --
   in ``loose`` mode -- by the forgiving opcode-multiset hash, then
   positionally (identical block ids).  Hash-collision groups are
   paired in layout-position order.  Matched blocks keep their counts
   under their *new* ids instead of being discarded.
2. **Count inference.**  Entries that remain zero (dropout orphans)
   and blocks the matcher could not pair (new/split blocks) are
   rebalanced with a flow-conservation pass: a block executes as often
   as control enters or leaves it, so an unknown count is the maximum
   of its known in- and outflow (Kirchhoff-style), and a known block's
   unexplained residual outflow is pushed across its zero-count edges
   proportionally to the static branch priors.  Values freeze once
   inferred, so the pass is monotone and terminates.

Inference only ever *fills zeros* -- a measured nonzero count is never
adjusted -- which gives the two invariants the property tests pin
down: matching an undrifted profile is the identity, and the recovered
match rate is always >= the stale one on an unchanged CFG.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir import cfg as ir_cfg
from repro.ir.nodes import Function, Program
from repro.profiles.hashing import BlockAnchor, function_anchors
from repro.profiles.pgo import IRProfile

__all__ = ["MATCH_MODES", "MatchStats", "match_profile"]

#: Supported matching modes: ``off`` is the identity (no recovery),
#: ``strict`` matches by exact content hash only, ``loose`` adds the
#: opcode-multiset tier.
MATCH_MODES = ("off", "strict", "loose")

#: Freeze-once inference passes; each pass lets estimates chain one
#: block further, so this bounds the recoverable gap length.
_INFER_PASSES = 10


@dataclass
class MatchStats:
    """Accounting of one :func:`match_profile` run."""

    mode: str
    #: Functions with profile data that exist in the current program.
    functions: int = 0
    #: Profiled block entries examined (the old side of the match).
    blocks_total: int = 0
    matched_exact: int = 0
    matched_loose: int = 0
    matched_positional: int = 0
    #: Old entries (blocks and edges) with no current-CFG counterpart.
    unmatched: int = 0
    #: Zero or absent counts filled in by flow conservation.
    blocks_inferred: int = 0
    edges_inferred: int = 0
    #: ``match_rate`` of the input and output profiles.
    stale_match_rate: float = 1.0
    recovered_match_rate: float = 1.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form (what ``PipelineReport.profile_recovery`` holds)."""
        return dict(dataclasses.asdict(self))

    def as_gauges(self) -> Dict[str, float]:
        """The stats as observability gauges (``profile.*`` namespace)."""
        return {
            "profile.blocks_matched_exact": self.matched_exact,
            "profile.blocks_matched_loose": self.matched_loose,
            "profile.blocks_matched_positional": self.matched_positional,
            "profile.blocks_unmatched": self.unmatched,
            "profile.blocks_inferred": self.blocks_inferred,
            "profile.edges_inferred": self.edges_inferred,
            "profile.recovered_match_rate": self.recovered_match_rate,
        }


def _pair_by_hash(
    old_ids: List[int],
    new_ids: List[int],
    old_anchors: Dict[int, BlockAnchor],
    new_anchors: Dict[int, BlockAnchor],
    tier: str,
) -> List[Tuple[int, int]]:
    """Pair unmatched old/new blocks whose ``tier`` hash agrees.

    Collision groups (several blocks with one hash) are paired in
    layout-position order -- the positional disambiguation of the
    stale-matching papers.
    """
    old_groups: Dict[str, List[int]] = {}
    for bb in sorted(old_ids, key=lambda b: old_anchors[b].pos):
        old_groups.setdefault(getattr(old_anchors[bb], tier), []).append(bb)
    new_groups: Dict[str, List[int]] = {}
    for bb in sorted(new_ids, key=lambda b: new_anchors[b].pos):
        new_groups.setdefault(getattr(new_anchors[bb], tier), []).append(bb)
    pairs: List[Tuple[int, int]] = []
    for digest in sorted(old_groups):
        news = new_groups.get(digest)
        if not news:
            continue
        pairs.extend(zip(old_groups[digest], news))
    return pairs


def _match_function(
    old_anchors: Optional[Dict[int, BlockAnchor]],
    new_anchors: Dict[int, BlockAnchor],
    old_profiled: List[int],
    mode: str,
    stats: MatchStats,
) -> Dict[int, int]:
    """old bb_id -> new bb_id for one function.

    The mapping domain is every *anchored* old block (when the profile
    carries anchors) so that cold old blocks claim their counterparts
    too -- otherwise a hot block could fuzzily steal a cold twin's
    slot.  Legacy profiles without anchors fall back to the positional
    tier over the profiled ids alone.
    """
    mapping: Dict[int, int] = {}
    old_ids = sorted(old_anchors) if old_anchors else sorted(old_profiled)
    remaining_old = list(old_ids)
    remaining_new = set(new_anchors)

    def take(pairs: List[Tuple[int, int]], counter: str) -> None:
        profiled = set(old_profiled)
        for old_bb, new_bb in pairs:
            if old_bb in mapping or new_bb not in remaining_new:
                continue
            mapping[old_bb] = new_bb
            remaining_new.discard(new_bb)
            if old_bb in profiled:
                setattr(stats, counter, getattr(stats, counter) + 1)
        remaining_old[:] = [bb for bb in remaining_old if bb not in mapping]

    if old_anchors:
        take(
            _pair_by_hash(remaining_old, sorted(remaining_new),
                          old_anchors, new_anchors, "strict"),
            "matched_exact",
        )
        if mode == "loose" and remaining_old:
            take(
                _pair_by_hash(remaining_old, sorted(remaining_new),
                              old_anchors, new_anchors, "loose"),
                "matched_loose",
            )
    # Positional tier: identical block ids that both sides still have.
    take(
        [(bb, bb) for bb in remaining_old if bb in remaining_new],
        "matched_positional",
    )
    return mapping


def _infer_function(
    function: Function,
    counts: Dict[int, float],
    edges: Dict[Tuple[int, int], float],
    cand_blocks: set,
    cand_edges: set,
    stats: MatchStats,
) -> None:
    """Flow-conservation inference over one function (in place).

    Only the candidate entries -- dropout zeros and unmatched new
    blocks/edges -- are ever written; measured counts are read-only.
    """
    succs: Dict[int, List[Tuple[int, float]]] = {}
    preds: Dict[int, List[int]] = {}
    for block in function.blocks:
        out = ir_cfg.successor_edges(block)
        succs[block.bb_id] = out
        for succ, _prob in out:
            preds.setdefault(succ, []).append(block.bb_id)

    unresolved_blocks = {bb for bb in cand_blocks if counts.get(bb, 0.0) <= 0}
    unresolved_edges = set(cand_edges)
    for _ in range(_INFER_PASSES):
        progress = False
        for bb in sorted(unresolved_blocks):
            inflow = sum(edges.get((p, bb), 0.0) for p in preds.get(bb, ()))
            outflow = sum(edges.get((bb, s), 0.0) for s, _ in succs.get(bb, ()))
            estimate = max(inflow, outflow)
            if estimate > 0:
                counts[bb] = estimate
                stats.blocks_inferred += 1
                progress = True
        unresolved_blocks = {bb for bb in unresolved_blocks
                             if counts.get(bb, 0.0) <= 0}
        for bb in sorted(bb for bb, c in counts.items() if c > 0):
            out = succs.get(bb)
            if not out:
                continue
            open_edges = [(s, p) for s, p in out if (bb, s) in unresolved_edges]
            if not open_edges:
                continue
            known = sum(edges.get((bb, s), 0.0) for s, _ in out
                        if (bb, s) not in unresolved_edges)
            residual = counts[bb] - known
            if residual <= 0:
                continue
            total_prior = sum(p for _, p in open_edges)
            for s, prior in open_edges:
                share = residual * (prior / total_prior if total_prior else
                                    1.0 / len(open_edges))
                if share > 0:
                    edges[(bb, s)] = share
                    unresolved_edges.discard((bb, s))
                    stats.edges_inferred += 1
                    progress = True
        if not progress:
            break


def match_profile(
    profile: IRProfile,
    program: Program,
    mode: str = "loose",
) -> Tuple[IRProfile, MatchStats]:
    """Re-attach a (possibly stale) profile to ``program``'s CFGs.

    Returns ``(recovered profile, stats)``.  The recovered profile is a
    new object keyed by the *current* program's block ids, carrying
    fresh anchors for the current CFG; the input profile is never
    mutated.  ``mode="off"`` returns the input profile unchanged (with
    identity stats) so callers can wire a mode knob straight through.
    """
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown matching mode {mode!r}; one of {MATCH_MODES}")
    stats = MatchStats(mode=mode)
    stats.stale_match_rate = profile.match_rate
    if mode == "off":
        stats.recovered_match_rate = profile.match_rate
        stats.blocks_total = sum(len(b) for b in profile.blocks.values())
        return profile, stats

    out = IRProfile(call_counts=dict(profile.call_counts))
    out.source_entries = profile.source_entries
    anchors = profile.anchors
    still_dropped = 0

    names = sorted(set(profile.blocks) | set(profile.edges))
    for name in names:
        old_blocks = profile.blocks.get(name, {})
        old_edges = profile.edges.get(name, {})
        if not program.has_function(name):
            # The function no longer exists: every entry is lost.
            lost = len(old_blocks) + len(old_edges)
            stats.unmatched += lost
            still_dropped += lost
            continue
        function = program.function(name)
        new_anchors = function_anchors(function)
        stats.functions += 1
        stats.blocks_total += len(old_blocks)
        mapping = _match_function(
            anchors.get(name), new_anchors, sorted(old_blocks), mode, stats
        )

        # Transfer counts onto the new ids (collisions accumulate).
        new_counts: Dict[int, float] = {}
        for old_bb in sorted(old_blocks):
            new_bb = mapping.get(old_bb)
            if new_bb is None:
                stats.unmatched += 1
                still_dropped += 1
                continue
            new_counts[new_bb] = new_counts.get(new_bb, 0.0) + old_blocks[old_bb]
        new_edges: Dict[Tuple[int, int], float] = {}
        edge_targets: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for (src, dst) in sorted(old_edges):
            ns, nd = mapping.get(src), mapping.get(dst)
            if ns is None or nd is None:
                stats.unmatched += 1
                still_dropped += 1
                continue
            key = (ns, nd)
            new_edges[key] = new_edges.get(key, 0.0) + old_edges[(src, dst)]
            edge_targets[(src, dst)] = key

        # Inference candidates: dropout zeros, plus current blocks (and
        # their incident edges) no old block claimed.  An undrifted,
        # unchanged profile produces no candidates, so matching it is
        # exactly the identity.
        cand_blocks = {bb for bb, c in new_counts.items() if c <= 0}
        cand_blocks.update(bb for bb in new_anchors if bb not in new_counts
                           and bb not in mapping.values())
        cand_edges = {key for key, c in new_edges.items() if c <= 0}
        for block in function.blocks:
            for succ, _prob in ir_cfg.successor_edges(block):
                key = (block.bb_id, succ)
                if key in new_edges:
                    continue
                if block.bb_id in cand_blocks or succ in cand_blocks:
                    cand_edges.add(key)
        if cand_blocks or cand_edges:
            _infer_function(function, new_counts, new_edges,
                            cand_blocks, cand_edges, stats)

        # Entries that stayed at zero are still dropped.
        for old_bb in old_blocks:
            new_bb = mapping.get(old_bb)
            if new_bb is not None and new_counts.get(new_bb, 0.0) <= 0:
                still_dropped += 1
        for old_edge in old_edges:
            key = edge_targets.get(old_edge)
            if key is not None and new_edges.get(key, 0.0) <= 0:
                still_dropped += 1

        if name in profile.blocks or new_counts:
            out.blocks[name] = new_counts
        if name in profile.edges or new_edges:
            out.edges[name] = new_edges
        out.anchors[name] = new_anchors

    out.dropped_entries = min(still_dropped, out.source_entries) \
        if out.source_entries else 0
    stats.recovered_match_rate = out.match_rate
    return out, stats
