"""Instrumented PGO profiles at the IR level (§2.2).

The baseline build in the paper is PGO (+ ThinLTO): an instrumented
binary runs a load test and edge counters feed the second build.  Here
the instrumented run is a seeded random walk over the IR CFG with the
same call/return semantics as the machine-level tracer.

:meth:`IRProfile.apply_drift` models the staleness the paper attributes
to instrumented profiles (§2.4: "post link profiles fix inaccuracies
accrued by instrumented profiles as optimizations transform the
source"): counts are multiplicatively perturbed before being handed to
the compiler.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import ir
from repro.ir import cfg as ir_cfg
from repro.profiles.hashing import function_anchors


@dataclass
class IRProfile:
    """Edge and block counts per function, keyed by IR block ids."""

    edges: Dict[str, Dict[Tuple[int, int], float]] = field(default_factory=dict)
    blocks: Dict[str, Dict[int, float]] = field(default_factory=dict)
    call_counts: Dict[str, float] = field(default_factory=dict)
    #: Profile-quality accounting, filled by :meth:`apply_drift`: how
    #: many nonzero edge/block entries the unperturbed profile had, and
    #: how many of them dropout zeroed.  These never enter
    #: :meth:`digest` -- they describe provenance, not content.
    source_entries: int = 0
    dropped_entries: int = 0
    #: Content hashes of the profiled CFG's blocks, recorded at
    #: collection time (function -> bb_id -> BlockAnchor).  This is
    #: what :func:`repro.profiles.match_profile` matches against when
    #: the profile is applied to a later release's CFG; like the
    #: accounting fields it describes provenance and never enters
    #: :meth:`digest`.
    anchors: Dict[str, Dict[int, object]] = field(default_factory=dict)

    def edge_counts(self, func: str) -> Dict[Tuple[int, int], float]:
        return self.edges.get(func, {})

    def block_counts(self, func: str) -> Dict[int, float]:
        return self.blocks.get(func, {})

    def function_count(self, func: str) -> float:
        return self.call_counts.get(func, 0.0)

    @property
    def match_rate(self) -> float:
        """Fraction of the source profile's nonzero counts that survived
        drift/dropout -- the "profile match rate" practitioners use as
        the first staleness indicator.  1.0 for an unperturbed profile.
        """
        if not self.source_entries:
            return 1.0
        return 1.0 - self.dropped_entries / self.source_entries

    def digest(self) -> str:
        """SHA-256 over the full profile content, bit-exact on counts.

        Part of every codegen action's cache key: the profile steers
        block layout, so two actions over the same module with
        different profiles must never share a cache entry (the
        in-memory cache never outlived one profile; a persistent one
        does).  Floats are hashed via ``float.hex()`` -- exact, no
        formatting rounding.  Memoized: profiles are built once and
        never mutated afterwards by the pipeline.
        """
        memo = getattr(self, "_digest_memo", None)
        if memo is not None:
            return memo
        h = hashlib.sha256()
        for func in sorted(self.edges):
            h.update(b"\x00E")
            h.update(func.encode())
            for (src, dst), count in sorted(self.edges[func].items()):
                h.update(f"{src}:{dst}:{float(count).hex()};".encode())
        for func in sorted(self.blocks):
            h.update(b"\x00B")
            h.update(func.encode())
            for bb_id, count in sorted(self.blocks[func].items()):
                h.update(f"{bb_id}:{float(count).hex()};".encode())
        for func in sorted(self.call_counts):
            h.update(f"\x00C{func}:{float(self.call_counts[func]).hex()}".encode())
        digest = h.hexdigest()
        object.__setattr__(self, "_digest_memo", digest)
        return digest

    def function_digest(self, func: str) -> str:
        """SHA-256 over one function's slice of the profile content.

        The per-function analogue of :meth:`digest` -- edge counts,
        block counts and the call count of ``func``, floats hashed via
        ``float.hex()`` -- used by :mod:`repro.incr` to detect which
        functions' profiles changed between epochs without comparing
        whole profiles.  A function the profile never saw digests to a
        stable "empty" value.
        """
        h = hashlib.sha256()
        h.update(b"\x00E")
        for (src, dst), count in sorted(self.edges.get(func, {}).items()):
            h.update(f"{src}:{dst}:{float(count).hex()};".encode())
        h.update(b"\x00B")
        for bb_id, count in sorted(self.blocks.get(func, {}).items()):
            h.update(f"{bb_id}:{float(count).hex()};".encode())
        h.update(f"\x00C{float(self.call_counts.get(func, 0.0)).hex()}".encode())
        return h.hexdigest()

    def copy(self) -> "IRProfile":
        """An independent copy (fresh count dicts, shared anchors)."""
        return IRProfile(
            edges={fn: dict(v) for fn, v in self.edges.items()},
            blocks={fn: dict(v) for fn, v in self.blocks.items()},
            call_counts=dict(self.call_counts),
            source_entries=self.source_entries,
            dropped_entries=self.dropped_entries,
            anchors={fn: dict(v) for fn, v in self.anchors.items()},
        )

    def apply_drift(self, drift: float, seed: int = 0) -> "IRProfile":
        """Return a perturbed *copy* modelling profile staleness (§2.4).

        Two effects are modelled.  Multiplicative log-normal noise of
        width ``drift`` distorts relative counts (training inputs never
        match production exactly).  The same ``drift`` is also the
        probability that each edge/block count is zeroed, modelling
        counts orphaned by the transformations (inlining, CFG
        restructuring) between instrumentation and final code
        generation; a dropped hot block is laid out as if cold,
        which is precisely the inaccuracy post-link profiles repair.

        Like the rest of the dataclass-style profile API this never
        mutates ``self``: the result is always a new profile (a plain
        :meth:`copy` when ``drift <= 0``), and it keeps the source
        profile's :attr:`anchors` -- a stale profile still describes
        the CFG it was *collected* on, which is what stale-profile
        matching needs to re-attach it later.
        """
        if drift <= 0:
            return self.copy()
        rng = random.Random(seed)
        out = IRProfile(
            call_counts=dict(self.call_counts),
            anchors={fn: dict(v) for fn, v in self.anchors.items()},
        )
        source = 0
        dropped = 0

        def perturb(counts):
            # One rng.random() per entry, lognormvariate only for
            # survivors: the exact draw order the seeded outputs are
            # pinned to (see tests/golden).
            nonlocal source, dropped
            result = {}
            for key, count in counts.items():
                if count > 0:
                    source += 1
                if rng.random() < drift:
                    if count > 0:
                        dropped += 1
                    result[key] = 0.0
                else:
                    result[key] = count * rng.lognormvariate(0.0, drift)
            return result

        for func, edges in self.edges.items():
            out.edges[func] = perturb(edges)
        for func, blocks in self.blocks.items():
            out.blocks[func] = perturb(blocks)
        out.source_entries = source
        out.dropped_entries = dropped
        return out


def _cumulative(choices):
    """``[(item, prob), ...]`` -> ``((cumulative prob, item), ...)``,
    accumulated left to right as the walk's draw loop used to."""
    acc = 0.0
    out = []
    for item, prob in choices:
        acc += prob
        out.append((acc, item))
    return tuple(out)


def collect_ir_profile(
    program: ir.Program, max_steps: int = 200_000, seed: int = 0
) -> IRProfile:
    """Run the instrumented IR interpreter and gather edge counts.

    Besides the counts, the profile records a :class:`BlockAnchor` per
    block of every function it visited -- the content hashes
    stale-profile matching later uses to re-attach the counts to a
    changed CFG (real instrumented profiles carry the same thing as
    pseudo-probe/BB hashes).
    """
    random_draw = random.Random(seed).random
    # The loop steps over interned ints: node ``n`` is block ``keys[n]``,
    # edge ``e`` is ``(src node, dst node)`` and function ``f`` the f-th
    # key of ``callees``, each counted in an int list.  A node is compiled
    # on its first visit, so ``visited`` is first-visit order; ``taken``
    # and ``called`` record first touch.  The dicts are built in those
    # orders at the end.
    node_ids: Dict[Tuple[str, int], int] = {}
    edge_ids: Dict[Tuple[int, int], int] = {}
    callees: Dict[str, Tuple[int, int]] = {}  # name -> (entry node, function id)
    keys, visits, tables, visited = [], [], [], []
    takes, taken, calls, called = [], [], [], []

    def node_id(fname: str, bb_id: int) -> int:
        n = node_ids.get((fname, bb_id))
        if n is None:
            n = node_ids[fname, bb_id] = len(keys)
            keys.append((fname, bb_id))
            visits.append(0)
            tables.append(None)
        return n

    def callee(fname: str) -> Tuple[int, int]:
        if fname not in callees:
            callees[fname] = (node_id(fname, program.function(fname).entry.bb_id), len(callees))
            calls.append(0)
        return callees[fname]

    def edge_id(src: int, dst: int) -> int:
        e = edge_ids.setdefault((src, dst), len(edge_ids))
        if e == len(takes):
            takes.append(0)
        return e

    def compile_node(n: int) -> tuple:
        """``(sites, rows)``: one ``(entry node, function id)`` per call
        site that transfers control, or ``(None, cumulative rows of
        those)`` for an indirect one; the cumulative successor rows
        ``(prob, node, edge)``, None when the block returns."""
        fname, bb_id = keys[n]
        block = program.function(fname).block(bb_id)
        sites = []
        for instr in block.instrs:
            if isinstance(instr, ir.Call) and instr.callee is not None:
                sites.append(callee(instr.callee))
            elif isinstance(instr, ir.Call) and instr.indirect_targets:
                sites.append((None, _cumulative((callee(t), p) for t, p in instr.indirect_targets)))
        rows = None
        if not isinstance(block.term, (ir.Ret, ir.Unreachable)):
            rows = tuple((acc, m, edge_id(n, m)) for acc, m in _cumulative(
                (node_id(fname, b), p) for b, p in ir_cfg.successor_edges(block)))
            if not rows:
                raise ir.IRVerificationError(f"{fname}: bb{bb_id} has no successor")
        tables[n] = tuple(sites), rows
        visited.append(n)
        return tables[n]

    entry_name = program.entry_function
    start = node_id(entry_name, 0)
    entry_fid = callee(entry_name)[1]
    called.append(entry_fid)
    calls[entry_fid] = 1
    # Frames: (node, index of next call site to process).
    frames: List[Tuple[int, int]] = []
    node, call_idx = start, 0
    # One draw per indirect call and one per terminator with successors
    # (single-successor jumps included): the seeded outputs are pinned
    # to this draw sequence.
    for _step in range(max_steps):
        sites, rows = tables[node] or compile_node(node)
        if call_idx == 0:
            visits[node] += 1
        if call_idx < len(sites):
            site = sites[call_idx]
            if site[0] is None:
                r = random_draw()
                for row in site[1]:
                    if r < row[0]:
                        break
                site = row[1]
            if not calls[site[1]]:
                called.append(site[1])
            calls[site[1]] += 1
            frames.append((node, call_idx + 1))
            node, call_idx = site[0], 0
        elif rows is None:
            if frames:
                node, call_idx = frames.pop()
            else:
                node, call_idx = start, 0
                calls[entry_fid] += 1
        else:
            r = random_draw()
            for row in rows:
                if r < row[0]:
                    break
            e = row[2]
            if not takes[e]:
                taken.append(e)
            takes[e] += 1
            node, call_idx = row[1], 0

    # Every count is below 2**53, so float(count) equals the float sum
    # of ``+ 1``s from 0.0 that the profile's counts always were.
    profile = IRProfile()
    for n in visited:
        fname, bb_id = keys[n]
        profile.blocks.setdefault(fname, {})[bb_id] = float(visits[n])
    edge_keys = list(edge_ids)
    for e in taken:
        src, dst = edge_keys[e]
        fname, bb_id = keys[src]
        profile.edges.setdefault(fname, {})[bb_id, keys[dst][1]] = float(takes[e])
    names = list(callees)
    for fid in called:
        profile.call_counts[names[fid]] = float(calls[fid])
    for fname in profile.blocks:
        profile.anchors[fname] = function_anchors(program.function(fname))
    return profile
