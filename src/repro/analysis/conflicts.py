"""Static i-cache conflict prediction from layout, call graph and sizes.

The observability layer *measures* the eviction graph by simulating a
trace; this module *predicts* it from the laid-out program alone — no
trace, no simulator.  The prediction is sound by construction (no false
negatives against the simulated :class:`repro.obs.ConflictMatrix`):

1. Every function the walker can execute is in the **live set**: any
   registered name can be entered through dynamic dispatch after
   :meth:`Program.resolve_entry` (the walker's own rule), and the set is
   closed over alias-resolved static call edges.
2. Every instruction fetch lands in a cache block overlapped by a live
   function's laid-out extent, so the **fetchable blocks** are the union
   of those extents at cache-block granularity.
3. The simulator attributes each block to the function owning the block's
   *base address* (:class:`repro.obs.attribution._OwnerMap`) — which, for
   a block straddling a function boundary, can be the preceding function
   or ``(unattributed)`` for an alignment gap.  The predictor attributes
   fetchable blocks with the identical rule, so misattribution at
   boundaries is reproduced rather than papered over.
4. Two attributed blocks conflict exactly when they are distinct but map
   to the same direct-mapped set.  Every pair of names (self-pairs
   included — a function larger than the cache aliases with itself) with
   such a block pair is predicted.

The observed matrix is a subset: simulation only records evictions that
actually happen, prediction covers all that *could*.  ``likely`` pairs
restrict the footprint to each function's mainline prefix
(``hot_size_of``); a conflict between mainline code is expected to persist
into the steady state, one involving an outlined cold tail is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.arch.memory import MemoryConfig
from repro.core.program import Program
from repro.obs.attribution import UNATTRIBUTED, _OwnerMap
from repro.obs.conflicts import ConflictMatrix
from repro.analysis.verify import Finding

CONFLICT_FALSE_NEGATIVE = "conflict-false-negative"

Pair = Tuple[str, str]


def live_functions(program: Program) -> Set[str]:
    """Every function the walker can reach in this build.

    Dynamic dispatch can enter any registered name; the walker resolves it
    through the entry-alias chain first, so the live set is the image of
    ``resolve_entry`` over all names, closed over static call edges (also
    alias-resolved, as the walker resolves them).
    """
    live: Set[str] = set()
    work: List[str] = []
    for name in program.names():
        resolved = program.resolve_entry(name)
        if resolved in program and resolved not in live:
            live.add(resolved)
            work.append(resolved)
    while work:
        fn = program.function(work.pop())
        for callee in fn.callees():
            resolved = program.resolve_entry(callee)
            if resolved in program and resolved not in live:
                live.add(resolved)
                work.append(resolved)
    return live


@dataclass
class ConflictPrediction:
    """The statically-predicted eviction graph of one laid-out build."""

    #: all predicted conflicting pairs, unordered (sorted tuples); includes
    #: self-pairs for functions that alias with themselves
    pairs: Set[Pair] = field(default_factory=set)
    #: pairs predicted from mainline (hot) footprints only — the conflicts
    #: expected to survive into the steady state
    likely: Set[Pair] = field(default_factory=set)
    live: Set[str] = field(default_factory=set)
    #: attributed name -> cache blocks (absolute block numbers) it owns
    #: among the fetchable footprint
    blocks: Dict[str, Set[int]] = field(default_factory=dict)

    def covers(self, evictor: str, victim: str) -> bool:
        return tuple(sorted((evictor, victim))) in self.pairs


def _pairs_from_blocks(
    attributed: Dict[str, Set[int]], nsets: int
) -> Set[Pair]:
    by_set: Dict[int, List[Tuple[str, int]]] = {}
    for name, blocks in attributed.items():
        for blk in blocks:
            by_set.setdefault(blk % nsets, []).append((name, blk))
    pairs: Set[Pair] = set()
    for entries in by_set.values():
        if len(entries) < 2:
            continue
        for i, (name_a, blk_a) in enumerate(entries):
            for name_b, blk_b in entries[i + 1 :]:
                if blk_a != blk_b:
                    pairs.add(
                        (name_a, name_b) if name_a <= name_b else (name_b, name_a)
                    )
    return pairs


def _attribute(
    program: Program,
    live: Iterable[str],
    size_of: Callable[[str], int],
    bs: int,
) -> Dict[str, Set[int]]:
    """Fetchable blocks of the live functions' extents, by owner."""
    owner = _OwnerMap(program).owner
    attributed: Dict[str, Set[int]] = {}
    for name in live:
        start = program.address_of(name)
        size = size_of(name)
        if size <= 0:
            continue
        for blk in range(start // bs, (start + size - 1) // bs + 1):
            attributed.setdefault(owner(blk * bs), set()).add(blk)
    return attributed


def predict_conflicts(
    program: Program,
    *,
    memory: Optional[MemoryConfig] = None,
) -> ConflictPrediction:
    """Predict the i-cache eviction graph of a laid-out ``program``."""
    if not program.has_layout():
        raise ValueError("conflict prediction requires a laid-out program")
    mem = memory or MemoryConfig()
    bs = mem.block_size
    live = live_functions(program)
    full = _attribute(program, live, program.size_of, bs)
    return ConflictPrediction(
        pairs=_pairs_from_blocks(full, mem.icache_size // bs),
        likely=likely_pairs(program, live=live, memory=mem),
        live=live,
        blocks=full,
    )


def likely_pairs(
    program: Program,
    *,
    live: Optional[Set[str]] = None,
    memory: Optional[MemoryConfig] = None,
) -> Set[Pair]:
    """The ``likely`` pairs of :func:`predict_conflicts` alone.

    Attributes only the mainline footprints.  The live set depends on
    names and call edges, not on addresses, so callers that re-lay one
    program out many times pass :func:`live_functions` in once.
    """
    if not program.has_layout():
        raise ValueError("conflict prediction requires a laid-out program")
    mem = memory or MemoryConfig()
    bs = mem.block_size
    if live is None:
        live = live_functions(program)
    hot = _attribute(program, live, program.hot_size_of, bs)
    return _pairs_from_blocks(hot, mem.icache_size // bs)


# --------------------------------------------------------------------------- #
# validation against the simulated eviction graph                             #
# --------------------------------------------------------------------------- #


def observed_pairs(matrices: Iterable[ConflictMatrix]) -> Set[Pair]:
    """Unordered (evictor, victim) pairs recorded by simulation.

    ``(unattributed)`` entries are dropped only when paired with
    themselves; a real function conflicting with an alignment gap's block
    is still a prediction obligation (the predictor attributes gaps the
    same way).
    """
    pairs: Set[Pair] = set()
    for matrix in matrices:
        for evictor, victim in matrix.counts:
            if evictor == UNATTRIBUTED and victim == UNATTRIBUTED:
                continue
            pairs.add(tuple(sorted((evictor, victim))))
    return pairs


def validate_prediction(
    prediction: ConflictPrediction,
    matrices: Iterable[ConflictMatrix],
    *,
    context: str = "",
) -> List[Finding]:
    """Every observed eviction pair must have been predicted.

    A false negative means the static model of fetchable code diverged
    from what the simulator actually fetched — a layout, liveness or
    attribution bug worth failing a build over.
    """
    where = f" in {context}" if context else ""
    findings: List[Finding] = []
    for evictor, victim in sorted(observed_pairs(matrices)):
        if (evictor, victim) not in prediction.pairs:
            findings.append(Finding(
                CONFLICT_FALSE_NEGATIVE,
                evictor,
                f"simulated eviction pair ({evictor}, {victim}){where} "
                f"was not statically predicted",
            ))
    return findings


def render_prediction(prediction: ConflictPrediction, *, top: int = 12) -> str:
    """A short human-readable summary for the CLI."""
    cross = sorted(p for p in prediction.pairs if p[0] != p[1])
    self_pairs = sorted(p[0] for p in prediction.pairs if p[0] == p[1])
    lines = [
        f"live functions: {len(prediction.live)}",
        f"predicted conflicting pairs: {len(cross)} "
        f"({len(prediction.likely)} likely in steady state), "
        f"self-aliasing functions: {len(self_pairs)}",
    ]
    for a, b in cross[:top]:
        tag = " [likely]" if (a, b) in prediction.likely else ""
        lines.append(f"  {a} <-> {b}{tag}")
    if len(cross) > top:
        lines.append(f"  ... and {len(cross) - top} more")
    for name in self_pairs:
        lines.append(f"  {name} <-> itself")
    return "\n".join(lines)
