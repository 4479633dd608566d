"""Sound static latency bounds via abstract interpretation of the memory model.

The simulator *measures* a cell's cold and steady-state mCPI; this module
*brackets* them — ``lower <= simulated <= upper`` — without running a
simulator.  The analysis is a classic must/may abstract interpretation of
the DEC 3000/600 hierarchy (:mod:`repro.arch.memory`) over a
layout-independent digest of the walked trace:

* **Digest** (:func:`digest_trace`) — the trace collapses into ordered
  events: pc-contiguous execution runs ``(function, start offset,
  count)`` and absolute data-block reads/writes, interleaved in exact
  trace order.  A run carries a data access only on its *last*
  instruction, so re-binding the digest to any candidate layout
  (:func:`bind_digest`, via :func:`repro.core.placement.run_blocks`)
  reproduces the exact fetch/data interleaving the walker would emit
  under that layout — functions are 4-byte aligned, so block boundaries
  move with the layout and must be re-derived per candidate.

* **Abstract domain** — every direct-mapped set holds a *possibility
  set* of tags: a single tag is **must** information (the block is
  definitely resident), several tags are **may** information (any one of
  them might be).  The stream buffer and the write-merging buffer are
  tracked as small sets of whole concrete states, widened to an unknown
  top when joins make them grow past a cap.  Joins at control-flow
  merges are pointwise unions; singleton sets keep the analysis exact.

* **Transfer** — each event charges a ``(lower, upper)`` stall interval
  derived from the exact latencies of :class:`~repro.arch.memory.
  MemoryConfig`: a must-hit charges nothing, a definite miss charges at
  least the cheapest miss outcome (stream-buffer hit, b-cache hit) and
  at most the costliest (main memory), and an unknown access charges
  ``(0, worst)``.  The cold pass starts from the empty hierarchy, so
  every possibility set stays a singleton and the cold bounds collapse
  to the exact simulated stall count — a model-fidelity check the test
  suite enforces bit for bit.

* **Persistence** — the steady measurement is the pass after two
  warm-ups (both engines use ``warmup_rounds=2``).  The analyzer replays
  two concrete passes, then iterates ``state := state JOIN
  transfer(state)`` to a fixed point: the result over-approximates the
  entry state of *every* later pass, so one abstract pass from it bounds
  the steady measurement for any warm-up count >= 2.  When pass states
  reach a concrete fixed point immediately (the common case — the fast
  engine's warm-up shortcut relies on the same property), the steady
  bounds are exact as well.

:func:`check_cell_bounds` validates the invariant against a chosen
engine.  The layout search (:mod:`repro.search.evaluate`) re-binds one
digest per candidate layout as fast-engine columns (:func:`bind_columns`)
and replays it on the fast kernel (:func:`replay_digest`): the replay
scores the candidate, and where its state closes after the third pass it
also *is* the steady bound — the abstract fixpoint would stop at zero
joins with ``lower == upper ==`` the replayed stalls — so the abstract
interpreter runs only for candidates whose replay does not close.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.verify import Finding
from repro.arch.fastsim import FastMachine, FetchColumns
from repro.arch.isa import INSTRUCTION_SIZE, TraceEntry
from repro.arch.memory import MemoryConfig, MemoryStats
from repro.arch.simulator import AlphaConfig
from repro.core.placement import run_blocks
from repro.core.program import Program
from repro.obs.layers import layer_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.walker import WalkResult
    from repro.protocols.options import Section2Options

BOUNDS_VIOLATION = "bounds-violation"

#: digest event, fixed arity: ``("X", function, start_offset, count)``
#: for a pc-contiguous execution run, ``("R" | "W", function, block, 0)``
#: for a data access attributed to the enclosing run's function
DigestEvent = Tuple[str, str, int, int]

#: bound (layout-applied) event: (kind, absolute block, function);
#: kind 0 = i-fetch block touch, 1 = data read, 2 = data write
BoundEvent = Tuple[int, int, str]

#: an abstract tag possibility set: a concrete tag (``int``, with
#: :data:`EMPTY` meaning "nothing resident") or a frozenset of >= 2 tags
TagValue = Union[int, "frozenset[int]"]

#: tag meaning "no block resident in this set"
EMPTY = -1

#: stream/write-buffer possibility caps before widening to :data:`TOP`
_STREAM_CAP = 8
_WB_CAP = 16


class _Top:
    """Widened "could be anything" state for stream/write buffers."""

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()

#: concrete stream-buffer state: (buffered block or None, bcache-miss flag)
StreamState = Tuple[Optional[int], bool]
_NO_STREAM: StreamState = (None, False)


# --------------------------------------------------------------------------- #
# trace digest                                                                #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TraceDigest:
    """Layout-independent digest of one walked trace.

    Events preserve the exact order of the memory accesses the hierarchy
    sees; execution runs are pc-contiguous and carry a data access only
    on their last instruction, so block-boundary geometry can be
    re-derived under any candidate layout without reordering anything.
    """

    events: Tuple[DigestEvent, ...]
    instructions: int


def digest_trace(trace: Iterable[TraceEntry], program: Program) -> TraceDigest:
    """Digest ``trace`` against ``program``'s current layout.

    Offsets are relative to each function's base address, so the digest
    is valid under any re-layout of the same program (the walk itself is
    layout-invariant; only pcs move).
    """
    ranges = program.occupied_ranges()
    starts = [r[0] for r in ranges]
    ends = [r[1] for r in ranges]
    names = [r[2] for r in ranges]
    bases = {name: program.address_of(name) for name in names}

    events: List[DigestEvent] = []
    fn = ""
    start = 0
    count = 0
    next_pc = -1
    cur_end = -1
    instructions = 0
    for entry in trace:
        instructions += 1
        pc = entry.pc
        if count and pc == next_pc and pc < cur_end:
            count += 1
        else:
            if count:
                events.append(("X", fn, start, count))
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= ends[i]:
                raise ValueError(
                    f"trace pc {pc:#x} lies outside every laid-out function"
                )
            fn = names[i]
            start = pc - bases[fn]
            cur_end = ends[i]
            count = 1
        next_pc = pc + INSTRUCTION_SIZE
        if entry.daddr is not None:
            events.append(("X", fn, start, count))
            kind = "W" if entry.dwrite else "R"
            events.append((kind, fn, entry.daddr // MemoryConfig.block_size, 0))
            count = 0
    if count:
        events.append(("X", fn, start, count))
    return TraceDigest(events=tuple(events), instructions=instructions)


def bind_digest(
    digest: TraceDigest,
    placements: Mapping[str, int],
    *,
    block_bytes: int = MemoryConfig.block_size,
) -> List[BoundEvent]:
    """Expand ``digest`` to absolute block events under ``placements``.

    ``placements`` maps every executed function to its base address (the
    same shape the layout search scores).  Execution runs expand to one
    fetch event per cache block entered — the block boundaries of this
    particular layout.
    """
    out: List[BoundEvent] = []
    append = out.append
    for kind, fn, a, b in digest.events:
        if kind == "X":
            for blk in run_blocks(
                placements[fn],
                a,
                b,
                block_bytes=block_bytes,
                instr_bytes=INSTRUCTION_SIZE,
            ):
                append((0, blk, fn))
        elif kind == "R":
            append((1, a, fn))
        else:
            append((2, a, fn))
    return out


def bind_columns(
    digest: TraceDigest,
    placements: Mapping[str, int],
    *,
    memory: Optional[MemoryConfig] = None,
) -> FetchColumns:
    """Re-bind ``digest`` to ``placements`` as fast-engine kernel columns.

    The result equals :func:`repro.arch.fastsim.trace_columns` of the
    trace the walker would emit under ``placements``: one fetch run per
    cache block a digest run enters, a run continuing in the block the
    previous one ended in folded into it (as consecutive same-block
    fetches fold in :func:`~repro.arch.fastsim.fetch_runs`), and each
    data access counted on the run holding its instruction.
    """
    cfg = memory or MemoryConfig()
    bs = cfg.block_size
    run_blks: List[int] = []
    dcounts: List[int] = []
    dblks: List[int] = []
    last = -1
    for kind, fn, a, b in digest.events:
        if kind == "X":
            # run_blocks(placements[fn], a, b, ...) spelled out: this loop
            # runs once per search candidate, and the call doubles its cost
            pc = placements[fn] + a
            first = pc // bs
            end = (pc + (b - 1) * INSTRUCTION_SIZE) // bs + 1
            if first == last:
                first += 1
            if first < end:
                run_blks.extend(range(first, end))
                dcounts.extend([0] * (end - first))
                last = end - 1
        else:
            dblks.append(a if kind == "R" else -2 - a)
            dcounts[-1] += 1
    ni = cfg.icache_size // bs
    run_idxs = [blk % ni for blk in run_blks]
    return run_blks, run_idxs, dcounts, dblks, digest.instructions


@dataclass(frozen=True)
class DigestReplay:
    """Cold and steady memory stats of one digest replayed concretely."""

    cold: MemoryStats
    steady: MemoryStats
    #: the third pass (after the cold pass and one warm-up) ends with the
    #: i/d/b tags, write buffer and stream buffer it began with, so
    #: :meth:`BoundsAnalyzer.analyze` closes at 0 joins with steady
    #: ``lower == upper == steady.stall_cycles``
    closed: bool


def _analyzer_view(machine: FastMachine) -> Tuple[object, ...]:
    """The part of a concrete state the abstract domain tracks.

    Ever-resident sets are dropped, and a stream buffer holding no block
    is ``(None, False)`` in the abstract domain whatever its stale miss
    flag, so it compares as ``(-1, False)`` here.
    """
    itags, dtags, btags, _, _, _, wb, sb, sb_miss = machine.snapshot_state()
    return itags, dtags, btags, wb, (sb, sb_miss if sb >= 0 else False)


def replay_digest(
    digest: TraceDigest,
    placements: Mapping[str, int],
    *,
    config: Optional[AlphaConfig] = None,
) -> DigestReplay:
    """Replay ``digest`` under ``placements`` on the fast engine's kernel.

    Measures exactly what :func:`repro.arch.fastsim.cold_and_steady_memory`
    measures on the walked trace: the cold pass, then warm passes until
    one is a fixed point or two warm-ups are done.  The same passes
    certify the abstract bound: a warm-up that the kernel proves a fixed
    point ends in a state every later pass reproduces, and otherwise the
    measured third pass is compared against its entry state.
    """
    cfg = config or AlphaConfig()
    machine = FastMachine(cfg)
    columns = bind_columns(digest, placements, memory=cfg.memory)
    cold, _ = machine.measure_columns(columns)
    steady, closed = machine.measure_columns(columns, track=True)
    if not closed:
        entry = _analyzer_view(machine)
        steady, _ = machine.measure_columns(columns)
        closed = _analyzer_view(machine) == entry
    return DigestReplay(cold=cold, steady=steady, closed=closed)


# --------------------------------------------------------------------------- #
# abstract state                                                              #
# --------------------------------------------------------------------------- #


def join_tags(a: TagValue, b: TagValue) -> TagValue:
    """Must/may join of two per-set tag values (union of possibilities)."""
    if a == b:
        return a
    left = frozenset((a,)) if isinstance(a, int) else a
    right = frozenset((b,)) if isinstance(b, int) else b
    return left | right


def may_resident(value: TagValue, block: int) -> bool:
    """Might ``block`` be resident given possibility ``value``?"""
    if isinstance(value, int):
        return value == block
    return block in value


def must_resident(value: TagValue, block: int) -> bool:
    """Is ``block`` definitely resident given possibility ``value``?"""
    return isinstance(value, int) and value == block


def _join_sparse(
    a: Dict[int, TagValue], b: Dict[int, TagValue]
) -> Dict[int, TagValue]:
    out: Dict[int, TagValue] = {}
    for key in a.keys() | b.keys():
        out[key] = join_tags(a.get(key, EMPTY), b.get(key, EMPTY))
    return out


def _join_small(
    a: Union[_Top, "frozenset"],
    b: Union[_Top, "frozenset"],
    cap: int,
) -> Union[_Top, "frozenset"]:
    if a is TOP or b is TOP:
        return TOP
    joined = a | b  # type: ignore[operator]
    if len(joined) > cap:
        return TOP
    return joined


class MemState:
    """Abstract state of the whole hierarchy.

    Direct-mapped caches are sparse ``set index -> TagValue`` maps
    (missing key = definitely empty); the stream buffer and write buffer
    are frozensets of whole concrete states, or :data:`TOP` after
    widening.
    """

    __slots__ = ("icache", "dcache", "bcache", "stream", "wb")

    def __init__(self) -> None:
        self.icache: Dict[int, TagValue] = {}
        self.dcache: Dict[int, TagValue] = {}
        self.bcache: Dict[int, TagValue] = {}
        self.stream: Union[_Top, "frozenset[StreamState]"] = frozenset(
            (_NO_STREAM,)
        )
        self.wb: Union[_Top, "frozenset[Tuple[int, ...]]"] = frozenset(((),))

    def copy(self) -> "MemState":
        out = MemState.__new__(MemState)
        out.icache = dict(self.icache)
        out.dcache = dict(self.dcache)
        out.bcache = dict(self.bcache)
        out.stream = self.stream
        out.wb = self.wb
        return out

    def join(self, other: "MemState") -> "MemState":
        """Pointwise must/may join (control-flow / pass-iteration merge)."""
        out = MemState.__new__(MemState)
        out.icache = _join_sparse(self.icache, other.icache)
        out.dcache = _join_sparse(self.dcache, other.dcache)
        out.bcache = _join_sparse(self.bcache, other.bcache)
        out.stream = _join_small(self.stream, other.stream, _STREAM_CAP)
        out.wb = _join_small(self.wb, other.wb, _WB_CAP)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemState):
            return NotImplemented
        return (
            self.icache == other.icache
            and self.dcache == other.dcache
            and self.bcache == other.bcache
            and self.stream == other.stream
            and self.wb == other.wb
        )

    def __hash__(self) -> int:  # pragma: no cover - states are not hashed
        raise TypeError("MemState is mutable and unhashable")


# --------------------------------------------------------------------------- #
# the analyzer                                                                #
# --------------------------------------------------------------------------- #


@dataclass
class _PassAccumulator:
    lower: int = 0
    upper: int = 0
    by_function: Dict[str, List[int]] = field(default_factory=dict)

    def charge(self, fn: str, lo: int, hi: int) -> None:
        self.lower += lo
        self.upper += hi
        cell = self.by_function.get(fn)
        if cell is None:
            self.by_function[fn] = [lo, hi]
        else:
            cell[0] += lo
            cell[1] += hi


@dataclass(frozen=True)
class PassBounds:
    """Sound (lower, upper) stall bounds of one measured pass."""

    lower_stalls: int
    upper_stalls: int
    instructions: int
    by_function: Mapping[str, Tuple[int, int]]

    @property
    def lower(self) -> float:
        """Lower mCPI bound (same denominator the simulator divides by)."""
        return self.lower_stalls / self.instructions if self.instructions else 0.0

    @property
    def upper(self) -> float:
        return self.upper_stalls / self.instructions if self.instructions else 0.0

    @property
    def exact(self) -> bool:
        return self.lower_stalls == self.upper_stalls

    def by_layer(self) -> Dict[str, Tuple[int, int]]:
        """Per-layer (lower, upper) stall cycles, obs-style buckets."""
        out: Dict[str, List[int]] = {}
        for fn, (lo, hi) in self.by_function.items():
            layer = layer_of(fn)
            cell = out.setdefault(layer, [0, 0])
            cell[0] += lo
            cell[1] += hi
        return {layer: (lo, hi) for layer, (lo, hi) in sorted(out.items())}

    def to_json(self) -> Dict[str, object]:
        return {
            "lower_stalls": self.lower_stalls,
            "upper_stalls": self.upper_stalls,
            "instructions": self.instructions,
            "lower_mcpi": self.lower,
            "upper_mcpi": self.upper,
            "by_layer": {
                layer: list(pair) for layer, pair in self.by_layer().items()
            },
            "by_function": {
                fn: list(pair) for fn, pair in sorted(self.by_function.items())
            },
        }


@dataclass(frozen=True)
class LatencyBounds:
    """Cold and steady-state mCPI bounds of one (stack, config) cell."""

    stack: str
    config: str
    cold: PassBounds
    steady: PassBounds
    #: join iterations the persistence fixed point needed (0 = the pass
    #: state was already periodic, i.e. the steady bounds are exact)
    persistence_iterations: int

    def check(
        self,
        *,
        cold_mcpi: float,
        steady_mcpi: float,
        engine: str = "",
        context: str = "",
    ) -> List[Finding]:
        """Findings for every violated ``lower <= simulated <= upper``.

        Callers pass mCPI values produced by dividing stall cycles by the
        same trace length the digest counted, so the float comparisons
        are exact (division by a common denominator preserves order).
        """
        where = f" in {context}" if context else ""
        via = f" ({engine} engine)" if engine else ""
        findings: List[Finding] = []
        for phase, bounds, measured in (
            ("cold", self.cold, cold_mcpi),
            ("steady", self.steady, steady_mcpi),
        ):
            if not bounds.lower <= measured <= bounds.upper:
                findings.append(
                    Finding(
                        BOUNDS_VIOLATION,
                        f"{self.stack}/{self.config}",
                        f"{phase} mCPI {measured:.6f}{via} escapes the "
                        f"static bounds [{bounds.lower:.6f}, "
                        f"{bounds.upper:.6f}]{where}",
                    )
                )
        return findings

    def render(self) -> str:
        lines = [
            f"static latency bounds: {self.stack}/{self.config}",
            f"  cold   mCPI in [{self.cold.lower:.4f}, "
            f"{self.cold.upper:.4f}]"
            + ("  (exact)" if self.cold.exact else ""),
            f"  steady mCPI in [{self.steady.lower:.4f}, "
            f"{self.steady.upper:.4f}]"
            + (
                "  (exact)"
                if self.steady.exact
                else f"  (persistence joins: {self.persistence_iterations})"
            ),
        ]
        for layer, (lo, hi) in self.steady.by_layer().items():
            span = f"{lo}" if lo == hi else f"{lo}..{hi}"
            lines.append(f"    {layer:<10} steady stalls {span}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "stack": self.stack,
            "config": self.config,
            "cold": self.cold.to_json(),
            "steady": self.steady.to_json(),
            "persistence_iterations": self.persistence_iterations,
        }


class BoundsAnalyzer:
    """Abstract interpreter for one bound event sequence."""

    #: safety valve only — the join sequence is monotone in a finite
    #: lattice, so it terminates; real cells converge within a few passes
    MAX_JOINS = 256

    def __init__(
        self,
        events: List[BoundEvent],
        instructions: int,
        *,
        memory: Optional[MemoryConfig] = None,
    ) -> None:
        cfg = memory or MemoryConfig()
        self.events = events
        self.instructions = instructions
        self.cfg = cfg
        self.ni = cfg.icache_size // cfg.block_size
        self.nd = cfg.dcache_size // cfg.block_size
        self.nb = cfg.bcache_size // cfg.block_size
        self.wb_depth = cfg.write_buffer_depth
        # store modes: with coalescing, concrete wb states are tuples of
        # (pair, blocks) entries instead of plain block tuples; with
        # streaming, retired stores never touch the abstract b-cache tags
        self.coalescing = cfg.write_coalescing
        self.streaming = cfg.non_allocating_writes

    def _wb_member(self, entry: Tuple, block: int) -> bool:
        """Is ``block`` buffered in concrete wb state ``entry``?"""
        if self.coalescing:
            return any(block in blks for _, blks in entry)
        return block in entry

    # ---- per-event transfer functions -------------------------------- #

    def _bcache_stalls(self, value: TagValue, block: int) -> Tuple[int, int]:
        """(lower, upper) stall of one b-cache access for ``block``."""
        hit = self.cfg.bcache_hit_cycles
        mem = self.cfg.main_memory_cycles
        if must_resident(value, block):
            return (hit, hit)
        if may_resident(value, block):
            return (hit, mem)
        return (mem, mem)

    def _fetch(self, st: MemState, b: int, fn: str, acc: _PassAccumulator) -> None:
        cfg = self.cfg
        s = b % self.ni
        cur = st.icache.get(s, EMPTY)
        if cur == b:
            return  # must-hit: no stall, no state change
        can_hit = not isinstance(cur, int) and b in cur
        st.icache[s] = b  # a hit keeps tag b, a miss installs it

        # ---- the miss path (always possible past the must-hit check) ---- #
        stream = st.stream
        nxt = b + 1
        sb = b % self.nb
        curb = st.bcache.get(sb, EMPTY)
        b_lo, b_hi = self._bcache_stalls(curb, b)

        stalls: List[int] = []
        sh_possible = False
        sm_possible = False
        if stream is TOP:
            sh_possible = sm_possible = True
            stalls.extend(
                (
                    cfg.stream_hit_cycles,
                    cfg.stream_hit_cycles
                    + cfg.main_memory_cycles
                    - cfg.bcache_hit_cycles,
                    b_lo,
                    b_hi,
                )
            )
        else:
            for blk, flag in stream:  # type: ignore[union-attr]
                if blk == b:
                    sh_possible = True
                    stall = cfg.stream_hit_cycles
                    if flag:
                        stall += cfg.main_memory_cycles - cfg.bcache_hit_cycles
                    stalls.append(stall)
                else:
                    sm_possible = True
            if sm_possible:
                stalls.extend((b_lo, b_hi))

        miss_lo = min(stalls)
        miss_hi = max(stalls)
        acc.charge(fn, 0 if can_hit else miss_lo, miss_hi)

        # b-cache install of b happens only on the stream-miss sub-path
        if sm_possible:
            if not can_hit and not sh_possible:
                st.bcache[sb] = b
            else:
                st.bcache[sb] = join_tags(curb, b)

        # ---- sequential prefetch of the next block ----------------------- #
        # every miss sub-path prefetches b+1 unless it is already in the
        # i-cache; the contains-probe sees the post-install i-cache state
        s2 = nxt % self.ni
        cur2 = st.icache.get(s2, EMPTY)
        in_i_must = must_resident(cur2, nxt)
        in_i_may = may_resident(cur2, nxt)
        snb = nxt % self.nb
        curnb = st.bcache.get(snb, EMPTY)
        flag_false = may_resident(curnb, nxt)  # prefetch may hit b-cache
        flag_true = not must_resident(curnb, nxt)

        if not in_i_must:
            # the prefetch performs a b-cache access that installs b+1
            if not can_hit and not in_i_may:
                st.bcache[snb] = nxt
            else:
                st.bcache[snb] = join_tags(curnb, nxt)

        if stream is TOP:
            return  # unknown stays unknown
        new_states = set()
        prefetched: List[StreamState] = []
        if not in_i_must:
            if flag_false:
                prefetched.append((nxt, False))
            if flag_true:
                prefetched.append((nxt, True))
        for state in stream:  # type: ignore[union-attr]
            if can_hit:
                new_states.add(state)  # fetch hit leaves everything alone
            after_probe = _NO_STREAM if state[0] == b else state
            if in_i_must:
                new_states.add(after_probe)
            else:
                new_states.update(prefetched)
                if in_i_may:
                    new_states.add(after_probe)
        st.stream = (
            TOP if len(new_states) > _STREAM_CAP else frozenset(new_states)
        )

    def _read(self, st: MemState, d: int, fn: str, acc: _PassAccumulator) -> None:
        s = d % self.nd
        cur = st.dcache.get(s, EMPTY)
        if cur == d:
            return  # must-hit
        can_hit = not isinstance(cur, int) and d in cur
        st.dcache[s] = d  # read misses allocate; hits keep the tag

        wb = st.wb
        if wb is TOP:
            fwd_possible, fwd_definite = True, False
        else:
            hits = [
                self._wb_member(entry, d)
                for entry in wb  # type: ignore[union-attr]
            ]
            fwd_possible = any(hits)
            fwd_definite = all(hits)

        stalls: List[int] = []
        if fwd_possible:
            stalls.append(self.cfg.write_forward_cycles)
        if not fwd_definite:
            sb = d % self.nb
            curb = st.bcache.get(sb, EMPTY)
            b_lo, b_hi = self._bcache_stalls(curb, d)
            stalls.extend((b_lo, b_hi))
            if not can_hit and not fwd_possible:
                st.bcache[sb] = d
            else:
                st.bcache[sb] = join_tags(curb, d)
        acc.charge(fn, 0 if can_hit else min(stalls), max(stalls))

    def _write(self, st: MemState, w: int, fn: str, acc: _PassAccumulator) -> None:
        full = self.cfg.write_buffer_full_cycles
        wb = st.wb
        if wb is TOP:
            acc.charge(fn, 0, full)
            if not self.streaming:
                sw = w % self.nb
                st.bcache[sw] = join_tags(st.bcache.get(sw, EMPTY), w)
            return
        lo = full
        hi = 0
        merge_possible = False
        append_possible = False
        new_states = set()
        if self.coalescing:
            pair = w >> 1
            for entry in wb:  # type: ignore[union-attr]
                if any(w in blks for _, blks in entry):
                    merge_possible = True
                    new_states.add(entry)
                    lo = 0
                    continue
                append_possible = True
                if any(p == pair for p, _ in entry):
                    # the neighbour block is buffered: the store shares
                    # its slot — never grows the FIFO, never overflows
                    grown: Tuple = tuple(
                        (p, blks + (w,)) if p == pair else (p, blks)
                        for p, blks in entry
                    )
                    lo = 0
                else:
                    grown = entry + ((pair, (w,)),)
                    if len(grown) > self.wb_depth:
                        grown = grown[1:]
                        hi = max(hi, full)
                    else:
                        lo = 0
                new_states.add(grown)
        else:
            for entry in wb:  # type: ignore[union-attr]
                if w in entry:
                    merge_possible = True
                    new_states.add(entry)
                    lo = 0
                else:
                    append_possible = True
                    grown = entry + (w,)
                    if len(grown) > self.wb_depth:
                        grown = grown[1:]
                        hi = max(hi, full)
                    else:
                        lo = 0
                    new_states.add(grown)
        acc.charge(fn, min(lo, hi), hi)
        if append_possible and not self.streaming:
            # a new-block store retires through the b-cache and installs;
            # streaming stores go around it, leaving the tags untouched
            sw = w % self.nb
            curw = st.bcache.get(sw, EMPTY)
            if merge_possible:
                st.bcache[sw] = join_tags(curw, w)
            else:
                st.bcache[sw] = w
        st.wb = TOP if len(new_states) > _WB_CAP else frozenset(new_states)

    # ---- passes and the persistence fixed point ----------------------- #

    def run_pass(self, st: MemState) -> _PassAccumulator:
        """One abstract pass over the events, mutating ``st`` in place."""
        acc = _PassAccumulator()
        fetch = self._fetch
        read = self._read
        write = self._write
        for kind, block, fn in self.events:
            if kind == 0:
                fetch(st, block, fn, acc)
            elif kind == 1:
                read(st, block, fn, acc)
            else:
                write(st, block, fn, acc)
        return acc

    def analyze(
        self, *, stack: str = "", config: str = ""
    ) -> LatencyBounds:
        """Cold and steady bounds of the digested roundtrip."""
        st = MemState()
        cold = self.run_pass(st)  # pass 1: the cold measurement
        self.run_pass(st)  # pass 2: first warm-up; st = entry of pass 3

        # persistence: join entry states of every later pass to a fixed
        # point, so one abstract pass bounds any measurement after >= 2
        # warm-ups (the join sequence is monotone, hence finite)
        joined = st
        iterations = 0
        while True:
            nxt = joined.copy()
            self.run_pass(nxt)
            merged = joined.join(nxt)
            if merged == joined:
                break
            joined = merged
            iterations += 1
            if iterations > self.MAX_JOINS:
                raise RuntimeError(
                    "persistence analysis failed to converge "
                    f"after {self.MAX_JOINS} joins"
                )
        steady = self.run_pass(joined.copy())
        return LatencyBounds(
            stack=stack,
            config=config,
            cold=self._freeze(cold),
            steady=self._freeze(steady),
            persistence_iterations=iterations,
        )

    def _freeze(self, acc: _PassAccumulator) -> PassBounds:
        return PassBounds(
            lower_stalls=acc.lower,
            upper_stalls=acc.upper,
            instructions=self.instructions,
            by_function={
                fn: (lo, hi) for fn, (lo, hi) in acc.by_function.items()
            },
        )


# --------------------------------------------------------------------------- #
# cell-level entry points                                                     #
# --------------------------------------------------------------------------- #


def bounds_from_digest(
    digest: TraceDigest,
    placements: Mapping[str, int],
    *,
    stack: str = "",
    config: str = "",
    memory: Optional[MemoryConfig] = None,
) -> LatencyBounds:
    """Bounds of one digest under one concrete layout."""
    cfg = memory or MemoryConfig()
    events = bind_digest(digest, placements, block_bytes=cfg.block_size)
    analyzer = BoundsAnalyzer(events, digest.instructions, memory=cfg)
    return analyzer.analyze(stack=stack, config=config)


def _cell_walk(
    stack: str,
    config: str,
    *,
    opts: "Optional[Section2Options]" = None,
    seed: int = 42,
) -> "Tuple[Program, WalkResult]":
    """(program, walk) of one cell's captured roundtrip, default layout."""
    from repro.core.fastwalk import FastWalker
    from repro.harness.configs import build_configured_program
    from repro.harness.experiment import Experiment, _clone_events

    build = build_configured_program(stack, config, opts)
    exp = Experiment(stack, config, opts, base_seed=seed)
    events, data_env = exp.capture_roundtrip(seed)
    walk = FastWalker(build.program, dict(data_env)).walk(_clone_events(events))
    return build.program, walk


def cell_digest(
    stack: str,
    config: str,
    *,
    opts: "Optional[Section2Options]" = None,
    seed: int = 42,
) -> Tuple[TraceDigest, Dict[str, int]]:
    """(digest, default placements) of one (stack, config) cell."""
    program, walk = _cell_walk(stack, config, opts=opts, seed=seed)
    digest = digest_trace(walk.trace, program)
    placements = {
        name: program.address_of(name) for name in program.names()
    }
    return digest, placements


def cell_bounds(
    stack: str,
    config: str,
    *,
    opts: "Optional[Section2Options]" = None,
    seed: int = 42,
    memory: Optional[MemoryConfig] = None,
) -> LatencyBounds:
    """Static latency bounds of one cell on its default layout."""
    digest, placements = cell_digest(stack, config, opts=opts, seed=seed)
    return bounds_from_digest(
        digest, placements, stack=stack, config=config, memory=memory
    )


def check_cell_bounds(
    stack: str,
    config: str,
    *,
    engine: Optional[str] = None,
    opts: "Optional[Section2Options]" = None,
    seed: int = 42,
    memory: Optional[MemoryConfig] = None,
) -> Tuple[LatencyBounds, List[Finding]]:
    """Compute one cell's bounds and validate them against a simulation.

    ``engine`` picks the measuring engine (``fast`` or ``reference``;
    ``guarded`` maps to ``fast``).  Returns the
    bounds plus any invariant-violation findings — an empty list is the
    machine-checked claim ``lower <= simulated <= upper`` for both the
    cold and the steady measurement.
    """
    from repro.arch.simcache import simulate_cold_and_steady_cached
    from repro.arch.simulator import AlphaConfig, MachineSimulator

    program, walk = _cell_walk(stack, config, opts=opts, seed=seed)
    digest = digest_trace(walk.trace, program)
    placements = {
        name: program.address_of(name) for name in program.names()
    }
    bounds = bounds_from_digest(
        digest, placements, stack=stack, config=config, memory=memory
    )

    machine_cfg = AlphaConfig(memory=memory) if memory is not None else None
    resolved = "reference" if engine == "reference" else "fast"
    if resolved == "reference":
        cold = MachineSimulator(machine_cfg).run(walk.trace)
        steady = MachineSimulator(machine_cfg).run_steady_state(walk.trace)
    else:
        cold, steady = simulate_cold_and_steady_cached(walk.packed, machine_cfg)
    findings = bounds.check(
        cold_mcpi=cold.mcpi,
        steady_mcpi=steady.mcpi,
        engine=resolved,
        context=f"{stack}/{config}",
    )
    return bounds, findings
