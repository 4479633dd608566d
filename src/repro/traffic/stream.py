"""The streaming simulator: exact transition-memoized segment replay.

A dedicated :class:`~repro.arch.fastsim.FastMachine` simulates the
packet stream one packed segment at a time.  Because the machine is
*exact* — a pass from a bit-identical hierarchy state always produces
the identical counter delta and exit state — the stream is a walk over a
small deterministic transition graph: nodes are interned machine states,
edges are (state, segment) pairs.  Each edge is simulated **once**; from
then on, feeding that segment in that state costs one dict lookup and a
counter increment.  Totals are accumulated per phase as
``sum(fire_count x delta)`` per edge, which is exactly what sequential
simulation would have accumulated.

This is why the engine can push about 0.7M packets/s end to end
through a cycle-exact model (the 1M-packet, 10k-flow zipf stream of
``perfbench/run.py --workload zipf_stream``: median 1.4 s on one core
of a 2-core x86-64 container, CPython 3.11), and why its tables equal
sequential simulation's: the edge counts are a function of the spec
alone.

Segment keys are interned to small integer *codes* and an edge is the
integer ``state << 32 | code``, so the known-edge walk hashes no tuple.
``feed_block`` walks a whole block of codes through the edge table and
folds the block's counts and LRU recency in bulk; before every novel
pass it folds first, so evictions, the exactness cross-check and the
watchdog see exactly the memo state per-segment ``feed`` would have
left.

A machine state is interned as its snapshot token without the b-cache
tags plus the id of those tags, which states share: the b-cache is
most of a token and a pass writes a b-cache tag only on a b-cache miss,
so a pass without one keeps the tags of the state it started from and
is interned without snapshotting or hashing them.  Identity stays exact
(equal keys iff equal full snapshots).

Both memo tables are **bounded**.  The interned-state table and the
edge-delta table are LRU caches (``state_cap`` / ``edge_cap``); on
eviction an edge's outstanding phase counts are folded into the phase's
base totals first, so totals stay exact no matter how small the caps
are — eviction only trades memo reuse (more novel passes) for bounded
memory.  Every re-simulation of a previously-evicted edge is
cross-checked against the delta recorded at eviction time
(:class:`StreamExactnessError` on mismatch), turning the exactness
assumption the whole memo rests on into a runtime invariant.

A per-stream watchdog (``watchdog_s``) bounds the cumulative wall-clock
time spent inside memo machinery (novel passes: restore, simulate,
snapshot, intern).  When exceeded the stream *degrades* to plain
segment-by-segment simulation on the persistent machine — slower, never
hung, and still bit-exact: sequential simulation from the current
machine state is precisely what the memo replays.
"""

from __future__ import annotations

import time
from collections import Counter, OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.arch.fastsim import FastMachine

#: counter indices in the machine's 15-counter layout
_STALL = 11
_INSTR = 12
#: counter index of b-cache misses: every b-cache tag write counts one
_B_MISS = 7
#: position of the b-cache tags in a ``FastMachine.snapshot_state`` token
_B_PART = 2
#: an edge is ``state_id << 32 | code``; the low bits are the code
_CODE_MASK = (1 << 32) - 1


class StreamExactnessError(RuntimeError):
    """Re-simulating an evicted edge produced a different delta.

    The transition memo is only sound if a (state, segment) pass is a
    pure function of the interned state; a mismatch here means the machine
    violated that and every total downstream would be suspect.
    """


class TransitionStream:
    """Exact streaming over one persistent machine via edge memoization.

    ``feed(seg_key, packed_fn)`` advances the logical stream by one
    segment and returns the segment's exact 15-counter delta.
    ``packed_fn`` is only called when the edge is novel (the segment
    library walks lazily).  ``intern`` + ``feed_block`` do the same for
    a block of segments at once.  ``start_phase`` opens a new counting
    window (warm-up vs steady) without touching machine state.
    """

    def __init__(
        self,
        machine: FastMachine,
        *,
        state_cap: int = 16_384,
        edge_cap: int = 65_536,
        watchdog_s: Optional[float] = None,
    ) -> None:
        if state_cap < 2:
            raise ValueError("state_cap must be >= 2")
        if edge_cap < 1:
            raise ValueError("edge_cap must be positive")
        self._m = machine
        self._state_cap = state_cap
        self._edge_cap = edge_cap
        self._watchdog_s = watchdog_s
        self._memo_spent = 0.0
        #: state interning: snapshot -> id (0 is the cold state; ids are
        #: monotone and never reused)
        self._next_id = 1
        #: an interned state is (token without its b-cache tags, b-part
        #: id): the b-cache tags are most of a token and rarely change,
        #: so states share them by id
        # bounded: LRU-evicted against state_cap (see _intern)
        self._state_ids: Dict[Tuple[tuple, int], int] = {}
        # bounded: LRU-evicted against state_cap (see _intern)
        self._snapshots: Dict[int, Tuple[tuple, int]] = {}
        # bounded: one entry per b-part a live state uses (refcounted)
        self._b_ids: Dict[tuple, int] = {}
        # bounded: one entry per b-part a live state uses (refcounted)
        self._b_parts: Dict[int, tuple] = {}
        # bounded: one entry per b-part a live state uses
        self._b_refs: Dict[int, int] = {}
        self._next_b = 0
        # bounded: LRU order of the evictable interned states
        self._state_lru: "OrderedDict[int, None]" = OrderedDict()
        #: segment interning: seg_key -> code, and code -> (seg_key,
        #: packed_fn); every interned segment is fed
        # bounded: the segment library's variant alphabet
        self._codes: Dict[object, int] = {}
        # bounded: the segment library's variant alphabet
        self._segments: List[Tuple[object, Callable]] = []
        #: edge (state_id << 32 | code) -> (next_state_id, delta tuple)
        # bounded: LRU-evicted against edge_cap (see _novel_pass)
        self._edges: "OrderedDict[int, Tuple[int, Tuple[int, ...]]]" = OrderedDict()
        #: reverse indexes so a state eviction can drop its edges
        # bounded: one entry per live interned state (state_cap)
        self._in_edges: Dict[int, Set[int]] = {}
        # bounded: one entry per live interned state (state_cap)
        self._out_edges: Dict[int, Set[int]] = {}
        #: delta recorded when an edge was evicted, for the exactness
        #: cross-check on its re-simulation
        # bounded: FIFO-capped at edge_cap entries (see _drop_edge)
        self._evicted_deltas: "OrderedDict[int, Tuple[int, ...]]" = OrderedDict()
        self._cur = 0
        self._phys = 0
        self.novel_passes = 0
        self.edge_evictions = 0
        self.state_evictions = 0
        self.exactness_checks = 0
        self._interned = 0
        self._degraded = False
        #: per-phase accounting: base totals absorb evicted (and
        #: degraded-mode) deltas; live edges stay as counts so the hot
        #: path is one Counter increment
        # bounded: one entry per phase (warmup/steady)
        self._phases: Dict[str, Tuple[List[int], Counter, Counter]] = {}
        self._base: List[int] = [0] * 15
        # bounded: flushed into _base when its edge is evicted
        self._ecounts: Counter = Counter()
        # bounded: the segment library's variant alphabet (by code)
        self._segs: Counter = Counter()

    # ------------------------------------------------------------------ #
    # phases                                                             #
    # ------------------------------------------------------------------ #

    def start_phase(self, name: str) -> None:
        self._base = [0] * 15
        # bounded: flushed into _base when its edge is evicted
        self._ecounts = Counter()
        # bounded: the segment library's variant alphabet (by code)
        self._segs = Counter()
        self._phases[name] = (self._base, self._ecounts, self._segs)

    # ------------------------------------------------------------------ #
    # streaming                                                          #
    # ------------------------------------------------------------------ #

    def _restore(self, state_id: int) -> None:
        if state_id == 0:
            self._m.reset()
        else:
            rest, b_id = self._snapshots[state_id]
            self._m.restore_state(
                rest[:_B_PART] + (self._b_parts[b_id],) + rest[_B_PART + 1 :]
            )
        self._phys = state_id

    def _snapshot(self, delta: Tuple[int, ...]) -> Tuple[tuple, int]:
        """The machine's state after a pass from ``_cur`` as a state key.

        A pass with no b-cache miss wrote no b-cache tag, so it keeps the
        b-part of the state it started from; only a pass that missed
        snapshots (and hashes) the whole b-cache."""
        rest = self._m.snapshot_state(b_indices=())
        if delta[_B_MISS] == 0 and self._cur != 0:
            return rest, self._snapshots[self._cur][1]
        b_part = self._m.snapshot_state()[_B_PART]
        b_id = self._b_ids.get(b_part)
        if b_id is None:
            b_id = self._next_b
            self._next_b += 1
            self._b_ids[b_part] = b_id
            self._b_parts[b_id] = b_part
            self._b_refs[b_id] = 0
        return rest, b_id

    def _intern(self, snap: Tuple[tuple, int]) -> int:
        state_id = self._state_ids.get(snap)
        if state_id is not None:
            self._state_lru.move_to_end(state_id)
            return state_id
        state_id = self._next_id
        self._next_id += 1
        self._state_ids[snap] = state_id
        self._snapshots[state_id] = snap
        self._b_refs[snap[1]] += 1
        self._state_lru[state_id] = None
        self._interned += 1
        if len(self._snapshots) > self._state_cap:
            self._evict_state(protect=(self._cur, self._phys, state_id))
        return state_id

    def _evict_state(self, protect: Tuple[int, ...]) -> None:
        """Drop the least-recently-touched unprotected state and every
        edge into or out of it (their memo entries would dangle)."""
        victim = None
        for state_id in self._state_lru:
            if state_id not in protect:
                victim = state_id
                break
        if victim is None:
            return  # every resident state is in use right now
        del self._state_lru[victim]
        snap = self._snapshots.pop(victim)
        del self._state_ids[snap]
        self._release_b(snap[1])
        self.state_evictions += 1
        for edge in self._in_edges.pop(victim, ()):
            self._drop_edge(edge)
        for edge in self._out_edges.pop(victim, ()):
            self._drop_edge(edge)

    def _release_b(self, b_id: int) -> None:
        self._b_refs[b_id] -= 1
        if not self._b_refs[b_id]:
            del self._b_refs[b_id]
            del self._b_ids[self._b_parts.pop(b_id)]

    def _drop_edge(self, edge: int) -> None:
        """Evict one memoized edge, folding its outstanding phase counts
        into the base totals (exactness survives eviction) and recording
        its delta for the re-simulation cross-check."""
        entry = self._edges.pop(edge, None)
        if entry is None:
            return
        next_id, delta = entry
        out = self._out_edges.get(edge >> 32)
        if out is not None:
            out.discard(edge)
        ins = self._in_edges.get(next_id)
        if ins is not None:
            ins.discard(edge)
        for base, ecounts, _segs in self._phases.values():
            fired = ecounts.pop(edge, 0)
            if fired:
                for i in range(15):
                    base[i] += fired * delta[i]
        self._evicted_deltas[edge] = delta
        if len(self._evicted_deltas) > self._edge_cap:
            self._evicted_deltas.popitem(last=False)
        self.edge_evictions += 1

    def _novel_pass(self, edge: int) -> Tuple[int, ...]:
        if self._phys != self._cur:
            self._restore(self._cur)
        t0 = time.perf_counter() if self._watchdog_s is not None else 0.0
        seg_key, packed_fn = self._segments[edge & _CODE_MASK]
        delta = tuple(self._m.mem_delta(packed_fn()))
        next_id = self._intern(self._snapshot(delta))
        prior = self._evicted_deltas.pop(edge, None)
        if prior is not None:
            self.exactness_checks += 1
            if prior != delta:
                raise StreamExactnessError(
                    f"edge {(edge >> 32, seg_key)!r} re-simulated to a "
                    f"different delta than recorded at eviction: "
                    f"{prior} != {delta}"
                )
        self._edges[edge] = (next_id, delta)
        self._out_edges.setdefault(edge >> 32, set()).add(edge)
        self._in_edges.setdefault(next_id, set()).add(edge)
        while len(self._edges) > self._edge_cap:
            self._drop_edge(next(iter(self._edges)))
        self._cur = self._phys = next_id
        self.novel_passes += 1
        if self._watchdog_s is not None:
            self._memo_spent += time.perf_counter() - t0
            if self._memo_spent > self._watchdog_s:
                # too long inside memo machinery: fall back to plain
                # sequential simulation (machine is at _cur already)
                self._degraded = True
        return delta

    def intern(self, seg_key, packed_fn: Callable) -> int:
        """The integer code of ``seg_key`` (``packed_fn`` walks it on the
        first novel pass).  Intern only segments that will be fed."""
        code = self._codes.get(seg_key)
        if code is None:
            code = len(self._segments)
            self._codes[seg_key] = code
            self._segments.append((seg_key, packed_fn))
        return code

    def _feed_degraded(self, code: int) -> Tuple[int, ...]:
        delta = tuple(self._m.mem_delta(self._segments[code][1]()))
        base = self._base
        for i in range(15):
            base[i] += delta[i]
        self._segs[code] += 1
        return delta

    def feed(self, seg_key, packed_fn: Callable) -> Tuple[int, ...]:
        """Advance the stream one segment; return its exact delta."""
        code = self.intern(seg_key, packed_fn)
        if self._degraded:
            return self._feed_degraded(code)
        edge = self._cur << 32 | code
        known = self._edges.get(edge)
        if known is None:
            delta = self._novel_pass(edge)
        else:
            self._edges.move_to_end(edge)
            next_id = known[0]
            self._state_lru.move_to_end(next_id)
            self._cur = next_id
            delta = known[1]
        self._ecounts[edge] += 1
        self._segs[code] += 1
        return delta

    def feed_block(
        self, codes: Sequence[int], stalls: Optional[List[int]] = None
    ) -> None:
        """Advance the stream over interned segment ``codes`` in order.

        The same memo, counts and LRU order as one ``feed`` per code:
        known edges are walked through the edge table and folded in bulk
        (see ``_fold``); each novel edge is folded up to first and then
        simulated by ``_novel_pass``.  ``stalls`` gets each segment's
        memory-stall cycles appended, in order.
        """
        if self._degraded:
            self._feed_rest_degraded(codes, stalls)
            return
        get = self._edges.get
        cur = self._cur
        run: List[int] = []  # bounded: one entry per code of the block
        append = run.append
        rest = iter(codes)
        for code in rest:
            edge = cur << 32 | code
            known = get(edge)
            if known is not None:
                append(edge)
                cur = known[0]
                continue
            self._cur = cur
            self._fold(run, stalls)
            run = []  # bounded: one entry per code of the block
            append = run.append
            delta = self._novel_pass(edge)
            self._ecounts[edge] += 1
            self._segs[code] += 1
            if stalls is not None:
                stalls.append(delta[_STALL])
            if self._degraded:
                self._feed_rest_degraded(rest, stalls)
                return
            cur = self._cur
        self._cur = cur
        self._fold(run, stalls)

    def _feed_rest_degraded(
        self, codes: Iterable[int], stalls: Optional[List[int]]
    ) -> None:
        for code in codes:
            delta = self._feed_degraded(code)
            if stalls is not None:
                stalls.append(delta[_STALL])

    def _fold(self, run: List[int], stalls: Optional[List[int]]) -> None:
        """Account a run of known-edge firings as ``feed`` would have:
        edge and segment counts, then LRU recency restored by each
        edge's last firing (and its target state with it)."""
        if not run:
            return
        edges = self._edges
        if stalls is not None:
            stall_of = {edge: edges[edge][1][_STALL] for edge in set(run)}
            stalls.extend(map(stall_of.__getitem__, run))
        ecounts = self._ecounts
        segs = self._segs
        for edge, fired in Counter(run).items():
            ecounts[edge] += fired
            segs[edge & _CODE_MASK] += fired
        touch_edge = edges.move_to_end
        touch_state = self._state_lru.move_to_end
        for edge in reversed(dict.fromkeys(reversed(run))):
            touch_edge(edge)
            touch_state(edges[edge][0])

    # ------------------------------------------------------------------ #
    # accounting                                                         #
    # ------------------------------------------------------------------ #

    @property
    def degraded(self) -> bool:
        """True once the watchdog forced segment-by-segment simulation."""
        return self._degraded

    @property
    def memo_evictions(self) -> int:
        """Memo entries dropped to stay under the caps (states + edges)."""
        return self.state_evictions + self.edge_evictions

    @property
    def distinct_states(self) -> int:
        """Machine states interned over the stream's lifetime (including
        the cold state; an evicted-then-revisited state counts again)."""
        return self._interned + 1

    @property
    def segment_alphabet(self) -> int:
        """Distinct segments this stream simulated (library-independent)."""
        return len(self._segments)

    def phase_counters(self, name: str) -> List[int]:
        """The 15-counter total the machine would have accumulated over
        the phase's segments: base totals (evicted edges, degraded-mode
        passes) plus fire counts x delta over the live edges."""
        base, ecounts, _segs = self._phases[name]
        totals = list(base)
        for edge, fired in ecounts.items():
            delta = self._edges[edge][1]
            for i in range(15):
                totals[i] += fired * delta[i]
        return totals

    def phase_seg_counts(self, name: str) -> Counter:
        """Fire counts per segment key (for CPU-side aggregation)."""
        _base, _ecounts, segs = self._phases[name]
        segments = self._segments
        return Counter({segments[code][0]: fired for code, fired in segs.items()})

    @staticmethod
    def stall_and_instructions(counters: List[int]) -> Tuple[int, int]:
        return counters[_STALL], counters[_INSTR]
