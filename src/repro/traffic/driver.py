"""The block stream driver behind ``run_traffic_point``.

Packets are processed in blocks of :data:`_BLOCK`, each in three steps:

1. **Draw.** :meth:`ArrivalSampler.draw_block` consumes the shared RNG in
   exactly the per-packet order (churn draw, arrival draw, a scan
   packet's population draw); the fault profile draws one uniform per
   packet from its own RNG.
2. **Classify.** Packets are demultiplexed in order into integer
   segment codes.  Churn events and faulted packets are applied one at
   a time.  The runs between them go through one tight loop when the
   stream has a single population whose l4 map is replayed by an
   :class:`~repro.traffic.flowtable.L4Shadow` (``one-entry`` with its
   slot filled, or ``none``) and whose singleton eth/ip maps are
   settled.  Otherwise they go per packet through
   ``FlowTables.probe_packet`` (``lru:K``, ``direct:N``, ``assoc:SxW``,
   mixed stacks, the first packets of a stream).  Every shadow is
   written back to its real map at each block end.
3. **Feed.** :meth:`TransitionStream.feed_block` walks the codes through
   the transition memo; the warm-up boundary splits a block in two.

Nothing here draws a random number or resolves a key in a different
order than one packet at a time would, so a blocked stream's
``TrafficPoint`` equals the per-packet stream's byte for byte whatever
the block length.
"""

from __future__ import annotations

import random
from itertools import islice
from operator import add
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.traffic.arrivals import SCAN, ArrivalSampler
from repro.traffic.flowtable import FlowTables, LayerOutcome, _key
from repro.traffic.segments import SegmentLibrary
from repro.traffic.spec import TrafficSpec
from repro.traffic.stream import TransitionStream
from repro.xkernel.map import CacheScheme

if TYPE_CHECKING:  # resilience layers on traffic, never the reverse
    from repro.resilience.faults import FaultProfile
    from repro.traffic.study import StreamCollector

#: packets per block
_BLOCK = 8192

#: placeholder outcome for a demux layer a faulted packet never reaches
_ABSENT = (False, 0, 0)

#: the l4 outcome of a one-entry hit
_HIT = (True, 1, 0)


class _Lane:
    """One population's tables, library and fast-path code table.

    ``fast`` exists once the lane can take the tight loop: it maps an
    l4 outcome index (see ``BlockDriver._fast_run``) to the segment code
    of the pristine variant with the settled eth/ip outcomes ``pre``.
    """

    __slots__ = ("pop", "table", "lib", "scheme", "pre", "fast")

    def __init__(self, pop: str, table: FlowTables, lib: SegmentLibrary) -> None:
        self.pop = pop
        self.table = table
        self.lib = lib
        self.scheme: CacheScheme = table.l4.scheme
        self.pre: Optional[Tuple[LayerOutcome, Optional[LayerOutcome]]] = None
        # bounded: 2 x (1 + 2 x (chain_cap + 1)) l4 outcomes
        self.fast: Optional[List[int]] = None

    def ready(self) -> bool:
        """Whether the next packets can take the tight loop: the l4 map
        is shadowed, the singleton maps are settled, and every l4 probe
        compares the same number of cache slots (a one-entry slot that
        is filled, or no cache at all)."""
        shadow = self.table.shadow
        if shadow is None:
            return False
        if self.fast is None:
            self.pre = self.table.settled_pre_l4()
            if self.pre is None:
                return False
            self.fast = [-1] * (2 * (1 + 2 * (shadow.cap + 1)))
        return not shadow.one_entry or shadow.last is not None


class BlockDriver:
    """Streams one spec's packets through its flow tables and stream."""

    def __init__(
        self,
        spec: TrafficSpec,
        rng: random.Random,
        tables: Dict[str, FlowTables],
        libraries: Dict[str, SegmentLibrary],
        slot_pop: List[str],
        stream: TransitionStream,
        *,
        faults: Optional["FaultProfile"] = None,
        collect: Optional["StreamCollector"] = None,
    ) -> None:
        self.spec = spec
        self.stream = stream
        self.sampler = ArrivalSampler(spec, rng)
        self.lanes = {pop: _Lane(pop, tables[pop], libraries[pop]) for pop in tables}
        lanes = list(self.lanes.values())
        self.single = lanes[0] if len(lanes) == 1 else None
        self.scan_rpc_fraction = spec.rpc_fraction if spec.stack == "mixed" else None
        # slot -> population / bound flow uid; churn retires a uid and
        # binds a fresh one whose first packet runs the slow
        # (unestablished) path, as a real connection's first segment would
        self.slot_pop = slot_pop
        self.slot_uid = list(range(spec.flows))  # bounded: one per flow slot
        # bounded: slots whose current flow has carried no packet yet
        self.unestablished: Set[int] = set()
        self.next_uid = spec.flows
        self.fault_draw = faults.block_arrivals(spec) if faults is not None else None
        self.in_scope = faults.scope_filter(spec) if faults is not None else None
        self.services = collect.services if collect is not None else None
        self.fault_counts = collect.faults if collect is not None else None
        # bounded: the segment alphabet
        self.codes: Dict[tuple, int] = {}
        # bounded: the segment alphabet
        self.cpu: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # the block loop                                                     #
    # ------------------------------------------------------------------ #

    def run(self) -> None:
        spec = self.spec
        stream = self.stream
        warmup = spec.warmup_packets
        stream.start_phase("warmup")
        if not warmup:
            stream.start_phase("steady")
        for start in range(0, spec.packets, _BLOCK):
            packets = min(_BLOCK, spec.packets - start)
            slots, churns, scan_rpc = self.sampler.draw_block(
                packets,
                churn=spec.churn,
                scan_rpc_fraction=self.scan_rpc_fraction,
            )
            faulted = self._draw_faults(slots)
            codes = self._classify(slots, churns, scan_rpc, faulted)
            split = warmup - start
            if warmup and 0 <= split < packets:
                self._feed(codes[:split])
                stream.start_phase("steady")
                self._feed(codes[split:])
            else:
                self._feed(codes)
            for lane in self.lanes.values():
                if lane.table.shadow is not None:
                    lane.table.shadow.writeback()

    def _draw_faults(self, slots: List[int]) -> Dict[int, str]:
        """Packet offset -> fault kind for this block's faulted packets."""
        draw = self.fault_draw
        if draw is None:
            return {}
        in_scope = self.in_scope
        faulted = draw(len(slots))
        for i, kind in list(faulted.items()):
            slot = slots[i]
            if in_scope is not None and not in_scope(slot):
                del faulted[i]
            elif kind == "duplicated_packet" and slot == SCAN:
                del faulted[i]  # a duplicate needs a bound flow to duplicate
        return faulted

    def _feed(self, codes: List[int]) -> None:
        services = self.services
        if services is None:
            self.stream.feed_block(codes)
            return
        stalls: List[int] = []  # bounded: one entry per code fed
        self.stream.feed_block(codes, stalls)
        services.extend(map(add, stalls, map(self.cpu.__getitem__, codes)))

    # ------------------------------------------------------------------ #
    # classification                                                     #
    # ------------------------------------------------------------------ #

    def _classify(
        self,
        slots: List[int],
        churns: Dict[int, int],
        scan_rpc: Dict[int, bool],
        faulted: Dict[int, str],
    ) -> List[int]:
        """The block's segment codes, in packet order."""
        codes: List[int] = []  # bounded: one entry per packet of the block
        lo = 0
        for offset in sorted(churns.keys() | faulted.keys()):
            self._regular(slots, lo, offset, scan_rpc, codes)
            victim = churns.get(offset)
            if victim is not None:
                self._churn(victim)
            kind = faulted.get(offset)
            if kind is None:
                lo = offset
            else:
                codes.append(self._faulted(slots[offset], kind, scan_rpc.get(offset)))
                lo = offset + 1
        self._regular(slots, lo, len(slots), scan_rpc, codes)
        return codes

    def _regular(
        self,
        slots: List[int],
        lo: int,
        hi: int,
        scan_rpc: Dict[int, bool],
        codes: List[int],
    ) -> None:
        """Pristine packets ``lo:hi`` with no churn among them."""
        lane = self.single
        while lo < hi and (lane is None or not lane.ready()):
            codes.append(self._pristine(slots[lo], scan_rpc.get(lo)))
            lo += 1
        if lo < hi:
            self._fast_run(lane, slots, lo, hi, codes)

    def _code(self, lane: _Lane, variant: tuple) -> int:
        code = self.codes.get(variant)
        if code is None:
            lib = lane.lib
            scheme = lane.scheme
            code = self.stream.intern(variant, lambda: lib.segment(variant, scheme)[0])
            self.codes[variant] = code
            if self.services is not None:
                self.cpu[code] = lib.segment(variant, scheme)[1].cycles
        return code

    def _scan_lane(self, rpc: Optional[bool]) -> _Lane:
        if self.single is not None:
            return self.single
        return self.lanes["rpc" if rpc else "tcp"]

    def _pristine(self, slot: int, rpc: Optional[bool]) -> int:
        """One pristine packet through ``FlowTables.probe_packet``."""
        if slot == SCAN:
            lane = self._scan_lane(rpc)
            eth, ip, l4 = lane.table.probe_packet(self.next_uid)
            self.next_uid += 1
            established = False
        else:
            lane = self.lanes[self.slot_pop[slot]]
            eth, ip, l4 = lane.table.probe_packet(self.slot_uid[slot])
            established = slot not in self.unestablished
            self.unestablished.discard(slot)
        return self._code(lane, (lane.pop, eth, ip, l4, established))

    def _faulted(self, slot: int, kind: str, rpc: Optional[bool]) -> int:
        """One faulted packet: its demux stops where the fault does."""
        lane = self._scan_lane(rpc) if slot == SCAN else self.lanes[self.slot_pop[slot]]
        pop = lane.pop
        table = lane.table
        if kind == "bad_demux_key":
            # a garbled key is a real unknown-key lookup: it misses every
            # cache and walks the full chain, byte-for-byte the trace a
            # scan packet already pays — no new segment
            eth, ip, l4 = table.probe_packet(self.next_uid)
            self.next_uid += 1
            variant: tuple = (pop, eth, ip, l4, False)
        elif kind == "truncated_header":
            # the runt check rejects before any demux map is touched
            ip_outcome = _ABSENT if table.ip is not None else None
            variant = (pop, _ABSENT, ip_outcome, _ABSENT, False, kind)
        elif kind == "corrupt_checksum":
            # eth (and ip) demux paid in full, l4 never consulted
            eth, ip = table.probe_pre_l4()
            variant = (pop, eth, ip, _ABSENT, False, kind)
        else:  # duplicated_packet, on a bound flow
            # re-probed like any segment, then suppressed on the
            # no-progress leg; established is forced (a duplicate is of
            # a segment the flow already processed) and the slot's own
            # establishment is untouched — suppression is not progress
            eth, ip, l4 = table.probe_packet(self.slot_uid[slot])
            variant = (pop, eth, ip, l4, True, kind)
        if self.fault_counts is not None:
            self.fault_counts[kind] += 1
        return self._code(lane, variant)

    def _churn(self, victim: int) -> None:
        """Tear down the victim slot's flow and bind a fresh one."""
        table = self.lanes[self.slot_pop[victim]].table
        table.close_flow(self.slot_uid[victim])
        self.slot_uid[victim] = self.next_uid
        self.unestablished.add(victim)
        table.open_flow(self.next_uid)
        self.next_uid += 1

    def _fast_run(
        self, lane: _Lane, slots: List[int], lo: int, hi: int, codes: List[int]
    ) -> None:
        """Pristine packets ``lo:hi`` of a ready single-population lane:
        ``L4Shadow.resolve`` inlined for a run in which every probe
        compares the same number of cache slots, MapStats deltas summed
        locally and written back to the shadow at the end.

        A fast-path index is ``outcome << 1 | established`` with outcome
        0 for a hit and ``1 + probes * (cap + 1) + capped chain`` for a
        miss (``_fast_code`` decodes it)."""
        table = lane.table
        shadow = table.shadow
        assert shadow is not None and lane.fast is not None
        depth = shadow.depth
        last = shadow.last
        one_entry = shadow.one_entry
        probes = 1 if one_entry else 0
        cap = shadow.cap
        stride = cap + 1
        # capped chain depth -> index of the established miss
        miss_index = [(1 + probes * stride + d) << 1 | 1 for d in range(stride)]
        bucket_depth = shadow.map.bucket_depth
        fast = lane.fast
        slot_uid = self.slot_uid
        unestablished = self.unestablished
        next_uid = self.next_uid
        hits = scans = chain = 0
        out = codes.append
        for slot in islice(slots, lo, hi):
            if slot < 0:  # SCAN: an unbound key walks its whole bucket
                d = bucket_depth(_key(next_uid))
                next_uid += 1
                scans += 1
                chain += d
                index = miss_index[d if d < cap else cap] ^ 1
            else:
                uid = slot_uid[slot]
                if uid == last:
                    hits += 1
                    index = 1
                else:
                    d = depth[uid]
                    chain += d
                    if one_entry:
                        last = uid
                    index = miss_index[d if d < cap else cap]
                if unestablished and slot in unestablished:
                    unestablished.discard(slot)
                    index ^= 1
            code = fast[index]
            if code < 0:
                code = self._fast_code(lane, index, stride)
            out(code)
        packets = hi - lo
        installs = packets - hits - scans
        shadow.last = last
        shadow.resolves += packets
        shadow.cache_hits += hits
        shadow.failed_resolves += scans
        shadow.probe_compares += probes * packets
        shadow.installs += installs
        shadow.evictions += probes * installs
        shadow.chain_probes += chain
        table.replay_pre_l4(packets)
        self.next_uid = next_uid

    def _fast_code(self, lane: _Lane, index: int, stride: int) -> int:
        """Intern the variant behind a fast-path index."""
        assert lane.pre is not None and lane.fast is not None
        outcome = index >> 1
        if outcome == 0:
            l4: LayerOutcome = _HIT
        else:
            probes, chain = divmod(outcome - 1, stride)
            l4 = (False, probes, chain)
        eth, ip = lane.pre
        code = self._code(lane, (lane.pop, eth, ip, l4, bool(index & 1)))
        lane.fast[index] = code
        return code
