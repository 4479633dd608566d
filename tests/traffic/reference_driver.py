"""The per-packet stream driver, kept as the block driver's oracle.

This is ``run_traffic_point`` as it was before the stream was driven in
blocks: one arrival draw, one flow-table probe through the real
:class:`~repro.xkernel.map.Map` and one ``TransitionStream.feed`` per
packet.  ``test_block_driver.py`` requires the block driver to produce
the same ``TrafficPoint`` JSON and the same collector observations.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.arch.fastsim import FastMachine
from repro.arch.simulator import AlphaConfig
from repro.traffic.arrivals import SCAN, ArrivalSampler
from repro.traffic.flowtable import FlowTables
from repro.traffic.spec import TrafficSpec
from repro.traffic.stream import TransitionStream
from repro.traffic.study import (
    StreamCollector,
    TrafficPoint,
    _CellSetup,
    _stats_json,
)

if TYPE_CHECKING:
    from repro.resilience.faults import FaultProfile

#: placeholder outcome for a demux layer a faulted packet never reaches
_ABSENT = (False, 0, 0)


def reference_traffic_point(
    spec: TrafficSpec,
    scheme_spec: str,
    *,
    config: Optional[AlphaConfig] = None,
    setup: Optional[_CellSetup] = None,
    faults: Optional["FaultProfile"] = None,
    collect: Optional[StreamCollector] = None,
    watchdog_s: Optional[float] = None,
) -> TrafficPoint:
    """Stream one spec through one caching scheme.

    ``faults`` injects deterministic per-packet fault arrivals (see
    :class:`repro.resilience.faults.FaultProfile`); a profile whose
    rates are all zero draws nothing from any RNG, so the stream is
    bit-identical to a pristine run.  ``collect`` gathers per-packet
    service cycles and fault counts for the overload model.
    """
    spec.validate()
    config = config or AlphaConfig()
    setup = setup or _CellSetup(spec, config)
    libraries = setup.libraries
    populations = setup.populations

    rng = random.Random(spec.seed)
    sampler = ArrivalSampler(spec, rng)
    profile_draw = faults.arrivals(spec) if faults is not None else None
    in_scope = faults.scope_filter(spec) if faults is not None else None
    collect_services = collect.services if collect is not None else None
    fault_counts = collect.faults if collect is not None else None
    tables = {
        pop: FlowTables(spec, scheme_spec, population=pop) for pop in populations
    }
    schemes = {pop: tables[pop].l4.scheme for pop in populations}

    # slot -> (population, flow uid, established); churn retires a uid and
    # binds a fresh one whose first packet runs the slow (unestablished)
    # path, as a real connection's first segment would
    slot_pop: List[str] = []  # bounded: one entry per flow slot
    slot_uid: List[int] = []  # bounded: one entry per flow slot
    slot_established: List[bool] = []  # bounded: one entry per flow slot
    for slot in range(spec.flows):
        if spec.stack == "mixed":
            pop = "rpc" if rng.random() < spec.rpc_fraction else "tcp"
        else:
            pop = populations[0]
        slot_pop.append(pop)
        slot_uid.append(slot)
        slot_established.append(True)
        tables[pop].open_flow(slot)
    next_uid = spec.flows
    churn = spec.churn

    stream = TransitionStream(
        FastMachine(config),
        state_cap=spec.memo_state_cap,
        edge_cap=spec.memo_edge_cap,
        watchdog_s=watchdog_s,
    )
    stream.start_phase("warmup")
    in_warmup = spec.warmup_packets > 0
    if not in_warmup:
        stream.start_phase("steady")

    for packet_index in range(spec.packets):
        if in_warmup and packet_index == spec.warmup_packets:
            stream.start_phase("steady")
            in_warmup = False
        if churn and rng.random() < churn:
            victim = rng.randrange(spec.flows)
            pop = slot_pop[victim]
            tables[pop].close_flow(slot_uid[victim])
            slot_uid[victim] = next_uid
            slot_established[victim] = False
            tables[pop].open_flow(next_uid)
            next_uid += 1
        slot = sampler.next()
        kind = profile_draw() if profile_draw is not None else None
        if kind is not None and in_scope is not None and not in_scope(slot):
            kind = None
        if kind == "duplicated_packet" and slot == SCAN:
            kind = None  # a duplicate needs a bound flow to duplicate
        if kind is None:
            # pristine classification — byte-for-byte the no-fault path
            if slot == SCAN:
                pop = (
                    populations[0]
                    if len(populations) == 1
                    else ("rpc" if rng.random() < spec.rpc_fraction else "tcp")
                )
                eth, ip, l4 = tables[pop].probe_packet(next_uid)
                next_uid += 1
                established = False
            else:
                pop = slot_pop[slot]
                eth, ip, l4 = tables[pop].probe_packet(slot_uid[slot])
                established = slot_established[slot]
                slot_established[slot] = True
            variant = (pop, eth, ip, l4, established)
        else:
            if slot == SCAN:
                pop = (
                    populations[0]
                    if len(populations) == 1
                    else ("rpc" if rng.random() < spec.rpc_fraction else "tcp")
                )
            else:
                pop = slot_pop[slot]
            table = tables[pop]
            if kind == "bad_demux_key":
                # a garbled key is a real unknown-key lookup: it misses
                # every cache and walks the full chain, byte-for-byte
                # the trace a scan packet already pays — no new segment
                eth, ip, l4 = table.probe_packet(next_uid)
                next_uid += 1
                variant = (pop, eth, ip, l4, False)
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
                # no-progress leg; established is forced (a duplicate is
                # of a segment the flow already processed) and the slot's
                # own establishment is untouched — suppression is not
                # progress
                eth, ip, l4 = table.probe_packet(slot_uid[slot])
                variant = (pop, eth, ip, l4, True, kind)
            if fault_counts is not None:
                fault_counts[kind] += 1
        lib = libraries[pop]
        scheme = schemes[pop]
        delta = stream.feed(variant, lambda: lib.segment(variant, scheme)[0])
        if collect_services is not None:
            stall, _instr = TransitionStream.stall_and_instructions(delta)
            collect_services.append(stall + lib.segment(variant, scheme)[1].cycles)

    warm = stream.phase_counters("warmup") if spec.warmup_packets else [0] * 15
    steady = stream.phase_counters("steady")
    total = [w + s for w, s in zip(warm, steady)]

    def cpu_cycles(phase: str) -> int:
        cycles = 0
        for variant, count in stream.phase_seg_counts(phase).items():
            pop = variant[0]
            cpu = libraries[pop].segment(variant, schemes[pop])[1]
            cycles += count * cpu.cycles
        return cycles

    steady_cpu = cpu_cycles("steady")
    total_cpu = steady_cpu + (cpu_cycles("warmup") if spec.warmup_packets else 0)

    return TrafficPoint(
        spec=spec,
        scheme=schemes[populations[0]].name,
        packets=spec.packets,
        map_stats={
            pop: {
                layer: _stats_json(stats)
                for layer, stats in tables[pop].stats().items()
            }
            for pop in populations
        },
        instructions=total[12],
        stall_cycles=total[11],
        cpu_cycles=total_cpu,
        steady_instructions=steady[12],
        steady_stall_cycles=steady[11],
        steady_cpu_cycles=steady_cpu,
        novel_passes=stream.novel_passes,
        distinct_states=stream.distinct_states,
        segment_alphabet=stream.segment_alphabet,
        memo_evictions=stream.memo_evictions,
        degraded=stream.degraded,
    )


