"""The demux-cache study: scheme x arrival-mix x flow-count sweeps.

``run_traffic_point`` streams one spec through one scheme and reports
hit rates (from the real :class:`~repro.xkernel.map.Map` instances)
plus cold/steady cycle totals (from the transition-memoized stream).
``run_traffic_study`` sweeps the grid and carries everything a
paper-style table needs.

All numbers are integers or exact ratios of integers, so two runs
produce bit-identical JSON and rendered tables.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.arch.fastsim import FastMachine
from repro.arch.simulator import AlphaConfig
from repro.traffic.driver import BlockDriver
from repro.traffic.flowtable import FlowTables
from repro.traffic.segments import SegmentLibrary
from repro.traffic.spec import MIXES, TrafficSpec
from repro.traffic.stream import TransitionStream
from repro.xkernel.map import SCHEME_SPECS, make_scheme

if TYPE_CHECKING:  # resilience layers on traffic, never the reverse
    from repro.resilience.faults import FaultProfile

class StreamCollector:
    """Optional per-packet observations for the resilience harness.

    ``services`` is the per-packet service demand in simulated cycles
    (memory stalls + CPU work of the packet's segment); ``faults``
    counts injected fault arrivals by kind.
    """

    def __init__(self) -> None:
        # bounded: one entry per streamed packet, resilience runs only
        self.services: List[int] = []
        # bounded: one entry per fault kind
        self.faults: Counter = Counter()


@dataclass
class TrafficPoint:
    """One (spec, scheme) streaming run's results."""

    spec: TrafficSpec
    scheme: str
    packets: int
    #: per-population, per-layer map statistics
    map_stats: Dict[str, Dict[str, dict]]
    #: whole-stream totals
    instructions: int
    stall_cycles: int
    cpu_cycles: int
    #: totals over the post-warm-up window
    steady_instructions: int
    steady_stall_cycles: int
    steady_cpu_cycles: int
    #: streaming-engine introspection
    novel_passes: int
    distinct_states: int
    segment_alphabet: int
    #: memo entries dropped to stay under the spec's caps (0 = no
    #: eviction, the memo held the whole transition graph)
    memo_evictions: int = 0
    #: True if the stream's watchdog degraded it to sequential simulation
    degraded: bool = False

    @property
    def l4_hit_rate(self) -> float:
        resolves = hits = 0
        for layers in self.map_stats.values():
            stats = layers["l4"]
            resolves += stats["resolves"]
            hits += stats["cache_hits"]
        return hits / resolves if resolves else 0.0

    @property
    def mcpi(self) -> float:
        return self.stall_cycles / self.instructions if self.instructions else 0.0

    @property
    def steady_mcpi(self) -> float:
        if not self.steady_instructions:
            return 0.0
        return self.steady_stall_cycles / self.steady_instructions

    @property
    def cpi(self) -> float:
        if not self.instructions:
            return 0.0
        return (self.cpu_cycles + self.stall_cycles) / self.instructions

    @property
    def steady_cpi(self) -> float:
        if not self.steady_instructions:
            return 0.0
        return (
            self.steady_cpu_cycles + self.steady_stall_cycles
        ) / self.steady_instructions

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "scheme": self.scheme,
            "packets": self.packets,
            "map_stats": self.map_stats,
            "instructions": self.instructions,
            "stall_cycles": self.stall_cycles,
            "cpu_cycles": self.cpu_cycles,
            "steady_instructions": self.steady_instructions,
            "steady_stall_cycles": self.steady_stall_cycles,
            "steady_cpu_cycles": self.steady_cpu_cycles,
            "l4_hit_rate": self.l4_hit_rate,
            "mcpi": self.mcpi,
            "steady_mcpi": self.steady_mcpi,
            "novel_passes": self.novel_passes,
            "distinct_states": self.distinct_states,
            "segment_alphabet": self.segment_alphabet,
            "memo_evictions": self.memo_evictions,
            "degraded": self.degraded,
        }


@dataclass
class TrafficStudy:
    """A sweep's points plus the axes that produced them."""

    base_spec: TrafficSpec
    schemes: Tuple[str, ...]
    mixes: Tuple[str, ...]
    flow_counts: Tuple[int, ...]
    # bounded: one entry per grid point
    points: List[TrafficPoint] = field(default_factory=list)

    def point(self, scheme: str, mix: str, flows: int) -> TrafficPoint:
        for p in self.points:
            if (p.scheme, p.spec.mix, p.spec.flows) == (scheme, mix, flows):
                return p
        raise KeyError(f"no point for {(scheme, mix, flows)}")

    def to_json(self) -> dict:
        return {
            "base_spec": self.base_spec.to_json(),
            "schemes": list(self.schemes),
            "mixes": list(self.mixes),
            "flow_counts": list(self.flow_counts),
            "points": [p.to_json() for p in self.points],
        }

    def render(self) -> str:
        from repro.harness.reporting import render_traffic_table

        return render_traffic_table(self)

    def check(self) -> List[str]:
        """Every grid point the axes promise must actually be present."""
        missing = []  # bounded: one entry per (scheme, mix, flows) axis cell
        for mix in self.mixes:
            for flows in self.flow_counts:
                for scheme in self.schemes:
                    try:
                        self.point(scheme, mix, flows)
                    except KeyError:
                        missing.append(
                            f"missing point {(scheme, mix, flows)!r}"
                        )
        return missing


class _CellSetup:
    """Per-population segment libraries and image offsets for a spec."""

    def __init__(self, spec: TrafficSpec, config: AlphaConfig) -> None:
        offset = config.memory.bcache_size
        if spec.stack == "tcpip":
            populations = {"tcp": ("tcpip", 0)}
        elif spec.stack == "rpc":
            populations = {"rpc": ("rpc", 0)}
        else:  # mixed: the RPC image rides at a bcache-aligned offset
            populations = {"tcp": ("tcpip", 0), "rpc": ("rpc", offset)}
        self.libraries: Dict[str, SegmentLibrary] = {
            pop: SegmentLibrary(
                stack,
                spec.config,
                population=pop,
                capture_seed=spec.capture_seed,
                image_offset=off,
            )
            for pop, (stack, off) in populations.items()
        }

    @property
    def populations(self) -> Tuple[str, ...]:
        return tuple(self.libraries)


def run_traffic_point(
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
    tables = {
        pop: FlowTables(spec, scheme_spec, population=pop, shadow=True)
        for pop in populations
    }
    schemes = {pop: tables[pop].l4.scheme for pop in populations}

    slot_pop: List[str] = []  # bounded: one entry per flow slot
    for slot in range(spec.flows):
        if spec.stack == "mixed":
            pop = "rpc" if rng.random() < spec.rpc_fraction else "tcp"
        else:
            pop = populations[0]
        slot_pop.append(pop)
        tables[pop].open_flow(slot)

    stream = TransitionStream(
        FastMachine(config),
        state_cap=spec.memo_state_cap,
        edge_cap=spec.memo_edge_cap,
        watchdog_s=watchdog_s,
    )
    BlockDriver(
        spec,
        rng,
        tables,
        libraries,
        slot_pop,
        stream,
        faults=faults,
        collect=collect,
    ).run()

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


def _stats_json(stats) -> dict:
    return {
        "scheme": stats.scheme,
        "resolves": stats.resolves,
        "cache_hits": stats.cache_hits,
        "failed_resolves": stats.failed_resolves,
        "probe_compares": stats.probe_compares,
        "installs": stats.installs,
        "evictions": stats.evictions,
        "invalidations": stats.invalidations,
        "chain_probes": stats.chain_probes,
        "binds": stats.binds,
        "unbinds": stats.unbinds,
    }


def run_traffic_study(
    base_spec: TrafficSpec,
    *,
    schemes: Sequence[str] = SCHEME_SPECS,
    mixes: Optional[Sequence[str]] = None,
    flow_counts: Optional[Sequence[int]] = None,
    config: Optional[AlphaConfig] = None,
) -> TrafficStudy:
    """Sweep scheme x mix x flow-count over one cell.

    The segment library is shared across points (walks are per-variant,
    not per-point); every point gets fresh maps, a fresh machine and the
    same seeds, so points are independent and the grid order is
    irrelevant to the numbers.
    """
    mixes = tuple(mixes) if mixes is not None else (base_spec.mix,)
    flow_counts = tuple(flow_counts) if flow_counts is not None else (base_spec.flows,)
    for mix in mixes:
        if mix not in MIXES:
            raise ValueError(f"mix must be one of {MIXES}, got {mix!r}")
    schemes = tuple(make_scheme(s).name for s in schemes)
    config = config or AlphaConfig()
    study = TrafficStudy(
        base_spec=base_spec,
        schemes=schemes,
        mixes=mixes,
        flow_counts=flow_counts,
    )
    setup = _CellSetup(base_spec, config)
    for flows in flow_counts:
        for mix in mixes:
            spec = base_spec.with_(mix=mix, flows=flows)
            for scheme in schemes:
                study.points.append(
                    run_traffic_point(spec, scheme, config=config, setup=setup)
                )
    return study
