"""Per-population demux maps and the per-packet probe.

One :class:`FlowTables` instance models the receive path's demultiplexing
state for one protocol population (TCP or RPC): a tiny ethertype map, an
IP protocol map (TCP stack only), and the l4 flow map holding one binding
per live connection.  All three share the same front-end cache scheme, so
a scheme sweep changes every layer consistently.

``probe_packet`` performs real lookups (through
:class:`repro.xkernel.map.Map`, so every ``MapStats`` counter is genuine)
and classifies the packet into a :class:`LayerOutcome` triple the segment
library turns into trace conds.  The singleton maps (one binding, one
key ever probed) reach a per-resolve fixed point after their second
lookup — the cached entry is re-hit (or, with no cache, the one-entry
bucket is re-walked) with an identical stats delta every time — so their
steady resolves are replayed arithmetically instead of through the map
machinery; ``stats()`` folds the replayed deltas back in before
reporting, keeping the counters exact.

With ``shadow=True`` (the stream driver's tables) the l4 resolve under
the ``one-entry`` and ``none`` schemes is replayed arithmetically as
well, by an :class:`L4Shadow`: its outcome is a function of the uid in
the one-entry slot and the key's collision-chain depth, which the
shadow keeps exact across binds and unbinds.  The shadow's stats deltas
and cache slot are written back to the real map before any unbind and
whenever ``stats()`` reports, so the ``Map`` stays the source of truth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.traffic.spec import TrafficSpec
from repro.xkernel.map import Map, MapStats, NoCache, OneEntryCache, make_scheme

#: (hit, probes, chain) per demux layer; ``probes`` is front-end cache
#: slots compared, ``chain`` is collision-chain links walked (capped)
LayerOutcome = Tuple[bool, int, int]

#: MapStats fields a resolve can move (binds/unbinds cannot)
_RESOLVE_FIELDS = (
    "resolves",
    "cache_hits",
    "probe_compares",
    "installs",
    "evictions",
    "invalidations",
    "chain_probes",
)


def _key(uid: int) -> bytes:
    return uid.to_bytes(8, "little")


class _SingletonProbe:
    """A one-binding map whose steady resolves are delta-replayed."""

    __slots__ = ("map", "outcome", "delta", "extra", "_seen")

    def __init__(self, m: Map) -> None:
        self.map = m
        self.outcome: Optional[LayerOutcome] = None
        self.delta: Optional[List[int]] = None
        self.extra = 0
        self._seen = 0

    def probe(self, cap: int) -> LayerOutcome:
        if self.delta is not None:
            self.extra += 1
            return self.outcome
        self._seen += 1
        if self._seen == 2:
            before = [getattr(self.map.stats, f) for f in _RESOLVE_FIELDS]
        self.map.resolve_or_none(_key(0))
        last = self.map.last
        outcome = (last.hit, last.probes, min(last.chain, cap))
        if self._seen == 2:
            # from here on every resolve repeats this one exactly
            self.delta = [
                getattr(self.map.stats, f) - b for f, b in zip(_RESOLVE_FIELDS, before)
            ]
            self.outcome = outcome
        return outcome

    def flush(self) -> None:
        if self.extra and self.delta is not None:
            for f, d in zip(_RESOLVE_FIELDS, self.delta):
                setattr(self.map.stats, f, getattr(self.map.stats, f) + d * self.extra)
            self.extra = 0


#: MapStats fields an :class:`L4Shadow` accumulates between write-backs
_SHADOW_FIELDS = (
    "resolves",
    "cache_hits",
    "failed_resolves",
    "probe_compares",
    "installs",
    "evictions",
    "chain_probes",
)


class L4Shadow:
    """Arithmetic replay of resolves on a one-entry or cache-less l4 map.

    ``depth`` maps every bound uid to its position in its collision
    chain (a bind pushes its key at the chain head), rebuilt for the one
    touched bucket on every bind and unbind; ``last`` is the uid in the
    one-entry slot (always ``None`` without a cache).  A hit costs the
    one compare; a miss walks to the key's depth and installs it; an
    unbound uid walks its whole bucket and installs nothing.  The
    counter attributes are MapStats deltas not yet written back.
    """

    __slots__ = ("map", "cap", "one_entry", "depth", "last") + _SHADOW_FIELDS

    def __init__(self, m: Map, cap: int) -> None:
        self.map = m
        self.cap = cap
        self.one_entry = isinstance(m.scheme, OneEntryCache)
        # bounded: one entry per bound flow
        self.depth: Dict[int, int] = {}
        self.last: Optional[int] = None
        for field in _SHADOW_FIELDS:
            setattr(self, field, 0)

    def rechain(self, key: bytes) -> None:
        """Re-read the chain depths of ``key``'s bucket."""
        depth = self.depth
        for pos, uid in enumerate(self.map.bucket_values(key)):
            depth[uid] = pos

    def unbound(self, uid: int, key: bytes) -> None:
        del self.depth[uid]
        if self.last == uid:
            self.last = None
        self.rechain(key)

    def resolve(self, uid: int) -> LayerOutcome:
        """One resolve, exactly as ``Map.resolve`` would count it."""
        self.resolves += 1
        last = self.last
        probes = 0 if last is None else 1
        self.probe_compares += probes
        if uid == last:
            self.cache_hits += 1
            return (True, 1, 0)
        depth = self.depth.get(uid)
        if depth is None:
            depth = self.map.bucket_depth(_key(uid))
            self.failed_resolves += 1
        else:
            self.installs += 1
            if self.one_entry:
                self.evictions += probes
                self.last = uid
        self.chain_probes += depth
        return (False, probes, min(depth, self.cap))

    def writeback(self) -> None:
        """Add the pending stats deltas to the map and load its slot."""
        stats = self.map.stats
        for field in _SHADOW_FIELDS:
            setattr(stats, field, getattr(stats, field) + getattr(self, field))
            setattr(self, field, 0)
        if self.one_entry:
            self.map.load_cache(None if self.last is None else _key(self.last))


class FlowTables:
    """Demux maps for one population, all under one cache scheme."""

    #: singleton-map layers get a small realistic table
    SMALL_BUCKETS = 16

    def __init__(
        self,
        spec: TrafficSpec,
        scheme_spec: str,
        *,
        population: str,
        shadow: bool = False,
    ) -> None:
        self.population = population
        self._cap = spec.chain_cap
        eth = Map(self.SMALL_BUCKETS, scheme=make_scheme(scheme_spec))
        eth.bind(_key(0), "eth-proto")
        self._eth = _SingletonProbe(eth)
        self._ip: Optional[_SingletonProbe] = None
        if population == "tcp":
            ip = Map(self.SMALL_BUCKETS, scheme=make_scheme(scheme_spec))
            ip.bind(_key(0), "ip-proto")
            self._ip = _SingletonProbe(ip)
        self.l4 = Map(spec.buckets, scheme=make_scheme(scheme_spec))
        self.shadow: Optional[L4Shadow] = None
        if shadow and isinstance(self.l4.scheme, (OneEntryCache, NoCache)):
            self.shadow = L4Shadow(self.l4, self._cap)
        self.bound: set = set()

    @property
    def eth(self) -> Map:
        return self._eth.map

    @property
    def ip(self) -> Optional[Map]:
        return self._ip.map if self._ip is not None else None

    # ------------------------------------------------------------------ #
    # connection lifecycle                                               #
    # ------------------------------------------------------------------ #

    def open_flow(self, uid: int) -> None:
        key = _key(uid)
        self.l4.bind(key, uid)
        self.bound.add(uid)
        if self.shadow is not None:
            self.shadow.rechain(key)

    def close_flow(self, uid: int) -> None:
        key = _key(uid)
        shadow = self.shadow
        if shadow is not None:
            shadow.writeback()  # the unbind's invalidation reads the slot
        self.l4.unbind(key)
        self.bound.discard(uid)
        if shadow is not None:
            shadow.unbound(uid, key)

    # ------------------------------------------------------------------ #
    # the per-packet probe                                               #
    # ------------------------------------------------------------------ #

    def probe_packet(
        self, uid: int
    ) -> Tuple[LayerOutcome, Optional[LayerOutcome], LayerOutcome]:
        """Demultiplex one packet: (eth, ip-or-None, l4) outcomes.

        Unbound ``uid``s (scan packets, or the first packet racing a
        churned slot) miss every cache and walk their full collision
        chain — the not-found cost.
        """
        cap = self._cap
        eth = self._eth.probe(cap)
        ip = self._ip.probe(cap) if self._ip is not None else None
        if self.shadow is not None:
            return eth, ip, self.shadow.resolve(uid)
        self.l4.resolve_or_none(_key(uid))
        last = self.l4.last
        return eth, ip, (last.hit, last.probes, min(last.chain, cap))

    def probe_pre_l4(self) -> Tuple[LayerOutcome, Optional[LayerOutcome]]:
        """Demultiplex a packet that dies before the l4 lookup (a
        checksum reject): eth (and ip) pay their real probe costs, the
        flow map is never consulted."""
        cap = self._cap
        eth = self._eth.probe(cap)
        ip = self._ip.probe(cap) if self._ip is not None else None
        return eth, ip

    def settled_pre_l4(self) -> Optional[Tuple[LayerOutcome, Optional[LayerOutcome]]]:
        """The constant (eth, ip) outcomes once both singleton maps
        replay their resolves, else ``None``."""
        eth = self._eth
        ip = self._ip
        if eth.delta is None or (ip is not None and ip.delta is None):
            return None
        return eth.outcome, ip.outcome if ip is not None else None

    def replay_pre_l4(self, packets: int) -> None:
        """Account ``packets`` settled eth (and ip) probes at once."""
        self._eth.extra += packets
        if self._ip is not None:
            self._ip.extra += packets

    # ------------------------------------------------------------------ #
    # reporting                                                          #
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, MapStats]:
        if self.shadow is not None:
            self.shadow.writeback()
        self._eth.flush()
        layers = {"eth": self._eth.map.stats, "l4": self.l4.stats}
        if self._ip is not None:
            self._ip.flush()
            layers["ip"] = self._ip.map.stats
        return layers
