"""Deterministic per-packet arrival sampling.

The sampler hands out one flow *slot* per packet.  Slots are stable
identities (slot 0 is the hottest under Zipf); the driver maps a slot to
its currently-bound flow, so connection churn can retire a flow without
disturbing the arrival distribution.  ``SCAN`` marks a packet carrying a
never-bound key.

Everything is driven by one ``random.Random(seed)`` so a spec describes
exactly one stream.  ``draw_block`` draws a block of packets at once and
interleaves the stream driver's other shared-RNG draws (connection
churn before each arrival, a scan packet's population after it) in
exactly the per-packet order, so a blocked stream is the per-packet
stream.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.traffic.spec import TrafficSpec

#: sentinel slot for scan-attack packets (no bound flow)
SCAN = -1


class ArrivalSampler:
    """Samples the next packet's flow slot according to the spec's mix."""

    def __init__(self, spec: TrafficSpec, rng: random.Random) -> None:
        self._rng = rng
        self._mix = spec.mix
        self._flows = spec.flows
        self._scan_fraction = spec.scan_fraction
        #: geometric burst continuation probability: mean = 1/(1-p)
        self._burst_p = 1.0 - 1.0 / spec.burst_mean
        self._burst_slot = 0
        self._in_burst = False
        if spec.mix in ("zipf", "bursty", "scan"):
            self._cum = self._zipf_cumulative(spec.flows, spec.zipf_s)
            self._total = self._cum[-1]
        else:
            self._cum = []  # bounded: empty for the uniform mix
            self._total = 0.0

    @staticmethod
    def _zipf_cumulative(flows: int, s: float) -> List[float]:
        cum: List[float] = []  # bounded: one entry per flow slot
        acc = 0.0
        for rank in range(flows):
            acc += 1.0 / (rank + 1) ** s
            cum.append(acc)
        return cum

    def _zipf_slot(self) -> int:
        # the min() guards the r*total==total float-rounding corner
        slot = bisect_right(self._cum, self._rng.random() * self._total)
        return min(slot, self._flows - 1)

    def next(self) -> int:
        """The next packet's slot (``SCAN`` for a scan-attack packet)."""
        mix = self._mix
        if mix == "uniform":
            return self._rng.randrange(self._flows)
        if mix == "zipf":
            return self._zipf_slot()
        if mix == "bursty":
            if self._in_burst and self._rng.random() < self._burst_p:
                return self._burst_slot
            self._burst_slot = self._zipf_slot()
            self._in_burst = True
            return self._burst_slot
        # scan: adversarial fresh keys over a Zipf background
        if self._rng.random() < self._scan_fraction:
            return SCAN
        return self._zipf_slot()

    def draw_block(
        self,
        packets: int,
        *,
        churn: float = 0.0,
        scan_rpc_fraction: Optional[float] = None,
    ) -> Tuple[List[int], Dict[int, int], Dict[int, bool]]:
        """The next ``packets`` arrivals, with the per-packet draws that
        share the RNG interleaved in order: a churn draw (and, on churn,
        the victim slot) before each arrival, and after a ``SCAN``
        arrival the scan packet's population when ``scan_rpc_fraction``
        is given (mixed stacks).

        Returns the slots, the churn victim slot per churning packet
        offset and, per scan packet offset, whether it carries RPC.
        """
        rng = self._rng
        rand = rng.random
        flows = self._flows
        hi = flows - 1
        cum = self._cum
        total = self._total
        mix = self._mix
        if mix == "zipf" and not churn:
            # the hot case: one uniform per packet, nothing interleaved
            return (
                [bisect_right(cum, rand() * total, 0, hi) for _ in range(packets)],
                {},
                {},
            )
        randrange = rng.randrange
        burst_p = self._burst_p
        burst_slot = self._burst_slot
        in_burst = self._in_burst
        scan_fraction = self._scan_fraction
        slots: List[int] = []  # bounded: one entry per packet of the block
        churns: Dict[int, int] = {}  # bounded: at most one per packet
        scan_rpc: Dict[int, bool] = {}  # bounded: at most one per packet
        for i in range(packets):
            if churn and rand() < churn:
                churns[i] = randrange(flows)
            # bisect_right's hi bound is the min() of _zipf_slot
            if mix == "zipf":
                slot = bisect_right(cum, rand() * total, 0, hi)
            elif mix == "uniform":
                slot = randrange(flows)
            elif mix == "bursty":
                if not (in_burst and rand() < burst_p):
                    burst_slot = bisect_right(cum, rand() * total, 0, hi)
                    in_burst = True
                slot = burst_slot
            elif rand() < scan_fraction:
                slot = SCAN
                if scan_rpc_fraction is not None:
                    scan_rpc[i] = rand() < scan_rpc_fraction
            else:
                slot = bisect_right(cum, rand() * total, 0, hi)
            slots.append(slot)
        self._burst_slot = burst_slot
        self._in_burst = in_burst
        return slots, churns, scan_rpc
