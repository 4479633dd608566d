"""Bounded ingress queue, offered-load schedules and exact percentiles.

The overload model layers a single-server FIFO queue over the stream's
per-packet service demands (simulated cycles: memory stalls + CPU work
of each packet's segment).  Offered load is expressed as a percentage of
the stream's own service capacity: at ``load_pct`` the i-th packet
arrives at ``(i * base_cycles * 100) // load_pct`` where ``base_cycles``
is the stream's mean service demand — 100% offers exactly one mean
service time per mean service time, >100% overdrives the server.

Everything is integer arithmetic on the simulated-cycle timeline: no
floats touch arrival times, sojourns or percentiles, so two engines (or
two runs) produce bit-identical latency curves.

Admission control is by policy: ``drop-tail`` bounds the packets in
system at ``queue_capacity`` and drops arrivals beyond it (saturation =
any drop); ``unbounded`` admits everything and calls the stream
saturated when the end-of-run backlog exceeds ``backlog_threshold``
mean service times (the queue kept growing instead of draining).
Latency is the sojourn time (finish - arrival) of admitted packets,
reported as exact nearest-rank p50/p99/p999.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import islice
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: admission-control policies of the ingress queue
POLICIES = ("drop-tail", "unbounded")

#: sojourns gathered before they are counted into the histogram
_SOJOURN_CHUNK = 65_536

#: offered-load points (percent of the stream's service capacity); the
#: default sweep brackets the saturation knee at 100%
DEFAULT_LOADS = (60, 80, 90, 100, 110, 130)


@dataclass(frozen=True)
class OverloadSpec:
    """One overload experiment: load schedule, queue bound, policy."""

    loads: Tuple[int, ...] = DEFAULT_LOADS
    #: max packets in system (in service + queued) under drop-tail
    queue_capacity: int = 64
    policy: str = "drop-tail"
    #: unbounded policy: end backlog (in mean-service units) that counts
    #: as saturation
    backlog_threshold: int = 100

    def validate(self) -> None:
        if not self.loads:
            raise ValueError("loads must be non-empty")
        for load in self.loads:
            if load <= 0:
                raise ValueError(f"offered load must be positive, got {load!r}")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.backlog_threshold <= 0:
            raise ValueError("backlog_threshold must be positive")

    def to_json(self) -> dict:
        return {
            "loads": list(self.loads),
            "queue_capacity": self.queue_capacity,
            "policy": self.policy,
            "backlog_threshold": self.backlog_threshold,
        }


@dataclass(frozen=True)
class LoadPoint:
    """The queue's behavior at one offered-load point."""

    load_pct: int
    offered: int
    admitted: int
    dropped: int
    p50: int
    p99: int
    p999: int
    max_sojourn: int
    #: backlog (cycles of unfinished work) when the arrivals ended
    end_backlog: int
    saturated: bool

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    def to_json(self) -> dict:
        return {
            "load_pct": self.load_pct,
            "offered": self.offered,
            "admitted": self.admitted,
            "dropped": self.dropped,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "max_sojourn": self.max_sojourn,
            "end_backlog": self.end_backlog,
            "saturated": self.saturated,
            "drop_fraction": self.drop_fraction,
        }


def mean_service_cycles(services: Sequence[int]) -> int:
    """The stream's mean per-packet service demand (floor, >= 1)."""
    if not services:
        raise ValueError("no service demands to calibrate against")
    return max(1, sum(services) // len(services))


def percentiles(hist: Counter, qs: Sequence[float]) -> List[int]:
    """Exact nearest-rank percentiles of a value histogram.

    ``qs`` must be sorted ascending; the 1-indexed nearest rank of q is
    ``max(1, ceil(q * n))``, computed in integers (q is snapped to a
    per-mille so float representation error cannot shift a rank).
    """
    n = sum(hist.values())
    if n == 0:
        return [0 for _ in qs]
    ranks = [max(1, -(-int(round(q * 1000)) * n // 1000)) for q in qs]
    out: List[int] = []  # bounded: one entry per requested quantile
    cum = 0
    want = 0
    for value in sorted(hist):
        cum += hist[value]
        while want < len(ranks) and cum >= ranks[want]:
            out.append(value)
            want += 1
        if want == len(ranks):
            break
    while len(out) < len(qs):
        out.append(out[-1] if out else 0)
    return out


def simulate_queue(
    services: Sequence[int],
    load_pct: int,
    overload: OverloadSpec,
    base_cycles: int,
) -> LoadPoint:
    """Run the single-server FIFO queue at one offered-load point."""
    capacity = overload.queue_capacity
    drop_tail = overload.policy == "drop-tail"
    # finish times of packets in system; drained on every arrival and
    # capped at queue_capacity under drop-tail, so it stays bounded
    in_system: deque = deque()
    head = in_system.popleft
    push = in_system.append
    server_free = 0
    # bounded: distinct sojourn values of one load point
    hist: Counter = Counter()
    # bounded: _SOJOURN_CHUNK entries, counted into hist per chunk
    sojourns: List[int] = []
    record = sojourns.append
    dropped = 0
    max_sojourn = 0
    arrival = 0
    # the i-th arrival is (i * step) // load_pct; the numerator is
    # carried forward instead of multiplied out per packet
    step = base_cycles * 100
    numerator = -step
    rest = iter(services)
    for _chunk in range(0, len(services), _SOJOURN_CHUNK):
        for service in islice(rest, _SOJOURN_CHUNK):
            numerator += step
            arrival = numerator // load_pct
            while in_system and in_system[0] <= arrival:
                head()
            if drop_tail and len(in_system) >= capacity:
                dropped += 1
                continue
            server_free = (server_free if server_free > arrival else arrival) + service
            push(server_free)
            record(server_free - arrival)
        if sojourns:
            hist.update(sojourns)
            max_sojourn = max(max_sojourn, max(sojourns))
            sojourns.clear()
    offered = len(services)
    admitted = offered - dropped
    p50, p99, p999 = percentiles(hist, (0.50, 0.99, 0.999))
    end_backlog = server_free - arrival if server_free > arrival else 0
    if drop_tail:
        saturated = dropped > 0
    else:
        saturated = end_backlog > overload.backlog_threshold * base_cycles
    return LoadPoint(
        load_pct=load_pct,
        offered=offered,
        admitted=admitted,
        dropped=dropped,
        p50=p50,
        p99=p99,
        p999=p999,
        max_sojourn=max_sojourn,
        end_backlog=end_backlog,
        saturated=saturated,
    )
