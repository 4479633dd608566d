"""Deterministic per-packet fault arrivals for streaming traffic.

A :class:`FaultProfile` gives each receive-side fault kind of the PR 4
taxonomy a per-packet arrival probability, a scope (every flow, only the
hot half of the popularity ranking, or only the cold half plus scans)
and a seed.  The profile draws from its **own** ``random.Random`` —
seeded by a stable digest of the profile and the spec — so the traffic
spec's arrival/churn RNG stream is untouched: a faulted stream samples
the identical packet sequence as a pristine one, and only the faulted
packets' classifications differ.

The all-rates-zero profile is special by construction:
:meth:`FaultProfile.arrivals` returns ``None`` and the driver never
draws, so a rate-0 faulted stream is *bit-identical* to a pristine
stream — the identity the rate-0 tests pin on both engines.
"""

from __future__ import annotations

from bisect import bisect_right
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.faults.plan import FAULT_KINDS, stable_digest
from repro.traffic.arrivals import SCAN
from repro.traffic.spec import TrafficSpec

#: the receive-side kinds a stream can price (``dropped_packet`` is a
#: send-side retransmission fault; an inbound stream never sees it)
STREAM_FAULT_KINDS = (
    "corrupt_checksum",
    "truncated_header",
    "bad_demux_key",
    "duplicated_packet",
)

#: fault scopes: every packet, the hot half of the flow popularity
#: ranking, or the cold half (scan packets count as cold)
SCOPES = ("all", "hot", "cold")


@dataclass(frozen=True)
class FaultProfile:
    """Per-kind fault arrival rates for one stream.

    ``rates`` maps fault kind -> per-packet probability, stored as a
    sorted tuple of pairs so the profile stays hashable and its JSON is
    deterministic.  The kind probabilities are disjoint (one uniform
    draw per packet against cumulative thresholds), so the total rate
    must not exceed 1.
    """

    rates: Tuple[Tuple[str, float], ...] = ()
    seed: int = 0
    scope: str = "all"

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", tuple(sorted(dict(self.rates).items())))
        unknown = {kind for kind, _rate in self.rates} - set(STREAM_FAULT_KINDS)
        if unknown:
            receive = set(STREAM_FAULT_KINDS)
            send_side = sorted(unknown & (set(FAULT_KINDS) - receive))
            if send_side:
                raise ValueError(
                    f"fault kind(s) {send_side} are send-side; a stream "
                    f"profile takes {', '.join(STREAM_FAULT_KINDS)}"
                )
            raise ValueError(
                f"unknown fault kind(s) {sorted(unknown)}; "
                f"valid kinds: {', '.join(STREAM_FAULT_KINDS)}"
            )
        for kind, rate in self.rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind!r} must be in [0, 1], got {rate!r}")
        if self.total_rate > 1.0:
            raise ValueError(f"total fault rate {self.total_rate!r} exceeds 1")
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {self.scope!r}")

    @classmethod
    def uniform(
        cls,
        rate: float,
        *,
        seed: int = 0,
        scope: str = "all",
        kinds: Tuple[str, ...] = STREAM_FAULT_KINDS,
    ) -> "FaultProfile":
        """Spread one total rate evenly over ``kinds``."""
        if not kinds:
            raise ValueError("uniform profile needs at least one kind")
        share = rate / len(kinds)
        return cls(
            rates=tuple((kind, share) for kind in kinds), seed=seed, scope=scope
        )

    @property
    def total_rate(self) -> float:
        return sum(rate for _kind, rate in self.rates)

    def to_json(self) -> dict:
        return {
            "rates": {kind: rate for kind, rate in self.rates},
            "seed": self.seed,
            "scope": self.scope,
            "total_rate": self.total_rate,
        }

    # ------------------------------------------------------------------ #
    # the per-packet draw                                                #
    # ------------------------------------------------------------------ #

    def _draw_table(
        self, spec: TrafficSpec
    ) -> Optional[Tuple[random.Random, List[str], List[float], float]]:
        """The per-packet draw's RNG, kinds, cumulative rates and total
        rate, or ``None`` when every rate is zero."""
        kinds: List[str] = []  # bounded: one entry per fault kind
        cum: List[float] = []  # bounded: one entry per fault kind
        acc = 0.0
        for kind, rate in self.rates:
            if rate > 0.0:
                acc += rate
                kinds.append(kind)
                cum.append(acc)
        if not kinds:
            return None
        rng = random.Random(
            stable_digest(
                "stream-faults",
                self.seed,
                self.scope,
                self.rates,
                spec.seed,
                spec.stack,
                spec.mix,
                spec.flows,
            )
        )
        return rng, kinds, cum, acc

    def arrivals(self, spec: TrafficSpec) -> Optional[Callable[[], Optional[str]]]:
        """A per-packet sampler, or ``None`` when every rate is zero.

        The ``None`` fast path is what makes rate-0 identity structural:
        the stream driver draws nothing, touches no RNG, and feeds the
        exact pristine variants.  With any positive rate the sampler
        consumes exactly one uniform per packet regardless of outcome,
        so the fault sequence is a pure function of (profile, spec).
        """
        table = self._draw_table(spec)
        if table is None:
            return None
        rng, kinds, cum, total = table

        def draw() -> Optional[str]:
            u = rng.random()
            if u >= total:
                return None
            return kinds[bisect_right(cum, u)]

        return draw

    def block_arrivals(
        self, spec: TrafficSpec
    ) -> Optional[Callable[[int], Dict[int, str]]]:
        """``arrivals`` for a block of packets at once: the sampler maps
        a block length to ``{packet offset: kind}`` of the block's
        faulted packets, drawing exactly the uniforms ``arrivals``
        would."""
        table = self._draw_table(spec)
        if table is None:
            return None
        rng, kinds, cum, total = table
        rand = rng.random

        def draw_block(packets: int) -> Dict[int, str]:
            return {
                i: kinds[bisect_right(cum, u)]
                for i, u in enumerate([rand() for _ in range(packets)])
                if u < total
            }

        return draw_block

    def scope_filter(self, spec: TrafficSpec) -> Optional[Callable[[int], bool]]:
        """Slot predicate for non-``all`` scopes (``None`` = no filter).

        Slot index *is* the popularity rank (slot 0 is hottest under
        Zipf), so the hot scope is the top half of slots; scan packets
        carry never-bound keys and count as cold.
        """
        if self.scope == "all":
            return None
        half = spec.flows // 2
        if self.scope == "hot":
            return lambda slot: slot != SCAN and slot < half
        return lambda slot: slot == SCAN or slot >= half


def profile_from_rates(
    rates: Mapping[str, float], *, seed: int = 0, scope: str = "all"
) -> FaultProfile:
    """Convenience constructor from a plain mapping."""
    return FaultProfile(rates=tuple(rates.items()), seed=seed, scope=scope)
