"""The fault-profile model: rates, scopes, seeds and the rate-0 fast path."""

import pytest

from repro.resilience.faults import (
    SCOPES,
    STREAM_FAULT_KINDS,
    FaultProfile,
    profile_from_rates,
)
from repro.traffic import TrafficSpec
from repro.traffic.arrivals import SCAN

SPEC = TrafficSpec(packets=2_000, flows=200, warmup_packets=400, seed=0)


class TestValidation:
    def test_default_profile_is_empty(self):
        profile = FaultProfile()
        assert profile.total_rate == 0.0
        assert profile.arrivals(SPEC) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultProfile(rates=(("cosmic_ray", 0.1),))

    def test_send_side_kind_rejected_with_specific_error(self):
        with pytest.raises(ValueError, match="send-side"):
            FaultProfile(rates=(("dropped_packet", 0.1),))

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="must be in"):
            FaultProfile(rates=(("corrupt_checksum", 1.5),))
        with pytest.raises(ValueError, match="must be in"):
            FaultProfile(rates=(("corrupt_checksum", -0.1),))

    def test_total_rate_capped_at_one(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            FaultProfile(
                rates=(("corrupt_checksum", 0.6), ("truncated_header", 0.6))
            )

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            FaultProfile(scope="warm")

    def test_uniform_spreads_rate_over_kinds(self):
        profile = FaultProfile.uniform(0.2)
        assert profile.total_rate == pytest.approx(0.2)
        assert {kind for kind, _ in profile.rates} == set(STREAM_FAULT_KINDS)

    def test_uniform_needs_kinds(self):
        with pytest.raises(ValueError, match="at least one kind"):
            FaultProfile.uniform(0.1, kinds=())

    def test_profile_from_rates_mapping(self):
        profile = profile_from_rates({"corrupt_checksum": 0.05}, seed=3)
        assert profile.rates == (("corrupt_checksum", 0.05),)
        assert profile.seed == 3

    def test_rates_sorted_and_hashable(self):
        a = FaultProfile(
            rates=(("truncated_header", 0.1), ("corrupt_checksum", 0.2))
        )
        b = FaultProfile(
            rates=(("corrupt_checksum", 0.2), ("truncated_header", 0.1))
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_to_json_shape(self):
        j = FaultProfile.uniform(0.04, seed=2, scope="hot").to_json()
        assert set(j) == {"rates", "seed", "scope", "total_rate"}
        assert j["scope"] == "hot"


class TestArrivals:
    def test_all_zero_rates_return_none(self):
        profile = FaultProfile(
            rates=tuple((kind, 0.0) for kind in STREAM_FAULT_KINDS)
        )
        assert profile.arrivals(SPEC) is None

    def test_draws_are_deterministic_per_profile_and_spec(self):
        def sequence():
            draw = FaultProfile.uniform(0.3, seed=7).arrivals(SPEC)
            return [draw() for _ in range(500)]

        assert sequence() == sequence()

    def test_different_seeds_differ(self):
        a = FaultProfile.uniform(0.3, seed=0).arrivals(SPEC)
        b = FaultProfile.uniform(0.3, seed=1).arrivals(SPEC)
        assert [a() for _ in range(500)] != [b() for _ in range(500)]

    def test_spec_seed_feeds_the_digest(self):
        a = FaultProfile.uniform(0.3).arrivals(SPEC)
        b = FaultProfile.uniform(0.3).arrivals(SPEC.with_(seed=9))
        assert [a() for _ in range(500)] != [b() for _ in range(500)]

    def test_every_positive_kind_arrives(self):
        draw = FaultProfile.uniform(0.8, seed=0).arrivals(SPEC)
        seen = {draw() for _ in range(2_000)}
        assert set(STREAM_FAULT_KINDS) <= seen

    def test_rate_controls_frequency(self):
        draw = FaultProfile.uniform(0.1, seed=0).arrivals(SPEC)
        hits = sum(draw() is not None for _ in range(10_000))
        assert 700 <= hits <= 1_300  # ~10% of 10k

    def test_block_draws_equal_per_packet_draws(self):
        profile = FaultProfile.uniform(0.3, seed=7)
        draw = profile.arrivals(SPEC)
        per_packet = [draw() for _ in range(1_000)]
        draw_block = profile.block_arrivals(SPEC)
        blocked = [None] * 1_000
        for start, length in ((0, 1), (1, 333), (334, 666)):
            for offset, kind in draw_block(length).items():
                blocked[start + offset] = kind
        assert blocked == per_packet

    def test_block_sampler_is_none_when_every_rate_is_zero(self):
        profile = FaultProfile(
            rates=tuple((kind, 0.0) for kind in STREAM_FAULT_KINDS)
        )
        assert profile.block_arrivals(SPEC) is None


class TestScopeFilter:
    def test_all_scope_has_no_filter(self):
        assert FaultProfile.uniform(0.1).scope_filter(SPEC) is None

    def test_hot_scope_is_the_top_half(self):
        in_scope = FaultProfile.uniform(0.1, scope="hot").scope_filter(SPEC)
        half = SPEC.flows // 2
        assert in_scope(0) and in_scope(half - 1)
        assert not in_scope(half) and not in_scope(SCAN)

    def test_cold_scope_is_the_bottom_half_plus_scans(self):
        in_scope = FaultProfile.uniform(0.1, scope="cold").scope_filter(SPEC)
        half = SPEC.flows // 2
        assert in_scope(half) and in_scope(SPEC.flows - 1) and in_scope(SCAN)
        assert not in_scope(0)

    def test_scopes_constant_matches(self):
        assert SCOPES == ("all", "hot", "cold")
