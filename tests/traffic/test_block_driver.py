"""The block stream driver against the per-packet reference driver.

``run_traffic_point`` draws, classifies and feeds packets in blocks and
replays one-entry and cache-less l4 resolves arithmetically; none of
that may change a number.  Every cell below runs both drivers on the
same spec and requires the same ``TrafficPoint`` JSON and the same
collected per-packet services and fault counts.
"""

import json

import pytest

import repro.traffic.driver as driver
from repro.arch.simulator import AlphaConfig
from repro.resilience.faults import FaultProfile
from repro.traffic import TrafficSpec, run_traffic_point
from repro.traffic.study import StreamCollector, _CellSetup
from repro.xkernel.map import SCHEME_SPECS

from .reference_driver import reference_traffic_point

#: small enough for a few hundred cells, deep enough chains (48 flows
#: over 16 buckets) that every chain depth up to the cap occurs
BASE = TrafficSpec(packets=200, flows=48, buckets=16, warmup_packets=70, seed=5)
#: a block length that puts the warm-up boundary mid-block
SHORT_BLOCK = 48
FAULTS = FaultProfile.uniform(0.05)


@pytest.fixture(scope="module")
def setups():
    config = AlphaConfig()
    return {
        stack: _CellSetup(BASE.with_(stack=stack), config)
        for stack in ("tcpip", "rpc", "mixed")
    }


def _both(spec, scheme, setup, **kwargs):
    """(block driver, reference driver) JSON plus collector observations."""
    out = []
    for run in (run_traffic_point, reference_traffic_point):
        collect = StreamCollector()
        point = run(spec, scheme, setup=setup, collect=collect, **kwargs)
        out.append(
            (
                json.dumps(point.to_json(), sort_keys=True),
                collect.services,
                dict(collect.faults),
            )
        )
    return out


@pytest.mark.parametrize("faulted", [False, True], ids=["pristine", "faults"])
@pytest.mark.parametrize("churn", [0.0, 0.01])
@pytest.mark.parametrize("scheme", SCHEME_SPECS)
@pytest.mark.parametrize("mix", ["uniform", "zipf", "bursty", "scan"])
@pytest.mark.parametrize("stack", ["tcpip", "rpc", "mixed"])
def test_block_driver_equals_reference(
    setups, monkeypatch, stack, mix, scheme, churn, faulted
):
    monkeypatch.setattr(driver, "_BLOCK", SHORT_BLOCK)
    spec = BASE.with_(stack=stack, mix=mix, churn=churn)
    blocked, reference = _both(
        spec, scheme, setups[stack], faults=FAULTS if faulted else None
    )
    assert blocked == reference


class TestBlockBoundaries:
    @pytest.mark.parametrize("block", [1, 7, driver._BLOCK])
    def test_any_block_length(self, setups, monkeypatch, block):
        monkeypatch.setattr(driver, "_BLOCK", block)
        spec = BASE.with_(mix="scan", churn=0.01)
        blocked, reference = _both(spec, "one-entry", setups["tcpip"], faults=FAULTS)
        assert blocked == reference

    @pytest.mark.parametrize("warmup", [0, 47, 48, 49, 199])
    def test_warmup_boundary_anywhere(self, setups, monkeypatch, warmup):
        monkeypatch.setattr(driver, "_BLOCK", SHORT_BLOCK)
        spec = BASE.with_(warmup_packets=warmup, churn=0.01)
        blocked, reference = _both(spec, "one-entry", setups["tcpip"])
        assert blocked == reference


class TestMemoMachinery:
    """Evictions, the exactness cross-check and the watchdog see the
    same memo state under ``feed_block`` as under per-packet ``feed``."""

    TINY = BASE.with_(
        packets=600, mix="scan", churn=0.005, memo_state_cap=4, memo_edge_cap=6
    )

    @pytest.mark.parametrize("scheme", ["one-entry", "none", "lru:4"])
    def test_tiny_memo_caps(self, setups, monkeypatch, scheme):
        monkeypatch.setattr(driver, "_BLOCK", SHORT_BLOCK)
        blocked, reference = _both(self.TINY, scheme, setups["tcpip"], faults=FAULTS)
        assert blocked == reference
        point = json.loads(blocked[0])
        assert point["memo_evictions"] > 0
        assert point["novel_passes"] > point["segment_alphabet"]

    @pytest.mark.parametrize("scheme", ["one-entry", "lru:4"])
    def test_zero_watchdog_degrades_identically(self, setups, monkeypatch, scheme):
        monkeypatch.setattr(driver, "_BLOCK", SHORT_BLOCK)
        spec = BASE.with_(mix="scan", churn=0.01)
        blocked, reference = _both(
            spec, scheme, setups["tcpip"], faults=FAULTS, watchdog_s=0.0
        )
        assert blocked == reference
        assert json.loads(blocked[0])["degraded"] is True
