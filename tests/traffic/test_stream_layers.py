"""The stream path's public layers and its import footprint.

The repository benchmark's traced mode (``perfbench/tracing.py``) times
the program by wrapping the functions its ``LAYERS`` table names, so
every one of them must keep resolving; and the stream path must not
pull numpy in (a 1M-packet stream's whole resident set is ~30 MB, and
importing numpy adds a third to it).
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
TRACING = REPO / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.skipif(not TRACING.exists(), reason="no perfbench checkout")
def test_every_traced_layer_resolves():
    for layer, (module_name, qualnames, _entries) in _layers().items():
        module = importlib.import_module(module_name)
        for qualname in qualnames:
            owner = module
            for part in qualname.split("."):
                assert hasattr(owner, part), f"{layer}: {module_name}.{qualname}"
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}: {module_name}.{qualname}"


def test_per_packet_entry_points_remain():
    from repro.traffic.arrivals import ArrivalSampler
    from repro.traffic.flowtable import FlowTables
    from repro.traffic.segments import SegmentLibrary
    from repro.traffic.stream import TransitionStream

    for owner, name in (
        (ArrivalSampler, "next"),
        (FlowTables, "probe_packet"),
        (FlowTables, "probe_pre_l4"),
        (FlowTables, "open_flow"),
        (FlowTables, "close_flow"),
        (TransitionStream, "feed"),
        (SegmentLibrary, "segment"),
    ):
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


def test_stream_path_never_imports_numpy():
    script = (
        "import sys\n"
        "import repro.api, repro.traffic.study\n"
        "from repro.traffic import TrafficSpec, run_traffic_point\n"
        "run_traffic_point(TrafficSpec(packets=5_000, flows=500,"
        " warmup_packets=1_000), 'one-entry')\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
