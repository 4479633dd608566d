"""The replayed trace digest scores candidates exactly as a walk does.

On the fast and guarded engines :meth:`CellEvaluator.score` replays the
cell's layout-independent trace digest under the candidate's placements
(:func:`repro.analysis.bounds.replay_digest`) instead of walking and
simulating the candidate; the reference engine still walks and runs
:class:`~repro.arch.simulator.MachineSimulator`.  These tests hold the
replay to that oracle on every cell of the paper's grid, and check the
bound certificate the same replay hands the certified prune.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.bounds import TraceDigest, bounds_from_digest, replay_digest
from repro.api.settings import Settings
from repro.core.layout import bipartite_layout, micro_positioning_layout
from repro.harness.configs import CONFIG_NAMES
from repro.protocols.models.library import (
    COLD_LIBRARY_FUNCTIONS,
    HOT_LIBRARY_FUNCTIONS,
)
from repro.search import evaluate
from repro.search.artifact import pack_genome
from repro.search.evaluate import CellEvaluator
from repro.search.generators import incumbent_genome, mutate

REPO = Path(__file__).resolve().parents[2]

GRID = [(stack, config) for stack in ("tcpip", "rpc") for config in CONFIG_NAMES]

#: seeded mutants per cell, three mutation steps each
MUTANTS = 4

_2MB = 2 * 1024 * 1024


def _candidates(evaluator: CellEvaluator) -> dict:
    """Default, bipartite, micro-positioned and seeded-mutant placements."""
    program = evaluator.program
    out = {
        "default": dict(evaluator.default_placements),
        "bipartite": bipartite_layout(
            evaluator.build.hot_functions + list(COLD_LIBRARY_FUNCTIONS),
            list(HOT_LIBRARY_FUNCTIONS),
        )(program),
        "micro": micro_positioning_layout(evaluator.block_trace)(program),
    }
    base = incumbent_genome(program)
    rng = random.Random(7)
    for i in range(MUTANTS):
        genome = base
        for _ in range(3):
            genome = mutate(genome, rng)
        out[f"mutant{i}"] = pack_genome(program, genome)
    return out


@pytest.fixture
def spy_bounds(monkeypatch):
    """Counts the evaluator's calls of the abstract interpreter."""
    calls = []

    def spy(digest, placements, **kwargs):
        calls.append(placements)
        return bounds_from_digest(digest, placements, **kwargs)

    monkeypatch.setattr(evaluate, "bounds_from_digest", spy)
    return calls


@pytest.mark.parametrize("stack,config", GRID)
def test_replay_scores_and_bounds_match_the_walk(stack, config, spy_bounds):
    fast = CellEvaluator(stack, config)
    guarded = CellEvaluator(stack, config, settings=Settings(engine="guarded"))
    reference = CellEvaluator(stack, config, settings=Settings(engine="reference"))
    for label, placements in _candidates(fast).items():
        where = f"{stack}/{config} {label}"
        expected = reference.score(placements)
        assert fast.score(placements) == expected, where
        assert guarded.score(placements) == expected, where

        replay = replay_digest(fast.digest, placements)
        steady = bounds_from_digest(fast.digest, placements).steady
        if label == "default":
            # the steady bounds are exact on every default cell
            assert replay.closed, where
        if replay.closed:
            stalls = replay.steady.stall_cycles
            assert steady.lower_stalls == steady.upper_stalls == stalls, where
        # the prune's bound is the abstract interpreter's, whichever path
        # computed it, and the score after it reuses the bound's replay
        calls = len(spy_bounds)
        assert fast.steady_lower_bound(placements) == steady.lower, where
        assert len(spy_bounds) == calls + (0 if replay.closed else 1)
        assert fast.score(placements) == expected, where


#: two digests over aliasing functions whose replay does not close: in
#: the first, data blocks and the stream buffer alternate between passes
#: and the abstract bound is not even exact; in the second, only a
#: b-cache tag differs after the third pass
OPEN_DIGESTS = {
    "alternating": TraceDigest(
        events=(
            ("X", "b", 24, 11),
            ("W", "b", 0, 0),
            ("X", "c", 44, 3),
            ("R", "c", 131072, 0),
            ("X", "c", 0, 17),
            ("X", "b", 40, 1),
            ("R", "b", 65536, 0),
            ("X", "d", 36, 10),
        ),
        instructions=42,
    ),
    "bcache-tag": TraceDigest(
        events=(
            ("X", "a", 40, 19),
            ("W", "a", 131072, 0),
            ("X", "c", 56, 14),
            ("R", "c", 0, 0),
            ("X", "a", 4, 3),
            ("W", "a", 65537, 0),
        ),
        instructions=36,
    ),
}

#: the functions the hand-built digests run: b and d alias a in both the
#: i-cache and the b-cache
ALIASED = {"a": 0, "b": _2MB, "c": 8192, "d": 2 * _2MB + 32}


@pytest.fixture
def tcpip_std():
    return CellEvaluator("tcpip", "STD")


@pytest.mark.parametrize("name", sorted(OPEN_DIGESTS))
def test_an_open_replay_falls_back_to_the_abstract_bound(name, spy_bounds, tcpip_std):
    digest = OPEN_DIGESTS[name]
    replay = replay_digest(digest, ALIASED)
    assert not replay.closed
    bounds = bounds_from_digest(digest, ALIASED)
    assert bounds.persistence_iterations > 0
    if name == "alternating":
        assert not bounds.steady.exact

    # steady_lower_bound reads nothing of the cell but its digest
    tcpip_std.digest = digest
    assert tcpip_std.steady_lower_bound(ALIASED) == bounds.steady.lower
    assert spy_bounds == [ALIASED]


def _random_digest(rng: random.Random, functions) -> TraceDigest:
    """A few runs of aliasing functions, some ending in a data access."""
    blocks = (0, 1, 5, 7, 256, _2MB // 32, _2MB // 32 + 1, 2 * _2MB // 32)
    events = []
    instructions = 0
    for _ in range(rng.randint(2, 6)):
        fn = rng.choice(functions)
        count = rng.randint(1, 24)
        events.append(("X", fn, rng.randrange(0, 64, 4), count))
        instructions += count
        if rng.random() < 0.6:
            events.append((rng.choice("RW"), fn, rng.choice(blocks), 0))
    return TraceDigest(events=tuple(events), instructions=instructions)


def test_closure_certifies_the_abstract_bound_on_random_digests():
    """Closed replays are exactly the 0-join abstract fixed points with the
    replayed stalls; open ones still lie inside the abstract bounds."""
    rng = random.Random(2024)
    closed = 0
    for _ in range(300):
        digest = _random_digest(rng, sorted(ALIASED))
        replay = replay_digest(digest, ALIASED)
        bounds = bounds_from_digest(digest, ALIASED)
        stalls = replay.steady.stall_cycles
        lower = bounds.steady.lower_stalls
        upper = bounds.steady.upper_stalls
        if replay.closed:
            closed += 1
            assert bounds.persistence_iterations == 0, digest
            assert lower == upper == stalls, digest
        else:
            assert lower <= stalls <= upper, digest
        assert bounds.cold.lower_stalls == replay.cold.stall_cycles, digest
    assert 0 < closed < 300


def test_api_and_stream_imports_load_no_search_or_bounds_module():
    """The stream and sweep set-up paths pay nothing for the search."""
    script = (
        "import sys\n"
        "import repro.api, repro.traffic.study, repro.resilience.study\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.startswith('repro.search')\n"
        "                or m == 'repro.analysis.bounds')\n"
        "assert not loaded, loaded\n"
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
