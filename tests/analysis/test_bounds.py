"""Static latency bounds: domain laws, differential soundness, cells, CLI.

Four layers of evidence, cheapest first:

* the must/may domain operations obey their lattice laws on hand-built
  values (joins, residency queries, widening caps);
* the abstract transfer is *differentially* validated against the
  concrete :class:`~repro.arch.memory.MemoryHierarchy` on seeded random
  access streams over a miniature geometry — cold passes must agree
  bit for bit, steady passes must stay inside the bounds, and a pass
  from a joined state must cover both joined branches;
* hand-built mini-IR programs pin down the digest shape, the layout
  re-binding, and the conflict/persistence behaviour end to end;
* real cells (the full grid lives in ``benchmarks/check_bounds.py``)
  plus the mutation property, the ``api.analyze`` facade and the CLI
  exit-code contract.
"""

import json
import random

import pytest

from repro.analysis.bounds import (
    EMPTY,
    TOP,
    BoundsAnalyzer,
    MemState,
    bind_digest,
    bounds_from_digest,
    check_cell_bounds,
    digest_trace,
    join_tags,
    may_resident,
    must_resident,
)
from repro.arch.isa import Op, TraceEntry
from repro.arch.memory import MemoryConfig, MemoryHierarchy
from repro.core.ir import FunctionBuilder
from repro.core.program import Program
from repro.core.walker import EnterEvent, ExitEvent, Walker

#: miniature geometry: 8-block i/d-caches, 64-block b-cache, so seeded
#: random streams over a few dozen blocks actually conflict everywhere
MINI = MemoryConfig(icache_size=256, dcache_size=256, bcache_size=2048)


# --------------------------------------------------------------------------- #
# domain laws                                                                 #
# --------------------------------------------------------------------------- #


class TestDomain:
    def test_join_equal_singletons_stays_must(self):
        assert join_tags(7, 7) == 7

    def test_join_distinct_singletons_becomes_may(self):
        assert join_tags(3, 9) == frozenset((3, 9))

    def test_join_with_empty_keeps_both_possibilities(self):
        joined = join_tags(EMPTY, 5)
        assert joined == frozenset((EMPTY, 5))
        assert may_resident(joined, 5)
        assert not must_resident(joined, 5)

    def test_join_set_with_singleton_unions(self):
        assert join_tags(frozenset((1, 2)), 3) == frozenset((1, 2, 3))

    def test_join_is_commutative_and_idempotent(self):
        a, b = frozenset((1, 2)), frozenset((2, 4))
        assert join_tags(a, b) == join_tags(b, a)
        assert join_tags(a, a) == a

    def test_residency_queries(self):
        assert must_resident(4, 4)
        assert not must_resident(frozenset((4, 5)), 4)
        assert may_resident(frozenset((4, 5)), 4)
        assert not may_resident(EMPTY, 4)

    def test_memstate_join_is_pointwise_with_empty_default(self):
        a, b = MemState(), MemState()
        a.icache[0] = 1
        b.icache[0] = 2
        b.dcache[3] = 7
        joined = a.join(b)
        assert joined.icache[0] == frozenset((1, 2))
        # a set only one side touched joins against "definitely empty"
        assert joined.dcache[3] == frozenset((EMPTY, 7))

    def test_memstate_join_widens_stream_past_cap(self):
        states = [MemState() for _ in range(10)]
        for i, st in enumerate(states):
            st.stream = frozenset(((i, False),))
        joined = states[0]
        for st in states[1:]:
            joined = joined.join(st)
        assert joined.stream is TOP
        # TOP is absorbing under further joins
        assert joined.join(MemState()).stream is TOP

    def test_memstate_join_identity(self):
        st = MemState()
        st.icache[2] = 9
        st.wb = frozenset(((4, 5),))
        assert st.join(st.copy()) == st


# --------------------------------------------------------------------------- #
# differential validation against the concrete hierarchy                      #
# --------------------------------------------------------------------------- #


def _random_trace(rng, length, *, nblocks=24, ndata=16):
    """A block-aligned access stream: every pc starts its own i-block."""
    entries = []
    for _ in range(length):
        pc = rng.randrange(nblocks) * MINI.block_size
        if rng.random() < 0.4:
            daddr = 0x8000 + rng.randrange(ndata) * MINI.block_size
            dwrite = rng.random() < 0.5
            op = Op.STORE if dwrite else Op.LOAD
            entries.append(TraceEntry(pc, op, daddr=daddr, dwrite=dwrite))
        else:
            entries.append(TraceEntry(pc, Op.ALU))
    return entries


def _events_of(trace):
    """The bound-event stream a digest of ``trace`` would expand to."""
    events = []
    for entry in trace:
        events.append((0, entry.pc // MINI.block_size, "fn"))
        if entry.daddr is not None:
            kind = 2 if entry.dwrite else 1
            events.append((kind, entry.daddr // MINI.block_size, "fn"))
    return events


class TestDifferential:
    @pytest.mark.parametrize("seed", range(10))
    def test_cold_pass_is_bit_exact(self, seed):
        """From the empty state the analysis is concrete: zero slack."""
        trace = _random_trace(random.Random(seed), 200)
        concrete = MemoryHierarchy(MINI).run(trace).stall_cycles
        analyzer = BoundsAnalyzer(_events_of(trace), len(trace), memory=MINI)
        acc = analyzer.run_pass(MemState())
        assert acc.lower == acc.upper == concrete

    @pytest.mark.parametrize("seed", range(10))
    def test_steady_bounds_cover_every_later_pass(self, seed):
        trace = _random_trace(random.Random(seed), 200)
        analyzer = BoundsAnalyzer(_events_of(trace), len(trace), memory=MINI)
        bounds = analyzer.analyze()
        hierarchy = MemoryHierarchy(MINI)
        hierarchy.run(trace)  # cold
        hierarchy.run(trace)  # warm-up (both engines warm up twice)
        for _ in range(4):  # passes 3..6 are all valid "steady" reads
            before = hierarchy.stats.stall_cycles
            hierarchy.run(trace)
            delta = hierarchy.stats.stall_cycles - before
            low = bounds.steady.lower_stalls
            high = bounds.steady.upper_stalls
            assert low <= delta <= high

    @pytest.mark.parametrize("seed", range(10))
    def test_joined_state_covers_both_branches(self, seed):
        """A pass from ``a JOIN b`` must bound the pass from a and from b."""
        rng = random.Random(1000 + seed)
        prefix_a = _random_trace(rng, 60)
        prefix_b = _random_trace(rng, 60)
        suffix = _random_trace(rng, 120)
        suffix_analyzer = BoundsAnalyzer(
            _events_of(suffix), len(suffix), memory=MINI
        )

        branches = []
        for prefix in (prefix_a, prefix_b):
            hierarchy = MemoryHierarchy(MINI)
            hierarchy.run(prefix)
            before = hierarchy.stats.stall_cycles
            hierarchy.run(suffix)
            branches.append(hierarchy.stats.stall_cycles - before)

        states = []
        for prefix in (prefix_a, prefix_b):
            st = MemState()
            BoundsAnalyzer(
                _events_of(prefix), len(prefix), memory=MINI
            ).run_pass(st)
            states.append(st)
        joined = states[0].join(states[1])
        acc = suffix_analyzer.run_pass(joined)
        for concrete in branches:
            assert acc.lower <= concrete <= acc.upper


# --------------------------------------------------------------------------- #
# mini-IR programs: digest shape, re-binding, conflicts, persistence          #
# --------------------------------------------------------------------------- #


def _leaf(name, *, alu=4, loads=0):
    fb = FunctionBuilder(name, saves=0)
    block = fb.block("entry").alu(alu)
    for i in range(loads):
        block.load("buf", i * MINI.block_size)
    fb.ret()
    return fb.build()


def _caller(name, callee):
    fb = FunctionBuilder(name, saves=0)
    fb.block("entry").alu(2)
    fb.call(callee, "mid")
    fb.block("mid").alu(2)
    fb.call(callee, "done")
    fb.block("done").alu(2)
    fb.ret()
    return fb.build()


def _program(placement, *fns):
    p = Program()
    for fn in fns:
        p.add(fn)
    p.layout(
        lambda prog: {
            name: prog.text_base + offset for name, offset in placement.items()
        }
    )
    return p


def _walk(program, root="f"):
    walker = Walker(program, data_env={"buf": 0x8000})
    return walker.walk([EnterEvent(root), ExitEvent(root)])


def _placements(program):
    return {name: program.address_of(name) for name in program.names()}


def _steady_delta(program, trace, passes=3):
    hierarchy = MemoryHierarchy(MINI)
    for _ in range(passes - 1):
        hierarchy.run(trace)
    before = hierarchy.stats.stall_cycles
    hierarchy.run(trace)
    return hierarchy.stats.stall_cycles - before


class TestDigest:
    def test_digest_replays_the_exact_access_stream(self):
        """Runs + data events reconstruct every (pc, daddr, dwrite)."""
        p = _program({"f": 0}, _leaf("f", alu=2, loads=1))
        res = _walk(p)
        digest = digest_trace(res.trace, p)
        kinds = [event[0] for event in digest.events]
        assert "R" in kinds and "W" in kinds  # explicit load + RA save
        executed = sum(e[3] for e in digest.events if e[0] == "X")
        assert executed == digest.instructions == len(res.trace)

        replayed = []
        for kind, fn, a, b in digest.events:
            if kind == "X":
                base = p.address_of(fn)
                replayed.extend(
                    (base + a + 4 * i, None, False) for i in range(b)
                )
            else:
                pc, _, _ = replayed[-1]
                replayed[-1] = (pc, a, kind == "W")
        blk = MemoryConfig.block_size
        expected = [
            (t.pc, None if t.daddr is None else t.daddr // blk, t.dwrite)
            for t in res.trace
        ]
        assert replayed == expected

    def test_digest_is_layout_independent(self):
        f, g = _caller("f", "g"), _leaf("g")
        p1 = _program({"f": 0, "g": 128}, f, g)
        first = digest_trace(_walk(p1).trace, p1)
        p2 = _program({"f": 32, "g": 512}, _caller("f", "g"), _leaf("g"))
        second = digest_trace(_walk(p2).trace, p2)
        assert first == second

    def test_unowned_pc_is_rejected(self):
        p = _program({"f": 0}, _leaf("f"))
        with pytest.raises(ValueError, match="outside every laid-out"):
            digest_trace([TraceEntry(0x99990, Op.ALU)], p)

    def test_rebinding_matches_a_fresh_walk(self):
        """digest@L1 bound to L2 == digest of a walk actually laid out at L2."""
        layout_two = {"f": 64, "g": 512}
        p1 = _program({"f": 0, "g": 128}, _caller("f", "g"), _leaf("g"))
        digest = digest_trace(_walk(p1).trace, p1)
        p2 = _program(layout_two, _caller("f", "g"), _leaf("g"))
        fresh = digest_trace(_walk(p2).trace, p2)
        placements = _placements(p2)
        assert bind_digest(digest, placements) == bind_digest(fresh, placements)
        rebound = bounds_from_digest(digest, placements, memory=MINI)
        direct = bounds_from_digest(fresh, placements, memory=MINI)
        assert rebound == direct


class TestMiniPrograms:
    def _bounds_at(self, placement):
        p = _program(placement, _caller("f", "g"), _leaf("g", alu=6))
        res = _walk(p)
        digest = digest_trace(res.trace, p)
        bounds = bounds_from_digest(digest, _placements(p), memory=MINI)
        return p, res.trace, bounds

    def test_cold_and_steady_exact_on_concrete_program(self):
        p, trace, bounds = self._bounds_at({"f": 0, "g": 128})
        assert bounds.cold.exact
        cold = MemoryHierarchy(MINI).run(trace).stall_cycles
        assert bounds.cold.lower_stalls == cold
        steady = _steady_delta(p, trace)
        low = bounds.steady.lower_stalls
        high = bounds.steady.upper_stalls
        assert low <= steady <= high

    def test_icache_conflict_shows_up_in_steady_bounds(self):
        """g one i-cache apart from f evicts it on every call, forever."""
        _, _, separate = self._bounds_at({"f": 0, "g": 128})
        _, _, conflict = self._bounds_at({"f": 0, "g": MINI.icache_size})
        assert conflict.steady.lower_stalls > separate.steady.upper_stalls

    def test_per_function_attribution_covers_the_totals(self):
        _, _, bounds = self._bounds_at({"f": 0, "g": MINI.icache_size})
        for phase in (bounds.cold, bounds.steady):
            assert set(phase.by_function) <= {"f", "g"}
            lows = sum(pair[0] for pair in phase.by_function.values())
            highs = sum(pair[1] for pair in phase.by_function.values())
            assert (lows, highs) == (phase.lower_stalls, phase.upper_stalls)


# --------------------------------------------------------------------------- #
# real cells, mutations, the facade and the CLI                               #
# --------------------------------------------------------------------------- #


class TestCells:
    @pytest.mark.parametrize("stack,config", [("tcpip", "CLO"), ("rpc", "STD")])
    def test_fast_engine_invariant(self, stack, config):
        bounds, findings = check_cell_bounds(stack, config, engine="fast")
        assert findings == []
        assert bounds.cold.exact  # cold starts empty: slack = model bug

    def test_reference_engine_invariant(self):
        bounds, findings = check_cell_bounds("tcpip", "CLO", engine="reference")
        assert findings == []
        assert bounds.cold.exact

    def test_mutated_layouts_stay_bounded(self):
        from repro.api.settings import Settings
        from repro.search.artifact import pack_genome
        from repro.search.evaluate import CellEvaluator
        from repro.search.generators import incumbent_genome, mutate

        # the reference evaluator walks and simulates each layout, so the
        # measured score owes nothing to the digest the bound re-binds
        evaluator = CellEvaluator("tcpip", "CLO", settings=Settings(engine="reference"))
        base = incumbent_genome(evaluator.program)
        try:
            for seed in range(3):
                rng = random.Random(seed)
                genome = base
                for _ in range(3):
                    genome = mutate(genome, rng)
                placements = pack_genome(evaluator.program, genome)
                bounds = bounds_from_digest(evaluator.digest, placements)
                score = evaluator.score(placements)
                low = bounds.steady.lower
                high = bounds.steady.upper
                assert low <= score.steady_mcpi <= high
        finally:
            evaluator.restore_default()


class TestFacade:
    def test_api_analyze_attaches_bounds(self):
        from repro import api

        cell = api.analyze(api.AnalyzeSpec(
            api.RunSpec("tcpip", "CLO"), check_conflicts=False, bounds=True
        ))
        assert cell.ok
        assert cell.bounds is not None
        assert cell.bounds.cold.exact
        payload = cell.to_json()
        assert payload["bounds"]["steady"]["lower_mcpi"] <= (
            payload["bounds"]["steady"]["upper_mcpi"]
        )

    def test_api_analyze_defaults_to_no_bounds(self):
        from repro import api

        cell = api.analyze(
            api.AnalyzeSpec(api.RunSpec("tcpip", "CLO"), check_conflicts=False)
        )
        assert cell.bounds is None


class TestCli:
    def test_clean_cell_exits_zero(self, capsys):
        from repro.__main__ import analyze_main

        code = analyze_main(["tcpip", "CLO", "--static-only", "--bounds"])
        assert code == 0
        assert "static latency bounds" in capsys.readouterr().out

    def test_json_stdout_is_pure_json(self, capsys):
        from repro.__main__ import analyze_main

        code = analyze_main(
            ["tcpip", "CLO", "--static-only", "--bounds", "--json", "-"]
        )
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        bounds = reports[0]["bounds"]
        assert bounds["cold"]["lower_mcpi"] == bounds["cold"]["upper_mcpi"]

    def test_findings_exit_one(self, capsys, monkeypatch):
        from repro import api
        from repro.__main__ import analyze_main
        from repro.analysis import CellAnalysis
        from repro.analysis.bounds import BOUNDS_VIOLATION
        from repro.analysis.verify import Finding

        def fake_analyze(spec, **kwargs):
            return CellAnalysis(
                stack=spec.run.stack,
                config=spec.run.config,
                findings=[
                    (
                        "bounds",
                        Finding(BOUNDS_VIOLATION, "tcpip/CLO", "escaped"),
                    )
                ],
            )

        monkeypatch.setattr(api, "analyze", fake_analyze)
        assert analyze_main(["tcpip", "CLO", "--bounds"]) == 1
        capsys.readouterr()

    def test_internal_error_exits_two(self, capsys, monkeypatch):
        from repro import api
        from repro.__main__ import analyze_main

        def broken_analyze(spec, **kwargs):
            raise RuntimeError("injected analyzer crash")

        monkeypatch.setattr(api, "analyze", broken_analyze)
        assert analyze_main(["tcpip", "CLO", "--bounds"]) == 2
        assert "ANALYZER ERROR" in capsys.readouterr().err
