#!/usr/bin/env python
"""CI soundness gate for the static latency bounds (PR 8).

Three checks, all of which must hold for the abstract-interpretation
analysis of :mod:`repro.analysis.bounds` to be *sound*:

1. **12-cell invariant** — on every (stack, configuration) cell,
   ``lower <= simulated <= upper`` for both the cold and the steady
   mCPI, measured by the fast engine (bit-identical to the reference
   engine by the differential suites).  The cold bounds must in fact be
   *exact*: the cold
   pass starts from a known empty hierarchy, so any slack there is a
   model-fidelity bug, not imprecision.

2. **Randomized layout mutations** — the same invariant under seeded
   swap/rotate/realign mutations of several cells' layouts (the PR 5
   mutator), exercising the digest re-binding path the search
   prefilter depends on.  Each mutant is walked and simulated on the
   reference engine, independently of the digest.

3. **Certified prefilter smoke** — a seeded search with the bounds
   prefilter enabled must prune at least one candidate AND return a
   bit-identical result to the same search with pruning disabled.

Run from the repository root::

    python benchmarks/check_bounds.py              # all three checks
    python benchmarks/check_bounds.py --quick      # 4 cells
    python benchmarks/check_bounds.py --table      # EXPERIMENTS.md table

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

#: the prefilter smoke config: the recorded seed at which >= 1 candidate
#: is provably prunable (found empirically; asserted below)
SMOKE = ("rpc", "STD", 24, 0)  # (stack, config, budget, seed)

#: cells whose layouts get mutated in check 2
MUTATION_CELLS = (("tcpip", "CLO"), ("rpc", "STD"))


def check_cells(quick: bool) -> int:
    from repro.analysis.bounds import check_cell_bounds
    from repro.harness.configs import CONFIG_NAMES, STACKS

    failures = 0
    configs = ("STD", "CLO") if quick else CONFIG_NAMES
    for stack in STACKS:
        for config in configs:
            bounds, findings = check_cell_bounds(stack, config, engine="fast")
            for finding in findings:
                failures += 1
                print(f"FAIL: {finding.render()}", file=sys.stderr)
            if not bounds.cold.exact:
                failures += 1
                print(
                    f"FAIL: {stack}/{config} cold bounds not exact "
                    f"([{bounds.cold.lower:.6f}, "
                    f"{bounds.cold.upper:.6f}]) — the cold pass is "
                    "concrete, slack means a model-fidelity bug",
                    file=sys.stderr,
                )
            label = "OK " if not failures else "   "
            print(
                f"{label} {stack:5} {config:4} "
                f"cold [{bounds.cold.lower:8.4f}, {bounds.cold.upper:8.4f}] "
                f"steady [{bounds.steady.lower:7.4f}, "
                f"{bounds.steady.upper:7.4f}]"
            )
    return failures


def check_mutations(rounds: int) -> int:
    from repro.analysis.bounds import bounds_from_digest
    from repro.api.settings import Settings
    from repro.search.artifact import pack_genome
    from repro.search.evaluate import CellEvaluator
    from repro.search.generators import incumbent_genome, mutate

    failures = 0
    for stack, config in MUTATION_CELLS:
        # the reference evaluator walks and simulates every mutant: the
        # fast evaluator's score is a replay of the very digest the bound
        # re-binds, so it would not check the bound independently
        evaluator = CellEvaluator(stack, config, settings=Settings(engine="reference"))
        base = incumbent_genome(evaluator.program)
        for seed in range(rounds):
            rng = random.Random(seed)
            genome = base
            for _ in range(3):
                genome = mutate(genome, rng)
            placements = pack_genome(evaluator.program, genome)
            bounds = bounds_from_digest(
                evaluator.digest, placements, stack=stack, config=config
            )
            score = evaluator.score(placements)
            ok = (
                bounds.steady.lower
                <= score.steady_mcpi
                <= bounds.steady.upper
            )
            if not ok:
                failures += 1
                print(
                    f"FAIL: {stack}/{config} mutation seed {seed}: "
                    f"simulated {score.steady_mcpi:.6f} escapes "
                    f"[{bounds.steady.lower:.6f}, "
                    f"{bounds.steady.upper:.6f}]",
                    file=sys.stderr,
                )
        evaluator.restore_default()
        print(f"OK  {stack:5} {config:4} {rounds} mutated layouts bounded")
    return failures


def check_prefilter() -> int:
    from repro.search import search_cell

    stack, config, budget, seed = SMOKE
    pruned_run = search_cell(stack, config, budget=budget, seed=seed)
    plain_run = search_cell(
        stack, config, budget=budget, seed=seed, certify_prune=False
    )
    failures = 0
    if pruned_run.bounds_pruned < 1:
        failures += 1
        print(
            f"FAIL: prefilter smoke pruned {pruned_run.bounds_pruned} "
            f"candidates at {stack}/{config} budget {budget} seed {seed} "
            "(expected >= 1)",
            file=sys.stderr,
        )
    identical = (
        pruned_run.artifact.score == plain_run.artifact.score
        and pruned_run.artifact.placements == plain_run.artifact.placements
        and pruned_run.artifact.genome == plain_run.artifact.genome
        and pruned_run.artifact.origin == plain_run.artifact.origin
        and pruned_run.artifact.round_found == plain_run.artifact.round_found
        and pruned_run.best_score == plain_run.best_score
        and pruned_run.evaluated == plain_run.evaluated
        and pruned_run.rounds == plain_run.rounds
        and pruned_run.generated == plain_run.generated
        and pruned_run.prefiltered_out == plain_run.prefiltered_out
        and pruned_run.history == plain_run.history
    )
    if not identical:
        failures += 1
        print(
            "FAIL: pruned search is not bit-identical to the unpruned "
            "search — the prefilter changed an outcome it certified it "
            "could not change",
            file=sys.stderr,
        )
    if not failures:
        print(
            f"OK  prefilter smoke: {pruned_run.bounds_pruned} candidate(s) "
            f"pruned at {stack}/{config} budget {budget} seed {seed}, "
            "result bit-identical to the unpruned search"
        )
    return failures


def emit_table() -> None:
    """EXPERIMENTS.md appendix: bounds vs measured mCPI, tightness %."""
    from repro.analysis.bounds import check_cell_bounds
    from repro.arch.simcache import simulate_cold_and_steady_cached
    from repro.analysis.bounds import _cell_walk
    from repro.harness.configs import CONFIG_NAMES, STACKS

    print("| stack | config | steady lower | steady measured "
          "| steady upper | tightness |")
    print("|-------|--------|-------------:|----------------:"
          "|-------------:|----------:|")
    for stack in STACKS:
        for config in CONFIG_NAMES:
            bounds, findings = check_cell_bounds(stack, config)
            assert not findings, findings
            _, walk = _cell_walk(stack, config)
            _, steady = simulate_cold_and_steady_cached(walk.packed)
            width = bounds.steady.upper - bounds.steady.lower
            tight = 100.0 * (1.0 - width / steady.mcpi)
            print(
                f"| {stack} | {config} | {bounds.steady.lower:.4f} "
                f"| {steady.mcpi:.4f} | {bounds.steady.upper:.4f} "
                f"| {tight:.1f}% |"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="4 cells, fewer mutations")
    parser.add_argument("--mutations", type=int, default=None,
                        help="mutated layouts per cell (default: 8, "
                             "or 3 with --quick)")
    parser.add_argument("--table", action="store_true",
                        help="emit the EXPERIMENTS.md bounds-vs-measured "
                             "table and exit")
    args = parser.parse_args(argv)

    if args.table:
        emit_table()
        return 0

    started = time.time()
    rounds = args.mutations
    if rounds is None:
        rounds = 3 if args.quick else 8
    failures = check_cells(args.quick)
    failures += check_mutations(rounds)
    failures += check_prefilter()
    elapsed = time.time() - started
    if failures:
        print(f"FAIL: {failures} bounds-soundness failure(s) "
              f"({elapsed:.1f}s)", file=sys.stderr)
        return 1
    print(f"OK: bounds sound on every checked cell ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
