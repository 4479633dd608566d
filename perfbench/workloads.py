"""The benchmark's four workloads, driven through the public entry points.

Each workload is built from the run's seed, does its first-contact
set-up in :meth:`Workload.setup`, and then repeats one timed operation
(:meth:`Workload.run`).  :meth:`Workload.prepare` runs untimed before
each operation and drops the memos whose work the operation is meant
to pay for (the Table-4 sweep and the search clear the program's result
memos; the streams share their segment library).
:meth:`Workload.digest` reduces an operation's outputs to the values the
benchmark checks against its recorded expectations.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from pathlib import Path
from typing import Dict, List, Optional

#: the zipf stream's seed is ``--seed mod STREAM_VARIANTS``, so every
#: stream the benchmark can make has recorded outputs to check against
STREAM_VARIANTS = 8

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: the paper's Table-4 configurations and per-stack sample counts
CONFIGS = ("BAD", "STD", "OUT", "CLO", "PIN", "ALL")
TABLE4_SAMPLES = {"tcpip": 10, "rpc": 5}


def paper_te(stack: str, config: str) -> float:
    from repro.harness import paper

    table = paper.TABLE4_TCPIP if stack == "tcpip" else paper.TABLE4_RPC
    return table[config][0]


def rtt_error_pct(cells: Dict[tuple, float]) -> float:
    """Mean |simulated Te - paper Te| / paper Te over (stack, config) cells."""
    errors = [abs(te - paper_te(*cell)) / paper_te(*cell) for cell, te in cells.items()]
    return 100.0 * sum(errors) / len(errors)


def cell_rtt_error_pct(cells) -> float:
    """``rtt_error_pct`` of cells measured the way ``api.run`` measures them."""
    from repro import api

    return rtt_error_pct(
        {
            (stack, config): api.run(api.RunSpec(stack, config)).mean_rtt_us
            for stack, config in cells
        }
    )


def load_expected(workload: str) -> dict:
    """The recorded outputs of ``workload`` (empty if none recorded)."""
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text()).get(workload, {})


def sha256_json(value: object) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: modules a user of this workload's entry point imports; importing
    #: them is part of set-up
    imports: tuple = ("repro.api",)
    #: (stack, config) cells whose simulated Te the run reports against
    #: the paper (the sweep measures its own twelve instead)
    te_cells: tuple = ()

    def __init__(self, seed: int, expected: Optional[dict] = None) -> None:
        self.seed = seed
        self.expected = load_expected(self.name) if expected is None else expected

    def setup(self) -> None:
        """Imports and first-contact work, paid once per process."""
        for module in self.imports:
            importlib.import_module(module)

    def prepare(self) -> None:
        """Untimed, before every operation."""

    def run(self, serial: bool = False) -> object:
        raise NotImplementedError

    def digest(self, out: object) -> dict:
        raise NotImplementedError

    def expected_digest(self) -> Optional[dict]:
        return self.expected.get(self.key)

    @property
    def key(self) -> str:
        """Which recorded expectation this run's inputs map to."""
        return str(self.seed)

    def check(self, out: object) -> List[str]:
        """Mismatches between the operation's outputs and the recording."""
        expected = self.expected_digest()
        if expected is None:
            return [f"{self.name}: no recorded outputs for inputs {self.key!r}"]
        actual = json.loads(json.dumps(self.digest(out)))
        return [
            f"{self.name}[{self.key}].{field}: expected {expected.get(field)!r}, "
            f"got {actual.get(field)!r}"
            for field in sorted(set(expected) | set(actual))
            if expected.get(field) != actual.get(field)
        ]

    def packets(self, out: object) -> int:
        raise NotImplementedError

    def rtt_err_pct(self, out: object) -> float:
        return cell_rtt_error_pct(self.te_cells)

    def flags(self, out: object) -> List[str]:
        """Degraded paths the operation took (recorded, never hidden)."""
        return []

    def counters(self, out: object) -> Dict[str, float]:
        """Per-layer counters read from the operation's own outputs."""
        return {}

    def provenance(self, out: object) -> Dict[str, object]:
        return {}


# --------------------------------------------------------------------- #
# table4_sweep                                                          #
# --------------------------------------------------------------------- #


def _sweep_path(report) -> str:
    """Which executor a sweep took, read off its SweepReport."""
    if report.degraded_to_serial:
        return "parallel-degraded-to-serial"
    if report.configs:  # only the pool executor fills the report's axes
        healed = f"+{report.completed_serial}-healed" if report.completed_serial else ""
        return "parallel" + healed
    return "serial"


class Table4Sweep(Workload):
    """tcpip x10 + rpc x5 samples over six configs through ``api.sweep``.

    The inputs are the paper's fixed seed 42 whatever ``--seed`` says:
    ``api.sweep`` routes only that seed through the parallel executor and
    the committed Table-4 goldens exist only for it.
    """

    name = "table4_sweep"
    imports = ("repro.api", "repro.harness.parallel", "repro.harness.reporting")
    SWEEP_SEED = 42

    @property
    def key(self) -> str:
        return str(self.SWEEP_SEED)

    def expected_digest(self) -> Optional[dict]:
        if self.expected:
            return self.expected.get(self.key)
        results = ROOT / "benchmarks" / "results"
        return {
            stack: (results / f"table4_{stack}.txt").read_text().rstrip("\n")
            for stack in TABLE4_SAMPLES
        }

    def prepare(self) -> None:
        from repro.arch import simcache
        from repro.harness.configs import clear_build_memo
        from repro.harness.experiment import clear_capture_memo

        clear_build_memo()
        clear_capture_memo()
        simcache.clear_caches()

    def run(self, serial: bool = False) -> dict:
        from repro import api
        from repro.harness.parallel import SweepReport

        out = {"results": {}, "reports": {}}
        for stack, samples in TABLE4_SAMPLES.items():
            spec = api.SweepSpec(
                tuple(
                    api.RunSpec(stack, config, samples=samples, seed=self.SWEEP_SEED)
                    for config in CONFIGS
                ),
                parallel=False if serial else None,
            )
            report = SweepReport()
            swept = api.sweep(spec, report=report)
            out["results"][stack] = dict(zip(CONFIGS, swept))
            out["reports"][stack] = report
        return out

    def digest(self, out: dict) -> dict:
        from repro.harness.reporting import render_table4

        return {
            stack: render_table4(results, stack)
            for stack, results in out["results"].items()
        }

    def packets(self, out: dict) -> int:
        # every sample simulates one traced roundtrip: one packet sent,
        # one received on the measured client
        return 2 * sum(
            len(result.samples)
            for results in out["results"].values()
            for result in results.values()
        )

    def rtt_err_pct(self, out: dict) -> float:
        return rtt_error_pct(
            {
                (stack, config): result.mean_rtt_us
                for stack, results in out["results"].items()
                for config, result in results.items()
            }
        )

    def flags(self, out: dict) -> List[str]:
        flags = []
        for stack, report in out["reports"].items():
            if report.retried:
                flags.append(f"{stack}: {report.retried} cell retries")
            if report.failures:
                flags.append(f"{stack}: {len(report.failures)} failed cells")
            if report.degraded_to_serial:
                flags.append(f"{stack}: sweep degraded to serial")
            if report.divergences:
                flags.append(f"{stack}: {len(report.divergences)} engine divergences")
        return flags

    def counters(self, out: dict) -> Dict[str, float]:
        reports = out["reports"].values()
        return {
            "harness.parallel.retries": sum(r.retried for r in reports),
            "harness.parallel.incidents": sum(
                len(r.incidents) + len(r.failures) for r in reports
            ),
        }

    def provenance(self, out: dict) -> Dict[str, object]:
        return {
            "sweep_seed": self.SWEEP_SEED,
            "sweep_path": {
                stack: _sweep_path(report) for stack, report in out["reports"].items()
            },
        }


# --------------------------------------------------------------------- #
# the two streams                                                       #
# --------------------------------------------------------------------- #


class _Stream(Workload):
    """A transition-memoized packet stream through ``run_traffic_point``."""

    scheme = ""
    #: packets of the short stream that walks the common segments in set-up
    WARM_PACKETS = 5_000

    def __init__(self, seed: int, expected: Optional[dict] = None) -> None:
        super().__init__(seed, expected)
        self.spec = self.make_spec(seed)

    def make_spec(self, seed: int):
        raise NotImplementedError

    @property
    def key(self) -> str:
        return f"{self.spec.seed}/{self.spec.packets}"

    def setup(self) -> None:
        super().setup()
        from repro.arch.simulator import AlphaConfig
        from repro.traffic.study import _CellSetup

        self.config = AlphaConfig()
        # captures, builds and the segment library are shared by every
        # operation, as run_traffic_study shares them across its points
        self.cell = _CellSetup(self.spec, self.config)
        warm = min(self.WARM_PACKETS, self.spec.packets)
        self.stream(
            self.spec.with_(
                packets=warm,
                warmup_packets=min(self.spec.warmup_packets, warm // 2),
            )
        )

    def stream(self, spec):
        raise NotImplementedError

    def run(self, serial: bool = False):
        return self.stream(self.spec)

    def traffic(self, out):
        return out

    def packets(self, out) -> int:
        return self.traffic(out).packets

    def digest(self, out) -> dict:
        point = self.traffic(out)
        return {
            "map_stats": point.map_stats,
            "novel_passes": point.novel_passes,
            "distinct_states": point.distinct_states,
            "steady_instructions": point.steady_instructions,
            "steady_stall_cycles": point.steady_stall_cycles,
            "steady_cpu_cycles": point.steady_cpu_cycles,
        }

    def flags(self, out) -> List[str]:
        point = self.traffic(out)
        return ["stream degraded to sequential simulation"] if point.degraded else []

    def counters(self, out) -> Dict[str, float]:
        point = self.traffic(out)
        layers = [stats for pop in point.map_stats.values() for stats in pop.values()]
        return {
            "xkernel.map.hit_ratio": point.l4_hit_rate,
            "xkernel.map.chain_probes": sum(s["chain_probes"] for s in layers),
            "xkernel.map.probe_compares": sum(s["probe_compares"] for s in layers),
            "traffic.stream.states": point.distinct_states,
            "traffic.stream.memo_evictions": point.memo_evictions,
            "traffic.stream.degraded": int(point.degraded),
            "traffic.stream.novel_passes": point.novel_passes,
        }

    def provenance(self, out) -> Dict[str, object]:
        return {"spec": self.spec.to_json()}


class ZipfStream(_Stream):
    """The 1M-packet, 10k-flow zipf acceptance stream, one-entry scheme."""

    name = "zipf_stream"
    imports = ("repro.api", "repro.traffic.study")
    scheme = "one-entry"
    te_cells = (("tcpip", "OUT"),)

    def make_spec(self, seed: int):
        from repro.traffic import TrafficSpec

        return TrafficSpec(seed=seed % STREAM_VARIANTS)

    def stream(self, spec):
        from repro.traffic.study import run_traffic_point

        return run_traffic_point(spec, self.scheme, config=self.config, setup=self.cell)


class FaultedMixedStream(_Stream):
    """Mixed tcp+rpc bursty stream, lru:4, 2% faults, overload queue.

    The inputs are fixed (stream seed 0, fault seed 0) whatever
    ``--seed`` says.  Most of this operation's time goes to novel passes,
    and every seed, of the stream or of the fault profile, brings its own
    number of them: 2389 to 3618 over stream seeds 0-7 and 2389 to 2655
    over fault seeds 0-7.  In five-run trials that moved the wall time by
    half over stream seeds and by a fifth over fault seeds, so runs with
    different seeds would measure different work.
    """

    name = "faulted_mixed_stream"
    imports = ("repro.api", "repro.resilience.study")
    scheme = "lru:4"
    te_cells = (("tcpip", "OUT"), ("rpc", "OUT"))
    PACKETS = 300_000
    FAULT_RATE = 0.02
    LOADS = (80, 100, 120)

    def make_spec(self, seed: int):
        from repro.traffic import TrafficSpec

        return TrafficSpec(
            stack="mixed",
            mix="bursty",
            churn=0.001,
            packets=self.PACKETS,
        )

    def stream(self, spec):
        from repro.resilience.queueing import OverloadSpec
        from repro.resilience.study import run_resilience_point

        return run_resilience_point(
            spec,
            self.scheme,
            profile=self.profile(),
            overload=OverloadSpec(loads=self.LOADS),
            config=self.config,
            setup=self.cell,
        )

    def profile(self):
        from repro.resilience.faults import FaultProfile

        return FaultProfile.uniform(self.FAULT_RATE)

    def traffic(self, out):
        return out.traffic

    def digest(self, out) -> dict:
        digest = super().digest(out)
        digest["fault_counts"] = out.fault_counts
        digest["sojourn"] = {
            str(point.load_pct): [point.p50, point.p99, point.p999]
            for point in out.load_points
        }
        return digest

    def counters(self, out) -> Dict[str, float]:
        counters = super().counters(out)
        counters["resilience.faults.injected"] = out.faulted_packets
        return counters

    def provenance(self, out) -> Dict[str, object]:
        return dict(super().provenance(out), fault_profile=self.profile().to_json())


# --------------------------------------------------------------------- #
# layout_search                                                         #
# --------------------------------------------------------------------- #


class LayoutSearch(Workload):
    """Budget-64 searches, seed 0, on tcpip/CLO and rpc/STD.

    The two cells bracket the certified bounds prefilter (0 and 24
    candidates pruned at seed 0), so the inputs stay fixed whatever
    ``--seed`` says.
    """

    name = "layout_search"
    imports = ("repro.api", "repro.search.driver", "repro.analysis.bounds")
    te_cells = (("tcpip", "CLO"), ("rpc", "STD"))
    BUDGET = 64
    SEARCH_SEED = 0

    @property
    def key(self) -> str:
        return f"{self.SEARCH_SEED}/{self.BUDGET}"

    def setup(self) -> None:
        super().setup()
        from repro.harness.configs import build_configured_program_cached
        from repro.harness.experiment import Experiment

        # first-contact captures and protocol models; each search still
        # lays out its own private program, as every search does
        for stack, config in self.te_cells:
            exp = Experiment(stack, config)
            exp.capture_roundtrip(42)
            build_configured_program_cached(stack, config, exp.opts)

    def prepare(self) -> None:
        from repro.arch import simcache

        simcache.clear_caches()

    def run(self, serial: bool = False) -> dict:
        from repro import api

        return {
            f"{stack}/{config}": api.search(
                api.SearchSpec(
                    api.RunSpec(stack, config),
                    budget=self.BUDGET,
                    seed=self.SEARCH_SEED,
                )
            )
            for stack, config in self.te_cells
        }

    def digest(self, out: dict) -> dict:
        return {
            cell: {
                "artifact_sha256": sha256_json(result.artifact.to_json()),
                "best": result.best_score.to_json(),
                "evaluated": result.evaluated,
                "bounds_pruned": result.bounds_pruned,
                "prefiltered_out": result.prefiltered_out,
            }
            for cell, result in out.items()
        }

    def packets(self, out: dict) -> int:
        # a candidate score simulates one traced roundtrip (two packets);
        # the default and bipartite baselines are scored on top of the
        # budgeted candidates
        return sum(2 * (result.evaluated + 2) for result in out.values())

    def rtt_err_pct(self, out: dict) -> float:
        return rtt_error_pct(
            {
                tuple(cell.split("/")): result.baseline_score.rtt_us
                for cell, result in out.items()
            }
        )

    def provenance(self, out: dict) -> Dict[str, object]:
        return {"search_seed": self.SEARCH_SEED, "budget": self.BUDGET}

    def counters(self, out: dict) -> Dict[str, float]:
        return {
            "search.evaluate.prefiltered_out": sum(
                r.prefiltered_out for r in out.values()
            ),
            "search.bounds_pruned": sum(r.bounds_pruned for r in out.values()),
        }


WORKLOADS = {
    cls.name: cls for cls in (Table4Sweep, ZipfStream, FaultedMixedStream, LayoutSearch)
}
