"""Tests for the ``repro.api`` facade: specs, settings, and the verbs."""

import dataclasses

import pytest

from repro import api
from repro.api import (
    AnalyzeSpec,
    DatalayoutSpec,
    FaultsSpec,
    ProfileSpec,
    RunSpec,
    SearchSpec,
    Settings,
    SweepSpec,
    run,
    search,
    settings_for,
    sweep,
)
from repro.api.result import Result
from repro.api.settings import (
    CHAOS_ENV,
    ENGINE_ENV,
    ENGINES,
    VERIFY_IR_ENV,
)
from repro.harness.experiment import Experiment, run_all_configs


class TestRunSpec:
    def test_is_frozen(self):
        spec = RunSpec("tcpip", "STD")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.config = "CLO"

    def test_rejects_unknown_stack(self):
        with pytest.raises(ValueError, match="stack"):
            RunSpec("quic", "STD")

    def test_rejects_unknown_config(self):
        with pytest.raises(ValueError, match="configuration"):
            RunSpec("tcpip", "MAX")

    def test_with_config_copies(self):
        spec = RunSpec("rpc", "STD", samples=2)
        sibling = spec.with_config("CLO")
        assert sibling.config == "CLO"
        assert sibling.stack == "rpc"
        assert sibling.samples == 2
        assert spec.config == "STD"

    def test_equality_ignores_layout_and_fault_plan(self):
        a = RunSpec("tcpip", "STD")
        b = RunSpec("tcpip", "STD", layout=lambda p: {})
        assert a == b


class TestSettings:
    def test_from_env_reads_all_three_variables(self):
        env = {
            ENGINE_ENV: "reference",
            VERIFY_IR_ENV: "1",
            CHAOS_ENV: "crash:STD:0",
        }
        settings = Settings.from_env(env)
        assert settings.engine == "reference"
        assert settings.verify_ir is True
        assert len(settings.chaos) == 1
        assert settings.chaos[0].kind == "crash"

    def test_explicit_arguments_beat_the_environment(self):
        env = {ENGINE_ENV: "reference", VERIFY_IR_ENV: "1"}
        settings = Settings.from_env(env, engine="fast", verify_ir=False)
        assert settings.engine == "fast"
        assert settings.verify_ir is False

    def test_defaults(self):
        settings = Settings.from_env({})
        assert settings == Settings()
        assert settings.engine == "fast"
        assert settings.verify_ir is False
        assert settings.chaos == ()

    def test_unknown_engine_fails_fast(self):
        with pytest.raises(ValueError, match="turbo"):
            Settings(engine="turbo")
        with pytest.raises(ValueError, match="warp"):
            Settings.from_env({ENGINE_ENV: "warp"})

    def test_with_engine_override(self):
        settings = Settings(engine="fast")
        assert settings.with_engine(None) is settings
        assert settings.with_engine("reference").engine == "reference"

    def test_settings_for_spec_engine_wins(self):
        spec = RunSpec("tcpip", "STD", engine="reference")
        assert settings_for(spec, Settings(engine="fast")).engine == "reference"
        plain = RunSpec("tcpip", "STD")
        assert settings_for(plain, Settings(engine="fast")).engine == "fast"

    def test_experiment_reads_environment_once_through_settings(
        self, monkeypatch
    ):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        exp = Experiment("tcpip", "STD")
        assert exp.settings.engine == "reference"
        assert exp.engine == "reference"
        # explicit settings suppress the environment entirely
        monkeypatch.setenv(ENGINE_ENV, "warp")
        exp = Experiment("tcpip", "STD", settings=Settings(engine="fast"))
        assert exp.engine == "fast"


class TestEngineRegistry:
    """The registry is the three engines; retired names are refused.

    That every layer treats each member as first-class is checked in
    ``tests/gensim/test_engine.py``.
    """

    def test_registry_is_three_engines(self):
        assert ENGINES == ("fast", "reference", "guarded")

    def test_retired_generated_kernel_engine_is_rejected(self):
        with pytest.raises(ValueError) as err:
            Settings(engine="gensim")
        assert "valid engines: fast, reference, guarded" in str(err.value)


class TestRun:
    @pytest.mark.parametrize("stack", ["tcpip", "rpc"])
    def test_bit_identical_to_legacy_experiment(self, stack):
        """The golden gate: the facade is the Experiment path, exactly."""
        spec = RunSpec(stack, "STD", samples=1)
        facade = run(spec)
        legacy = Experiment(stack, "STD").run(samples=1)
        assert facade.samples[0].steady.mcpi == legacy.samples[0].steady.mcpi
        assert (
            facade.samples[0].cold.memory.icache.misses
            == legacy.samples[0].cold.memory.icache.misses
        )
        assert facade.mean_rtt_us == legacy.mean_rtt_us

    def test_layout_override_changes_the_program(self):
        from repro.search import search_cell

        found = search_cell("tcpip", "CLO", budget=8, seed=0)
        default = run(RunSpec("tcpip", "CLO", samples=1))
        relaid = run(
            RunSpec("tcpip", "CLO", samples=1, layout=found.artifact)
        )
        assert (
            relaid.samples[0].steady.mcpi
            == found.artifact.score["steady_mcpi"]
        )
        assert (
            relaid.samples[0].steady.mcpi <= default.samples[0].steady.mcpi
        )

    def test_bad_layout_type_rejected(self):
        with pytest.raises(TypeError, match="layout"):
            run(RunSpec("tcpip", "STD", samples=1, layout=42))


class TestSweep:
    def test_plain_sweep_matches_run_all_configs(self):
        configs = ("STD", "OUT")
        specs = [RunSpec("tcpip", c, samples=1) for c in configs]
        facade = sweep(SweepSpec(runs=specs, parallel=False))
        legacy = run_all_configs(
            "tcpip", configs, samples=1, parallel=False
        )
        for spec, result in zip(specs, facade):
            assert (
                result.samples[0].steady.mcpi
                == legacy[spec.config].samples[0].steady.mcpi
            )

    def test_result_order_follows_spec_order(self):
        specs = [RunSpec("tcpip", c, samples=1) for c in ("OUT", "STD")]
        results = sweep(SweepSpec(runs=specs, parallel=False))
        assert results[0].config == "OUT"
        assert results[1].config == "STD"

    def test_heterogeneous_specs_fall_back_to_per_spec_runs(self):
        specs = [
            RunSpec("tcpip", "STD", samples=1, seed=7),
            RunSpec("tcpip", "OUT", samples=1, seed=7),
        ]
        results = sweep(specs)
        legacy = Experiment("tcpip", "STD", base_seed=7).run(samples=1)
        assert (
            results[0].samples[0].steady.mcpi
            == legacy.samples[0].steady.mcpi
        )

    def test_empty_sweep(self):
        assert sweep([]) == []


class TestSearchVerb:
    def test_search_returns_replayable_artifact(self):
        spec = SearchSpec(RunSpec("rpc", "STD", samples=1), budget=6, seed=0)
        result = api.search(spec)
        assert result.best_score <= result.baseline_score
        replay = run(
            RunSpec("rpc", "STD", samples=1, layout=result.artifact)
        )
        assert (
            replay.samples[0].steady.mcpi
            == result.artifact.score["steady_mcpi"]
        )

    def test_search_is_deterministic_through_the_facade(self):
        spec = SearchSpec(RunSpec("tcpip", "STD"), budget=4, seed=2)
        a = search(spec)
        b = search(spec)
        assert a.best_score == b.best_score
        assert a.artifact.placements == b.artifact.placements

    def test_search_spec_refuses_conflicting_kwargs(self):
        spec = SearchSpec(RunSpec("tcpip", "STD"), budget=4, seed=2)
        with pytest.raises(TypeError, match="budget"):
            api.search(spec, budget=8)


class TestResultProtocol:
    """Every verb returns a Result: to_json() + render() + check()."""

    def test_run_result_conforms(self):
        result = run(RunSpec("tcpip", "STD", samples=1))
        assert isinstance(result, Result)
        assert result.check() == []
        assert "tcpip/STD" in result.render()
        assert result.to_json()["samples"] == 1

    def test_sweep_result_conforms_and_stays_a_list(self):
        results = sweep(SweepSpec(runs=(RunSpec("tcpip", "STD", samples=1),)))
        assert isinstance(results, Result)
        assert isinstance(results, list)  # legacy indexing callers survive
        assert results.check() == []
        assert len(results.to_json()) == 1

    def test_analyze_result_conforms(self):
        report = api.analyze(AnalyzeSpec(RunSpec("tcpip", "STD")))
        assert isinstance(report, Result)
        assert report.check() == [] and report.ok

    def test_search_result_conforms(self):
        result = search(SearchSpec(RunSpec("tcpip", "STD"), budget=4, seed=0))
        assert isinstance(result, Result)
        assert result.check() == []
        assert result.render() == result.summary()

    def test_profile_result_conforms(self):
        cell = api.profile(ProfileSpec("tcpip", "STD"))
        assert isinstance(cell, Result)
        assert cell.check() == []
        assert "steady state" in cell.render()

    def test_faults_result_conforms(self):
        study = api.faults(
            FaultsSpec("tcpip", configs=("STD",), rate=0.25, samples=1)
        )
        assert isinstance(study, Result)
        assert study.check() == []
        assert study.to_json()["rows"]["STD"]

    def test_datalayout_result_conforms(self):
        study = api.datalayout(
            DatalayoutSpec(
                techniques=("coalesce",), stacks=("tcpip",), configs=("STD",)
            )
        )
        assert isinstance(study, Result)
        assert study.check() == []
        assert study.cell("tcpip", "STD", "coalesce").bounds_sound

    def test_traffic_result_conforms(self):
        from repro.api import TrafficStudySpec
        from repro.traffic import TrafficSpec

        small = TrafficSpec(packets=2_000, flows=50, warmup_packets=200)
        study = api.traffic(
            TrafficStudySpec(traffic=small, schemes=("one-entry",))
        )
        assert isinstance(study, Result)
        assert study.check() == []
        assert study.point("one-entry", "zipf", 50)


class TestKwargShims:
    """The pre-spec keyword forms are gone: every verb refuses them.

    Each verb takes only its spec (plus ``settings``), so a stray
    keyword fails loudly instead of being folded in or ignored.
    """

    def test_sweep_kwargs_warn(self):
        with pytest.raises(TypeError, match="parallel"):
            sweep([RunSpec("tcpip", "STD", samples=1)], parallel=False)

    def test_search_kwargs_warn(self):
        with pytest.raises(TypeError, match="budget"):
            search(RunSpec("tcpip", "STD"), budget=4, seed=2)

    def test_search_bare_runspec_with_defaults_stays_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = search(RunSpec("tcpip", "STD"))
        via_spec = search(SearchSpec(RunSpec("tcpip", "STD")))
        assert result.artifact.placements == via_spec.artifact.placements

    def test_analyze_kwargs_warn(self):
        with pytest.raises(TypeError, match="check_conflicts"):
            api.analyze(RunSpec("tcpip", "STD"), check_conflicts=False)

    def test_traffic_kwargs_warn(self):
        from repro.traffic import TrafficSpec

        small = TrafficSpec(packets=2_000, flows=50, warmup_packets=200)
        with pytest.raises(TypeError, match="schemes"):
            api.traffic(small, schemes=["one-entry"])
