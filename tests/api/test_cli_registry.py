"""The CLI and the facade expose the same verbs, through the facade only."""

import argparse
import ast
import inspect

import pytest

import repro.__main__ as cli
from repro import api
from repro.api.settings import ENGINES


class TestRegistrySync:
    def test_every_facade_verb_has_a_cli_subcommand(self):
        # run/sweep surface as the default table driver, not a subcommand
        assert set(cli.SUBCOMMANDS) == set(api.FACADE_VERBS) - {"run", "sweep"}

    def test_every_subcommand_is_callable(self):
        for name, entry in cli.SUBCOMMANDS.items():
            assert callable(entry), name

    def test_facade_verbs_are_exported(self):
        for name in api.FACADE_VERBS:
            assert callable(getattr(api, name)), name
            assert name in api.__all__


class TestNoDirectCallSites:
    """``python -m repro`` goes through :mod:`repro.api` exclusively.

    Source inspection, not mocking: a reintroduced direct harness call
    would reopen the keyword-pile back doors the facade closed.
    """

    def test_main_never_bypasses_the_facade(self):
        source = inspect.getsource(cli)
        for symbol in (
            "profile_cell",
            "compute_fault_table",
            "run_traffic_study",
            "run_resilience_study",
            "run_datalayout_study",
            "search_cell",
            "analyze_cell",
            "Experiment(",
            "run_all_configs",
        ):
            assert symbol not in source, f"CLI calls {symbol} directly"


class _Parsed(Exception):
    """Raised in place of parsing, carrying the built parser out."""


def _parser_of(entry, monkeypatch):
    def capture(self, args=None, namespace=None):
        raise _Parsed(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Parsed) as built:
        entry([])
    return built.value.args[0]


def _engine_option(parser):
    for action in parser._actions:
        if "--engine" in action.option_strings:
            return action
    return None


class TestEngineChoicesSync:
    """Every ``--engine`` flag offers exactly :data:`ENGINES`."""

    @pytest.mark.parametrize(
        "name", sorted(set(cli.SUBCOMMANDS) - {"traffic", "resilience"})
    )
    def test_subcommand_engine_choices_are_the_registry(self, name, monkeypatch):
        option = _engine_option(_parser_of(cli.SUBCOMMANDS[name], monkeypatch))
        assert option is not None, name
        assert tuple(option.choices) == ENGINES

    def test_table_driver_engine_choices_are_the_registry(self, monkeypatch):
        option = _engine_option(_parser_of(cli.main, monkeypatch))
        assert tuple(option.choices) == ENGINES

    @pytest.mark.parametrize("name", ["traffic", "resilience"])
    def test_streams_take_no_engine(self, name, monkeypatch):
        parser = _parser_of(cli.SUBCOMMANDS[name], monkeypatch)
        assert _engine_option(parser) is None

    def test_no_literal_engine_names_in_the_cli(self):
        literals = {
            node.value
            for node in ast.walk(ast.parse(inspect.getsource(cli)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert not literals & set(ENGINES)
