"""The engine registry end to end: dispatch, validation, faults.

Every layer that consumes :data:`ENGINES` — Settings validation, the
Experiment dispatch, the profiler — must treat each member as
first-class and bit-identical to the reference oracle, including under
injected workload faults.  The generated-kernel engines this package
was first written for are retired; names outside the registry are
refused everywhere, never silently remapped.
"""

import pytest

from repro.api.settings import ENGINES, Settings, validate_engine
from repro.faults.plan import FaultPlan
from repro.harness.experiment import Experiment


def _shape(result):
    return [
        (s.steady.cycles, s.cold.cycles, s.roundtrip_us, len(s.faults))
        for s in result.samples
    ]


def test_fail_fast_error_names_every_registered_engine():
    with pytest.raises(ValueError) as err:
        validate_engine("nonesuch")
    for engine in ENGINES:
        assert engine in str(err.value)


def test_settings_accept_every_registered_engine():
    for engine in ENGINES:
        assert Settings(engine=engine).engine == engine
        assert Settings.from_env({}, engine=engine).engine == engine


def test_experiment_dispatch_covers_every_registered_engine():
    # every registry member must run end to end, not just validate
    shapes = {}
    for engine in ENGINES:
        result = Experiment("tcpip", "STD", engine=engine).run(samples=1)
        shapes[engine] = _shape(result)
    assert len({tuple(map(tuple, s)) for s in shapes.values()}) == 1


@pytest.mark.parametrize("stack", ("tcpip", "rpc"))
def test_full_rate_faults_bit_identical_to_reference(stack):
    # rate 1.0: every fault opportunity fires, on every engine
    plan = FaultPlan(stack=stack, rate=1.0, seed=11)
    ref = Experiment(stack, "STD", engine="reference", fault_plan=plan).run(samples=2)
    assert ref.total_faults > 0
    for engine in ENGINES:
        result = Experiment(stack, "STD", engine=engine, fault_plan=plan).run(
            samples=2
        )
        assert _shape(result) == _shape(ref), engine
        assert result.total_faults == ref.total_faults, engine
        for got, want in zip(result.samples, ref.samples):
            assert got.cold == want.cold, engine
            assert got.steady == want.steady, engine


def test_profile_cell_declines_gensim():
    from repro.harness.profile import profile_cell

    for engine in ("gensim", "guarded-gensim"):
        with pytest.raises(ValueError) as err:
            profile_cell("tcpip", "STD", engine=engine)
        assert "valid engines: fast, reference, guarded" in str(err.value)
