"""The benchmark's span tracer patches lpmink and restores every name."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _bindings(tracing):
    """Every name the tracer may patch, with the object it is bound to."""
    bound = {}
    for name in tracing.MODULES:
        mod = importlib.import_module("lpmink." + name)
        for attr, obj in vars(mod).items():
            if not attr.startswith("__"):
                bound[mod.__name__, attr] = obj
    profile = importlib.import_module("lpmink.energy").EnergyProfile
    for attr in tracing.PROFILE_METHODS:
        bound["EnergyProfile", attr] = vars(profile)[attr]
    return bound


def test_tracer_install_then_uninstall_restores_every_name():
    # install raises when a layer the benchmark's metrics read is missing
    spec = importlib.util.spec_from_file_location("lpmink_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings(tracing)
    finally:
        tracer.uninstall()
    patched = [key for key in before if during[key] is not before[key]]
    assert ("lpmink.solver", "solve") in patched
    assert ("EnergyProfile", "phi") in patched
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
