"""The benchmark's span tracer patches lpmink and restores every name, and
a traced round of every workload passes its checks and reaches its layers."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """A perfbench module, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("lpmink_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    tracing = _load("tracing")
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


def test_traced_round_zero_of_every_workload_reaches_its_layers(monkeypatch, tmp_path):
    # what ``perfbench/run.py --trace 1`` checks at seed 0: a change that
    # leaves a required layer idle fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing, workloads = _load("tracing"), _load("workloads")
    for cls in workloads.WORKLOADS.values():
        ops = list(cls(0, tmp_path).ops(0))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outcomes = [op.check(op.call()) for op in ops]
        finally:
            tracer.uninstall()
        assert [(op.name, o.reason) for op, o in zip(ops, outcomes) if not o.ok] == []
        stats = tracer.layer_stats()
        assert [layer for layer in cls.required if layer not in stats] == [], cls.name
