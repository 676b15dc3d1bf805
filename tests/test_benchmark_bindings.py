"""The benchmark's traced runs rebind library functions by module attribute: those names must resolve."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from gridsplines import field as field_module
from gridsplines.basis import SplineKind

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_bindings_resolve():
    tracer = load_tracer()
    assert tracer.BINDINGS
    for layer, module_name, attr in tracer.BINDINGS:
        assert layer in tracer.LAYERS
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
    assert isinstance(field_module.GridField.__dict__["sample"], classmethod)


def test_scalar_stages_are_called_through_module_globals(monkeypatch):
    # a traced run counts a layer only if the scalar path looks it up on the module at call time; the patch
    # read, field._patch, is not a benchmark layer, but it is looked up the same way, once per evaluation
    tracer = load_tracer()
    calls = {}
    names = [attr for _, module_name, attr in tracer.BINDINGS if module_name == "gridsplines.field"] + ["_patch"]
    for attr in names:
        fn = getattr(field_module, attr)

        def counted(*args, _fn=fn, _attr=attr, **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(field_module, attr, counted)
    field = field_module.GridField(np.arange(16.0), h=0.5)
    kind = SplineKind(5, 4)
    # evaluate and evaluate_derivative run the private core after grid_coordinates, not evaluate_at_cell, and
    # the core reads its patch with _patch, not through the argument checks of gather_local; the weights are
    # computed inside the forms' generated evaluator, so field.beta_eval, still bound, is off the path
    field_module.evaluate_derivative(field, (3.3,), kind, (1,))
    field_module.evaluate(field, (3.3,), kind)
    assert calls == {"grid_coordinates": 2, "_patch": 2}
    field_module.evaluate_at_cell(field, (6,), (0.6,), kind, (1,))
    assert calls == {"evaluate_at_cell": 1, "grid_coordinates": 2, "_patch": 3}
    field_module.partitioned_evaluate(field, (3.3,), kind, 0, 6)
    assert calls == {"evaluate_at_cell": 1, "grid_coordinates": 3, "_patch": 4}
    # the public gather_local checks its arguments, then reads through the same global
    field_module.gather_local(field, (6,), 1)
    assert calls == {"evaluate_at_cell": 1, "grid_coordinates": 3, "_patch": 5, "gather_local": 1}
