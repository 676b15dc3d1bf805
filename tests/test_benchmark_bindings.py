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
    # a traced run counts a layer only if the scalar path looks it up on the module at call time
    tracer = load_tracer()
    calls = {}
    for layer, module_name, attr in tracer.BINDINGS:
        if module_name == "gridsplines.field":
            fn = getattr(field_module, attr)

            def counted(*args, _fn=fn, _attr=attr, **kwargs):
                calls[_attr] = calls.get(_attr, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(field_module, attr, counted)
    field = field_module.GridField(np.arange(16.0), h=0.5)
    field_module.evaluate_derivative(field, (3.3,), SplineKind(5, 4), (1,))
    field_module.evaluate(field, (3.3,), SplineKind(5, 4))
    assert calls == {"evaluate_at_cell": 2, "grid_coordinates": 2, "gather_local": 2, "beta_eval": 2}
