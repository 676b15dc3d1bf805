"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by rebinding public gridsplines functions at the module
attributes their callers look them up through, so the library itself is not
edited.  Each wrapper records one span (id, parent id, pass id, layer, start,
end) and accumulates, per layer, the call count and the self time: the span's
duration minus the time covered by its child spans.  Because every span's
duration is charged either to itself or to its parent, the self times of one
pass add up to the duration of its root span.
"""

import importlib

# (layer name, module whose attribute callers look up, attribute name).
# A layer may be bound at several call sites; calls through any of them count.
BINDINGS = (
    ("field.evaluate", "gridsplines.cli", "evaluate"),
    ("field.evaluate_at_cell", "gridsplines.field", "evaluate_at_cell"),
    ("field.grid_coordinates", "gridsplines.field", "grid_coordinates"),
    ("field.gather_local", "gridsplines.field", "gather_local"),
    ("basis.beta_eval", "gridsplines.field", "beta_eval"),
    ("basis.derive_beta", "gridsplines.cli", "derive_beta"),
    ("basis.derive_beta_direct", "gridsplines.cli", "derive_beta_direct"),
    ("basis.validate_family", "gridsplines.cli", "validate_family"),
    ("basis.derive_alpha", "gridsplines.cli", "derive_alpha"),
    ("basis.derive_alpha", "gridsplines.basis", "derive_alpha"),
    ("stencil.derive_stencil", "gridsplines.basis", "derive_stencil"),
    ("exact.solve_linear_system", "gridsplines.basis", "solve_linear_system"),
    ("exact.solve_linear_system", "gridsplines.stencil", "solve_linear_system"),
)

# Every layer the benchmark reports, in report order.  The harness.pass span
# is the root of each timed pass; its self time is the harness's own loop.
LAYERS = (
    "harness.pass",
    "cli.run_convergence",
    "cli.run_validation",
    "field.GridField.sample",
    "field.evaluate",
    "field.evaluate_at_cell",
    "field.grid_coordinates",
    "field.gather_local",
    "basis.beta_eval",
    "basis.derive_beta",
    "basis.derive_beta_direct",
    "basis.validate_family",
    "basis.derive_alpha",
    "stencil.derive_stencil",
    "exact.solve_linear_system",
)


class Tracer:
    """Records spans in memory; keeps at most ``cap`` rows, but counts every span."""

    def __init__(self, cap: int, clock):
        self.cap = cap
        self.clock = clock  # ns; must not advance while the benchmark calibrates
        self.spans = []
        self.stats = {layer: [0, 0] for layer in LAYERS}  # layer -> [calls, self ns]
        self.pass_id = 0
        self._stack = []  # one [span id, child ns] frame per open span
        self._next_id = 1

    def wrap(self, layer: str, fn):
        """Return ``fn`` wrapped so that each call records one ``layer`` span."""
        stats = self.stats[layer]
        stack = self._stack
        spans = self.spans
        clock = self.clock

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < self.cap:
                    spans.append((span_id, parent, self.pass_id, layer, start, end))

        return traced

    def install(self):
        """Rebind every call site in BINDINGS and ``GridField.sample``."""
        for layer, module_name, attr in BINDINGS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(layer, getattr(module, attr)))
        grid_field = importlib.import_module("gridsplines.field").GridField
        sample = grid_field.__dict__["sample"].__func__
        grid_field.sample = classmethod(self.wrap("field.GridField.sample", sample))

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("span,parent,pass,layer,start_ns,end_ns\n")
            for row in self.spans:
                fh.write(",".join(str(v) for v in row) + "\n")
