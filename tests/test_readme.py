"""The README's library quick tour runs as written and computes what it says."""

import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    found = re.search(r"^## Library quick tour\n\n```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert found, "README.md has no python block under '## Library quick tour'"
    tour = {}
    exec(compile(found.group(1), str(README), "exec"), tour)
    assert abs(tour["value"] - math.sin(2 * math.pi * 0.3)) < 1e-4  # a (5,4) spline on 64 nodes a period
    assert abs(tour["slope"] - 2 * math.pi * math.cos(2 * math.pi * 0.3)) < 1e-3
    points, evaluate, field, kind = tour["points"], tour["evaluate"], tour["field"], tour["kind"]
    assert tour["values"].shape == tour["slopes"].shape == (10_000,)
    assert tour["values"][:50].tolist() == [evaluate(field, tuple(p), kind) for p in points[:50]]
    assert tour["wave"].dims == (64, 32)
