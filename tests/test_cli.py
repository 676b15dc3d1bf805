"""Command-line behaviors: export, validate, converge, bench."""

import csv
import hashlib
import io
import json
import math
import re
import types
from functools import lru_cache

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gridsplines import basis, cli, stencil
from gridsplines.basis import SplineKind, derive_beta
from gridsplines.cli import FUNCTIONS, ConvergenceRow, main, run_benchmark, run_convergence, run_validation
from gridsplines.errors import InvalidPoint
from gridsplines.exact import RationalPolynomial, rational_from_str
from gridsplines.field import GridField, evaluate, evaluate_many, save_field


def test_export_json_roundtrips_to_exact_family(tmp_path):
    out = tmp_path / "beta54.json"
    assert main(["export", "--n", "5", "--q", "4", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    beta = derive_beta(SplineKind(5, 4))
    assert [rec["i"] for rec in records] == [-1, 0, 1, 2]
    for rec in records:
        rebuilt = RationalPolynomial([rational_from_str(c) for c in rec["coeffs_exact"]])
        assert rebuilt == beta.poly(rec["i"])


def test_export_outer_rows_vanish_for_linear_kind(tmp_path):
    out = tmp_path / "beta14.json"
    assert main(["export", "--n", "1", "--q", "4", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert records[0]["coeffs_exact"] == []
    assert records[3]["coeffs_exact"] == []
    assert records[0]["coeffs_horner"] == []


def test_export_rejects_invalid_kind(tmp_path, capsys):
    rc = main(["export", "--n", "7", "--q", "4", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_export_surfaces_path_errors(tmp_path, capsys):
    rc = main(["export", "--n", "5", "--q", "4", "--out", str(tmp_path / "no" / "dir" / "x.json")])
    assert rc == 2
    assert "no/dir" in capsys.readouterr().err.replace("\\", "/")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_export_is_deterministic(tmp_path, fmt):
    a = tmp_path / f"a.{fmt}"
    b = tmp_path / f"b.{fmt}"
    for path in (a, b):
        assert main(["export", "--n", "5", "--q", "6", "--out", str(path), "--format", fmt]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_export_csv_columns(tmp_path):
    out = tmp_path / "beta54.csv"
    assert main(["export", "--n", "5", "--q", "4", "--out", str(out), "--format", "csv"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "q", "i", "coeffs_exact", "coeffs_horner"]
    assert len(rows) == 5


# The Horner floats are correctly rounded integer quotients, so these bytes do not depend on the platform.
@pytest.mark.parametrize(
    "n,q,fmt,sha256",
    [
        (5, 4, "json", "f59cc0f242b83acc1bc3530996ace10d156306827723229fc7f4bfa675957eb7"),
        (5, 4, "csv", "248c2edc639e869444341bd3f2a619a1bb28a09a1f8834a77868cc38b20790c3"),
        (19, 12, "csv", "a5ae9e777fb12e12ec23f214ed5513ee8e0a90ab6d22bd8fba1b76d99553fa8c"),
    ],
)
def test_export_bytes_are_pinned(tmp_path, n, q, fmt, sha256):
    out = tmp_path / f"beta.{fmt}"
    assert main(["export", "--n", str(n), "--q", str(q), "--out", str(out), "--format", fmt]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_validate_passes(capsys):
    assert main(["validate", "--max-n", "5", "--max-q", "6"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_validate_inject_defect_fails(capsys):
    assert main(["validate", "--max-n", "3", "--max-q", "4", "--inject-defect"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_validation_full_supported_range():
    report = run_validation(19, 12)
    assert report.ok, str(report)
    names = [name for name, _, _ in report.checks]
    assert any("closed-form" in name for name in names)
    assert any("(19,12)" in name for name in names)
    assert any("route agreement" in name for name in names)


@pytest.fixture
def cold_derivation(monkeypatch):
    """Fresh, empty derivation caches at every call site a validation run reaches, so the run is cold."""
    alpha = lru_cache(maxsize=None)(basis.derive_alpha.__wrapped__)
    hermite = lru_cache(maxsize=None)(basis._hermite_inverse.__wrapped__)
    beta = lru_cache(maxsize=None)(basis.derive_beta.__wrapped__)
    stencil_table = lru_cache(maxsize=None)(stencil.derive_stencil.__wrapped__)
    for module, name, fn in (
        (basis, "derive_alpha", alpha),
        (basis, "_hermite_inverse", hermite),
        (basis, "derive_stencil", stencil_table),
        (cli, "derive_alpha", alpha),
        (cli, "_hermite_inverse", hermite),
        (cli, "derive_beta", beta),
        (cli, "derive_stencil", stencil_table),
    ):
        monkeypatch.setattr(module, name, fn)


def test_validation_solves_each_hermite_system_at_its_reduced_size(cold_derivation, monkeypatch):
    # the benchmark's traced runs count solve_linear_system through these two module globals
    calls = []
    for module in (basis, stencil):

        def counted(matrix, rhs, _solve=module.solve_linear_system, _module=module):
            calls.append((_module, matrix))
            return _solve(matrix, rhs)

        monkeypatch.setattr(module, "solve_linear_system", counted)
    assert run_validation(19, 12).ok
    assert len(calls) == 15
    hermite = [matrix for module, matrix in calls if module is basis]
    # one falling-factorial elimination per odd order n, shared by its alpha and direct beta families
    assert [len(matrix) for matrix in hermite] == [(n + 1) // 2 for n in range(1, 20, 2)]
    for matrix in hermite:
        size = len(matrix)
        assert matrix == [[math.perm(size + j, l) for j in range(size)] for l in range(size)]


def test_validate_prints_cold_phase_seconds_and_cache_counts(cold_derivation, capsys):
    assert main(["validate"]) == 0
    *_, phases, caches, last = capsys.readouterr().out.splitlines()
    assert last == "248/248 checks passed"
    seconds = re.fullmatch(
        r"cold seconds by phase: alpha solve (\S+), closed form (\S+), derive_beta (\S+), "
        r"derive_beta_direct (\S+), family checks (\S+)",
        phases,
    )
    assert seconds, phases
    assert all(float(s) >= 0.0 for s in seconds.groups()) and sum(map(float, seconds.groups())) > 0.0
    assert caches == (
        "caches: derive_alpha CacheInfo(hits=34, misses=10, maxsize=None, currsize=10); "
        "_hermite_inverse CacheInfo(hits=34, misses=10, maxsize=None, currsize=10); "
        "derive_beta CacheInfo(hits=0, misses=34, maxsize=None, currsize=34); "
        "derive_stencil CacheInfo(hits=63, misses=5, maxsize=None, currsize=5)"
    )


@pytest.mark.parametrize("max_n,max_q", [(0, 12), (-3, 2)])
def test_run_validation_rejects_bounds_that_select_no_check(max_n, max_q):
    with pytest.raises(ValueError, match=f"max_n={max_n}, max_q={max_q} select no check"):
        run_validation(max_n, max_q)


def test_converge_constant_function(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(
        [
            "converge",
            "--function", "constant",
            "--kind", "3,4",
            "--h-coarse", "1/8",
            "--h-fine", "1/16",
            "--samples", "50",
            "--out", str(out),
        ]
    )
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "h", "max_error", "observed_order"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert float(row[2]) <= 1e-13


def test_converge_csv_deterministic(tmp_path):
    args = [
        "converge",
        "--function", "sin",
        "--kind", "5,4",
        "--h-coarse", "1/8",
        "--h-fine", "1/32",
        "--samples", "100",
        "--seed", "7",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_convergence_csv_text_is_pinned():
    rows = [
        ConvergenceRow(kind=(5, 4), h=0.125, max_error=1.5e-05),
        ConvergenceRow(kind=(19, 12), h=1 / 3, max_error=0.1 + 0.2, observed_order=3.0000000000000004),
        ConvergenceRow(kind=(3, 4), h=0.0625, max_error=0.0, observed_order=None),
    ]
    stream = io.StringIO()
    cli.write_convergence_csv(rows, stream)
    assert stream.getvalue() == (
        "kind,h,max_error,observed_order\n"
        '"(5,4)",0.125,1.5e-05,\n'
        '"(19,12)",0.3333333333333333,0.30000000000000004,3.0000000000000004\n'
        '"(3,4)",0.0625,0.0,\n'
    )


def test_converge_order_for_sin():
    rows = run_convergence(FUNCTIONS["sin"], 1, [(5, 4)], [1 / 16, 1 / 32, 1 / 64], 400, seed=3)
    final = rows[-1]
    assert final.observed_order == pytest.approx(3.0, abs=0.3)


def test_high_order_value_convergence_reaches_rounding_level():
    # 1-D (19,12) interpolation of sin(2 pi x) is limited by rounding, not truncation, from h = 1/64 on:
    # the centered float form keeps it at about 1e-15 (the monomial one stalled near 1e-11)
    rows = run_convergence(FUNCTIONS["sin"], 1, [(19, 12)], [1 / 64, 1 / 128, 1 / 256], 4000, seed=2024)
    assert [row.h for row in rows] == [1 / 64, 1 / 128, 1 / 256]
    assert max(row.max_error for row in rows) <= 1e-14, [row.max_error for row in rows]


def test_wider_stencil_is_more_accurate():
    rows = run_convergence(FUNCTIONS["sin"], 1, [(5, 4), (5, 6)], [1 / 64], 400, seed=3)
    errors = {row.kind: row.max_error for row in rows}
    assert errors[(5, 6)] < errors[(5, 4)]


def test_converge_rejects_sweep_that_selects_no_spacing(capsys):
    rc = main(["converge", "--h-coarse", "1/256", "--h-fine", "1/16", "--samples", "10"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""  # not even the CSV header
    assert "error: --h-coarse 0.00390625 is finer than --h-fine 0.0625" in err


def test_converge_rejects_a_spacing_that_does_not_divide_the_period(capsys):
    with pytest.raises(ValueError, match=re.escape("spacing 0.3 does not divide the unit period")):
        run_convergence(FUNCTIONS["sin"], 1, [(5, 4)], [0.3], 10, 1)
    assert main(["converge", "--h-coarse", "0.3", "--h-fine", "0.3", "--samples", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: spacing 0.3 does not divide the unit period\n"


@pytest.mark.parametrize(
    "samples,spacing,named",
    [
        (0, 0.25, "samples 0 is not an integer >= 1"),
        (-5, 0.25, "samples -5 is not an integer >= 1"),
        (2.5, 0.25, "samples 2.5 is not an integer >= 1"),
        (True, 0.25, "samples True is not an integer >= 1"),
        (10, 0.0, "spacing 0.0 is not a positive, finite number"),
        (10, -0.25, "spacing -0.25 is not a positive, finite number"),
        (10, math.nan, "spacing nan is not a positive, finite number"),
        (10, math.inf, "spacing inf is not a positive, finite number"),
        (10, "0.25", "spacing '0.25' is not a positive, finite number"),
    ],
)
def test_run_convergence_rejects_bad_samples_and_spacings(samples, spacing, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        run_convergence(FUNCTIONS["sin"], 1, [(5, 4)], [0.25, spacing], samples, 1)


@pytest.mark.parametrize("dims", [1.5, "2", True, 0])
def test_run_convergence_rejects_dims_that_is_not_a_positive_integer(dims):
    sampled = []
    with pytest.raises(ValueError, match=re.escape(f"dims {dims!r} is not an integer >= 1")):
        run_convergence(lambda x: sampled.append(x) or 0.0, dims, [(5, 4)], [0.25], 10, 1)
    assert sampled == []  # rejected before any sampling


@pytest.mark.parametrize("points", [np.zeros(3), 5.0, np.zeros((4, 2))], ids=["1-d", "number", "two axes"])
def test_run_benchmark_rejects_points_that_are_not_rows(points):
    field = GridField(np.zeros(16), h=1.0)
    shape = re.escape(f"points must have shape (N, 1), got {np.shape(points)}")
    with pytest.raises(ValueError, match=shape):
        run_benchmark(field, SplineKind(5, 4), points)


def test_run_benchmark_rejects_an_empty_point_set():
    field = GridField(np.zeros(16), h=1.0)
    with pytest.raises(ValueError, match=re.escape("points of shape (0, 1) are an empty point set")):
        run_benchmark(field, SplineKind(5, 4), np.zeros((0, 1)))


@pytest.mark.parametrize(
    "points,error,named",
    [
        ([[1.0], [1.0, 2.0]], ValueError, "point has 2 coordinates, field has 1 axes"),
        ([[1.0], 5.0], ValueError, "point 5.0 is not a sequence: need one coordinate per axis"),
        ([[1.0], [[2.0]]], InvalidPoint, "point ([2.0],): coordinate [2.0] on axis 0 is not a real number"),
        ([[math.nan], [1.0, 2.0]], InvalidPoint, "point (nan,): coordinate nan on axis 0 is not finite"),
    ],
    ids=["long row", "number row", "nested row", "bad first row"],
)
@pytest.mark.parametrize("entry", [evaluate_many, run_benchmark], ids=["evaluate_many", "run_benchmark"])
def test_a_ragged_point_list_raises_the_scalar_error_of_its_first_bad_row(entry, points, error, named):
    # numpy cannot make these lists one array: each row goes to the scalar entry as given
    with pytest.raises(error, match=re.escape(named)) as info:
        entry(field=GridField(np.zeros(16), h=1.0), points=points, kind=SplineKind(5, 4))
    assert type(info.value) is error


@pytest.mark.parametrize(
    "points,named",
    [
        (np.array([[0.5 + 1j], [2.0]]), "coordinate (0.5+1j) on axis 0 is complex"),
        ([[1j], [2.0]], "coordinate 1j on axis 0 is complex"),
        ([[None], [2.0]], "coordinate None on axis 0 is not a real number"),
        ([["x"], [2.0]], "coordinate 'x' on axis 0 is not a real number"),
    ],
    ids=["complex array", "complex entry", "None", "string"],
)
def test_run_benchmark_names_a_bad_coordinate_before_any_timing(monkeypatch, points, named):
    # no cast to float ahead of the library: it would drop an imaginary part, or turn None into nan
    def clock():
        raise AssertionError("timed before the points were checked")

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=clock))
    with pytest.raises(InvalidPoint, match=re.escape(named)):
        run_benchmark(GridField(np.zeros(16), h=1.0), SplineKind(5, 4), points)


def test_converge_rejects_unknown_function(capsys):
    with pytest.raises(SystemExit):
        main(["converge", "--function", "nope"])
    assert "invalid choice" in capsys.readouterr().err


def test_bench_reports_scalar_and_batched(capsys):
    rc = main(
        ["bench", "--dims", "2", "--n", "3", "--q", "4", "--grid", "8", "--points", "64", "--seed", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "scalar" in out
    assert "batched" in out
    assert "batched vs scalar bitwise identical: True" in out
    assert "evals/s" in out


def test_bench_reports_min_and_median_of_interleaved_repeats(capsys):
    rc = main(["bench", "--dims", "3", "--n", "5", "--q", "4", "--grid", "8", "--points", "50", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind (5,4), grid 8x8x8, 50 evaluations, 5 interleaved repeats"
    for line, path in zip(lines[1:3], ("scalar", "batched")):
        assert re.fullmatch(rf"  {path} +min +\d+ ns/eval  median +\d+ ns/eval +\d+ evals/s", line), line
    assert lines[3] == "  batched vs scalar bitwise identical: True"

    field = GridField(np.random.default_rng(2).standard_normal((9, 9)), h=(0.5, 0.5))
    points = np.random.default_rng(3).uniform(0.0, 4.5, size=(40, 2))
    report = run_benchmark(field, SplineKind(3, 4), points)
    assert report["repeats"] == 5 and report["bitwise_identical"]
    for stats in report["paths"].values():
        assert set(stats) == {"min_ns_per_eval", "ns_per_eval", "evals_per_second"}
        assert 0.0 < stats["min_ns_per_eval"] <= stats["ns_per_eval"]
        assert stats["evals_per_second"] == pytest.approx(1e9 / stats["ns_per_eval"])


def test_bench_order_times_evaluate_derivative_against_evaluate_many(capsys):
    rc = main(["bench", "--dims", "2", "--n", "9", "--q", "6", "--grid", "16", "--points", "40", "--order", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind (9,6), grid 16x16, 40 order-3 derivatives, 5 interleaved repeats"
    assert lines[3] == "  batched vs scalar bitwise identical: True"

    field = GridField(np.random.default_rng(2).standard_normal((9, 9)), h=(0.5, 0.25))
    points = np.random.default_rng(3).uniform(0.0, 2.25, size=(40, 2))
    assert run_benchmark(field, SplineKind(5, 4), points, orders=(2, 1))["bitwise_identical"]
    # an order above m is the library's error, reported like any other
    assert main(["bench", "--dims", "1", "--n", "5", "--q", "4", "--grid", "8", "--points", "4", "--order", "3"]) == 2
    assert "error: derivative order 3 not in 0..2 for kind (5,4)" in capsys.readouterr().err


def test_bench_wide_stencil_bitwise_identical(capsys):
    rc = main(
        ["bench", "--dims", "1", "--n", "5", "--q", "6", "--grid", "16", "--points", "32", "--seed", "3"]
    )
    assert rc == 0
    assert "batched vs scalar bitwise identical: True" in capsys.readouterr().out


def test_bench_narrow_stencil_outpaces_wide_one():
    # 64 terms per evaluation versus 216: the q = 4 kind must be faster.  Each
    # run_benchmark call times 5 interleaved repeats and reports their best;
    # the best over two rounds that alternate the kinds keeps a slow spell of
    # a shared host from deciding the comparison.
    rng = np.random.default_rng(1)
    field = GridField(rng.standard_normal((16, 16, 16)), h=(1.0, 1.0, 1.0))
    points = rng.uniform(0.0, 16.0, size=(1000, 3))
    best = {4: math.inf, 6: math.inf}
    for _ in range(2):
        for q in best:
            report = run_benchmark(field, SplineKind(5, q), points)
            best[q] = min(best[q], report["paths"]["scalar"]["min_ns_per_eval"])
    assert best[4] < best[6]


@pytest.mark.parametrize(
    "args,named",
    [
        (["converge", "--h-fine", "0"], "argument --h-fine: spacing must be positive"),
        (["converge", "--h-fine=-1/256"], "argument --h-fine: spacing must be positive"),
        (["converge", "--h-coarse", "0"], "argument --h-coarse: spacing must be positive"),
        (["bench", "--points", "0"], "argument --points: must be at least 1"),
        (["bench", "--dims", "0"], "argument --dims: must be at least 1"),
        (["converge", "--samples", "0"], "argument --samples: must be at least 1"),
        (["converge", "--samples", "-5"], "argument --samples: must be at least 1"),
        (["validate", "--max-n", "0"], "argument --max-n: must be at least 1"),
        (["validate", "--max-n", "-3", "--max-q", "2"], "argument --max-n: must be at least 1"),
        (["validate", "--max-q", "2"], "argument --max-q: must be at least 4"),
        (["converge", "--seed", "-1"], "argument --seed: must be at least 0"),
        (["bench", "--seed", "-1"], "argument --seed: must be at least 0"),
        (["bench", "--h", "1"], "unrecognized arguments: --h 1"),
        (["bench", "--grid", "0"], "argument --grid: must be at least 1"),
        (["converge", "--dims", "0"], "argument --dims: must be at least 1"),
        (["bench", "--points", "many"], "argument --points: expected an integer, got 'many'"),
        (["bench", "--order", "two"], "argument --order: expected an integer, got 'two'"),
        (["converge", "--kind", "5"], "argument --kind: expected 'n,q', got '5'"),
        (["converge", "--h-fine", "x"], "argument --h-fine: expected a spacing such as 1/16, got 'x'"),
        (["converge", "--h-coarse", "1/0"], "argument --h-coarse: expected a spacing such as 1/16, got '1/0'"),
        (["bench", "--order", "-1"], "argument --order: must be at least 0"),
    ],
)
def test_cli_rejects_nonpositive_arguments(args, named, capsys):
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert named in err


@pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB for an array with shape (1073741824,)", ""])
def test_cli_reports_memory_error(message, monkeypatch, capsys):
    # a real allocation may not fail at once on a host that overcommits memory, so none is made here
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_benchmark", refuse)
    assert main(["bench", "--dims", "1", "--grid", "8", "--points", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"


def test_converge_matches_scalar_evaluation():
    func = FUNCTIONS["fourier"]
    rows = run_convergence(func, 2, [(5, 4)], [1 / 8], 300, seed=5)
    field = GridField.sample(func, (8, 8), 1 / 8)
    points = np.random.default_rng(5).random((300, 2))
    err = 0.0
    for p in points:
        p = tuple(p)
        err = max(err, abs(evaluate(field, p, SplineKind(5, 4)) - func(p)))
    assert rows[0].max_error == err


def test_bench_consumes_field_container(tmp_path, capsys):
    rng = np.random.default_rng(0)
    field = GridField(rng.standard_normal((12, 12)), h=(0.5, 0.5))
    path = tmp_path / "field.gfd"
    save_field(field, path)
    rc = main(["bench", "--n", "3", "--q", "4", "--points", "32", "--field", str(path)])
    assert rc == 0
    assert "12x12" in capsys.readouterr().out


def test_bench_rejects_a_container_whose_extent_is_not_finite(tmp_path, capsys):
    path = tmp_path / "field.gfd"
    save_field(GridField(np.zeros(8), h=1e308), path)
    assert main(["bench", "--dims", "1", "--points", "4", "--field", str(path)]) == 2
    assert f"{path}: field extent [inf] is not finite" in capsys.readouterr().err


def test_bench_draws_strict_container_points_where_every_stencil_fits(tmp_path, capsys, monkeypatch):
    path = tmp_path / "strict.gfd"
    save_field(GridField(np.random.default_rng(5).standard_normal((40, 40)), h=(0.5, 0.25), boundary="strict"), path)
    for args in (["--n", "5", "--q", "4"], ["--n", "19", "--q", "12", "--order", "3"]):
        assert main(["bench", "--field", str(path), "--points", "200"] + args) == 0
        assert "bitwise identical: True" in capsys.readouterr().out
    drawn = []
    report = {"repeats": 1, "paths": {}, "bitwise_identical": True}
    monkeypatch.setattr(cli, "run_benchmark", lambda field, kind, points, orders: drawn.append(points) or report)
    assert main(["bench", "--field", str(path), "--points", "4000", "--n", "19", "--q", "12"]) == 0
    (points,) = drawn  # g = 5: cells 5..33 of 40 nodes
    assert (points >= [5 * 0.5, 5 * 0.25]).all() and (points < [34 * 0.5, 34 * 0.25]).all()


def test_bench_rejects_a_strict_container_narrower_than_the_stencil(tmp_path, capsys):
    path = tmp_path / "narrow.gfd"
    save_field(GridField(np.zeros((40, 6)), h=1.0, boundary="strict"), path)
    assert main(["bench", "--field", str(path), "--n", "13", "--q", "8", "--points", "4"]) == 2
    assert f"{path}: axis 1 has 6 nodes, fewer than q = 8" in capsys.readouterr().err


def test_converge_rejects_a_complex_function():
    with pytest.raises(ValueError, match=re.escape(f"field data entry {np.complex128(1)!r} at index (0,) is not")):
        run_convergence(lambda p: np.exp(2j * np.pi * p[0]), 1, [(5, 4)], [1 / 8], 10, seed=0)


def test_catalog_functions_are_unit_periodic():
    for name, func in FUNCTIONS.items():
        for x in (0.13, 0.77):
            a = func((x, x))
            b = func((x + 1.0, x))
            assert math.isclose(a, b, rel_tol=0, abs_tol=1e-12), name


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(FUNCTIONS)),
    dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    spacing=st.sampled_from([1.0, 0.5, 0.1, 1 / 3, 1 / 16]),
)
def test_sample_matches_per_node_calls_bitwise(name, dims, spacing):
    func = FUNCTIONS[name]
    field = GridField.sample(func, dims, spacing)
    want = np.array([float(func(tuple(i * spacing for i in idx))) for idx in np.ndindex(*dims)])
    assert field.data.tobytes() == want.reshape(dims).tobytes()


def test_converge_rejects_non_finite_node_value():
    def func(point):
        x = point[0]
        return np.where(x > 0.9, np.nan, np.sin(2.0 * math.pi * x))

    # nodes of h = 1/16 reach 15/16 > 0.9; max(err, nan) used to drop the NaN and report 0.00149
    with pytest.raises(ValueError, match=r"nan at point \(0.9375,\) is not finite \(spacing 0.0625\)"):
        run_convergence(func, 1, [(5, 4)], [1 / 16], 200, 3)


def test_converge_rejects_non_finite_sample_value():
    def func(point):
        x = point[0]
        inside = (x > 0.94) & (x < 0.99)  # between the nodes 15/16 and 1 (= 0)
        return np.where(inside, np.inf, np.sin(2.0 * math.pi * x))

    with pytest.raises(ValueError, match=r"inf at point \(0\.9[4-8]\d*,\) is not finite \(spacing 0.0625\)"):
        run_convergence(func, 1, [(5, 4)], [1 / 16], 200, 3)


def test_converge_calls_func_on_the_sample_points_once_per_study():
    fourier = FUNCTIONS["fourier"]
    shapes = []

    def func(point):
        shapes.append(tuple(np.shape(x) for x in point))
        return fourier(point)

    rows = run_convergence(func, 2, [(5, 4), (3, 4)], [1 / 4, 1 / 8, 1 / 16], 50, seed=23)
    assert len(rows) == 6
    nodes = [((d, 1), (1, d)) for d in (4, 8, 16)]  # a sparse meshgrid per (kind, spacing)
    samples = ((50,), (50,))  # drawn and evaluated after the first field has been checked
    assert shapes == nodes[:1] + [samples] + nodes[1:] + nodes


def test_converge_rows_match_a_per_row_rebuild_bit_for_bit():
    func = FUNCTIONS["fourier"]
    kinds = [(5, 4), (3, 4)]
    spacings = [1 / 8, 1 / 16, 1 / 32]
    seed = 23
    want = []
    for n, q in kinds:
        prev = None
        for h in spacings:
            field = GridField.sample(func, (round(1 / h),) * 2, h)
            points = np.random.default_rng(seed).random((500, 2))
            err = float(np.max(np.abs(evaluate_many(field, points, SplineKind(n, q)) - func(tuple(points.T)))))
            want.append(((n, q), repr(h), repr(err), repr(None if prev is None else math.log2(prev / err))))
            prev = err
    rows = run_convergence(func, 2, kinds, spacings, 500, seed)
    assert [(r.kind, repr(r.h), repr(r.max_error), repr(r.observed_order)) for r in rows] == want


def test_converge_rejects_a_func_that_writes_into_its_points():
    # the sample points are shared by every row: writing into them would change the later rows silently
    def func(point):
        for x in point:
            x *= 1.0
        return FUNCTIONS["sin"](point)

    with pytest.raises(ValueError, match="read-only"):
        run_convergence(func, 1, [(5, 4), (3, 4)], [1 / 8, 1 / 16], 100, 23)
