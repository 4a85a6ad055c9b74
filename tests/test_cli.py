import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import antichain
from antichain import cli
from antichain.cli import RunConfig, main
from antichain.measure import box_dimension, cover_sum
from antichain.singular import KINDS, SingularFunctionSpec
from antichain.surface import F_eval, Point, SurfaceSpec


def run_cli(capsys, *argv):
    # the parser refuses option text by raising SystemExit(2); its code is the exit code
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_identity_fixture(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--n", "2", "--lambda", "0.5", "--point", "0.3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "eval"
    assert report["config"]["seed"] == 0
    assert report["results"]["F"] == pytest.approx(0.7, abs=1e-12)
    assert report["warnings"]  # identity fixture is flagged as non-singular
    assert "wall_time_s=" in err


def test_eval_salem_n3(capsys):
    code, out, _ = run_cli(capsys, "eval", "--point", "0.5,0.5")
    report = json.loads(out)
    assert code == 0
    assert report["results"]["F"] == pytest.approx(0.75, abs=1e-12)
    assert report["results"]["graph_point"] == pytest.approx([0.5, 0.5, 0.75])


def test_eval_bound_covers_rounding_near_corner(capsys):
    # both inputs are dyadic, so f carries no truncation bound, but
    # f(1 - 2^-27) is rounded and p's slope (about 61 here) amplifies that:
    # F lies 3.38e-15 from the exact rational value
    code, out, _ = run_cli(capsys, "eval", "--n", "3", "--point", "0.125,0.9999999925494194")
    results = json.loads(out)["results"]
    assert code == 0
    assert results["error_bound"] >= 3.38e-15
    assert results["graph_point"] == [0.125, 0.9999999925494194, results["F"]]


def test_eval_point_clamped(capsys):
    code, out, _ = run_cli(capsys, "eval", "--n", "2", "--point", "0")
    report = json.loads(out)
    assert code == 0
    assert report["results"]["input_clamped"] is True
    assert report["results"]["point"][0] == 1e-9


def test_eval_wrong_arity(capsys):
    code, _, err = run_cli(capsys, "eval", "--n", "3", "--point", "0.5")
    assert code == 2
    assert "error:" in err


def test_eval_malformed_point_names_the_option(capsys):
    for point in ("abc", "0.5,"):
        code, out, err = run_cli(capsys, "eval", "--n", "2", "--point", point)
        assert code == 2 and not out
        assert "--point" in err and "comma-separated" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "1e309", "nan"])
@pytest.mark.parametrize("flag, argv", [
    ("--point", ("eval", "--n", "3", "--point=0.5,{}")),
    ("--lambda", ("eval", "--n", "2", "--point", "0.5", "--lambda={}")),
    ("--probe-eps", ("projections", "--n", "2", "--probe-eps={}")),
])
def test_non_finite_option_rejected(capsys, flag, argv, value):
    # the parser refuses them: a non-finite --point would be clamped silently,
    # and a report echoing Infinity or NaN is not strict JSON
    code, out, err = run_cli(capsys, *(arg.format(value) for arg in argv))
    assert code == 2 and not out
    assert f"argument {flag}: " in err and "finite" in err


def test_non_finite_result_is_an_error_not_invalid_json(capsys, monkeypatch):
    monkeypatch.setattr(cli.surface, "F_eval", lambda spec, x: (math.nan, 0.0))
    code, out, err = run_cli(capsys, "eval", "--n", "2", "--point", "0.5")
    assert code == 2 and not out
    assert "error:" in err


def test_check_antichain_small(capsys):
    code, out, _ = run_cli(
        capsys, "check-antichain", "--n", "3", "--pairs", "5000", "--seed", "42"
    )
    report = json.loads(out)
    assert code == 0
    assert report["results"]["violations"] == 0
    assert report["results"]["pairs"] == 5000
    assert report["config"]["seed"] == 42


@pytest.mark.parametrize("pairs", ["0", "-5"])
def test_check_antichain_pairs_below_one_rejected(capsys, pairs):
    code, out, err = run_cli(capsys, "check-antichain", "--pairs", pairs)
    assert code == 2
    assert out == ""
    assert "at least one pair" in err


def test_check_antichain_over_budget(capsys, monkeypatch):
    monkeypatch.setenv("ANTICHAIN_BUDGET", "199")
    code, out, err = run_cli(capsys, "check-antichain", "--n", "2", "--pairs", "100")
    assert code == 2
    assert out == ""
    assert "200 evaluations exceed budget 199" in err
    monkeypatch.setenv("ANTICHAIN_BUDGET", "200")
    code, _, _ = run_cli(capsys, "check-antichain", "--n", "2", "--pairs", "100")
    assert code == 0


def test_huge_sample_count_reports_the_budget_error(capsys):
    # about 10^4402 sample rows: the budget error, not the integer-to-string digit limit
    code, out, err = run_cli(capsys, "projections", "--n", "3", "--domain-depth", "4",
                             "--image-depth", "4", "--samples", "9" * 2200)
    assert code == 2
    assert out == ""
    assert "budget" in err
    assert len(err) < 300


@pytest.mark.parametrize("budget", ["abc", "1e9"])
def test_malformed_budget_env_names_the_variable(capsys, monkeypatch, budget):
    monkeypatch.setenv("ANTICHAIN_BUDGET", budget)
    code, out, err = run_cli(capsys, "eval", "--n", "2", "--point", "0.5")
    assert code == 2
    assert out == ""
    assert "ANTICHAIN_BUDGET" in err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_eval_over_budget(capsys, monkeypatch, budget):
    # one evaluation, charged against the budget like every other command
    monkeypatch.setenv("ANTICHAIN_BUDGET", budget)
    code, out, err = run_cli(capsys, "eval", "--point", "0.5,0.5")
    assert code == 2
    assert out == ""
    assert f"1 evaluations exceed budget {budget}" in err
    monkeypatch.setenv("ANTICHAIN_BUDGET", "1")
    code, _, _ = run_cli(capsys, "eval", "--point", "0.5,0.5")
    assert code == 0


def test_dimension_charges_its_whole_window(capsys, monkeypatch):
    # the default n = 2 window, depths 6..14, sweeps 3 * 2^k + 1 lattice points
    monkeypatch.setenv("ANTICHAIN_BUDGET", "98120")
    code, out, err = run_cli(capsys, "dimension", "--n", "2")
    assert code == 2
    assert out == ""
    assert "98121 evaluations exceed budget 98120" in err
    monkeypatch.setenv("ANTICHAIN_BUDGET", "98121")
    code, _, _ = run_cli(capsys, "dimension", "--n", "2")
    assert code == 0


def test_eval_corner_report_is_finite_json(capsys):
    # f(2^-11) truncates to 0 at depth 8 and f(0.984375) rounds to 1: p is
    # 0/0 there, and the report must still be valid JSON with F in [lo, hi]
    import warnings

    import numpy as np

    from antichain import SingularFunctionSpec, SurfaceSpec
    from antichain.surface import surface_enclosure

    def reject(name):
        raise ValueError(f"{name} in the report")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "eval", "--n", "3", "--lambda", "0.999", "--depth",
                               "8", "--point", "0.00048828125,0.984375")
    assert code == 0
    results = json.loads(out, parse_constant=reject)["results"]
    spec = SurfaceSpec(n=3, f=SingularFunctionSpec(lam=0.999, depth=8))
    lo, hi = surface_enclosure(spec, np.array([[0.00048828125, 0.984375]]))
    assert lo[0] <= results["F"] <= hi[0]
    assert results["error_bound"] >= 0.99


def test_length_report(capsys):
    code, out, _ = run_cli(capsys, "length", "--k", "10")
    report = json.loads(out)
    assert code == 0
    assert report["config"]["n"] == 2
    assert report["results"]["length"] == pytest.approx(1.6879, abs=1e-3)


def test_length_rejects_other_dimensions(capsys):
    # length runs n = 2 only, so it takes no --n
    code, out, err = run_cli(capsys, "length", "--n", "3", "--k", "8")
    assert code == 2 and not out
    assert "unrecognized arguments: --n 3" in err


def test_dimension_small_window(capsys):
    code, out, _ = run_cli(
        capsys, "dimension", "--n", "2", "--k-min", "5", "--k-max", "9",
        "--samples", "2",
    )
    report = json.loads(out)
    assert code == 0
    assert 0.9 <= report["results"]["slope"] <= 1.1
    assert report["results"]["cover_s"] == 1
    assert report["results"]["depths"] == [5, 6, 7, 8, 9]
    # both cover values come from the one sweep behind the fit
    est = box_dimension(RunConfig("dimension", n=2).surface_spec(), 5, 9, 2)
    assert report["results"]["cover_value_finest"] == cover_sum(1, 2, 9, est.counts[-1])
    assert report["results"]["cover_value_extrapolated"] == cover_sum(
        1, 2, 9, est.fitted_count(9))


def test_deep_window_rejected_before_it_is_sized(capsys):
    # the 64-bit guard runs on each depth before the window's lattice sizes are summed
    code, out, err = run_cli(
        capsys, "dimension", "--n", "3", "--k-min", "1", "--k-max", "20000", "--samples", "1"
    )
    assert code == 2
    assert out == ""
    assert "64-bit" in err


@pytest.mark.parametrize("argv", [
    "dimension --n 2 --k-min 0 --k-max 8 --samples 1",
    "dimension --n 2 --k-min 6 --k-max 8 --samples 0",
    "dimension --n 2 --k-min 6 --k-max 0 --samples 1",
    "projections --n 2 --domain-depth 6 --image-depth 0 --samples 2",
    "projections --n 2 --domain-depth 0 --image-depth 6 --samples 2",
    "projections --n 2 --domain-depth 6 --image-depth 6 --samples 0",
])
def test_explicit_zero_grid_option_rejected(capsys, argv):
    # a given 0 reaches the estimator, which rejects it; it is never
    # replaced by the calibrated default
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_partial_window_keeps_given_options(capsys):
    # the missing k_min comes from the calibrated n = 2 window (6, 14, 3)
    code, out, _ = run_cli(capsys, "dimension", "--n", "2", "--k-max", "8", "--samples", "1")
    report = json.loads(out)
    assert code == 0
    assert (report["config"]["k_min"], report["config"]["k_max"]) == (6, 8)
    assert report["config"]["samples"] == 1
    assert report["results"]["depths"] == [6, 7, 8]


@pytest.mark.parametrize("argv, missing", [
    ("dimension --n 4", "--k-min/--k-max/--samples"),
    ("dimension --n 4 --k-min 2", "--k-max/--samples"),
    ("projections --n 4", "--domain-depth/--image-depth/--samples"),
])
def test_no_calibrated_defaults_names_the_missing_flags(capsys, argv, missing):
    code, out, err = run_cli(capsys, *argv.split())
    command = argv.split()[0]
    assert code == 2
    assert out == ""
    assert f"error: no calibrated {command} defaults for n = 4; pass {missing}\n" in err


@pytest.mark.parametrize("argv", [
    "eval --point 0.5,0.5",
    "length",
    "dimension --n 2 --k-min 5 --k-max 6 --samples 1",
    "export-mesh --n 2 --resolution 3",
])
def test_seed_rejected_where_nothing_is_drawn(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split(), "--seed", "1")
    assert code == 2 and not out
    assert "unrecognized arguments: --seed 1" in err


@pytest.mark.parametrize("argv", [
    "check-antichain --n 2 --pairs 100",
    "projections --n 2 --domain-depth 5 --image-depth 4 --samples 1",
])
def test_seeded_commands_echo_the_seed(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split(), "--seed", "9")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 9


def test_cached_parser_keeps_no_state(capsys):
    # main parses every call with the one parser of the process; nothing a
    # call gives, or fails on, may reach the next call's namespace
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(capsys, "projections", "--n", "2", "--domain-depth", "5",
                           "--image-depth", "4", "--samples", "1", "--seed", "9")
    assert code == 0 and json.loads(out)["config"]["seed"] == 9
    code, out, _ = run_cli(capsys, "dimension", "--n", "2", "--k-min", "5", "--k-max", "7",
                           "--samples", "1")
    assert code == 0 and json.loads(out)["config"]["seed"] == 0
    code, out, _ = run_cli(capsys, "dimension", "--n", "3", "--k-min", "2", "--k-max", "4",
                           "--samples", "1")
    assert code == 0 and json.loads(out)["config"]["n"] == 3
    code, out, _ = run_cli(capsys, "length", "--k", "6")
    assert code == 0 and json.loads(out)["config"]["n"] == 2
    code, _, _ = run_cli(capsys, "eval", "--n", "3")  # --point is required
    assert code == 2
    code, out, _ = run_cli(capsys, "eval", "--n", "3", "--point", "0.3,0.7")
    expected = json.loads(json.dumps(asdict(RunConfig(command="eval", n=3, point=(0.3, 0.7)))))
    assert code == 0 and json.loads(out)["config"] == expected


def test_readme_cli_examples_parse():
    # the fenced block under "## CLI" in README.md, one invocation a line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert lines and all(line[0] == "antichain" for line in lines)
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(line[1:])  # exits on an option the parser does not know


def test_projections_small(capsys):
    code, out, _ = run_cli(
        capsys, "projections", "--n", "2", "--domain-depth", "9",
        "--image-depth", "6", "--samples", "2",
    )
    report = json.loads(out)
    assert code == 0
    areas = report["results"]["areas"]
    assert set(areas) == {"1", "2"}
    assert report["results"]["total"] == math.fsum(areas.values())
    assert report["results"]["target"] == 2.0


def test_reports_are_byte_identical(capsys):
    args = ("check-antichain", "--n", "2", "--pairs", "2000", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "length", "--k", "6", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# command=length"
    assert any(line.startswith("# seed=0") for line in lines)
    assert "key,value" in lines
    assert any(line.startswith("length,") for line in lines)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "length", "--k", "6", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "length"


def test_output_file_unwritable(capsys):
    code, _, err = run_cli(
        capsys, "length", "--k", "6", "--output", "/nonexistent-dir/report.json"
    )
    assert code == 2
    assert "cannot write" in err


def test_mesh_csv_rows(capsys):
    code, out, _ = run_cli(
        capsys, "export-mesh", "--n", "2", "--lambda", "0.5",
        "--resolution", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,F"
    rows = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
    assert rows == [(0.25, 0.75), (0.5, 0.5), (0.75, 0.25)]


def test_mesh_json_contains_salem_value(capsys):
    code, out, _ = run_cli(
        capsys, "export-mesh", "--n", "3", "--resolution", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["grid"] == [0.25, 0.5, 0.75]
    assert len(payload["values"]) == 9
    # row-major: (x1=0.5, x2=0.5) sits in the middle
    assert payload["values"][4] == pytest.approx(0.75, abs=1e-12)


def test_mesh_unsupported_dimension(capsys):
    code, out, err = run_cli(capsys, "export-mesh", "--n", "4", "--resolution", "3")
    assert code == 2 and not out
    assert "argument --n: invalid choice: 4" in err


def test_cantor_rejected(capsys):
    # --kind offers only the library's kinds, on every command; the library's
    # own refusal is tested on SingularFunctionSpec
    for kind in ("cantor", "minkowski"):
        for command in ("eval --point 0.5,0.5", "check-antichain", "length", "dimension",
                        "projections", "export-mesh"):
            code, out, err = run_cli(capsys, *command.split(), "--kind", kind)
            assert code == 2 and not out, command
            assert f"argument --kind: invalid choice: '{kind}'" in err, command


def test_kind_choices_are_the_library_kinds():
    # every command offers exactly the kinds a spec admits, and each of them
    # builds a surface that evaluates
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == {"eval", "check-antichain", "length", "dimension",
                             "projections", "export-mesh"}
    for name, command in commands.items():
        (kind,) = [a for a in command._actions if a.dest == "kind"]
        assert tuple(kind.choices) == KINDS, name
    for k in KINDS:
        value, bound = F_eval(SurfaceSpec(n=3, f=SingularFunctionSpec(kind=k)), Point((0.3, 0.6)))
        assert 0.0 < value < 1.0 and 0.0 <= bound < 1e-9, k


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ANTICHAIN_BUDGET", "10")
    code, _, err = run_cli(capsys, "length", "--k", "12")
    assert code == 2
    assert "budget" in err


def test_negative_seed_accepted(capsys):
    # seeds follow 64-bit wrap-around semantics
    code, out, _ = run_cli(
        capsys, "check-antichain", "--n", "2", "--pairs", "1000", "--seed", "-1"
    )
    assert code == 0
    assert json.loads(out)["results"]["violations"] == 0


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "antichain", "eval", "--n", "2", "--lambda", "0.5",
         "--point", "0.25"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["F"] == pytest.approx(0.75)


def test_package_exports_resolve():
    for name in antichain.__all__:
        assert hasattr(antichain, name), name


def test_memory_error_is_a_resource_error(capsys, monkeypatch):
    # exit 2, not the violation code 1; no large allocation is made
    import antichain.cli as cli_module

    def out_of_memory(spec, pairs, seed=0, budget=0):
        raise MemoryError("Unable to allocate the scan block")

    monkeypatch.setattr(cli_module.surface, "antichain_scan", out_of_memory)
    code, out, err = run_cli(capsys, "check-antichain", "--pairs", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: Unable to allocate")


def test_violation_exit_code(capsys, monkeypatch):
    # a genuine violation cannot occur for a valid surface, so fake the scan
    # to exercise the exit-code contract
    from antichain.surface import ScanResult

    import antichain.cli as cli_module

    monkeypatch.setattr(
        cli_module.surface,
        "antichain_scan",
        lambda spec, pairs, seed=0, budget=0: ScanResult(pairs, pairs - 1, 0, 1),
    )
    code, out, _ = run_cli(capsys, "check-antichain", "--pairs", "100")
    assert code == 1
    assert json.loads(out)["results"]["violations"] == 1


def test_mesh_17_digit_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "export-mesh", "--n", "2", "--resolution", "5", "--format", "csv"
    )
    lines = out.splitlines()[1:]
    from antichain import F_eval, Point, SingularFunctionSpec, SurfaceSpec

    spec = SurfaceSpec(n=2, f=SingularFunctionSpec())
    for line in lines:
        x_str, f_str = line.split(",")
        expected, _ = F_eval(spec, Point((float(x_str),)))
        assert float(f_str) == expected  # 17 significant digits round-trip


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mesh_bytes_match_per_point_loop(capsys, n, fmt):
    # the vectorised export is elementwise and its CSV is filled from a
    # template, so it must reproduce a per-point F_eval loop, formatted value
    # by value, byte for byte; resolution 32 is the benchmark's
    import itertools

    from antichain import F_eval, Point, SingularFunctionSpec, SurfaceSpec

    for resolution, lam in ((1, 0.25), (5, 0.25), (32, 0.25), (5, 0.1)):
        code, out, _ = run_cli(
            capsys, "export-mesh", "--n", str(n), "--resolution", str(resolution),
            "--format", fmt, *(["--lambda", str(lam)] if lam != 0.25 else []),
        )
        spec = SurfaceSpec(n=n, f=SingularFunctionSpec(lam=lam))
        grid = [(i + 1) / (resolution + 1) for i in range(resolution)]
        rows = [[*x, F_eval(spec, Point(x))[0]] for x in itertools.product(grid, repeat=n - 1)]
        if fmt == "csv":
            lines = ["x1,F" if n == 2 else "x1,x2,F"]
            lines += [",".join(format(v, ".17g") for v in row) for row in rows]
            expected = "\n".join(lines) + "\n"
        else:
            payload = {"n": n, "grid": grid, "values": [row[-1] for row in rows]}
            expected = json.dumps(payload, indent=2) + "\n"
        assert code == 0, (resolution, lam)
        assert out == expected, (resolution, lam)


def test_mesh_evaluates_each_grid_value_once(capsys, monkeypatch):
    # the mesh takes F from the cover's lattice sweep: f on the 6 grid values,
    # not on 2 * 36 coordinates, and F on the 36 grid points
    from antichain import measure

    evaluate_many, surface_from_f = measure.evaluate_many, measure.surface_from_f
    f_sizes, F_rows = [], []

    def counting_f(spec, xs):
        f_sizes.append(len(xs))
        return evaluate_many(spec, xs)

    def counting_F(fv):
        F_rows.append(len(fv))
        return surface_from_f(fv)

    monkeypatch.setattr(measure, "evaluate_many", counting_f)
    monkeypatch.setattr(measure, "surface_from_f", counting_F)
    argv = ["export-mesh", "--n", "3", "--resolution", "6", "--format"]
    default = {fmt: run_cli(capsys, *argv, fmt) for fmt in ("csv", "json")}
    assert f_sizes == [6, 6]  # one f call per export
    assert F_rows == [36, 36]
    # boxes of at most 7 points hold one 6-point row each; the bytes stay the same
    monkeypatch.setattr(measure, "_CHUNK_ROWS", 7)
    for fmt, (code, out, _) in default.items():
        assert code == 0
        assert run_cli(capsys, *argv, fmt)[:2] == (0, out), fmt
    assert F_rows[2:] == [6] * 12
    # boxes of 4 points split each row in two
    monkeypatch.setattr(measure, "_CHUNK_ROWS", 4)
    assert run_cli(capsys, *argv, "csv")[:2] == (0, default["csv"][1])
    assert F_rows[14:] == [4, 2] * 6


def test_mesh_over_budget(capsys, monkeypatch):
    monkeypatch.setenv("ANTICHAIN_BUDGET", "24")
    code, out, err = run_cli(capsys, "export-mesh", "--n", "3", "--resolution", "5")
    assert code == 2
    assert out == ""
    assert "25 evaluations exceed budget 24" in err
    monkeypatch.setenv("ANTICHAIN_BUDGET", "25")
    code, _, _ = run_cli(capsys, "export-mesh", "--n", "3", "--resolution", "5")
    assert code == 0


@pytest.mark.parametrize("resolution", ["0", "-3"])
def test_mesh_resolution_below_one_rejected(capsys, resolution):
    code, out, err = run_cli(capsys, "export-mesh", "--n", "2", "--resolution", resolution)
    assert code == 2
    assert out == ""
    assert "--resolution must be >= 1" in err


def _on_glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _on_glibc()),
                    reason="the malloc thresholds are set on glibc Linux only")
def test_repeated_scan_does_not_refault_freed_memory(capsys):
    # with glibc's dynamic thresholds each block's freed temporaries went back
    # to the kernel and were faulted in again: 8k to 10k minor faults per call
    import resource

    argv = ["check-antichain", "--n", "5", "--pairs", "100000", "--seed", "3"]
    assert main(argv) == 0  # warm-up: lazy tables, heap grown to its working size
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    capsys.readouterr()
    assert faults < 500


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _on_glibc()),
                    reason="the malloc thresholds are set on glibc Linux only")
@pytest.mark.parametrize("argv", [
    "dimension --n 3 --k-min 2 --k-max 7 --samples 2",
    "projections --n 3 --probe-depth 40 --domain-depth 8 --image-depth 6 --samples 3 --seed 1",
])
def test_repeated_sweeps_do_not_refault_freed_memory(capsys, argv):
    # the benchmark's cover and projection sweeps: with glibc's dynamic
    # thresholds a repeated call took 716 and 2901 minor faults, with them fixed at most 1
    import resource

    assert main(argv.split()) == 0  # warm-up: lazy tables, heap grown to its working size
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv.split()) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    capsys.readouterr()
    assert faults < 100


def test_main_runs_where_confstr_raises(capsys, monkeypatch):
    # macOS has no CS_GNU_LIBC_VERSION and Windows no os.confstr: the
    # allocator policy is skipped, and the C library is not loaded for it
    import ctypes

    def no_confstr(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_cdll(*args, **kwargs):
        raise AssertionError("ctypes.CDLL called off glibc")

    monkeypatch.setattr(os, "confstr", no_confstr, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    cli.keep_freed_heap.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "eval", "--n", "2", "--point", "0.5")
    finally:
        cli.keep_freed_heap.cache_clear()
    assert code == 0
    assert json.loads(out)["results"]["point"] == [0.5]
