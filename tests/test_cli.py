import json
import math

import pytest

import antichain
from antichain.cli import RunConfig, main
from antichain.measure import box_dimension, cover_sum


def run_cli(capsys, *argv):
    code = main(list(argv))
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
    code, _, err = run_cli(capsys, "length", "--n", "3", "--k", "8")
    assert code == 2


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
    code, _, err = run_cli(capsys, "export-mesh", "--n", "4", "--resolution", "3")
    assert code == 2
    assert "n in {2, 3}" in err


def test_cantor_rejected(capsys):
    code, _, err = run_cli(capsys, "eval", "--kind", "cantor", "--point", "0.5,0.5")
    assert code == 2
    assert "strictly increasing" in err


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
        lambda spec, pairs, seed=0, budget=0: ScanResult(pairs, pairs - 1, 0, 1, seed),
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
    # the vectorised export is elementwise, so it must reproduce a per-point
    # F_eval loop byte for byte
    import itertools

    from antichain import F_eval, Point, SingularFunctionSpec, SurfaceSpec

    code, out, _ = run_cli(
        capsys, "export-mesh", "--n", str(n), "--resolution", "5", "--format", fmt
    )
    spec = SurfaceSpec(n=n, f=SingularFunctionSpec())
    grid = [(i + 1) / 6 for i in range(5)]
    rows = [[*x, F_eval(spec, Point(x))[0]] for x in itertools.product(grid, repeat=n - 1)]
    if fmt == "csv":
        lines = ["x1,F" if n == 2 else "x1,x2,F"]
        lines += [",".join(format(v, ".17g") for v in row) for row in rows]
        expected = "\n".join(lines) + "\n"
    else:
        payload = {"n": n, "grid": grid, "values": [row[-1] for row in rows]}
        expected = json.dumps(payload, indent=2) + "\n"
    assert code == 0
    assert out == expected


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
