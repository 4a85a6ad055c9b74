"""Command-line front end with reproducible, machine-readable reports.

Commands: eval, check-antichain, length, dimension, projections,
export-mesh.  Reports echo the full effective configuration (seed
included) and are byte-identical across runs with the same config; wall
clock goes to stderr so it cannot perturb report bytes.  Exit codes:
0 success, 1 detected property violation, 2 configuration/resource error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import measure, surface
from .errors import DEFAULT_EVAL_BUDGET, AntichainError, ConfigurationError, check_budget
from .measure import DIMENSION_WINDOWS, PROJECTION_DEFAULTS
from .singular import SALEM, KINDS, SingularFunctionSpec, SingularSetProbe
from .surface import Point, SurfaceSpec

BUDGET_ENV_VAR = "ANTICHAIN_BUDGET"

_CLAMP = 1e-9


@dataclass
class RunConfig:
    """Bag of CLI parameters; one instance drives one command.  It is not
    validated: the library rejects bad values when the command runs.  The
    CLI-only defaults are stated here; the function and probe defaults are
    the library's own."""

    command: str
    n: int = 3
    kind: str = SingularFunctionSpec.kind
    lam: float = SingularFunctionSpec.lam
    depth: int = SingularFunctionSpec.depth
    seed: int = 0
    fmt: str = "json"
    output: str | None = None
    budget: int = DEFAULT_EVAL_BUDGET
    point: tuple[float, ...] = ()
    pairs: int = 1_000_000
    k: int = 22
    k_min: int = 0
    k_max: int = 0
    samples: int = 0
    probe_depth: int = SingularSetProbe.depth
    probe_eps: float = SingularSetProbe.eps
    domain_depth: int = 0
    image_depth: int = 0
    resolution: int = 32

    def function_spec(self) -> SingularFunctionSpec:
        # lam = 1/2 is accepted here and flagged in the report's warnings
        return SingularFunctionSpec(
            kind=self.kind, lam=self.lam, depth=self.depth, allow_non_singular=True
        )

    def surface_spec(self) -> SurfaceSpec:
        return SurfaceSpec(n=self.n, f=self.function_spec())

    def probe(self) -> SingularSetProbe:
        return SingularSetProbe(depth=self.probe_depth, eps=self.probe_eps)


#: per grid command: calibrated defaults by n, the fields they fill, what they are
_GRID_DEFAULTS = {
    "dimension": (DIMENSION_WINDOWS, ("k_min", "k_max", "samples"), "depth window"),
    "projections": (PROJECTION_DEFAULTS, ("domain_depth", "image_depth", "samples"),
                    "projection depths"),
}


def _warnings_for(cfg: RunConfig) -> list[str]:
    notes = []
    if cfg.kind == SALEM and cfg.lam == 0.5:
        notes.append("lambda = 0.5 yields the identity map, which is not singular")
    return notes


def _cmd_eval(cfg: RunConfig) -> dict:
    spec = cfg.surface_spec()
    check_budget(1, cfg.budget)
    if len(cfg.point) != cfg.n - 1:
        raise AntichainError(
            f"--point needs {cfg.n - 1} comma-separated coordinates for n = {cfg.n}"
        )
    clamped = [min(max(c, _CLAMP), 1.0 - _CLAMP) for c in cfg.point]
    was_clamped = list(cfg.point) != clamped
    x = Point(tuple(clamped))
    value, bound = surface.F_eval(spec, x)
    return {
        "point": clamped,
        "input_clamped": was_clamped,
        "F": value,
        "error_bound": bound,
        "graph_point": [*x.coords, value],
    }


def _cmd_check_antichain(cfg: RunConfig) -> dict:
    result = surface.antichain_scan(cfg.surface_spec(), cfg.pairs, seed=cfg.seed,
                                    budget=cfg.budget)
    return {
        "pairs": result.pairs,
        "ordered_ok": result.ordered_ok,
        "within_tolerance": result.within_tolerance,
        "violations": result.violations,
    }


def _cmd_length(cfg: RunConfig) -> dict:
    value = measure.graph_length_n2(cfg.surface_spec(), cfg.k, budget=cfg.budget)
    return {"k": cfg.k, "length": value, "variation_bound": 2.0}


def _cmd_dimension(cfg: RunConfig) -> dict:
    spec = cfg.surface_spec()
    est = measure.box_dimension(spec, cfg.k_min, cfg.k_max, cfg.samples, budget=cfg.budget)
    s, k, finest = spec.n - 1, cfg.k_max, est.counts[-1]
    return {
        "slope": est.slope,
        "intercept": est.intercept,
        "r2": est.r2,
        "depths": list(est.depths),
        "cover_s": s,
        "cover_value_finest": measure.cover_sum(s, spec.n, k, finest),
        "cover_count_finest": finest,
        "cover_value_extrapolated": measure.cover_sum(s, spec.n, k, est.fitted_count(k)),
    }


def _cmd_projections(cfg: RunConfig) -> dict:
    spec = cfg.surface_spec()
    estimates = measure.projection_measures(
        spec,
        cfg.probe(),
        cfg.domain_depth,
        cfg.image_depth,
        cfg.samples,
        seed=cfg.seed,
        budget=cfg.budget,
    )
    return {
        "areas": {str(e.axis): e.area for e in estimates},
        "total": math.fsum(e.area for e in estimates),
        "target": float(spec.n),
    }


def _cmd_export_mesh(cfg: RunConfig) -> str:
    if cfg.n not in (2, 3):
        raise AntichainError(f"mesh export supports n in {{2, 3}}, got n = {cfg.n}")
    if cfg.resolution < 1:
        raise ConfigurationError(f"--resolution must be >= 1, got {cfg.resolution}")
    check_budget(cfg.resolution ** (cfg.n - 1), cfg.budget)
    grid = [(i + 1) / (cfg.resolution + 1) for i in range(cfg.resolution)]
    axes = np.meshgrid(*[np.array(grid)] * (cfg.n - 1), indexing="ij")  # row-major order
    points = np.stack([a.ravel() for a in axes], axis=1)
    values = surface.surface_values(cfg.surface_spec(), points)
    if cfg.fmt == "csv":
        rows = np.column_stack([points, values]).tolist()
        lines = ["x1,F" if cfg.n == 2 else "x1,x2,F"]
        lines += [",".join(_format_float(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    # json floats use shortest round-trip repr, which reproduces binary64 exactly
    return json.dumps({"n": cfg.n, "grid": grid, "values": values.tolist()}, indent=2) + "\n"


def _format_float(v: float) -> str:
    return format(v, ".17g")


def _flatten(prefix: str, obj, out: list[tuple[str, object]]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}{key}.", obj[key], out)
    else:
        out.append((prefix.rstrip("."), obj))


def _report_text(cfg: RunConfig, results: dict) -> str:
    report = {
        "command": cfg.command,
        "config": asdict(cfg),
        "warnings": _warnings_for(cfg),
        "results": results,
    }
    if cfg.fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = [f"# command={cfg.command}"]
    for key in sorted(report["config"]):
        if key != "command":
            lines.append(f"# {key}={report['config'][key]}")
    for note in report["warnings"]:
        lines.append(f"# warning={note}")
    lines.append("key,value")
    flat: list[tuple[str, object]] = []
    _flatten("", results, flat)
    for key, value in flat:
        if isinstance(value, float):
            lines.append(f"{key},{_format_float(value)}")
        elif isinstance(value, list):
            lines.append(f'{key},"{value}"')
        else:
            lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit_code, report_text)."""
    if cfg.command == "export-mesh":
        return 0, _cmd_export_mesh(cfg)
    handlers = {
        "eval": _cmd_eval,
        "check-antichain": _cmd_check_antichain,
        "length": _cmd_length,
        "dimension": _cmd_dimension,
        "projections": _cmd_projections,
    }
    results = handlers[cfg.command](cfg)
    code = 0
    if cfg.command == "check-antichain" and results["violations"] > 0:
        code = 1
    return code, _report_text(cfg, results)


def _add_command(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    """A subcommand parser with the common options.  Options left out stay
    out of the namespace, so ``_config_from_args`` sees which were given."""
    p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
    p.add_argument("--n", type=int, help="ambient dimension")
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--lambda", dest="lam", type=float, help="salem contraction ratio")
    p.add_argument("--depth", type=int, help="evaluation depth in bits")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"))
    p.add_argument("--output", help="report path (default stdout)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antichain",
        description="Evaluate singular-function antichain surfaces and estimate "
                    "their Hausdorff quantities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "eval", "evaluate the surface at one point")
    p.add_argument("--point", required=True,
                   help="comma-separated domain coordinates, e.g. 0.5,0.5")

    p = _add_command(sub, "check-antichain", "seeded comparable-pair scan")
    p.add_argument("--pairs", type=int)

    p = _add_command(sub, "length", "polyline length of the planar graph")
    p.set_defaults(n=2)
    p.add_argument("--k", type=int, help="dyadic partition depth")

    p = _add_command(sub, "dimension", "box-counting dimension regression")
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--samples", type=int, help="sub-grid samples per cell and axis")

    p = _add_command(sub, "projections", "sampled projection areas")
    p.add_argument("--probe-depth", type=int)
    p.add_argument("--probe-eps", type=float)
    p.add_argument("--domain-depth", type=int)
    p.add_argument("--image-depth", type=int)
    p.add_argument("--samples", type=int)

    p = _add_command(sub, "export-mesh", "sample the surface on a grid")
    p.add_argument("--resolution", type=int, help="interior grid points per axis")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run's whole configuration: the options given, then the calibrated
    grid defaults for n where a grid option is missing, then ``RunConfig``'s."""
    given = dict(vars(args))
    if "point" in given:
        given["point"] = tuple(float(tok) for tok in given["point"].split(","))
    budget_override = os.environ.get(BUDGET_ENV_VAR)
    if budget_override is not None:
        given["budget"] = int(budget_override)
    if given["command"] in _GRID_DEFAULTS:
        table, fields, what = _GRID_DEFAULTS[given["command"]]
        if not all(name in given for name in fields):
            n = given.get("n", RunConfig.n)
            if n not in table:
                flags = "/".join("--" + name.replace("_", "-") for name in fields)
                raise AntichainError(f"no default {what} for n = {n}; pass {flags}")
            given = {**dict(zip(fields, table[n])), **given}
    return RunConfig(**given)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _config_from_args(args)
        code, text = run(cfg)
    except (AntichainError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print(f"wall_time_s={time.perf_counter() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
