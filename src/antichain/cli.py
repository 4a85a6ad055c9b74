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
    """Validated bag of CLI parameters; one instance drives one command."""

    command: str
    n: int = 3
    kind: str = SALEM
    lam: float = 0.25
    depth: int = 52
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
    probe_depth: int = 40
    probe_eps: float = 0.01
    domain_depth: int = 0
    image_depth: int = 0
    resolution: int = 32

    def function_spec(self) -> SingularFunctionSpec:
        allow = self.kind == SALEM and self.lam == 0.5
        return SingularFunctionSpec(
            kind=self.kind, lam=self.lam, depth=self.depth, allow_non_singular=allow
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


def _fill_grid_defaults(cfg: RunConfig) -> None:
    if cfg.command not in _GRID_DEFAULTS:
        return
    table, fields, what = _GRID_DEFAULTS[cfg.command]
    if all(getattr(cfg, name) for name in fields):
        return
    if cfg.n not in table:
        flags = "/".join("--" + name.replace("_", "-") for name in fields)
        raise AntichainError(f"no default {what} for n = {cfg.n}; pass {flags}")
    for name, default in zip(fields, table[cfg.n]):
        setattr(cfg, name, getattr(cfg, name) or default)


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
        "total": sum(e.area for e in estimates),
        "target": float(spec.n),
    }


def _cmd_export_mesh(cfg: RunConfig) -> tuple[dict, list[list[float]]]:
    if cfg.n not in (2, 3):
        raise AntichainError(f"mesh export supports n in {{2, 3}}, got n = {cfg.n}")
    if cfg.resolution < 1:
        raise ConfigurationError(f"--resolution must be >= 1, got {cfg.resolution}")
    check_budget(cfg.resolution ** (cfg.n - 1), cfg.budget)
    grid = [(i + 1) / (cfg.resolution + 1) for i in range(cfg.resolution)]
    axes = np.meshgrid(*[np.array(grid)] * (cfg.n - 1), indexing="ij")  # row-major order
    points = np.stack([a.ravel() for a in axes], axis=1)
    values = surface.surface_values(cfg.surface_spec(), points)
    rows = np.column_stack([points, values]).tolist()
    payload = {"n": cfg.n, "grid": grid, "values": values.tolist()}
    return payload, rows


def _format_float(v: float) -> str:
    return format(v, ".17g")


def _mesh_text(cfg: RunConfig, payload: dict, rows: list[list[float]]) -> str:
    if cfg.fmt == "csv":
        header = "x1,F" if cfg.n == 2 else "x1,x2,F"
        lines = [header]
        lines += [",".join(_format_float(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    # json floats use shortest round-trip repr, which reproduces binary64 exactly
    return json.dumps(payload, indent=2) + "\n"


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
    _fill_grid_defaults(cfg)
    if cfg.command == "export-mesh":
        payload, rows = _cmd_export_mesh(cfg)
        return 0, _mesh_text(cfg, payload, rows)
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


def _add_common(p: argparse.ArgumentParser, default_n: int = 3) -> None:
    p.add_argument("--n", type=int, default=default_n, help="ambient dimension")
    p.add_argument("--kind", choices=KINDS, default=SALEM)
    p.add_argument("--lambda", dest="lam", type=float, default=0.25,
                   help="salem contraction ratio")
    p.add_argument("--depth", type=int, default=52, help="evaluation depth in bits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="report path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antichain",
        description="Evaluate singular-function antichain surfaces and estimate "
                    "their Hausdorff quantities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the surface at one point")
    _add_common(p)
    p.add_argument("--point", required=True,
                   help="comma-separated domain coordinates, e.g. 0.5,0.5")

    p = sub.add_parser("check-antichain", help="seeded comparable-pair scan")
    _add_common(p)
    p.add_argument("--pairs", type=int, default=1_000_000)

    p = sub.add_parser("length", help="polyline length of the planar graph")
    _add_common(p, default_n=2)
    p.add_argument("--k", type=int, default=22, help="dyadic partition depth")

    p = sub.add_parser("dimension", help="box-counting dimension regression")
    _add_common(p)
    p.add_argument("--k-min", type=int, default=0)
    p.add_argument("--k-max", type=int, default=0)
    p.add_argument("--samples", type=int, default=0,
                   help="sub-grid samples per cell and axis")

    p = sub.add_parser("projections", help="projection lower-bound areas")
    _add_common(p)
    p.add_argument("--probe-depth", type=int, default=40)
    p.add_argument("--probe-eps", type=float, default=0.01)
    p.add_argument("--domain-depth", type=int, default=0)
    p.add_argument("--image-depth", type=int, default=0)
    p.add_argument("--samples", type=int, default=0)

    p = sub.add_parser("export-mesh", help="sample the surface on a grid")
    _add_common(p)
    p.add_argument("--resolution", type=int, default=32,
                   help="interior grid points per axis")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in vars(args):
        if name == "point":
            cfg.point = tuple(float(tok) for tok in args.point.split(","))
        elif hasattr(cfg, name):
            setattr(cfg, name, getattr(args, name))
    budget_override = os.environ.get(BUDGET_ENV_VAR)
    if budget_override is not None:
        cfg.budget = int(budget_override)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _config_from_args(args)
        code, text = run(cfg)
    except (AntichainError, ValueError) as exc:
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
