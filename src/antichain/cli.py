"""Command-line front end with reproducible, machine-readable reports.

Every command takes --kind, --lambda, --depth, --format and --output, and
also: eval --n --point; check-antichain --n --pairs --seed; length --k (n is
2); dimension --n --k-min --k-max --samples; projections --n --seed
--probe-depth --probe-eps --domain-depth --image-depth --samples;
export-mesh --n (2 or 3) --resolution.  Option text no command can run
fails in the parser; a value the library rejects fails when the command
runs.  Reports echo the full effective configuration (seed 0 where nothing
is drawn) and are byte-identical for the same config; wall clock goes to
stderr.  Exit codes: 0 success, 1 detected property violation,
2 configuration/resource error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
from .singular import KINDS, SingularFunctionSpec, SingularSetProbe
from .surface import Point, SurfaceSpec

BUDGET_ENV_VAR = "ANTICHAIN_BUDGET"

_CLAMP = 1e-9

#: CSV format of report floats and mesh values; 17 digits round-trip binary64
_FLOAT_FORMAT = "%.17g"


@functools.cache
def keep_freed_heap() -> None:
    """Keep freed array memory in the process heap, on glibc only; once per process.

    By default glibc raises its mmap threshold to the size of the last mapped
    block freed and its trim threshold to twice that, and gives freed heap
    tops back to the kernel, so each block of a scan or sweep faults its
    MB-sized numpy temporaries in again.  Fixing both thresholds with
    ``mallopt`` turns that adjustment off: blocks under 32 MiB, the most the
    dynamic rule reaches on 64-bit, come from the heap and stay there when
    freed (up to 256 MiB of free heap top is kept); larger arrays are still
    mapped and unmapped.  ``os.confstr`` asks the C library that is running,
    not the interpreter binary; ``ctypes`` is imported here, not at module
    import.  Elsewhere this does nothing.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    if not libc or not libc.startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


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

    def surface_spec(self) -> SurfaceSpec:
        f = SingularFunctionSpec(kind=self.kind, lam=self.lam, depth=self.depth)
        return SurfaceSpec(n=self.n, f=f)


#: per grid command: calibrated defaults by n and the fields they fill
_GRID_DEFAULTS = {
    "dimension": (DIMENSION_WINDOWS, ("k_min", "k_max", "samples")),
    "projections": (PROJECTION_DEFAULTS, ("domain_depth", "image_depth", "samples")),
}


def _warnings_for(cfg: RunConfig) -> list[str]:
    # the library accepts lam = 1/2; only the CLI's reports flag it
    notes = []
    if cfg.lam == 0.5:
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
    return asdict(surface.antichain_scan(cfg.surface_spec(), cfg.pairs, seed=cfg.seed,
                                         budget=cfg.budget))


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
    areas = measure.projection_measures(
        spec,
        SingularSetProbe(depth=cfg.probe_depth, eps=cfg.probe_eps),
        cfg.domain_depth,
        cfg.image_depth,
        cfg.samples,
        seed=cfg.seed,
        budget=cfg.budget,
    )
    return {
        "areas": {str(axis): area for axis, area in areas.items()},
        "total": math.fsum(areas.values()),
        "target": float(spec.n),
    }


def _cmd_export_mesh(cfg: RunConfig) -> str:
    if cfg.resolution < 1:
        raise ConfigurationError(f"--resolution must be >= 1, got {cfg.resolution}")

    def grid_at(i):  # interior grid value i, for an int or an index array alike
        return (i + 1) / (cfg.resolution + 1)

    values = np.concatenate([F.ravel() for _, F in measure.lattice_surface(
        cfg.surface_spec(), cfg.resolution, grid_at, cfg.budget)])
    grid = [grid_at(i) for i in range(cfg.resolution)]
    if cfg.fmt == "csv":
        # each grid value is formatted once; product() walks the lattice's
        # row-major order, and one % fills in the F column
        cells = [_FLOAT_FORMAT % x for x in grid]
        template = "".join(f"{','.join(prefix)},{_FLOAT_FORMAT}\n"
                           for prefix in itertools.product(cells, repeat=cfg.n - 1))
        header = "".join(f"x{i}," for i in range(1, cfg.n)) + "F\n"
        return header + template % tuple(values.tolist())
    # json floats use shortest round-trip repr, which reproduces binary64 exactly
    return json.dumps({"n": cfg.n, "grid": grid, "values": values.tolist()}, indent=2,
                      allow_nan=False) + "\n"


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
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    lines = [f"# command={cfg.command}"]
    lines += [f"# {key}={value}" for key, value in sorted(report["config"].items())
              if key != "command"]
    lines += [f"# warning={note}" for note in report["warnings"]]
    lines.append("key,value")
    flat: list[tuple[str, object]] = []
    _flatten("", results, flat)
    for key, value in flat:
        if isinstance(value, float):
            lines.append(f"{key},{_FLOAT_FORMAT % value}")
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
    code = 1 if cfg.command == "check-antichain" and results["violations"] > 0 else 0
    return code, _report_text(cfg, results)


def _finite(text: str) -> float:
    """A float option's value; argparse names the option whose text fails."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below, with the non-finite numbers
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _point(text: str) -> tuple[float, ...]:
    try:
        return tuple(map(_finite, text.split(",")))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers such as 0.5,0.25, got {text!r}"
        ) from None


def _add_command(sub, name: str, help_text: str,
                 dims: tuple[int, ...] | None = None) -> argparse.ArgumentParser:
    """A subcommand parser with the common options; ``dims`` are the n it runs
    (None: any; one value is fixed, with no ``--n``).  Options left out stay
    out of the namespace, so ``_config_from_args`` sees which were given."""
    p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
    if dims is not None and len(dims) == 1:
        p.set_defaults(n=dims[0])
    else:
        p.add_argument("--n", type=int, choices=dims, help="ambient dimension")
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--lambda", dest="lam", type=_finite, help="salem contraction ratio")
    p.add_argument("--depth", type=int, help="evaluation depth in bits")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"))
    p.add_argument("--output", help="report path (default stdout)")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each ``parse_args`` call
    makes a fresh namespace, so no call's options reach the next."""
    parser = argparse.ArgumentParser(
        prog="antichain",
        description="Evaluate singular-function antichain surfaces and estimate "
                    "their Hausdorff quantities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "eval", "evaluate the surface at one point")
    p.add_argument("--point", type=_point, required=True,
                   help="comma-separated domain coordinates, e.g. 0.5,0.5")

    p = _add_command(sub, "check-antichain", "seeded comparable-pair scan")
    p.add_argument("--pairs", type=int)
    p.add_argument("--seed", type=int)

    p = _add_command(sub, "length", "polyline length of the planar graph", dims=(2,))
    p.add_argument("--k", type=int, help="dyadic partition depth")

    p = _add_command(sub, "dimension", "box-counting dimension regression")
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--samples", type=int, help="sub-grid samples per cell and axis")

    p = _add_command(sub, "projections", "sampled projection areas")
    p.add_argument("--seed", type=int)
    p.add_argument("--probe-depth", type=int)
    p.add_argument("--probe-eps", type=_finite)
    p.add_argument("--domain-depth", type=int)
    p.add_argument("--image-depth", type=int)
    p.add_argument("--samples", type=int)

    p = _add_command(sub, "export-mesh", "sample the surface on a grid", dims=(2, 3))
    p.add_argument("--resolution", type=int, help="interior grid points per axis")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run's whole configuration: the options given, then the calibrated
    grid defaults for n where a grid option is missing, then ``RunConfig``'s."""
    given = dict(vars(args))
    budget_override = os.environ.get(BUDGET_ENV_VAR)
    if budget_override is not None:
        try:
            given["budget"] = int(budget_override)
        except ValueError:
            raise ConfigurationError(
                f"{BUDGET_ENV_VAR} must be an integer, got {budget_override!r}"
            ) from None
    if given["command"] in _GRID_DEFAULTS:
        table, fields = _GRID_DEFAULTS[given["command"]]
        missing = [name for name in fields if name not in given]
        n = given.get("n", RunConfig.n)
        if missing and n not in table:
            flags = "/".join("--" + name.replace("_", "-") for name in missing)
            raise AntichainError(f"no calibrated {given['command']} defaults for n = {n}; "
                                 f"pass {flags}")
        given = {**dict(zip(fields, table.get(n, ()))), **given}
    return RunConfig(**given)


def main(argv: list[str] | None = None) -> int:
    keep_freed_heap()
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
