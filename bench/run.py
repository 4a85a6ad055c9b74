"""Benchmark of the ``antichain`` command line, end to end and per module.

Usage, from the repository root::

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

One run drives ``antichain.cli.main`` in this process, one invocation after
another (a closed loop with one client and no added threads), for about
``--seconds`` seconds after one warm-up invocation.  Every report is checked
(see ``workloads.py``).  The seed fixes the CLI seeds of the invocations.

``--trace 0`` reports the end-to-end metrics: the median invocation wall
time, work items per second at that time, the process's peak RSS, the
median of several set-up times measured in fresh interpreters spread over
the run, and the share of invocations whose exit code and output check
passed.  The host's speed drifts by up to half over seconds and minutes, so
every invocation and set-up time is scaled to a reference host by a fixed
probe timed just before and after it (see ``hostspeed.py``); the raw times
and probe times are written to the result file alongside.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of the traced ones (medians over invocations) plus the
tracing overhead, the fastest traced invocation minus the fastest untraced
one.  All spans and the full per-layer summary go to a sidecar file in
``bench/out``.

``--smoke`` runs every workload at a tiny size in both modes and fails
unless every metric declared in ``BENCHMARK.json`` appears with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import env  # noqa: E402
import hostspeed  # noqa: E402

env.pin_threads()  # before numpy is imported, here or in set-up children

WORKLOAD_NAMES = ("scan", "cover", "projections", "mesh")

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "singular.evaluate_many.calls": "count",
    "singular.evaluate_many.elems": "count",
    "singular.evaluate_many.self_s": "s",
    "singular.evaluate_many.ns_per_elem": "ns",
    "singular.dyadic_slopes_many.elems": "count",
    "singular.dyadic_slopes_many.self_s": "s",
    "singular.dyadic_slopes_many.ns_per_elem": "ns",
    "surface.surface_values.calls": "count",
    "surface.surface_values.rows": "count",
    "surface.surface_values.self_s": "s",
    "surface.antichain_scan.self_s": "s",
    "surface.antichain_scan.peak_bytes": "B",
    "surface.F_eval.calls": "count",
    "surface.F_eval.us_per_call": "us",
    "measure.occupied_cell_count.calls": "count",
    "measure.occupied_cell_count.evals": "count",
    "measure.occupied_cell_count.cells": "count",
    "measure.occupied_cell_count.self_s": "s",
    "measure.cells_per_eval": "ratio",
    "measure.projection_measures.samples": "count",
    "measure.projection_measures.self_s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_s": "s",
}

#: fresh-interpreter set-up measurements per untraced run (median reported)
SETUP_REPS = 12

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
from antichain import cli
parser = cli.build_parser()
for argv in {argvs!r}:
    a = parser.parse_args(argv)
    cli.RunConfig(command=a.command, n=a.n, kind=a.kind, lam=a.lam, depth=a.depth).surface_spec()
print(time.perf_counter() - start)
"""


def setup_command(size: str) -> list[str]:
    """A fresh interpreter that prints the seconds it took to import the
    package, build the parser and build every workload's surface spec."""
    import workloads

    argvs = [workloads.argv_for(w, size, 0) for w in WORKLOAD_NAMES]
    return [sys.executable, "-c", SETUP_CODE.format(src=str(SRC), argvs=argvs)]


def setup_once(command: list[str]) -> float:
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Invokes one workload's CLI command repeatedly and checks each report."""

    def __init__(self, workload: str, size: str, seed: int) -> None:
        import workloads
        from antichain import cli

        self.workload, self.size = workload, size
        self.cli, self.workloads = cli, workloads
        self.reference = workloads.load_reference()
        self.seed = seed
        self.attempted = self.failed = 0

    def once(self, tracer=None) -> float:
        """One checked invocation, traced when a tracer is given; returns wall seconds.

        The i-th invocation of a run uses workload seed ``seed + i``.
        """
        argv = self.workloads.argv_for(self.workload, self.size, self.seed + self.attempted)
        out = io.StringIO()
        traced = tracer.installed() if tracer is not None else contextlib.nullcontext()
        code, crash = None, ""
        with traced, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed invocation, not a failed benchmark
                crash = traceback.format_exc()
            wall = time.perf_counter() - start
        self.attempted += 1
        if code is None:
            reason = "raised:\n" + crash
        else:
            try:
                reason = self.workloads.check(self.workload, self.size, argv, code,
                                              out.getvalue(), self.reference)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"malformed report: {exc!r}"
        if reason is not None:
            self.failed += 1
            print(f"check failed for {' '.join(argv)}: {reason}", file=sys.stderr)
        return wall


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def untraced(runner: Runner, seconds: int, setup_reps: int) -> tuple[dict, dict]:
    command = setup_command(runner.size)
    runner.once()  # warm-up: imports, allocator and caches settle
    clock = hostspeed.Clock()
    walls, walls_ref, setup, setup_ref = [], [], [], []

    def setup_sample() -> None:
        raw, ref = clock.measure(lambda: setup_once(command))
        setup.append(raw)
        setup_ref.append(ref)

    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        raw, ref = clock.measure(runner.once)
        walls.append(raw)
        walls_ref.append(ref)
        # spread set-up samples over the run so they meet the same host phases
        elapsed = time.perf_counter() - start
        if len(setup) < setup_reps and elapsed >= len(setup) * seconds / setup_reps:
            setup_sample()
    while len(setup) < setup_reps:
        setup_sample()
    wall = statistics.median(walls_ref)
    items = runner.workloads.items(runner.workload, runner.size)
    metrics = _with_units({
        "wall_s": wall,
        "items_per_s": items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_ref),
        "ok_ratio": 1.0 - runner.failed / runner.attempted,
    }, END_TO_END_UNITS)
    return metrics, {"walls_s": walls, "setup_s": setup, "probes_s": clock.probes,
                     "items": items, "wall_median_s": statistics.median(walls),
                     "setup_median_s": statistics.median(setup)}


def layer_metrics(summary: dict) -> dict[str, float]:
    """The declared per-layer metrics of one traced invocation."""

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    ev, ds = "singular.evaluate_many", "singular.dyadic_slopes_many"
    sv, scan, fe = "surface.surface_values", "surface.antichain_scan", "surface.F_eval"
    occ, proj = "measure.occupied_cell_count", "measure.projection_measures"
    return {
        f"{ev}.calls": get(ev, "calls"),
        f"{ev}.elems": get(ev, "elems"),
        f"{ev}.self_s": get(ev, "self_s"),
        f"{ev}.ns_per_elem": per(get(ev, "self_s"), get(ev, "elems"), 1e9),
        f"{ds}.elems": get(ds, "elems"),
        f"{ds}.self_s": get(ds, "self_s"),
        f"{ds}.ns_per_elem": per(get(ds, "self_s"), get(ds, "elems"), 1e9),
        f"{sv}.calls": get(sv, "calls"),
        f"{sv}.rows": get(sv, "rows"),
        f"{sv}.self_s": get(sv, "self_s"),
        f"{scan}.self_s": get(scan, "self_s"),
        f"{scan}.peak_bytes": get(scan, "peak_bytes"),
        f"{fe}.calls": get(fe, "calls"),
        f"{fe}.us_per_call": per(get(fe, "total_s"), get(fe, "calls"), 1e6),
        f"{occ}.calls": get(occ, "calls"),
        f"{occ}.evals": get(occ, "evals"),
        f"{occ}.cells": get(occ, "cells"),
        f"{occ}.self_s": get(occ, "self_s"),
        "measure.cells_per_eval": per(get(occ, "cells"), get(occ, "evals")),
        f"{proj}.samples": get(proj, "samples"),
        f"{proj}.self_s": get(proj, "self_s"),
        "cli.run.self_s": get("cli.run", "self_s"),
    }


def traced(runner: Runner, seconds: int) -> tuple[dict, dict]:
    import tracing

    origin = time.perf_counter()
    runner.once()
    runner.once(tracing.Tracer(origin))  # warm-up of the traced path, discarded
    plain, timed, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        plain.append(runner.once())
        tracers.append(tracing.Tracer(origin))
        timed.append(runner.once(tracers[-1]))
    summaries = [tracing.summarize(t.spans) for t in tracers]
    per_invocation = [layer_metrics(s) for s in summaries]
    values = {name: statistics.median(m[name] for m in per_invocation)
              for name in per_invocation[0]}
    values["trace.overhead_s"] = min(timed) - min(plain)
    metrics = _with_units(values, PER_LAYER_UNITS)
    layers = sorted({name for s in summaries for name in s})
    self_share = {
        name: statistics.median(s.get(name, {}).get("self_s", 0.0) / w
                                for s, w in zip(summaries, timed))
        for name in layers
    }
    names = {name: i for i, name in enumerate(layers)}
    sidecar = {
        "untraced_walls_s": plain,
        "traced_walls_s": timed,
        "self_share_of_wall": self_share,
        "layers_per_invocation": summaries,
        "span_fields": ["name", "start_s", "end_s", "parent", "counts"],
        "span_names": layers,
        "spans_per_invocation": [
            [[names[s[0]], s[1], s[2], s[3], s[4]] for s in t.spans] for t in tracers
        ],
    }
    return metrics, sidecar


def bench(workload: str, size: str, seed: int, seconds: int, trace_on: bool,
          setup_reps: int) -> dict:
    runner = Runner(workload, size, seed)
    if trace_on:
        metrics, extra = traced(runner, seconds)
    else:
        metrics, extra = untraced(runner, seconds, setup_reps)
    record = {
        "workload": workload, "size": size, "seed": seed, "seconds": seconds,
        "trace": int(trace_on), "machine": env.machine(ROOT),
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed, "metrics": metrics, **extra,
    }
    OUT.mkdir(exist_ok=True)
    kind = "trace" if trace_on else "result"
    path = OUT / f"{kind}-{workload}-{size}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    record["path"] = str(path.relative_to(ROOT))
    return record


def print_record(record: dict) -> None:
    print(f"# workload={record['workload']} size={record['size']} seed={record['seed']} "
          f"trace={record['trace']} attempted={record['attempted']} failed={record['failed']}")
    print(f"# machine={json.dumps(record['machine'], sort_keys=True)}")
    print(f"# written to {record['path']}")
    if "wall_median_s" in record:
        print(f"# raw median invocation {record['wall_median_s']:.6g} s over "
              f"{len(record['walls_s'])}, raw median set-up {record['setup_median_s']:.6g} s, "
              f"median probe {statistics.median(record['probes_s']):.6g} s")
    if "self_share_of_wall" in record:
        top = max(record["self_share_of_wall"].items(), key=lambda kv: kv[1])
        print(f"# largest self time: {top[0]} ({top[1]:.1%} of traced wall)")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def smoke() -> int:
    """Every workload at its tiny size, both modes; checks the declared names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    attempted = failed = 0
    for workload in WORKLOAD_NAMES:
        for trace_on, key in ((False, "end_to_end"), (True, "per_layer")):
            record = bench(workload, "smoke", 0, 0, trace_on, setup_reps=1)
            print_record(record)
            attempted += record["attempted"]
            failed += record["failed"]
            for decl in declared[key]:
                got = record["metrics"].get(decl["name"])
                if got is None or got.get("unit") != decl["unit"]:
                    problems.append(f"{workload}: {decl['name']} [{decl['unit']}] got {got}")
    for problem in problems:
        print(f"missing or mis-unitted metric: {problem}", file=sys.stderr)
    ok = not problems and failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check metric names")
    args = parser.parse_args(argv)
    if not (SRC / "antichain" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    record = bench(args.workload, "full", args.seed, args.seconds, bool(args.trace), SETUP_REPS)
    print_record(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
