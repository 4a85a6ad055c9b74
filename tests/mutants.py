"""Mutation check of the bound code and of the projection's F-cell and mark-table code
(DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE Computer, 1978).

Each mutant is one exact text replacement in one source file, with the tests that
must fail once it is applied.  Usage, from the repository root::

    python tests/mutants.py                      # every mutant
    python tests/mutants.py table-margin discard-row-0    # some of them, by name

The working tree's ``src``, ``tests`` and ``pyproject.toml`` are copied into a
temporary directory.  All the named tests run there first on the unmutated copy
and must pass.  Then each mutant is applied alone and its tests run with ``-x``.
A mutant whose tests all pass fails the run, unless the list marks it as one that
survives, with the reason no input can tell it from the original.  The wall time
of each step and of the whole run is printed.  The file is not collected by the
tier-1 suite: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SURFACE = "src/antichain/surface.py"
_MEASURE = "src/antichain/measure.py"
_TS = "tests/test_surface.py::"
_TM = "tests/test_measure.py::"
_STRADDLE_CASE = f"{_TM}test_projection_matches_per_axis_reference_where_cells_straddle[{{}}]"
# image depths past the table depth, whose low image digits are or-ed into the mark
# table's entry, and up to it, where the entry is the whole mark
_STRADDLE = [_STRADDLE_CASE.format(case)
             for case in ("n2-image14", "n3-image9", "n4-image8", "n5-image6")]
_STRADDLE_TABLE = [_STRADDLE_CASE.format(case) for case in ("depth10", "n3-image8")]
_PER_AXIS = [f"{_TM}test_projection_matches_per_axis_reference[0.25]"]
_MARK_TABLE = f"{_TM}test_mark_table_holds_each_rows_code_on_each_box"
_BRACKET = f"{_TS}test_F_sides_bracket_the_exact_one_minus_p[{{}}]"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    survives: str = ""  # why no input tells it from the original, if none does


MUTANTS = [
    # the bound kernel: P a product of running maxima, which overstates p at m >= 3
    Mutant("sides-product-of-maxima", _SURFACE, "np.multiply(P, np.minimum(M, c), out=P)",
           "np.multiply(P, np.maximum(M, c), out=P)",
           (*map(_BRACKET.format, (3, 6)), f"{_TS}test_enclosure_contains_exact_F[0.25-7-52]")),
    # no allowance for p's rounding
    Mutant("sides-slack-dropped", _SURFACE, "slack = (len(corners) + 4) * 2.0**-52",
           "slack = 0.0", tuple(map(_BRACKET.format, (1, 2, 5)))),
    # the f box without the spacings that absorb the roundings of its own sums
    Mutant("f-box-spare-spacings", _SURFACE, "r *= 2 * f.rounding_ulps + 2",
           "r *= 2 * f.rounding_ulps",
           (f"{_TS}test_f_box_holds_a_cell_rise_above_the_farthest_value[0.25]",)),
    # the margin decides the boxes whose bounds lie within it of an image edge
    Mutant("table-margin", _SURFACE, "_MARK_MARGIN = 2.0**-40", "_MARK_MARGIN = 0.0",
           (f"{_TS}test_F_cell_table_leaves_a_box_open_when_a_bound_is_within_the_margin",)),
    Mutant("table-margin-2^-50", _SURFACE, "_MARK_MARGIN = 2.0**-40", "_MARK_MARGIN = 2.0**-50",
           (f"{_TS}test_F_cell_table_leaves_a_box_open_when_a_bound_is_within_the_margin",)),
    # the box's cells read in the other axis order
    Mutant("index-axes-swapped", _SURFACE, "(ids >> t * (d - 1 - j))", "(ids >> t * j)",
           (f"{_TS}test_F_cell_table_holds_F_on_its_boxes[0.25-3]", *_STRADDLE),
           survives="F is symmetric in its coordinates, so a box and its axes' permutation "
                    "have one image: every entry is sound under either axis order (the bounds "
                    "at d >= 3 may differ by ulps, so an entry may be open in one order only, "
                    "which changes no mark)"),
    Mutant("last-batch-unsent", _MEASURE, "    if held:\n        send()\n", "",
           (*_STRADDLE, *_PER_AXIS)),
    Mutant("batch-cap-dropped", _MEASURE,
           "part in held) + todo.size > _CHUNK_ROWS:", "part in held) + todo.size > 2**62:",
           (f"{_TM}test_projection_sends_held_rows_before_a_batch_would_pass_the_chunk",)),
    Mutant("sent-F-cell-word-row-0", _MEASURE,
           "words.reshape(-1)[np.arange(rows.size) + rows * rows.size] = (",
           "words.reshape(-1)[np.arange(rows.size)] = (", (*_STRADDLE, *_PER_AXIS)),
    # the mark table: an open box's entry left as the code its -1 makes, not -1 itself
    Mutant("mark-table-open-box-code", _MEASURE, "                codes[F < 0] = -1\n", "",
           (_MARK_TABLE,)),
    # F's cell put in coordinate 0 on every piece row
    Mutant("mark-table-F-in-coordinate-0", _MEASURE, "axes[1 + r] = F", "axes[1] = F",
           (f"{_MARK_TABLE}[3]", *_PER_AXIS, *_STRADDLE_TABLE)),
    # the rows of no piece (label 0) marked in occupancy row 0, piece 1's, not the discard row
    Mutant("discard-row-0", _MEASURE, "row = np.r_[n, :n]", "row = np.r_[0, :n]",
           (*_PER_AXIS, *_STRADDLE_TABLE)),
    # the mark table's -1 taken for a code: open boxes' rows are never sent to _F_cells
    Mutant("mark-table-sentinel-skipped", _MEASURE, "todo = np.flatnonzero(codes < 0)",
           "todo = np.flatnonzero(codes < -1)", (*_PER_AXIS, *_STRADDLE_TABLE)),
    # past the table depth, a piece row's own low digits of x_i or-ed into F's cell
    Mutant("image-keep-dropped", _MEASURE, "            image &= keep.take(rows)\n", "",
           tuple(_STRADDLE)),
    # the field each piece row clears taken in the reverse axis order
    Mutant("keep-axes-reversed", _MEASURE, "image_depth * np.arange(d - 1, -1, -1))",
           "image_depth * np.arange(d))", tuple(_STRADDLE)),
]


def _pytest(copy: Path, tests, *flags: str) -> tuple[bool, float]:
    """Run ``tests`` in ``copy``; (passed, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *flags, *tests], cwd=copy, env=env, capture_output=True, text=True)
    return done.returncode == 0, time.perf_counter() - start


def main(names: list[str]) -> int:
    start = time.perf_counter()
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        tests = sorted({t for m in mutants for t in m.tests})
        passed, wall = _pytest(copy, tests)
        print(f"unmutated: {len(tests)} tests {'pass' if passed else 'FAIL'} ({wall:.1f} s)")
        if not passed:
            return 1
        for m in mutants:
            path = copy / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: STALE, the old text occurs {text.count(m.old)} times in {m.path}")
                failed = True
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                survived, wall = _pytest(copy, m.tests, "-x")
            finally:
                path.write_text(text)
            if survived and m.survives:
                print(f"{m.name}: survives, as listed ({wall:.1f} s): {m.survives}")
            elif survived:
                print(f"{m.name}: SURVIVED {len(m.tests)} tests ({wall:.1f} s)")
                failed = True
            else:
                note = " (listed as surviving: update the list)" if m.survives else ""
                print(f"{m.name}: killed ({wall:.1f} s){note}")
                failed |= bool(m.survives)
    print(f"{len(mutants)} mutants in {time.perf_counter() - start:.1f} s")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
