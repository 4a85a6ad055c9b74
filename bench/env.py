"""Machine and source identity recorded with every benchmark result.

Importing this module touches nothing; ``pin_threads`` must run before
numpy is imported for the thread limits to take effect.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """Limit native thread pools to one thread: the benchmark's load is one
    process with no added threads, and 1 never exceeds ``nproc``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_identity(root: Path) -> dict:
    """Git commit when the tree is a repository, and always a digest of the
    package sources, since benchmark checkouts carry no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "antichain").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"git_commit": _git_commit(root), "src_sha256": digest.hexdigest()}


def machine(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        **source_identity(root),
    }
