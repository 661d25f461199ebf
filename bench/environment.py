"""Process set-up shared by the benchmark's entry points, and the run manifest.

Import this before numpy: prepare() pins the thread pools and puts the
checkout's own ``src/`` first on the import path.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def prepare() -> Path:
    """Pin thread pools to one thread and import critspde from ROOT/src.

    Exits with status 2 when the checkout has no source tree, so the
    benchmark never measures some other installed copy.
    """
    package = ROOT / "src" / "critspde" / "__init__.py"
    if not package.is_file():
        sys.stderr.write(f"benchmark: no source tree at {package.parent}\n")
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return ROOT


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_state() -> dict:
    """Commit and dirty flag; both None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    if head.returncode or status.returncode:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(),
            "dirty": bool(status.stdout.strip())}


def manifest(workload: str, seed: int, traced: bool, seconds: float,
             params: dict) -> dict:
    import numpy

    import critspde

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "params": params,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "critspde": critspde.__version__,
        "git": _git_state(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
