"""Record of the machine, the numerical stack and the code a result came from."""
from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Pin BLAS and OpenMP pools to one thread; must run before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread variables must be pinned before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _memory_mb() -> float | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
    except (ValueError, OSError):
        return None


def _git_commit(root: Path) -> str | None:
    # Only a checkout that is itself a git work tree names its commit; a plain
    # copy must not report the commit of some enclosing repository.
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_record(package: Path) -> dict:
    files = sorted(package.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"files": len(files), "lines": lines, "sha256": digest.hexdigest()}


def _blas_config(numpy) -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {}
    return {key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")}
            for key in ("blas", "lapack") if key in deps}


def environment_record(root: Path) -> dict:
    import numpy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "machine": {
            "nproc": affinity,
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "memory_mb": _memory_mb(),
            "platform": platform.platform(),
        },
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas_config(numpy),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(root),
        "src_floqmet": _source_record(root / "src" / "floqmet"),
    }
