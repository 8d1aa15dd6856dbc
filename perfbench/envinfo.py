"""Environment stamp attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

import numpy as np

_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_info():
    """(name, version, thread count) of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError):
        name, version = "unknown", "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                threads = int(query())
                break
        if threads is not None:
            break
    return name, version, threads


def git_state(root):
    """(commit, dirty) of the checkout, or (None, None) outside a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None, None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, check=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                                capture_output=True, text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def stamp(root):
    name, version, threads = blas_info()
    commit, dirty = git_state(root)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{name} {version}",
        "blas_threads": threads,
        # what `nproc` prints: the CPUs this process may run on
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": commit,
        "git_dirty": dirty,
    }
