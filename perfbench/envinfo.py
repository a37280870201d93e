"""Environment stamp recorded with every run, and the import-time breakdown
from `python -X importtime`."""

from __future__ import annotations

import ctypes
import os
import re
import statistics
import subprocess
import sys

import numpy as np
import scipy


def _lscpu_caches() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=20).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    return {m.group(1): m.group(2).strip()
            for m in re.finditer(r"^(L\d\w? cache):\s*(.+)$", text, re.MULTILINE)}


def _openblas() -> dict:
    """Version string and thread count of each OpenBLAS loaded by numpy/scipy."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                info = {"threads": threads(), "config": config().decode()}
                break
            if info:
                break
        out[os.path.basename(path)] = info
    return out


def stamp() -> dict:
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if it has one)

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _lscpu_caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def import_breakdown(root, env, repeats: int = 3) -> tuple[float, float]:
    """Medians, in seconds, of the cumulative import time of the top-level
    gaborflow modules and of the summed self time of every scipy module, from
    `python -X importtime`."""
    totals, scipys = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gaborflow.cli"],
                              env=env, cwd=root, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import gaborflow.cli failed: {proc.stderr[-500:]}")
        total = scipy_self = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)", line)
            if not m:
                continue
            self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
            if len(m.group(3)) == 1 and name.split(".")[0] == "gaborflow":
                total += cum_us
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += self_us
        totals.append(total / 1e6)
        scipys.append(scipy_self / 1e6)
    return statistics.median(totals), statistics.median(scipys)
