"""Environment record attached to every benchmark result.

Nothing here is hashed: the output digests cover CSVs and parameters only.
`blas_key` names what decides float64 results bit for bit (numpy build,
the BLAS kernel OpenBLAS picked for this CPU, BLAS thread count), so stored
digests are compared only where it matches.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path


def numpy_blas() -> dict:
    """numpy version and BLAS build/runtime description; call after numpy is imported."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs / "libscipy_openblas*.so*")):
        try:
            get_config = ctypes.CDLL(lib_path).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.restype = ctypes.c_char_p
        info["blas_runtime"] = get_config().decode()
    info["blas_key"] = (
        f"numpy {info['numpy']}; {info['blas_runtime'] or info['blas']}; "
        f"OPENBLAS_NUM_THREADS={info['OPENBLAS_NUM_THREADS']}"
    )
    return info


def host(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD of the repository at `root`, or None when it is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None
