"""Locate and import the package under test from the checkout's own sources.

Uses the standard library only, so that a fresh process can time
``import oplebesgue`` without numpy already loaded.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: the machine has two cores and the benchmark is a single
# closed-loop caller, so a second BLAS thread would only add scheduling noise.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class PackageMissing(RuntimeError):
    """The checkout holds no importable copy of the package."""


def pin_blas_threads(env=None) -> dict:
    """Set the BLAS thread variables in ``env`` (default: this process)."""
    env = os.environ if env is None else env
    for var in _BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def child_env() -> dict:
    """Environment for a child process that runs the package from SRC."""
    env = pin_blas_threads(dict(os.environ))
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def load(module: str = "oplebesgue"):
    """Import ``module`` from SRC and refuse any copy installed elsewhere."""
    if not (SRC / "oplebesgue" / "__init__.py").is_file():
        raise PackageMissing(f"no package sources under {SRC.relative_to(ROOT)}/oplebesgue")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mod = importlib.import_module(module)
    origin = Path(importlib.import_module("oplebesgue").__file__).resolve()
    if SRC not in origin.parents:
        raise PackageMissing(f"oplebesgue was imported from {origin}, not from the checkout")
    return mod
