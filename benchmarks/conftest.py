"""Shared benchmark fixtures.

The full RM3D reference trace (the paper's 128x32x32, 3-level, 800+ coarse
step run) takes ~30 s to generate; :mod:`repro.experiments.common` builds
it once and caches it on disk under ``.cache/``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.amr.trace import AdaptationTrace
from repro.experiments.common import rm3d_reference_trace

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "tests" / "reference"


@pytest.fixture(scope="session")
def rm3d_trace() -> AdaptationTrace:
    return rm3d_reference_trace()


@pytest.fixture(scope="session")
def reference():
    """Loader for the frozen scalar oracles under ``tests/reference/``."""

    def load(name: str):
        spec = importlib.util.spec_from_file_location(
            name, REFERENCE_DIR / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
