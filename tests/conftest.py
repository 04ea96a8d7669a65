from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from famsplit.matrix import CrossErrorMatrix, synth_matrix


def make_matrix(values, families=None) -> CrossErrorMatrix:
    grid = np.asarray(values, dtype=np.float64)
    if families is None:
        families = tuple(f"fam{i:02d}" for i in range(grid.shape[0]))
    return CrossErrorMatrix(tuple(families), grid)


def traced(fn):
    """fn()'s result, the bytes it still held on return and the most it held
    at once, by tracemalloc.

    numpy reports its array buffers to tracemalloc, so arrays count too.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, held - before, peak - before
    finally:
        tracemalloc.stop()


def traced_peak(fn):
    """fn()'s result and the most bytes it held at once (see traced)."""
    result, _, peak = traced(fn)
    return result, peak


def constant_matrix(k: int, value: float, diag: float = 1.0) -> CrossErrorMatrix:
    grid = np.full((k, k), value)
    np.fill_diagonal(grid, diag)
    return make_matrix(grid)


@pytest.fixture(scope="session")
def paper_matrix() -> CrossErrorMatrix:
    """Planted-structure matrix at paper scale: defaults, k=184, seed=7."""
    return synth_matrix(184, seed=7)
