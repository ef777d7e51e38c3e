"""Suite-wide invariants: no estimate reports a constant above its upper end,
and every basis eigendecompose returns is ascending and weighted-orthonormal.
Property tests run under one deterministic hypothesis profile."""

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from simulheat import operators
from simulheat.specineq import SpectralConstantEstimate

# the same examples on every run, and no example database in the checkout
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
# hypothesis still caches the constants it reads from local sources (while
# collecting, before any fixture runs) and failing-example patches under its
# home directory, which would otherwise be .hypothesis/ in the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "simulheat-hypothesis")

_init = SpectralConstantEstimate.__init__
_eigendecompose = operators.eigendecompose
# largest weighted Gram deviation a returned basis may show
_GRAM_TOL = 1e-12
# above this size only a seeded sample of columns is checked, to keep the suite fast
_FULL_GRAM_MAX_N = 512


def _checked_init(self, *args, **kwargs):
    _init(self, *args, **kwargs)
    assert self.constant <= self.upper, f"constant {self.constant!r} above upper {self.upper!r}"


def _checked_eigendecompose(op):
    basis = _eigendecompose(op)
    assert np.all(np.diff(basis.eigenvalues) >= 0), "eigenvalues not ascending"
    V, n = basis.vectors, basis.grid.n
    cols = np.arange(n)
    if n > _FULL_GRAM_MAX_N:
        cols = np.sort(np.random.default_rng(0).choice(n, 16, replace=False))
    gram = V[:, cols].T @ (basis.grid.weights[:, None] * V)
    gram[np.arange(len(cols)), cols] -= 1.0
    dev = float(np.max(np.abs(gram)))
    assert dev <= _GRAM_TOL, f"weighted Gram deviation {dev:.3e} at n={n}"
    return basis


@pytest.fixture(autouse=True)
def brackets_hold(monkeypatch):
    monkeypatch.setattr(SpectralConstantEstimate, "__init__", _checked_init)


@pytest.fixture(autouse=True)
def bases_orthonormal(monkeypatch):
    # every module that imported eigendecompose holds its own reference
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("eigendecompose") is _eigendecompose:
            monkeypatch.setattr(module, "eigendecompose", _checked_eigendecompose)
