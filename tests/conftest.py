"""Suite-wide invariant: no estimate reports a constant above its upper end."""

import pytest

from simulheat.specineq import SpectralConstantEstimate

_init = SpectralConstantEstimate.__init__


def _checked_init(self, *args, **kwargs):
    _init(self, *args, **kwargs)
    if self.upper is not None:
        assert self.constant <= self.upper, f"constant {self.constant!r} above upper {self.upper!r}"


@pytest.fixture(autouse=True)
def brackets_hold(monkeypatch):
    monkeypatch.setattr(SpectralConstantEstimate, "__init__", _checked_init)
