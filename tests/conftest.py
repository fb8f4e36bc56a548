import pytest

import helpers
from posslog import semantics


@pytest.fixture
def weather():
    return helpers.weather_base()


@pytest.fixture
def support():
    return helpers.support_base()


@pytest.fixture(params=["bitset", "dpll"])
def solver_path(request, monkeypatch):
    """Runs a test once on the bitset path and once with the bitset cap at
    0, so that every satisfiability question goes to the DPLL search."""
    if request.param == "dpll":
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 0)
    return request.param
