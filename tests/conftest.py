"""Shared fixtures; heavy objects are built once per session."""

from __future__ import annotations

from dataclasses import replace

import pytest

from omfree import certify
from omfree.certify import CASES
from omfree.qseries import QSeries


@pytest.fixture(scope="session")
def d8_vector():
    return CASES["D8"].vector


#: Highest generator weight kept per case in ``generator_pullback_forms``.
PULLBACK_FORM_WEIGHTS = {"D8": 14, "E6": 16, "E7": 16}


@pytest.fixture(scope="session")
def generator_pullback_forms():
    """Jacobi pullbacks (pre-lift) of the case generators at nq = 8, keyed (case, row name)."""
    return {
        (case, row.name): row.jacobi(CASES[case].vector, 8)
        for case, w in PULLBACK_FORM_WEIGHTS.items()
        for row in CASES[case].generators
        if row.weight <= w
    }


@pytest.fixture
def perturbed_d8_weight8_input(monkeypatch):
    """Add q^1 to the zero-coset component of every D8 weight-8 orbit-0 input that ``certify`` builds."""
    real = certify.jacobi_eisenstein

    def perturbed(case, k, orbit=0, prec=10):
        form = real(case, k, orbit, prec)
        if (case, k, orbit) == ("D8", 8, 0):
            first = form.components[0] + QSeries.monomial(1, 1, form.components[0].truncation)
            form = replace(form, components=(first,) + form.components[1:])
        return form

    monkeypatch.setattr(certify, "jacobi_eisenstein", perturbed)
