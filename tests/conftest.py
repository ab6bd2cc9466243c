"""Shared fixtures; heavy objects are built once per session."""

from __future__ import annotations

import pytest

from omfree.certify import CASES
from omfree.weil import jacobi_eisenstein, pullback


@pytest.fixture(scope="session")
def d8_vector():
    return CASES["D8"].vector


@pytest.fixture(scope="session")
def generator_pullback_forms():
    """Jacobi pullbacks (pre-lift) of the case generators at nq = 8."""
    from omfree.classical import ScalarForm, eisenstein_sl2
    from omfree.qseries import QSeries
    from omfree.weil import e6_from_sl2
    from fractions import Fraction

    nq = 8
    prec = nq + 1
    forms = {}
    for k, orbit in [(4, 0), (6, 0), (8, 0), (8, 1), (10, 0), (10, 1), (12, 0), (12, 1), (14, 0)]:
        comp = jacobi_eisenstein("D8", k, orbit, prec=prec)
        forms[("D8", f"E{k},{orbit}")] = pullback(comp, CASES["D8"].vector, nq=nq)
    for k in (4, 6, 10, 12, 16):
        comp = jacobi_eisenstein("E6", k, 0, prec=prec)
        forms[("E6", f"E{k}")] = pullback(comp, CASES["E6"].vector, nq=nq)
    one = ScalarForm(Fraction(0), "SL2", QSeries.one(prec))
    forms[("E6", "M7")] = pullback(e6_from_sl2(one), CASES["E6"].vector, nq=nq)
    e4 = eisenstein_sl2(4, prec)
    e4sq = ScalarForm(Fraction(8), "SL2", e4.series * e4.series)
    forms[("E6", "M15")] = pullback(e6_from_sl2(e4sq), CASES["E6"].vector, nq=nq)
    for k in (4, 6, 10, 12, 14, 16):
        comp = jacobi_eisenstein("E7", k, 0, prec=prec)
        forms[("E7", f"E{k}")] = pullback(comp, CASES["E7"].vector, nq=nq)
    return forms
