"""Test-only oracles shared by several test modules."""

from omfree.classical import eisenstein_sl2
from omfree.qseries import QSeries

#: Every lattice in the registry, sorted by name.
LATTICES = sorted(
    [f"A{n}" for n in range(1, 8)] + ["2A1", "3A1", "4A1"] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7"]
)


def sl2_monomial_basis(k: int, prec):
    """All monomials E4^a E6^b of weight k, as ((a, b), expansion) pairs."""
    if k % 2 or k < 0:
        raise ValueError(f"weight must be even and nonnegative, got {k}")
    e4 = eisenstein_sl2(4, prec).series if k >= 4 else None
    e6 = eisenstein_sl2(6, prec).series if k >= 6 else None
    out = []
    for b in range(k // 6 + 1):
        rest = k - 6 * b
        if rest % 4:
            continue
        a = rest // 4
        mono = QSeries.one(prec)
        if a:
            mono = mono * e4**a
        if b:
            mono = mono * e6**b
        out.append(((a, b), mono))
    return out
