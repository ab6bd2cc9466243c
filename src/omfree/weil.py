"""Vector-valued component forms and their scalar-index Jacobi pullbacks.

A lattice-index Jacobi form of index one is stored through its theta
decomposition: one exact q-expansion per coset of the discriminant group,
with exponents whose fractional parts are determined by the coset norms.
Scalar forms enter through the explicit component correspondences for the
three big lattices; restriction along a lattice vector produces scalar-index
Jacobi forms ready for lifting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .classical import (
    ScalarForm,
    cohen_eisenstein,
    gamma0_2_eisenstein_basis,
    plus_eisenstein_gamma0_3,
    slash_level2,
    eta_pow,
    trace_to_sl2,
)
from .lattice import LatticeData, lattice, norm as lattice_norm, pairing_counts
from .linalg import solve
from .qseries import QSeries, as_fraction


class InvarianceError(ValueError):
    """A construction that must produce symmetric components failed to."""


# ---------------------------------------------------------------------------
# Component forms


@dataclass(frozen=True)
class ComponentForm:
    """Weight plus one exact q-expansion per discriminant coset.

    ``weight`` is the weight of the associated Jacobi form.  The component
    for coset gamma has exponents with fractional part -Q(gamma) mod 1.
    """

    lattice: LatticeData
    weight: Fraction
    components: Tuple[QSeries, ...]

    def __post_init__(self):
        if len(self.components) != len(self.lattice.cosets):
            raise ValueError(
                f"{self.lattice.name} has {len(self.lattice.cosets)} cosets, got {len(self.components)} components"
            )

    def component(self, index: int) -> QSeries:
        return self.components[index]

    def constant_term(self, index: int) -> Fraction:
        comp = self.components[index]
        return comp.coefficient(0) if comp.truncation > 0 else Fraction(0)

    def truncation(self) -> Fraction:
        return min(c.truncation for c in self.components)

    def __add__(self, other: "ComponentForm") -> "ComponentForm":
        if self.lattice.name != other.lattice.name or self.weight != other.weight:
            raise ValueError("can only add component forms of equal lattice and weight")
        return ComponentForm(
            self.lattice, self.weight, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __rmul__(self, c) -> "ComponentForm":
        c = as_fraction(c)
        return ComponentForm(self.lattice, self.weight, tuple(c * comp for comp in self.components))

    def __mul__(self, c) -> "ComponentForm":
        return self.__rmul__(c)

    def check_exponent_fractions(self) -> None:
        """Every stored exponent must match its coset norm mod 1."""
        for coset, comp in zip(self.lattice.cosets, self.components):
            want = (-coset.norm_mod1) % 1
            for e in comp.support():
                if e % 1 != want:
                    raise InvarianceError(
                        f"{self.lattice.name} coset {coset.index}: exponent {e} has fractional part "
                        f"{e % 1}, expected {want}"
                    )

    def to_json(self) -> dict:
        return {
            "lattice": self.lattice.name,
            "weight": [self.weight.numerator, self.weight.denominator],
            "components": [
                {"coset": i, "terms": comp.to_json_terms()} for i, comp in enumerate(self.components)
            ],
        }


# ---------------------------------------------------------------------------
# Scalar-index Jacobi forms


@dataclass(frozen=True)
class JacobiForm:
    """Exact coefficients c(n, r) of a holomorphic Jacobi form of scalar index.

    Coefficients are faithful for 0 <= n <= nq.  The support satisfies
    4 n m - r^2 >= 0; under r -> -r coefficients pick up the sign (-1)^weight.
    Index 0 is allowed and means a plain modular form (support r = 0).
    """

    weight: int
    index: int
    coeffs: Dict[Tuple[int, int], Fraction]
    nq: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("index must be nonnegative")
        clean = {k: v for k, v in self.coeffs.items() if v != 0 and k[0] <= self.nq}
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, n: int, r: int) -> Fraction:
        if n > self.nq:
            raise ValueError(f"coefficient at n={n} beyond truncation nq={self.nq}")
        return self.coeffs.get((n, r), Fraction(0))

    def support(self) -> List[Tuple[int, int]]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "JacobiForm") -> "JacobiForm":
        if (self.weight, self.index) != (other.weight, other.index):
            raise ValueError("can only add Jacobi forms of equal weight and index")
        nq = min(self.nq, other.nq)
        coeffs = {k: v for k, v in self.coeffs.items() if k[0] <= nq}
        for k, v in other.coeffs.items():
            if k[0] <= nq:
                coeffs[k] = coeffs.get(k, Fraction(0)) + v
        return JacobiForm(self.weight, self.index, coeffs, nq)

    def __rmul__(self, c) -> "JacobiForm":
        c = as_fraction(c)
        return JacobiForm(self.weight, self.index, {k: c * v for k, v in self.coeffs.items()}, self.nq)

    def __mul__(self, other):
        if isinstance(other, JacobiForm):
            nq = min(self.nq, other.nq)
            coeffs: Dict[Tuple[int, int], Fraction] = {}
            for (n1, r1), c1 in self.coeffs.items():
                if n1 > nq:
                    continue
                for (n2, r2), c2 in other.coeffs.items():
                    n = n1 + n2
                    if n > nq:
                        continue
                    key = (n, r1 + r2)
                    coeffs[key] = coeffs.get(key, Fraction(0)) + c1 * c2
            return JacobiForm(self.weight + other.weight, self.index + other.index, coeffs, nq)
        return self.__rmul__(other)

    # -- invariant checks --------------------------------------------------

    def check_support(self) -> None:
        for (n, r), c in self.coeffs.items():
            if 4 * n * self.index - r * r < 0:
                raise InvarianceError(
                    f"coefficient {c} at (n={n}, r={r}) violates 4nm - r^2 >= 0 for index {self.index}"
                )

    def check_r_symmetry(self) -> None:
        sign = -1 if self.weight % 2 else 1
        for (n, r), c in self.coeffs.items():
            if self.coeffs.get((n, -r), Fraction(0)) != sign * c:
                raise InvarianceError(f"c({n},{-r}) != {'-' if sign < 0 else ''}c({n},{r})")

    def check_elliptic_law(self) -> None:
        """c(n, r) depends only on (4nm - r^2, r mod 2m) within the truncation."""
        m = self.index
        if m == 0:
            for (n, r) in self.coeffs:
                if r != 0:
                    raise InvarianceError("index-0 form with r != 0")
            return
        classes: Dict[Tuple[int, int], Fraction] = {}
        for n in range(self.nq + 1):
            rmax = isqrt(4 * n * m)
            for r in range(-rmax, rmax + 1):
                c = self.coeffs.get((n, r), Fraction(0))
                key = (4 * n * m - r * r, r % (2 * m))
                if key in classes:
                    if classes[key] != c:
                        raise InvarianceError(
                            f"elliptic law broken at (n={n}, r={r}): {c} != {classes[key]}"
                        )
                else:
                    classes[key] = c

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "index": self.index,
            "nq": self.nq,
            "coefficients": {
                f"{n},{r}": [c.numerator, c.denominator] for (n, r), c in sorted(self.coeffs.items())
            },
        }


# ---------------------------------------------------------------------------
# D8: pairs (f1, f2) of level-1 and level-2 forms


def d8_pair_to_component(f1: ScalarForm, f2: ScalarForm) -> ComponentForm:
    """Components ((f1+f2)/2, (f1-f2)/2, (f2|S + f2|U)/2, (f2|S - f2|U)/2).

    The first three components sit on the cosets of integer norm (zero coset
    first), the last on the half-norm coset.
    """
    if f1.weight != f2.weight:
        raise ValueError(f"weight mismatch: {f1.weight} vs {f2.weight}")
    if f1.level != "SL2" or f2.level != "Gamma0_2":
        raise ValueError("expected a level-1 form and a level-2 form")
    lat = lattice("D8")
    s1 = f1.series
    s2 = f2.series
    s2_s = slash_level2(f2, "S")
    s2_u = slash_level2(f2, "U")
    comps = (
        (s1 + s2) / 2,
        (s1 - s2) / 2,
        (s2_s + s2_u) / 2,
        (s2_s - s2_u) / 2,
    )
    jacobi_weight = as_fraction(f1.weight) + 4
    return ComponentForm(lat, jacobi_weight, comps)


def d8_invariant_from_gamma02(f2: ScalarForm) -> ComponentForm:
    """Invariant component form from a level-2 form: f1 = f2 + f2|S + f2|U."""
    f1 = trace_to_sl2(f2)
    form = d8_pair_to_component(f1, f2)
    if form.component(1) != form.component(2):
        raise InvarianceError("trace construction produced unequal middle components")
    return form


# ---------------------------------------------------------------------------
# E6: ternary discriminant group


def _e6_coset_order() -> Tuple[int, int, int]:
    """Indices (zero, gamma, -gamma) for the E6 discriminant group."""
    lat = lattice("E6")
    zero = next(c.index for c in lat.cosets if c.is_zero())
    others = [c for c in lat.cosets if not c.is_zero()]
    first = others[0]
    neg_rep = tuple((-x) % 1 for x in first.rep)
    second = next(c for c in others if c.rep == neg_rep)
    if first.index == second.index:
        raise AssertionError("E6 discriminant group must have two nonzero cosets")
    return zero, first.index, second.index


def e6_from_plus(g: ScalarForm) -> ComponentForm:
    """Split a plus-space form into components by residue class of the exponent.

    The zero component collects exponents divisible by 3 (rescaled by 1/3);
    the two conjugate components each take half of the residue-1 part.
    """
    if g.level != "Gamma0_3_chi":
        raise ValueError("expected a plus-space form for the character mod 3")
    lat = lattice("E6")
    zero_terms, half_terms = {}, {}
    for e, c in g.series.terms():
        n = int(e)
        if n % 3 == 0:
            zero_terms[Fraction(n, 3)] = c
        elif n % 3 == 1:
            half_terms[Fraction(n, 3)] = c / 2
        else:
            raise ValueError(f"plus-space form has support at {n} = 2 mod 3")
    trunc = g.series.truncation / 3
    f0 = QSeries(zero_terms, trunc)
    f1 = QSeries(half_terms, trunc)
    i0, i1, i2 = _e6_coset_order()
    comps = [None, None, None]
    comps[i0], comps[i1], comps[i2] = f0, f1, f1
    jacobi_weight = as_fraction(g.weight) + 3
    return ComponentForm(lat, jacobi_weight, tuple(comps))


def e6_to_plus(form: ComponentForm) -> QSeries:
    """Inverse of e6_from_plus: rescale every component by 3 and add."""
    total = None
    for comp in form.components:
        piece = comp.rescale(3)
        total = piece if total is None else total + piece
    return total


def e6_from_sl2(f: ScalarForm, prec=None) -> ComponentForm:
    """Odd correspondence: a level-1 form f maps to (0, f eta^8, -f eta^8)."""
    if f.level != "SL2":
        raise ValueError("expected a level-1 form")
    lat = lattice("E6")
    trunc = f.series.truncation if prec is None else as_fraction(prec)
    eta8 = eta_pow(8, trunc)
    prod = f.series.truncate(min(trunc, f.series.truncation)) * eta8
    i0, i1, i2 = _e6_coset_order()
    comps = [None, None, None]
    comps[i0] = QSeries.zero(prod.truncation)
    comps[i1] = prod
    comps[i2] = -prod
    jacobi_weight = as_fraction(f.weight) + 7
    return ComponentForm(lat, jacobi_weight, tuple(comps))


# ---------------------------------------------------------------------------
# E7: half-integral weight correspondence


def e7_from_plus(g: ScalarForm) -> ComponentForm:
    """Components (sum_{N=0(4)} c(N) q^(N/4), sum_{N=1(4)} c(N) q^(N/4))."""
    if g.level != "KohnenPlus4":
        raise ValueError("expected a plus-space form of half-integral weight")
    lat = lattice("E7")
    zero_terms, quarter_terms = {}, {}
    for e, c in g.series.terms():
        n = int(e)
        if n % 4 == 0:
            zero_terms[Fraction(n, 4)] = c
        elif n % 4 == 1:
            quarter_terms[Fraction(n, 4)] = c
        else:
            raise ValueError(f"plus-space form has support at {n} = {n % 4} mod 4")
    trunc = g.series.truncation / 4
    comps = (QSeries(zero_terms, trunc), QSeries(quarter_terms, trunc))
    jacobi_weight = as_fraction(g.weight) + Fraction(7, 2)
    return ComponentForm(lat, jacobi_weight, comps)


# ---------------------------------------------------------------------------
# Jacobi Eisenstein series


def jacobi_eisenstein(case: str, k: int, orbit: int = 0, prec=10) -> ComponentForm:
    """Index-one Jacobi Eisenstein data for D8/E6/E7, weight k, given cusp orbit.

    The constant terms on the chosen orbit's cosets sum to 1 (so a
    single-coset orbit carries constant term 1 and the two-coset D8 orbit
    carries 1/2 on each coset).  For D8 with k >= 8 the combination is fixed
    by the 2x2 constant-term system on the two cusp orbits, making the
    off-orbit constants 0; the special weights 4 and 6 have a
    one-dimensional input space, so only the on-orbit normalization is
    imposed there.
    """
    prec = as_fraction(prec)
    if case == "D8":
        return _d8_eisenstein(k, orbit, prec)
    if case == "E6":
        if orbit != 0:
            raise ValueError("E6 has a single zero-dimensional cusp orbit")
        if k % 2 or k < 4:
            raise ValueError(f"E6 Eisenstein weights are even and >= 4, got {k}")
        g = plus_eisenstein_gamma0_3(k - 3, 3 * prec)
        return e6_from_plus(g)
    if case == "E7":
        if orbit != 0:
            raise ValueError("E7 has a single zero-dimensional cusp orbit")
        if k % 2 or k < 4:
            raise ValueError(f"E7 Eisenstein weights are even and >= 4, got {k}")
        g = cohen_eisenstein(k - 4, 4 * prec)
        return e7_from_plus(g)
    raise ValueError(f"unknown case {case!r}; expected D8, E6 or E7")


def _d8_eisenstein(k: int, orbit: int, prec: Fraction) -> ComponentForm:
    if orbit not in (0, 1):
        raise ValueError(f"D8 cusp orbit must be 0 or 1, got {orbit}")
    if k % 2 or k < 4:
        raise ValueError(f"D8 Eisenstein weights are even and >= 4, got {k}")
    # the slash decomposition needs at least dim M_{k-4}(Gamma0(2)) coefficients
    prec = max(prec, 1 + (k - 4) // 4 + 2)
    if k in (4, 6):
        if orbit != 0:
            raise ValueError(f"weight {k} admits only the orbit-0 series")
        basis = gamma0_2_eisenstein_basis(k - 4, prec)
        form = d8_invariant_from_gamma02(basis[0])
        c0 = form.constant_term(0)
        if c0 == 0:
            raise AssertionError("special input has vanishing value at the zero cusp")
        return (Fraction(1) / c0) * form
    forms = [d8_invariant_from_gamma02(b) for b in gamma0_2_eisenstein_basis(k - 4, prec)]
    # Orbit values are the sums of constant terms over the orbit's cosets:
    # coset 0 for orbit 0, the two integer-norm cosets for orbit 1.  Solve
    # for orbit values (1, 0) or (0, 1).
    m = [
        [f.constant_term(0) for f in forms],
        [f.constant_term(1) + f.constant_term(2) for f in forms],
    ]
    sol = solve(m, [1, 0] if orbit == 0 else [0, 1])
    if sol.status != "unique":
        raise AssertionError(f"cusp constant-term system is singular at weight {k}")
    a, b = sol.values
    return a * forms[0] + b * forms[1]


# ---------------------------------------------------------------------------
# Pullback along a lattice vector


_COUNTS_CACHE: Dict[Tuple[str, Tuple[int, ...]], Tuple[Fraction, List[Dict[Tuple[int, int], int]]]] = {}


def _coset_counts(lat: LatticeData, v: Tuple[int, ...], qmax: Fraction) -> List[Dict[Tuple[int, int], int]]:
    """Per-coset (scaled norm, pairing) counts up to Q <= qmax, cached."""
    key = (lat.name, v)
    cached = _COUNTS_CACHE.get(key)
    if cached is not None and cached[0] >= qmax:
        bound_by_coset = []
        for coset, table in zip(lat.cosets, cached[1]):
            smax = 2 * coset.denominator**2 * qmax
            bound_by_coset.append({sr: c for sr, c in table.items() if sr[0] <= smax})
        return bound_by_coset
    tables = [pairing_counts(lat, coset, v, qmax) for coset in lat.cosets]
    _COUNTS_CACHE[key] = (qmax, tables)
    return tables


def pullback(form: ComponentForm, v: Sequence[int], nq: Optional[int] = None) -> JacobiForm:
    """Restrict a lattice-index form along v: weight kept, index Q(v).

    c(n, r) = sum over cosets gamma and vectors l in gamma + L with
    Q(l) <= n and <l, v> = r of the component coefficient at n - Q(l).
    """
    lat = form.lattice
    for x in v:
        if x != int(x):
            raise ValueError(f"pullback direction must be a lattice vector, got entry {x}")
    v = tuple(int(x) for x in v)
    if len(v) != lat.rank:
        raise ValueError(f"vector has length {len(v)}, lattice rank is {lat.rank}")
    if all(x == 0 for x in v):
        raise ValueError("pullback direction must be nonzero")
    index = lattice_norm(lat, v)
    if index.denominator != 1:
        raise AssertionError("norm of an even-lattice vector must be an integer")
    index = int(index)
    trunc = form.truncation()
    if nq is None:
        nq = int(trunc) - 1 if trunc == int(trunc) else int(trunc)
    if nq >= trunc:
        raise ValueError(f"requested nq={nq} exceeds component truncation O(q^{trunc})")
    tables = _coset_counts(lat, v, as_fraction(nq))

    if form.weight.denominator != 1:
        raise ValueError("pullbacks of half-integral Jacobi weights are not supported")
    weight = int(form.weight)

    # Clear all component denominators once and accumulate plain ints:
    # c(n, r) = (1/den) * sum of count * (den * coefficient at n - Q(l)).
    den = lcm(1, *(c.denominator for comp in form.components for _, c in comp.terms()))
    acc: Dict[Tuple[int, int], int] = {}
    for coset, comp, table in zip(lat.cosets, form.components, tables):
        if not table:
            continue
        scale = 2 * coset.denominator**2
        comp_scaled: Dict[int, int] = {}
        for e, c in comp.terms():
            se = e * scale
            if se.denominator != 1:
                raise AssertionError("component exponent incompatible with coset scale")
            comp_scaled[int(se)] = int(c * den)
        by_norm: Dict[int, List[Tuple[int, int]]] = {}
        for (s, r), count in table.items():
            by_norm.setdefault(s, []).append((r, count))
        for s, row in by_norm.items():
            # vectors of scaled norm s feed c(n, r) through the term at n*scale - s
            for n in range(-(-s // scale), nq + 1):
                c = comp_scaled.get(n * scale - s)
                if not c:
                    continue
                for r, count in row:
                    key = (n, r)
                    acc[key] = acc.get(key, 0) + count * c
    coeffs = {key: Fraction(total, den) for key, total in acc.items()}
    return JacobiForm(weight, index, coeffs, nq)
