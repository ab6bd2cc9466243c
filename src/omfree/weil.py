"""Vector-valued component forms and their scalar-index Jacobi pullbacks.

A lattice-index Jacobi form of index one is stored through its theta
decomposition: one exact q-expansion per coset of the discriminant group,
with exponents whose fractional parts are determined by the coset norms.
Scalar forms enter through the explicit component correspondences for the
three big lattices: D8 from a pair of level-1 and level-2 forms, E6 and E7
from one plus-space form split by coset norm (a term q^n goes to every coset
gamma with -Q(gamma) = n/N mod 1).  Restriction along a lattice vector
produces scalar-index Jacobi forms ready for lifting; its per-coset counts
are memoised per (lattice, direction, qmax), at most 32 of them, as the
dense tables the Toeplitz product reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import isqrt, lcm
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
from .qseries import NumeratorStore, QSeries, as_fraction, kronecker_product


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
        return self.components[index].coefficient(0)

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


@dataclass(frozen=True, init=False)
class JacobiForm(NumeratorStore):
    """Exact coefficients c(n, r) of a holomorphic Jacobi form of scalar index.

    Coefficients are faithful for 0 <= n <= nq.  The support satisfies
    4 n m - r^2 >= 0; under r -> -r coefficients pick up the sign (-1)^weight.
    Index 0 is allowed and means a plain modular form (support r = 0).
    c(n, r) is ``nums[(n, r)] / den`` (see ``qseries.NumeratorStore``);
    ``JacobiForm(weight, index, coeffs, nq)`` takes rational coefficients,
    ``from_numerators(weight, index, nums, den, nq)`` integer ones.
    """

    weight: int
    index: int
    nums: Dict[Tuple[int, int], int]
    den: int
    nq: int

    def _in_box(self, key: Tuple[int, int]) -> bool:
        return key[0] <= self.nq

    def coefficient(self, n: int, r: int) -> Fraction:
        if n > self.nq:
            raise ValueError(f"coefficient at n={n} beyond truncation nq={self.nq}")
        return Fraction(self.nums.get((n, r), 0), self.den)

    def __mul__(self, other):
        if isinstance(other, JacobiForm):
            nq = min(self.nq, other.nq)
            f, g = ((((n,), r, c) for (n, r), c in form.nums.items()) for form in (self, other))
            nums = {(n, r): c for (n,), r0, cs in kronecker_product(f, g, (nq,)) for r, c in enumerate(cs, r0) if c}
            weight, index = self.weight + other.weight, self.index + other.index
            return JacobiForm.from_numerators(weight, index, nums, self.den * other.den, nq)
        return self.__rmul__(other)

    # -- invariant checks --------------------------------------------------

    def check_support(self) -> None:
        for (n, r), c in self.nums.items():
            if 4 * n * self.index - r * r < 0:
                raise InvarianceError(
                    f"coefficient {Fraction(c, self.den)} at (n={n}, r={r}) violates 4nm - r^2 >= 0 "
                    f"for index {self.index}"
                )

    def check_r_symmetry(self) -> None:
        sign = -1 if self.weight % 2 else 1
        for (n, r), c in self.nums.items():
            if self.nums.get((n, -r), 0) != sign * c:
                raise InvarianceError(f"c({n},{-r}) != {'-' if sign < 0 else ''}c({n},{r})")

    def check_elliptic_law(self) -> None:
        """c(n, r) depends only on (4nm - r^2, r mod 2m) within the truncation."""
        m = self.index
        if m == 0:
            for (n, r) in self.nums:
                if r != 0:
                    raise InvarianceError("index-0 form with r != 0")
            return
        classes: Dict[Tuple[int, int], int] = {}
        for n in range(self.nq + 1):
            rmax = isqrt(4 * n * m)
            for r in range(-rmax, rmax + 1):
                c = self.nums.get((n, r), 0)
                key = (4 * n * m - r * r, r % (2 * m))
                if key in classes:
                    if classes[key] != c:
                        raise InvarianceError(
                            f"elliptic law broken at (n={n}, r={r}): "
                            f"{Fraction(c, self.den)} != {Fraction(classes[key], self.den)}"
                        )
                else:
                    classes[key] = c


# ---------------------------------------------------------------------------
# D8: pairs (f1, f2) of level-1 and level-2 forms


def d8_pair_to_component(f1: ScalarForm, f2: ScalarForm, slashed: Tuple[QSeries, QSeries]) -> ComponentForm:
    """Components ((f1+f2)/2, (f1-f2)/2, (f2|S + f2|U)/2, (f2|S - f2|U)/2).

    The first three components sit on the cosets of integer norm (zero coset
    first), the last on the half-norm coset.  ``slashed`` is (f2|S, f2|U).
    """
    if f1.weight != f2.weight:
        raise ValueError(f"weight mismatch: {f1.weight} vs {f2.weight}")
    if f1.level != "SL2" or f2.level != "Gamma0_2":
        raise ValueError("expected a level-1 form and a level-2 form")
    lat = lattice("D8")
    s1 = f1.series
    s2 = f2.series
    s2_s, s2_u = slashed
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
    slashed = slash_level2(f2)
    return d8_pair_to_component(trace_to_sl2(f2, slashed), f2, slashed)


# ---------------------------------------------------------------------------
# E6 and E7: plus-space forms split by coset norm


def _plus_components(g: ScalarForm, case: str, modulus: int) -> ComponentForm:
    """Send each term c q^n of g to q^(n/modulus) on every coset gamma with -Q(gamma) = n/modulus mod 1.

    The cosets that share a norm share c equally; a term that meets no coset
    raises ``ValueError``.  The Jacobi weight is g's weight plus rank/2.
    Each residue is mapped to its coset indices once, before one pass over
    the terms.
    """
    lat = lattice(case)
    hits: Dict[Fraction, List[int]] = {}
    for i, coset in enumerate(lat.cosets):
        hits.setdefault(-coset.norm_mod1 % 1 * modulus, []).append(i)
    # every share c / len(targets) is taken over the one denominator den * shares
    shares = lcm(*map(len, hits.values()))
    nums = [{} for _ in lat.cosets]
    for e, c in g.series.nums.items():
        n = int(e)
        targets = hits.get(n % modulus)
        if targets is None:
            raise ValueError(f"plus-space form has support at {n} = {n % modulus} mod {modulus}")
        x = Fraction(n, modulus)
        share = c * (shares // len(targets))
        for i in targets:
            nums[i][x] = share
    den = g.series.den * shares
    trunc = g.series.truncation / modulus
    jacobi_weight = as_fraction(g.weight) + Fraction(lat.rank, 2)
    return ComponentForm(lat, jacobi_weight, tuple(QSeries.from_numerators(t, den, trunc) for t in nums))


def e6_from_plus(g: ScalarForm) -> ComponentForm:
    """Exponents n = 0 mod 3 go to the zero coset, n = 1 mod 3 in halves to the two conjugate cosets."""
    if g.level != "Gamma0_3_chi":
        raise ValueError("expected a plus-space form for the character mod 3")
    return _plus_components(g, "E6", 3)


def e6_from_sl2(f: ScalarForm) -> ComponentForm:
    """Odd correspondence: a level-1 form f maps to (0, f eta^8, -f eta^8), at f's truncation.

    The zero coset comes first, and cosets 1 and 2 are each other's negatives.
    """
    if f.level != "SL2":
        raise ValueError("expected a level-1 form")
    prod = f.series * eta_pow(8, f.series.truncation)
    comps = (QSeries.zero(prod.truncation), prod, -prod)
    return ComponentForm(lattice("E6"), as_fraction(f.weight) + 7, comps)


def e7_from_plus(g: ScalarForm) -> ComponentForm:
    """Components (sum_{N=0(4)} c(N) q^(N/4), sum_{N=1(4)} c(N) q^(N/4))."""
    if g.level != "KohnenPlus4":
        raise ValueError("expected a plus-space form of half-integral weight")
    return _plus_components(g, "E7", 4)


# ---------------------------------------------------------------------------
# Jacobi Eisenstein series


def jacobi_eisenstein(case: str, k: int, orbit: int = 0, prec=10) -> ComponentForm:
    """Index-one Jacobi Eisenstein data for D8/E6/E7, weight k, given cusp orbit.

    The constant terms on the chosen orbit's cosets sum to 1 (so a
    single-coset orbit carries constant term 1 and the two-coset D8 orbit
    carries 1/2 on each coset).  For D8 with k >= 8 the level-2 input is
    the closed-form combination of E_(k-4) and E_(k-4)(2 tau) whose
    off-orbit constants are 0; the special weights 4 and 6 have a
    one-dimensional input space, so only the on-orbit normalization is
    imposed there.
    """
    prec = as_fraction(prec)
    if case == "D8":
        return _d8_eisenstein(k, orbit, prec)
    if case in ("E6", "E7"):
        if orbit != 0:
            raise ValueError(f"{case} has a single zero-dimensional cusp orbit")
        if k % 2 or k < 4:
            raise ValueError(f"{case} Eisenstein weights are even and >= 4, got {k}")
        if case == "E6":
            return e6_from_plus(plus_eisenstein_gamma0_3(k - 3, 3 * prec))
        return e7_from_plus(cohen_eisenstein(k - 4, 4 * prec))
    raise ValueError(f"unknown case {case!r}; expected D8, E6 or E7")


def _d8_eisenstein(k: int, orbit: int, prec: Fraction) -> ComponentForm:
    if orbit not in (0, 1):
        raise ValueError(f"D8 cusp orbit must be 0 or 1, got {orbit}")
    if k % 2 or k < 4:
        raise ValueError(f"D8 Eisenstein weights are even and >= 4, got {k}")
    # decompose_level2 needs 1 + (k-4)//4 coefficients, the Sturm bound of
    # Gamma0(2) at weight k-4; two more are kept.  The floor is also the
    # truncation of the result.
    prec = max(prec, 1 + (k - 4) // 4 + 2)
    basis = gamma0_2_eisenstein_basis(k - 4, prec)
    if k in (4, 6):
        if orbit != 0:
            raise ValueError(f"weight {k} admits only the orbit-0 series")
        form = d8_invariant_from_gamma02(basis[0])
        c0 = form.constant_term(0)
        if c0 == 0:
            raise AssertionError("special input has vanishing value at the zero cusp")
        return (Fraction(1) / c0) * form
    # The invariant form is linear in its level-2 input.  Its orbit values
    # (the constant term on coset 0; the sum over the two nonzero
    # integer-norm cosets) are (2, 2) for E_w, which S and U fix, and
    # (1 + 2^-w, 2^(1-w)) for E_w(2 tau), whose slashes have constant term
    # 2^-w.  So a E_w + b E_w(2 tau) has orbit values (1, 0) or (0, 1) when
    # 2a + (1 + 2^-w) b = 1 - orbit and 2a + 2^(1-w) b = orbit.  Their
    # difference is (1 - 2^-w) b = 1 - 2 orbit; with t = 2^w - 1 this gives
    # (a, b) = (-1/t, 2^w/t) on orbit 0 and ((2^w + 1)/(2t), -2^w/t) on orbit 1.
    w = k - 4
    t = 2**w - 1
    if orbit == 0:
        a, b = Fraction(-1, t), Fraction(2**w, t)
    else:
        a, b = Fraction(2**w + 1, 2 * t), Fraction(-(2**w), t)
    e_w, e_w2 = basis
    return d8_invariant_from_gamma02(ScalarForm(e_w.weight, "Gamma0_2", a * e_w.series + b * e_w2.series))


# ---------------------------------------------------------------------------
# Pullback along a lattice vector


#: Bound on every int64 entry of ``pullback``'s limb accumulation.
_LIMB_LIMIT = 1 << 62

#: Count tables kept, one per (lattice, direction, qmax); the least recently used goes first.
_COUNTS_CACHE_LIMIT = 32


class CosetCounts(NamedTuple):
    """One lattice's per-coset (scaled norm, pairing) counts in the dense layout ``pullback`` reads.

    ``pairings`` is the sorted union of the pairings of every coset's
    vectors.  The scaled norms s = 2 den^2 Q(l) of coset i lie in the class
    s0 = 2 den^2 ``norm_mod1`` mod 2 den^2 that ``lattice`` records, den
    the coset's denominator, and ``tables[i][t, c]`` counts the coset
    vectors with s = s0 + 2 den^2 t and pairing ``pairings[c]``: an
    (qmax + 1) x len(pairings) int64 table, read only.
    """

    pairings: np.ndarray
    tables: Tuple[np.ndarray, ...]


@lru_cache(maxsize=_COUNTS_CACHE_LIMIT)
def _coset_counts(lattice_name: str, v: Tuple[int, ...], qmax: int) -> CosetCounts:
    """The cosets' counts up to Q <= qmax, made dense once; every caller shares the arrays, read only."""
    lat = lattice(lattice_name)
    counts = [pairing_counts(lat, coset, v, qmax) for coset in lat.cosets]
    # a set, not np.unique or np.sort: on first use they load numpy.ma or the SIMD sort, 0.4-1.7 MB of RSS
    pairings = np.array(sorted(set().union(*((r for _, r in table) for table in counts))), dtype=np.int64)
    tables = []
    for coset, table in zip(lat.cosets, counts):
        dense = np.zeros((qmax + 1, len(pairings)), dtype=np.int64)
        scale = 2 * coset.denominator**2
        offset = int(scale * coset.norm_mod1)
        keys = np.fromiter(chain.from_iterable(table), dtype=np.int64, count=2 * len(table)).reshape(-1, 2)
        steps, rest = np.divmod(keys[:, 0] - offset, scale)
        if rest.any():
            raise AssertionError(f"a norm of coset {coset.index} is not {coset.norm_mod1} mod 1")
        values = np.fromiter(table.values(), dtype=np.int64, count=len(table))
        dense[steps, np.searchsorted(pairings, keys[:, 1])] = values
        dense.flags.writeable = False  # shared by every caller through the cache
        tables.append(dense)
    pairings.flags.writeable = False
    return CosetCounts(pairings, tuple(tables))


def pullback(form: ComponentForm, v: Sequence[int], nq: int) -> JacobiForm:
    """Restrict a lattice-index form along v: weight kept, index Q(v).

    c(n, r) = sum over cosets gamma and vectors l in gamma + L with
    Q(l) <= n and <l, v> = r of the component coefficient at n - Q(l).
    The sum runs on integers: the components' denominators are cleared
    once, and the accumulated numerators over that one denominator are the
    result's store, with no ``Fraction`` per coefficient.

    Per coset, with scale = 2 den^2 and N[s, r] the count of coset vectors
    of scaled norm s = scale Q(l) and pairing r, this is the Toeplitz product
    c[n, r] = sum_s a[n scale - s] N[s, r] over s <= nq scale, a[e] being
    the cleared numerator at scaled exponent e.  The norms of one coset lie
    in one class s0 mod scale, so N is kept dense only on its rows
    s = s0 + t scale, t <= nq, and with a_j = a[j scale - s0] the product is
    c[n, r] = sum_t a_(n-t) N[t, r].  It runs in int64: each numerator is
    split into signed limbs of L bits, sign(a) times the L-bit digits of
    |a|, and one ``T @ N`` per coset multiplies every limb row of the
    Toeplitz matrix T against the dense count table N, with one column per
    distinct pairing r of the lattice's cosets; the memo ``_coset_counts``
    holds N, built once per (lattice, direction, qmax).  An entry of the
    limb accumulation, summed over the cosets, is at most (2^L - 1) times
    the total count, so L is the largest width with (2^L - 1) * total <
    2^62; that bound is checked before the limb arrays are allocated, and
    a total that leaves no width (L < 1) raises ``ValueError``.  The limbs
    are recombined into Python ints once per nonzero (n, r).
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
    if form.weight.denominator != 1:
        raise ValueError("pullbacks of half-integral Jacobi weights are not supported")
    index = lattice_norm(lat, v)
    if index.denominator != 1:
        raise AssertionError("norm of an even-lattice vector must be an integer")
    index = int(index)
    trunc = form.truncation()
    if nq >= trunc:
        raise ValueError(f"requested nq={nq} exceeds component truncation O(q^{trunc})")
    counts = _coset_counts(lat.name, v, nq)
    weight = int(form.weight)

    # Bring all components to one denominator and accumulate plain ints:
    # c(n, r) = (1/den) * sum of count * (den * coefficient at n - Q(l)).
    den = lcm(1, *(comp.den for comp in form.components))
    parts = []
    total = bits = 0
    for coset, comp, table in zip(lat.cosets, form.components, counts.tables):
        vectors = int(table.sum())
        if not vectors:
            continue
        # the scaled norms s = scale Q(l) of a coset lie in the class offset
        # = scale norm_mod1 mod scale, so s = offset + t scale, and the term
        # at exponent e meets s at n = t + j with e scale = j scale - offset
        scale = 2 * coset.denominator**2
        offset = int(scale * coset.norm_mod1)
        numerators: Dict[int, int] = {}
        lift = den // comp.den
        for e, c in comp.nums.items():
            se, remainder = divmod(e.numerator * scale, e.denominator)
            if remainder:
                raise AssertionError("component exponent incompatible with coset scale")
            j, off_class = divmod(se + offset, scale)
            if j <= nq and not off_class:
                numerators[j] = c * lift
        if not numerators:
            continue
        total += vectors
        bits = max(bits, *(abs(a).bit_length() for a in numerators.values()))
        parts.append((numerators, table))
    if not parts:
        return JacobiForm.from_numerators(weight, index, {}, den, nq)

    limb_bits = ((_LIMB_LIMIT - 1) // total + 1).bit_length() - 1
    if limb_bits < 1:
        raise ValueError(f"pullback: {total} coset vectors leave no limb width within the int64 bound 2^62")
    limbs = -(-bits // limb_bits)
    mask = (1 << limb_bits) - 1
    pairings = counts.pairings
    acc = np.zeros((limbs, nq + 1, len(pairings)), dtype=np.int64)
    for numerators, table in parts:
        # limb i of a_j sits at column nq - j; the columns past nq stand for j < 0
        digits = np.zeros((limbs, 2 * nq + 1), dtype=np.int64)
        for j, a in numerators.items():
            sign, mag = (1, a) if a > 0 else (-1, -a)
            for i in range(limbs):
                digits[i, nq - j] = sign * ((mag >> (limb_bits * i)) & mask)
        # T[i, n, t] = digits[i, nq - n + t]: the windows of a view, in reverse, not a copy
        toeplitz = sliding_window_view(digits, nq + 1, axis=1)[:, ::-1]
        acc += toeplitz @ table

    # recombine from the top limb down, one limb plane at a time
    flat = acc.reshape(limbs, -1)
    found = np.flatnonzero(flat.any(axis=0))
    values = flat[-1, found].tolist()
    for plane in flat[-2::-1]:
        values = [(x << limb_bits) + d for x, d in zip(values, plane[found].tolist())]
    n, col = np.divmod(found, len(pairings))
    coords = zip(n.tolist(), pairings[col].tolist())
    return JacobiForm.from_numerators(weight, index, dict(zip(coords, values)), den, nq)
