"""Exact linear-algebra certificates for the lifted Eisenstein generators.

Monomials in the generator lifts are compared coefficient by coefficient.
The certificate works mod the prime ``linalg.MODULUS`` in r-evaluation
space: each generator's Jacobi input is pulled back once and its lift's
residues are taken straight from it (``lifts.lift_values``), at the first
K points x_j, without building the lift; a monomial is a chain of
pointwise products (``lifts.multiply_values``), and its row is that
evaluation, flattened as it is.

Up to one integer factor per row (for a generator, the lcm of its input's
denominator and A(0, 0, 0)'s over the lift's denominator), a monomial's
value of the slice (n, M) at x_j is sum_r A(n, r, M) x_j^r mod p, with A
its exact numerators: a linear image of the slice's coefficients.  So the
residue matrix is D C E mod p, with C the exact numerator rows and D
diagonal.  Its rank is at most rank(C mod p), which is at most the rank
over Q, so a full rank certifies independence; a factor divisible by p
only zeroes its row.  Residues decide every rank: each weight is ranked
on the first ``SAMPLE_POINTS`` points and, if that is short, again on all
W = ``lifts.evaluation_width`` points, which determine each slice's
r-polynomial.  A weight still short at full width escalates to the next
precision; at the last step it builds exact lifts and products, and one
exact elimination of their numerator rows gives its rank and names its
relations.

Full rank certifies linear independence at that weight (and hence upstream,
since any relation among the orthogonal series would restrict to a relation
among the pullback lifts).  Rank deficits are never reported as relations
outright: the kernel vectors are emitted as candidates and the precision
schedule escalates first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .freealg import dim_upper_bound
from .lifts import ParamodularForm, evaluation_width, gritsenko_lift, lift_values, multiply, multiply_values
# bareiss_rank is unused here but stays bound: bench/tracer.py wraps it and left_kernel, and the tests import both from here
from .linalg import _rank_mod_p, bareiss_rank, left_kernel
from .weil import JacobiForm, e6_from_sl2, jacobi_eisenstein, pullback
from .classical import ScalarForm, eisenstein_sl2
from .qseries import QSeries, express_in_basis, shared_support

DEFAULT_SCHEDULE: Tuple[Tuple[int, int], ...] = ((4, 4), (6, 6), (8, 8))

#: Evaluation points of the residue certificate (the first K of W).
SAMPLE_POINTS = 8


# ---------------------------------------------------------------------------
# Monomials


def monomial_table(weights: Sequence[int], w_max: int) -> List[List[Tuple[int, ...]]]:
    """For w = 0, ..., w_max: all exponent vectors e >= 0 with sum e_i weights_i = w, each in lexicographic order.

    Built from the last generator back: the vectors of generators i, i+1,
    ... are listed by remaining weight, and those of i - 1 on prepend each
    exponent of generator i - 1 to the lists of the weights left over.
    """
    if any(x <= 0 for x in weights):
        raise ValueError("weights must be positive")
    # past the last generator only the empty vector is left, at weight 0
    table: List[List[Tuple[int, ...]]] = [[()] if w == 0 else [] for w in range(w_max + 1)]
    for weight in reversed(weights):
        table = [
            [(e,) + rest for e in range(w // weight + 1) for rest in table[w - e * weight]] for w in range(w_max + 1)
        ]
    return table


def monomials(weights: Sequence[int], w: int) -> List[Tuple[int, ...]]:
    """All exponent vectors e >= 0 with sum e_i weights_i = w, in lexicographic order (``monomial_table``)."""
    table = monomial_table(weights, w)
    return table[w] if w >= 0 else []


# ---------------------------------------------------------------------------
# Generators and cases


class GeneratorRow(NamedTuple):
    """One generator: name, weight, recipe text and its Jacobi input.

    ``jacobi(v, nq)`` is the row's pullback along v, truncated at O(q^(nq+1)).
    """

    name: str
    weight: int
    recipe: str
    jacobi: Callable[[Sequence[int], int], JacobiForm]

    def lift(self, v: Sequence[int], nq: int, nxi: int) -> ParamodularForm:
        """Gritsenko lift of the input along v, truncated at (nq, nxi)."""
        return gritsenko_lift(self.jacobi(v, nq * nxi), nxi)


@dataclass(frozen=True)
class Case:
    """One certified group: its lattice, pullback direction and generator rows.

    ``bound_system`` names the root system (in ``freealg``) whose weak Jacobi
    dimensions bound the orthogonal forms of the case.
    """

    bound_system: str
    lattice: str
    vector: Tuple[int, ...]
    generators: Tuple[GeneratorRow, ...]


def eisenstein_row(lattice_name: str, k: int, orbit: Optional[int] = None, name: Optional[str] = None) -> GeneratorRow:
    """The row of the weight-k Jacobi Eisenstein series of the lattice (of the orbit, on D8)."""
    data = f"weight-{k}" if orbit is None else f"weight-{k} orbit-{orbit}"

    def jacobi(v: Sequence[int], nq: int) -> JacobiForm:
        # looked up at call time, so a wrapper installed on this module sees both calls
        return pullback(jacobi_eisenstein(lattice_name, k, orbit or 0, nq + 1), v, nq=nq)

    return GeneratorRow(name or f"E{k}", k, f"lift of pullback of {data} Eisenstein data", jacobi)


def _e6_odd(weight: int, input_text: str, f: Callable[[int], ScalarForm]) -> GeneratorRow:
    recipe = f"lift of pullback of the odd weight-{weight} form ({input_text} input)"
    return GeneratorRow(f"M{weight}", weight, recipe, lambda v, nq: pullback(e6_from_sl2(f(nq + 1)), v, nq=nq))


#: The certified cases by name.  Every lift is taken along the case's vector.
CASES: Dict[str, Case] = {
    "D8": Case("C8", "D8", (4, 2, 3, 4, 1, 3, 2, 4), (
        eisenstein_row("D8", 4, 0),
        eisenstein_row("D8", 6, 0),
        *(eisenstein_row("D8", k, orbit, f"E{k},{orbit}") for k in (8, 10, 12) for orbit in (0, 1)),
        *(eisenstein_row("D8", k, 0, f"E{k},0") for k in (14, 16, 18)),
    )),
    "E6": Case("E6", "E6", (3, 2, 0, 1, 1, 1), (
        *(eisenstein_row("E6", k) for k in (4, 6)),
        _e6_odd(7, "constant", lambda prec: ScalarForm(Fraction(0), "SL2", QSeries.one(prec))),
        *(eisenstein_row("E6", k) for k in (10, 12)),
        _e6_odd(15, "E4^2", lambda prec: ScalarForm(Fraction(8), "SL2", eisenstein_sl2(4, prec).series ** 2)),
        *(eisenstein_row("E6", k) for k in (16, 18, 24)),
    )),
    "E7": Case("E7", "E7", (3, 2, 0, 1, 1, 1, 1), tuple(
        eisenstein_row("E7", k) for k in (4, 6, 10, 12, 14, 16, 18, 22, 24, 30)
    )),
}


# ---------------------------------------------------------------------------
# Independence certificates


@dataclass
class WeightRecord:
    weight: int
    monomials: List[Tuple[int, ...]]
    matrix_shape: Tuple[int, int]
    rank: int
    verdict: str  # "independent" | "inconclusive" | "trivial"

    def to_json(self) -> dict:
        return {
            "w": self.weight,
            "monomials": [list(m) for m in self.monomials],
            "matrix_shape": list(self.matrix_shape),
            "rank": self.rank,
            "verdict": self.verdict,
        }


@dataclass
class IndependenceCertificate:
    case: str
    generators: List[GeneratorRow]
    precision: Tuple[int, int]
    weights: List[WeightRecord]
    relations: List[dict]
    inference: str = (
        "independence of the pullback lifts implies independence of the orthogonal "
        "series: any algebraic relation upstream restricts to the same relation "
        "among the lifts computed here"
    )

    def all_independent(self) -> bool:
        return all(rec.verdict in ("independent", "trivial") for rec in self.weights)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "generators": [
                {"name": g.name, "weight": g.weight, "recipe": g.recipe} for g in self.generators
            ],
            "precision": {"nq": self.precision[0], "nxi": self.precision[1]},
            "weights": [rec.to_json() for rec in self.weights],
            "relations": self.relations,
            "inference": self.inference,
            "tool_version": __version__,
        }


class _MonomialCache:
    """One table of monomials in the generator lifts, at one precision (nq, nxi).

    The constructor pulls every row's Jacobi input back once, in row order,
    at truncation nq nxi, and reads the level from their common index.  A
    monomial comes in two kinds, each kept under its exponent: its
    evaluation at the first K points, per K (``lift_values``, then
    ``multiply_values``), and, only when the last step names a weight's
    relations, its exact product (``gritsenko_lift``, then ``multiply``).
    """

    def __init__(self, rows: Sequence[GeneratorRow], vector: Sequence[int], nq: int, nxi: int):
        self.nxi = nxi
        self.inputs = [row.jacobi(vector, nq * nxi) for row in rows]
        self.level = self.inputs[0].index
        for phi in self.inputs:
            if phi.index != self.level:
                raise ValueError(f"level mismatch: {self.level} vs {phi.index}")
        self._products: Dict[Tuple[int, ...], ParamodularForm] = {}
        self._values: Dict[int, Dict[Tuple[int, ...], np.ndarray]] = {}

    def _chain(self, expo: Tuple[int, ...], cache: dict, leaf: Callable, times: Callable):
        """The monomial of one kind: ``leaf`` of its generator's input in degree one, else
        ``times(lowered, unit)``, with the first nonzero exponent lowered by one."""
        if expo not in cache:
            if not any(expo):
                raise ValueError("empty monomial has no paramodular representative here")
            i = next(j for j, e in enumerate(expo) if e)
            unit = tuple(int(j == i) for j in range(len(expo)))
            if expo == unit:
                cache[expo] = leaf(self.inputs[i])
            else:
                lowered = expo[:i] + (expo[i] - 1,) + expo[i + 1 :]
                cache[expo] = times(self._chain(lowered, cache, leaf, times), self._chain(unit, cache, leaf, times))
        return cache[expo]

    def product(self, expo: Tuple[int, ...]) -> ParamodularForm:
        return self._chain(expo, self._products, lambda phi: gritsenko_lift(phi, self.nxi), multiply)

    def values(self, expo: Tuple[int, ...], points: int) -> np.ndarray:
        """The monomial's evaluation at the first ``points`` points: an integer multiple of ``product(expo)``'s, mod p."""
        return self._chain(expo, self._values.setdefault(points, {}), lambda phi: lift_values(phi, self.nxi, points), multiply_values)

    def residue_rows(self, monos: Sequence[Tuple[int, ...]], points: int) -> np.ndarray:
        """One row per monomial: its evaluation at the first ``points`` points, flattened."""
        return np.stack([self.values(expo, points).reshape(-1) for expo in monos])


def independence(
    rows: Sequence[GeneratorRow],
    vector: Sequence[int],
    w_max: int,
    schedule: Sequence[Tuple[int, int]] = DEFAULT_SCHEDULE,
    progress: Optional[Callable[[str], None]] = None,
) -> IndependenceCertificate:
    """Certificate of monomial independence of the rows' lifts along ``vector``, for every weight <= w_max.

    Residues decide every rank: a weight's residue rows are ranked mod p on
    the first ``SAMPLE_POINTS`` points, and on all W points if that is
    short; a full rank is conclusive.  A weight still short at full width
    escalates through the schedule.  At the last step one elimination of
    its integer numerator rows, on the keys of ``shared_support``, gives
    the rank and the left kernel, whose vectors an inconclusive weight
    reports as candidate relations.
    """
    if not schedule:
        raise ValueError("the precision schedule is empty")
    rows = list(rows)
    weights_list = [row.weight for row in rows]
    say = progress or (lambda msg: None)
    relations: List[dict] = []
    # each weight's monomials, enumerated once in one table for every schedule step
    by_weight = {w: [m for m in monos if sum(m) > 0] for w, monos in enumerate(monomial_table(weights_list, w_max))}
    records = {w: WeightRecord(w, [], (0, 0), 0, "trivial") for w, monos in by_weight.items() if not monos}
    pending = [w for w, monos in by_weight.items() if monos]
    used_precision = schedule[0]
    for step, (nq, nxi) in enumerate(schedule):
        if not pending:
            break
        used_precision = (nq, nxi)
        cache = _MonomialCache(rows, vector, nq, nxi)
        # the reported width: the count of indices (n, r, M) in the box with r^2 <= 4 n M level
        width = sum(2 * isqrt(4 * n * m * cache.level) + 1 for n in range(nq + 1) for m in range(nxi + 1))
        still_pending = []
        for w in pending:
            monos = by_weight[w]
            rank = _rank_mod_p(cache.residue_rows(monos, SAMPLE_POINTS))
            if rank < len(monos):
                rank = _rank_mod_p(cache.residue_rows(monos, evaluation_width(cache.level, nq, nxi)))
            if rank < len(monos) and step == len(schedule) - 1:
                forms = [cache.product(m) for m in monos]
                keys = shared_support(forms)
                # each row is a form's numerators: its coefficients times its own denominator; y with
                # sum_i y_i nums_i = 0 is the relation sum_i (y_i den_i) f_i = 0 among the forms
                kernel = left_kernel([[f.nums.get(key, 0) for key in keys] for f in forms])
                rank = len(monos) - len(kernel)
                for y in kernel:
                    rel = [yi * f.den for yi, f in zip(y, forms)]
                    g = gcd(*rel)
                    relations.append({"w": w, "coefficients": [str(x // g) for x in rel]})
            full = rank == len(monos)
            records[w] = WeightRecord(w, monos, (len(monos), width), rank, "independent" if full else "inconclusive")
            say(f"weight {w}: {len(monos)} monomials, rank {rank} at (nq,nxi)=({nq},{nxi}): {'independent' if full else 'deficient'}")
            if not full:
                still_pending.append(w)
        pending = still_pending
    return IndependenceCertificate(
        case="custom",
        generators=rows,
        precision=used_precision,
        weights=[records[w] for w in sorted(records)],
        relations=relations,
    )


def case_independence(
    case: str,
    w_max: int,
    schedule: Sequence[Tuple[int, int]] = DEFAULT_SCHEDULE,
    progress: Optional[Callable[[str], None]] = None,
) -> IndependenceCertificate:
    c = CASES[case]
    rows = [row for row in c.generators if row.weight <= w_max]
    return replace(independence(rows, c.vector, w_max, schedule, progress=progress), case=case)


# ---------------------------------------------------------------------------
# Freeness consistency: lower bounds against upper bounds


@dataclass
class FreenessReport:
    case: str
    bound_system: str
    precision: Tuple[int, int]
    weights: List[dict]
    certificate: IndependenceCertificate

    def consistent(self) -> bool:
        return all(rec["match"] for rec in self.weights)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "bound_system": self.bound_system,
            "precision": {"nq": self.precision[0], "nxi": self.precision[1]},
            "weights": self.weights,
            "certificate": self.certificate.to_json(),
            "tool_version": __version__,
        }


def certify_freeness(
    case: str,
    w_max: int,
    schedule: Sequence[Tuple[int, int]] = DEFAULT_SCHEDULE,
    progress: Optional[Callable[[str], None]] = None,
) -> FreenessReport:
    """Match monomial ranks (lower bounds) against weak-Jacobi upper bounds."""
    bound_system = CASES[case].bound_system
    cert = case_independence(case, w_max, schedule, progress=progress)
    weights = []
    for rec in cert.weights:
        lower = rec.rank if rec.verdict != "trivial" else 0
        if rec.weight == 0:
            lower = 1  # the constants
        upper = dim_upper_bound(bound_system, rec.weight)
        weights.append(
            {
                "w": rec.weight,
                "monomial_rank": lower,
                "upper_bound": upper,
                "match": lower == upper,
            }
        )
    return FreenessReport(case, bound_system, cert.precision, weights, cert)


# ---------------------------------------------------------------------------
# The weight-14 relation


WEIGHT14_EXPECTED = (Fraction(1330560), Fraction(2640), Fraction(-11088))


@dataclass
class Weight14Result:
    status: str  # "match" | "proportional" | "mismatch" | "inconsistent" | "underdetermined"
    coefficients: Optional[List[Fraction]]
    expected: Tuple[Fraction, Fraction, Fraction]
    scale: Optional[Fraction]
    precision: Tuple[int, int]
    detail: str

    def ok(self) -> bool:
        return self.status == "match"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "coefficients": [str(c) for c in self.coefficients] if self.coefficients else None,
            "expected": [str(c) for c in self.expected],
            "scale": str(self.scale) if self.scale is not None else None,
            "precision": {"nq": self.precision[0], "nxi": self.precision[1]},
            "detail": self.detail,
            "tool_version": __version__,
        }


def verify_weight14(nq: int = 5, nxi: int = 5) -> Weight14Result:
    """Express E14,0 + E14,1 in {E4^2 E6, E4 (E10,0+E10,1), E6 (E8,0+E8,1)}.

    The lifts are taken along the D8 case vector: seven of the D8 case rows,
    and the E14,1 row.  The expected exact coefficients are
    (1330560, 2640, -11088).  A solution proportional to but different from
    the expected one fails with a normalization diagnostic.
    """
    d8 = CASES["D8"]
    rows = {row.name: row for row in d8.generators + (eisenstein_row("D8", 14, 1, "E14,1"),)}
    e4, e6, e8_0, e8_1, e10_0, e10_1, e14_0, e14_1 = (
        rows[name].lift(d8.vector, nq, nxi) for name in ("E4", "E6", "E8,0", "E8,1", "E10,0", "E10,1", "E14,0", "E14,1")
    )
    target = e14_0 + e14_1
    basis = [
        multiply(multiply(e4, e4), e6),
        multiply(e4, e10_0 + e10_1),
        multiply(e6, e8_0 + e8_1),
    ]
    result = express_in_basis(target, basis)
    expected = WEIGHT14_EXPECTED
    if result.status != "unique":
        detail = f"no exact solution: {result.status}"
        if result.witness is not None:
            detail += f" at coefficient (n,r,M)={result.witness}"
        return Weight14Result(result.status, None, expected, None, (nq, nxi), detail)
    coeffs = result.coefficients
    if tuple(coeffs) == expected:
        return Weight14Result("match", coeffs, expected, Fraction(1), (nq, nxi), "exact match")
    scales = {c / e for c, e in zip(coeffs, expected) if e != 0}
    if len(scales) == 1:
        mu = scales.pop()
        return Weight14Result(
            "proportional",
            coeffs,
            expected,
            mu,
            (nq, nxi),
            f"coefficients equal {mu} times the expected values: normalization of the "
            f"generators is off by a global scalar",
        )
    return Weight14Result(
        "mismatch",
        coeffs,
        expected,
        None,
        (nq, nxi),
        "coefficients differ from the expected values by generator-dependent factors: "
        "check the per-generator normalization",
    )
