"""Exact linear-algebra certificates for the lifted Eisenstein generators.

Monomials in the generator lifts are flattened over a canonical coefficient
index set and their exact rank is computed by fraction-free elimination.
Full rank certifies linear independence at that weight (and hence upstream,
since any relation among the orthogonal series would restrict to a relation
among the pullback lifts).  Rank deficits are never reported as relations
outright: the kernel vectors are emitted as candidates and the precision
schedule escalates first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import isqrt
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .freealg import dim_upper_bound
from .lattice import lattice, norm
from .lifts import ParamodularForm, gritsenko_lift, multiply
from .linalg import bareiss_rank, clear_denominators, left_kernel, solve
from .weil import e6_from_sl2, jacobi_eisenstein, pullback
from .classical import ScalarForm, eisenstein_sl2
from .qseries import QSeries

DEFAULT_SCHEDULE: Tuple[Tuple[int, int], ...] = ((4, 4), (6, 6), (8, 8))

#: The pullback directions used throughout, with their norms.
CASE_VECTORS: Dict[str, Tuple[int, ...]] = {
    "D8": (4, 2, 3, 4, 1, 3, 2, 4),
    "E6": (3, 2, 0, 1, 1, 1),
    "E7": (3, 2, 0, 1, 1, 1, 1),
}

#: Root system whose weak Jacobi dimensions bound each case's orthogonal forms.
CASE_BOUND_SYSTEM: Dict[str, str] = {"D8": "C8", "E6": "E6", "E7": "E7"}


@dataclass(frozen=True)
class ExpressResult:
    """Outcome of solving target = sum_i x_i basis_i on all shared coefficients."""

    status: str  # "unique" | "inconsistent" | "underdetermined"
    coefficients: Optional[List[Fraction]] = None
    witness: Optional[Tuple[int, int, int]] = None  # coefficient index with no solution


def express_in_basis(target: ParamodularForm, basis: Sequence[ParamodularForm]) -> ExpressResult:
    """Solve the exact overdetermined system over the canonical index set."""
    for b in basis:
        if b.level != target.level or b.weight != target.weight:
            raise ValueError("basis forms must match the target's weight and level")
    nq = min([target.nq] + [b.nq for b in basis])
    nxi = min([target.nxi] + [b.nxi for b in basis])
    index_set = canonical_index_set(target.level, nq, nxi)
    keys = []
    matrix = []
    rhs = []
    for key in index_set:
        row = [b.coeffs.get(key, Fraction(0)) for b in basis]
        t = target.coeffs.get(key, Fraction(0))
        if any(x != 0 for x in row) or t != 0:
            keys.append(key)
            matrix.append(row)
            rhs.append(t)
    # Coefficients left out are zero on both sides, so they hold for any solution.
    if not matrix:
        return ExpressResult(status="underdetermined") if basis else ExpressResult(status="unique", coefficients=[])
    sol = solve(matrix, rhs)
    if sol.status == "inconsistent":
        return ExpressResult(status="inconsistent", witness=keys[sol.row])
    return ExpressResult(status=sol.status, coefficients=sol.values)


def canonical_index_set(level: int, nq: int, nxi: int) -> List[Tuple[int, int, int]]:
    """All (n, r, M) with n <= nq, M <= nxi, |r| <= sqrt(4 n M level), lexicographic."""
    out = []
    for n in range(nq + 1):
        rmax_n = isqrt(4 * n * nxi * level)
        for r in range(-rmax_n, rmax_n + 1):
            for m in range(nxi + 1):
                if 4 * n * m * level - r * r >= 0:
                    out.append((n, r, m))
    return out


# ---------------------------------------------------------------------------
# Monomials


def monomials(weights: Sequence[int], w: int) -> List[Tuple[int, ...]]:
    """All exponent vectors e >= 0 with sum e_i weights_i = w, in deterministic order."""
    if any(x <= 0 for x in weights):
        raise ValueError("weights must be positive")
    out: List[Tuple[int, ...]] = []

    def recurse(i: int, remaining: int, expo: List[int]):
        if i == len(weights):
            if remaining == 0:
                out.append(tuple(expo))
            return
        for e in range(remaining // weights[i] + 1):
            recurse(i + 1, remaining - e * weights[i], expo + [e])

    recurse(0, w, [])
    return out


# ---------------------------------------------------------------------------
# Generators and cases


@dataclass(frozen=True)
class GeneratorSpec:
    """A named generator with a recipe for (re)building its lift at any precision."""

    name: str
    weight: int
    recipe: str
    build: Callable[[int, int], ParamodularForm] = field(compare=False, repr=False)


def _eisenstein_lift_builder(case: str, k: int, orbit: int) -> Callable[[int, int], ParamodularForm]:
    v = CASE_VECTORS[case]

    def build(nq: int, nxi: int) -> ParamodularForm:
        form = jacobi_eisenstein(case, k, orbit, prec=nq * nxi + 1)
        return gritsenko_lift(pullback(form, v, nq=nq * nxi), nxi)

    return build


def _e6_odd_lift_builder(sl2_weight: int) -> Callable[[int, int], ParamodularForm]:
    v = CASE_VECTORS["E6"]

    def build(nq: int, nxi: int) -> ParamodularForm:
        prec = nq * nxi + 1
        if sl2_weight == 0:
            f = ScalarForm(Fraction(0), "SL2", QSeries.one(prec))
        else:
            e4 = eisenstein_sl2(4, prec)
            f = ScalarForm(Fraction(8), "SL2", e4.series * e4.series)
        form = e6_from_sl2(f, prec=prec)
        return gritsenko_lift(pullback(form, v, nq=nq * nxi), nxi)

    return build


def case_generators(case: str) -> List[GeneratorSpec]:
    """The full generator list of the case, in weight order."""
    if case == "D8":
        gens = [
            GeneratorSpec("E4", 4, "lift of pullback of weight-4 orbit-0 Eisenstein data", _eisenstein_lift_builder("D8", 4, 0)),
            GeneratorSpec("E6", 6, "lift of pullback of weight-6 orbit-0 Eisenstein data", _eisenstein_lift_builder("D8", 6, 0)),
        ]
        for k in (8, 10, 12):
            for orbit in (0, 1):
                gens.append(
                    GeneratorSpec(
                        f"E{k},{orbit}",
                        k,
                        f"lift of pullback of weight-{k} orbit-{orbit} Eisenstein data",
                        _eisenstein_lift_builder("D8", k, orbit),
                    )
                )
        for k in (14, 16, 18):
            gens.append(
                GeneratorSpec(
                    f"E{k},0",
                    k,
                    f"lift of pullback of weight-{k} orbit-0 Eisenstein data",
                    _eisenstein_lift_builder("D8", k, 0),
                )
            )
        return gens
    if case == "E6":
        gens = []
        for k in (4, 6):
            gens.append(GeneratorSpec(f"E{k}", k, f"lift of pullback of weight-{k} Eisenstein data", _eisenstein_lift_builder("E6", k, 0)))
        gens.append(GeneratorSpec("M7", 7, "lift of pullback of the odd weight-7 form (constant input)", _e6_odd_lift_builder(0)))
        for k in (10, 12):
            gens.append(GeneratorSpec(f"E{k}", k, f"lift of pullback of weight-{k} Eisenstein data", _eisenstein_lift_builder("E6", k, 0)))
        gens.append(GeneratorSpec("M15", 15, "lift of pullback of the odd weight-15 form (E4^2 input)", _e6_odd_lift_builder(8)))
        for k in (16, 18, 24):
            gens.append(GeneratorSpec(f"E{k}", k, f"lift of pullback of weight-{k} Eisenstein data", _eisenstein_lift_builder("E6", k, 0)))
        return gens
    if case == "E7":
        return [
            GeneratorSpec(f"E{k}", k, f"lift of pullback of weight-{k} Eisenstein data", _eisenstein_lift_builder("E7", k, 0))
            for k in (4, 6, 10, 12, 14, 16, 18, 22, 24, 30)
        ]
    raise ValueError(f"unknown case {case!r}; expected D8, E6 or E7")


def case_level(case: str) -> int:
    lat = lattice(case)
    return int(norm(lat, CASE_VECTORS[case]))


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
    generators: List[GeneratorSpec]
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
    """Products of generator lifts, built incrementally and reused."""

    def __init__(self, gens: Sequence[GeneratorSpec], nq: int, nxi: int):
        self.gens = gens
        self.nq = nq
        self.nxi = nxi
        self._lifts: Dict[int, ParamodularForm] = {}
        self._products: Dict[Tuple[int, ...], ParamodularForm] = {}

    def lift(self, i: int) -> ParamodularForm:
        if i not in self._lifts:
            self._lifts[i] = self.gens[i].build(self.nq, self.nxi)
        return self._lifts[i]

    def product(self, expo: Tuple[int, ...]) -> ParamodularForm:
        if expo in self._products:
            return self._products[expo]
        total = sum(expo)
        if total == 0:
            raise ValueError("empty monomial has no paramodular representative here")
        if total == 1:
            i = expo.index(1)
            result = self.lift(i)
        else:
            i = next(j for j, e in enumerate(expo) if e)
            reduced = list(expo)
            reduced[i] -= 1
            result = multiply(self.product(tuple(reduced)), self.lift(i))
        self._products[expo] = result
        return result


def independence(
    generators: Sequence[GeneratorSpec],
    w_max: int,
    schedule: Sequence[Tuple[int, int]] = DEFAULT_SCHEDULE,
    progress: Optional[Callable[[str], None]] = None,
) -> IndependenceCertificate:
    """Certificate of monomial independence for every weight <= w_max.

    Coefficients are compared on the canonical index set of the lifts' own
    level.  Full rank at the first precision is conclusive; deficient ranks
    escalate through the schedule and only then are reported as
    inconclusive, with the kernel vectors as candidate relations.
    """
    generators = list(generators)
    weights_list = [g.weight for g in generators]
    say = progress or (lambda msg: None)
    records: Dict[int, WeightRecord] = {}
    relations: List[dict] = []
    pending = list(range(w_max + 1))
    used_precision = schedule[0]
    for step, (nq, nxi) in enumerate(schedule):
        used_precision = (nq, nxi)
        cache = _MonomialCache(generators, nq, nxi)
        still_pending = []
        for w in pending:
            monos = [m for m in monomials(weights_list, w) if sum(m) > 0]
            if not monos:
                records[w] = WeightRecord(w, [], (0, 0), 0, "trivial")
                continue
            forms = [cache.product(m) for m in monos]
            index_set = canonical_index_set(forms[0].level, nq, nxi)
            rows_frac = [[f.coeffs.get(key, Fraction(0)) for key in index_set] for f in forms]
            rank = bareiss_rank([clear_denominators(row) for row in rows_frac])
            if rank == len(monos):
                records[w] = WeightRecord(w, monos, (len(monos), len(index_set)), rank, "independent")
                say(f"weight {w}: {len(monos)} monomials, rank {rank} at (nq,nxi)=({nq},{nxi}): independent")
            else:
                records[w] = WeightRecord(w, monos, (len(monos), len(index_set)), rank, "inconclusive")
                say(f"weight {w}: {len(monos)} monomials, rank {rank} at (nq,nxi)=({nq},{nxi}): deficient")
                still_pending.append(w)
                if step == len(schedule) - 1:
                    for vec in left_kernel(rows_frac):
                        relations.append(
                            {"w": w, "coefficients": [str(x) for x in vec]}
                        )
        pending = still_pending
        if not pending:
            break
    return IndependenceCertificate(
        case="custom",
        generators=generators,
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
    gens = [g for g in case_generators(case) if g.weight <= w_max]
    return replace(independence(gens, w_max, schedule, progress=progress), case=case)


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
    bound_system = CASE_BOUND_SYSTEM[case]
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


def verify_weight14(
    nq: int = 5,
    nxi: int = 5,
    corrupt: Optional[Tuple[Tuple[int, int, int], Fraction]] = None,
) -> Weight14Result:
    """Express E14,0 + E14,1 in {E4^2 E6, E4 (E10,0+E10,1), E6 (E8,0+E8,1)}.

    The expected exact coefficients are (1330560, 2640, -11088).  A solution
    proportional to but different from the expected one fails with a
    normalization diagnostic.  ``corrupt`` perturbs one lift coefficient of
    the first weight-8 generator (negative-control hook).
    """
    e4, e6, e8_0, e8_1, e10_0, e10_1, e14_0, e14_1 = (
        _eisenstein_lift_builder("D8", k, orbit)(nq, nxi)
        for k, orbit in ((4, 0), (6, 0), (8, 0), (8, 1), (10, 0), (10, 1), (14, 0), (14, 1))
    )
    if corrupt is not None:
        key, amount = corrupt
        coeffs = dict(e8_0.coeffs)
        coeffs[key] = coeffs.get(key, Fraction(0)) + amount
        e8_0 = ParamodularForm(e8_0.weight, e8_0.level, coeffs, e8_0.nq, e8_0.nxi)
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
