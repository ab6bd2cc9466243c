"""Even positive-definite root lattices and exact (norm, pairing) counts of dual cosets.

Lattices are realized concretely as Z^rank with an integer Gram matrix A.
The dual lattice lives in the same rational coordinates (it is spanned by
the columns of A^-1), so the pairing of a dual vector ``l`` with a lattice
vector ``v`` is always ``l^T A v``.

Every dual coordinate comes from one orthogonal frame: pairwise orthogonal
roots of L, completed by integer Gram-Schmidt vectors to a basis b_1..b_n of
a sublattice M of finite index.  With N_i = b_i^T A b_i and S = lcm N_i,
S*A^-1 = sum_i (S/N_i) b_i b_i^T is an integer matrix, so the discriminant
cosets are closed on integer tuples mod S.  In frame coordinates the norm
and the pairing with a fixed vector split into n independent rank-1 terms,
and L' is the disjoint union of [L':M] translates of M, [L:M] in each coset
of L.  The theta series of an orthogonal sum is the product of its
summands' (Conway and Sloane, *Sphere Packings, Lattices and Groups*,
ch. 4), so :func:`pairing_counts` multiplies n rank-1 theta factors per
translate, as sparse exact-integer tables truncated at the norm bound.  All
cosets are counted in one walk, scaled by D, the lcm of the coset
denominators, so that every translate has integer residues mod D*N_i.  Each
translate's residue tuple, with its coset's index as a last symbol, is a
word of a code, and the products run on the code's minimal trellis (Forney,
*Coset codes II*, 1988): translates whose prefixes are followed by the same
set of suffixes share one state, whose table is the sum of theirs, also
when they lie in different cosets; the last symbol parts the cosets after
the last factor.  No vector is enumerated.  The walk's per-coset arrays
stay in a one-entry memo, because callers ask for the cosets of one
direction one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, isqrt, lcm, prod
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .linalg import clear_denominators, det
from .qseries import as_fraction

Vector = Tuple[Fraction, ...]


class UnknownLatticeError(KeyError):
    """Requested lattice is not in the registry."""


@dataclass(frozen=True)
class Coset:
    """One coset of the discriminant group, in rational ambient coordinates."""

    index: int
    rep: Vector
    norm_mod1: Fraction
    denominator: int

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.rep)


@dataclass(frozen=True)
class LatticeData:
    name: str
    rank: int
    gram: Tuple[Tuple[int, ...], ...]
    cosets: Tuple[Coset, ...]

    def __hash__(self) -> int:
        # the name alone: hashing every coset's Fraction coordinates would cost a memo lookup 30-50 us
        return hash(self.name)

    def coset(self, index: int) -> Coset:
        return self.cosets[index]

    @property
    def discriminant(self) -> int:
        return len(self.cosets)


# ---------------------------------------------------------------------------
# Gram matrices


def _cartan_a(n: int) -> List[List[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
        if i + 1 < n:
            m[i][i + 1] = m[i + 1][i] = -1
    return m


def _cartan_d(n: int) -> List[List[int]]:
    # Chain 0-1-...-(n-3), with node n-3 joined to both n-2 and n-1.
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for i in range(n - 3):
        m[i][i + 1] = m[i + 1][i] = -1
    m[n - 3][n - 2] = m[n - 2][n - 3] = -1
    m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    return m


def _copies_a1(n: int) -> List[List[int]]:
    return [[2 if i == j else 0 for j in range(n)] for i in range(n)]


_E6_GRAM = [
    [2, 0, -1, 0, 0, 0],
    [0, 2, 0, -1, 0, 0],
    [-1, 0, 2, -1, 0, 0],
    [0, -1, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]

_E7_GRAM = [
    [2, 0, -1, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, -1, 2],
]


def _gram_table() -> Dict[str, List[List[int]]]:
    table: Dict[str, List[List[int]]] = {}
    for n in range(1, 8):
        table[f"A{n}"] = _cartan_a(n)
    for n in (2, 3, 4):
        table[f"{n}A1"] = _copies_a1(n)
    for n in (4, 5, 6, 7, 8):
        table[f"D{n}"] = _cartan_d(n)
    table["E6"] = _E6_GRAM
    table["E7"] = _E7_GRAM
    return table


_GRAMS = _gram_table()


def gram_matrix(name: str) -> Tuple[Tuple[int, ...], ...]:
    """Exact Gram matrix of a registered lattice."""
    try:
        return tuple(tuple(row) for row in _GRAMS[name])
    except KeyError:
        raise UnknownLatticeError(f"unknown lattice {name!r}; known: {sorted(_GRAMS)}") from None


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(x, y))


def _form(gram, x: Sequence[int], y: Sequence[int]) -> int:
    """x^T A y for integer vectors."""
    return _dot(x, [_dot(row, y) for row in gram])


# ---------------------------------------------------------------------------
# Orthogonal frame


def _closure(start, moves) -> set:
    """The smallest set holding ``start`` and closed under every map in ``moves``."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for move in moves:
                y = move(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _roots(gram) -> List[Tuple[int, ...]]:
    """All norm-2 vectors, sorted: the reflection closure of the simple roots e_j.

    Every basis vector of a registered lattice is a simple root (Gram diagonal
    2), the reflection in e_j is y -> y - (A y)_j e_j, and the Weyl group
    moves some simple root onto every root.  Each round reflects the whole
    frontier Y in every e_j at once: s_j(Y) = Y - (Y A)_j e_j.
    """
    a = np.array(gram, dtype=np.int64)
    n = len(a)
    diagonal = np.arange(n)
    seen: set = set()
    frontier = np.eye(n, dtype=np.int64)
    while len(frontier):
        seen.update(map(tuple, frontier.tolist()))
        images = np.repeat(frontier[None], n, axis=0)
        images[diagonal, :, diagonal] -= (frontier @ a).T
        fresh = set(map(tuple, images.reshape(-1, n).tolist())) - seen
        frontier = np.array(list(fresh), dtype=np.int64).reshape(-1, n)
    return sorted(seen)


@dataclass(frozen=True)
class _Frame:
    """Pairwise orthogonal b_1..b_n in L, a basis of a sublattice M of finite index.

    ``duals[i]`` is A b_i, so <b_i, y> = duals[i] . y, and ``norms[i]`` is
    N_i = b_i^T A b_i.  In frame coordinates l = sum_i x_i b_i with
    x_i = <b_i, l> / N_i, so y^T A y = sum_i <b_i, y>^2 / N_i and
    A^-1 = sum_i b_i b_i^T / N_i.  ``shifts`` lists L/M as the tuples
    (<b_i, x> mod N_i)_i over x in L: the map has kernel M, so there are
    [L:M] of them.
    """

    basis: Tuple[Tuple[int, ...], ...]
    duals: Tuple[Tuple[int, ...], ...]
    norms: Tuple[int, ...]
    shifts: Tuple[Tuple[int, ...], ...]


#: Frames and ``LatticeData`` kept, one per registered lattice (17 are registered); the least recently used goes first.
_LATTICES_LIMIT = 32


@lru_cache(maxsize=_LATTICES_LIMIT)
def _frame(gram: Tuple[Tuple[int, ...], ...]) -> _Frame:
    """Greedily pick orthogonal roots, then add primitive integer Gram-Schmidt vectors."""
    n = len(gram)
    basis: List[Tuple[int, ...]] = []
    duals: List[Tuple[int, ...]] = []

    def add(b: Tuple[int, ...]) -> None:
        basis.append(b)
        duals.append(tuple(_dot(row, b) for row in gram))

    # greedy in sorted order: take the first root orthogonal to every root taken so far
    roots = _roots(gram)
    vectors = np.array(roots, dtype=np.int64)
    orthogonal = vectors @ np.array(gram, dtype=np.int64) @ vectors.T == 0
    free = np.ones(len(roots), dtype=bool)
    while free.any():
        i = int(free.argmax())
        add(roots[i])
        free &= orthogonal[i]
    for j in range(n):
        if len(basis) == n:
            break
        # P * (e_j minus its projection onto the frame so far), P = lcm of the norms
        norms = [_dot(d, b) for d, b in zip(duals, basis)]
        big = lcm(1, *norms)
        w = [big * int(i == j) for i in range(n)]
        for b, d, nb in zip(basis, duals, norms):
            c = big // nb * d[j]
            w = [x - c * y for x, y in zip(w, b)]
        if any(w):
            g = gcd(*w)
            add(tuple(x // g for x in w))
    norms = tuple(_dot(d, b) for d, b in zip(duals, basis))
    gens = [tuple(d[j] % nb for d, nb in zip(duals, norms)) for j in range(n)]
    moves = [lambda x, g=g: tuple((a + b) % nb for a, b, nb in zip(x, g, norms)) for g in gens]
    shifts = tuple(sorted(_closure([(0,) * n], moves)))
    return _Frame(tuple(basis), tuple(duals), norms, shifts)


# ---------------------------------------------------------------------------
# Discriminant group


def _scaled_inverse(gram) -> Tuple[int, List[List[int]]]:
    """(S, S*A^-1) with S = lcm N_i, read off the frame: S*A^-1 = sum_i (S/N_i) b_i b_i^T."""
    frame = _frame(gram)
    scale = lcm(*frame.norms)
    n = len(gram)
    terms = [(scale // nb, b) for b, nb in zip(frame.basis, frame.norms)]
    return scale, [[sum(c * b[i] * b[j] for c, b in terms) for j in range(n)] for i in range(n)]


def _discriminant_cosets(gram) -> Tuple[int, List[Tuple[int, ...]]]:
    """S and the cosets of L'/L as integer tuples y = S*rep with entries in [0, S)."""
    scale, inv = _scaled_inverse(gram)
    # S*A^-1 is symmetric, so its rows are the generating columns
    gens = [tuple(x % scale for x in row) for row in inv]
    moves = [lambda y, g=g: tuple((a + b) % scale for a, b in zip(y, g)) for g in gens]
    return scale, list(_closure([(0,) * len(gram)], moves))


@lru_cache(maxsize=_LATTICES_LIMIT)
def lattice(name: str) -> LatticeData:
    gram = gram_matrix(name)
    scale, reps = _discriminant_cosets(gram)
    square = 2 * scale * scale  # Q(y/S) = y^T A y / 2S^2
    # Zero coset first, then sorted by (norm mod 1, coordinates).
    reps.sort(key=lambda y: (any(y), _form(gram, y, y) % square, y))
    cosets = tuple(
        Coset(
            index=i,
            rep=tuple(Fraction(a, scale) for a in y),
            norm_mod1=Fraction(_form(gram, y, y) % square, square),
            denominator=scale // gcd(scale, *y),
        )
        for i, y in enumerate(reps)
    )
    size = det(gram)
    if len(cosets) != size:
        raise AssertionError(f"discriminant group of {name} has {len(cosets)} elements, det is {size}")
    return LatticeData(name, len(gram), gram, cosets)


# ---------------------------------------------------------------------------
# Norms on a LatticeData


def norm(lat: LatticeData, v: Sequence) -> Fraction:
    """Q(v) = (v^T A v) / 2 in exact arithmetic."""
    if len(v) != lat.rank:
        raise ValueError(f"vector has length {len(v)}, lattice rank is {lat.rank}")
    y, den = clear_denominators(v)
    return Fraction(_form(lat.gram, y, y), 2 * den * den)


# ---------------------------------------------------------------------------
# Exact counting by (norm, pairing): products of rank-1 theta factors

#: Bound on the packed (s, r) keys and on the counts, both int64.
_INT64_LIMIT = 1 << 62


def _check_int64(what: str, value: int, qmax) -> None:
    if value >= _INT64_LIMIT:
        raise ValueError(
            f"pairing_counts: {what} = {value} does not fit int64 (limit 2^62); qmax = {qmax} is too large"
        )


def _merge(keys: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys with the integer sums of their counts."""
    if len(keys) == 0:
        return keys, counts
    order = keys.argsort(kind="stable")
    keys = keys[order]
    starts = np.concatenate(([True], keys[1:] != keys[:-1])).nonzero()[0]
    return keys[starts], np.add.reduceat(counts[order], starts)


#: One coset's counts as int64 arrays: scaled norms s, pairings r and counts, in increasing (s, r).
_Tally = Tuple[np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=1)
def _dual_counts(lat: LatticeData, v: Tuple[int, ...], qmax: Fraction) -> Tuple[_Tally, ...]:
    """The (s, r) tallies of every coset of L'/L from one trellis walk; see :func:`pairing_counts`.

    One entry is kept: ``weil`` asks for the cosets of one (lattice,
    direction, qmax) one after another, and the first call counts them all.
    """
    n = lat.rank
    den = lcm(*(c.denominator for c in lat.cosets))  # D
    smax = floor(2 * den * den * qmax)  # y^T A y is an integer, so <= smax is exactly Q <= qmax
    frame = _frame(lat.gram)
    norms = frame.norms
    p = [_dot(d, v) for d in frame.duals]
    vav = _form(lat.gram, v, v)
    s_scale = lcm(*norms)
    r_scale = lcm(*(nb * den // gcd(nb * den, pb) for nb, pb in zip(norms, p)))
    half = isqrt(r_scale * r_scale * smax * vav) // den
    width = 2 * half + 1
    top = s_scale * smax
    # u_i^2 <= smax N_i; a rank-1 factor has at most 2 t_i / (D N_i) + 1 terms
    roots_of = [isqrt(smax * nb) for nb in norms]
    _check_int64("packed (s, r) key range (S*smax + 1)*W", (top + 1) * width, qmax)
    _check_int64(
        "count bound [L':M] * prod of factor sizes",
        len(lat.cosets) * len(frame.shifts) * prod(2 * t // (den * nb) + 1 for t, nb in zip(roots_of, norms)),
        qmax,
    )

    factors: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    def factor(i: int, u0: int) -> Tuple[np.ndarray, np.ndarray]:
        # keys of u = u0 + m k with u^2 <= t^2 (u^2 <= smax N_i), m = D N_i, and for each
        # the largest key a partial product may hold to stay within S*smax
        if (i, u0) not in factors:
            m, t = den * norms[i], roots_of[i]
            u = u0 + m * np.arange(-((t + u0) // m), (t - u0) // m + 1, dtype=np.int64)
            keys_f = (s_scale // norms[i]) * u * u * width + (r_scale * p[i] // m) * u
            factors[i, u0] = keys_f, (top - (keys_f + half) // width) * width + half
        return factors[i, u0]

    def times(table: Tuple[np.ndarray, np.ndarray], terms: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, ...]:
        # every (row, term) pair with S*s_row + S*s_term <= S*smax; rows are sorted by key, hence by s
        keys, counts = table
        keys_f, bounds = terms
        cut = keys.searchsorted(bounds, side="right")
        rows = np.arange(int(cut.sum()), dtype=np.int64) - (cut.cumsum() - cut).repeat(cut)
        return _merge(keys_f.repeat(cut) + keys[rows], counts[rows])

    def summed(tables: List[Tuple[np.ndarray, np.ndarray]]) -> Tuple[np.ndarray, np.ndarray]:
        if len(tables) == 1:
            return tables[0]
        return _merge(np.concatenate([k for k, _ in tables]), np.concatenate([c for _, c in tables]))

    # every translate of D*M in D*L': residues u0_i = <b_i, D rep> + D c_i mod D N_i for a coset
    # rep and a shift c of L/M, then the coset's index as the last symbol.  Walked on their
    # minimal trellis, a state is the set of suffixes still to come, and it holds the summed
    # tables of the prefixes that share it, across cosets too; the last symbol keeps the
    # cosets apart after the n-th factor
    shifts = den * np.array(frame.shifts, dtype=np.int64)
    moduli = den * np.array(norms, dtype=np.int64)
    starts = set()
    for coset in lat.cosets:
        y = [x.numerator * (den // x.denominator) for x in coset.rep]
        u_g = np.array([_dot(d, y) for d in frame.duals], dtype=np.int64)
        starts.update(tuple(row + [coset.index]) for row in ((u_g + shifts) % moduli).tolist())
    states = {frozenset(starts): (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))}
    for i in range(n):
        edges: Dict[frozenset, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for future, table in states.items():
            branches: Dict[int, List[tuple]] = {}
            for suffix in future:
                branches.setdefault(suffix[0], []).append(suffix[1:])
            for u0, rest in branches.items():
                edges.setdefault(frozenset(rest), []).append(times(table, factor(i, u0)))
        states = {after: summed(tables) for after, tables in edges.items()}

    tallies: List[_Tally] = [None] * len(lat.cosets)
    for future, (keys, counts) in states.items():
        ((index,),) = future
        s_packed, r_packed = np.divmod(keys + half, width)
        r_packed -= half
        # y^T A y is (D/d)^2 times the coset's own s = 2 d^2 Q(l), d its denominator
        step = s_scale * (den // lat.cosets[index].denominator) ** 2
        if np.any(s_packed % step) or np.any(r_packed % r_scale):
            raise AssertionError("a counted vector is off the integer (s, r) grid")
        tally = (s_packed // step, r_packed // r_scale, counts)
        for a in tally:
            a.flags.writeable = False  # shared by every call through the memo
        tallies[index] = tally
    return tuple(tallies)


def pairing_counts(lat: LatticeData, coset: Coset, direction: Sequence[int], qmax) -> Dict[Tuple[int, int], int]:
    """Exact counts of coset vectors by (scaled norm, pairing with direction).

    Returns a dict mapping ``(s, r) -> count`` where ``s = 2*den^2*Q(l)`` (an
    integer; ``den`` is the coset denominator) and ``r = <l, direction>``,
    over all ``l`` in the coset with ``Q(l) <= qmax``, in increasing (s, r).

    Every coset is counted at once, on y = D*l with D = lcm of the coset
    denominators: y ranges over the [L':M] translates of D*M in D*L', and
    y^T A y = 2 D^2 Q(l) <= smax = floor(2*D^2*qmax).  In the frame of
    :func:`_frame`, u_i = <b_i, y> gives y^T A y = sum_i u_i^2 / N_i and
    D*r = sum_i u_i p_i / N_i with p_i = <b_i, v>, and a translate is the
    set of y with u_i = <b_i, D*rep> + D*c_i mod D*N_i for a coset rep and
    a shift c of L/M.  So the tally of one translate is the product of n
    rank-1 factors {(u^2/N_i, u p_i/(D N_i)) : u = u0_i mod D*N_i}.  The
    products run on the minimal trellis of the residue tuples u0, each
    with its coset's index appended as a last symbol: after i factors, the
    prefixes followed by the same set of suffixes form one state, across
    cosets too, and their tables are summed into one.  The sum is exact,
    because every suffix multiplies each of them alike and truncation at
    the norm bound is linear.  After the last factor a state's only suffix
    is one coset's index, so each coset ends in a state of its own, whose
    norms y^T A y are (D/den)^2 times the coset's s.

    Every quantity is an exact integer: a partial term is packed as the key
    (S*s)*W + R*r with S = lcm N_i and R the least multiple of every
    D*N_i / gcd(D*N_i, p_i).  A partial product is the sum of the
    orthogonal projections of y onto some b_i, so its norm never exceeds
    the full norm, and truncating every product at S*smax loses nothing;
    by Cauchy-Schwarz its pairing has |R*r| <= H = floor(R*sqrt(smax v^T A
    v)/D), so W = 2H + 1 separates the fields.  Equal keys merge by a
    sort and integer sums, the result is checked to lie on each coset's
    integer (s, r) grid, and the key range (S*smax + 1)*W and the largest
    possible count, [L':M] times the product of the factor sizes (a state
    may sum translates of several cosets), are bounded before anything is
    allocated: a qmax beyond int64 raises ``ValueError``, and so do a
    direction entry that is not an integer and a coset that is not one of
    ``lat``'s.

    The walk's per-coset int64 arrays sit in a one-entry memo,
    :func:`_dual_counts`: ``weil`` asks for the cosets of one direction
    one call each, so the first call walks and the others read its arrays.
    Each call builds a new dict.
    """
    qmax = as_fraction(qmax)
    n = lat.rank
    if len(direction) != n:
        raise ValueError(f"direction has length {len(direction)}, lattice rank is {n}")
    for x in direction:
        if x != int(x):
            raise ValueError(f"direction must be a lattice vector, got entry {x}")
    if not 0 <= coset.index < len(lat.cosets) or lat.cosets[coset.index] != coset:
        raise ValueError(f"coset {coset.index} with rep {coset.rep} is not a coset of {lat.name}")
    if qmax < 0:
        return {}
    s, r, counts = _dual_counts(lat, tuple(int(x) for x in direction), qmax)[coset.index]
    return dict(zip(zip(s.tolist(), r.tolist()), counts.tolist()))
