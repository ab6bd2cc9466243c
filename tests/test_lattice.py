"""Lattice registry, norms, pairings, the orthogonal frame, and exact counting."""

import tracemalloc
from fractions import Fraction
from itertools import product
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omfree.certify import CASES
from omfree.lattice import (
    UnknownLatticeError,
    _frame,
    _roots,
    gram_matrix,
    lattice,
    norm,
    pairing_counts,
)
import omfree.lattice as lattice_module
from omfree.linalg import det
import oracles
from oracles import LATTICES, _isqrt_floor, descent_counts, enumerate_coset, pairing, rational_cosets, roots_oracle

D8_VEC = (4, 2, 3, 4, 1, 3, 2, 4)
#: The first direction of the seeded D8 pullback sweep.
D8_SWEEP_VEC = (-2, 1, 3, 3, 3, -3, -1, -3)
E6_VEC = (3, 2, 0, 1, 1, 1)
E7_VEC = (3, 2, 0, 1, 1, 1, 1)
A6_VEC = (1, 0, 2, 0, -1, 1)
A7_VEC = (2, 1, 0, 0, 0, 1, 0)
#: [L:M] of the greedy frame, for the lattices the counts run on most.
FRAME_INDEX = {"D8": 8, "E7": 8, "E6": 16, "D4": 2, "A7": 48, "A1": 1, "2A1": 1, "3A1": 1, "4A1": 1}


def box_coset_norms(gram, rep, qmax, radius):
    """Independent oracle: brute-force box search over rep + Z^n."""
    n = len(gram)
    found = []
    for offs in product(range(-radius, radius + 1), repeat=n):
        vec = [Fraction(r) + o for r, o in zip(rep, offs)]
        q = sum(vec[i] * gram[i][j] * vec[j] for i in range(n) for j in range(n)) / 2
        if q <= qmax:
            found.append((tuple(vec), q))
    return sorted(found)


# ---------------------------------------------------------------------------
# registry and gram matrices


def test_gram_a1():
    assert gram_matrix("A1") == ((2,),)


def test_gram_e6_matches_printed_matrix():
    assert gram_matrix("E6") == (
        (2, 0, -1, 0, 0, 0),
        (0, 2, 0, -1, 0, 0),
        (-1, 0, 2, -1, 0, 0),
        (0, -1, -1, 2, -1, 0),
        (0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, -1, 2),
    )


def test_gram_d8_matches_printed_matrix():
    assert gram_matrix("D8") == (
        (2, -1, 0, 0, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0, 0, 0),
        (0, -1, 2, -1, 0, 0, 0, 0),
        (0, 0, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, 0),
        (0, 0, 0, 0, -1, 2, -1, -1),
        (0, 0, 0, 0, 0, -1, 2, 0),
        (0, 0, 0, 0, 0, -1, 0, 2),
    )


def test_unknown_lattice():
    with pytest.raises(UnknownLatticeError):
        gram_matrix("Z26")


@pytest.mark.parametrize("name,det", [("A1", 2), ("A7", 8), ("D8", 4), ("E6", 3), ("E7", 2), ("4A1", 16)])
def test_discriminant_group_size_is_det(name, det):
    assert lattice(name).discriminant == det


# ---------------------------------------------------------------------------
# norms (acceptance criterion 8 values)


def test_norm_d8_vector():
    lat = lattice("D8")
    assert norm(lat, D8_VEC) == 24
    # v^T A v = 48
    total = sum(D8_VEC[i] * lat.gram[i][j] * D8_VEC[j] for i in range(8) for j in range(8))
    assert total == 48


def test_norm_e6_vector():
    assert norm(lattice("E6"), (3, 2, 0, 1, 1, 1)) == 12


def test_norm_e7_vector():
    assert norm(lattice("E7"), (3, 2, 0, 1, 1, 1, 1)) == 12


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        norm(lattice("E6"), (1, 2, 3))


# ---------------------------------------------------------------------------
# coset structure


def test_d8_coset_norms():
    lat = lattice("D8")
    norms = sorted(c.norm_mod1 for c in lat.cosets)
    assert norms == [0, 0, 0, Fraction(1, 2)]
    # minimal norms within each class: 0 for the zero class, 1 for the two
    # integer-norm classes, 1/2 for the half-norm class
    mins = {}
    for c in lat.cosets:
        vecs = enumerate_coset(lat, c, 2)
        nonzero = [q for v, q in vecs if any(x != 0 for x in v)]
        mins[c.index] = min(nonzero) if not c.is_zero() else 0
    assert mins[0] == 0 and mins[1] == 1 and mins[2] == 1 and mins[3] == Fraction(1, 2)


def test_e6_coset_norms():
    assert sorted(c.norm_mod1 for c in lattice("E6").cosets) == [0, Fraction(2, 3), Fraction(2, 3)]


def test_e7_coset_norms():
    assert sorted(c.norm_mod1 for c in lattice("E7").cosets) == [0, Fraction(3, 4)]


def test_cusp_orbits():
    # the Eisenstein data reads orbit 0 at coset 0 and the D8 orbit-1 pair at cosets 1 and 2
    for name in ("D8", "E6", "E7"):
        assert lattice(name).coset(0).is_zero()
    assert [c.norm_mod1 for c in lattice("D8").cosets] == [0, 0, 0, Fraction(1, 2)]


@pytest.mark.parametrize("name", LATTICES)
def test_cosets_match_rational_inverse_oracle(name):
    # index, rep, norm_mod1, denominator and order, against Fractions from n exact solves
    assert lattice(name).cosets == rational_cosets(gram_matrix(name))


def test_coset_reps_are_dual_vectors():
    for name in ("D8", "E6", "E7", "A3"):
        lat = lattice(name)
        for c in lat.cosets:
            # gram . rep must be integral
            for i in range(lat.rank):
                val = sum(Fraction(lat.gram[i][j]) * c.rep[j] for j in range(lat.rank))
                assert val.denominator == 1


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_zero_coset_qmax_zero():
    lat = lattice("D8")
    assert enumerate_coset(lat, 0, 0) == [((Fraction(0),) * 8, Fraction(0))]


def test_enumerate_d8_roots():
    # zero vector plus the 112 roots
    lat = lattice("D8")
    assert len(enumerate_coset(lat, 0, 1)) == 113


def test_enumerate_nonzero_coset_min_norm():
    lat = lattice("D8")
    for c in lat.cosets[1:]:
        vecs = enumerate_coset(lat, c, 3)
        min_norm = min(q for _, q in vecs)
        assert all(q >= min_norm for _, q in vecs)


@pytest.mark.parametrize("name,qmax,radius", [("A2", 3, 4), ("2A1", 3, 4), ("A3", 2, 3)])
def test_enumeration_matches_box_oracle(name, qmax, radius):
    lat = lattice(name)
    for c in lat.cosets:
        got = enumerate_coset(lat, c, qmax)
        want = box_coset_norms(lat.gram, c.rep, Fraction(qmax), radius)
        assert got == want


def test_enumeration_is_duplicate_free():
    lat = lattice("E6")
    vecs = enumerate_coset(lat, 1, 3)
    assert len(vecs) == len({v for v, _ in vecs})


# ---------------------------------------------------------------------------
# pairing


def test_pairing_with_zero():
    lat = lattice("D8")
    assert pairing(lat, (0,) * 8, D8_VEC) == 0


def test_pairing_e1_with_reference_vector():
    lat = lattice("D8")
    e1 = (1, 0, 0, 0, 0, 0, 0, 0)
    assert pairing(lat, e1, D8_VEC) == 6


def test_pairing_cauchy_schwarz():
    lat = lattice("E6")
    v = (3, 2, 0, 1, 1, 1)
    qv = norm(lat, v)
    for c in lat.cosets:
        for vec, q in enumerate_coset(lat, c, 2):
            r = pairing(lat, vec, v)
            assert r * r <= 4 * q * qv


def test_pairing_non_integral_rejected():
    lat = lattice("A1")
    with pytest.raises(ValueError):
        pairing(lat, (Fraction(1, 3),), (1,))


# ---------------------------------------------------------------------------
# bulk counting path agrees with the exact reference enumeration


def reference_counts(lat, coset, vec, qmax):
    """(s, r) tally of the exact enumeration, the oracle for pairing_counts."""
    den = coset.denominator
    want = {}
    for v, q in enumerate_coset(lat, coset, qmax):
        key = (int(2 * den * den * q), pairing(lat, v, vec))
        want[key] = want.get(key, 0) + 1
    return want


@pytest.mark.parametrize("name,vec,qmax", [
    ("D8", D8_VEC, 3),
    ("E6", (3, 2, 0, 1, 1, 1), 4),
    ("E6", (3, 2, 0, 1, 1, 1), Fraction(7, 2)),
    ("E7", (3, 2, 0, 1, 1, 1, 1), 4),
    # qmax exactly on a shell: the minimal norms of the nonzero cosets
    ("E6", (3, 2, 0, 1, 1, 1), Fraction(2, 3)),
    ("E7", (3, 2, 0, 1, 1, 1, 1), Fraction(3, 4)),
    ("D8", D8_VEC, Fraction(1, 2)),
    ("D8", D8_VEC, 1),
    ("A2", (1, -1), Fraction(1, 3)),
    ("A7", (1, 0, 0, 0, 0, 0, -1), Fraction(7, 16)),
    ("A7", (2, 1, 0, 0, 0, 1, 0), Fraction(3, 2)),
    ("D5", (1, 1, 0, 0, 1), Fraction(5, 8)),
    # every D8 and E7 coset is its own negative, so only y_top >= 0 is
    # descended: D8 cosets 0 and 2 have g_top = 0 and a y_top = 0 slice,
    # cosets 1 and 3 have g_top = den/2 and none
    ("D8", D8_SWEEP_VEC, 2),
    # on a shell of the nonzero coset (norms 3/4 + Z)
    ("E7", E7_VEC, Fraction(11, 4)),
    # partial pairings are fractional here: a key width of R * floor(sqrt(smax v.Av) / den)
    # instead of floor(R * sqrt(smax v.Av) / den) is too narrow and miscounts
    ("A4", (0, 1, 0, 1), Fraction(2, 5)),
])
def test_pairing_counts_match_reference(name, vec, qmax):
    # the descent oracle is checked against the same exact enumeration
    lat = lattice(name)
    for c in lat.cosets:
        want = reference_counts(lat, c, vec, qmax)
        assert pairing_counts(lat, c, vec, qmax) == want
        assert descent_counts(lat, c, vec, qmax) == want


@pytest.mark.parametrize("name", LATTICES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_pairing_counts_property(name, data):
    lat = lattice(name)
    vec = data.draw(
        st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank).filter(any).map(tuple), label="vec"
    )
    qmax = data.draw(st.fractions(min_value=0, max_value=6, max_denominator=16), label="qmax")
    for c in lat.cosets:
        assert pairing_counts(lat, c, vec, qmax) == descent_counts(lat, c, vec, qmax)


@pytest.mark.parametrize("name,vec,qmax", [
    ("D8", D8_SWEEP_VEC, 14),
    ("D8", CASES["D8"].vector, 25),
    ("E7", CASES["E7"].vector, 25),
    ("E6", CASES["E6"].vector, 20),
    # [L:M] = 48 on both: the most prefixes share a trellis state here
    ("A6", A6_VEC, 5),
    ("A7", A7_VEC, 5),
])
def test_pairing_counts_match_descent_at_production_precision(name, vec, qmax):
    # equal dicts in equal order: pullback accumulates in this order
    lat = lattice(name)
    for c in lat.cosets:
        assert list(pairing_counts(lat, c, vec, qmax).items()) == list(descent_counts(lat, c, vec, qmax).items())


@pytest.mark.parametrize("name,vec,merges", [
    # 4 cosets x 8 translates, one walk: 54 trellis edges into 42 states, 12 of them reached
    # twice or more (the 4 cosets walked one by one take 96 edges)
    ("D8", D8_SWEEP_VEC, 54 + 12),
    # 8 cosets x 48 translates: 158 edges into 66 states, 36 of them reached twice or more
    # (544 edges coset by coset)
    ("A7", A7_VEC, 158 + 36),
])
def test_pairing_counts_merges_on_the_trellis(monkeypatch, name, vec, merges):
    # one merge per edge's product, and one more per state that sums several edges; the first
    # call walks every coset at once, and the others read the memo
    calls = []
    merge = lattice_module._merge

    def counted(keys, counts):
        calls.append(len(keys))
        return merge(keys, counts)

    monkeypatch.setattr(lattice_module, "_merge", counted)
    lattice_module._dual_counts.cache_clear()
    lat = lattice(name)
    for c in lat.cosets:
        pairing_counts(lat, c, vec, 2)
    assert len(calls) == merges


def test_dual_counts_memo_holds_one_entry():
    assert lattice_module._dual_counts.cache_info().maxsize == 1


def test_pairing_counts_returns_a_new_dict_per_call():
    lat = lattice("E6")
    first = pairing_counts(lat, lat.cosets[1], E6_VEC, 3)
    second = pairing_counts(lat, lat.cosets[1], E6_VEC, 3)
    assert first == second and first is not second
    first[0, 0] = -1
    first.clear()
    assert pairing_counts(lat, lat.cosets[1], E6_VEC, 3) == second and second


@pytest.mark.parametrize("name,vec_a,vec_b", [
    ("D8", D8_SWEEP_VEC, D8_VEC),
    ("E6", E6_VEC, (1, 0, -2, 1, 0, 3)),
    ("A7", A7_VEC, (0, 1, 1, -1, 0, 0, 2)),
])
def test_pairing_counts_interleaved_directions_match_cold_counts(name, vec_a, vec_b):
    # (a, 3) -> (b, 5) -> (a, 3), coset by coset: each switch replaces the one memo entry
    lat = lattice(name)
    cold = {}
    for vec, qmax in ((vec_a, 3), (vec_b, 5)):
        for c in lat.cosets:
            lattice_module._dual_counts.cache_clear()
            cold[vec, qmax, c.index] = pairing_counts(lat, c, vec, qmax)
    lattice_module._dual_counts.cache_clear()
    for vec, qmax in ((vec_a, 3), (vec_b, 5), (vec_a, 3)):
        for c in lat.cosets:
            assert list(pairing_counts(lat, c, vec, qmax).items()) == list(cold[vec, qmax, c.index].items())


def test_pairing_counts_rejects_fractional_direction():
    lat = lattice("A1")
    with pytest.raises(ValueError, match="got entry 3/2"):
        pairing_counts(lat, lat.cosets[0], (Fraction(3, 2),), 2)
    assert pairing_counts(lat, lat.cosets[0], (Fraction(2, 1),), 2) == pairing_counts(lat, lat.cosets[0], (2,), 2)


def test_pairing_counts_sparse_tally_large_box():
    # rank one at large qmax: the (s, r) key range is about 10^10 while the
    # single factor has about 2000 terms; qmax lies on a shell of coset 0
    # (Q = 1000^2) or of coset 1 (Q = 1999^2/4)
    lat = lattice("A1")
    for vec, qmax in product([(3,), (-5,)], [10**6, Fraction(1999**2, 4)]):
        for c in lat.cosets:
            assert pairing_counts(lat, c, vec, qmax) == reference_counts(lat, c, vec, qmax)


@pytest.mark.parametrize("box_cap", [None, 50])
@pytest.mark.parametrize("name,vec,qmax", [
    ("E6", (3, 2, 0, 1, 1, 1), 3),
    ("D8", D8_VEC, Fraction(3, 2)),
    ("A3", (1, -2, 1), Fraction(21, 4)),
    ("E7", E7_VEC, Fraction(11, 4)),
    # rank one: a single theta factor, u^2/2 with u = 2k (coset 0) or 2k + 1
    ("A1", (3,), 30),
])
def test_pairing_counts_small_steps(monkeypatch, name, vec, qmax, box_cap):
    # the descent oracle with a few rows per expansion step and, with box_cap,
    # its sparse tally: many steps and many tally flushes must still count
    # every vector once, and agree with the theta-factor product
    monkeypatch.setattr(oracles, "_EXPAND_CAP", 5)
    if box_cap is not None:
        monkeypatch.setattr(oracles, "_BOX_CAP", box_cap)
    lat = lattice(name)
    for c in lat.cosets:
        want = reference_counts(lat, c, vec, qmax)
        assert descent_counts(lat, c, vec, qmax) == want
        assert pairing_counts(lat, c, vec, qmax) == want


@pytest.mark.parametrize("name,vec,qmax", [
    ("D8", D8_VEC, 10**30),
    ("A1", (10**6,), 10**9),
])
def test_pairing_counts_int64_guard(name, vec, qmax):
    # the packed key range (S*smax + 1)*W is bounded before any array exists
    lat = lattice(name)
    _frame(lat.gram)  # built once per Gram matrix, outside the traced call
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="key range"):
            pairing_counts(lat, lat.cosets[0], vec, qmax)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_isqrt_floor_exact_near_squares():
    # near 2^62, float(j^2 - 1) rounds up to j^2, so the float root overshoots by one
    roots = [1, 2, 3, 46340, 94906265, 2**31 - 1] + [2**31 - 1 - 7919 * i for i in range(1, 200)]
    ks = sorted({k for j in roots for k in (j * j - 1, j * j, j * j + 1) if 0 <= k < 2**62})
    got = _isqrt_floor(np.array(ks, dtype=np.int64)).tolist()
    assert got == [isqrt(k) for k in ks]


@pytest.mark.parametrize("name,vec,qmax", [("E6", E6_VEC, 5), ("A7", A7_VEC, 3)])
def test_pairing_counts_negated_coset_mirrors_r(name, vec, qmax):
    # cosets of order > 2 are not their own negatives and take the unmirrored
    # descent; l -> -l still maps (s, r) on gamma to (s, -r) on -gamma
    lat = lattice(name)
    by_rep = {c.rep: c for c in lat.cosets}
    checked = 0
    for c in lat.cosets:
        neg = by_rep[tuple(-x % 1 for x in c.rep)]
        if neg is c:
            continue
        counts, neg_counts = pairing_counts(lat, c, vec, qmax), pairing_counts(lat, neg, vec, qmax)
        assert counts and counts == {(s, -r): n for (s, r), n in neg_counts.items()}
        checked += 1
    assert checked == {"E6": 2, "A7": 6}[name]


def test_pairing_counts_rejects_a_coset_of_another_lattice():
    # the counts are read by coset index, so a foreign coset must not pass for one of lat's
    lat = lattice("E6")
    with pytest.raises(ValueError, match="not a coset of E6"):
        pairing_counts(lat, lattice("A2").cosets[1], E6_VEC, 2)
    with pytest.raises(ValueError, match="not a coset of E6"):
        pairing_counts(lat, lattice("E7").cosets[1], E6_VEC, 2)


def test_pairing_counts_negative_qmax_is_empty():
    lat = lattice("E6")
    assert pairing_counts(lat, lat.cosets[0], (3, 2, 0, 1, 1, 1), -1) == {}


# ---------------------------------------------------------------------------
# classical vector counts (independent known values)


def test_root_counts():
    for name, roots in [("D8", 112), ("E7", 126), ("E6", 72)]:
        assert len(enumerate_coset(lattice(name), 0, 1)) - 1 == roots
        assert len(_roots(gram_matrix(name))) == roots


@pytest.mark.parametrize("name", LATTICES)
def test_roots_and_frame_roots_match_the_tuple_closure(name):
    gram = gram_matrix(name)
    roots = roots_oracle(gram)
    assert _roots(gram) == roots
    # the frame's roots come first: the greedy pick, in sorted order, of roots orthogonal to every earlier pick
    picked = []
    for root in roots:
        if all(sum(x * gram[i][j] * y for i, x in enumerate(root) for j, y in enumerate(b)) == 0 for b in picked):
            picked.append(root)
    assert list(_frame(gram).basis[: len(picked)]) == picked
    assert all(nb != 2 for nb in _frame(gram).norms[len(picked):])


@pytest.mark.parametrize("name", LATTICES)
def test_frame_invariants(name):
    gram = gram_matrix(name)
    frame = _frame(gram)
    n = len(gram)
    assert len(frame.basis) == n
    # b_i in L (integer coordinates), pairwise orthogonal, A b_i and N_i as stored
    for i, b in enumerate(frame.basis):
        assert all(isinstance(x, int) for x in b)
        assert frame.duals[i] == tuple(sum(gram[j][k] * b[k] for k in range(n)) for j in range(n))
        assert frame.norms[i] == sum(x * y for x, y in zip(frame.duals[i], b)) > 0
        for b2 in frame.basis[:i]:
            assert sum(x * y for x, y in zip(frame.duals[i], b2)) == 0
    # one shift per class of L/M: [L:M] = |det B| and det Gram(M) = prod N_i = [L:M]^2 det A
    index = len(frame.shifts)
    assert index == abs(det(frame.basis))
    assert index * index * det(gram) == prod(frame.norms)
    # the frame starts with roots; D8 and E7 hold 8A1 and 7A1 of index 8, nA1 is its own frame
    assert frame.norms[0] == 2
    if name in FRAME_INDEX:
        assert index == FRAME_INDEX[name]


def test_minuscule_coset_counts():
    # minimal vectors of the nonzero dual cosets: 27 for E6 (norm 2/3),
    # 56 for E7 (norm 3/4)
    e6 = lattice("E6")
    for c in e6.cosets[1:]:
        vecs = enumerate_coset(e6, c, Fraction(2, 3))
        assert len(vecs) == 27
    e7 = lattice("E7")
    nonzero = [c for c in e7.cosets if not c.is_zero()][0]
    assert len(enumerate_coset(e7, nonzero, Fraction(3, 4))) == 56


def shells(counts):
    """Sizes of the shells of a (s, r) table, by s."""
    by_norm = {}
    for (s, r), c in counts.items():
        by_norm[s] = by_norm.get(s, 0) + c
    return by_norm


def r8(s):
    """Representations of s as a sum of eight squares (Jacobi)."""
    if s == 0:
        return 1
    return 16 * sum((-1) ** (s + d) * d**3 for d in range(1, s + 1) if s % d == 0)


def test_bulk_counts_match_theta_coefficients():
    # D8 theta series: 112 vectors of scaled norm 2 (Q = 1), 1136 of Q = 2
    lat = lattice("D8")
    counts = pairing_counts(lat, lat.cosets[0], D8_VEC, 2)
    by_norm = shells(counts)
    assert by_norm[2] == 112
    assert by_norm[4] == 1136
    # at sweep scale: D8 is the even-sum sublattice of Z^8 and s = x.x, so the
    # shell sizes are r_8(s) for even s, and no vector has odd s
    by_norm = shells(pairing_counts(lat, lat.cosets[0], D8_SWEEP_VEC, 14))
    assert [by_norm.get(s, 0) for s in range(29)] == [r8(s) if s % 2 == 0 else 0 for s in range(29)]
    # the Weyl group fixes every coset and acts irreducibly on R^n, so each
    # shell is a spherical 2-design: sum over the shell of <l, v>^2 equals
    # N_s (l.l)(v.v) / rank, with l.l = s / den^2 and v.v = 2 Q(v)
    for name, vec, qmax in [("D8", D8_SWEEP_VEC, 14), ("E7", E7_VEC, 10), ("E6", E6_VEC, 10), ("A7", A7_VEC, 5)]:
        lat = lattice(name)
        vv = 2 * norm(lat, vec)
        for c in lat.cosets:
            den = c.denominator
            counts = pairing_counts(lat, c, vec, qmax)
            moments = {}
            for (s, r), n in counts.items():
                moments[s] = moments.get(s, 0) + r * r * n
            for s, size in shells(counts).items():
                assert lat.rank * den * den * moments[s] == size * s * vv


def test_bulk_counts_match_reference_midscale():
    lat = lattice("E6")
    vec = (3, 2, 0, 1, 1, 1)
    for c in lat.cosets:
        assert pairing_counts(lat, c, vec, 8) == reference_counts(lat, c, vec, 8)
