"""High-precision linear algebra: Cholesky, the smallest-eigenpair kernel,
the precision ladder, the independent inertia oracle, and the exact
Vandermonde row."""

import itertools

import pytest
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, workprec

from conftest import full_precision_work, lit
from srflimits import SupportSet, SystemParams, build_gram
from srflimits.acceptance import _lambda_min_bisect, inertia_below
from srflimits import hp
from srflimits.core import gram_radius
from srflimits.recovery import _factored_supports
from srflimits.spectral import min_eig_for_support, reflection_representatives
from srflimits.errors import (
    DomainError,
    NotPositiveDefiniteError,
    PrecisionCapError,
    SingularSystemError,
)
from srflimits.hp import (
    LADDER_RELTOL,
    factored_floor,
    hp_cholesky,
    min_eig,
    min_eig_adaptive,
    vandermonde_lastrow,
)


def random_spd(n, bits, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    M = B.T @ B + np.eye(n)
    with workprec(bits):
        return [[mpf(M[i, j]) for j in range(n)] for i in range(n)]


def frob(M):
    return mp.sqrt(sum(sum(x * x for x in row) for row in M))


# --- Cholesky ---------------------------------------------------------------


def test_cholesky_identity():
    L = hp_cholesky([[mpf(1), mpf(0)], [mpf(0), mpf(1)]], bits=128)
    assert L[0][0] == 1 and L[1][1] == 1 and L[1][0] == 0


def test_cholesky_closed_form_2x2():
    g = mpf("0.983632")
    L = hp_cholesky([[mpf(1), g], [g, mpf(1)]], bits=256)
    with workprec(256):
        assert abs(L[1][0] - g) < mpf(2) ** (-250)
        assert abs(L[1][1] - mp.sqrt(1 - g * g)) < mpf(2) ** (-240)


def test_cholesky_flags_failing_pivot():
    with pytest.raises(NotPositiveDefiniteError) as err:
        hp_cholesky([[mpf(1), mpf(2)], [mpf(2), mpf(1)]], bits=128)
    assert err.value.pivot == 1


def test_cholesky_reconstruction_residual():
    bits = 192
    M = random_spd(7, bits, seed=1)
    L = hp_cholesky(M, bits=bits)
    with workprec(bits):
        n = len(M)
        R = [[sum(L[i][k] * L[j][k] for k in range(n)) - M[i][j]
              for j in range(n)] for i in range(n)]
        assert frob(R) <= mpf(2) ** (-bits // 2) * frob(M)


def exact(x):
    """The value of a finite mpf as a Fraction. From the raw (sign, man, exp,
    bc): man_exp drops the sign and mpf() rounds to 53 bits."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def meets_fixed_point_bound(R, A, frac):
    """|R R^T - A|_ij <= (2 sqrt(max A_ii) + 2) 2^-frac for every i, j, with
    R and A as Fractions, checked exactly: the bound factored_floor rests
    on. Returns the largest (|R R^T - A| 2^frac - 2) / 2 seen, squared
    where positive, over max A_ii, which must not exceed 1."""
    n, top = len(A), max(A[i][i] for i in range(len(A)))
    worst = Fraction(0)
    for i in range(n):
        for j in range(i + 1):
            err = abs(sum(R[i][k] * R[j][k] for k in range(j + 1)) - A[i][j])
            excess = (err * 2 ** frac - 2) / 2  # must be at most sqrt(top)
            if excess > 0:
                worst = max(worst, excess * excess / top)
    return worst


@pytest.mark.parametrize("y", ["0.04", "0.1", "0.3"])
def test_cholesky_meets_fixed_point_backward_error_bound(y):
    # |R R^T - A| <= (2 sqrt(max A_ii) + 2) 2^-F entrywise, F = bits +
    # FIXED_GUARD, checked exactly for A = G - s I as hp_cholesky gets it:
    # contiguous Gram matrices and one gapped one, unshifted and at a shift
    # just below lambda_min, such as factored_floor trusts, and the bordered
    # factors of the l0 walk
    p = SystemParams.from_y(y)
    worst = 0
    for offsets in [tuple(range(n)) for n in (2, 5, 9, 13, 16)] + [(0, 2, 5, 6, 9)]:
        T = SupportSet(offsets)
        lam = min_eig_adaptive(gram_builder(y, T)).value
        for bits in (128, 256):
            G = build_gram(p, T, bits=bits)
            with workprec(bits):
                s = lam * (1 - mpf(2) ** -20)
            for shift in (mpf(0), s):
                A = hp.fixed_matrix(G, bits).shifted(shift)
                L = hp_cholesky(A, bits=bits)
                assert L.exps == [0] * len(G)  # D = I on a Gram matrix
                R = [[Fraction(x, 2 ** L.frac) for x in row] for row in L.rows]
                exact_A = [[exact(x) - (exact(shift) if i == j else 0)
                            for j, x in enumerate(row)] for i, row in enumerate(G)]
                worst = max(worst, meets_fixed_point_bound(R, exact_A, L.frac))
    # every bordered row of the l0 walk over a 7-atom window, to size 4
    bits = 128
    G = build_gram(p, SupportSet((0, 1, 3, 4, 6, 8, 9)), bits=bits)
    frac = bits + hp.FIXED_GUARD
    for idx, L, _, _ in _factored_supports(G, [mpf(1)] * len(G), 4, bits):
        R = [[Fraction(x, 2 ** frac) for x in row] for row in L]
        worst = max(worst, meets_fixed_point_bound(
            R, [[exact(G[i][j]) for j in idx] for i in idx], frac))
    assert worst <= 1


@pytest.mark.parametrize("bad", [mp.nan, mp.inf, -mp.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)], ids=["diag0", "diag1", "off"])
def test_non_finite_entry_is_a_domain_error(bad, where):
    # a NaN or infinite pivot must not pass as a value, and must not read as
    # "too few bits" (NotPositiveDefiniteError), which makes the ladder climb
    M = [[mpf(2), mpf("0.5")], [mpf("0.5"), mpf(2)]]
    i, j = where
    M[i][j] = M[j][i] = bad
    with pytest.raises(DomainError):
        hp_cholesky(M, bits=128)
    with pytest.raises(DomainError):
        min_eig(M, bits=128)
    with pytest.raises(DomainError):
        min_eig_adaptive(lambda bits: (M, 0, None))


_SPD = [[mpf(2), mpf("0.5")], [mpf("0.5"), mpf(2)]]


@pytest.mark.parametrize("M, bits", [
    (_SPD, 10), (_SPD, 27), (_SPD, 0), (_SPD, -5), (_SPD, 1.5), (_SPD, 100000),
    ([[2.0, 0.5], [0.5, 2.0]], 128),
    ([[2, 0], [0, 2]], 128),
    ([[mpc(2), mpc("0.5")], [mpc("0.5"), mpc(2)]], 128),
    ([], 128),
], ids=["bits=10", "bits=27", "bits=0", "bits=-5", "bits=1.5", "bits=100000",
        "float", "int", "mpc", "empty"])
def test_bad_input_to_min_eig_and_cholesky_is_a_domain_error(M, bits):
    # bits outside [MIN_BITS, MAX_BITS] or not integral, entries that are
    # not mpf, and the empty matrix are refused up front, not met later as
    # a negative shift count, an AttributeError or max() of nothing
    for public in (min_eig, hp_cholesky):
        with pytest.raises(DomainError):
            public(M, bits)


# --- min_eig: Cholesky plus shifted inverse iteration ------------------------


def gram_builder(y, T):
    """A ladder builder: the Gram matrix over T at bits, its radius, and no
    candidate vector, so that every level runs the general kernel."""
    p = SystemParams.from_y(y)
    return lambda bits: (build_gram(p, T, bits=bits), gram_radius(p, T, bits), None)


def encloses(G, res, bits):
    """lambda_min(G), by inertia at ``bits``, lies in [res.lo, res.hi]."""
    return inertia_below(G, res.lo, bits) == 0 and inertia_below(G, res.hi, bits) == 1


def test_eigen_diagonal_matrix():
    M = [[mpf(3), mpf(0), mpf(0)],
         [mpf(0), mpf(1), mpf(0)],
         [mpf(0), mpf(0), mpf(2)]]
    lam, v = min_eig(M, bits=128)
    with workprec(128):
        assert abs(lam - 1) < mpf(2) ** (-110)
        # the permutation eigenvector e_1
        assert abs(v[1] - 1) < mpf(2) ** (-110)
        assert abs(v[0]) < mpf(2) ** (-55) and abs(v[2]) < mpf(2) ** (-55)


def test_eigen_2x2_closed_form():
    p = SystemParams.from_y("0.1", bits=256)
    G = build_gram(p, SupportSet.of(0, 1), bits=256)
    lam, v = min_eig(G, bits=256)
    g = G[0][1]
    with workprec(256):
        assert abs(lam - (1 - g)) < mpf(2) ** (-240)
        assert abs(abs(v[0]) - 1 / mp.sqrt(2)) < mpf(2) ** (-120)
        assert abs(v[0] + v[1]) < mpf(2) ** (-120)
        assert v[0] > 0  # the entry of largest magnitude (first on a tie) is positive


def test_eigen_reconstruction_and_orthogonality():
    # a unit eigenvector with a small residual, for the smallest eigenvalue
    bits = 192
    M = random_spd(6, bits, seed=3)
    lam, v = min_eig(M, bits=bits)
    n = len(M)
    with workprec(bits):
        assert abs(sum(x * x for x in v) - 1) <= mpf(2) ** (-bits // 2)
        r = [sum(M[i][k] * v[k] for k in range(n)) - lam * v[i] for i in range(n)]
        assert mp.sqrt(sum(x * x for x in r)) <= mpf(2) ** (-bits // 2) * frob(M)
        rel = mpf(2) ** (-60)
        assert inertia_below(M, lam * (1 - rel), 2 * bits) == 0
        assert inertia_below(M, lam * (1 + rel), 2 * bits) == 1


def test_eigen_prolate_matches_bisection_oracle():
    # bracket from the decay theory plus an independent characteristic
    # polynomial bisection at 512 bits
    p = SystemParams.from_y("0.1", bits=512)
    G = build_gram(p, SupportSet(tuple(range(5))), bits=512)
    lam, _ = min_eig(G, bits=512)
    oracle = _lambda_min_bisect(G, 512)
    with workprec(512):
        assert lam > 0
        assert lam <= 16 * p.c ** 8
        assert abs(lam - oracle) <= lit("1e-60") * oracle


@pytest.mark.parametrize("offsets", [(0, 2, 5, 8), (0, 3, 5, 8), (0, 3, 6, 8)])
def test_bisection_oracle_judges_supports_wider_than_one_over_y(offsets):
    # at y = 0.45 these spans pass 1/y and lambda_2 < 2 lambda_1, where a
    # determinant bisection that grows its bracket from below cannot start
    p = SystemParams.from_y("0.45", bits=512)
    T = SupportSet(offsets)
    res = min_eig_for_support(p, T)
    assert res.lo <= _lambda_min_bisect(build_gram(p, T, bits=512), 512) <= res.hi


def test_inertia_counts_a_zero_pivot_as_not_above():
    # M - I = [[0, .5], [.5, 0]] has a zero first pivot; M's eigenvalues
    # are 1/2 and 3/2
    M = [[mpf(1), mpf("0.5")], [mpf("0.5"), mpf(1)]]
    assert inertia_below(M, 1, 256) == 1
    assert inertia_below(M, mpf("0.5"), 256) == 1
    assert inertia_below(M, mpf("0.25"), 256) == 0
    assert inertia_below([[mpf(2), 0], [0, mpf(2)]], 2, 256) == 2


def test_cholesky_eigen_determinant_consistency():
    # det(G - s I) > 0 (Cholesky succeeds) just below lambda_min and the
    # factorization breaks down just above it
    bits = 256
    p = SystemParams.from_y("0.2", bits=bits)
    G = build_gram(p, SupportSet(tuple(range(5))), bits=bits)
    lam, _ = min_eig(G, bits=bits)
    rel = mpf(2) ** (-100)
    with workprec(bits):
        below = [[x - (lam * (1 - rel) if i == j else 0) for j, x in enumerate(row)]
                 for i, row in enumerate(G)]
        above = [[x - (lam * (1 + rel) if i == j else 0) for j, x in enumerate(row)]
                 for i, row in enumerate(G)]
    hp_cholesky(below, bits=bits)
    with pytest.raises(NotPositiveDefiniteError):
        hp_cholesky(above, bits=bits)


def test_min_eig_rejects_indefinite_matrix():
    with pytest.raises(NotPositiveDefiniteError):
        min_eig([[mpf(1), mpf(2)], [mpf(2), mpf(1)]], bits=128)


def test_min_eig_symmetric_support_finds_symmetric_eigenvector():
    # the Gram matrix of a reflection-symmetric support is persymmetric; its
    # smallest eigenvector here is symmetric, orthogonal to a plain
    # alternating-sign start vector
    bits = 256
    p = SystemParams.from_y("0.3", bits=bits)
    G = build_gram(p, SupportSet.of(0, 1, 7, 8), bits=bits)
    lam, v = min_eig(G, bits=bits)
    with workprec(bits):
        assert abs(v[0] - v[3]) < mpf(2) ** (-100)
        assert abs(v[1] - v[2]) < mpf(2) ** (-100)
        rel = mpf(2) ** (-60)
        assert inertia_below(G, lam * (1 - rel), 2 * bits) == 0
        assert inertia_below(G, lam * (1 + rel), 2 * bits) == 1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    rest=st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
    y=st.floats(min_value=0.02, max_value=0.45, exclude_min=True, exclude_max=True),
)
def test_ladder_value_passes_inertia_on_random_supports(rest, y):
    T = SupportSet((0,) + tuple(sorted(rest)))
    res = min_eig_adaptive(gram_builder(repr(y), T))
    # the value and the enclosure come from level bits_used; check at 4x
    check_bits = 4 * res.bits_used
    G = build_gram(SystemParams.from_y(repr(y)), T, bits=check_bits)
    with workprec(check_bits):
        lo, hi = res.value * (1 - mpf("1e-6")), res.value * (1 + mpf("1e-6"))
    assert inertia_below(G, lo, check_bits) == 0
    assert inertia_below(G, hi, check_bits) == 1
    assert encloses(G, res, check_bits)


# --- precision ladder -------------------------------------------------------


def test_ladder_trivial_matrix_stops_at_first_level():
    res = min_eig_adaptive(lambda bits: ([[mpf(1)]], 0, None))
    assert res.value == 1
    assert res.vector == (mpf(1),)
    assert res.bits_used == 128
    assert res.lo < 1 < res.hi


def test_ladder_2x2_forced_eigenvector():
    res = min_eig_adaptive(gram_builder("0.1", SupportSet.of(0, 1)))
    with workprec(256):
        assert abs(res.value - lit("0.01636835691653403265251213")) < lit("1e-24")
        assert abs(abs(res.vector[0]) - 1 / mp.sqrt(2)) < mpf("1e-30")
        assert abs(res.vector[0] + res.vector[1]) < mpf("1e-30")


def test_ladder_tiny_eigenvalue_magnitude():
    # independently confirmed by characteristic-polynomial sign checks at
    # 768 bits: lambda_min for 7 contiguous atoms at y = 0.05 is 9.07e-17,
    # inside (0, 16 c^12]
    p = SystemParams.from_y("0.05")
    T = SupportSet(tuple(range(7)))
    res = min_eig_adaptive(gram_builder("0.05", T))
    assert 0 < res.value <= 16 * p.c ** 12
    assert abs(res.value - lit("9.0715022895199882e-17")) < lit("1e-24")
    check_bits = 4 * res.bits_used
    assert encloses(build_gram(p, T, bits=check_bits), res, check_bits)
    assert res.lo <= res.value <= res.hi
    assert res.hi - res.lo <= LADDER_RELTOL * res.lo


def test_ladder_history_contracts(monkeypatch):
    monkeypatch.setattr(hp, "LADDER_RELTOL", mpf("1e-70"))
    res = min_eig_adaptive(gram_builder("0.08", SupportSet(tuple(range(5)))))
    assert res.hi - res.lo <= mpf("1e-70") * res.lo
    vals = [v for _, v in res.history]
    diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
    started = False
    for a, b in zip(diffs, diffs[1:]):
        if a > 0:
            started = True
            assert b < a or b == 0
    assert started and len(res.history) >= 3


def test_ladder_cap_error(monkeypatch):
    monkeypatch.setattr(hp, "LADDER_RELTOL", mpf(0))
    monkeypatch.setattr(hp, "MAX_BITS", 512)
    with pytest.raises(PrecisionCapError):
        min_eig_adaptive(gram_builder("0.1", SupportSet.of(0, 1)))


# --- every ladder level is a min_eig run -----------------------------------


# contiguous n = 1..12 and every canonical 4-support within span 8
LADDER_GRID_SUPPORTS = sorted(
    {tuple(range(n)) for n in range(1, 13)}
    | {(0,) + rest for rest in itertools.combinations(range(1, 9), 3)}
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    y=st.sampled_from(["0.04", "0.05", "0.1", "0.2", "0.3", "0.45"]),
    offsets=st.sampled_from(LADDER_GRID_SUPPORTS),
)
def test_ladder_levels_are_min_eig_runs(y, offsets):
    # each level starts as min_eig does: its estimate is min_eig's at the
    # level's bits, and a level without one is where min_eig does not factor
    builder = gram_builder(y, SupportSet(offsets))
    res = min_eig_adaptive(builder)
    for bits, estimate in res.history:
        M = builder(bits)[0]
        if estimate is None:
            with pytest.raises(NotPositiveDefiniteError):
                min_eig(M, bits=bits)
        else:
            lam, v = min_eig(M, bits=bits)
            assert lam == estimate
    # the last level certified
    assert (lam, v) == (res.value, res.vector)


def test_every_enclosure_is_one_krylov_weinstein_cholesky(monkeypatch):
    # every general-kernel run, a ladder level or min_eig, proves its
    # enclosure as _certify proves a candidate's: after the iteration,
    # exactly one factored_floor, at s = mu - res - n 2^(8-bits) max M_ii
    # of the last vector, and lo is factored_floor of that s
    real_cholesky, real_floor, real_rayleigh = (
        hp.hp_cholesky, hp.factored_floor, hp._unit_rayleigh)
    events = []

    def cholesky(M, bits=None):
        events.append(("cholesky",))
        return real_cholesky(M, bits=bits)

    def floor(M, s, bits, radius=0):
        lo = real_floor(M, s, bits, radius)
        events.append(("floor", s, lo is not None))
        return lo

    def rayleigh(M, x, bits):
        out = real_rayleigh(M, x, bits)
        events.append(("rayleigh", out))
        return out

    monkeypatch.setattr(hp, "hp_cholesky", cholesky)
    monkeypatch.setattr(hp, "factored_floor", floor)
    monkeypatch.setattr(hp, "_unit_rayleigh", rayleigh)

    def kw_shift(M, bits):
        """The shift of the one factored_floor since events was cleared,
        which must be the last event and factor, checked against the
        Krylov-Weinstein shift of the last vector."""
        floors = [e for e in events if e[0] == "floor"]
        assert len(floors) == 1 and events[-1] is floors[0]
        _, s, factors = floors[0]
        _, mu, res = [e for e in events if e[0] == "rayleigh"][-1][1]
        with workprec(bits):
            guard = len(M) * mpf(2) ** (8 - bits) * max(M[i][i] for i in range(len(M)))
            assert factors and s == mu - res - guard
        return s

    for y, T in [("0.1", (0, 5)), ("0.1", (0, 8)), ("0.04", (0, 1, 4)),
                 ("0.3", (0, 2, 3, 7)), ("0.2", (0, 1, 7, 8)), ("0.1", (0, 2, 5, 6, 9))]:
        builder = gram_builder(y, SupportSet(T))
        res = min_eig_adaptive(builder)
        for bits in (128, 256, 512):
            M, radius, _ = builder(bits)
            events.clear()
            mu, v, (lo, hi) = hp._min_eig(M, bits, radius)
            assert lo == factored_floor(M, kw_shift(M, bits), bits, radius)
            if bits == res.bits_used:  # the ladder's certifying level
                assert (mu, v, lo, hi) == (res.value, res.vector, res.lo, res.hi)
    for bits, M in [(192, random_spd(6, 192, seed=3)), (128, random_spd(4, 128, seed=5))]:
        events.clear()
        min_eig(M, bits=bits)
        kw_shift(M, bits)


def test_ladder_cholesky_count(monkeypatch):
    # contiguous n = 12 at y = 0.05, run by the general kernel, climbs
    # 128 -> 256 bits in 9 full-precision factors: lambda_min is below the
    # first run's scale, so its shift is not positive and each level
    # factors G, its shifts and, once, the certifying Krylov-Weinstein shift
    factors, _ = full_precision_work(monkeypatch)
    res = min_eig_adaptive(gram_builder("0.05", SupportSet(tuple(range(12)))))
    assert [b for b, _ in res.history] == [128, 256]
    assert len(factors) == 9


# --- the integer start: the first run at 2^START_BITS -------------------------


def watch_first_run(monkeypatch, give=True):
    """A list, filled from here on with what each of min_eig's first runs,
    at scale 2^START_BITS, returns; with ``give`` False, each returns
    nothing, so that the second run starts from the graded vector."""
    runs, real = [], hp._inverse_iteration

    def first(A, bits, *args):
        if bits != hp.START_BITS:
            return real(A, bits, *args)
        runs.append(real(A, bits, *args) if give else None)
        return runs[-1]

    monkeypatch.setattr(hp, "_inverse_iteration", first)
    return runs


@pytest.mark.parametrize("size,span", [(3, 9), (4, 7)])
def test_integer_start_certifies_gapped_supports_in_two_steps(monkeypatch, size, span):
    # the gapped supports `srf contiguity --y 0.1` scans: from the first
    # run's vector and shift, two full-precision inverse-iteration steps
    # (one solve each) and at most four full-precision factors (the shifted
    # start, one shift and the certifying one), where the graded start
    # takes five or six steps. The first run's factors and solves, at
    # 2^START_BITS, are not counted
    factors, solves = full_precision_work(monkeypatch)
    p = SystemParams.from_y("0.1")
    gapped = [T for T in reflection_representatives(size, span) if T.span > size - 1]
    assert len(gapped) == {3: 19, 4: 21}[size]
    for T in gapped:
        factors.clear()
        solves.clear()
        hp._min_eig(build_gram(p, T, bits=128), 128, gram_radius(p, T, 128))
        assert len(solves) <= 2 and len(factors) <= 4, (T, factors, solves)


def _near_double(bits, e=256):
    with workprec(bits):
        g = mpf(2) ** -e
        return [[mpf(1), -g], [-g, mpf(1)]]


@pytest.mark.parametrize("run, graded", [
    # contiguous {0..11} at y = 0.05: lambda_min is below the integer
    # start's scale, so its shift mu - 2 res - g is not positive
    # (test_ladder_cholesky_count counts the run)
    (lambda: min_eig_adaptive(gram_builder("0.05", SupportSet(tuple(range(12))))), True),
    # diagonal entries 1e400 and 2: D != I, and the first run's guard
    # n 2^(8-START_BITS) max M_ii is far above lambda_min
    (lambda: hp._min_eig([[mpf("1e400"), mpf(1)], [mpf(1), mpf(2)]], 128), True),
    # a pair 2^-256 apart: at the first run's scale the matrix is I, so it
    # passes on the graded vector with a shift just below 1
    (lambda: hp._min_eig(_near_double(512), 512), False),
], ids=["ill-conditioned", "overflow", "near-double"])
def test_integer_start_falls_back_to_the_graded_start(monkeypatch, run, graded):
    # where the first run gives no positive shift, the kernel runs exactly
    # as from the graded start with lo = 0; where it goes on without
    # resolving lambda_min, the enclosure still holds it by inertia at 4x
    # bits
    runs = watch_first_run(monkeypatch)
    result = run()
    starts = [out is not None and out[1] > 0 for out in runs]
    assert starts and set(starts) == {not graded}
    if graded:
        watch_first_run(monkeypatch, give=False)
        assert run() == result
    else:
        M, (lo, hi) = _near_double(512), result[2]
        assert inertia_below(M, lo, 2048) == 0 and inertia_below(M, hi, 2048) >= 1


@pytest.mark.parametrize("M, exps", [
    ([[mpf(1), mpf(1)], [mpf(1), mpf(2) ** 600]], [0, 300]),
    ([[mpf(2) ** -600, mpf(2) ** -601], [mpf(2) ** -601, mpf(1)]], [-300, 0]),
], ids=["2^600", "2^-600"])
def test_badly_scaled_matrix_keeps_its_small_entries(monkeypatch, M, exps):
    # diagonal entries 2^600 apart: one fixed-point scale for the whole
    # matrix would truncate the small ones, and rounding the least
    # eigenvector at one scale would let the large one magnify it. Row and
    # column i scaled by 2^-e_i, and the vector kept fine enough, give
    # lambda_min to working precision. The first run, at one small scale,
    # loses those entries, but its shift, below lambda_min by its guard
    # n 2^(8-START_BITS) max M_ii, is not positive, so the kernel runs
    # from the graded start either way
    A = hp.fixed_matrix(M, 128)
    assert A.exps == exps
    with workprec(512):
        a, b, c = M[0][0], M[0][1], M[1][1]
        lam = (a * c - b * b) / ((a + c) / 2 + mp.sqrt(((a - c) / 2) ** 2 + b * b))
    for give in (True, False):
        runs = watch_first_run(monkeypatch, give)
        assert abs(hp._min_eig(M, 128)[0] - lam) <= mpf(2) ** -120 * lam
        assert len(runs) == 1 and (runs[0] is None or runs[0][1] <= 0)


def test_integer_start_keeps_full_precision_factors_within_bounds(monkeypatch):
    # gapped supports of 3 to 5 atoms within span 9 at five y, at 128 and
    # 512 bits: at most 6 full-precision factors per support and at most
    # 4.0 on average, where LAPACK's eigh as the start took up to 6 and
    # 4.0008. A first-run shift just above lambda_min, as mu - 2 res is
    # when res rounds to 0, would fail to factor at full precision and fall
    # back to the graded start, at up to 15 factors a support
    calls, _ = full_precision_work(monkeypatch)
    supports = [T for k in (3, 4, 5) for T in reflection_representatives(k, 9)
                if T.span > k - 1]
    counts = []
    for y in ("0.05", "0.1", "0.2", "0.3", "0.45"):
        p = SystemParams.from_y(y)
        for bits in (128, 512):
            for T in supports:
                calls.clear()
                hp._min_eig(build_gram(p, T, bits=bits), bits, gram_radius(p, T, bits))
                counts.append(len(calls))
    assert len(counts) == 1330
    assert max(counts) <= 6 and sum(counts) <= 4 * len(counts)
    # [[1, -g], [-g, 1]]: every mu - res shift fails while the vector stays
    # near the larger eigenvector (ROADMAP item 2); no more factors than
    # from LAPACK's eigh as the start, 519, 136 and 261
    for e, bits, most in ((256, 512, 519), (64, 512, 136), (200, 256, 261)):
        calls.clear()
        hp._min_eig(_near_double(bits, e), bits)
        assert len(calls) <= most, (e, bits, len(calls))


# --- proven enclosures ------------------------------------------------------

# contiguous n = 2..16 and the 56 canonical 4-supports within span 8
ENCLOSURE_GRID_SUPPORTS = sorted(
    {tuple(range(n)) for n in range(2, 17)}
    | {(0,) + rest for rest in itertools.combinations(range(1, 9), 3)}
)


@pytest.mark.parametrize("y", ["0.04", "0.05", "0.1", "0.2", "0.3", "0.45"])
def test_ladder_enclosure_contains_lambda_min_on_the_grid(y):
    # lambda_min by inertia at 4x bits, on the Gram matrix of the same stored y
    p = SystemParams.from_y(y)
    for offsets in ENCLOSURE_GRID_SUPPORTS:
        T = SupportSet(offsets)
        res = min_eig_adaptive(gram_builder(y, T))
        check_bits = 4 * res.bits_used
        assert encloses(build_gram(p, T, bits=check_bits), res, check_bits), (y, offsets)
        assert res.lo <= res.value <= res.hi
        assert res.hi - res.lo <= LADDER_RELTOL * res.lo


@pytest.mark.parametrize("y", ["0.1", "0.3"])
@pytest.mark.parametrize("offsets", [(0, 5), (0, 8), (0, 2, 5, 6, 9)])
def test_gapped_enclosure_is_as_narrow_as_the_guard(y, offsets):
    # the Krylov-Weinstein shift of a converged vector sits the residual
    # stop n 2^(8-bits) (max G_ii = 1) and the residual below mu, so the
    # width is a few guards, not wherever the iteration's shifts landed
    res = min_eig_adaptive(gram_builder(y, SupportSet(offsets)))
    with workprec(res.bits_used):
        assert res.hi - res.lo <= 4 * len(offsets) * mpf(2) ** (8 - res.bits_used)


def test_factored_floor_stays_below_a_shift_that_factors_by_rounding():
    # contiguous n = 10 at y = 0.1, 128 bits: M - s I factors for a shift s
    # 2^-168 above lambda_min(M), inside the fixed-point rounding floor
    # n (2 + 2) 2^-160; the backward error still puts the proven bound
    # below lambda_min
    M = build_gram(SystemParams.from_y("0.1"), SupportSet(tuple(range(10))), bits=128)
    lam = min_eig(M, bits=512)[0]
    with workprec(128):
        s = lam + mpf(2) ** -168
    assert inertia_below(M, s, 512) == 1
    floor = factored_floor(M, s, 128)
    assert floor is not None
    assert inertia_below(M, floor, 512) == 0
    # the radius of a nearby matrix moves the bound down by exactly as much
    assert factored_floor(M, s, 128, mpf(2) ** -100) < floor - mpf(2) ** -101


def test_factored_floor_is_none_where_the_shift_does_not_factor():
    # contiguous n = 10 at y = 0.1: M - 2 lambda_min I has an eigenvalue
    # below zero, so its Cholesky breaks down and nothing is proven
    M = build_gram(SystemParams.from_y("0.1"), SupportSet(tuple(range(10))), bits=128)
    lam = min_eig(M, bits=128)[0]
    assert inertia_below(M, 2 * lam, 512) == 1
    assert factored_floor(M, 2 * lam, 128) is None


def test_min_eig_below_the_rounding_guard_makes_no_certifying_cholesky(monkeypatch):
    # {0..12} at y = 0.0401, 128 bits: lambda_min, 8.7e-36, is below the
    # first run's scale, so M itself is factored once for the graded
    # start, and below the guard 13 * 2^-120 = 9.8e-36, so the
    # Krylov-Weinstein shift of the iteration's last vector is negative.
    # No Cholesky runs at it: the result is that vector's Rayleigh quotient
    # and sign-fixed vector, with no enclosure
    calls, _ = full_precision_work(monkeypatch)
    rayleighs, real_rayleigh = [], hp._unit_rayleigh
    monkeypatch.setattr(hp, "_unit_rayleigh",
                        lambda M, x, bits: rayleighs.append(real_rayleigh(M, x, bits))
                        or rayleighs[-1])
    M = build_gram(SystemParams.from_y("0.0401"), SupportSet(tuple(range(13))), bits=128)
    mu, v, enclosure = hp._min_eig(M, 128)
    assert calls == [128] and enclosure is None
    last_v, last_mu, _ = rayleighs[-1]
    assert mu == last_mu and v == hp._sign_fixed(last_v, 128, 128 + hp.FIXED_GUARD)
    with workprec(128):
        assert 0 < mu < 13 * mpf(2) ** -120


def test_ladder_levels_do_not_flip_with_the_last_digits_of_y():
    # the contiguous support {0..12} near y = 0.05: agreement between 128-
    # and 256-bit values landed on the 1e-6 threshold by chance here, so
    # two of these points climbed to 512 bits and one stopped at 256
    ladders = [min_eig_adaptive(gram_builder(y, SupportSet(tuple(range(13)))))
               for y in ("0.05", "0.050068", "0.050499")]
    assert {tuple(b for b, _ in res.history) for res in ladders} == {(128, 256)}
    assert {res.bits_used for res in ladders} == {256}


# --- exact Vandermonde row --------------------------------------------------


def test_vandermonde_lastrow_examples():
    assert vandermonde_lastrow((0, 1)) == (Fraction(-1), Fraction(1))
    assert vandermonde_lastrow((0, 1, 2)) == (Fraction(1, 2), Fraction(-1), Fraction(1, 2))


def test_vandermonde_row_sums_to_zero():
    for T in [(0, 1, 3), (0, 2, 5, 9), (1, 4, 6, 7, 10)]:
        m = vandermonde_lastrow(T)
        assert sum(m) == 0
        # defining equations hold exactly
        n = len(T) - 1
        for i in range(n + 1):
            assert sum(mj * Fraction(t) ** i for mj, t in zip(m, T)) == (i == n)


def vieta_magnitudes(offsets):
    """|m_j| = prod_{i != j} 1/|tau_i - tau_j| (cross-check for the row)."""
    taus = [int(t) for t in offsets]
    out = []
    for j, tj in enumerate(taus):
        prod = Fraction(1)
        for i, ti in enumerate(taus):
            if i != j:
                prod *= Fraction(1, abs(ti - tj))
        out.append(prod)
    return tuple(out)


def test_vandermonde_magnitudes_match_vieta():
    for T in [(0, 1, 2), (0, 3, 5, 9)]:
        m = vandermonde_lastrow(T)
        for got, want in zip(m, vieta_magnitudes(T)):
            assert abs(got) == want


def test_vandermonde_duplicate_nodes_rejected():
    with pytest.raises(SingularSystemError):
        vandermonde_lastrow((0, 0, 1))


def test_default_bits_env_override(monkeypatch):
    from srflimits.hp import default_bits

    monkeypatch.delenv("SRF_PRECISION_BITS", raising=False)
    assert default_bits() == 256
    monkeypatch.setenv("SRF_PRECISION_BITS", "512")
    assert default_bits() == 512
    monkeypatch.setenv("SRF_PRECISION_BITS", "16")
    with pytest.raises(DomainError):
        default_bits()


def test_min_eig_iteration_cap(monkeypatch):
    from srflimits.errors import ConvergenceError

    monkeypatch.setattr(hp, "MIN_EIG_STEPS_PER_BIT", 0)
    M = [[mpf(1), mpf("0.5")], [mpf("0.5"), mpf(1)]]
    with pytest.raises(ConvergenceError):
        min_eig(M, bits=128)


@pytest.mark.parametrize("e", [32, 64, 82, 100, 112])
def test_min_eig_near_double_pair_within_default_cap(e):
    # [[1, -g], [-g, 1]] has 1 - g on (1, 1) and 1 + g on (1, -1); the
    # alternating start vector begins near the larger one, so every
    # mu - res shift fails and the midpoint fallback does the work
    bits = 128
    with workprec(bits):
        g = mpf(2) ** -e
        M = [[mpf(1), -g], [-g, mpf(1)]]
        lam, v = min_eig(M, bits=bits)
        assert abs(lam - (1 - g)) <= mpf(2) ** -120
        assert v[0] > 0 and v[1] > 0
