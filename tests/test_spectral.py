"""Restricted isometry constants, eps-spark, contiguity, small-y decay."""

import itertools
import random
from fractions import Fraction

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, workprec

from srflimits import (
    SupportSet,
    SystemParams,
    build_gram,
    contiguity_scan,
    eps_spark,
    epsilon,
    gram_entry,
    sigma_min,
    smally_exponent,
    verify_srf_bounds,
)
from conftest import full_precision_work, lit
from srflimits.acceptance import inertia_below
from srflimits.core import gram_quadform
from srflimits.errors import (
    DomainError,
    EnumerationBudgetError,
    SpanTooSmallError,
)
from srflimits import hp, spectral
from srflimits.core import gram_radius
from srflimits.hp import LADDER_RELTOL, factored_floor
from srflimits.spectral import (
    canonical_supports,
    min_eig_for_support,
    sigma_enclosure,
    sigma_min_eig,
    smally_limit,
)


# y inside and outside (0, 1/2), as decimal strings and as fractions
_Y = st.one_of(
    st.integers(min_value=1, max_value=499).map(lambda v: f"0.{v:03d}"),
    st.builds(Fraction, st.integers(min_value=1, max_value=19),
              st.integers(min_value=40, max_value=80)),
    st.sampled_from(["0", "0.5", "-0.1", "0.7", "nan", "inf", "1/0", "x",
                     Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)]),
)
# bit counts in and out of [MIN_BITS, MAX_BITS], and non-integral ones
_BITS = st.one_of(st.integers(min_value=64, max_value=1024),
                  st.integers(min_value=-8, max_value=9000),
                  st.floats(min_value=-10, max_value=9000).filter(lambda b: b != int(b)))
_ATOMS = st.lists(st.integers(min_value=-6, max_value=6), max_size=3)
_SUPPORT = st.one_of(st.lists(st.integers(min_value=-6, max_value=6), min_size=1,
                              max_size=3, unique=True).map(sorted), _ATOMS)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(y=_Y, bits=_BITS, offsets=_SUPPORT)
def test_library_entry_points_property(y, bits, offsets):
    # every draw gives a finite sigma_min inside its enclosure, or a DomainError
    try:
        params = SystemParams.from_y(y, bits=bits)
        value, eig = sigma_min_eig(params, offsets)
    except DomainError:
        return
    lo, hi = sigma_enclosure(eig)
    assert mp.isfinite(value) and 0 < lo <= value <= hi


def test_sigma_min_single_atom_is_one():
    p = SystemParams.from_y("0.31")
    assert sigma_min(p, SupportSet.of(17)) == 1


def test_sigma_min_adjacent_pair():
    p = SystemParams.from_y("0.1")
    val = sigma_min(p, SupportSet.of(0, 1))
    assert abs(val - lit("0.1279388796126260934223185")) < lit("1e-24")


def test_sigma_min_gap_five_hits_two_over_pi():
    # sinc(1/2) = 2/pi exactly, so sigma_min = sqrt(1 - 2/pi); the proven
    # enclosure holds it, and the value, from level bits_used, is good to
    # min_eig's n 2^-bits ||G|| on lambda_min (n = 2, ||G|| < 2)
    p = SystemParams.from_y("0.1")
    val, eig = sigma_min_eig(p, SupportSet.of(0, 5))
    lo, hi = sigma_enclosure(eig)
    with workprec(300):
        exact = mp.sqrt(1 - 2 / mp.pi)
        assert lo <= exact <= hi
        assert abs(val ** 2 - exact ** 2) < 4 * mpf(2) ** -eig.bits_used
    assert abs(val - lit("0.6028102749890869742758995")) < lit("1e-24")


def test_epsilon_level_one():
    p = SystemParams.from_y("0.2")
    res = epsilon(p, 1)
    assert res.value == 1 and res.attaining_support.offsets == (0,)
    res = epsilon(p, 1, mode="exhaustive", span_max=5)
    assert res.value == 1 and res.span_searched == 5


def test_epsilon_exhaustive_pair_matches_closed_form_scan():
    # independent oracle: sigma over a 2-atom support is sqrt(1 - |sinc(y d)|)
    p = SystemParams.from_y("0.1", bits=256)
    res = epsilon(p, 2, mode="exhaustive", span_max=10)
    with workprec(256):
        best = min(
            (mp.sqrt(1 - abs(gram_entry(p, d))), d) for d in range(1, 11)
        )
    assert res.attaining_support.offsets == (0, best[1])
    lo, hi = sigma_enclosure(res.eig)
    with workprec(256):
        assert lo <= best[0] <= hi
        assert abs(res.value ** 2 - best[0] ** 2) < 4 * mpf(2) ** -res.eig.bits_used
    assert res.attaining_support.offsets == (0, 1)


def test_epsilon_contiguous_equals_exhaustive_small_y():
    p = SystemParams.from_y("0.05")
    cont = epsilon(p, 3)
    exh = epsilon(p, 3, mode="exhaustive", span_max=10)
    assert exh.attaining_support.offsets == (0, 1, 2)
    assert abs(cont.value - exh.value) < mpf("1e-30")


def test_epsilon_contiguous_equals_exhaustive_size_five():
    p = SystemParams.from_y("0.05")
    cont = epsilon(p, 5)
    exh = epsilon(p, 5, mode="exhaustive", span_max=8)
    assert exh.attaining_support.offsets == (0, 1, 2, 3, 4)
    assert abs(cont.value - exh.value) < mpf("1e-25")


def test_epsilon_interlacing():
    p = SystemParams.from_y("0.2")
    vals = [epsilon(p, k).value for k in range(1, 6)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a


def test_epsilon_span_guard():
    p = SystemParams.from_y("0.1")
    with pytest.raises(SpanTooSmallError):
        epsilon(p, 4, mode="exhaustive", span_max=2)
    with pytest.raises(SpanTooSmallError):
        epsilon(p, 2, mode="exhaustive")
    # counts are refused when not integral, never truncated
    for k in (1.5, 2.9, 0):
        with pytest.raises(DomainError):
            epsilon(p, k)
    with pytest.raises(DomainError):
        epsilon(p, 2, mode="exhaustive", span_max=2.5)
    for k_max in (1.5, -1, 0):
        with pytest.raises(DomainError):
            eps_spark(p, "0.1", k_max)
    with pytest.raises(DomainError):
        verify_srf_bounds(p, 1.5)
    with pytest.raises(DomainError):
        contiguity_scan(p, 2.5, 4)
    with pytest.raises(DomainError):
        contiguity_scan(p, 2, 4.5)


def test_epsilon_recomputable_at_attaining_support():
    p = SystemParams.from_y("0.14")
    res = epsilon(p, 3, mode="exhaustive", span_max=6)
    assert abs(res.value - sigma_min(p, res.attaining_support)) < mpf("1e-35")


def test_eps_spark_examples():
    p = SystemParams.from_y("0.1")
    assert eps_spark(p, "1.1", 4).value == 0
    assert eps_spark(p, "0.5", 4).value == 1
    # eps_3(0.1) = 0.01205912794... < 0.1 <= eps_2 = 0.12793...
    res = eps_spark(p, "0.1", 4)
    assert res.value == 2 and not res.saturated
    assert abs(res.levels[2][1] - lit("0.0120591279416031357336371")) < lit("1e-23")


def test_eps_spark_saturation_reported():
    p = SystemParams.from_y("0.1")
    res = eps_spark(p, "1e-30", 3)
    assert res.value == 3 and res.saturated


def test_eps_spark_inverts_strictly_decreasing_epsilon():
    p = SystemParams.from_y("0.2")
    levels = {k: epsilon(p, k).value for k in range(1, 5)}
    for s in range(1, 5):
        assert eps_spark(p, levels[s], 6).value == s


def test_verify_srf_bounds_values_and_chain():
    p = SystemParams.from_y("0.1", bits=256)
    rep = verify_srf_bounds(p, 6)
    assert all(c.satisfied for c in rep.checks)
    n1 = dict((n, r) for n, r in rep.ratios)
    assert abs(n1[1] - lit("3.2713732125391561667209564852")) < lit("1e-20")
    with workprec(256):
        eps2 = epsilon(p, 2).value
        assert eps2 <= 4 * p.c
    assert rep.min_lower_ratio > 0


def test_contiguity_pair_any_bandwidth():
    res = contiguity_scan(SystemParams.from_y("0.3"), 2, 8)
    assert res.holds and res.table[0][0].offsets == (0, 1)
    assert res.supports_checked == 8


def test_contiguity_triples_small_y():
    res = contiguity_scan(SystemParams.from_y("0.05"), 3, 8)
    assert res.holds
    assert not res.monotonicity_violations


@pytest.mark.parametrize("y,size,span", [("0.05", 3, 10), ("0.2", 4, 8), ("0.45", 3, 7)])
def test_contiguity_table_shares_one_value_per_reflection_pair(y, size, span):
    p = SystemParams.from_y(y)
    res = contiguity_scan(p, size, span)
    values = dict(res.table)
    assert len(values) == res.supports_checked == len(list(canonical_supports(size, span)))
    for T, val in values.items():
        assert val._mpf_ == values[T.reflected().canonical()]._mpf_
        # the pair's value and T's own both lie in T's proven enclosure,
        # which holds lambda_min by inertia at 4x bits
        eig = min_eig_for_support(p, T)
        bits = 4 * eig.bits_used
        G = build_gram(p, T, bits=bits)
        assert inertia_below(G, eig.lo, bits) == 0 and inertia_below(G, eig.hi, bits) == 1
        with workprec(bits):
            assert eig.lo <= val ** 2 <= eig.hi
            assert eig.lo <= sigma_min(p, T) ** 2 <= eig.hi
    # ties within a pair are ordered by offsets
    for (Ta, va), (Tb, vb) in zip(res.table, res.table[1:]):
        assert va < vb or (va == vb and Ta.offsets < Tb.offsets)


def test_reflection_representatives_one_per_pair():
    for size, span in [(1, 0), (2, 5), (3, 6), (4, 9)]:
        every = list(canonical_supports(size, span))
        mirror = {T: T.reflected().canonical() for T in every}
        reps = list(spectral.reflection_representatives(size, span))
        assert reps == [T for T in every if T in reps]  # lexicographic order
        assert set(reps) | {mirror[T] for T in reps} == set(every)
        assert all(T.offsets <= mirror[T].offsets for T in reps)


def _all_pairs_violations(entries):
    """The quadratic reference: every pair whose gap vectors are
    componentwise ordered and whose wider support is not strictly larger."""
    gaps = [(tuple(b - a for a, b in zip(T.offsets, T.offsets[1:])), v) for T, v in entries]
    return [(ga, gb) for (ga, va), (gb, vb) in itertools.permutations(gaps, 2)
            if ga != gb and all(x <= y for x, y in zip(ga, gb)) and not vb > va]


@pytest.mark.parametrize("seed", range(40))
def test_covering_pairs_flag_exactly_what_all_pairs_flag(seed):
    # seeded value tables over every canonical support: monotone ones (a
    # positive weighting of the gaps), and ones with planted violations: a
    # tie or an inversion between a dominating pair, near or far apart
    rng = random.Random(seed)
    size, span = rng.choice([(2, 9), (3, 8), (4, 9), (5, 9)])
    supports = list(canonical_supports(size, span))
    weights = [rng.randint(1, 5) for _ in range(size - 1)]
    values = {T: mpf(sum(w * (b - a) for w, a, b in zip(weights, T.offsets, T.offsets[1:])))
              for T in supports}
    if seed % 4:
        tight, wide = rng.sample(supports, 2)
        gt, gw = (tuple(b - a for a, b in zip(T.offsets, T.offsets[1:])) for T in (tight, wide))
        if not all(x <= y for x, y in zip(gt, gw)):
            tight = SupportSet(tuple(range(size)))  # dominated by every support
        values[wide] = values[tight] - rng.choice([0, 1, mpf("1e-30")])
    entries = list(values.items())
    rng.shuffle(entries)
    assert bool(spectral._monotonicity_violations(entries)) == bool(
        _all_pairs_violations(entries))
    if seed % 4 == 0:
        assert not spectral._monotonicity_violations(entries)


def test_monotone_pair_example():
    p = SystemParams.from_y("0.05")
    tight = sigma_min(p, SupportSet.of(0, 1, 2))
    wide = sigma_min(p, SupportSet.of(0, 1, 3))
    assert tight < wide


def test_contiguity_budget_guard(monkeypatch):
    # the scan shares the exhaustive budget: C(200, 3) = 1313400 supports of
    # size 4, and 10**6 + 1 of size 2, are refused before any support runs
    def evaluated(*args, **kwargs):
        raise AssertionError("a support was evaluated")

    monkeypatch.setattr(spectral, "sigma_min", evaluated)
    p = SystemParams.from_y("0.1")
    for size, span in ((4, 200), (2, 10 ** 6 + 1)):
        with pytest.raises(EnumerationBudgetError):
            contiguity_scan(p, size, span)


def test_exhaustive_budget_guard_before_any_support(monkeypatch):
    # C(100000, 4) ~ 4e18 supports: refused up front, nothing evaluated
    def evaluated(*args, **kwargs):
        raise AssertionError("a support was evaluated")

    monkeypatch.setattr(spectral, "min_eig_for_support", evaluated)
    p = SystemParams.from_y("0.1")
    with pytest.raises(EnumerationBudgetError):
        epsilon(p, 5, mode="exhaustive", span_max=100000)


def test_eps_spark_budget_guard(monkeypatch):
    # level 1 is a single atom; level 2 would be 10**6 + 1 supports, one
    # more than the default budget, and is refused before any of them runs
    def evaluated(params, T):
        raise AssertionError("a level-2 support was evaluated")

    # level 1 needs no eigenproblem, so any call is a level-2 support
    monkeypatch.setattr(spectral, "min_eig_for_support", evaluated)
    p = SystemParams.from_y("0.1")
    with pytest.raises(EnumerationBudgetError):
        eps_spark(p, mpf("1e-3"), 5, mode="exhaustive", span_max=10 ** 6 + 1)


def test_canonical_supports_enumeration():
    sup = list(canonical_supports(3, 4))
    assert [T.offsets for T in sup] == [
        (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4)
    ]


def test_sigma_min_translation_reflection_invariance():
    p = SystemParams.from_y("0.18")
    T = SupportSet.of(0, 2, 3)
    base = sigma_min(p, T)
    assert abs(sigma_min(p, T.translated(11)) - base) < mpf("1e-30")
    assert abs(sigma_min(p, T.reflected()) - base) < mpf("1e-30")


def test_rayleigh_quotient_never_beats_lambda_min():
    # coefficient-energy ratio is maximized by the least eigenvector
    p = SystemParams.from_y("0.2", bits=256)
    T = SupportSet(tuple(range(4)))
    G = build_gram(p, T, bits=256)
    res = min_eig_for_support(p, T)
    rng = np.random.default_rng(5)
    with workprec(256):
        bound = 1 / res.value
        for _ in range(20):
            c = [mpc(a, b) for a, b in
                 zip(rng.standard_normal(4), rng.standard_normal(4))]
            num = sum((x * mp.conj(x)).real for x in c)
            den = gram_quadform(G, c, bits=256)
            assert num / den <= bound * (1 + mpf("1e-30"))
        v = res.vector
        num = sum((x * mp.conj(x)).real for x in v)
        den = gram_quadform(G, v, bits=256)
        assert abs(num / den - bound) <= mpf("1e-10") * bound


# --- the pruned exhaustive scan ---------------------------------------------


def brute_least(p, supports):
    """sigma_min of every support, the first strict minimum kept."""
    best = None
    for T in supports:
        val = sigma_min(p, T)
        if best is None or val < best[0]:
            best = (val, T)
    return best


@pytest.mark.parametrize("y,k,span", [
    ("0.1", 3, 12),  # span above 1/y = 10
    ("0.05", 2, 25),  # span above 1/y = 20
    ("0.2", 4, 7),
    ("0.3", 3, 6),
    ("0.45", 4, 6),
])
def test_pruned_epsilon_matches_brute_force(y, k, span):
    p = SystemParams.from_y(y)
    supports = list(canonical_supports(k, span))
    res = epsilon(p, k, mode="exhaustive", span_max=span)
    val, T = brute_least(p, supports)
    assert res.value._mpf_ == val._mpf_
    assert res.attaining_support == T
    assert res.eig == min_eig_for_support(p, T)
    # in reversed order the best support changes mid-scan, and a tie now
    # goes to the support that comes first in that order
    supports.reverse()
    val, T = brute_least(p, supports)
    rev_val, rev_T, _ = spectral._least(p, supports)
    assert rev_val._mpf_ == val._mpf_
    assert rev_T == T


def test_prune_never_skips_a_reflection_tie():
    # {0,1,3} and {0,2,3} are reflections of each other: same spectrum
    p = SystemParams.from_y("0.2")
    first, second = SupportSet.of(0, 1, 3), SupportSet.of(0, 2, 3)
    lam = min_eig_for_support(p, first).value
    assert not spectral._cannot_win(p, second, lam, 128)
    for order in ([first, second], [second, first]):
        val, T, _ = spectral._least(p, order)
        assert (val, T) == brute_least(p, order)


def test_prune_guard_refuses_within_backward_error():
    # G - lam (1 + 2^-20) I plainly factors for lam = 2^-140, but the
    # margin lam 2^-20 is under the fixed-point Cholesky's backward error,
    # n (2 sqrt(max A_ii) + 2) 2^-160 = 12 2^-160 = 2^-156.4, so nothing is
    # proven; at 2^-100, past gram_radius too, it is
    p = SystemParams.from_y("0.2")
    T = SupportSet.of(0, 4, 9)
    G = build_gram(p, T, bits=128)
    lam = mpf(2) ** -140
    floor = factored_floor(G, lam * (1 + mpf(2) ** -20), 128)
    assert floor is not None
    assert floor < lam
    assert not spectral._cannot_win(p, T, lam, 128)
    assert spectral._cannot_win(p, T, mpf(2) ** -100, 128)


# --- small-y asymptotics ----------------------------------------------------


def test_smally_two_atoms_matches_exact_expansion():
    # lambda_min = 1 - sinc(y) = (pi^2/6) y^2 (1 + O(y^2))
    res = smally_exponent(SupportSet.of(0, 1),
                          ("0.001", "0.002", "0.004", "0.008"))
    with workprec(128):
        assert abs(res.alpha - 2) < mpf("0.001")
        assert abs(res.mu - mp.pi ** 2 / 6) < mpf("0.01")
    assert res.gram_order_alpha == 2 and res.limit == smally_limit((0, 1), 256)


def test_smally_three_atoms_quartic():
    res = smally_exponent(SupportSet.of(0, 1, 2),
                          ("0.001", "0.002", "0.004", "0.006", "0.008"))
    assert abs(res.alpha - 4) < mpf("0.01")
    assert res.gram_order_alpha == 4
    with workprec(128):
        assert abs(res.mu / res.limit - 1) < mpf("0.001")


def test_smally_limit_examples():
    for bits in (64, 256, 1024):
        # a single atom has lambda_min = 1; {0, 1} has 1 - sinc(pi y)
        assert smally_limit((0,), bits) == 1
        with workprec(bits + 32):
            target = mp.pi ** 2 / 6
            assert abs(smally_limit((0, 1), bits) - target) <= mpf(2) ** (8 - bits)
        # depends on the gaps only, and a reflection has the same spectrum
        assert smally_limit((3, 5, 8), bits) == smally_limit((0, 2, 5), bits) \
            == smally_limit((0, 3, 5), bits)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rest=st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=4))
def test_ladder_approaches_smally_limit(rest):
    # lambda_min / y^(2n) -> C_T with a relative gap O(y^2): within 1e-5 at
    # y = 1e-4 (7.1e-7 at most over every support of size 2..5 within span
    # 12) and at least 50 times smaller than at y = 1e-3 (90 at least)
    T = SupportSet((0,) + tuple(sorted(rest)))
    limit = smally_limit(T, 256)
    gaps = []
    for y in ("1e-3", "1e-4"):
        p = SystemParams.from_y(y)
        with workprec(256):
            gaps.append(abs(min_eig_for_support(p, T).value / p.y ** (2 * len(rest))
                            / limit - 1))
    assert gaps[1] <= mpf("1e-5")
    assert 50 * gaps[1] <= gaps[0]


def test_smally_grid_validation():
    with pytest.raises(DomainError):
        smally_exponent(SupportSet.of(0, 1), ("0.001", "0.002", "0.004"))
    with pytest.raises(DomainError):
        smally_exponent(SupportSet.of(0, 1), ("0.001", "0.002", "0.004", "0.1"))
    with pytest.raises(DomainError, match="degenerate fit"):
        smally_exponent(SupportSet.of(0, 1), ("0.002",) * 4)
    for bad in ("nan", "inf", "0"):
        with pytest.raises(DomainError):
            smally_exponent(SupportSet.of(0, 1), ("0.001", "0.002", "0.004", bad))
    # above 0.02 at the run's 256 bits, equal to it at mpmath's 53-bit default
    with pytest.raises(DomainError, match="0.02"):
        smally_exponent(SupportSet.of(0, 1),
                        ("0.001", "0.002", "0.004", "0.0200000000000000001"), bits=256)



# --- contiguous supports: Slepian's commuting tridiagonal --------------------

SLEPIAN_YS = ["0.001", "0.01", "0.04", "0.05", "0.1", "0.2", "0.3", "0.45"]


def _dense_tridiagonal(diag, off):
    n = len(diag)
    return [[diag[i] if i == j else off[min(i, j)] if abs(i - j) == 1 else mpf(0)
             for j in range(n)] for i in range(n)]


def _tridiagonal_below(diag, off, x):
    """Eigenvalues below x of the tridiagonal T: negative LDL^T pivots."""
    count, q = 0, mpf(1)
    for d, e in zip(diag, [0, *off]):
        q = d - x - e * e / q
        count += q < 0
    return count


def _residual(M, v):
    """(Rayleigh quotient, residual norm) of v at the ambient precision."""
    Mv = [mp.fdot(row, v) for row in M]
    mu = mp.fdot(v, Mv) / mp.fdot(v, v)
    return mu, mp.sqrt(mp.fsum((a - mu * b) ** 2 for a, b in zip(Mv, v)) / mp.fdot(v, v))


@pytest.mark.parametrize("y", SLEPIAN_YS)
def test_slepian_vector_is_the_least_gram_eigenvector(y):
    # for n = 2..24 contiguous atoms: the ladder's enclosure holds
    # lambda_min by inertia at 4x bits_used; T's least eigenvector, at those
    # bits, is the lambda_min eigenvector of the Gram matrix there; and the
    # returned vector's sign follows min_eig's rule
    p = SystemParams.from_y(y)
    for n in range(2, 25):
        res = min_eig_for_support(p, range(n))
        bits = 4 * res.bits_used
        G = build_gram(p, range(n), bits=bits)
        assert inertia_below(G, res.lo, bits) == 0 and inertia_below(G, res.hi, bits) == 1
        assert res.hi - res.lo <= LADDER_RELTOL * res.lo
        diag, off = spectral._slepian_tridiagonal(p, n, bits)
        v = spectral._slepian_vector(p, n, bits)
        with workprec(bits):
            # v is T's least eigenvector: a tiny residual, and one eigenvalue
            # of T below theta + 3/4 (T's eigenvalues are at least 1 apart)
            T = _dense_tridiagonal(diag, off)
            theta, t_res = _residual(T, v)
            assert t_res <= mpf(2) ** (-bits // 2)
            assert _tridiagonal_below(diag, off, theta + mpf(3) / 4) == 1
            # and G's lambda_min eigenvector: its Rayleigh quotient lies in the
            # enclosure, and by Davis-Kahan its angle to that eigenvector is at
            # most its residual over the gap to lambda_2 >= 2 hi
            mu, g_res = _residual(G, v)
            assert res.lo <= mu <= res.hi
            assert inertia_below(G, 2 * res.hi, bits) == 1
            assert g_res <= mpf(2) ** -res.bits_used * (2 * res.hi - mu)
        with workprec(res.bits_used):
            top = max(abs(x) for x in res.vector) - mpf(2) ** (-res.bits_used // 2)
            assert next(x for x in res.vector if abs(x) >= top) > 0, (y, n)


@pytest.mark.parametrize("y", ["0.01", "0.1", "0.45"])
def test_slepian_tridiagonal_commutes_with_the_gram_matrix(y):
    p = SystemParams.from_y(y)
    for n in (2, 7, 13, 24):
        G = build_gram(p, range(n), bits=256)
        T = _dense_tridiagonal(*spectral._slepian_tridiagonal(p, n, 256))
        with workprec(256):
            GT = [[mp.fdot(row, col) for col in zip(*T)] for row in G]
            TG = [[mp.fdot(row, col) for col in zip(*G)] for row in T]
            assert max(abs(a - b) for ra, rb in zip(GT, TG) for a, b in zip(ra, rb)) \
                <= n ** 3 * mpf(2) ** -240


@pytest.mark.parametrize("bits,steps", [(128, 7), (512, 9), (1024, 10)])
def test_tridiagonal_refinement_steps_from_the_binomial_start(monkeypatch, bits, steps):
    # from the y -> 0 limit (-1)^j C(n-1, j), inverse iteration at ``bits``
    # reaches T's rounding level and takes its one last step within
    # ``steps`` fixed-point solves: the most measured over n = 2..129 and
    # y in {0.02, 0.05, 0.1, 0.2, 0.3, 0.45}, at y = 0.45, n = 3
    real = hp._tridiagonal_solve
    solves = []

    def counted(D, E, s, v, tiny, F):
        solves.append(isinstance(s, int) and all(isinstance(t, int) for t in v))
        return real(D, E, s, v, tiny, F)

    monkeypatch.setattr(hp, "_tridiagonal_solve", counted)
    for y in ("0.02", "0.12", "0.3", "0.45"):
        p = SystemParams.from_y(y)
        for n in (2, 3, 5, 13, 65, 129):
            solves.clear()
            hp.tridiagonal_min_vector(*spectral._slepian_tridiagonal(p, n, bits), bits)
            assert 0 < sum(solves) <= steps, (y, n, solves)


@pytest.mark.parametrize("bits", [128, 256, 512])
@pytest.mark.parametrize("n", [2, 5, 13, 65])
def test_tridiagonal_vector_is_the_least_eigenvector(n, bits):
    # up to its sign, the fixed-point vector is T's least eigenvector from
    # mpmath's eigsy at twice the bits, within n 2^(8-bits) ||T||
    diag, off = spectral._slepian_tridiagonal(SystemParams.from_y("0.2"), n, bits)
    v = hp.tridiagonal_min_vector(diag, off, bits)
    with workprec(2 * bits):
        E, Q = mp.eigsy(mp.matrix(_dense_tridiagonal(diag, off)))
        k = min(range(n), key=lambda i: E[i])
        q = [Q[i, k] for i in range(n)]
        if mp.fdot(q, v) < 0:
            q = [-x for x in q]
        norm = max(map(abs, diag)) + 2 * max(map(abs, off))
        assert max(abs(a - b) for a, b in zip(v, q)) <= n * mpf(2) ** (8 - bits) * norm


@pytest.mark.parametrize("bits", [128, 512])
@pytest.mark.parametrize("y", ["0.001", "0.2", "0.49"])
def test_tridiagonal_vector_is_least_from_y_near_0_to_near_half(y, bits):
    # the binomial start is the y -> 0 limit, so y -> 1/2 starts farthest
    # from the answer; the vector still has T's rounding-level residual, and
    # one eigenvalue of T lies below its Rayleigh quotient + 3/4 (T's
    # eigenvalues are about 1 apart), so the residual bounds its distance
    # from the least eigenvector, not another one
    p = SystemParams.from_y(y)
    for n in (2, 5, 13, 65, 129):
        diag, off = spectral._slepian_tridiagonal(p, n, bits)
        v = hp.tridiagonal_min_vector(diag, off, bits)
        with workprec(bits):
            theta, res = _residual(_dense_tridiagonal(diag, off), v)
            norm = max(map(abs, diag)) + 2 * max(map(abs, off))
            assert res <= n * mpf(2) ** (8 - bits) * norm, (n, res)
            assert _tridiagonal_below(diag, off, theta + mpf(3) / 4) == 1, n


@settings(max_examples=20, deadline=None, derandomize=True)
@given(y=st.integers(min_value=10001, max_value=489999).map(lambda v: f"0.{v:06d}"),
       n=st.integers(min_value=2, max_value=40))
def test_contiguous_ladder_encloses_lambda_min(y, n):
    # the enclosure of the certified Slepian candidate holds lambda_min by
    # inertia at 4x bits_used, on the Gram matrix of the same stored y
    p = SystemParams.from_y(y)
    res = min_eig_for_support(p, range(n))
    bits = 4 * res.bits_used
    G = build_gram(p, range(n), bits=bits)
    assert inertia_below(G, res.lo, bits) == 0 and inertia_below(G, res.hi, bits) == 1
    assert res.hi - res.lo <= LADDER_RELTOL * res.lo


def _second_vector(params, n, bits):
    """T's eigenvector of its second-smallest eigenvalue, from mpmath's
    Jacobi solver: an exact eigenvector of the Gram matrix, for lambda_2."""
    diag, off = spectral._slepian_tridiagonal(params, n, bits)
    with workprec(bits):
        E, Q = mp.eigsy(mp.matrix(_dense_tridiagonal(diag, off)))
        k = sorted(range(n), key=lambda i: E[i])[1]
        return tuple(Q[i, k] for i in range(n))


@pytest.mark.parametrize("y,n", [("0.1", 5), ("0.3", 8), ("0.04", 13)])
def test_wrong_candidate_falls_back_to_the_general_kernel(monkeypatch, y, n):
    # the certifying Cholesky of a wrong eigenvector fails at every level,
    # and the ladder returns what the general kernel alone returns, with no
    # cap error (n = 13 at y = 0.04 fails to factor at 128 bits)
    p = SystemParams.from_y(y)
    general = hp.min_eig_adaptive(
        lambda bits: (build_gram(p, range(n), bits=bits), gram_radius(p, range(n), bits), None))
    monkeypatch.setattr(spectral, "_slepian_vector", _second_vector)
    assert min_eig_for_support(p, range(n)) == general


def _positive_kw_shift(params, n, bits):
    """Whether the Slepian candidate's Krylov-Weinstein shift at ``bits``,
    for n contiguous atoms, is positive: a level that can certify, where
    _certify returns an enclosure."""
    M = build_gram(params, range(n), bits=bits)
    rayleigh = hp._unit_rayleigh(M, spectral._slepian_vector(params, n, bits), bits)
    return hp._certify(M, rayleigh, bits)[2] is not None


@pytest.mark.parametrize("base", [40000, 120000, 300000])
def test_contiguous_ladder_makes_one_cholesky_per_level(monkeypatch, base):
    # the spectra benchmark's supports {0..n}, n = 4, 8, 12, on its y ranges
    # [base, base + 500) millionths: the same levels for every y, and one
    # full-precision factor, at its bits, per level that can certify; a
    # level whose Krylov-Weinstein shift is not positive makes none (n = 12
    # below y = 0.0403 at 128 bits)
    calls, _ = full_precision_work(monkeypatch)
    for n in (4, 8, 12):
        levels = set()
        for micro in (*range(base, base + 500, 71), base + 499):
            calls.clear()
            p = SystemParams.from_y(f"0.{micro:06d}")
            res = min_eig_for_support(p, range(n + 1))
            made = list(calls)
            assert made == [bits for bits, _ in res.history
                            if _positive_kw_shift(p, n + 1, bits)], (n, micro)
            assert made[-1] == res.bits_used
            levels.add(tuple(bits for bits, _ in res.history))
        assert len(levels) == 1, (n, levels)


def test_level_below_the_rounding_guard_makes_no_cholesky(monkeypatch):
    # {0..12} at y = 0.0401: at 128 bits the Slepian candidate's Rayleigh
    # quotient, 8.7e-36, lies below the guard 13 * 2^-120 = 9.8e-36, so its
    # Krylov-Weinstein shift is negative. The level records that quotient,
    # as its Cholesky at that shift did, and climbs without one
    calls, _ = full_precision_work(monkeypatch)
    p = SystemParams.from_y("0.0401")
    res = min_eig_for_support(p, range(13))
    assert calls == [256] and res.bits_used == 256
    M = build_gram(p, range(13), bits=128)
    _, mu, _ = hp._unit_rayleigh(M, spectral._slepian_vector(p, 13, 128), 128)
    assert res.history[0] == (128, mu) and len(res.history) == 2
