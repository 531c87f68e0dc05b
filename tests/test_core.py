"""Core system: closed-form Gram entries, measurement model, invariants.

Derived expected values are frozen from independent oracles: a Taylor-series
sine for the capacity, adaptive quadrature of the defining integral for the
Gram entries, and direct quadratic-form arithmetic for the norms.
"""

import pytest
from fractions import Fraction

from mpmath import mp, mpc, mpf, workprec

import srflimits.hp as hp
from conftest import lit
from srflimits import (
    CoefficientVector,
    MeasurementVector,
    SupportSet,
    SystemParams,
    arc_inner_product,
    build_gram,
    gram_entry,
    leading_coeffs,
    measurement_norm,
    synthesize,
)
from srflimits.core import gram_radius
from srflimits.szego import arc_rule
from srflimits.errors import DomainError, SupportError


def taylor_sin(x, bits):
    """Independent sine oracle: plain Taylor summation to convergence."""
    with workprec(bits + 32):
        term = x
        total = x
        k = 0
        while abs(term) > mpf(2) ** (-bits - 16):
            k += 1
            term *= -x * x / ((2 * k) * (2 * k + 1))
            total += term
        return total


# --- capacity ---------------------------------------------------------------


def test_capacity_one_third_is_half():
    val = SystemParams.from_y(Fraction(1, 3), bits=256).c
    assert abs(val - mpf("0.5")) < mpf(2) ** (-250)


def test_capacity_matches_taylor_sine_oracle():
    # frozen from the oracle below at 256 bits
    frozen = lit("0.156434465040230869010105319467166892313899892")
    val = SystemParams.from_y("0.1", bits=256).c
    assert abs(val - frozen) < mpf("1e-44")
    with workprec(288):
        oracle = taylor_sin(mp.pi * mpf("0.1") / 2, 288)
    assert abs(val - oracle) < mpf(2) ** (-250)


def test_capacity_small_y_limit():
    with workprec(256):
        y = mpf("1e-8")
        ratio = SystemParams.from_y(y).c / (mp.pi * y / 2)
        assert abs(ratio - 1) < mpf("1e-15")


@pytest.mark.parametrize("bad", ["0", "0.5", "0.6", "-0.1", "1"])
def test_capacity_domain(bad):
    with pytest.raises(DomainError):
        SystemParams.from_y(bad)


# --- system params ----------------------------------------------------------


def test_params_invariants():
    p = SystemParams.from_y("0.1", bits=256)
    with workprec(256):
        assert abs(p.srf * p.y - 1) < mpf(2) ** (-250)
        assert 0 < p.c < mp.sin(mp.pi / 4)
        assert abs(p.arc_length - 2 * mp.pi * p.y) < mpf(2) ** (-250)


def test_params_from_srf_matches_from_y():
    a = SystemParams.from_srf(8, bits=192)
    b = SystemParams.from_y(Fraction(1, 8), bits=192)
    assert a.y == b.y and a.c == b.c


def test_params_rejects_out_of_range():
    with pytest.raises(DomainError):
        SystemParams.from_y("0.5")
    with pytest.raises(DomainError):
        SystemParams.from_srf(2)
    # a bit count outside [MIN_BITS, MAX_BITS], or not an integer, is
    # refused before anything is parsed at it (at bits = 0, "0.1" rounds to 1/8)
    for bits in (0, -5, 1.5, 63, 8193):
        for make in (lambda: SystemParams.from_y("0.1", bits=bits),
                     lambda: SystemParams.from_srf(10, bits=bits),
                     lambda: SystemParams(mpf("0.1"), bits)):
            with pytest.raises(DomainError):
                make()
    assert SystemParams.from_y("0.1", bits=256.0).bits == 256


# --- support sets -----------------------------------------------------------


def test_support_validation():
    with pytest.raises(SupportError):
        SupportSet(())
    with pytest.raises(SupportError):
        SupportSet((0, 0))
    with pytest.raises(SupportError):
        SupportSet((3, 1))
    # offsets are refused when not integral, never truncated; any sign is fine
    p = SystemParams.from_y("0.1")
    for bad in ((0, 1.9), (0, 1.5), (-0.5, 2)):
        with pytest.raises(DomainError):
            SupportSet(bad)
    for m in (1.5, -0.5, "1"):
        with pytest.raises(DomainError):
            gram_entry(p, m)
    assert SupportSet.of(-3, 2.0).offsets == (-3, 2)


def test_support_canonical_and_reflect():
    T = SupportSet.of(5, 7, 11)
    assert T.canonical().offsets == (0, 2, 6)
    assert T.reflected().offsets == (-11, -7, -5)
    assert T.span == 6


def test_support_from_text_refuses_non_integers():
    assert SupportSet.from_text(" -3, 5,") == SupportSet((-3, 5))
    for text in ("0,x", "0,1.5", "0,1e3"):
        with pytest.raises(SupportError, match="not an integer"):
            SupportSet.from_text(text)


# --- gram entries -----------------------------------------------------------


def test_gram_entry_values():
    p = SystemParams.from_y("0.1", bits=256)
    assert gram_entry(p, 0) == 1
    g1 = gram_entry(p, 1)
    g2 = gram_entry(p, 2)
    assert abs(g1 - lit("0.9836316430834659673474879")) < lit("1e-24")
    assert abs(g2 - lit("0.9354892837886390332129191")) < lit("1e-24")
    assert gram_entry(p, -1) == g1
    assert gram_entry(p, -2) == g2


def test_gram_entry_bounded_by_one():
    p = SystemParams.from_y("0.37", bits=128)
    for m in range(1, 40):
        assert abs(gram_entry(p, m)) < 1
    assert gram_entry(p, 0) == 1


def test_gram_entry_against_quadrature_oracle():
    # defining integral <z^{j1}, z^{j2}> via adaptive Gauss-Legendre
    import numpy as np

    rng = np.random.default_rng(42)
    p = SystemParams.from_y("0.13", bits=128)
    for _ in range(6):
        j1, j2 = int(rng.integers(-10, 11)), int(rng.integers(-10, 11))
        # monomial representation needs nonnegative degrees; shift both
        s = min(j1, j2)
        a = [mpf(0)] * (j1 - s + 1)
        a[j1 - s] = mpf(1)
        b = [mpf(0)] * (j2 - s + 1)
        b[j2 - s] = mpf(1)
        quad = arc_inner_product(a, b, p, bits=128)
        closed = gram_entry(p, j1 - j2, bits=128)
        assert abs(quad.real - closed) <= mpf("1e-12") * max(1, abs(closed))
        assert abs(quad.imag) < mpf("1e-12")


# --- gram matrices ----------------------------------------------------------


def test_build_gram_singleton():
    p = SystemParams.from_y("0.2")
    G = build_gram(p, SupportSet.of(5))
    assert G == ((mpf(1),),)


def test_build_gram_pair_and_translation():
    p = SystemParams.from_y("0.1", bits=256)
    G = build_gram(p, SupportSet.of(0, 1))
    assert G[0][0] == 1 and G[1][1] == 1
    assert G[0][1] == G[1][0] == gram_entry(p, 1)
    A = build_gram(p, SupportSet.of(0, 1, 2))
    B = build_gram(p, SupportSet.of(7, 8, 9))
    assert A == B


@pytest.mark.parametrize("bits", [0, 1.5, -5, True, 20, "x"])
def test_functions_taking_their_own_bits_check_them(bits):
    # bits=0 used to give an all-ones Gram matrix, and 20 ran below MIN_BITS
    p = SystemParams.from_y("0.1", bits=128)
    calls = (
        lambda: gram_entry(p, 1, bits=bits),
        lambda: gram_radius(p, SupportSet.of(0, 1), bits),
        lambda: build_gram(p, SupportSet.of(0, 1), bits=bits),
        lambda: leading_coeffs(p, 2, bits=bits),
        lambda: arc_inner_product([1], [1], p, bits=bits),
        lambda: arc_rule([1], [1], p, bits=bits),
    )
    for call in calls:
        with pytest.raises(DomainError):
            call()

def test_build_gram_is_positive_definite():
    p = SystemParams.from_y("0.15", bits=256)
    G = build_gram(p, SupportSet(tuple(range(6))))
    hp.hp_cholesky(G, bits=256)  # must not raise


def test_gram_spectrum_translation_reflection_invariant():
    # det(G + s I) at the n + 1 shifts s = 0..n fixes the degree-n
    # characteristic polynomial, hence the whole spectrum; each is a
    # Cholesky determinant
    p = SystemParams.from_y("0.2", bits=256)
    T = SupportSet.of(0, 2, 5)
    n = len(T)
    dets = []
    for S in (T, T.translated(3), T.reflected()):
        G = build_gram(p, S, bits=256)
        row = []
        for s in range(n + 1):
            with workprec(256):
                shifted = [[x + (s if i == j else 0) for j, x in enumerate(r)]
                           for i, r in enumerate(G)]
            L = hp.hp_cholesky(shifted, bits=256)
            with workprec(256):
                det = mpf(1)
                for i in range(n):
                    det *= L[i][i] ** 2
            row.append(det)
        dets.append(row)
    for row in dets[1:]:
        for a, b in zip(dets[0], row):
            assert abs(a - b) < mpf(2) ** (-200) * a


# --- synthesis and norms ----------------------------------------------------


def test_synthesize_embeds_with_zero_padding():
    p = SystemParams.from_y("0.1")
    x = CoefficientVector(support=SupportSet.of(3), values=(mpc(2),))
    f = synthesize(p, x, SupportSet(tuple(range(6))))
    assert f.coeffs == (mpc(0), mpc(0), mpc(0), mpc(2), mpc(0), mpc(0))
    assert f.rho == 0


def test_synthesize_rejects_escaping_support():
    p = SystemParams.from_y("0.1")
    x = CoefficientVector(support=SupportSet.of(9), values=(mpc(1),))
    with pytest.raises(SupportError):
        synthesize(p, x, SupportSet(tuple(range(6))))


def test_zero_vector_synthesizes_to_zero_norm():
    p = SystemParams.from_y("0.1", bits=256)
    x = CoefficientVector(support=SupportSet.of(0), values=(mpc(0),))
    f = synthesize(p, x, SupportSet.of(0, 1))
    assert measurement_norm(p, f) == 0


def test_measurement_norm_values():
    p = SystemParams.from_y("0.1", bits=256)
    one = MeasurementVector(window=SupportSet.of(0), coeffs=(mpc(1),), rho=mpf(0))
    assert abs(measurement_norm(p, one) - 1) < mpf(2) ** (-250)

    resid = MeasurementVector(window=SupportSet.of(0, 1),
                              coeffs=(mpc(0), mpc(0)), rho=mpf("0.3"))
    assert abs(measurement_norm(p, resid) - mpf("0.3")) < mpf(2) ** (-250)

    plus = synthesize(p, CoefficientVector(support=SupportSet.of(0, 1),
                                           values=(mpc(1), mpc(1))),
                      SupportSet.of(0, 1))
    with workprec(256):
        norm2 = measurement_norm(p, plus) ** 2
        assert abs(norm2 - lit("3.967263286166931934694976")) < lit("1e-23")

    minus = synthesize(p, CoefficientVector(support=SupportSet.of(0, 1),
                                            values=(mpc(1), mpc(-1))),
                       SupportSet.of(0, 1))
    got = measurement_norm(p, minus)
    assert abs(got - lit("0.1809328987029944902856279")) < lit("1e-24")


def test_measurement_norm_identity():
    # ||f||^2 = coeffs* G coeffs + rho^2
    p = SystemParams.from_y("0.23", bits=256)
    W = SupportSet.of(0, 1, 4)
    f = MeasurementVector(window=W, coeffs=(mpc(1, 2), mpc(-1), mpc(0, "0.5")),
                          rho=mpf("0.7"))
    from srflimits.core import gram_quadform

    G = build_gram(p, W, bits=256)
    with workprec(256):
        direct = mp.sqrt(gram_quadform(G, f.coeffs, bits=256)
                         + f.rho ** 2)
    assert abs(measurement_norm(p, f) - direct) < mpf(2) ** (-240)


def test_coefficient_vector_sparsity():
    x = CoefficientVector(support=SupportSet.of(0, 2, 5),
                          values=(mpc(1), mpc(0), mpc(3)))
    assert x.sparsity() == 2
    assert len(x.support) == 3
