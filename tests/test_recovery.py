"""Brute-force l0 recovery, adversarial pairs, minimax sandwich, scaling."""

import itertools
from dataclasses import replace

import pytest

import numpy as np
from mpmath import mp, mpc, mpf, workprec

from srflimits import (
    CoefficientVector,
    SupportSet,
    SystemParams,
    adversarial_pair,
    build_gram,
    l0_solve,
    minimax_experiment,
    sigma_min,
    srf_scaling,
    synthesize,
)
from srflimits import recovery
from srflimits.core import MeasurementVector, gram_quadform
from srflimits.hp import cholesky_solve, hp_cholesky
from srflimits.errors import (
    DomainError,
    InfeasibleError,
    ThresholdTieError,
)


def test_l0_exact_single_atom():
    p = SystemParams.from_y("0.1")
    x = CoefficientVector(support=SupportSet.of(3), values=(mpc(2),))
    f = synthesize(p, x, SupportSet(tuple(range(6))))
    res = l0_solve(p, f, 0, 3)
    assert res.sparsity == 1
    assert res.support.offsets == (3,)
    assert abs(res.estimate.values[0] - 2) < mpf("1e-60")
    assert res.residual < mpf("1e-35")


def test_l0_zero_measurement():
    p = SystemParams.from_y("0.1")
    f = MeasurementVector(window=SupportSet.of(0, 1, 2),
                          coeffs=(mpc(0), mpc(0), mpc(0)), rho=mpf(0))
    res = l0_solve(p, f, 0, 2)
    assert res.sparsity == 0
    assert res.support is None and res.estimate is None


def test_l0_recovery_error_bounded_by_theory():
    # data from the adversarial pair at sigma = eps_2 admits a 1-sparse
    # explanation; any minimizer stays within 2 sigma / eps_2 of the truth
    p = SystemParams.from_y("0.1", bits=256)
    eps2 = sigma_min(p, SupportSet.of(0, 1))
    pair = adversarial_pair(p, 1, eps2)
    f = synthesize(p, pair.x0, pair.T_star)
    res = l0_solve(p, f, eps2, 1)
    assert res.sparsity == 1
    with workprec(256):
        est = res.estimate.embed(pair.T_star)
        x0 = pair.x0.embed(pair.T_star)
        err = mp.sqrt(sum(((a - b) * mp.conj(a - b)).real for a, b in zip(est, x0)))
        assert err <= 2 * eps2 / pair.eps2k * (1 + mpf("1e-30"))


def test_l0_residual_identity():
    # Schur-complement residual equals the directly evaluated ||f - A x||
    p = SystemParams.from_y("0.2", bits=256)
    W = SupportSet(tuple(range(5)))
    rng = np.random.default_rng(8)
    coeffs = tuple(mpc(a, b) for a, b in
                   zip(rng.standard_normal(5), rng.standard_normal(5)))
    f = MeasurementVector(window=W, coeffs=coeffs, rho=mpf("0.01"))
    res = l0_solve(p, f, mpf("0.25"), 4)
    G = build_gram(p, W, bits=256)
    with workprec(256):
        diff = list(f.coeffs)
        for t, v in zip(res.support, res.estimate.values):
            diff[W.index_of(t)] -= v
        direct = mp.sqrt(gram_quadform(G, diff, bits=256) + f.rho ** 2)
        assert abs(direct - res.residual) <= mpf("1e-12") * max(res.residual, mpf(1))


def test_l0_infeasible_when_rho_exceeds_sigma():
    p = SystemParams.from_y("0.1")
    f = MeasurementVector(window=SupportSet.of(0, 1),
                          coeffs=(mpc(0), mpc(0)), rho=mpf("0.5"))
    with pytest.raises(InfeasibleError):
        l0_solve(p, f, mpf("0.1"), 2)


def test_l0_rejects_non_finite_sigma_and_rho():
    p = SystemParams.from_y("0.1")
    f = MeasurementVector(window=SupportSet.of(0, 1), coeffs=(1, 0), rho=0)
    for sigma in (mpf("inf"), mpf("-inf"), mpf("nan")):
        with pytest.raises(DomainError):
            l0_solve(p, f, sigma, k_cap=1)
    for rho in (mpf("inf"), mpf("nan")):
        with pytest.raises(DomainError):
            MeasurementVector(window=SupportSet.of(0, 1), coeffs=(1, 0), rho=rho)


def test_l0_window_cap():
    p = SystemParams.from_y("0.1")
    W = SupportSet(tuple(range(17)))
    f = MeasurementVector(window=W, coeffs=tuple(mpc(0) for _ in W), rho=mpf(0))
    with pytest.raises(DomainError):
        l0_solve(p, f, 0, 2)
    small = MeasurementVector(window=SupportSet.of(0, 1), coeffs=(1, 0), rho=0)
    for k_cap in (1.5, -1, 3):
        with pytest.raises(DomainError):
            l0_solve(p, small, mpf("0.1"), k_cap)


def test_l0_first_feasible_support_is_lexicographic():
    # two atoms with equal claim: enumeration order breaks the tie
    p = SystemParams.from_y("0.1", bits=256)
    x = CoefficientVector(support=SupportSet.of(1), values=(mpc(1),))
    f = synthesize(p, x, SupportSet(tuple(range(4))))
    res = l0_solve(p, f, mpf("0.9999"), 2)
    assert res.sparsity == 1
    assert res.support.offsets == (0,) or res.support.offsets == (1,)
    # with a generous tolerance the first lexicographic support {0} wins
    big = l0_solve(p, f, mpf("0.999999"), 2)
    assert big.support.offsets == (0,)


def per_support_l0(p, f, sigma, k_cap, bits):
    """The search l0_solve used to run, one full Cholesky and solve per
    support: (window indices, coefficients, residual, supports examined),
    or None in place of the first three when nothing is feasible."""
    G = build_gram(p, f.window, bits=bits)
    with workprec(bits):
        fnorm2 = gram_quadform(G, f.coeffs, bits=bits) + f.rho * f.rho
        target = sigma * sigma + mpf(2) ** (-bits // 2) * (1 + fnorm2)
        b_window = [mp.fdot(row, f.coeffs) for row in G]
        examined = 0
        for s in range(k_cap + 1):
            for idx in itertools.combinations(range(len(f.window)), s):
                examined += 1
                sub = [[G[i][j] for j in idx] for i in idx]
                b = [b_window[i] for i in idx]
                x = cholesky_solve(hp_cholesky(sub, bits=bits), b, bits=bits) if s else []
                resid2 = fnorm2 - sum((mp.conj(bi) * xi).real for bi, xi in zip(b, x))
                if resid2 <= target:
                    residual = mp.sqrt(resid2) if resid2 > 0 else mpf(0)
                    return idx, x, residual, examined
    return None, None, None, examined


@pytest.mark.parametrize("seed", range(6))
def test_l0_matches_per_support_cholesky(seed):
    rng = np.random.default_rng(seed)
    p = SystemParams.from_y(("0.1", "0.2", "0.3")[seed % 3], bits=256)
    W = SupportSet(tuple(sorted(rng.choice(16, size=7 + seed, replace=False).tolist())))
    planted = sorted(rng.choice(len(W), size=1 + seed % 3, replace=False).tolist())
    with workprec(256):
        coeffs = [mpc(*rng.standard_normal(2)) * mpf("1e-7") for _ in W]
        for i in planted:
            coeffs[i] += mpc(*rng.standard_normal(2))
    f = MeasurementVector(window=W, coeffs=coeffs, rho=mpf("1e-7"))
    sigma = mpf("1e-5")
    for k_cap in (len(planted), len(planted) - 1):
        idx, x, residual, examined = per_support_l0(p, f, sigma, k_cap, 256)
        if idx is None:
            with pytest.raises(InfeasibleError, match=f"{examined} supports examined"):
                l0_solve(p, f, sigma, k_cap)
            continue
        res = l0_solve(p, f, sigma, k_cap)
        assert res.supports_examined == examined
        assert res.support.offsets == tuple(W.offsets[i] for i in idx)
        assert all(abs(a - b) <= mpf(2) ** -200 for a, b in zip(res.estimate.values, x))
        assert res.residual == residual


# --- adversarial pairs ------------------------------------------------------


def test_adversarial_pair_two_atom_structure():
    p = SystemParams.from_y("0.1", bits=256)
    sigma = mpf("1e-4")
    pair = adversarial_pair(p, 1, sigma)
    assert pair.T_star.offsets == (0, 1)
    assert pair.threshold_tie  # symmetric least vector: equal magnitudes
    assert len(pair.x0.support) == 1 and len(pair.x1.support) == 1
    assert set(pair.x0.support.offsets) | set(pair.x1.support.offsets) == {0, 1}
    assert not set(pair.x0.support.offsets) & set(pair.x1.support.offsets)
    with workprec(256):
        expect = sigma / (pair.eps2k * mp.sqrt(2))
        assert abs(abs(pair.x1.values[0]) - expect) < mpf("1e-40")


@pytest.mark.parametrize("nudge", [-200, 200])
@pytest.mark.parametrize("y", ["0.1", "0.2"])
def test_adversarial_pair_tie_goes_to_lower_index(monkeypatch, y, nudge):
    # the two-atom least vector is (1, -1)/sqrt 2 up to rounding, which may
    # make either magnitude the larger; scaling v_1 by 1 -/+ 2^-200 plays
    # both, and the tie still puts x1 on atom 0
    real = recovery.epsilon

    def nudged(*args, **kwargs):
        res = real(*args, **kwargs)
        v = res.eig.vector
        with workprec(512):
            w = (v[0], v[1] * (1 + mp.sign(nudge) * mpf(2) ** -abs(nudge)))
        return replace(res, eig=replace(res.eig, vector=w))

    monkeypatch.setattr(recovery, "epsilon", nudged)
    pair = adversarial_pair(SystemParams.from_y(y), 1, mpf("1e-4"))
    assert pair.threshold_tie
    assert pair.x1.support.offsets == (0,) and pair.x0.support.offsets == (1,)


def test_adversarial_pair_above_half_the_largest_precision():
    # its Gram matrix is built at twice the run's bits, capped at MAX_BITS,
    # which build_gram's bits check refuses to exceed
    pair = adversarial_pair(SystemParams.from_y("0.2", bits=4200), 1, mpf("1e-6"))
    assert pair.T_star.offsets == (0, 1)

def test_adversarial_pair_stops_at_max_bits(monkeypatch):
    # its doubled precisions stop at MAX_BITS like every other: with the cap
    # patched to 300, a 256-bit run's quadratic forms, and the working
    # precision around them, stay at 300 bits, not 512
    seen = []
    real = recovery.gram_quadform

    def recording(G, v, bits):
        seen.append((bits, mp.prec))
        return real(G, v, bits)

    monkeypatch.setattr(recovery, "MAX_BITS", 300)
    monkeypatch.setattr(recovery, "gram_quadform", recording)
    adversarial_pair(SystemParams.from_y("0.1", bits=256), 1, mpf("1e-4"))
    assert len(seen) == 2 and all(bits == 300 and prec <= 300 for bits, prec in seen)


def test_adversarial_pair_strict_tie_mode():
    p = SystemParams.from_y("0.1")
    with pytest.raises(ThresholdTieError):
        adversarial_pair(p, 1, mpf("1e-4"), strict_ties=True)


def test_adversarial_pair_indistinguishability():
    # f is sigma-consistent with both x0 and x1
    p = SystemParams.from_y("0.2", bits=256)
    sigma = mpf("1e-6")
    pair = adversarial_pair(p, 2, sigma)
    G = build_gram(p, pair.T_star, bits=512)
    with workprec(512):
        diff = [a - b for a, b in zip(pair.x0.embed(pair.T_star),
                                      pair.x1.embed(pair.T_star))]
        image = mp.sqrt(gram_quadform(G, diff, bits=512))
        assert image <= sigma * (1 + mpf("1e-50"))
        gap = mp.sqrt(sum((d * mp.conj(d)).real for d in diff))
        assert abs(gap * pair.eps2k / sigma - 1) < mpf("1e-10")


def test_adversarial_pair_rejects_bad_inputs():
    p = SystemParams.from_y("0.2")
    with pytest.raises(DomainError):
        adversarial_pair(p, 0, mpf("1e-4"))
    with pytest.raises(DomainError):
        adversarial_pair(p, 1, mpf(0))
    with pytest.raises(DomainError):
        adversarial_pair(p, 1, mpf("inf"))
    with pytest.raises(DomainError):
        adversarial_pair(p, 1.5, mpf("1e-4"))


# --- minimax sandwich -------------------------------------------------------


def test_minimax_experiment_both_sides():
    p = SystemParams.from_y("0.2", bits=256)
    rep = minimax_experiment(p, 1, mpf("1e-4"))
    assert all(c.satisfied for c in rep.checks)
    assert rep.err_x0 <= rep.upper_bound
    assert max(rep.err_x0, rep.err_x1) >= rep.lower_bound
    assert rep.lower_bound <= rep.upper_bound


def test_minimax_bounds_scale_linearly_in_sigma():
    p = SystemParams.from_y("0.2", bits=256)
    a = minimax_experiment(p, 1, mpf("1e-4"))
    b = minimax_experiment(p, 1, mpf("2e-4"))
    with workprec(256):
        assert abs(b.upper_bound - 2 * a.upper_bound) < mpf("1e-40")
        assert abs(b.lower_bound - 2 * a.lower_bound) < mpf("1e-40")


def test_minimax_rejects_zero_sigma():
    p = SystemParams.from_y("0.2")
    with pytest.raises(DomainError):
        minimax_experiment(p, 1, 0)
    with pytest.raises(DomainError):
        minimax_experiment(p, 1, mpf("inf"))


# --- SRF scaling ------------------------------------------------------------


def test_scaling_single_pair_slope():
    res = srf_scaling(1, ("8", "12", "16", "24", "32"))
    assert abs(res.slope + 1) < mpf("0.02")
    assert len(res.table) == 5


def test_scaling_two_pairs_slope():
    res = srf_scaling(2, ("8", "12", "20", "32"))
    assert abs(res.slope + 3) < mpf("0.15")


def test_scaling_slope_invariant_under_rescaling():
    res = srf_scaling(1, ("8", "12", "16", "24"))
    with workprec(256):
        xs = [mp.log(s) for s, _, _ in res.table]
        ls = [mp.log(7 * e) for _, _, e in res.table]
        n = len(xs)
        sx, sl = sum(xs), sum(ls)
        sxx = sum(x * x for x in xs)
        sxl = sum(x * l for x, l in zip(xs, ls))
        slope = (n * sxl - sx * sl) / (n * sxx - sx * sx)
        assert abs(slope - res.slope) < mpf("1e-30")


def test_scaling_input_validation():
    with pytest.raises(DomainError):
        srf_scaling(1, ("8", "12", "16"))
    with pytest.raises(DomainError):
        srf_scaling(1, ("8", "12", "16", "2"))
    for k in (1.5, 0):
        with pytest.raises(DomainError):
            srf_scaling(k, ("8", "12", "16", "24"))


def test_scaling_degenerate_grid():
    with pytest.raises(DomainError, match="degenerate fit"):
        srf_scaling(1, ("3", "3", "3", "3"))
