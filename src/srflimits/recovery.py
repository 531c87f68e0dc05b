"""Brute-force l0 recovery, minimax sandwich experiments and SRF scaling.

(P0) is solved by exhaustive support enumeration only. No heuristic
solver is included on purpose: the window is finite and small, and the
point of this module is to realize the combinatorial estimator whose
error the theory brackets, not to approximate it.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import mpf_neg, to_fixed

from .checks import bound_check
from .core import (
    CoefficientVector,
    MeasurementVector,
    SupportSet,
    SystemParams,
    as_count,
    build_gram,
    finite_norm,
    gram_quadform,
    norm_from_quadform,
    parse_grid,
    synthesize,
)
from .errors import (
    DomainError,
    InfeasibleError,
    PrecisionError,
    ThresholdTieError,
)
from .hp import FIXED_GUARD, MAX_BITS, back_substitute, cholesky_row, fixed_matrix, resolve_bits
from .spectral import CONTIGUOUS, epsilon, loglog_fit

DEFAULT_WINDOW_CAP = 16
SCALING_TOLERANCE = "0.15"  # largest |slope + 2k - 1| accepted, parsed at the run's bits


@dataclass(frozen=True)
class RecoveryResult:
    """Minimizer of (P0) over the window at tolerance sigma.

    ``support``/``estimate`` are None for the zero (0-sparse) explanation.
    ``measurement_norm`` is ||f||, as core.measurement_norm gives it.
    """

    estimate: CoefficientVector | None
    support: SupportSet | None
    sparsity: int
    residual: mpf
    supports_examined: int
    measurement_norm: mpf


def l0_solve(params: SystemParams, f: MeasurementVector, sigma, k_cap) -> RecoveryResult:
    """Sparsest explanation of f within residual tolerance sigma.

    Supports are enumerated by increasing cardinality, lexicographic
    within each; the first feasible one wins. The residual of a candidate
    support T is computed exactly in coefficient space through the Schur
    complement: ||f||^2 - b* G_T^{-1} b + rho^2 with b = G_{T,W} coeffs.
    """
    sigma = finite_norm(sigma, "sigma")
    k_cap = as_count(k_cap, "k_cap")
    window = f.window
    nw = len(window)
    if k_cap > nw:
        raise DomainError("k_cap cannot exceed the window size")
    if nw > DEFAULT_WINDOW_CAP:
        raise DomainError(
            f"window size {nw} exceeds the enumeration cap {DEFAULT_WINDOW_CAP}"
        )
    bits = params.bits
    G = build_gram(params, window)
    with workprec(bits):
        base = gram_quadform(G, f.coeffs, bits=bits)
        fnorm2 = base + f.rho * f.rho
        norm = norm_from_quadform(f, base, bits)
        guard = mpf(2) ** (-bits // 2) * (1 + fnorm2)
        target = sigma * sigma + guard
        b_window = [mp.fdot(row, f.coeffs) for row in G]  # G_W coeffs
        frac = bits + FIXED_GUARD  # proj is ||z||^2 at scale 2^(2 frac)
        need = -to_fixed(mpf_neg((fnorm2 - target)._mpf_), 2 * frac)  # least feasible proj
        examined = 0
        for s in range(0, k_cap + 1):
            for idx, L, z, proj in _factored_supports(G, b_window, s, bits):
                examined += 1
                if proj < need:
                    continue
                if s == 0:
                    residual = mp.sqrt(fnorm2) if fnorm2 > 0 else mpf(0)
                    return RecoveryResult(None, None, 0, residual, examined, norm)
                x = [mpc(mpf((re, -frac)), mpf((im, -frac)))
                     for re, im in zip(*(back_substitute(L, part, frac) for part in zip(*z)))]
                # report ||f||^2 - Re b* x from the coefficients the estimate
                # carries, not the running ||z||^2 that decided feasibility
                b = [b_window[i] for i in idx]
                resid2 = fnorm2 - sum((mp.conj(bi) * xi).real for bi, xi in zip(b, x))
                residual = mp.sqrt(resid2) if resid2 > 0 else mpf(0)
                T = SupportSet(tuple(window.offsets[i] for i in idx))
                est = CoefficientVector(support=T, values=tuple(x))
                return RecoveryResult(est, T, s, residual, examined, norm)
    if f.rho > sigma:
        raise InfeasibleError(
            f"rho = {f.rho} exceeds sigma = {sigma}: no support can explain f"
        )
    raise InfeasibleError(
        f"no support of size <= {k_cap} reaches residual {sigma} "
        f"({examined} supports examined)"
    )


def _factored_supports(G, b, s, bits):
    """(idx, L, z, proj) for every s-subset idx of range(len(G)), in
    itertools.combinations order, in fixed point at scale 2^F, F = bits +
    FIXED_GUARD, for a Gram matrix G (hp.fixed_matrix scales nothing): L is
    the Cholesky factor of G over idx, z the (re, im) pairs with L z =
    b[idx], and proj = ||z||^2 = b* G_idx^-1 b at scale 2^(2F).

    Consecutive subsets share prefixes, so each prefix is factored once and
    a subset costs one bordered row of L, built by hp.cholesky_row as every
    row of hp_cholesky is, and one forward-substitution step for z. L and
    z are the walk's own lists, valid only until the next item is drawn.
    """
    A = fixed_matrix(G, bits)
    F, n = A.frac, len(G)
    b = [(to_fixed(t.real._mpf_, F), to_fixed(t.imag._mpf_, F)) for t in map(mpc, b)]
    idx, L, z, projs = [], [], [], [0]

    def walk(start):
        depth = len(idx)
        if depth == s:
            yield tuple(idx), L, z, projs[-1]
            return
        for j in range(start, n - s + depth + 1):
            row = cholesky_row(L, [A.rows[j][p] for p in idx], A.rows[j][j], F)
            zj = tuple(((t << F) - sum(r * p[k] for r, p in zip(row, z))) // row[depth]
                       for k, t in enumerate(b[j]))
            idx.append(j)
            L.append(row)
            z.append(zj)
            projs.append(projs[-1] + zj[0] * zj[0] + zj[1] * zj[1])
            yield from walk(j + 1)
            idx.pop()
            L.pop()
            z.pop()
            projs.pop()

    return walk(0)


@dataclass(frozen=True)
class AdversarialPair:
    """Two k-sparse vectors that the data cannot tell apart at noise sigma.

    Built from the least singular vector v over the worst support of size
    2k: x1 carries the k largest-magnitude entries, -x0 the rest, both
    rescaled by sigma/eps_2k, so ||x0 - x1|| = sigma/eps_2k while
    ||A (x0 - x1)|| <= sigma.
    """

    x0: CoefficientVector
    x1: CoefficientVector
    T_star: SupportSet
    eps2k: mpf
    sigma: mpf
    threshold_tie: bool


def adversarial_pair(params: SystemParams, k, sigma, mode=CONTIGUOUS,
                     span_max=None, strict_ties=False) -> AdversarialPair:
    """Construct the indistinguishable pair realizing the minimax lower bound.

    A tie between the k-th and (k+1)-th magnitudes of the least singular
    vector makes the split ambiguous; it is broken toward lower indices
    and flagged (or raised when strict_ties is set).
    """
    k = as_count(k, "k", 1)
    sigma = finite_norm(sigma, "sigma", positive=True)
    bits = params.bits
    eps_res = epsilon(params, 2 * k, mode=mode, span_max=span_max)
    T = eps_res.attaining_support
    eig = eps_res.eig
    # like every precision here, the doubled ones stop at MAX_BITS
    quad_bits = min(2 * bits, MAX_BITS)
    with workprec(min(max(bits, 2 * eig.bits_used), MAX_BITS)):
        # the ladder's vector is good to its level, bits_used; renormalized
        # here, with eps2k its Rayleigh quotient at 2 bits, the pair meets
        # ||x0 - x1|| = sigma/eps2k and ||A (x0 - x1)|| = sigma to working
        # precision whatever that level was
        norm = mp.sqrt(mp.fdot(eig.vector, eig.vector))
        v = tuple(x / norm for x in eig.vector)
        G = build_gram(params, T, bits=quad_bits)
        eps2k = mp.sqrt(gram_quadform(G, v, bits=quad_bits))
        # magnitudes within 2^-(bits_used/2) of the k-th largest are tied,
        # and the lower indices among them go to x1, whatever the rounding
        # says
        tol = mpf(2) ** (-eig.bits_used // 2)
        mags = [abs(x) for x in v]
        kth = sorted(mags, reverse=True)[k - 1]
        above = [i for i in range(2 * k) if mags[i] > kth + tol]
        tied = [i for i in range(2 * k) if abs(mags[i] - kth) <= tol]
        tie = len(above) + len(tied) > k
        if tie and strict_ties:
            raise ThresholdTieError(
                "k-th and (k+1)-th magnitudes of the least singular vector "
                "agree to working precision"
            )
        scale = sigma / eps2k
        top = sorted(above + tied[:k - len(above)])
        rest = [i for i in range(2 * k) if i not in top]
        x1 = CoefficientVector(
            support=SupportSet(tuple(T.offsets[i] for i in top)),
            values=tuple(scale * v[i] for i in top),
        )
        x0 = CoefficientVector(
            support=SupportSet(tuple(T.offsets[i] for i in rest)),
            values=tuple(-scale * v[i] for i in rest),
        )
        # postconditions, recomputed before returning
        diff = [a - b for a, b in zip(x0.embed(T), x1.embed(T))]
        gap = mp.sqrt(sum((d * mp.conj(d)).real for d in diff))
        if abs(gap - scale) > mpf(2) ** (-bits // 3) * scale:
            raise PrecisionError("||x0 - x1|| drifted from sigma/eps_2k")
        image = mp.sqrt(gram_quadform(G, diff, bits=quad_bits))
        if image > sigma * (1 + mpf(2) ** (-bits // 3)):
            raise PrecisionError("||A (x0 - x1)|| exceeded sigma")
    return AdversarialPair(x0=x0, x1=x1, T_star=T, eps2k=eps2k, sigma=sigma,
                           threshold_tie=bool(tie))


@dataclass(frozen=True)
class MinimaxReport:
    """All four numbers of the sandwich, with their two checks."""

    pair: AdversarialPair
    recovery: RecoveryResult
    err_x0: mpf
    err_x1: mpf
    upper_bound: mpf
    lower_bound: mpf
    checks: tuple


def minimax_experiment(params: SystemParams, k, sigma, mode=CONTIGUOUS,
                       span_max=None) -> MinimaxReport:
    """Run the estimator on adversarial data and verify both sandwich sides.

    Upper side: ||xhat - x0|| <= 2 sigma / eps_2k (any (P0) minimizer).
    Lower side: max(||xhat - x0||, ||xhat - x1||) >= sigma / (2 eps_2k).
    """
    sigma = finite_norm(sigma, "sigma", positive=True)
    pair = adversarial_pair(params, k, sigma, mode=mode, span_max=span_max)
    f = synthesize(params, pair.x0, pair.T_star)
    rec = l0_solve(params, f, sigma, k_cap=k)
    with workprec(2 * params.bits):
        est = rec.estimate.embed(pair.T_star) if rec.estimate is not None \
            else tuple(mpc(0) for _ in pair.T_star)
        e0 = [a - b for a, b in zip(est, pair.x0.embed(pair.T_star))]
        e1 = [a - b for a, b in zip(est, pair.x1.embed(pair.T_star))]
        err0 = mp.sqrt(sum((d * mp.conj(d)).real for d in e0))
        err1 = mp.sqrt(sum((d * mp.conj(d)).real for d in e1))
        upper = 2 * sigma / pair.eps2k
        lower = sigma / (2 * pair.eps2k)
    checks = (
        bound_check("l0_error_within_upper", err0, upper),
        bound_check("adversarial_error_above_lower", lower, max(err0, err1)),
    )
    return MinimaxReport(pair=pair, recovery=rec, err_x0=err0, err_x1=err1,
                         upper_bound=upper, lower_bound=lower, checks=checks)


@dataclass(frozen=True)
class ScalingResult:
    """Log-log fit of eps_2k against SRF, and its check that the slope is
    within SCALING_TOLERANCE of expected_slope = -(2k-1)."""

    k: int
    slope: mpf
    intercept: mpf
    expected_slope: int
    table: tuple  # (srf, y, eps_2k)
    checks: tuple


def srf_scaling(k, srf_grid, bits=None) -> ScalingResult:
    """Fit log eps_2k = intercept + slope * log SRF over the grid, at
    ``bits``, or hp.default_bits when None."""
    k = as_count(k, "k", 1)
    bits = resolve_bits(bits)
    grid = parse_grid(srf_grid, bits, "SRF")
    if any(not s > 2 for s in grid):
        raise DomainError("every SRF must exceed 2")
    rows = []
    for srf in grid:
        params = SystemParams.from_srf(srf, bits=bits)
        val = epsilon(params, 2 * k, mode=CONTIGUOUS).value
        rows.append((srf, params.y, val))
    slope, intercept = loglog_fit([r[0] for r in rows], [r[2] for r in rows], bits)
    expected = -(2 * k - 1)
    with workprec(bits):
        check = bound_check("slope_matches_sparsity_exponent", abs(slope - expected),
                            mpf(SCALING_TOLERANCE))
    return ScalingResult(k=k, slope=slope, intercept=intercept, expected_slope=expected,
                         table=tuple(rows), checks=(check,))
