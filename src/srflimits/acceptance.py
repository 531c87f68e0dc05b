"""Acceptance suite: every exit criterion of the toolkit, one function each.

Each criterion returns (passed, detail): a pass flag and a short
human-readable detail line. ``run`` turns one criterion into a
CriterionOutcome named after its function and timed around the call, and
``run_all`` runs every criterion in order; the CLI ``selftest`` subcommand
and the pytest acceptance module both call into this module so that CI
and the command line agree by construction.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpc, mpf, workprec

from .core import (
    CoefficientVector,
    SupportSet,
    SystemParams,
    build_gram,
    gram_entry,
    gram_quadform,
    gram_radius,
    synthesize,
)
from .errors import NotPositiveDefiniteError, PrecisionError
from .hp import cholesky_solve, hp_cholesky, min_eig
from .recovery import l0_solve, minimax_experiment, srf_scaling
from .spectral import contiguity_scan, smally_exponent, verify_srf_bounds
from .szego import (
    Phi_map,
    arc_inner_product,
    arc_rule,
    bound_suite,
    faber_arc_max,
    leading_coeffs,
    phi_map,
    szego_reproduce,
)


@dataclass(frozen=True)
class CriterionOutcome:
    name: str
    passed: bool
    detail: str
    seconds: float


def run(criterion) -> CriterionOutcome:
    """Run one criterion; the outcome is named after its function and
    timed by one clock around the call."""
    t0 = time.perf_counter()
    passed, detail = criterion()
    return CriterionOutcome(criterion.__name__, bool(passed), detail,
                            time.perf_counter() - t0)


THM10_Y_GRID = ("0.05", "0.1", "0.25", "0.4")


def criterion_1_kn_bracket() -> tuple[bool, str]:
    """Two-sided bracket on k_n^{-2} with positive slack, n <= 12, 512 bits."""
    min_slack = None
    for ys in THM10_Y_GRID:
        params = SystemParams.from_y(ys, bits=512)
        for chk in leading_coeffs(params, 12).thm10_checks(params):
            rel = chk.slack / abs(chk.rhs)
            if min_slack is None or rel < min_slack:
                min_slack = rel
            if not chk.slack > 0:
                return False, f"nonpositive slack in {chk.name} at y={ys}"
    return (True, f"bracket holds for 4 y-values, n<=12; min relative slack "
            f"{mp.nstr(min_slack, 3)}")


def criterion_2_upper_chain() -> tuple[bool, str]:
    """sigma_min(A_{0..n}) <= k_n^{-1} <= 4 c^n on the same grid, n = 1..12,
    as verify_srf_bounds checks it (criterion 1 covers n = 0: k_0 = 1)."""
    worst = None
    for ys in THM10_Y_GRID:
        params = SystemParams.from_y(ys, bits=512)
        for chk in verify_srf_bounds(params, 12).checks:
            if not chk.satisfied:
                return (False, f"chain broken at y={ys}: {chk.name} "
                        f"{mp.nstr(chk.lhs, 8)} > {mp.nstr(chk.rhs, 8)}")
            if chk.name.startswith("eps_le_kn_inv"):
                with workprec(512):
                    gap = chk.slack / chk.rhs
                worst = gap if worst is None else min(worst, gap)
    return (True, f"chain exact on grid; tightest relative gap "
            f"{mp.nstr(worst, 3)}")


def criterion_3_lower_ratio_stable() -> tuple[bool, str]:
    """min over n <= 10, y <= 0.3 of eps_{n+1}/(c/4)^n: positive and stable
    to 1e-6 relative between 512 and 1024 bits."""
    mins = []
    for bits in (512, 1024):
        min_ratio = None
        for ys in ("0.05", "0.1", "0.2", "0.3"):
            params = SystemParams.from_y(ys, bits=bits)
            for n in range(1, 11):
                G = build_gram(params, SupportSet(tuple(range(n + 1))), bits=bits)
                try:
                    # cold on purpose: the two precisions must stay independent
                    lam = min_eig(G, bits=bits)[0]
                except NotPositiveDefiniteError:
                    return False, f"lambda_min <= 0 at y={ys} n={n} bits={bits}"
                with workprec(bits):
                    ratio = mp.sqrt(lam) / (params.c / 4) ** n
                if min_ratio is None or ratio < min_ratio:
                    min_ratio = ratio
        mins.append(min_ratio)
    with workprec(160):
        drift = abs(mins[0] - mins[1]) / mins[1]
    passed = mins[1] > 0 and drift <= mpf("1e-6")
    return (passed, f"min ratio {mp.nstr(mins[1], 10)}, drift across precisions "
            f"{mp.nstr(drift, 3)}")


def criterion_4_contiguity() -> tuple[bool, str]:
    """Exhaustive scan at y = 0.05, sizes 2-4, span 10: contiguous wins."""
    params = SystemParams.from_y("0.05")
    total = 0
    for size in (2, 3, 4):
        res = contiguity_scan(params, size, 10)
        total += res.supports_checked
        if not res.holds:
            return False, f"contiguous support not the strict minimizer at size {size}"
        if res.monotonicity_violations:
            return (False, f"{len(res.monotonicity_violations)} monotonicity "
                    f"violations at size {size}")
    return (True, f"contiguous strictly minimal and gap-monotone over "
            f"{total} supports")


def criterion_5_srf_scaling() -> tuple[bool, str]:
    """srf_scaling's check for k = 1..3: the slope of log eps_2k vs log SRF
    equals -(2k-1) within recovery.SCALING_TOLERANCE."""
    details = []
    for k in (1, 2, 3):
        res = srf_scaling(k, ("8", "12", "16", "24", "32"))
        check, = res.checks
        details.append(f"k={k}: {mp.nstr(res.slope, 6)}")
        if not check.satisfied:
            return (False, f"slope {mp.nstr(res.slope, 6)} off target "
                    f"{res.expected_slope} by {mp.nstr(check.lhs, 3)}")
    return True, "; ".join(details)


def inertia_below(M, shift, bits):
    """Number of eigenvalues of M below ``shift``, by Sylvester's law of
    inertia: the pivots of the LDL^T factorization of M - shift I, without
    pivoting, at ``bits``, that are not positive. A zero pivot counts and
    is replaced by -2^-bits max|M_ij - shift delta_ij| (or -2^-bits for a
    zero matrix), which moves the eigenvalues by at most that much: an
    eigenvalue at the shift counts as below it. Plain mpf arithmetic,
    independent of the hp kernel that it checks."""
    n = len(M)
    with workprec(bits):
        A = [[M[i][j] - (shift if i == j else 0) for j in range(n)] for i in range(n)]
        tiny = mpf(2) ** -bits * (max(abs(x) for row in A for x in row) or 1)
        negative = 0
        for k in range(n):
            d = A[k][k]
            negative += d <= 0
            d = d or -tiny
            for i in range(k + 1, n):
                f = A[i][k] / d
                for j in range(k + 1, n):
                    A[i][j] -= f * A[k][j]
    return negative


def _lambda_min_bisect(M, bits):
    """The smallest eigenvalue of a positive definite M by bisection on
    [0, min_i M_ii], which holds it; each step asks inertia_below whether
    every pivot of M - mid I is positive. Stops at relative width 2^-bits,
    or after 2 * bits steps; raises PrecisionError when no step proved
    lambda_min positive."""
    with workprec(bits):
        lo, hi = mpf(0), min(M[i][i] for i in range(len(M)))
        for _ in range(2 * bits):
            if hi - lo <= mpf(2) ** -bits * hi:
                break
            mid = (lo + hi) / 2
            if inertia_below(M, mid, bits) == 0:
                lo = mid
            else:
                hi = mid
        if not lo > 0:
            raise PrecisionError("bisection found no positive lower bound on lambda_min")
        return (lo + hi) / 2


def criterion_6_minimax_sandwich() -> tuple[bool, str]:
    """Minimax sandwich for (k, y, sigma) in {(1, 0.2, 1e-4), (2, 0.2, 1e-6)},
    with the bounds recomputed independently from Gram data."""
    for k, sigma in ((1, mpf("1e-4")), (2, mpf("1e-6"))):
        params = SystemParams.from_y("0.2", bits=512)
        rep = minimax_experiment(params, k, sigma)
        if not all(c.satisfied for c in rep.checks):
            return False, f"in-pipeline check failed at k={k}"
        # independent recomputation: bisected eps_2k and direct error norms
        G = build_gram(params, rep.pair.T_star, bits=512)
        lam = _lambda_min_bisect(G, 512)
        with workprec(512):
            eps_indep = mp.sqrt(lam)
            agree = abs(eps_indep - rep.pair.eps2k) / eps_indep
            if agree > mpf(10) ** (-30):
                return False, f"eps_2k mismatch vs bisection: {mp.nstr(agree, 3)}"
            est = rep.recovery.estimate.embed(rep.pair.T_star)
            x0 = rep.pair.x0.embed(rep.pair.T_star)
            x1 = rep.pair.x1.embed(rep.pair.T_star)
            err0 = mp.sqrt(sum(((a - b) * mp.conj(a - b)).real
                               for a, b in zip(est, x0)))
            err1 = mp.sqrt(sum(((a - b) * mp.conj(a - b)).real
                               for a, b in zip(est, x1)))
            upper = 2 * sigma / eps_indep
            lower = sigma / (2 * eps_indep)
            diff = [a - b for a, b in zip(x0, x1)]
            image = mp.sqrt(gram_quadform(G, diff, bits=512))
            ok = (err0 <= upper and max(err0, err1) >= lower
                  and image <= sigma * (1 + mpf(10) ** (-50)))
        if not ok:
            return False, f"independent recomputation failed at k={k}"
    return (True, "both sandwich sides hold; eps_2k, error norms and "
            "||A(x0-x1)|| <= sigma re-derived from Gram data")


def criterion_7_reproducing() -> tuple[bool, str]:
    """Kernel quadrature reproduces Phi^{-n}, n <= 5, at 20 exterior points
    to relative 1e-8."""
    params = SystemParams.from_y("0.17")
    rng = np.random.default_rng(7)
    radii = rng.uniform(2.2, 6.0, 20)
    angles = rng.uniform(-np.pi, np.pi, 20)
    worst = mpf(0)
    with workprec(params.bits):
        points = [phi_map(params.c, mpf(float(r)) * mp.exp(mpc(0, 1) * mpf(float(a))))
                  for r, a in zip(radii, angles)]
        for z in points:  # degrees inside: the six share the point's kernel ratios
            W = Phi_map(params.c, z, params.bits)
            for n in range(0, 6):
                val = szego_reproduce(params, n, z)
                ref = W ** (-n)
                err = abs(val - ref) / abs(ref)
                worst = max(worst, err)
                if err > mpf("1e-8"):
                    return False, f"relative error {mp.nstr(err, 3)} at n={n}"
    return True, f"120 reproductions; worst relative error {mp.nstr(worst, 3)}"


def criterion_8_faber_rotation_bound() -> tuple[bool, str]:
    """Sampled max of |Faber_n| on the arc (1e4 points) <= 2(1+2y)."""
    worst = None
    for ys in ("0.1", "0.3"):
        params = SystemParams.from_y(ys)
        with workprec(params.bits):
            bound = 2 * (1 + 2 * params.y)
        for n, peak in enumerate(faber_arc_max(params, 10)):
            margin = (bound - peak) / bound
            if worst is None or margin < worst:
                worst = margin
            if not peak <= bound:
                return (False, f"max |Faber_{n}| = {mp.nstr(peak, 8)} exceeds "
                        f"{mp.nstr(bound, 8)} at y={ys}")
    return (True, f"22 polynomials within the rotation bound; smallest "
            f"relative margin {mp.nstr(worst, 3)}")


def criterion_9_growth_bounds() -> tuple[bool, str]:
    """100 random arc-unit polynomials per (n <= 6, y in {0.1, 0.3}):
    zero violations of the exterior and banana-region growth bounds."""
    checked = 0
    for seed, ys in ((101, "0.1"), (103, "0.3")):
        params = SystemParams.from_y(ys)
        suite = bound_suite(params, 6, samples=200, seed=seed, polys=100)
        growth = [c for c in suite.checks
                  if c.name.startswith(("growth_", "phi_prime_envelope"))]
        checked += len(growth)
        bad = [c.name for c in growth if not c.satisfied]
        if bad:
            return False, f"violations at y={ys}: {bad}"
    return True, f"{checked} aggregated growth checks, zero violations"


def criterion_10_smally_exponent() -> tuple[bool, str]:
    """Fitted decay exponent equals 2n +- 0.05 for n = 1..3, and the fitted
    constant is within 1% of the closed-form limit smally_limit (pi^2/6 for
    n = 1)."""
    grid = ("0.001", "0.002", "0.003", "0.004", "0.006", "0.008")
    details = []
    for n in (1, 2, 3):
        res = smally_exponent(SupportSet(tuple(range(n + 1))), grid)
        dev = abs(res.alpha - 2 * n)
        with workprec(256):
            rel = abs(res.mu - res.limit) / res.limit
        details.append(f"n={n}: alpha={mp.nstr(res.alpha, 7)}, mu off the limit "
                       f"by {mp.nstr(rel, 3)}")
        if not dev <= mpf("0.05"):
            return False, f"alpha={mp.nstr(res.alpha, 7)} not within 0.05 of {2 * n}"
        if not rel <= mpf("0.01"):
            return (False, f"mu={mp.nstr(res.mu, 8)} off the limit "
                    f"{mp.nstr(res.limit, 8)} by {mp.nstr(rel, 3)}")
    return True, "; ".join(details)


def _l0_reference(params, f, sigma):
    """All-subsets direct-residual search: the independence oracle for l0_solve."""
    W, bits = f.window, params.bits
    nw = len(W)
    G = build_gram(params, W)
    with workprec(bits):
        fnorm2 = gram_quadform(G, f.coeffs, bits=bits) + f.rho ** 2
        guard = mpf(2) ** (-bits // 2) * (1 + fnorm2)
        best = None  # (sparsity, support, residual)
        for s in range(0, nw + 1):
            for idx in itertools.combinations(range(nw), s):
                if s == 0:
                    resid2 = fnorm2
                else:
                    sub = [[G[i][j] for j in idx] for i in idx]
                    b = []
                    for i in idx:
                        b.append(sum(G[i][j] * f.coeffs[j] for j in range(nw)))
                    L = hp_cholesky(sub, bits=bits)
                    x = cholesky_solve(L, b, bits=bits)
                    # residual evaluated directly as ||f - A x|| in window space
                    diff = list(f.coeffs)
                    for pos, i in enumerate(idx):
                        diff[i] -= x[pos]
                    # f - Ax has window coefficients coeffs - embed(x)
                    resid2 = gram_quadform(G, diff, bits=bits) + f.rho ** 2
                if resid2 <= sigma * sigma + guard:
                    best = (s, idx)
                    return best
        return best


def criterion_11_oracle_equivalence() -> tuple[bool, str]:
    """Closed forms against their independent oracles:
    gram_entry vs quadrature (within the quadrature's proven error plus
    gram_entry's own rounding error), l0_solve vs all-subsets direct
    residual search, Cholesky k_n vs classical Gram-Schmidt (n <= 6)."""
    rng = np.random.default_rng(11)

    # (i) gram_entry vs quadrature of the defining integral
    params = SystemParams.from_y("0.1", bits=128)
    for m in sorted(set(int(v) for v in rng.integers(-20, 21, 12))):
        f = [mpf(0)] * (abs(m) + 1)
        f[abs(m)] = mpf(1)
        quad = arc_inner_product(f, [mpf(1)], params)
        _, err = arc_rule(f, [mpf(1)], params)
        radius = gram_radius(params, SupportSet.of(0, abs(m))) if m else 0
        with workprec(256):
            off = abs(quad - gram_entry(params, m))
            bound = err + radius
        if off > bound:
            return False, (f"gram_entry vs quadrature off by {mp.nstr(off, 3)} at m={m}, "
                           f"beyond the proven {mp.nstr(bound, 3)}")

    # (ii) l0_solve vs exhaustive direct-residual search
    params = SystemParams.from_y("0.22")
    window = SupportSet(tuple(range(8)))
    for trial in range(4):
        support_idx = sorted(rng.choice(8, size=2, replace=False))
        x_true = CoefficientVector(
            support=SupportSet(tuple(window.offsets[i] for i in support_idx)),
            values=tuple(mpc(float(rng.standard_normal()), float(rng.standard_normal()))
                         for _ in support_idx),
        )
        f = synthesize(params, x_true, window)
        sigma = mpf("1e-12")
        res = l0_solve(params, f, sigma, k_cap=8)
        ref = _l0_reference(params, f, sigma)
        ref_support = tuple(window.offsets[i] for i in ref[1])
        if res.sparsity != ref[0] or res.support.offsets != ref_support:
            return False, f"l0 mismatch on trial {trial}: {res.support} vs {ref_support}"

    # (iii) Cholesky k_n vs classical Gram-Schmidt on monomial inner products
    params = SystemParams.from_y("0.15")
    table = leading_coeffs(params, 6)
    with workprec(params.bits):
        basis = []  # orthonormal polynomials as coefficient lists
        def ip(a, b):
            return sum(a[i] * gram_entry(params, j - i) * b[j]
                       for i in range(len(a)) for j in range(len(b)))
        for n in range(7):
            mono = [mpf(0)] * (n + 1)
            mono[n] = mpf(1)
            resid = list(mono)
            for q in basis:
                coef = ip([x for x in q] + [mpf(0)] * (n + 1 - len(q)), mono)
                for i in range(len(q)):
                    resid[i] -= coef * q[i]
            norm = mp.sqrt(ip(resid, resid))
            kn_gs = 1 / norm
            rel = abs(kn_gs - table.k_values[n]) / table.k_values[n]
            if rel > mpf(2) ** (-params.bits // 4):
                return False, f"k_{n} Cholesky vs Gram-Schmidt differ by {mp.nstr(rel, 3)}"
            basis.append([x / norm for x in resid])
    return True, "quadrature, direct-residual and Gram-Schmidt oracles agree"


ALL_CRITERIA = (
    criterion_1_kn_bracket,
    criterion_2_upper_chain,
    criterion_3_lower_ratio_stable,
    criterion_4_contiguity,
    criterion_5_srf_scaling,
    criterion_6_minimax_sandwich,
    criterion_7_reproducing,
    criterion_8_faber_rotation_bound,
    criterion_9_growth_bounds,
    criterion_10_smally_exponent,
    criterion_11_oracle_equivalence,
)


def run_all():
    return [run(fn) for fn in ALL_CRITERIA]
