"""Restricted isometry constants, eps-spark, contiguity scans, and the
small-bandwidth behavior of the smallest Gram eigenvalue.

The minimum over all supports of a given size is not computable on an
infinite grid, so every result is labeled with its mode: 'contiguous'
invokes the contiguous-minimizer property, 'exhaustive' enumerates all
canonical supports (tau_0 = 0) up to a stated span and is exact within it.
Every scan refuses more than DEFAULT_ENUMERATION_BUDGET supports up front.
Both kinds of scan evaluate one support of each reflection pair, which
shares its spectrum with the other. The exhaustive eps_k scan runs the
precision ladder only on supports that one shifted Cholesky cannot rule
out; contiguity scans evaluate them all.

On a contiguous support, the case of every contiguous-mode eps_k, of
verify_srf_bounds and of the first support of every exhaustive scan, the
Gram matrix commutes with Slepian's tridiagonal, whose least eigenvalue
lies at least 1 below the next. Its least eigenvector is refined in fixed
point, O(n) a step on Python integers, and the ladder certifies it with one
Cholesky a level (min_eig_for_support).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from mpmath import iv, mp, mpf, workprec

from .checks import BoundCheck, bound_check
from .core import (
    SupportSet,
    SystemParams,
    as_count,
    build_gram,
    finite_norm,
    gram_radius,
    parse_grid,
)
from .errors import (
    DomainError,
    EnumerationBudgetError,
    PrecisionError,
    SpanTooSmallError,
)
from .hp import (
    LADDER_START_BITS,
    Enclosure,
    MinEigResult,
    check_bits,
    factored_floor,
    iv_ends,
    iv_workprec,
    min_eig_adaptive,
    resolve_bits,
    tridiagonal_min_vector,
    vandermonde_lastrow,
)
from .szego import leading_coeffs

__all__ = [
    "BoundCheck",
    "EpsilonResult",
    "SparkResult",
    "SrfBoundsResult",
    "ContiguityResult",
    "SmallYResult",
    "sigma_min",
    "sigma_min_eig",
    "sigma_enclosure",
    "epsilon",
    "eps_spark",
    "verify_srf_bounds",
    "contiguity_scan",
    "smally_exponent",
    "smally_limit",
]

CONTIGUOUS = "contiguous"
EXHAUSTIVE = "exhaustive"
DEFAULT_ENUMERATION_BUDGET = 10 ** 6
# the exhaustive prune factors G - lam_best (1 + CONFIRM_MARGIN) I
CONFIRM_MARGIN = mpf(2) ** -20


def min_eig_for_support(params: SystemParams, T) -> MinEigResult:
    """Precision-ladder smallest eigenvalue of the Gram matrix over T, with
    a proven enclosure for the Gram matrix of the stored params.y.

    On a contiguous support each level hands the ladder the least
    eigenvector of Slepian's tridiagonal (_slepian_vector), which
    hp.min_eig_adaptive certifies with one Cholesky; a gapped support, or
    a level where that Cholesky fails, runs the general kernel.
    """
    T = SupportSet.coerce(T)
    contiguous = T.span == len(T) - 1
    return min_eig_adaptive(
        lambda bits: (build_gram(params, T, bits=bits), gram_radius(params, T, bits),
                      _slepian_vector(params, len(T), bits) if contiguous else None))


def _slepian_tridiagonal(params: SystemParams, n, bits):
    """(diagonal, off-diagonal) at ``bits`` of Slepian's tridiagonal T for
    n contiguous atoms, 0-indexed: T_ii = ((n-1)/2 - i)^2 cos(pi y) and
    T_i,i+1 = (i+1)(n-1-i)/2.

    T commutes with the Gram matrix of n contiguous atoms (the prolate
    matrix with W = y/2; Slepian, BSTJ 57(5), 1978; Grunbaum 1981). Its
    eigenvalues are simple, its two smallest at least 1 apart wherever
    measured (n <= 129), and its least eigenvector, so well conditioned,
    is the Gram matrix's lambda_min eigenvector however small lambda_min
    is.
    """
    with workprec(bits):
        c = mp.cos(mp.pi * params.y)
        half = mpf(n - 1) / 2
        return ([(half - i) ** 2 * c for i in range(n)],
                [mpf((i + 1) * (n - 1 - i)) / 2 for i in range(n - 1)])


def _slepian_vector(params: SystemParams, n, bits):
    """The least eigenvector of _slepian_tridiagonal at ``bits``: the
    candidate the ladder certifies on a contiguous support."""
    return tridiagonal_min_vector(*_slepian_tridiagonal(params, n, bits), bits)


def sigma_min_eig(params: SystemParams, T):
    """(sigma_min, ladder result) over T; a single atom has no ladder result."""
    T = SupportSet.coerce(T)
    if len(T) == 1:
        return mpf(1), None
    eig = min_eig_for_support(params, T)
    with workprec(2 * eig.bits_used):
        return mp.sqrt(eig.value), eig


def sigma_min(params: SystemParams, T) -> mpf:
    """Least singular value of the atom matrix over T: sqrt(lambda_min(G))."""
    return sigma_min_eig(params, T)[0]


def sigma_enclosure(eig: MinEigResult | None) -> Enclosure:
    """Enclosure (lo, hi) of sigma_min: the square roots of the ladder
    result's enclosure, rounded outward; (1, 1) for a single atom (None)."""
    if eig is None:
        return Enclosure(mpf(1), mpf(1))
    with iv_workprec(eig.bits_used):
        return iv_ends(iv.sqrt(iv.mpf([max(eig.lo, 0), eig.hi])))


@dataclass(frozen=True)
class EpsilonResult:
    """Lower restricted isometry constant at sparsity k, with provenance.

    ``eig`` is the ladder result over the attaining support; it is None at
    k = 1, where sigma_min is 1 without an eigenproblem.
    """

    k: int
    value: mpf
    attaining_support: SupportSet
    mode: str
    span_searched: int | None
    eig: MinEigResult | None


def canonical_supports(k, span_max):
    """All supports tau_0 = 0 < ... < tau_{k-1} <= span_max, lexicographic."""
    for rest in itertools.combinations(range(1, span_max + 1), k - 1):
        yield SupportSet((0,) + rest)


def _mirror(offsets) -> tuple:
    """The offsets of the canonical support of a canonical support's
    reflection, whose Gram spectrum is the support's own."""
    return tuple(offsets[-1] - t for t in reversed(offsets))


def reflection_representatives(k, span_max):
    """The canonical supports of size k within span_max, in lexicographic
    order, that are lexicographically no later than their reflection: one
    support from each reflection pair."""
    for T in canonical_supports(k, span_max):
        if T.offsets <= _mirror(T.offsets):
            yield T


def _span(span_max, k):
    """span_max as a count, refused when None, below k - 1 (no size-k
    canonical support fits) or over DEFAULT_ENUMERATION_BUDGET supports."""
    if span_max is None:
        raise SpanTooSmallError("an exhaustive scan requires span_max, and none was given")
    span = as_count(span_max, "span_max")
    if span < k - 1:
        raise SpanTooSmallError(f"an exhaustive scan of size {k} requires span_max >= {k - 1}")
    count = comb(span, k - 1)
    if count > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{count} supports exceed the enumeration budget {DEFAULT_ENUMERATION_BUDGET}"
        )
    return span


def epsilon(params: SystemParams, k, mode=CONTIGUOUS, span_max=None) -> EpsilonResult:
    """eps_k = min over size-k supports of sigma_min(A_T).

    Contiguous mode evaluates the single support {0..k-1}; exhaustive mode
    scans every canonical support within span_max (ties broken toward the
    lexicographically smallest support), refusing more than
    DEFAULT_ENUMERATION_BUDGET of them. A support and its reflection have
    the same spectrum, so the later of a pair can only tie and is skipped.
    """
    k = as_count(k, "sparsity level k", 1)
    if mode == CONTIGUOUS:
        T = SupportSet(tuple(range(k)))
        value, eig = sigma_min_eig(params, T)
        return EpsilonResult(k=k, value=value, attaining_support=T, mode=CONTIGUOUS,
                             span_searched=None, eig=eig)
    if mode != EXHAUSTIVE:
        raise DomainError(f"unknown mode {mode!r}")
    span_max = _span(span_max, k)
    value, T, eig = _least(params, reflection_representatives(k, span_max))
    return EpsilonResult(k=k, value=value, attaining_support=T, mode=EXHAUSTIVE,
                         span_searched=span_max, eig=eig)


def _cannot_win(params, T, lam_best, bits):
    """True when the Gram matrix over T provably has no eigenvalue at or
    below lam_best: the factored_floor of G at the shift lam_best (1 +
    CONFIRM_MARGIN), less gram_radius, exists and exceeds lam_best.
    False means only that this one Cholesky proves nothing, and the support
    is evaluated in full."""
    G = build_gram(params, T, bits=bits)
    with workprec(bits):
        s = lam_best * (1 + CONFIRM_MARGIN)
    floor = factored_floor(G, s, bits, gram_radius(params, T, bits))
    return floor is not None and floor > lam_best


def _least(params, supports):
    """(sigma_min, support, ladder result) of the first support, in the
    order given, attaining the least sigma_min.

    A support that provably has no eigenvalue at or below the best
    lambda_min so far cannot win, not even a tie, and is skipped after one
    shifted Cholesky at LADDER_START_BITS; every other support climbs the
    full precision ladder, so the strict comparison below sees the same
    values as an unpruned scan.
    """
    best_val, best_T, best_eig = None, None, None
    for T in supports:
        if best_eig is not None and _cannot_win(
                params, T, best_eig.value, LADDER_START_BITS):
            continue
        val, eig = sigma_min_eig(params, T)
        if best_val is None or val < best_val:
            best_val, best_T, best_eig = val, T, eig
    return best_val, best_T, best_eig


@dataclass(frozen=True)
class SparkResult:
    """eps-spark: the largest s with eps_s >= threshold.

    ``saturated`` distinguishes 'the answer is exactly value' from 'every
    level up to k_max passed, the true spark is >= value'.
    """

    value: int
    saturated: bool
    threshold: mpf
    levels: tuple  # (k, eps_k, eig) per level computed; eig as in EpsilonResult


def eps_spark(params: SystemParams, eps, k_max, mode=CONTIGUOUS,
              span_max=None) -> SparkResult:
    """Largest s <= k_max such that every support of size <= s has
    sigma_min at least eps. Returns 0 when even single atoms fail."""
    eps = finite_norm(eps, "threshold eps", positive=True)
    k_max = as_count(k_max, "k_max", 1)
    levels = []
    for s in range(1, k_max + 1):
        res = epsilon(params, s, mode=mode, span_max=span_max)
        levels.append((s, res.value, res.eig))
        if res.value < eps:
            return SparkResult(value=s - 1, saturated=False, threshold=eps,
                               levels=tuple(levels))
    return SparkResult(value=k_max, saturated=True, threshold=eps,
                       levels=tuple(levels))


@dataclass(frozen=True)
class SrfBoundsResult:
    """Checks of the singular-value decay bounds, plus the measured
    lower-bound ratios (the constant in the lower bound is unspecified,
    so it is reported, never asserted)."""

    checks: tuple
    ratios: tuple  # (n, eps_{n+1} / (c/4)^n)
    min_lower_ratio: mpf


def verify_srf_bounds(params: SystemParams, n_max) -> SrfBoundsResult:
    """Certify eps_{n+1} <= k_n^{-1} <= 4 c^n for n = 1..n_max and record
    the ratio eps_{n+1} / (c/4)^n, with eps in contiguous mode."""
    n_max = as_count(n_max, "n_max", 1)
    table = leading_coeffs(params, n_max)
    checks = []
    ratios = []
    with workprec(params.bits):
        for n in range(1, n_max + 1):
            eps_n1 = epsilon(params, n + 1).value
            kn_inv = 1 / table.k_values[n]
            four_cn = 4 * params.c ** n
            checks.append(bound_check(f"eps_le_kn_inv[n={n}]", eps_n1, kn_inv))
            checks.append(bound_check(f"kn_inv_le_4cn[n={n}]", kn_inv, four_cn))
            r = eps_n1 / (params.c / 4) ** n
            ratios.append((n, r))
            checks.append(bound_check(f"lower_ratio_positive[n={n}]", 0, r))
    return SrfBoundsResult(checks=tuple(checks), ratios=tuple(ratios),
                           min_lower_ratio=min(r for _, r in ratios))


@dataclass(frozen=True)
class ContiguityResult:
    """Outcome of an exhaustive scan at fixed support size. ``checks``: the
    contiguous sigma_min against the least and, non-strictly, the runner-up
    (``holds`` needs a strict gap); the monotonicity violations against 0."""

    holds: bool
    table: tuple  # (SupportSet, sigma_min) sorted ascending by sigma_min
    monotonicity_violations: tuple
    supports_checked: int
    checks: tuple


def _monotonicity_violations(entries):
    """The pairs (tight, wide, v_tight, v_wide) of supports in ``entries``,
    (SupportSet, value) over every canonical support of one size within
    one span, where wide's gap vector is tight's plus one in a single
    coordinate and not v_wide > v_tight.

    Any pair whose gap vectors are componentwise ordered is a chain of
    such covering pairs inside the span, and > is transitive, so this is
    empty exactly when every dominating pair has the larger value: the
    all-pairs test at a cost linear in the supports times the size.
    """
    by_gaps = {tuple(b - a for a, b in zip(T.offsets, T.offsets[1:])): (T, val)
               for T, val in entries}
    violations = []
    for gaps, (tight, vt) in by_gaps.items():
        for i in range(len(gaps)):
            wider = by_gaps.get(gaps[:i] + (gaps[i] + 1,) + gaps[i + 1:])
            if wider is not None and not wider[1] > vt:
                violations.append((tight.offsets, wider[0].offsets, vt, wider[1]))
    return violations


def contiguity_scan(params: SystemParams, size, span_max) -> ContiguityResult:
    """Check that the contiguous support strictly minimizes sigma_min.

    Also verifies the stronger statement that sigma_min is monotone under
    componentwise domination of the pairwise offset differences
    (equivalently, of the consecutive gap vectors), through the covering
    pairs of _monotonicity_violations. sigma_min is evaluated
    once per reflection pair, and both supports of the pair carry that
    value, so ties within a pair are ordered by offsets.
    """
    size = as_count(size, "size", 2)
    span_max = _span(span_max, size)
    values = {T.offsets: sigma_min(params, T)
              for T in reflection_representatives(size, span_max)}
    entries = [(T, values[T.offsets] if T.offsets in values
                else values[_mirror(T.offsets)])
               for T in canonical_supports(size, span_max)]
    table = sorted(entries, key=lambda e: (e[1], e[0].offsets))
    contiguous = SupportSet(tuple(range(size)))
    contig_val = values[contiguous.offsets]
    runner_up = next((v for T, v in table if T != contiguous), contig_val)
    holds = len(table) == 1 or contig_val < runner_up
    violations = _monotonicity_violations(entries)
    checks = (
        bound_check("contiguous_attains_minimum", contig_val, table[0][1]),
        bound_check("contiguous_strictly_below_runner_up", contig_val, runner_up),
        bound_check("monotonicity_violations", len(violations), 0),
    )
    return ContiguityResult(holds=holds, table=tuple(table),
                            monotonicity_violations=tuple(violations),
                            supports_checked=len(entries), checks=checks)


def loglog_fit(xs, ys, bits):
    """Least-squares line log y = intercept + slope log x for a run at
    ``bits``, fitted at 2 * bits: the normal equations cancel, and the
    doubled bits keep the fit good to the run's. Returns (slope,
    intercept); the xs come from core.parse_grid, which refuses a grid of
    fewer than two distinct points.
    """
    with workprec(2 * bits):
        lx = [mp.log(x) for x in xs]
        ly = [mp.log(y) for y in ys]
        n = len(lx)
        sx, sl = sum(lx), sum(ly)
        sxx = sum(x * x for x in lx)
        sxl = sum(x * l for x, l in zip(lx, ly))
        slope = (n * sxl - sx * sl) / (n * sxx - sx * sx)
        return slope, (sl - slope * sx) / n


def smally_limit(T, bits) -> mpf:
    """C_T = lim_{y -> 0} lambda_min(G_T(y)) / y^(2n) for a support T of
    n + 1 atoms, rounded once at ``bits``:

        C_T = (2 pi)^(2n) / ((n!)^2 (2n+1) C(2n, n)^2 ||m||^2),

    m = hp.vandermonde_lastrow(T), the weights of the n-th divided
    difference on T. G_T(y) = A_y^* A_y with (A_y x)(xi) = sum_j x_j
    e^(2 pi i y t_j xi) on [-1/2, 1/2]. Expand the atoms in Taylor series:
    to leading order the least eigenvector is m / ||m||, which annihilates
    every moment of degree below n, and its O(y) corrections can add any
    polynomial of lower degree. What is left of ||A_y x||^2 is (2 pi y)^(2n)
    / ((n!)^2 ||m||^2) times the squared L^2[-1/2, 1/2] distance of xi^n
    from those polynomials, (n!)^4 / ((2n)!^2 (2n+1)), the squared norm of
    the scaled monic Legendre polynomial. So C_T = 1 for a single atom and
    pi^2/6 for {0, 1}, where lambda_min = 1 - sinc(pi y).
    """
    T, bits = SupportSet.coerce(T), check_bits(bits)
    n = len(T) - 1
    q = Fraction(1, factorial(n) ** 2 * (2 * n + 1) * comb(2 * n, n) ** 2) / sum(
        w * w for w in vandermonde_lastrow(T.offsets))
    with workprec(bits + 32):
        scale = (2 * mp.pi) ** (2 * n)
    return mp.fdiv(mp.fmul(scale, q.numerator, exact=True), q.denominator, prec=bits)


@dataclass(frozen=True)
class SmallYResult:
    """Least-squares fit of log lambda_min = log mu + alpha log y.

    Reported next to the exact order 2n and the closed-form constant
    ``limit`` = smally_limit(support); criterion 10 compares mu with it.
    """

    support: SupportSet
    alpha: mpf
    mu: mpf
    table: tuple  # (y, MinEigResult) per grid point, largest y first
    gram_order_alpha: int  # 2n for |T| = n+1
    limit: mpf


def smally_exponent(T, y_grid, bits=None) -> SmallYResult:
    """Fit the decay exponent of lambda_min(G_T(y)) on a small-y grid, at
    ``bits``, or hp.default_bits when None."""
    T = SupportSet.coerce(T)
    bits = resolve_bits(bits)
    ys = parse_grid(y_grid, bits, "y")
    with workprec(bits):
        if any(not 0 < v <= mpf("0.02") for v in ys):
            raise DomainError("y grid must lie in (0, 0.02]")
    rows = []
    for yv in sorted(ys, reverse=True):
        params = SystemParams.from_y(yv, bits=bits)
        res = min_eig_for_support(params, T)
        if res.value <= 0:
            raise PrecisionError(f"lambda_min underflowed the ladder at y = {yv}")
        rows.append((yv, res))
    alpha, log_mu = loglog_fit([yv for yv, _ in rows], [res.value for _, res in rows], bits)
    with workprec(2 * bits):
        mu = mp.exp(log_mu)
    return SmallYResult(support=T, alpha=alpha, mu=mu, table=tuple(rows),
                        gram_order_alpha=2 * (len(T) - 1), limit=smally_limit(T, bits))
