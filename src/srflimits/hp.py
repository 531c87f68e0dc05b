"""Adaptive arbitrary-precision dense linear algebra.

A matrix here is any sequence of row sequences of mpmath scalars, such as
the row tuples ``core.build_gram`` returns; nothing in this module mutates
one, it only indexes. Most have a few rows; contiguous ladders have been
run to 129. The pieces:

* ``cholesky_row``, the one row step of every Cholesky factor in the
  package: ``hp_cholesky`` and the bordered factors of the l0 solver.
  Each entry is an exact dot product on raw mpmath mantissas, rounded
  once, then one division or square root,
* Cholesky factorization with pivot diagnostics, and its solve,
* ``factored_floor``, the Cholesky of M - s I and what it proves when it
  factors: lambda_min(M) > s less its backward error (Higham, Sec. 10.1;
  Rump, BIT 46, 2006), and None when it does not. _certify's enclosure
  and the prune of the exhaustive eps_k scan both rest on it,
* ``_certify``, the one proof of a lambda_min enclosure: a candidate
  least eigenvector v of M, one Cholesky at the Krylov-Weinstein shift
  s = mu - ||M v - mu v|| less a rounding guard, factored_floor of s as
  the lower bound and the Rayleigh quotient mu of v, with its rounding,
  as the upper bound; a shift that is not positive runs no Cholesky and
  proves nothing,
* ``min_eig``: the smallest eigenpair of a positive definite matrix by
  Cholesky-based shifted inverse iteration, whose last vector _certify
  proves. It starts from the least eigenvector in double precision
  (``_float_start``, LAPACK's ``eigh``) and the shift below it, and
  from a graded alternating-sign vector with lo = 0 when floats cannot
  resolve lambda_min,
* ``tridiagonal_min_vector``: the least eigenvector of a symmetric
  tridiagonal matrix, from the binomial vector (-1)^j C(n-1, j) by O(n)
  shifted inverse-iteration steps in fixed point, on Python integers at
  scale 2^(bits + FIXED_GUARD), a candidate for _certify,
* a precision ladder that doubles the mantissa from LADDER_START_BITS and
  stops at the first level whose enclosure [lo, hi] of lambda_min, widened
  by the builder's bound on its own rounding, is narrower than
  LADDER_RELTOL lo. A level certifies the builder's candidate vector when
  it hands one over (spectral does, on contiguous supports), and runs
  min_eig's iteration otherwise or when that Cholesky fails. A level
  whose certifying shift is not positive cannot stop the ladder, and
  climbs without that Cholesky,
* ``vandermonde_lastrow``, the last row of the inverse Vandermonde matrix
  on integer nodes in closed form, exact rationals: the weights of the
  small-y limit of lambda_min (spectral.smally_limit).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, prod
from typing import NamedTuple

from mpmath import iv, mp, mpf, workprec
from mpmath.libmp import mpf_div, mpf_mul, mpf_neg, mpf_sqrt, mpf_sum, round_nearest, to_fixed

from .errors import (
    ConvergenceError,
    DomainError,
    NotPositiveDefiniteError,
    PrecisionCapError,
    SingularSystemError,
)

ENV_PRECISION = "SRF_PRECISION_BITS"
MIN_BITS = 64
MAX_BITS = 8192
DEFAULT_BITS = 256
LADDER_START_BITS = 128
LADDER_RELTOL = mpf("1e-6")
# min_eig gives up after this many inverse-iteration steps per bit
MIN_EIG_STEPS_PER_BIT = 4
# fixed-point work carries this many bits below a unit at ``bits``:
# tridiagonal_min_vector's refinement, and szego_reproduce's node sums, where
# degree m costs 2m of their units, 2^-14 of a unit at m = QUAD_NODE_CAP = 2^16
FIXED_GUARD = 32


def check_bits(bits, name="bits") -> int:
    """``bits``, an integral number or a string spelling one, as an int in
    [MIN_BITS, MAX_BITS]; anything else is a DomainError, never truncated."""
    try:
        value = int(bits)
    except (TypeError, ValueError, OverflowError):
        value = None
    if (value is None or (value != bits and not isinstance(bits, str))
            or not MIN_BITS <= value <= MAX_BITS):
        raise DomainError(f"{name} must be an integer in [{MIN_BITS}, {MAX_BITS}], "
                          f"got {bits!r}")
    return value


def default_bits() -> int:
    """Mantissa budget in bits: SRF_PRECISION_BITS if set, else DEFAULT_BITS."""
    raw = os.environ.get(ENV_PRECISION)
    return DEFAULT_BITS if raw is None else check_bits(raw, ENV_PRECISION)


def resolve_bits(bits, name="bits") -> int:
    """``bits`` checked by check_bits, or default_bits() when None."""
    return default_bits() if bits is None else check_bits(bits, name)


def _check_square(M):
    n = len(M)
    for row in M:
        if len(row) != n:
            raise DomainError("matrix must be square")
    return n


def cholesky_row(L, cross, diag):
    """Row d = len(L) of a Cholesky factor, at the ambient precision.

    ``L`` holds rows 0..d-1 of the factor (row i has at least i + 1
    entries), ``cross`` the matrix entries M[d][0..d-1] and ``diag`` M[d][d],
    all mpf. Returns the d + 1 entries l with l_i = (M[d][i] - sum_{k<i}
    l_k L[i][k]) / L[i][i] and l_d = sqrt(M[d][d] - sum_{k<d} l_k^2).

    Each numerator is one exact dot product: exact products on the raw
    mantissas, summed by mpf_sum and rounded once (it drops only partial
    sums more than 2 prec bits below the next term). Then one rounded
    division or square root. An entry thus carries fewer roundings than
    the textbook loop: for A stored at the working precision the computed
    factor meets Higham's |R^T R - A| <= gamma_(n+1) |R^T| |R| (Accuracy
    and Stability, Thm 10.3) with gamma_3 in place of gamma_(n+1), and
    gamma_2 for n = 1, where no sum is rounded. Raises DomainError when
    the pivot under the root is NaN or infinite (a non-finite entry) and
    NotPositiveDefiniteError(d) when it is not positive.
    """
    prec = mp.prec
    row, neg = [], []  # l_k and -l_k as raw mpf tuples
    for c, Li in zip(cross, L):
        s = mpf_sum([c._mpf_, *map(mpf_mul, neg, [x._mpf_ for x in Li[:len(row)]])],
                    prec, round_nearest)
        l = mpf_div(s, Li[len(row)]._mpf_, prec, round_nearest)
        row.append(l)
        neg.append(mpf_neg(l))
    pivot = mpf_sum([diag._mpf_, *map(mpf_mul, neg, row)], prec, round_nearest)
    sign, man, exp, _ = pivot
    if not man and exp:
        raise DomainError(f"matrix entry is not finite (pivot {len(row)} is "
                          f"{mp.make_mpf(pivot)})")
    if sign or not man:
        raise NotPositiveDefiniteError(len(row))
    row.append(mpf_sqrt(pivot, prec, round_nearest))
    return [mp.make_mpf(x) for x in row]


def hp_cholesky(M, bits):
    """Lower-triangular L with L L^T = M, computed at ``bits`` precision,
    as n lists of n entries (zeros above the diagonal).

    Raises NotPositiveDefiniteError with the first failing pivot index,
    which signals either a genuine singularity or insufficient precision.
    """
    n = _check_square(M)
    with workprec(bits):
        L = []
        for j, row in enumerate(M):
            L.append(cholesky_row(L, row[:j], row[j]))
    return [row + [mpf(0)] * (n - j - 1) for j, row in enumerate(L)]


def cholesky_solve(L, b, bits):
    """Solve (L L^T) x = b by forward/back substitution. b may be complex."""
    n = len(L)
    with workprec(bits):
        y = list(b)
        for i in range(n):
            s = y[i]
            for k in range(i):
                s -= L[i][k] * y[k]
            y[i] = s / L[i][i]
    return back_substitute(L, y, bits=bits)


def back_substitute(L, y, bits):
    """Solve L^T x = y (the second half of cholesky_solve)."""
    n = len(L)
    with workprec(bits):
        x = list(y)
        for i in range(n - 1, -1, -1):
            s = x[i]
            for k in range(i + 1, n):
                s -= L[k][i] * x[k]
            x[i] = s / L[i][i]
    return x


def _shifted(M, s):
    """M - s*I as a new matrix."""
    return [[x - s if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(M)]


@contextmanager
def iv_workprec(bits):
    """mpmath.iv at ``bits`` inside the block (iv has no workprec)."""
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


class Enclosure(NamedTuple):
    """A proven interval [lo, hi]; reports encode it rounded outward."""

    lo: mpf
    hi: mpf


def iv_ends(x) -> Enclosure:
    """(lower, upper) end of an mpmath.iv interval as exact mpf values;
    call it inside iv_workprec, whose precision the ends carry."""
    with workprec(iv.prec):
        return Enclosure(mpf(x.a), mpf(x.b))


@lru_cache(maxsize=256)
def _rounding_factors(n, bits):
    """Upper bounds, from mpmath.iv, on the constant factors of min_eig's
    enclosure for n rows at u = 2^-bits, with gamma_k = k u / (1 - k u):

    * (g / (1 - g) + u)(1 + 2u), g = gamma_(n+1): factored_floor's slack
      per unit of the trace, which fsum rounds once;
    * g (2 + g) n / (1 - g) and 1 + g, g = gamma_n: the Rayleigh ceiling's.
    """
    with iv_workprec(bits):
        u = iv.mpf(2) ** -bits
        g1 = (n + 1) * u / (1 - (n + 1) * u)
        g = n * u / (1 - n * u)
        factors = ((g1 / (1 - g1) + u) * (1 + 2 * u), g * (2 + g) * n / (1 - g), 1 + g)
        return tuple(iv_ends(f)[1] for f in factors)


def _factor(M, s, bits):
    """hp_cholesky of M - s I at ``bits``, or None when it does not factor."""
    with workprec(bits):
        try:
            return hp_cholesky(_shifted(M, s), bits=bits)
        except NotPositiveDefiniteError:
            return None


def factored_floor(M, s, bits, radius=0):
    """A proven lower bound on lambda_min(M + E) for every symmetric E with
    ||E||_2 <= ``radius`` when hp_cholesky of M - s I factors at ``bits``:
    s - (g / (1 - g) + u) tr(A) - radius, where A is M - s I as stored at
    ``bits``, u = 2^-bits and g = gamma_(n+1). None when it does not
    factor, which means only that this precision proves nothing.

    The computed factor R has R^T R = A + dA with |dA| <= g |R^T| |R|
    (Higham, Accuracy and Stability, Sec. 10.1, Thm 10.3); cholesky_row
    meets it with gamma_3 (gamma_2 when n = 1), at most g. Column i of R
    has squared norm at most a_ii / (1 - g), so ||dA||_2 <= g / (1 - g)
    tr(A), and R^T R is positive definite: lambda_min(A) > -||dA||_2
    (Rump, BIT 46, 2006).
    The rounding of the shift into A's diagonal adds at most u tr(A), and
    Weyl's inequality the radius. Every step rounds toward a lower bound.
    """
    n = len(M)
    if _factor(M, s, bits) is None:
        return None
    with workprec(bits):
        trace = mp.fsum(M[i][i] - s for i in range(n))
        slack = mp.fmul(_rounding_factors(n, bits)[0], trace, rounding="c")
        return mp.fsub(mp.fsub(s, slack, rounding="f"), radius, rounding="f")


def _rayleigh_ceiling(M, v, mu, bits, radius):
    """A proven upper bound on lambda_min(M + E), ||E||_2 <= ``radius``, from
    mu = v^T (M v) as min_eig computes it with fdot at ``bits``.

    The exact Rayleigh quotient q / w, q = v^T M v and w = v^T v, is at
    least lambda_min(M). Each n-term dot product rounds by at most
    g = gamma_n times its sum of magnitudes, so the computed w_c is within
    g w of w, and mu within g (2 + g) |v|^T |M| |v| <= g (2 + g) n
    max|M_ij| w of q. Hence q / w <= max(mu + c max|M_ij| w_c, 0) (1 + g)
    / w_c with c = g (2 + g) n / (1 - g). Every step rounds up.
    """
    n = len(M)
    _, c, one_plus_g = _rounding_factors(n, bits)
    with workprec(bits):
        w = mp.fdot(v, v)
        largest = max(abs(x) for row in M for x in row)
        q = mp.fadd(mu, mp.fmul(mp.fmul(c, largest, rounding="c"), w, rounding="c"),
                    rounding="c")
        ceiling = mp.fdiv(mp.fmul(max(q, 0), one_plus_g, rounding="c"), w, rounding="c")
        return mp.fadd(ceiling, radius, rounding="c")


def min_eig(M, bits):
    """Smallest eigenpair (value, unit vector) of a symmetric positive
    definite M, at ``bits`` precision.

    Inverse iteration on a Cholesky factor of M - lo*I. It starts from the
    least eigenvector of M in double precision (LAPACK's eigh) and lo the
    shift below its eigenvalue that _float_start returns, when M - lo*I
    factors at ``bits``; otherwise (floats cannot resolve lambda_min, an
    entry overflows them, eigh fails, or that shift does not factor) from
    a graded alternating-sign vector with lo = 0. A float start leaves
    about two steps on a well-separated lambda_min. ``lo`` is a proven
    lower bound on the smallest eigenvalue (M - lo*I factors); ``hi`` is
    an upper bound (the Rayleigh quotient mu, or a shift that failed to
    factor). After each step the next shift is s = mu - ||M v - mu v||, or
    the midpoint of (lo, hi) when s falls outside it or the last shift
    failed; M - s*I then factors (lo = s) or not (hi = s). Near the
    eigenvalue each step about doubles the correct digits; the midpoint
    bounds what a poor start vector or a nearly double eigenvalue costs.
    The iteration stops when the residual reaches n 2^(8-bits) max_i M_ii
    or when mu - lo <= 2^(8-bits) mu.

    The last vector is then certified as any candidate is (_certify):
    M - s I must factor at its Krylov-Weinstein shift s = mu - ||M v -
    mu v|| - n 2^(8-bits) max_i M_ii. By Sylvester's law of inertia no
    eigenvalue lies below s, so mu is within its residual and that guard
    of the smallest eigenvalue, not of a larger one. A shift s <= 0
    (lambda_min below that guard) is not tried.

    Raises NotPositiveDefiniteError when M or a positive shift s does not
    factor at this precision (too few bits), and ConvergenceError after
    MIN_EIG_STEPS_PER_BIT * bits steps. Four steps per bit cover the
    midpoint fallback alone: it halves (lo, hi) at least every second
    step, and from (0, mu) it needs at most about bits halvings to reach
    an eigenvalue that factors (above about 2^-bits ||M||) and bits more
    to reach the relative stop. The lowest-index entry of the vector whose
    magnitude is within 2^-(bits/2) of the largest is positive.
    """
    return _min_eig(M, bits)[:2]


def _unit_rayleigh(M, x, bits):
    """(v, mu, res) at ``bits``: the unit vector v = x / ||x||, its Rayleigh
    quotient mu and its residual norm ||M v - mu v||."""
    with workprec(bits):
        norm = mp.sqrt(mp.fdot(x, x))
        v = [t / norm for t in x]
        Mv = [mp.fdot(row, v) for row in M]
        mu = mp.fdot(v, Mv)
        r = [a - mu * b for a, b in zip(Mv, v)]
        return v, mu, mp.sqrt(mp.fdot(r, r))


def _sign_fixed(v, bits):
    """v or -v, whichever makes positive the lowest-index entry whose
    magnitude is within 2^-(bits/2) of the largest. Such magnitudes are
    tied (they are, exactly, for the antisymmetric vector of a symmetric
    support), so rounding cannot pick the sign."""
    top = max(abs(x) for x in v) - mpf(2) ** (-bits // 2)
    return tuple(-x for x in v) if next(x for x in v if abs(x) >= top) < 0 else tuple(v)


def _graded(n):
    """The start vector of _min_eig's mpf fallback: alternating signs,
    graded so that it is not orthogonal to the reflection-symmetric
    eigenvectors of a symmetric support."""
    return [(1 - 2 * (i % 2)) * (1 + mpf(i) / (2 * n)) for i in range(n)]


def _float_start(M):
    """A start for _min_eig from double precision: (v, s), a unit least
    eigenvector of the float image A of M from LAPACK's symmetric
    eigensolver (np.linalg.eigh) and the shift s = mu - 2 ||A v - mu v||
    below its eigenvalue, mu the Rayleigh quotient of v.

    None when an entry of A is not finite, when eigh raises LinAlgError or
    when s <= 0 (lambda_min below float resolution, as for an
    ill-conditioned contiguous Gram matrix). The pair is only a guess:
    _min_eig checks the shift with a Cholesky at its bits, and _certify
    proves whatever the iteration ends on.
    """
    import numpy as np

    A = np.array(M, dtype=float)
    if not np.isfinite(A).all():
        return None
    try:
        v = np.linalg.eigh(A)[1][:, 0]
    except np.linalg.LinAlgError:
        return None
    Av = A @ v
    mu = v @ Av
    s = mu - 2 * np.linalg.norm(Av - mu * v)
    return (v.tolist(), float(s)) if s > 0 else None


def _min_eig(M, bits, radius=0):
    """min_eig, plus a proven enclosure (lo, hi) of lambda_min(M + E) for
    every symmetric E with ||E||_2 <= ``radius``: _certify of the
    iteration's last vector. The start is _float_start's vector and shift
    when that shift factors at ``bits``, else the graded vector and lo = 0;
    either way only the start moves, never what _certify proves."""
    max_steps = MIN_EIG_STEPS_PER_BIT * bits
    n = _check_square(M)
    with workprec(bits):
        start, L = _float_start(M), None
        if start is not None:
            v, lo = [mpf(t) for t in start[0]], mpf(start[1])
            L = _factor(M, lo, bits)
        if L is None:
            L, lo, v = hp_cholesky(M, bits=bits), mpf(0), _graded(n)
        tol = mpf(2) ** (8 - bits)
        res_tol = n * tol * max(M[i][i] for i in range(n))
        hi = mp.inf
        failed = False
        for _ in range(max_steps):
            v, mu, res = _unit_rayleigh(M, cholesky_solve(L, v, bits=bits), bits)
            if res <= res_tol or mu - lo <= tol * mu:
                return _certify(M, (v, mu, res), bits, radius)
            hi = min(hi, mu)
            s = mu - res
            if failed or not lo < s < hi:
                s = (lo + hi) / 2
            factor = _factor(M, s, bits)
            if factor is None:
                hi, failed = s, True
            else:
                L, lo, failed = factor, s, False
        raise ConvergenceError(
            f"inverse iteration did not converge within {max_steps} steps"
        )


def _certify(M, rayleigh, bits, radius=0):
    """(mu, v, (lo, hi)) as _min_eig returns them, from ``rayleigh`` = (v,
    mu, res), _unit_rayleigh at ``bits`` of a candidate least eigenvector
    of M, and one Cholesky. Every lambda_min enclosure is proven here, and
    only here is its shift formed.

    The Krylov-Weinstein bound puts an eigenvalue within res of mu, so
    when v is close to the least eigenvector, M - s I factors at the shift
    s = mu - res - n 2^(8-bits) max_i M_ii; the guard, the residual stop
    of _min_eig, covers the rounding of mu, res and of the Cholesky
    itself. lo is factored_floor of s and hi the Rayleigh ceiling of v;
    the sign of v follows min_eig's rule. Raises NotPositiveDefiniteError
    when M - s I does not factor: then v is not the least eigenvector (or
    these bits cannot tell), and nothing is proven.

    A shift s <= 0 gives (mu, v, None) and no Cholesky runs, as when
    lambda_min lies below the rounding guard. The ladder stops only on
    lo > 0, and no Cholesky at these bits can prove that here: when
    M - s I factors, lo is below s, and when it does not, M has an
    eigenvalue within that Cholesky's rounding of s, so _min_eig's
    iteration can prove no positive lo either.
    """
    v, mu, res = rayleigh
    n = len(M)
    with workprec(bits):
        s = mu - res - n * mpf(2) ** (8 - bits) * max(M[i][i] for i in range(n))
        if s <= 0:
            return mu, _sign_fixed(v, bits), None
        lo = factored_floor(M, s, bits, radius)
        if lo is None:
            raise NotPositiveDefiniteError(
                None, f"the candidate's shift mu - res does not factor at {bits} bits")
        return mu, _sign_fixed(v, bits), (lo, _rayleigh_ceiling(M, v, mu, bits, radius))


def _tridiagonal_solve(D, E, s, v, tiny, F):
    """x with (T - s I) x = v for the symmetric tridiagonal T with diagonal
    ``D`` and off-diagonal ``E``, by LDL^T without pivoting, in fixed point:
    every argument and every entry of x is an integer at scale 2^F, each
    product and quotient rounded down; a zero pivot is replaced by ``tiny``."""
    n = len(D)
    piv, mult, x = [D[0] - s or tiny], [], [v[0]]
    for i in range(1, n):
        m = (E[i - 1] << F) // piv[-1]
        mult.append(m)
        piv.append(D[i] - s - (m * E[i - 1] >> F) or tiny)
        x.append(v[i] - (m * x[-1] >> F))
    x[-1] = (x[-1] << F) // piv[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] << F) // piv[i] - (mult[i] * x[i + 1] >> F)
    return x


def tridiagonal_min_vector(diag, off, bits):
    """A unit eigenvector, at ``bits``, of the smallest eigenvalue of the
    symmetric tridiagonal matrix T with diagonal ``diag`` and off-diagonal
    ``off`` (mpf values), for an eigenvalue well separated from the next.

    The start is the unit vector along (-1)^j C(n-1, j), the y -> 0 limit
    of the least eigenvector of Slepian's T. Shifted inverse iteration
    refines it in fixed point, O(n) a step: T's entries are converted once
    to integers at scale 2^F, F = bits + FIXED_GUARD, and every step (T v,
    the Rayleigh quotient theta, the residual norm res, the LDL^T solve and
    the normalisation) runs on Python integers. Each step's shift is
    theta - res - tol, tol = n 2^(8-bits) ||T||. That shift stays below the
    eigenvalue, so T - sI stays positive definite, and each step squares
    the error relative to the gap (the eigenvalues of Slepian's T are about
    1 apart). Once res <= tol, T's rounding level, one more step makes the
    vector good to working precision. Gives up after ``bits`` steps and
    returns the last vector, rounded once to mpf at ``bits``; whoever uses
    it must check it (hp._certify does).
    """
    n = len(diag)
    if n == 1:
        return (mpf(1),)
    F = bits + FIXED_GUARD
    D, E = [to_fixed(d._mpf_, F) for d in diag], [to_fixed(e._mpf_, F) for e in off]
    tol = n * (max(map(abs, D)) + 2 * max(map(abs, E))) >> (bits - 8)
    v = [(-1) ** j * comb(n - 1, j) << F for j in range(n)]
    norm = isqrt(sum(a * a for a in v))
    v = [(a << F) // norm for a in v]
    for _ in range(bits):
        Tv = [(D[i] * v[i] + (E[i - 1] * v[i - 1] if i else 0)
               + (E[i] * v[i + 1] if i < n - 1 else 0)) >> F for i in range(n)]
        theta = (sum(a * b for a, b in zip(v, Tv)) << F) // sum(a * a for a in v)
        res = isqrt(sum((a - (theta * b >> F)) ** 2 for a, b in zip(Tv, v)))
        x = _tridiagonal_solve(D, E, theta - res - tol, v, tol, F)
        norm = isqrt(sum(a * a for a in x))
        v = [(a << F) // norm for a in x]
        if res <= tol:
            break
    with workprec(bits):
        return tuple(mpf((a, -F)) for a in v)


@dataclass(frozen=True)
class MinEigResult:
    """Smallest eigenvalue certified by the precision ladder.

    [``lo``, ``hi``] is a proven enclosure of lambda_min of the exact
    matrix the builder rounds, with hi - lo <= LADDER_RELTOL lo.
    ``bits_used`` is the level that proved it, and ``value`` and ``vector``
    are that level's eigenpair; value is good to about n 2^-bits_used ||M||
    absolute, and only the enclosure is a proof. ``history`` records every
    (bits, estimate) pair the ladder visited; the estimate is None at a
    level where no Cholesky factored (too few bits). A level whose
    Krylov-Weinstein shift is not positive runs no certifying Cholesky and
    still records its vector's Rayleigh quotient.
    """

    value: mpf
    vector: tuple
    bits_used: int
    history: tuple
    lo: mpf
    hi: mpf


def min_eig_adaptive(builder) -> MinEigResult:
    """Smallest eigenvalue of the matrix that builder(bits) rounds, doubling
    bits from LADDER_START_BITS until its enclosure is narrow.

    ``builder(bits)`` returns (M, radius, candidate): the matrix rounded at
    ``bits``, an upper bound on the spectral norm of its distance from the
    exact matrix, the same at every level, and a candidate least
    eigenvector at ``bits`` or None. A level with a candidate certifies it
    with one Cholesky (_certify), or none when its shift is not positive;
    a level without one, or whose candidate's shift does not factor, runs
    _min_eig, as min_eig does, which certifies its iteration's last vector
    the same way. The ladder stops at the
    first level whose enclosure [lo, hi], widened by the radius, has
    hi - lo <= LADDER_RELTOL lo. A level where no Cholesky factors has too
    few bits: it is recorded without an estimate and the ladder climbs.
    Raises PrecisionCapError past MAX_BITS.
    """
    history = []
    bits = LADDER_START_BITS
    while bits <= MAX_BITS:
        M, radius, candidate = builder(bits)
        try:
            lam, vec, enclosure = _level(M, bits, radius, candidate)
        except NotPositiveDefiniteError:
            history.append((bits, None))
        else:
            history.append((bits, lam))
            if enclosure is not None:
                lo, hi = enclosure
                with workprec(bits):
                    if hi - lo <= LADDER_RELTOL * lo:
                        return MinEigResult(lam, vec, bits, tuple(history), lo, hi)
        bits *= 2
    raise PrecisionCapError(
        f"no enclosure of the smallest eigenvalue narrower than rel {LADDER_RELTOL} "
        f"within {MAX_BITS} bits"
    )


def _level(M, bits, radius, candidate):
    """One ladder level: the candidate certified by _certify, or _min_eig
    when there is none or its shift does not factor."""
    if candidate is not None:
        try:
            return _certify(M, _unit_rayleigh(M, candidate, bits), bits, radius)
        except NotPositiveDefiniteError:
            pass
    return _min_eig(M, bits, radius)


# ---------------------------------------------------------------------------
# exact rational auxiliaries


def vandermonde_lastrow(offsets):
    """Last row m of the inverse Vandermonde on integer nodes tau_j:
    the m with sum_j m_j tau_j^i = delta_{i,n} for i = 0..n, exactly
    m_j = prod_{i != j} 1/(tau_j - tau_i), the weights of the n-th divided
    difference.
    """
    taus = [int(t) for t in offsets]
    if not taus:
        raise DomainError("need at least one node")
    if len(set(taus)) != len(taus):
        raise SingularSystemError("duplicate nodes make the Vandermonde singular")
    return tuple(Fraction(1, prod(tj - ti for ti in taus if ti != tj)) for tj in taus)
