"""Adaptive arbitrary-precision dense linear algebra.

A matrix here is any sequence of row sequences of mpmath scalars, such as
the row tuples ``core.build_gram`` returns; nothing in this module mutates
one, it only indexes. Most have a few rows; contiguous ladders have been
run to 129. Every factorization and every proof runs in fixed point, on
Python integers at scale 2^F, F = bits + FIXED_GUARD:

* ``fixed_matrix``, M converted once per ladder level, each row and
  column scaled by its own power of two (D = I on a Gram matrix),
* ``cholesky_row``, the one row step of every Cholesky factor in the
  package (``hp_cholesky``, ``_inverse_iteration``'s and the l0 solver's
  bordered factors): exact dot products, one floor division per entry
  and one isqrt per pivot, so
  |R R^T - A|_ij <= (2 sqrt(max A_ii) + 2) 2^-F,
* ``factored_floor``: when M - s I factors, lambda_min(M) > s less n
  times that bound (Wilkinson; Rump, BIT 46, 2006), the proof under
  _certify's enclosure and the exhaustive eps_k scan's prune,
* ``_certify``, the one proof of a lambda_min enclosure: one Cholesky at
  the Krylov-Weinstein shift of a candidate vector v for lo, and the
  Rayleigh quotient of v, from the exact integer M v, for hi,
* ``min_eig``: ``_inverse_iteration``, shifted inverse iteration on
  Python integers, run on M at scale 2^START_BITS and then, from that
  run's vector and shift, at ``bits``; _certify proves its last vector,
* ``tridiagonal_min_vector``: Slepian's least eigenvector, a candidate for
  _certify, by O(n) inverse-iteration steps from (-1)^j C(n-1, j),
* ``min_eig_adaptive``, a precision ladder that doubles the mantissa from
  LADDER_START_BITS until an enclosure of lambda_min, widened by the
  builder's bound on its own rounding, is narrower than LADDER_RELTOL lo,
* ``vandermonde_lastrow``, in exact rationals the weights of the small-y
  limit of lambda_min (spectral.smally_limit).
"""
from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, prod
from operator import mul
from typing import NamedTuple

from mpmath import iv, mp, mpf, workprec
from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_neg, to_fixed
from mpmath.libmp import round_ceiling, round_nearest

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
# fixed-point work carries this many bits below a unit at ``bits``: the
# dense kernel, tridiagonal_min_vector's refinement, and szego_reproduce's
# node sums, where degree m costs 2m of their units, 2^-14 of a unit at
# m = QUAD_NODE_CAP = 2^16
FIXED_GUARD = 32
# min_eig first runs its iteration as at this many bits, on M at scale
# 2^START_BITS. One full-precision step from that run's vector and shift
# leaves a residual near n 2^(8 - 2 START_BITS), 2^8 above the stop
# n 2^(8 - LADDER_START_BITS) of the first ladder level, so that level
# still takes its second step, which ends at its rounding floor; from a
# first run at 64 bits some levels stopped a step early, their enclosures
# up to twice as wide
START_BITS = 60


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


class FixedMatrix(NamedTuple):
    """A symmetric M in fixed point: ``rows`` holds D M D at scale 2^frac,
    rounded down, for D = diag(2^-exps[i]); ``diag`` is the diagonal that
    hp_cholesky factors, M's own or M - s I's (``shifted``); ``source`` is M."""

    rows: list
    diag: list
    exps: list
    frac: int
    source: object

    def shifted(self, s):
        """M - s I: diag less s 2^(frac - 2 e_i) rounded up, 2 units at most."""
        neg = mpf_neg(s._mpf_)
        return self._replace(diag=[row[i] + to_fixed(neg, self.frac - 2 * e)
                                   for i, (row, e) in enumerate(zip(self.rows, self.exps))])


def fixed_matrix(M, bits) -> FixedMatrix:
    """M (its lower triangle is read) at scale 2^(bits + FIXED_GUARD), or M
    itself when it is a FixedMatrix already. e_i = floor(log2(M_ii) / 2),
    or 0 where M_ii is not positive, puts the diagonal of D M D in [1, 4):
    an exact congruence, so it keeps the inertia, and no entry of a badly
    scaled M is lost to the fixed point. Raises DomainError on an empty
    M and on an entry that is not an mpf (a float, an int or an mpc) or
    is NaN or infinite."""
    if isinstance(M, FixedMatrix):
        return M
    n, frac = len(M), bits + FIXED_GUARD
    if not n or any(len(row) != n for row in M):
        raise DomainError("matrix must be square and not empty")
    if not all(isinstance(x, mpf) for i, row in enumerate(M) for x in row[:i + 1]):
        raise DomainError("matrix entries must be mpf")
    exps = [0 if x[0] or not x[1] else (x[2] + x[3] - 1) >> 1
            for x in (row[i]._mpf_ for i, row in enumerate(M))]
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(M):
        for j in range(i + 1):
            x = row[j]._mpf_
            if not x[1] and x[2]:
                raise DomainError(f"matrix entry ({i}, {j}) is not finite ({row[j]})")
            rows[i][j] = rows[j][i] = to_fixed(x, frac - exps[i] - exps[j])
    return FixedMatrix(rows, [row[i] for i, row in enumerate(rows)], exps, frac, M)


def cholesky_row(L, cross, diag, frac):
    """Row d = len(L) of a Cholesky factor in fixed point at scale 2^frac.

    ``L`` holds rows 0..d-1 of the factor (row i has i + 1 entries),
    ``cross`` the matrix entries a_d0..a_d(d-1) and ``diag`` a_dd, all
    integers. Returns l_i = floor((a_di 2^frac - sum_{k<i} l_k L[i][k]) /
    L[i][i]) and l_d = isqrt(a_dd 2^frac - sum_{k<d} l_k^2), each one exact
    dot product and one rounding. For A = a 2^-frac and R = L 2^-frac,
    (A - R R^T)_di = R_ii t with 0 <= t < 2^-frac and R_ii^2 <= A_ii, and
    the pivot's isqrt leaves at most 2 R_dd 2^-frac, so |R R^T - A| <=
    2 sqrt(max A_ii) 2^-frac entrywise. Raises NotPositiveDefiniteError(d)
    when the pivot is not positive."""
    row = []
    for c, Li in zip(cross, L):
        row.append(((c << frac) - sum(map(mul, row, Li))) // Li[len(row)])
    pivot = (diag << frac) - sum(x * x for x in row)
    if pivot <= 0:
        raise NotPositiveDefiniteError(len(row))
    row.append(isqrt(pivot))
    return row


class Factor:
    """hp_cholesky's factor, M = D^-1 R R^T D^-1: R is ``rows``, integers at
    scale 2^frac, D = diag(2^-exps[i]). Indexing gives row i of D^-1 R as
    n mpf at the ambient precision, zeros above the diagonal."""

    def __init__(self, rows, exps, frac):
        self.rows, self.exps, self.frac = rows, exps, frac

    def __getitem__(self, i):
        row, shift = self.rows[i], self.exps[i] - self.frac
        return [mpf((x, shift)) for x in row] + [mpf(0)] * (len(self.rows) - len(row))


def hp_cholesky(M, bits):
    """The Factor of M as fixed_matrix converts it at ``bits`` (or of a
    FixedMatrix with its ``diag``). Raises NotPositiveDefiniteError with the
    first failing pivot index, which signals either a genuine singularity or
    insufficient precision, and DomainError on bits that check_bits refuses
    and on a matrix that fixed_matrix refuses.
    """
    A = fixed_matrix(M, check_bits(bits))
    L = []
    for i, (row, d) in enumerate(zip(A.rows, A.diag)):
        L.append(cholesky_row(L, row[:i], d, A.frac))
    return Factor(L, A.exps, A.frac)


def back_substitute(L, y, frac):
    """x with L^T x = y, for L's rows at scale 2^frac and y integers at any
    one scale, x at that scale and each entry rounded down once."""
    x = [0] * len(L)
    for i in reversed(range(len(L))):
        x[i] = ((y[i] << frac) - sum(L[k][i] * x[k] for k in range(i + 1, len(L)))) // L[i][i]
    return x


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


def factored_floor(M, s, bits, radius=0):
    """A proven lower bound on lambda_min(M + E) for every symmetric E with
    ||E||_2 <= ``radius`` when hp_cholesky of M - s I factors at ``bits``:
    s - n (2 sqrt(max A_ii) + 2) 2^-F max_i 4^e_i - radius, where A is
    D (M - s I) D as stored at scale 2^F and D = diag(2^-e_i) is
    fixed_matrix's scaling. None when it does not factor, which means only
    that this precision proves nothing. A is within 2 units of 2^-F of
    D (M - s I) D and cholesky_row's R R^T within 2 sqrt(max A_ii) 2^-F of
    A, so R R^T = D (M - s I) D + dA with ||dA||_2 <= n max |dA_ij|. R R^T
    is positive definite, so lambda_min(D (M - s I) D) > -||dA||_2 (Rump,
    BIT 46, 2006) and x^T (M - s I) x > -||dA||_2 ||D^-1 x||^2. Weyl's
    inequality adds the radius; every step rounds toward a lower bound.
    """
    A = fixed_matrix(M, bits).shifted(s)
    try:
        hp_cholesky(A, bits)
    except NotPositiveDefiniteError:
        return None
    err = len(A.diag) * (2 * isqrt(max(A.diag) << A.frac) + 2 + (2 << A.frac))  # at 2^(2F)
    with workprec(bits):
        slack = mp.make_mpf(from_man_exp(err, 2 * (max(A.exps) - A.frac), bits, round_ceiling))
        return mp.fsub(mp.fsub(s, slack, rounding="f"), radius, rounding="f")


def _rayleigh_ceiling(A, mu, bits, radius):
    """A proven upper bound on lambda_min(M + E), ||E||_2 <= ``radius``, for
    the FixedMatrix A of M, from mu as _unit_rayleigh rounds it.

    _unit_rayleigh's quotient of its integer vector v is exact for the
    stored D M D + E0, |E0_ij| < 2^-F, and mu is it rounded once to
    nearest. v^T M v / v^T v, at least lambda_min(M), is within ||E0||_2
    ||D^-1 v||^2 / ||v||^2 <= n 2^-F max_i 4^e_i of it. Rounds up."""
    with workprec(bits):
        err = mpf((len(A.rows), 2 * max(A.exps) - A.frac))
        hi = mp.fadd(mu, mp.ldexp(abs(mu), 1 - bits), rounding="c")
        return mp.fadd(mp.fadd(hi, err, rounding="c"), radius, rounding="c")


def min_eig(M, bits):
    """Smallest eigenpair (value, unit vector) of a symmetric positive
    definite M, at ``bits`` precision.

    Shifted inverse iteration (_inverse_iteration) on Python integers,
    run twice. The first run is on M rounded down to scale 2^START_BITS,
    as at START_BITS bits, from a graded alternating-sign vector with
    lo = 0. The second is on M at ``bits``, from the first run's vector
    and its shift below lambda_min, which leaves two steps on a
    well-separated lambda_min at 128 bits; it starts from the graded
    vector with lo = 0 when the first run gives nothing, or its shift is
    not positive (lambda_min below that scale) or does not factor. ``lo``
    is a lower bound on the smallest eigenvalue (M - lo*I factors); ``hi``
    is an upper bound (the Rayleigh quotient mu, or a shift that failed to
    factor). After each step the next shift is s = mu - ||M v - mu v||, or
    the midpoint of (lo, hi) when s falls outside it or the last shift
    failed; M - s*I then factors (lo = s) or not (hi = s). Near the
    eigenvalue each step about doubles the correct digits; the midpoint
    bounds what a poor start vector or a nearly double eigenvalue costs.
    A run stops when the residual reaches n 2^(8-bits) max_i M_ii or when
    mu - lo <= 2^(8-bits) mu.

    The last vector is then certified as any candidate is (_certify), so
    that mu is near the smallest eigenvalue, not a larger one.

    Raises DomainError on bits that check_bits refuses and on a matrix
    that fixed_matrix refuses, NotPositiveDefiniteError when M or a
    positive shift s does not factor at this precision (too few bits), and
    ConvergenceError after MIN_EIG_STEPS_PER_BIT * bits steps. Four steps
    per bit cover the midpoint fallback alone: it halves (lo, hi) at least
    every second step, and from (0, mu) it needs at most about bits
    halvings to reach an eigenvalue that factors (above about 2^-bits
    ||M||) and bits more to reach the relative stop. The lowest-index
    entry of the vector whose magnitude is within 2^-(bits/2) of the
    largest is positive.
    """
    return _min_eig(M, check_bits(bits))[:2]


def _unit_rayleigh(M, x, bits):
    """(v, mu, res) for M or its FixedMatrix: v = x / ||x|| as integers at
    scale 2^G, G = F + max e_i - min e_i (F on a Gram matrix, and fine
    enough that no large M_ii magnifies v's rounding), its Rayleigh
    quotient mu, rounded once to ``bits`` from the exact M v of the stored
    D M D, and res = ||M v - mu v||, rounded down. ``x`` is mpf values or
    integers at any one scale."""
    A = fixed_matrix(M, bits)
    F, exps, low = A.frac, A.exps, min(A.exps)
    G = F + max(exps) - low
    x = [t if type(t) is int else to_fixed(t._mpf_, G) for t in x]
    norm = isqrt(sum(t * t for t in x))
    v = [(t << G) // norm for t in x]
    u = [t << e - low for t, e in zip(v, exps)]
    Mv = [sum(map(mul, row, u)) << e - low for row, e in zip(A.rows, exps)]  # 2^(F + G - 2 low)
    q, w = sum(map(mul, v, Mv)), sum(t * t for t in v)
    mu = mp.make_mpf(mpf_div(from_man_exp(q, 2 * low - F), from_int(w), bits, round_nearest))
    fixed_mu = (q << G) // w
    res = isqrt(sum((a - (fixed_mu * t >> G)) ** 2 for a, t in zip(Mv, v)))
    with workprec(bits):
        return v, mu, mpf((res, 2 * low - F - G))


def _sign_fixed(v, bits, F):
    """v, integers at scale 2^F, as mpf at ``bits``, or -v, whichever makes
    positive the lowest-index entry whose magnitude is within 2^-(bits/2)
    of the largest. Such magnitudes are tied (they are, exactly, for the
    antisymmetric vector of a symmetric support), so rounding cannot pick
    the sign."""
    top = max(map(abs, v)) - (1 << F + (-bits) // 2)
    sign = -1 if next(x for x in v if abs(x) >= top) < 0 else 1
    with workprec(bits):
        return tuple(mpf((sign * x, -F)) for x in v)


def _graded(n, F):
    """The graded alternating-sign start as integers at scale 2^F: not
    orthogonal to a symmetric support's eigenvectors."""
    return [(-1) ** i * ((2 * n + i) << F) // (2 * n) for i in range(n)]


def _scaled(x, G):
    """x, integers, shifted so that its largest entry is about 2^G."""
    k = max(map(abs, x)).bit_length() - G
    return [t >> k for t in x] if k > 0 else [t << -k for t in x]


def _inverse_iteration(A, bits, lo=0, v=None):
    """min_eig's shifted inverse iteration, as at ``bits``, on the M that
    the FixedMatrix A stores (its rows, exps and frac), wholly on Python
    integers: (x, s), the last step's solution and s = mu - 2 res - g just
    below its eigenvalue, or None after MIN_EIG_STEPS_PER_BIT * bits steps.

    Vectors are scaled to about 2^G, G = frac + max e_i - min e_i, and
    eigenvalues and shifts are integers at scale 2^(frac - 2 min e_i).
    From v (the graded vector when None) and the factor of A - lo I, each
    step solves with the last factor that factored, forward then
    back_substitute, and takes M v, the Rayleigh quotient mu and the
    residual res of the scaled solution v from exact sums, each rounded
    down once. It stops at res <= g = n 2^(8-bits) max_i M_ii or mu - lo <=
    2^(8-bits) mu; without the guard g in s, a residual that rounds to 0
    would give a shift just above lambda_min. A factor of A - s I is
    cholesky_row's, with s 4^-e_i taken off the diagonal rounded up as in
    FixedMatrix.shifted. Raises NotPositiveDefiniteError when A - lo I does
    not factor.
    """
    rows, exps, F = A.rows, A.exps, A.frac
    n, low, top = len(rows), min(exps), max(exps)
    G = F + top - low
    g = n * max(r[i] << 2 * (e - low) for i, (r, e) in enumerate(zip(rows, exps))) >> bits - 8

    def factor(s):
        L = []
        for i, (row, e) in enumerate(zip(rows, exps)):
            L.append(cholesky_row(L, row[:i], row[i] + (-s >> 2 * (e - low)), F))
        return L

    L, hi, failed = factor(lo), None, False
    v = _scaled(_graded(n, G) if v is None else v, G)
    for _ in range(MIN_EIG_STEPS_PER_BIT * bits):
        y = []
        for Li, t, e in zip(L, v, exps):
            y.append(((t << F + top - e) - sum(map(mul, Li, y))) // Li[len(y)])
        x = [t << top - e for t, e in zip(back_substitute(L, y, F), exps)]
        v = _scaled(x, G)
        u = [t << e - low for t, e in zip(v, exps)]
        Mv = [sum(map(mul, row, u)) << e - low for row, e in zip(rows, exps)]
        w = sum(t * t for t in v)
        mu = sum(map(mul, v, Mv)) // w
        res = isqrt(sum((a - mu * t) ** 2 for a, t in zip(Mv, v)) // w)
        if res <= g or mu - lo <= mu >> bits - 8:
            return x, mu - 2 * res - g
        hi = mu if hi is None else min(hi, mu)
        s = mu - res
        if failed or not lo < s < hi:
            s = (lo + hi) >> 1
        try:
            L, lo, failed = factor(s), s, False
        except NotPositiveDefiniteError:
            hi, failed = s, True
    return None


def _min_eig(M, bits, radius=0):
    """min_eig, plus a proven enclosure (lo, hi) of lambda_min(M + E) for
    every symmetric E with ||E||_2 <= ``radius``: _certify of the second
    run's last vector. M may be a FixedMatrix. The first run only picks
    where the second begins, never what _certify proves."""
    A = fixed_matrix(M, bits)
    cut = A.frac - START_BITS
    small = A._replace(rows=[[x >> cut for x in row] for row in A.rows], frac=START_BITS)
    last = None
    with suppress(NotPositiveDefiniteError):
        v, s = _inverse_iteration(small, START_BITS) or (None, 0)
        if s > 0:
            last = _inverse_iteration(A, bits, s << cut, v)
    last = last or _inverse_iteration(A, bits)
    if last is None:
        raise ConvergenceError(f"inverse iteration did not converge within "
                               f"{MIN_EIG_STEPS_PER_BIT * bits} steps")
    return _certify(A, _unit_rayleigh(A, last[0], bits), bits, radius)


def _certify(M, rayleigh, bits, radius=0):
    """(mu, v, (lo, hi)) as _min_eig returns them, from ``rayleigh`` = (v,
    mu, res), _unit_rayleigh at ``bits`` of a candidate least eigenvector
    of M (or of its FixedMatrix), and one Cholesky. Every lambda_min
    enclosure is proven here, and only here is its shift formed.

    The Krylov-Weinstein bound puts an eigenvalue within res of mu, so
    when v is close to the least eigenvector, M - s I factors at the shift
    s = mu - res - n 2^(8-bits) max_i M_ii; the guard, the residual stop
    of _min_eig, covers the rounding of mu and res and, many times over,
    the Cholesky's n (2 sqrt(max A_ii) + 2) 2^-F. lo is factored_floor of
    s and hi the Rayleigh ceiling of mu; the sign of v follows min_eig's
    rule. Raises NotPositiveDefiniteError when M - s I does not factor:
    then v is not the least eigenvector (or these bits cannot tell), and
    nothing is proven.

    A shift s <= 0 gives (mu, v, None) and no Cholesky runs, as when
    lambda_min lies below the rounding guard. The ladder stops only on
    lo > 0, and no Cholesky at these bits can prove that here: when
    M - s I factors, lo is below s, and when it does not, M has an
    eigenvalue within that Cholesky's rounding of s, so _min_eig's
    iteration can prove no positive lo either.
    """
    v, mu, res = rayleigh
    A = fixed_matrix(M, bits)
    v = _sign_fixed(v, bits, A.frac + max(A.exps) - min(A.exps))  # _unit_rayleigh's G
    with workprec(bits):
        s = mu - res - mp.ldexp(len(A.rows), 8 - bits) * max(r[i] for i, r in enumerate(A.source))
        if s <= 0:
            return mu, v, None
        lo = factored_floor(A, s, bits, radius)
        if lo is None:
            raise NotPositiveDefiniteError(
                None, f"the candidate's shift mu - res does not factor at {bits} bits")
        return mu, v, (lo, _rayleigh_ceiling(A, mu, bits, radius))


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
    A = fixed_matrix(M, bits)
    if candidate is not None:
        try:
            return _certify(A, _unit_rayleigh(A, candidate, bits), bits, radius)
        except NotPositiveDefiniteError:
            pass
    return _min_eig(A, bits, radius)


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
