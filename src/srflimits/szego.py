"""Conformal maps, Szego kernel, orthogonal-polynomial leading coefficients
and Faber polynomials for the circular arc Gamma = {e^{i theta}: |theta| <= pi y}.

Geometry conventions
--------------------
phi(w) = w (c w + 1)/(w + c) maps |w| > 1 conformally onto the exterior of
the arc, with capacity c = sin(pi y / 2) as the leading Laurent coefficient.
Its inverse Phi(z) is evaluated as the root of the quadratic
c w^2 + (1 - z) w - z c = 0 with |w| > 1, which sidesteps all branch-cut
bookkeeping for the square root in the closed form; points on the arc
(where both roots sit on |w| = 1) are rejected.

The analytic square root of Phi' needed by the Szego kernel is built from
q(w) = sqrt(c) * w * sqrt(1 + 2c/w + 1/w^2) / (w + c),
a branch of sqrt(phi') that is analytic on |w| > 1 because
1 + 2c u + u^2 never meets the negative real axis for |u| < 1. Then
sqrt(Phi'(z)) = 1 / q(Phi(z)), positive at infinity.

Two quadratures. ``szego_reproduce`` integrates the kernel trace by nested
trapezoid rules, one loop per piece of the boundary that doubles the panels
until two rules agree. The ``arc_inner_product`` oracle runs one
Gauss-Legendre rule whose size ``arc_rule`` chooses in advance from the
Bernstein-ellipse bound; ``arc_rule`` also returns the proven error of the
value, the sum of the truncation bound, the error of the certified nodes and
weights (``legendre_nodes``) and the rounding at ``bits``.

What takes params runs at params.bits (``leading_coeffs`` and the
``arc_inner_product`` oracle also take another ``bits``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from mpmath import iv, mp, mpc, mpf, workprec
from mpmath.libmp import from_man_exp, to_fixed

from .checks import bound_check
from .core import SupportSet, SystemParams, as_count, build_gram, keep_complex, keep_real
from .errors import (
    ConvergenceError,
    DomainError,
    KernelDegeneracyError,
    OnArcError,
    PoleError,
)
from .hp import FIXED_GUARD, check_bits, hp_cholesky, iv_ends, iv_workprec

ON_ARC_TOL = mpf("1e-12")
KERNEL_DEGENERACY_TOL = mpf("1e-30")
QUAD_REL_TARGET = mpf("1e-13")
QUAD_START_NODES = 16
QUAD_NODE_CAP = 2 ** 16
ARC_SAMPLES = 10 ** 4
DEFAULT_SAMPLES = 200  # bound_suite's sampled points per degree
DEFAULT_POLYS = 100  # and random polynomials per degree
# float64 rounding cushion on the sampled Faber peaks: 2^-30 = 9.3e-10, over
# 10^4 times the worst deviation of the float64 recurrence from a 256-bit
# evaluation measured at every sample point (5.6e-14, y in [0.01, 0.45], n <= 12)
FABER_CUSHION = 2.0 ** -30


def _is_inf(z) -> bool:
    """The point at infinity: None, or an mpmath infinity with no NaN part."""
    return z is None or isinstance(z, (mpf, mpc)) and mp.isinf(z) and not mp.isnan(z)


# ---------------------------------------------------------------------------
# conformal maps


def phi_map(c, w):
    """Exterior map phi(w) = w (c w + 1)/(w + c); pole at w = -c."""
    c = keep_real(c)
    w = keep_complex(w)
    if abs(w + c) == 0:
        raise PoleError("phi has a pole at w = -c")
    return w * (c * w + 1) / (w + c)


def Phi_map(c, z, bits):
    """Inverse map: the root of c w^2 + (1-z) w - z c = 0 with |w| > 1.

    Raises OnArcError when both candidate roots have modulus within
    1 +- 1e-12, i.e. z is numerically on the arc.
    """
    c = keep_real(c)
    with workprec(bits):
        z = keep_complex(z)
        disc = mp.sqrt((1 - z) ** 2 + 4 * c * c * z)
        w1 = ((z - 1) + disc) / (2 * c)
        w2 = ((z - 1) - disc) / (2 * c)
        # root product is -z; recompute the small root from it when possible
        big, small = (w1, w2) if abs(w1) >= abs(w2) else (w2, w1)
        if abs(big) != 0:
            small = -z / big
        if abs(abs(big) - 1) < ON_ARC_TOL and abs(abs(small) - 1) < ON_ARC_TOL:
            raise OnArcError(f"z = {z} lies on the arc (both roots on |w| = 1)")
        return big


def phi_prime_sqrt(c, w):
    """Analytic branch q(w) of sqrt(phi'(w)) on |w| >= 1, q(inf) = sqrt(c)."""
    c = keep_real(c)
    w = keep_complex(w)
    u = 1 / w
    return mp.sqrt(c) * w * mp.sqrt(1 + 2 * c * u + u * u) / (w + c)


# ---------------------------------------------------------------------------
# Szego kernel


def _sqrt_phi_prime_at(c, point, bits):
    """(sqrt(Phi'), Phi) at a finite point or at infinity (Phi = None)."""
    if _is_inf(point):
        return 1 / mp.sqrt(c), None
    w = Phi_map(c, point, bits=bits)
    return 1 / phi_prime_sqrt(c, w), w


def szego_kernel(params: SystemParams, zeta, z):
    """Reproducing kernel of the Hardy space of the arc exterior.

    K(zeta, z) = (L/pi) sqrt(Phi'(zeta)) conj(sqrt(Phi'(z)))
                 * P / (P - 1) with P = Phi(zeta) conj(Phi(z)).
    Either argument may be infinite (None, or an mpmath inf with no NaN part);
    K(inf, inf) = L/(pi c).
    """
    bits = params.bits
    c, L = params.c, params.arc_length
    for point in (zeta, z):
        if not _is_inf(point) and not mp.isfinite(keep_complex(point)):
            raise DomainError(f"kernel argument is neither finite nor infinity: {point}")
    with workprec(bits):
        s1, w1 = _sqrt_phi_prime_at(c, zeta, bits)
        s2, w2 = _sqrt_phi_prime_at(c, z, bits)
        if w1 is None or w2 is None:
            ratio = mpf(1)
        else:
            p = w1 * mp.conj(w2)
            if abs(p - 1) < KERNEL_DEGENERACY_TOL:
                raise KernelDegeneracyError(
                    "Phi(zeta) * conj(Phi(z)) = 1: kernel pole"
                )
            ratio = p / (p - 1)
        return (L / mp.pi) * s1 * mp.conj(s2) * ratio


# ---------------------------------------------------------------------------
# the arc inner product oracle: one Gauss-Legendre rule of a-priori size

# each node legendre_nodes returns, and the sum of its weights' errors, lie
# within 2^-(bits + NODE_GUARD) of the exact rule's
NODE_GUARD = 8

_NODE_CACHE = {}


def _legendre_fixed(n, X, F):
    """P_n(x) and P_(n-1)(x), x = X 2^-F, by the three-term recurrence in
    fixed point at scale 2^F, every step rounded down."""
    p0, p1 = 1 << F, X
    for k in range(1, n):
        p0, p1 = p1, (((2 * k + 1) * X * p1 >> F) - k * p0) // (k + 1)
    return p1, p0


def _legendre_exact(n, X, F):
    """q_n and q_(n-1), q_k = k! 2^(kF) P_k(X 2^-F): exact integers, from
    q_(k+1) = (2k+1) X q_k - k^2 2^(2F) q_(k-1)."""
    q0, q1 = 1, X
    for k in range(1, n):
        q0, q1 = q1, (2 * k + 1) * X * q1 - (k * k * q0 << 2 * F)
    return q1, q0


def legendre_nodes(n, bits):
    """The n-point Gauss-Legendre rule on [-1, 1] for sums at ``bits``: its
    (node, weight) pairs in ascending order, cached by (n, bits).

    Each node x >= 0 starts from Tricomi's asymptotic formula and is
    polished by Newton's method on P_n in fixed point at
    F = bits + 16 + 2 bitlen(n) bits (``_legendre_fixed``). A step squares
    the error, times at most n^2, so a step whose correction d has
    n^2 d^2 <= 2^-F is the last. The nodes x < 0 are the mirror images of
    these, so the nodes are exactly antisymmetric and the weights
    symmetric. Each node is then certified from the exact values of P_n
    and P_(n-1) at it (``_legendre_exact``):

    * since P_n'/P_n = sum_j 1/(x - x_j), a zero of P_n lies within
      delta = n |P_n(x)/P_n'(x)| of x. These n intervals are disjoint, so
      each holds its own zero.
    * The weight is w(x) = 2/((1 - x^2) P_n'(x)^2), exact at x and rounded
      down to 2^-F; the exact rule's weight is w at the zero. By Legendre's
      equation w'/w = (2n(n+1) P_n/P_n' - 2x)/(1 - x^2), and on [-1, 1]
      |P_n'| <= n(n+1)/2 and |P_n''| <= (n-1)n(n+1)(n+2)/8, which bound
      |w'| within delta of x in mpmath.iv.

    Raises ConvergenceError unless every delta and the sum of the weights'
    errors are at most 2^-(bits + NODE_GUARD), which arc_rule's error
    assumes.
    """
    key = (n, bits)
    cached = _NODE_CACHE.get(key)
    if cached is not None:
        return cached
    F = bits + 16 + 2 * n.bit_length()
    S2 = 1 << 2 * F
    last = 1 << F // 2 - n.bit_length()  # n^2 d^2 <= 2^-F for a correction d at most this
    fact2 = math.factorial(n) ** 2
    # the zeros x >= 0 as (X, W) at scale 2^F, ascending; log2 of a bound on every delta
    half, log_delta = [], -F
    for k in range((n + 1) // 2, 0, -1):
        # Tricomi's asymptotic zero, within about n^-4 of the k-th largest
        g = math.cos(math.pi * (4 * k - 1) / (4 * n + 2)) * (1 - (n - 1) / (8 * n ** 3))
        X = 0 if n % 2 and not half else int(g * 2.0 ** 53) << F - 53
        for _ in range(12 if X else 0):  # at most 7 steps up to 1024 bits
            p, pm = _legendre_fixed(n, X, F)
            step = p * (X * X - S2) // (n * (X * p - (pm << F)))
            X -= step
            if abs(step) <= last:
                break
        q, qm = _legendre_exact(n, X, F)
        E = X * q - (n * qm << 2 * F)  # P_n'(x) = n E / (n! 2^((n-1)F) (X^2 - 2^(2F)))
        one = S2 - X * X  # (1 - x^2) 2^(2F)
        if q:  # delta = |q| one / (2^F |E|)
            log_delta = max(log_delta, (abs(q) * one).bit_length() - (abs(E) << F).bit_length() + 1)
        half.append((X, (2 * fact2 * one << (2 * n + 1) * F) // (n * n * E * E)))
    gap = 2 << F + log_delta  # the least spacing at which the intervals x +- delta are disjoint
    certified = log_delta <= -bits - NODE_GUARD and not (
        any(b - a <= gap for (a, _), (b, _) in zip(half, half[1:]))
        or 0 < half[0][0] <= gap // 2)
    with iv_workprec(53):
        d, unit, dw = iv.mpf(2) ** log_delta, iv.mpf(2) ** -F, 0
        for X, W in half:
            x, w = iv.mpf(X) * unit, iv.mpf([W, W + 1]) * unit
            a = x + d
            one_a = 1 - a * a  # 1 - xi^2 >= one_a for |xi - x| <= delta
            # |P_n'(x)| = sqrt(2/((1 - x^2) w)), less delta max |P_n''| within delta
            dp = iv.sqrt(2 / ((1 - x * x) * w)) - d * ((n - 1) * n * (n + 1) * (n + 2) // 8)
            certified = certified and iv_ends(one_a).lo > 0 and iv_ends(dp).lo > 0
            slope = 2 / (one_a * dp * dp) * (2 * (n * (n + 1)) ** 2 * d / dp + 2 * a) / one_a
            dw += (d * slope + unit) * (2 if X else 1)
        certified = certified and iv_ends(dw).hi <= mp.ldexp(1, -bits - NODE_GUARD)
    if not certified:
        raise ConvergenceError(f"the {n}-point Gauss-Legendre rule at {bits} bits "
                               f"is not within 2^-{bits + NODE_GUARD} of the exact one")
    pairs = [(-X, W) for X, W in reversed(half) if X] + half
    _NODE_CACHE[key] = result = tuple(
        (mp.make_mpf(from_man_exp(X, -F)), mp.make_mpf(from_man_exp(W, -F))) for X, W in pairs)
    return result


def _poly_eval(coeffs, z):
    acc = mpc(0)
    for a in reversed(coeffs):
        acc = acc * z + a
    return acc


def _size_search(c, D, bits):
    """Float search for the rule size: the least n over s = log(rho) > 0
    with (32/15) e^(c sinh s + (2 - 2n) s)/(e^(2s) - 1) <= 2^-bits (12D + 8),
    arc_rule's truncation bound over its rounding term at n = 0 (c = pi y
    D), and that s; golden-section search on the n that each s needs."""
    K = math.log(32 / 15) + bits * math.log(2) - math.log(12 * D + 8)

    def need(s):
        return 1 + (K + c * math.sinh(s) - 2 * s - math.log(-math.expm1(-2 * s))) / (2 * s)

    lo, hi = 2.0 ** -20, min(700.0, math.asinh(2 * K / c) + 1 if c else 700.0)
    r = (math.sqrt(5) - 1) / 2
    for _ in range(60):
        s1, s2 = hi - r * (hi - lo), lo + r * (hi - lo)
        if need(s1) <= need(s2):
            hi = s2
        else:
            lo = s1
    s = (lo + hi) / 2
    return max(2, math.ceil(need(s))), s


@functools.lru_cache(maxsize=256)
def _rule(y, D, bits):
    """arc_rule's n and its error per unit of A, for band fraction y and
    degree sum D: the float size, raised until mpmath.iv confirms it."""
    with iv_workprec(53):
        y, u = iv.mpf(y), iv.mpf(2) ** -bits
        n, s = _size_search(float(iv_ends(iv.pi * y).hi) * D, D, bits)
        rho = iv.exp(iv.mpf(s))
        b = (rho - 1 / rho) / 2
        scale = iv.mpf(64) / 15 * iv.exp(iv.pi * y * b * D) / (rho * rho - 1)
        target = iv_ends(2 * u * (12 * D + 8)).lo
        while iv_ends(scale * rho ** (2 - 2 * n)).hi > target:
            n += 1
        error = (scale * rho ** (2 - 2 * n) / 2
                 + iv.mpf(2) ** (-bits - NODE_GUARD) * (1 + 2 * iv.pi * y * D) / 2
                 + u * (2 * n + 12 * D + 8))
        return n, iv_ends(error).hi


def _coefficients(coeffs, bits):
    """The coefficients as mpc at ``bits``; mpf and mpc ones unrounded."""
    with workprec(bits):
        return [keep_complex(a) for a in coeffs]


def arc_rule(f_coeffs, g_coeffs, params: SystemParams, bits=None):
    """(n, error): the size n of the Gauss-Legendre rule that
    arc_inner_product runs on these polynomials at ``bits``, and a proven
    bound on the distance of its value from the exact inner product of the
    coefficients as mpc at ``bits`` (exact for int below 2^bits, float,
    mpf and mpc).

    With z = e^{i pi y x}, the value is half the integral over x in [-1, 1]
    of f(x) = P(z) conj(Q(z)). f is entire, and on the Bernstein ellipse
    E_rho, where |Im x| <= b = (rho - 1/rho)/2, |f| <= M = A e^{pi y b D},
    with A = ||P||_1 ||Q||_1 and D = deg P + deg Q. The n-point rule,
    exact to degree 2n - 1, errs on the integral by at most
    (64/15) M rho^(2-2n)/(rho^2 - 1) for n >= 2 (Trefethen, Approximation
    Theory and Approximation Practice, SIAM 2013, Thm 19.3, which counts
    n + 1 points). The error is half the sum of three terms:

    * that truncation bound;
    * A 2^-(bits+NODE_GUARD) (1 + 2 pi y D), from legendre_nodes' nodes and
      weights, since |f| <= A and |f'| <= pi y D A on [-1, 1];
    * A 2^(1-bits) (2n + 12D + 8), the rounding at ``bits``: with
      u = 2^-bits, z is within 7u of e^{i pi y x}, each computed value of
      f within (12D + 2) A u of f, and the weighted terms and their running
      sum add at most 2 (n + 1) A u per unit of weight; the weights sum
      to 2.

    n is the least size whose truncation bound is at most the rounding term
    with n = 0: searched in floats over rho, then checked outward in
    mpmath.iv, where the error is also summed. Raises ConvergenceError when
    n exceeds QUAD_NODE_CAP (read at call time), before any rule is built.
    """
    bits = params.bits if bits is None else check_bits(bits)
    P, Q = _coefficients(f_coeffs, bits), _coefficients(g_coeffs, bits)
    n, unit = _rule(params.y, max(len(P) - 1, 0) + max(len(Q) - 1, 0), bits)
    if n > QUAD_NODE_CAP:
        raise ConvergenceError(f"arc_inner_product needs a {n}-point rule, above "
                               f"QUAD_NODE_CAP = {QUAD_NODE_CAP}")
    with iv_workprec(53):
        A = 1
        for coeffs in (P, Q):  # ||.||_1 <= sum |Re a| + |Im a|
            A *= sum((iv.mpf(abs(a.real)) + iv.mpf(abs(a.imag)) for a in coeffs if a),
                     iv.mpf(0))
        return n, iv_ends(A * unit).hi


def arc_inner_product(f_coeffs, g_coeffs, params: SystemParams, bits=None):
    """Arclength inner product (1/L) int_Gamma f conj(g) |dz| of polynomials.

    The test oracle for the closed-form Gram entries, never a production
    path. With z = e^{i pi y x} it is half the integral over x in [-1, 1]
    of f(z) conj(g(z)), which one Gauss-Legendre rule of arc_rule's size
    computes at ``bits`` to within arc_rule's error. With real coefficients
    the integrand at -x is the conjugate of that at x, and each pair of
    nodes +-x costs one evaluation. Raises ConvergenceError as arc_rule
    does, before any rule is built.
    """
    bits = params.bits if bits is None else check_bits(bits)
    P, Q = _coefficients(f_coeffs, bits), _coefficients(g_coeffs, bits)
    n, _ = arc_rule(P, Q, params, bits)
    real = not any(a.imag for a in P + Q)
    with workprec(bits):
        half = mp.pi * params.y
        total = mpc(0)
        for x, w in legendre_nodes(n, bits):
            if real and x < 0:
                continue
            z = mp.expj(half * x)
            val = w * (_poly_eval(P, z) * mp.conj(_poly_eval(Q, z)))
            total += 2 * val.real if real and x else val
        return total / 2


# ---------------------------------------------------------------------------
# the Szego reproduction: nested trapezoid rules, one loop per piece

# Trapezoid levels whose rule has more than this many panels are not kept in
# the node table: a point near the arc can double toward QUAD_NODE_CAP, and its
# nodes would otherwise stay behind for the life of the process. The point
# itself (_Point) keeps them until the next point replaces it.
RETAIN_NODES = 2 ** 10


class _NodeTable:
    """Nested trapezoid nodes on one piece of the unit circle, the preimage
    of the slit, in fixed point.

    The circle splits at the arc-endpoint preimages t = +-t0, cos t0 = -c,
    where the boundary integrand has square-root kinks: piece 0 is
    [-t0, t0] and piece 1 is [t0, 2 pi - t0]. Under the substitution
    t = a + width (1 - cos(pi s))/2, s in [0, 1], each piece's integrand is
    sin^2(pi s) times an even, periodic, analytic function of pi s, so the
    trapezoid rule with m panels, (1/m) sum_{0<k<m} g(k/m), converges
    geometrically (the endpoint terms vanish) and doubling m adds only the
    nodes with odd k. A node is (w, h): w = e^{it}, and the part of the
    kernel trace that depends on the node alone,
    h = sqrt(1 + 2c u + u^2)/(w + c) * dt/ds with u = conj(w) = 1/w, held
    as the integers (Re w, Im w, Re h, Im h) at scale 2^F, F = bits +
    FIXED_GUARD, each rounded down. ``levels`` maps j to level j, the nodes
    the m = 2^(j+1)-panel rule adds to the m/2-panel one; a level whose rule
    has more than RETAIN_NODES panels is computed on use and not kept.
    """

    def __init__(self, c, bits, piece):
        self.c, self.bits, self.frac = c, bits, bits + FIXED_GUARD
        with workprec(bits):
            t0 = mp.acos(-c)
            self.a, self.width = (-t0, 2 * t0) if piece == 0 else (t0, 2 * (mp.pi - t0))
        self.levels = {}

    def _level(self, m):
        """The nodes s = k/m with k odd: those the m-panel rule adds."""
        c, a, width, F = self.c, self.a, self.width, self.frac
        for k in range(1, m, 2):
            with workprec(self.bits):
                s = mpf(k) / m
                w = mp.expj(a + width * (1 - mp.cospi(s)) / 2)
                u = mp.conj(w)
                h = mp.sqrt(1 + (2 * c + u) * u) / (w + c) \
                    * (width * (mp.pi / 2) * mp.sinpi(s))
            yield tuple(to_fixed(x._mpf_, F) for x in (w.real, w.imag, h.real, h.imag))

    def level(self, j):
        """Level j's nodes, kept when its rule has at most RETAIN_NODES panels."""
        nodes = self.levels.get(j)
        if nodes is None:
            nodes = list(self._level(2 << j))
            if 2 << j <= RETAIN_NODES:
                self.levels[j] = nodes
        return nodes


# one table per (c, bits, piece), shared by every n and z on that arc; 8
# tables hold both pieces of four arcs, and a full table of RETAIN_NODES
# nodes takes about 0.35 MB at 256 bits
_node_table = functools.lru_cache(maxsize=8)(_NodeTable)


class _Point:
    """What szego_reproduce keeps of one point z, shared by every degree:
    W = Phi(z), K0 = (L/pi) sqrt(Phi'(z)) W sqrt(c), e = mag(W), and in
    ``levels``, keyed by (piece, j), each node table level's
    (Re w, Im w, Re r, Im r), r = h/(W - w) at scale 2^(F + e) with the
    table's F, rounded down, and its largest |r|^2. Every level asked for
    is kept, above RETAIN_NODES panels too, so each is evaluated and
    divided once per point, whatever the number of degrees.
    """

    def __init__(self, params, z):
        c = params.c
        with workprec(params.bits):
            self.W = W = Phi_map(c, z, bits=params.bits)
            self.K0 = (params.arc_length / mp.pi) * (1 / phi_prime_sqrt(c, W)) * W * mp.sqrt(c)
        self.e = int(mp.mag(W))
        self.levels = {}

    def level(self, table, piece, j):
        """Level j of ``table``, the node table of ``piece``, as its ratios
        and their largest |r|^2: one integer complex division per node."""
        kept = self.levels.get((piece, j))
        if kept is not None:
            return kept
        F = table.frac
        Wr, Wi = (to_fixed(x._mpf_, F) for x in (self.W.real, self.W.imag))
        shift = F + self.e
        out, peak = [], 0
        for wr, wi, hr, hi in table.level(j):
            dr, di = Wr - wr, Wi - wi
            den = dr * dr + di * di
            rr = ((hr * dr + hi * di) << shift) // den
            ri = ((hi * dr - hr * di) << shift) // den
            out.append((wr, wi, rr, ri))
            peak = max(peak, rr * rr + ri * ri)
        self.levels[piece, j] = out, peak
        return out, peak


# the last point only, freed when the next one arrives; keeping more pays only
# when a point repeats. Its levels take about 350 bytes a node at 256 bits
# (more at more bits): 0.36 MB per piece up to RETAIN_NODES panels, and at
# worst, QUAD_NODE_CAP panels on both pieces, 2^17 - 2 nodes or about 46 MB
_point = functools.lru_cache(maxsize=1)(_Point)


def _level_sum(pairs, n, F):
    """sum r conj(w)^(n-1) (n = 0: sum r w) over one level's (Re w, Im w,
    Re r, Im r), w at scale 2^F and r at 2^(F+e): integers at scale
    2^(2F+e), exact but for the binary powers of w, whose every product
    rounds down, by under one unit a part."""
    if n == 1:
        return sum(p[2] for p in pairs) << F, sum(p[3] for p in pairs) << F
    m, conj = (1, 1) if n == 0 else (n - 1, -1)
    sr = si = 0
    for wr, wi, rr, ri in pairs:
        x, y, k = wr, conj * wi, m
        while not k & 1:
            x, y, k = ((x + y) * (x - y)) >> F, (2 * x * y) >> F, k >> 1
        pr, pi = x, y
        while k > 1:
            x, y, k = ((x + y) * (x - y)) >> F, (2 * x * y) >> F, k >> 1
            if k & 1:
                pr, pi = (pr * x - pi * y) >> F, (pr * y + pi * x) >> F
        sr += rr * pr - ri * pi
        si += rr * pi + ri * pr
    return sr, si


def szego_reproduce(params: SystemParams, n, z):
    """Reproduce F(z) = Phi(z)^{-n} from its boundary trace via the kernel.

    Evaluates the reproducing integral over the slit boundary (the arc
    covered once per side, i.e. the full |w| = 1 preimage) with the single-
    traversal normalization: value = (1/(2L)) * \\oint F conj(K) |dzeta|.
    On |w| = 1, with W = Phi(z), the integrand F conj(K(zeta, z)) |phi'(w)|
    is K0 u^(n-1) sqrt(1 + 2c u + u^2)/((w + c)(W - w)), u = conj(w), and
    K0 = (L/pi) sqrt(Phi'(z)) W sqrt(c). The boundary integrand has
    square-root kinks at the two arc-endpoint preimages cos(t) = -c, so
    the circle splits there and each piece is integrated by a nested
    trapezoid rule under a kink-flattening substitution (``_NodeTable``).

    One loop per piece runs over the levels j = 0, 1, ..., the rules of
    m = 2^(j+1) panels, and adds each level's new nodes to the sum, so
    stopping at m panels costs m - 1 nodes per piece. From QUAD_START_NODES
    panels on, the piece is done when two successive rules agree to
    QUAD_REL_TARGET relative to max(|integral|, sampled peak |integrand|),
    which keeps integrals that vanish by symmetry from chasing an
    impossible relative tolerance; past QUAD_NODE_CAP panels it raises
    ConvergenceError. The constants are read at call time. Everything that
    depends on the node alone sits in a per-arc table shared by every n and
    z on the same arc at the same bits; W, K0 and the ratios r = h/(W - w)
    are kept for the last point (``_point``), shared by every degree there.

    Rounding: the sums are exact integers but for one binary power of w
    per node and degree, and become an mpc once per rule. With F = bits +
    FIXED_GUARD, rho = 2^(1/2 - F), m = |n - 1| < 2^(F/3 - 1) and inputs
    within rho of w and rho 2^-e of r, each term r conj(w)^m (n = 0: r w)
    is within rho (2m |r| + 2^(1-e)) of its exact value, so a rule's sum
    over its panels is within rho (2m peak + 2^(1-e)) of its own, where
    peak = max |r|.
    """
    bits = params.bits
    n = as_count(n, "n")
    z = keep_complex(z)
    if not mp.isfinite(z):
        raise DomainError(f"reproduction point is not finite: {z}")
    point = _point(params, z)
    K0, e = point.K0, point.e
    parts = []
    with workprec(bits):
        for piece in (0, 1):
            table = _node_table(params.c, bits, piece)
            F, sr, si, sq, prev = table.frac, 0, 0, 0, None
            for j in range(QUAD_NODE_CAP.bit_length() - 1):  # 2^(j+1) <= QUAD_NODE_CAP
                pairs, pk = point.level(table, piece, j)
                dr, di = _level_sum(pairs, n, F)
                sr, si, sq = sr + dr, si + di, max(sq, pk)
                m = 2 << j
                if m < QUAD_START_NODES:
                    continue
                cur = K0 * mpc(mpf((sr, -2 * F - e)), mpf((si, -2 * F - e))) / m
                peak = abs(K0) * mp.ldexp(mp.sqrt(sq), -F - e)
                if prev is not None and abs(cur - prev) <= QUAD_REL_TARGET * max(abs(cur), peak):
                    break
                prev = cur
            else:
                raise ConvergenceError(
                    f"quadrature did not converge to rel {QUAD_REL_TARGET} "
                    f"within {QUAD_NODE_CAP} panels")
            parts.append(cur)
        return (parts[0] + parts[1]) / (2 * params.arc_length)


# ---------------------------------------------------------------------------
# Faber polynomials by their exact recurrence
#
# phi is rational, so the Faber generating function (Curtiss, "Faber
# polynomials and the Faber series", Amer. Math. Monthly 78, 1971)
#     phi'(w)/(phi(w) - z) = sum_n F_n(z) w^(-n-1)
#                          = c (w^2 + 2cw + 1)/((w + c)(c w^2 + (1 - z) w - c z))
# has a cubic denominator in w, and matching powers of w gives the four-term
# recurrence that faber_poly runs.


def faber_poly(params: SystemParams, n):
    """Faber polynomial F_n of the arc: the polynomial part of Phi(z)^n.

    Returned as ascending real coefficients; the leading one is c^{-n}.
    Built from F_0 = 1 (and F_m = 0 for m < 0) by the exact recurrence of
    the rational exterior map (Curtiss 1971, see above)
        c F_m = r_m - (1 + c^2 - z) F_{m-1} - c (1 - 2z) F_{m-2} + c^2 z F_{m-3},
    r_1 = 2c^2, r_2 = c and r_m = 0 otherwise, at params.bits.
    """
    n = as_count(n, "Faber degree")
    c = params.c
    with workprec(params.bits):
        c2 = c * c
        r = {1: 2 * c2, 2: c}
        F = [[mpf(1)]]  # F[m] holds the m + 1 coefficients of F_m

        def at(m, i):
            """Coefficient of z^i in F_m, zero outside the stored range."""
            return F[m][i] if m >= 0 and 0 <= i <= m else 0

        for m in range(1, n + 1):
            F.append([(r.get(m, 0) * (i == 0)
                       - (1 + c2) * at(m - 1, i) + at(m - 1, i - 1)
                       - c * at(m - 2, i) + 2 * c * at(m - 2, i - 1)
                       + c2 * at(m - 3, i - 1)) / c
                      for i in range(m + 1)])
        return tuple(F[n])


# ---------------------------------------------------------------------------
# orthogonal polynomial leading coefficients


@dataclass(frozen=True)
class OrthoPolyTable:
    """Leading coefficients k_n of the arc-orthonormal polynomials.

    Realized through the Cholesky factor of the monomial Gram matrix:
    k_n = 1 / L[n][n], the reciprocal distance from z^n to lower degrees.
    """

    n_max: int
    k_values: tuple
    bits: int

    def thm10_checks(self, params: SystemParams):
        """Two-sided bracket c/(2y) c^{2n} <= k_n^{-2} <= 4 (1+2y)^2 c^{2n}."""
        c, y = params.c, params.y
        with workprec(self.bits):
            out = []
            for n, k in enumerate(self.k_values):
                val = 1 / (k * k)
                lo = c / (2 * y) * c ** (2 * n)
                hi = 4 * (1 + 2 * y) ** 2 * c ** (2 * n)
                out.append(bound_check(f"kn_bracket_lower[n={n}]", lo, val))
                out.append(bound_check(f"kn_bracket_upper[n={n}]", val, hi))
            return out


def leading_coeffs(params: SystemParams, n_max, bits=None) -> OrthoPolyTable:
    """k_0..k_{n_max} from the Cholesky factor of the contiguous Gram matrix."""
    bits = params.bits if bits is None else check_bits(bits)
    n_max = as_count(n_max, "n_max")
    G = build_gram(params, SupportSet(tuple(range(n_max + 1))), bits=bits)
    L = hp_cholesky(G, bits=bits)
    with workprec(bits):
        ks = tuple(1 / L[i][i] for i in range(n_max + 1))
    return OrthoPolyTable(n_max=n_max, k_values=ks, bits=bits)


# ---------------------------------------------------------------------------
# sampled bound suite (numpy; float64 with rounding cushions)


def _np_phi(c, w):
    return w * (c * w + 1) / (w + c)


def _np_phi_prime(c, w):
    return c * (w * w + 2 * c * w + 1) / ((w + c) ** 2)


def _np_poly_eval(coeff_rows, z):
    """Rows of coefficients (ascending) evaluated at points z: (rows, len(z))."""
    import numpy as np

    powers = z[None, :] ** np.arange(coeff_rows.shape[1])[:, None]
    return coeff_rows @ powers


def _np_faber_arc(params: SystemParams, n):
    """|F_m| at the ARC_SAMPLES arc points, one row per degree m = 0..n.

    The four-term recurrence of faber_poly run on the values, in complex128:
    on the arc two of its characteristic roots (the preimages of z under
    phi) lie on |w| = 1 and the third is -c, so rounding errors grow only
    polynomially in m. Summing coefficients that reach c^-n, as a float64
    Horner evaluation of faber_poly does, cancels away every digit for
    small y.
    """
    import numpy as np

    c, y = float(params.c), float(params.y)
    z = np.exp(1j * np.linspace(-np.pi * y, np.pi * y, ARC_SAMPLES))
    r = {1: 2 * c * c, 2: c}
    f3, f2, f1 = np.zeros_like(z), np.zeros_like(z), np.ones_like(z)
    rows = [np.abs(f1)]
    for m in range(1, n + 1):
        f = (r.get(m, 0) - (1 + c * c - z) * f1 - c * (1 - 2 * z) * f2 + c * c * z * f3) / c
        f3, f2, f1 = f2, f1, f
        rows.append(np.abs(f))
    return np.array(rows)


def faber_arc_max(params: SystemParams, n):
    """Sampled max of |F_m| on the arc (ARC_SAMPLES points) plus
    FABER_CUSHION, for every degree m = 0..n, as a tuple of mpf."""
    n = as_count(n, "Faber degree")
    peaks = _np_faber_arc(params, n).max(axis=1)
    with workprec(params.bits):
        return tuple(mpf(float(p)) + FABER_CUSHION for p in peaks)


@dataclass(frozen=True)
class BoundSuiteResult:
    checks: tuple
    samples: int
    polys: int


def _unit_arc_polys(params, degree, count, rng):
    """Random degree-n polynomials with unit arc norm (coefficients sampled
    on the complex sphere, then normalized through the Gram quadratic form)."""
    import numpy as np

    y = float(params.y)
    m = np.arange(degree + 1)
    diff = np.pi * y * (m[None, :] - m[:, None])
    G = np.ones_like(diff)
    nz = diff != 0
    G[nz] = np.sin(diff[nz]) / diff[nz]
    C = rng.standard_normal((count, degree + 1)) + 1j * rng.standard_normal((count, degree + 1))
    norms = np.sqrt(np.einsum("pi,ij,pj->p", C.conj(), G, C).real)
    return C / norms[:, None]


def bound_suite(params: SystemParams, n_max, samples=DEFAULT_SAMPLES, seed=0,
                polys=DEFAULT_POLYS) -> BoundSuiteResult:
    """Certify the explicit arc inequalities on sampled points.

    Emits, per degree n <= n_max:
      (a) the two-sided bracket on k_n^{-2},
      (b) sampled max of |Faber_n| on the arc against 2(1+2y),
      (c) exterior growth of random unit-norm polynomials against the
          kernel-based envelope at points with |Phi(z)| >= 1.1,
      (d) the flat bound inside the |Phi(z)| = 2 region,
      (f) the measured ratio k_n^{-2} / ((c/y) c^{2n}) (recorded, not asserted),
    and once overall:
      (e) the elementary envelope for |Phi'(z)|.
    An n_max whose upper bracket 4 (1+2y)^2 c^{2 n_max} lies below 2^-bits,
    bits = params.bits, is refused with DomainError before any section
    runs: no Cholesky at those bits can resolve k_n there.
    """
    import numpy as np

    bits = params.bits
    n_max = as_count(n_max, "n_max", 1)
    samples = as_count(samples, "samples", 100)
    polys = as_count(polys, "polys", 1)
    with workprec(bits):
        if 4 * (1 + 2 * params.y) ** 2 * params.c ** (2 * n_max) < mpf(2) ** -bits:
            raise DomainError(
                f"n_max = {n_max} is beyond what {bits} bits resolve: "
                f"4 (1+2y)^2 c^(2 n_max) < 2^-{bits}")
    checks = []
    rng = np.random.default_rng(seed)

    c = float(params.c)
    L = float(params.arc_length)

    table = leading_coeffs(params, n_max)
    checks.extend(table.thm10_checks(params))
    with workprec(bits):
        for n, k in enumerate(table.k_values):
            ratio = (1 / (k * k)) / ((params.c / params.y) * params.c ** (2 * n))
            checks.append(bound_check(f"kn_asymptotic_ratio[n={n}]", 0, ratio))
        rot_bound = 2 * (1 + 2 * params.y)
    for n, peak in enumerate(faber_arc_max(params, n_max)):
        checks.append(bound_check(f"faber_arc_max[n={n}]", peak, rot_bound))

    r_ext = rng.uniform(1.1, 5.0, samples)
    t_ext = rng.uniform(-np.pi, np.pi, samples)
    w_ext = r_ext * np.exp(1j * t_ext)
    z_ext = _np_phi(c, w_ext)
    dphi_ext = np.abs(1.0 / _np_phi_prime(c, w_ext))

    r_ban = rng.uniform(1.02, 2.0, samples)
    t_ban = rng.uniform(-np.pi, np.pi, samples)
    w_ban = r_ban * np.exp(1j * t_ban)
    z_ban = _np_phi(c, w_ban)
    dphi_ban = np.abs(1.0 / _np_phi_prime(c, w_ban))

    for n in range(1, n_max + 1):
        P = _unit_arc_polys(params, n, polys, rng)
        vals_ext = np.abs(_np_poly_eval(P, z_ext)) ** 2
        rhs_ext = (L / np.pi) * dphi_ext * r_ext ** 2 / (r_ext ** 2 - 1) \
            * r_ext ** (2 * n)
        ratio_ext = (vals_ext / rhs_ext[None, :]).max()
        checks.append(bound_check(f"growth_exterior[n={n}]", mpf(float(ratio_ext)), 1))

        vals_ban = np.abs(_np_poly_eval(P, z_ban)) ** 2
        rhs_ban = (4 * L / np.pi) / (c * np.sqrt(1 - c * c)) * 4.0 ** n
        ratio_ban = (vals_ban / rhs_ban).max()
        checks.append(bound_check(f"growth_inside_gamma2[n={n}]", mpf(float(ratio_ban)), 1))

    env = 1.0 / (c * np.sqrt(1 - c * c))
    r_all = np.concatenate([r_ext, r_ban])
    dphi_all = np.concatenate([dphi_ext, dphi_ban])
    rhs_env = env * (r_all + c) ** 2 / (r_all ** 2 - 1)
    ratio_env = (dphi_all / rhs_env).max()
    checks.append(bound_check("phi_prime_envelope", mpf(float(ratio_env)), 1))

    return BoundSuiteResult(checks=tuple(checks), samples=samples, polys=polys)
