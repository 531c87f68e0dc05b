"""Independent checks of srflimits outputs, built on mpmath alone.

Nothing here imports srflimits. Every expected value is re-derived from a
closed form (sinc Gram entries, the exterior conformal map, binomial
ranks), so a fault in the program cannot vouch for itself.

Smallest eigenvalues are checked by Sylvester inertia: the number of
negative pivots in an LDL^T factorization of G - s*I equals the number of
eigenvalues of G below s.
"""

from __future__ import annotations

import itertools
from math import comb

from mpmath import mp, mpf, workprec

REL = mpf("1e-6")  # relative width of the inertia bracket around lambda
CHECK_BITS = 512  # at least twice the 256-bit report precision


def dec(obj) -> mpf:
    """Decode a report number {"dec": ..., "bits": ...} without loss."""
    with workprec(obj["bits"] + 8):
        return mpf(obj["dec"])


def sinc_table(y, span, bits):
    """[sinc(pi*y*m) for m = 0..span] at ``bits``; y is a decimal string."""
    with workprec(bits):
        yv = mpf(y)
        out = [mpf(1)]
        for m in range(1, span + 1):
            x = mp.pi * yv * m
            out.append(mp.sin(x) / x)
        return out


def gram(table, offsets):
    """Gram matrix of the atoms at ``offsets`` from a sinc table."""
    return [[table[abs(b - a)] for b in offsets] for a in offsets]


def pivots(G, shift, bits):
    """Pivots of the LDL^T factorization of G - shift*I (no pivoting)."""
    n = len(G)
    with workprec(bits):
        A = [[G[i][j] - (shift if i == j else 0) for j in range(n)] for i in range(n)]
        out = []
        for k in range(n):
            d = A[k][k]
            if d == 0:
                raise ArithmeticError("zero pivot: shift hits an eigenvalue")
            out.append(d)
            row_k = A[k]
            for i in range(k + 1, n):
                f = A[i][k] / d
                row_i = A[i]
                for j in range(k + 1, n):
                    row_i[j] -= f * row_k[j]
        return out


def below(G, shift, bits=CHECK_BITS) -> int:
    """Number of eigenvalues of G below ``shift`` (Sylvester inertia)."""
    return sum(1 for d in pivots(G, shift, bits) if d < 0)


def is_min_eig(G, lam, bits=CHECK_BITS) -> bool:
    """lam is within REL of lambda_min(G): no eigenvalue lies below
    lam*(1 - REL) and exactly one lies below lam*(1 + REL)."""
    with workprec(bits):
        lo, hi = lam * (1 - REL), lam * (1 + REL)
    return below(G, lo, bits) == 0 and below(G, hi, bits) == 1


def canonical_supports(size, span):
    """Every support 0 = t_0 < ... < t_{size-1} <= span."""
    return [(0,) + rest for rest in itertools.combinations(range(1, span + 1), size - 1)]


def is_min_over_supports(y, size, span, lam, attaining=None, bits=CHECK_BITS) -> bool:
    """lam is within REL of the minimum of lambda_min over all canonical
    supports of ``size`` within ``span``; if ``attaining`` is given, that
    support reaches it."""
    table = sinc_table(y, span, bits)
    with workprec(bits):
        lo, hi = lam * (1 - REL), lam * (1 + REL)
    if any(below(gram(table, T), lo, bits) for T in canonical_supports(size, span)):
        return False
    if attaining is not None:
        return is_min_eig(gram(table, attaining), lam, bits)
    return any(below(gram(table, T), hi, bits) for T in canonical_supports(size, span))


def lex_rank(subset, window_size) -> int:
    """1-based lexicographic rank of a sorted index subset among all subsets
    of range(window_size) of the same size."""
    k = len(subset)
    before, prev = 0, -1
    for i, t in enumerate(subset):
        for v in range(prev + 1, t):
            before += comb(window_size - 1 - v, k - 1 - i)
        prev = t
    return before + 1


# --- per-job checks -------------------------------------------------------


def check_min_eig(y, n, value, bits_used) -> bool:
    """lambda_min of the contiguous Gram matrix over {0..n}."""
    bits = max(CHECK_BITS, 2 * bits_used)
    return is_min_eig(gram(sinc_table(y, n, bits), range(n + 1)), value, bits)


def check_leading_coeffs(y, k_values) -> bool:
    """k_n^-2 is the n-th LDL^T pivot of the contiguous Gram matrix, and the
    chain sigma_min({0..n}) <= k_n^-1 <= 4 c^n holds for every n >= 1.
    The program computes k_n at 512 bits; the check works at twice that."""
    bits = 2 * CHECK_BITS
    n_max = len(k_values) - 1
    table = sinc_table(y, n_max, bits)
    G = gram(table, range(n_max + 1))
    piv = pivots(G, 0, bits)
    with workprec(bits):
        c = mp.sin(mp.pi * mpf(y) / 2)
        for n, k in enumerate(k_values):
            inv2 = 1 / (k * k)
            if abs(inv2 - piv[n]) > mpf("1e-30") * piv[n]:
                return False
            if n >= 1 and (below(gram(table, range(n + 1)), inv2, bits) < 1
                           or 1 / k > 4 * c ** n):
                return False
    return True


def check_epsilon(report, y, k, span) -> bool:
    """Exhaustive eps_k: the reported support attains it and no canonical
    support within the span goes below it."""
    res = report["results"]
    T = tuple(res["attaining_support"])
    if (report["status"] != "pass" or res["k"] != k or res["span_searched"] != span
            or len(T) != k or T[0] != 0 or T[-1] > span):
        return False
    with workprec(CHECK_BITS):
        lam = dec(res["epsilon"]) ** 2
    return is_min_over_supports(y, k, span, lam, attaining=T)


def check_contiguity(report, y, size, span) -> bool:
    """Every canonical support is in the table with a correct sigma_min, the
    contiguous support is the strict minimizer, and sigma_min grows under
    componentwise wider gaps (valid for span < 1/y)."""
    res = report["results"]
    count = comb(span, size - 1)
    rows = [(tuple(r["support"]), dec(r["sigma_min"])) for r in res["table"]]
    supports = {T for T, _ in rows}
    if (report["status"] != "pass" or not res["holds"]
            or res["supports_checked"] != count or len(rows) != count
            or len(supports) != count
            or any(len(T) != size or T[0] != 0 or T[-1] > span for T in supports)):
        return False
    table = sinc_table(y, span, CHECK_BITS)
    with workprec(CHECK_BITS):
        if not all(is_min_eig(gram(table, T), s * s) for T, s in rows):
            return False
    contiguous = tuple(range(size))
    vals = dict(rows)
    if any(v <= vals[contiguous] for T, v in rows if T != contiguous):
        return False
    gaps = [(tuple(b - a for a, b in zip(T, T[1:])), v) for T, v in rows]
    for (ga, va), (gb, vb) in itertools.combinations(gaps, 2):
        if ga == gb:
            continue
        if all(p >= q for p, q in zip(ga, gb)) and not va > vb:
            return False
        if all(q >= p for p, q in zip(ga, gb)) and not vb > va:
            return False
    return True


def check_recover(report, planted, coeffs, window_size, sigma) -> bool:
    """The planted support and coefficients come back, and the solver
    examined exactly the supports up to the planted one in its order
    (all smaller sizes, then lexicographic within the planted size)."""
    res = report["results"]
    k = len(planted)
    examined = sum(comb(window_size, s) for s in range(k)) + lex_rank(planted, window_size)
    est = res["estimate"]
    if (report["status"] != "pass" or tuple(res["support"]) != tuple(planted)
            or res["sparsity"] != k or res["supports_examined"] != examined
            or est is None or tuple(est["support"]) != tuple(planted)):
        return False
    with workprec(CHECK_BITS):
        got = [mp.mpc(mpf(re), mpf(im)) for re, im in zip(est["re"], est["im"])]
        want = [mp.mpmathify(c) for c in coeffs]
        scale = max(abs(c) for c in want)
        if any(abs(g - w) > mpf("1e-30") * scale for g, w in zip(got, want)):
            return False
        return dec(res["residual"]) <= mpf(sigma)


def check_minimax(report, y, k, sigma, span) -> bool:
    """eps_2k is re-derived by inertia over every canonical 2k-support in
    the span, and both sides of the sandwich are recomputed from it:
    err_x0 <= 2 sigma/eps_2k and max(err_x0, err_x1) >= sigma/(2 eps_2k)."""
    res = report["results"]
    if report["status"] != "pass" or not 0 <= res["recovered_sparsity"] <= k:
        return False
    with workprec(CHECK_BITS):
        eps = dec(res["eps_2k"])
        s = mpf(sigma)
        upper, lower = 2 * s / eps, s / (2 * eps)
        err0, err1 = dec(res["err_x0"]), dec(res["err_x1"])
        tol = mpf("1e-12")  # srf parses --sigma at 53 bits
        if (abs(dec(res["upper_bound"]) - upper) > tol * upper
                or abs(dec(res["lower_bound"]) - lower) > tol * lower
                or not err0 <= upper or not max(err0, err1) >= lower):
            return False
        lam = eps * eps
    return is_min_over_supports(y, 2 * k, span, lam)


def check_reproduce(w, values, tol="1e-8") -> bool:
    """values[n] reproduces w^-n, w the preimage the point was made from."""
    with workprec(CHECK_BITS):
        for n, v in enumerate(values):
            ref = w ** (-n)
            if abs(v - ref) > mpf(tol) * abs(ref):
                return False
    return True


def check_arc_inner_product(value, y, m, tol="1e-12") -> bool:
    """(1/L) int_arc z^m |dz| = sinc(pi*y*m)."""
    with workprec(CHECK_BITS):
        return abs(value - sinc_table(y, m, CHECK_BITS)[m]) <= mpf(tol)
