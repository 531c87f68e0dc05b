"""Shared test helpers."""

from mpmath import mpf, workprec


def lit(text):
    """Parse a frozen decimal literal at high precision.

    mpf() at the ambient (53-bit) precision would truncate the literal and
    defeat tolerances tighter than ~1e-16.
    """
    with workprec(320):
        return mpf(text)


def full_precision_work(monkeypatch):
    """Two lists, filled from here on with the bits of every full-precision
    Cholesky factor and solve that hp begins: a cholesky_row call for row 0
    (a factor, whether it then completes or not) and a back_substitute call,
    each at a scale above min_eig's first run at 2^START_BITS. The factors
    are the iteration's own and every hp_cholesky, the certifying one
    among them."""
    from srflimits import hp

    factors, solves = [], []
    real_row, real_back = hp.cholesky_row, hp.back_substitute

    def row(L, cross, diag, frac):
        if not L and frac > hp.START_BITS:
            factors.append(frac - hp.FIXED_GUARD)
        return real_row(L, cross, diag, frac)

    def back(L, y, frac):
        if frac > hp.START_BITS:
            solves.append(frac - hp.FIXED_GUARD)
        return real_back(L, y, frac)

    monkeypatch.setattr(hp, "cholesky_row", row)
    monkeypatch.setattr(hp, "back_substitute", back)
    return factors, solves
