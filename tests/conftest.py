"""Shared test helpers."""

from mpmath import mpf, workprec


def lit(text):
    """Parse a frozen decimal literal at high precision.

    mpf() at the ambient (53-bit) precision would truncate the literal and
    defeat tolerances tighter than ~1e-16.
    """
    with workprec(320):
        return mpf(text)


def inertia_below(M, shift, bits):
    """Number of eigenvalues of M below ``shift``: negative LDL^T pivots."""
    n = len(M)
    with workprec(bits):
        A = [[M[i][j] - (shift if i == j else 0) for j in range(n)] for i in range(n)]
        negative = 0
        for k in range(n):
            d = A[k][k]
            negative += d < 0
            for i in range(k + 1, n):
                f = A[i][k] / d
                for j in range(k + 1, n):
                    A[i][j] -= f * A[k][j]
    return negative
