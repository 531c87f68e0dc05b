"""Shared test helpers."""

from mpmath import mpf, workprec


def lit(text):
    """Parse a frozen decimal literal at high precision.

    mpf() at the ambient (53-bit) precision would truncate the literal and
    defeat tolerances tighter than ~1e-16.
    """
    with workprec(320):
        return mpf(text)

