"""Normalized partial Fourier system on the band [-pi*y, pi*y].

Atoms are a_j(theta) = e^{i j theta} / sqrt(2 pi y). Their pairwise inner
products have the closed form sinc(pi y (j2 - j1)), so every Gram matrix,
measurement norm, and residual in this package is computed exactly in
coefficient space; no function-space discretization is ever performed.
Quadrature of the defining integral survives only as a test oracle.

A Gram matrix is a tuple of row tuples of mpf entries, as ``build_gram``
returns it; every consumer (``hp`` and the scans, solvers and checks built
on it) only indexes it. ``gram_radius`` bounds how far those rounded
entries lie from the exact Gram matrix of the stored y, from an interval
sinc of each offset difference.

``SystemParams.bits``, checked once when the params are made, is the
precision of every function that takes params; only the Gram builders
take another ``bits``, for the precision ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from mpmath import iv, mp, mpc, mpf, workprec

from .errors import DomainError, PrecisionError, SupportError
from .hp import check_bits, iv_ends, iv_workprec, resolve_bits


def _to_mpf(value, bits):
    """Parse a real parameter at the given precision (str keeps all digits);
    text that spells no number is a DomainError."""
    with workprec(bits):
        if isinstance(value, Fraction):
            return mpf(value.numerator) / mpf(value.denominator)
        try:
            if not (isinstance(value, str) and "/" in value):
                return mpf(value)
            num, den = (mpf(part.strip()) for part in value.split("/", 1))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"cannot parse {value!r} as a real number") from exc
        if den == 0:
            raise DomainError(f"zero denominator in {value!r}")
        return num / den


_MPF_ZERO = mpf(0)._mpf_


def keep_real(value):
    """Coerce to mpf without re-rounding values that already are mpf."""
    return value if isinstance(value, mpf) else mpf(value)


def finite_norm(value, name, positive=False):
    """Coerce a norm-like parameter (sigma, rho) to mpf, requiring it finite
    and nonnegative, or positive when ``positive`` is set."""
    x = keep_real(value)
    if not (mp.isfinite(x) and (x > 0 if positive else x >= 0)):
        sign = "positive" if positive else "nonnegative"
        raise DomainError(f"{name} must be finite and {sign}, got {x}")
    return x


def as_count(n, name, least=0):
    """``n`` as an int of at least ``least`` (any sign when ``least`` is
    None); non-integral values are refused, not truncated."""
    bound = "" if least is None else f" >= {least}"
    try:
        d = int(n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be an integer{bound}, got {n!r}") from exc
    if d != n or (least is not None and d < least):
        raise DomainError(f"{name} must be an integer{bound}, got {n!r}")
    return d


def parse_grid(values, bits, name):
    """Grid values parsed at ``bits``; a fit needs at least four, of which
    at least two are distinct."""
    grid = [_to_mpf(v, bits) for v in values]
    if len(grid) < 4:
        raise DomainError(f"need at least 4 {name} grid points")
    if len(set(grid)) < 2:
        raise DomainError(f"degenerate fit: the {name} grid has fewer than two distinct points")
    return grid


def keep_complex(value):
    """Coerce to mpc without re-rounding mpf/mpc values at ambient precision."""
    if isinstance(value, mpc):
        return value
    if isinstance(value, mpf):
        return mp.make_mpc((value._mpf_, _MPF_ZERO))
    return mpc(value)


@dataclass(frozen=True)
class SystemParams:
    """Normalized problem: band fraction y in (0, 1/2), srf = 1/y,
    capacity c = sin(pi*y/2), arc length L = 2*pi*y, all at ``bits``.

    Constructed from (y, bits); the range checks of both (hp.check_bits
    for bits) and the derived fields live here only.
    """

    y: mpf
    srf: mpf = field(init=False)
    c: mpf = field(init=False)
    arc_length: mpf = field(init=False)
    bits: int

    def __post_init__(self):
        object.__setattr__(self, "bits", check_bits(self.bits))
        if not 0 < self.y < mpf("0.5"):
            raise DomainError(f"band fraction y must lie in (0, 1/2), got {self.y}")
        with workprec(self.bits):
            object.__setattr__(self, "srf", 1 / self.y)
            object.__setattr__(self, "c", mp.sin(mp.pi * self.y / 2))
            object.__setattr__(self, "arc_length", 2 * mp.pi * self.y)

    @classmethod
    def from_y(cls, y, bits=None) -> "SystemParams":
        bits = resolve_bits(bits)
        return cls(_to_mpf(y, bits), bits)

    @classmethod
    def from_srf(cls, srf, bits=None) -> "SystemParams":
        bits = resolve_bits(bits)
        sv = _to_mpf(srf, bits)
        if not sv > 2:
            raise DomainError(f"srf must exceed 2 (so that y = 1/srf < 1/2), got {sv}")
        with workprec(bits):
            return cls.from_y(1 / sv, bits=bits)


@dataclass(frozen=True)
class SupportSet:
    """Strictly increasing integer atom offsets tau_0 < ... < tau_n."""

    offsets: tuple

    def __post_init__(self):
        offs = tuple(as_count(t, "support offset", None) for t in self.offsets)
        if not offs:
            raise SupportError("support set must be nonempty")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise SupportError("offsets must be strictly increasing")
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def of(cls, *offsets) -> "SupportSet":
        return cls(tuple(offsets))

    @classmethod
    def coerce(cls, support) -> "SupportSet":
        """A SupportSet as is, or any iterable of offsets (a range, a tuple)."""
        return support if isinstance(support, cls) else cls(tuple(support))

    @classmethod
    def from_text(cls, text) -> "SupportSet":
        """Comma-separated integer offsets; any other part is a SupportError."""
        offsets = []
        for part in filter(None, (p.strip() for p in text.split(","))):
            try:
                offsets.append(int(part))
            except ValueError as exc:
                raise SupportError(f"support offset {part!r} is not an integer") from exc
        return cls(tuple(offsets))

    def __len__(self):
        return len(self.offsets)

    def __iter__(self):
        return iter(self.offsets)

    def __getitem__(self, i):
        return self.offsets[i]

    def __contains__(self, t):
        return t in self.offsets

    @property
    def span(self) -> int:
        return self.offsets[-1] - self.offsets[0]

    def canonical(self) -> "SupportSet":
        """Translate so that tau_0 = 0 (the spectrum only sees differences)."""
        t0 = self.offsets[0]
        return SupportSet(tuple(t - t0 for t in self.offsets))

    def reflected(self) -> "SupportSet":
        return SupportSet(tuple(sorted(-t for t in self.offsets)))

    def translated(self, shift) -> "SupportSet":
        return SupportSet(tuple(t + shift for t in self.offsets))

    def index_of(self, t) -> int:
        return self.offsets.index(t)


def gram_entry(params: SystemParams, m, bits=None) -> mpf:
    """Inner product of two atoms at offset difference m: sinc(pi*y*m)."""
    bits = params.bits if bits is None else check_bits(bits)
    m = as_count(m, "offset difference", None)
    if m == 0:
        return mpf(1)
    return _sinc(params.y, abs(m), bits)


@lru_cache(maxsize=4096)
def _sinc(y, m, bits):
    """sin(pi*y*m) / (pi*y*m) at ``bits``, for m > 0. Scans rebuild the
    same few entries for every support, at every ladder level."""
    with workprec(bits):
        x = mp.pi * y * m
        return mp.sin(x) / x


@lru_cache(maxsize=4096)
def _sinc_error_exponent(y, m, bits):
    """An integer e with |_sinc(y, m, bits) - sinc(pi*y*m)| <= 2^e, m > 0:
    the interval sinc (mpmath.iv) at bits + 16 contains the exact value,
    and _sinc's value lies within the larger distance to its two ends."""
    with iv_workprec(bits + 16):
        x = iv.pi * y * m
        return max(mp.mag(end) for end in iv_ends(iv.sin(x) / x - _sinc(y, m, bits)))


def gram_radius(params: SystemParams, support, bits=None) -> mpf:
    """An upper bound on ||build_gram(params, support, bits) - G||_2, G the
    exact Gram matrix of the stored params.y: n 2^e, with e the largest
    _sinc_error_exponent over the support's offset differences, bounds the
    Frobenius norm of the entry errors (the diagonal is exactly 1)."""
    bits = params.bits if bits is None else check_bits(bits)
    offs = SupportSet.coerce(support).offsets
    exponents = [_sinc_error_exponent(params.y, m, bits)
                 for m in {tj - ti for i, ti in enumerate(offs) for tj in offs[i + 1:]}]
    return mp.ldexp(len(offs), max(exponents)) if exponents else mpf(0)


def build_gram(params: SystemParams, support, bits=None) -> tuple:
    """Gram matrix of the atoms over a support, as a tuple of row tuples with
    entry (i, j) = gram_entry(tau_j - tau_i) at ``bits``: symmetric, unit
    diagonal, positive definite, and Toeplitz for contiguous supports. The
    entries depend only on params.y, the offset differences and ``bits``."""
    bits = params.bits if bits is None else check_bits(bits)
    T = SupportSet.coerce(support)
    offs = T.offsets
    diffs = {}
    for i, ti in enumerate(offs):
        for j, tj in enumerate(offs):
            d = abs(tj - ti)
            if d not in diffs:
                diffs[d] = gram_entry(params, d, bits=bits)
    return tuple(tuple(diffs[abs(tj - ti)] for tj in offs) for ti in offs)


def gram_quadform(entries, v, bits) -> mpf:
    """Real quadratic form v* G v for a real symmetric G and complex v."""
    n = len(v)
    with workprec(bits):
        total = mpf(0)
        for i in range(n):
            row = entries[i]
            acc = mpc(0)
            for j in range(n):
                acc += row[j] * v[j]
            total += (mp.conj(v[i]) * acc).real
        return total


@dataclass(frozen=True)
class CoefficientVector:
    """Complex coefficients attached to the offsets of a support set."""

    support: SupportSet
    values: tuple

    def __post_init__(self):
        vals = tuple(keep_complex(v) for v in self.values)
        if len(vals) != len(self.support):
            raise SupportError("one value per support offset required")
        object.__setattr__(self, "values", vals)

    def sparsity(self) -> int:
        """Number of nonzero values (l0 norm)."""
        return sum(1 for v in self.values if v != 0)

    def embed(self, window: SupportSet):
        """Zero-padded value tuple over a containing window."""
        out = [mpc(0)] * len(window)
        for t, v in zip(self.support, self.values):
            if t not in window:
                raise SupportError(f"offset {t} outside window {window.offsets}")
            out[window.index_of(t)] = v
        return tuple(out)


@dataclass(frozen=True)
class MeasurementVector:
    """A function represented over a working window W: complex coefficients
    on the atoms of W plus the norm rho of the orthogonal remainder."""

    window: SupportSet
    coeffs: tuple
    rho: mpf

    def __post_init__(self):
        coeffs = tuple(keep_complex(v) for v in self.coeffs)
        if len(coeffs) != len(self.window):
            raise SupportError("one coefficient per window offset required")
        if not all(mp.isfinite(v) for v in coeffs):
            raise DomainError("measurement coefficients must be finite")
        rho = finite_norm(self.rho, "rho")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rho", rho)


def synthesize(params: SystemParams, x: CoefficientVector, window) -> MeasurementVector:
    """Noiseless measurement f = A x embedded in the window (rho = 0)."""
    W = SupportSet.coerce(window)
    return MeasurementVector(window=W, coeffs=x.embed(W), rho=mpf(0))


def measurement_norm(params: SystemParams, f: MeasurementVector) -> mpf:
    """sqrt(coeffs* G_W coeffs + rho^2) at params.bits; see norm_from_quadform."""
    G = build_gram(params, f.window)
    return norm_from_quadform(f, gram_quadform(G, f.coeffs, bits=params.bits), params.bits)


def norm_from_quadform(f: MeasurementVector, q, bits) -> mpf:
    """sqrt(q + rho^2) at ``bits`` for q = coeffs* G_W coeffs formed there; a
    q negative beyond rounding is a PrecisionError, one within it counts as 0."""
    with workprec(bits):
        scale = sum((v * mp.conj(v)).real for v in f.coeffs) + mpf(1)
        if q < 0:
            if abs(q) > mpf(2) ** (-bits // 2) * scale:
                raise PrecisionError(
                    f"quadratic form is negative ({q}) beyond rounding at {bits} bits"
                )
            q = mpf(0)
        return mp.sqrt(q + f.rho * f.rho)
