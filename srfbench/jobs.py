"""The benchmark's workloads: seeded job lists over the public srflimits API.

Each job is one call (or one fixed bundle of calls) a researcher would
make. The seed only jitters band fractions and points inside ranges on
which the precision ladder climbs the same levels and the quadrature
doubles to the same node counts, so every seed costs the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

from mpmath import mp, mpc, mpf, workprec

import oracle
from srflimits import cli, spectral, szego
from srflimits.core import SystemParams


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # set-up times the first job of each kind in a fresh interpreter
    run: Callable[[], object]
    check: Callable[[object], bool]  # independent check of the output
    canon: Callable[[object], str]  # exact text of the output, to compare repeats
    reps: int = 1  # runs per round; the jobs that set job_ref_p50 run more often


def _decimal(rng, base_micro, width_micro) -> str:
    """A decimal string in [base, base + width) millionths, drawn from rng."""
    v = base_micro + rng.randrange(width_micro)
    return f"{v // 10 ** 6}.{v % 10 ** 6:06d}"


def _exact(x):
    if isinstance(x, mpc):
        return [_exact(x.real), _exact(x.imag)]
    return repr(x._mpf_)


def _canon_values(values) -> str:
    return json.dumps([_exact(v) for v in values])


# --- spectra: certified lambda_min of contiguous Gram matrices, and k_n --------


def _min_eig(y, n):
    return spectral.min_eig_for_support(SystemParams.from_y(y), range(n + 1))


def _leading_coeffs(ys):
    return [szego.leading_coeffs(SystemParams.from_y(y, bits=512), 12, bits=512).k_values
            for y in ys]


def spectra(rng):
    # Each y keeps every job clear of the ladder's 1e-6 agreement threshold:
    # n = 12 near y = 0.04 needs three levels (128, 256, 512 bits), every
    # other job two. Near y = 0.05, n = 12 sits on the threshold and the
    # level count flips with the last bits of y.
    ys = [_decimal(rng, 40000, 500), _decimal(rng, 120000, 500), _decimal(rng, 300000, 500)]
    jobs = [Job(f"lambda_min n={n} y={y}", "lambda_min", partial(_min_eig, y, n),
                lambda r, y=y, n=n: oracle.check_min_eig(y, n, r.value, r.bits_used),
                lambda r: json.dumps([_exact(r.value), r.bits_used,
                                      [bits for bits, _ in r.history]]),
                reps=5 if n == 8 else 1)
            for n in (4, 8, 12) for y in ys]
    jobs.append(Job("leading_coeffs n<=12 bits=512", "leading_coeffs",
                    partial(_leading_coeffs, ys),
                    lambda ks: all(oracle.check_leading_coeffs(y, k) for y, k in zip(ys, ks)),
                    lambda ks: json.dumps([[_exact(k) for k in row] for row in ks])))
    return jobs


# --- enumerate: in-process srf runs over many small supports -----------------


def _srf(argv):
    """One `srf` run in this process; returns its JSON report text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv + ["--threads", "1"])
    if code != 0:
        raise RuntimeError(f"srf {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _canon_report(text) -> str:
    report = json.loads(text)
    report.pop("timestamp")
    return json.dumps(report, sort_keys=True)


def _srf_job(name, kind, argv, check, reps=1):
    return Job(name, kind, partial(_srf, argv), lambda text: check(json.loads(text)),
               _canon_report, reps)


def _coefficient(rng) -> str:
    """A complex decimal with modulus at least 1/2."""
    while True:
        re, im = rng.randint(-2000, 2000), rng.randint(-2000, 2000)
        if re * re + im * im >= 500 ** 2:
            return f"{re / 1000}{im / 1000:+}j"


def enumerate_(rng):
    # spans stay below 1/y: past the first sinc zero gap-monotonicity fails
    y_eps, y_scan, y_rec = (_decimal(rng, 100000, 1000) for _ in range(3))
    y_mm = _decimal(rng, 200000, 1000)
    jobs = []
    for k, span in ((3, 8), (4, 7), (5, 6)):
        argv = ["epsilon", "--y", y_eps, "--k", str(k), "--mode", "exhaustive",
                "--span", str(span)]
        jobs.append(_srf_job(f"epsilon k={k} span={span}", "epsilon", argv,
                             partial(oracle.check_epsilon, y=y_eps, k=k, span=span)))
    for size, span in ((3, 9), (4, 7)):
        argv = ["contiguity", "--y", y_scan, "--size", str(size), "--span", str(span)]
        jobs.append(_srf_job(f"contiguity size={size} span={span}", "contiguity", argv,
                             partial(oracle.check_contiguity, y=y_scan, size=size,
                                     span=span)))
    # the planted support sits late in the solver's order: 298 supports examined
    window, planted = 12, (8, 10, 11)
    planted_coeffs = [_coefficient(rng) for _ in planted]
    coeffs = ["0"] * window
    for t, c in zip(planted, planted_coeffs):
        coeffs[t] = c
    argv = ["recover", "--y", y_rec, "--window", ",".join(map(str, range(window))),
            "--coeffs", ";".join(coeffs), "--sigma", "1e-12", "--k-cap", "3"]
    jobs.append(_srf_job("recover window=12 k_cap=3", "recover", argv,
                         partial(oracle.check_recover, planted=planted,
                                 coeffs=planted_coeffs, window_size=window,
                                 sigma="1e-12")))
    argv = ["minimax", "--y", y_mm, "--k", "2", "--sigma", "1e-6", "--mode", "exhaustive",
            "--span", "6"]
    jobs.append(_srf_job("minimax k=2 span=6", "minimax", argv,
                         partial(oracle.check_minimax, y=y_mm, k=2, sigma="1e-6", span=6),
                         reps=6))
    return jobs


# --- quadrature: Szego-kernel reproduction and arc inner products ------------

# (|w|, arg w) anchors in |w| in [2.2, 6]; the seed moves each by < 0.01,
# over which the node counts stay the same
ANCHORS = ((3.2, 2.2), (2.4, 0.4), (5.0, -0.4))


def _reproduce(y, z):
    params = SystemParams.from_y(y)
    return [szego.szego_reproduce(params, n, z) for n in range(6)]


def _arc_products(y, ms):
    params = SystemParams.from_y(y)
    return [szego.arc_inner_product([0] * m + [1], [1], params, bits=bits)
            for bits in (128, 256) for m in ms]


def quadrature(rng):
    y = _decimal(rng, 170000, 500)
    jobs = []
    with workprec(256):
        c = mp.sin(mp.pi * mpf(y) / 2)
        for r0, a0 in ANCHORS:
            r = mpf(r0) + mpf(rng.randrange(10)) / 1000
            a = mpf(a0) + mpf(rng.randrange(10)) / 1000
            w = r * mp.expj(a)
            z = w * (c * w + 1) / (w + c)  # phi(w), made here, never by Phi_map
            jobs.append(Job(f"reproduce |w|={mp.nstr(r, 4)} arg={mp.nstr(a, 4)}",
                            "reproduce", partial(_reproduce, y, z),
                            partial(oracle.check_reproduce, w), _canon_values))
    ms = (1, 3, 5, 7)
    jobs.append(Job("arc_inner_product z^m,1 bits=128,256", "arc_inner_product",
                    partial(_arc_products, y, ms),
                    lambda vs: all(oracle.check_arc_inner_product(v, y, m)
                                   for v, m in zip(vs, ms + ms)),
                    _canon_values))
    return jobs


BUILDERS = {"spectra": spectra, "enumerate": enumerate_, "quadrature": quadrature}
