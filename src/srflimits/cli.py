"""Command-line surface: one subcommand per operation, JSON/CSV reports.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage or domain
error (a DomainError, or an unwritable --output path), 3 computational
error (any other SRFError: precision cap, infeasibility, budget). Any
other exception is a bug and propagates.
Diagnostics go to stderr; the report is the only thing on stdout.

Each ``_run_*`` handler takes (args, params), parses its arguments and
maps the library's results to (results, checks, config_extra), deriving
any number at the run's bits; the library owns every check and default
(selftest maps each criterion to a check), and ``reports`` encodes every
number. asymptote, scaling and selftest have no params and read the
resolved ``args.precision_bits``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from mpmath import mp, workprec

from . import reports
from .checks import bound_check
from .core import (
    MeasurementVector,
    SupportSet,
    SystemParams,
    _to_mpf,
    build_gram,
)
from .errors import DomainError, SRFError
from .hp import DEFAULT_BITS, MAX_BITS, MIN_BITS, Enclosure, resolve_bits
from .recovery import adversarial_pair, l0_solve, minimax_experiment, srf_scaling
from .spectral import (
    CONTIGUOUS,
    EXHAUSTIVE,
    contiguity_scan,
    eps_spark,
    epsilon,
    sigma_enclosure,
    sigma_min_eig,
    smally_exponent,
    verify_srf_bounds,
)
from .szego import DEFAULT_POLYS, DEFAULT_SAMPLES, Phi_map, bound_suite, phi_map, szego_kernel

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_COMPUTATIONAL = 3

# argparse reads a value that starts with "-" and is not a plain number as
# an option; the "=" form keeps it a value
SUPPORT_HELP = "comma-separated offsets; write a leading negative one as --support=-3,5"


def _add_common(p, needs_y=True):
    if needs_y:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--y", help="band fraction in (0, 1/2); accepts a/b")
        g.add_argument("--srf", help="superresolution factor (> 2); y = 1/srf")
    p.add_argument("--precision-bits", type=int, default=None,
                   help=f"mantissa bits in [{MIN_BITS}, {MAX_BITS}] "
                        f"(default: SRF_PRECISION_BITS or {DEFAULT_BITS})")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="report path (default stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int,
                   help="accepted and ignored: every subcommand runs in one process")


def _add_scan(p):
    p.add_argument("--mode", choices=(CONTIGUOUS, EXHAUSTIVE), default=CONTIGUOUS)
    p.add_argument("--span", type=int, default=None)


def _params_from(args, bits) -> SystemParams | None:
    """The run's params; None for the subcommands without --y/--srf."""
    if getattr(args, "y", None) is not None:
        return SystemParams.from_y(args.y, bits=bits)
    if getattr(args, "srf", None) is not None:
        return SystemParams.from_srf(args.srf, bits=bits)
    return None


# built once per process: parsing leaves the parser unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="srf",
        description="High-precision limits of sparse superresolution "
                    "for the on-grid band-limited Fourier system.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gram", help="Gram matrix over a support")
    _add_common(p)
    p.add_argument("--support", required=True, help=SUPPORT_HELP)

    p = sub.add_parser("smin", help="smallest singular value over a support")
    _add_common(p)
    p.add_argument("--support", required=True, help=SUPPORT_HELP)

    p = sub.add_parser("epsilon", help="lower restricted isometry constant")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    _add_scan(p)

    p = sub.add_parser("spark", help="eps-spark at a threshold")
    _add_common(p)
    p.add_argument("--eps", required=True)
    p.add_argument("--k-max", type=int, default=8)
    _add_scan(p)

    p = sub.add_parser("contiguity", help="exhaustively test the contiguous minimizer")
    _add_common(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--span", type=int, required=True)

    p = sub.add_parser("asymptote", help="small-y decay exponent of lambda_min")
    _add_common(p, needs_y=False)
    p.add_argument("--support", required=True, help=SUPPORT_HELP)
    p.add_argument("--y-grid", required=True, help="comma-separated y values")

    p = sub.add_parser("szego", help="kernel and conformal map point queries")
    _add_common(p)
    p.add_argument("--z", required=True, help="complex point off the arc, or inf")
    p.add_argument("--zeta", default="inf")

    p = sub.add_parser("bounds", help="bound suite and singular-value decay checks")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="max polynomial degree")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--polys", type=int, default=DEFAULT_POLYS)

    p = sub.add_parser("recover", help="brute-force l0 recovery")
    _add_common(p)
    p.add_argument("--window", required=True)
    p.add_argument("--coeffs", required=True,
                   help="semicolon-separated complex coefficients over the window; "
                        'write a leading minus as --coeffs="-1;0"')
    p.add_argument("--rho", default="0")
    p.add_argument("--sigma", required=True)
    p.add_argument("--k-cap", type=int, required=True)

    p = sub.add_parser("adversary", help="indistinguishable k-sparse pair")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", required=True)
    _add_scan(p)
    p.add_argument("--strict-ties", action="store_true")

    p = sub.add_parser("minimax", help="minimax sandwich experiment")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", required=True)
    _add_scan(p)

    p = sub.add_parser("scaling", help="log-log SRF scaling of eps_2k")
    _add_common(p, needs_y=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--srf-grid", required=True, help="comma-separated SRF values")

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_common(p, needs_y=False)

    return ap


def _parse_complex(text, bits):
    """A finite complex value, or the point at infinity spelled inf/oo/+inf."""
    with workprec(bits):
        if text in ("inf", "oo", "+inf"):
            return mp.inf
        try:
            value = mp.mpmathify(text)
        except (AttributeError, TypeError, ValueError) as exc:
            raise DomainError(f"cannot parse complex value {text!r}") from exc
    if not mp.isfinite(value):
        raise DomainError(f"complex value must be finite, got {text!r}")
    return value


# --- subcommand handlers: (args, params) -> (results, checks, config_extra) ---


def _run_gram(args, params):
    T = SupportSet.from_text(args.support)
    G = build_gram(params, T)
    table = [{"tau_i": ti, "tau_j": tj, "entry": G[i][j]}
             for i, ti in enumerate(T.offsets)
             for j, tj in enumerate(T.offsets)]
    return {"support": T, "entries": G, "table": table}, [], {"support": T}


def _run_smin(args, params):
    T = SupportSet.from_text(args.support)
    val, eig = sigma_min_eig(params, T)
    return ({"support": T, "sigma_min": val, "sigma_min_enclosure": sigma_enclosure(eig)},
            [], {"support": T})


def _run_epsilon(args, params):
    res = epsilon(params, args.k, mode=args.mode, span_max=args.span)
    results = {
        "k": res.k,
        "epsilon": res.value,
        "epsilon_enclosure": sigma_enclosure(res.eig),
        "attaining_support": res.attaining_support,
        "mode": res.mode,
        "span_searched": res.span_searched,
    }
    return results, [], {"k": args.k, "mode": args.mode, "span": args.span}


def _run_spark(args, params):
    res = eps_spark(params, _to_mpf(args.eps, params.bits), args.k_max, mode=args.mode,
                    span_max=args.span)
    results = {
        "spark": res.value,
        "saturated": res.saturated,
        "threshold": res.threshold,
        "levels": [{"k": k, "epsilon": v, "epsilon_enclosure": sigma_enclosure(eig)}
                   for k, v, eig in res.levels],
    }
    cfg = {"eps": args.eps, "k_max": args.k_max, "mode": args.mode, "span": args.span}
    return results, [], cfg


def _run_contiguity(args, params):
    res = contiguity_scan(params, args.size, args.span)
    results = {"holds": res.holds, "supports_checked": res.supports_checked,
               "table": [{"support": T, "sigma_min": v} for T, v in res.table]}
    return results, res.checks, {"size": args.size, "span": args.span}


def _run_asymptote(args, params_unused):
    T = SupportSet.from_text(args.support)
    grid = [g.strip() for g in args.y_grid.split(",") if g.strip()]
    res = smally_exponent(T, grid, bits=args.precision_bits)
    results = {
        "support": T,
        "alpha": res.alpha,
        "mu_fit": res.mu,
        "gram_order_alpha": res.gram_order_alpha,
        "limit": res.limit,
        "table": [{"y": y, "lambda_min": eig.value,
                   "lambda_min_enclosure": Enclosure(eig.lo, eig.hi),
                   "bits_used": eig.bits_used} for y, eig in res.table],
    }
    return results, [], {"support": T, "y_grid": grid}


def _run_szego(args, params):
    z = _parse_complex(args.z, params.bits)
    zeta = _parse_complex(args.zeta, params.bits)
    with workprec(params.bits):
        # K(inf, inf) is real; the report keeps the kernel complex
        results = {"kernel": mp.mpc(szego_kernel(params, zeta, z)), "Phi_z": "inf"}
        if not mp.isinf(z):
            w = Phi_map(params.c, z, bits=params.bits)
            results.update(Phi_z=w, abs_Phi_z=abs(w),
                           phi_roundtrip_error=abs(phi_map(params.c, w) - mp.mpc(z)))
    return results, [], {"z": args.z, "zeta": args.zeta}


def _run_bounds(args, params):
    suite = bound_suite(params, args.n, samples=args.samples, seed=args.seed,
                        polys=args.polys)
    decay = verify_srf_bounds(params, args.n)
    results = {
        "min_lower_ratio": decay.min_lower_ratio,
        "lower_ratios": [{"n": n, "ratio": r} for n, r in decay.ratios],
        "samples": suite.samples,
        "polys": suite.polys,
    }
    cfg = {"n": args.n, "samples": args.samples, "polys": args.polys}
    return results, suite.checks + decay.checks, cfg


def _run_recover(args, params):
    W = SupportSet.from_text(args.window)
    coeffs = [_parse_complex(c.strip(), params.bits)
              for c in args.coeffs.split(";") if c.strip()]
    f = MeasurementVector(window=W, coeffs=coeffs, rho=_to_mpf(args.rho, params.bits))
    res = l0_solve(params, f, _to_mpf(args.sigma, params.bits), args.k_cap)
    results = {
        "sparsity": res.sparsity,
        "support": res.support or [],
        "estimate": res.estimate,
        "residual": res.residual,
        "supports_examined": res.supports_examined,
        "measurement_norm": res.measurement_norm,
    }
    return results, [], {"window": W, "sigma": args.sigma, "k_cap": args.k_cap}


def _run_adversary(args, params):
    pair = adversarial_pair(params, args.k, _to_mpf(args.sigma, params.bits),
                            mode=args.mode, span_max=args.span,
                            strict_ties=args.strict_ties)
    with workprec(params.bits):
        separation = pair.sigma / pair.eps2k
    results = {
        "T_star": pair.T_star,
        "eps_2k": pair.eps2k,
        "x0": pair.x0,
        "x1": pair.x1,
        "threshold_tie": pair.threshold_tie,
        "separation": separation,
    }
    cfg = {"k": args.k, "sigma": args.sigma, "mode": args.mode, "span": args.span}
    return results, [], cfg


def _run_minimax(args, params):
    rep = minimax_experiment(params, args.k, _to_mpf(args.sigma, params.bits),
                             mode=args.mode, span_max=args.span)
    results = {
        "err_x0": rep.err_x0,
        "err_x1": rep.err_x1,
        "upper_bound": rep.upper_bound,
        "lower_bound": rep.lower_bound,
        "eps_2k": rep.pair.eps2k,
        "recovered_sparsity": rep.recovery.sparsity,
    }
    cfg = {"k": args.k, "sigma": args.sigma, "mode": args.mode, "span": args.span}
    return results, rep.checks, cfg


def _run_scaling(args, params_unused):
    grid = [g.strip() for g in args.srf_grid.split(",") if g.strip()]
    res = srf_scaling(args.k, grid, bits=args.precision_bits)
    results = {
        "k": res.k,
        "slope": res.slope,
        "intercept": res.intercept,
        "expected_slope": res.expected_slope,
        "table": [{"srf": s, "y": y, "eps_2k": e} for s, y, e in res.table],
    }
    return results, res.checks, {"k": args.k, "srf_grid": grid}


def _run_selftest(args, params_unused):
    from .acceptance import run_all

    outcomes = run_all()
    for out in outcomes:
        print(f"{out.name}: {'PASS' if out.passed else 'FAIL'} — {out.detail}",
              file=sys.stderr)
    checks = [bound_check(out.name, 0 if out.passed else 1, 0) for out in outcomes]
    details = [{"name": out.name, "passed": out.passed, "detail": out.detail,
                "seconds": round(out.seconds, 2)} for out in outcomes]
    return {"criteria": details}, checks, {}


_HANDLERS = {
    "gram": _run_gram,
    "smin": _run_smin,
    "epsilon": _run_epsilon,
    "spark": _run_spark,
    "contiguity": _run_contiguity,
    "asymptote": _run_asymptote,
    "szego": _run_szego,
    "bounds": _run_bounds,
    "recover": _run_recover,
    "adversary": _run_adversary,
    "minimax": _run_minimax,
    "scaling": _run_scaling,
    "selftest": _run_selftest,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        bits = args.precision_bits = resolve_bits(args.precision_bits, "--precision-bits")
        params = _params_from(args, bits)
        results, checks, cfg_extra = _HANDLERS[args.subcommand](args, params)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SRFError as exc:
        print(f"computational error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATIONAL

    config = {"precision_bits": bits, "format": args.format, **cfg_extra}
    if params is not None:
        config.update(y=params.y, srf=params.srf, capacity=params.c,
                      arc_length=params.arc_length)
    report = reports.build_report(args.subcommand, config, results, bits,
                                  checks=checks, seed=args.seed)
    payload = report.to_json() if args.format == "json" else report.to_csv()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(payload)
    print(f"[{args.subcommand}] status={report.status} "
          f"elapsed={time.time() - t0:.2f}s", file=sys.stderr)
    return EXIT_PASS if report.status == reports.STATUS_PASS else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
