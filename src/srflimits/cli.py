"""Command-line surface: one subcommand per operation, JSON/CSV reports.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage or domain
error (an unwritable --output path included), 3 computational error
(precision cap, infeasibility, budget).
Diagnostics go to stderr; the report is the only thing on stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from mpmath import mp, mpf, workprec

from . import reports
from .checks import bound_check
from .core import (
    MeasurementVector,
    SupportSet,
    SystemParams,
    _to_mpf,
    build_gram,
    measurement_norm,
)
from .errors import DomainError, SRFError
from .hp import MAX_BITS, MIN_BITS, check_bits, default_bits
from .recovery import adversarial_pair, l0_solve, minimax_experiment, srf_scaling
from .spectral import (
    contiguity_scan,
    eps_spark,
    epsilon,
    sigma_enclosure,
    sigma_min_eig,
    smally_exponent,
    verify_srf_bounds,
)
from .szego import Phi_map, bound_suite, phi_map, szego_kernel

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
                        "(default: SRF_PRECISION_BITS or 256)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="report path (default stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int,
                   help="accepted and ignored: every subcommand runs in one process")


def _params_from(args, bits) -> SystemParams:
    if getattr(args, "y", None) is not None:
        return SystemParams.from_y(args.y, bits=bits)
    return SystemParams.from_srf(args.srf, bits=bits)


def _echo_params(params: SystemParams) -> dict:
    fields = {"y": params.y, "srf": params.srf, "capacity": params.c,
              "arc_length": params.arc_length}
    return {key: reports.enc_real(value, params.bits) for key, value in fields.items()}


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
    p.add_argument("--mode", choices=("contiguous", "exhaustive"), default="contiguous")
    p.add_argument("--span", type=int, default=None)

    p = sub.add_parser("spark", help="eps-spark at a threshold")
    _add_common(p)
    p.add_argument("--eps", required=True)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--mode", choices=("contiguous", "exhaustive"), default="contiguous")
    p.add_argument("--span", type=int, default=None)

    p = sub.add_parser("contiguity", help="exhaustively test the contiguous minimizer")
    _add_common(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--span", type=int, required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)

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
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--polys", type=int, default=100)

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
    p.add_argument("--mode", choices=("contiguous", "exhaustive"), default="contiguous")
    p.add_argument("--span", type=int, default=None)
    p.add_argument("--strict-ties", action="store_true")

    p = sub.add_parser("minimax", help="minimax sandwich experiment")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--mode", choices=("contiguous", "exhaustive"), default="contiguous")
    p.add_argument("--span", type=int, default=None)

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


# --- subcommand handlers: return (results, checks, errors, config_extra) ---


def _run_gram(args, bits, params):
    T = SupportSet.from_text(args.support)
    G = build_gram(params, T)
    rows = [[reports.enc_real(v, bits) for v in row] for row in G]
    table = [{"tau_i": ti, "tau_j": tj,
              "entry": reports.enc_real(G[i][j], bits)}
             for i, ti in enumerate(T.offsets)
             for j, tj in enumerate(T.offsets)]
    return ({"support": list(T.offsets), "entries": rows, "table": table},
            [], [], {"support": list(T.offsets)})


def _run_smin(args, bits, params):
    T = SupportSet.from_text(args.support)
    val, eig = sigma_min_eig(params, T)
    return ({"support": list(T.offsets),
             "sigma_min": reports.enc_real(val, bits),
             "sigma_min_enclosure": reports.enc_enclosure(*sigma_enclosure(eig), bits)},
            [], [], {"support": list(T.offsets)})


def _run_epsilon(args, bits, params):
    res = epsilon(params, args.k, mode=args.mode, span_max=args.span)
    results = {
        "k": res.k,
        "epsilon": reports.enc_real(res.value, bits),
        "epsilon_enclosure": reports.enc_enclosure(*sigma_enclosure(res.eig), bits),
        "attaining_support": list(res.attaining_support.offsets),
        "mode": res.mode,
        "span_searched": res.span_searched,
    }
    return results, [], [], {"k": args.k, "mode": args.mode, "span": args.span}


def _run_spark(args, bits, params):
    res = eps_spark(params, _to_mpf(args.eps, bits), args.k_max, mode=args.mode,
                    span_max=args.span)
    results = {
        "spark": res.value,
        "saturated": res.saturated,
        "threshold": reports.enc_real(res.threshold, bits),
        "levels": [{"k": k, "epsilon": reports.enc_real(v, bits),
                    "epsilon_enclosure": reports.enc_enclosure(*sigma_enclosure(eig), bits)}
                   for k, v, eig in res.levels],
    }
    cfg = {"eps": args.eps, "k_max": args.k_max, "mode": args.mode, "span": args.span}
    return results, [], [], cfg


def _run_contiguity(args, bits, params):
    res = contiguity_scan(params, args.size, args.span, budget=args.budget)
    contig_val = next(v for T, v in res.table if T.offsets == tuple(range(args.size)))
    runner_up = next((v for T, v in res.table if T.offsets != tuple(range(args.size))),
                     contig_val)
    checks = [
        bound_check("contiguous_attains_minimum", contig_val, res.table[0][1]),
        bound_check("contiguous_strictly_below_runner_up", contig_val, runner_up),
        bound_check("monotonicity_violations", len(res.monotonicity_violations), 0),
    ]
    table = [{"support": list(T.offsets), "sigma_min": reports.enc_real(v, bits)}
             for T, v in res.table]
    results = {"holds": res.holds, "supports_checked": res.supports_checked,
               "table": table}
    cfg = {"size": args.size, "span": args.span, "budget": args.budget}
    return results, checks, [], cfg


def _run_asymptote(args, bits, params_unused):
    T = SupportSet.from_text(args.support)
    grid = [g.strip() for g in args.y_grid.split(",") if g.strip()]
    res = smally_exponent(T, grid, bits=bits)
    results = {
        "support": list(T.offsets),
        "alpha": reports.enc_real(res.alpha, bits),
        "mu_fit": reports.enc_real(res.mu, bits),
        "gram_order_alpha": res.gram_order_alpha,
        "claimed_alpha": res.claimed_alpha,
        "note": "fitted exponent tracks 2n, not the claimed 2n+1; "
                "both orders are reported for comparison",
        "pencil_mu": reports.enc_real(res.pencil.mu, bits) if res.pencil else None,
        "table": [{"y": reports.enc_real(y, bits),
                   "lambda_min": reports.enc_real(eig.value, bits),
                   "lambda_min_enclosure": reports.enc_enclosure(eig.lo, eig.hi, bits),
                   "bits_used": eig.bits_used} for y, eig in res.table],
    }
    return results, [], [], {"support": list(T.offsets), "y_grid": grid}


def _run_szego(args, bits, params):
    z = _parse_complex(args.z, bits)
    zeta = _parse_complex(args.zeta, bits)
    results = {"kernel": None, "Phi_z": None}
    kval = szego_kernel(params, zeta, z)
    results["kernel"] = reports.enc_complex(kval, bits)
    if mp.isinf(z):
        results["Phi_z"] = "inf"
    else:
        w = Phi_map(params.c, z, bits=bits)
        with workprec(bits):
            roundtrip = abs(phi_map(params.c, w) - mp.mpc(z))
        results["Phi_z"] = reports.enc_complex(w, bits)
        results["abs_Phi_z"] = reports.enc_real(abs(w), bits)
        results["phi_roundtrip_error"] = reports.enc_real(roundtrip, bits)
    return results, [], [], {"z": args.z, "zeta": args.zeta}


def _run_bounds(args, bits, params):
    suite = bound_suite(params, args.n, samples=args.samples, seed=args.seed,
                        polys=args.polys)
    decay = verify_srf_bounds(params, args.n)
    checks = list(suite.checks) + list(decay.checks)
    results = {
        "min_lower_ratio": reports.enc_real(decay.min_lower_ratio, bits),
        "lower_ratios": [{"n": n, "ratio": reports.enc_real(r, bits)}
                         for n, r in decay.ratios],
        "samples": suite.samples,
        "polys": suite.polys,
    }
    cfg = {"n": args.n, "samples": args.samples, "polys": args.polys}
    return results, checks, list(suite.errors), cfg


def _run_recover(args, bits, params):
    W = SupportSet.from_text(args.window)
    coeffs = [_parse_complex(c.strip(), bits)
              for c in args.coeffs.split(";") if c.strip()]
    f = MeasurementVector(window=W, coeffs=coeffs, rho=_to_mpf(args.rho, bits))
    res = l0_solve(params, f, _to_mpf(args.sigma, bits), args.k_cap)
    results = {
        "sparsity": res.sparsity,
        "support": list(res.support.offsets) if res.support else [],
        "estimate": reports.enc_coeff_vector(res.estimate, bits)
        if res.estimate else None,
        "residual": reports.enc_real(res.residual, bits),
        "supports_examined": res.supports_examined,
        "measurement_norm": reports.enc_real(measurement_norm(params, f), bits),
    }
    cfg = {"window": list(W.offsets), "sigma": args.sigma, "k_cap": args.k_cap}
    return results, [], [], cfg


def _run_adversary(args, bits, params):
    pair = adversarial_pair(params, args.k, _to_mpf(args.sigma, bits),
                            mode=args.mode, span_max=args.span,
                            strict_ties=args.strict_ties)
    results = {
        "T_star": list(pair.T_star.offsets),
        "eps_2k": reports.enc_real(pair.eps2k, bits),
        "x0": reports.enc_coeff_vector(pair.x0, bits),
        "x1": reports.enc_coeff_vector(pair.x1, bits),
        "threshold_tie": pair.threshold_tie,
        "separation": reports.enc_real(pair.sigma / pair.eps2k, bits),
    }
    cfg = {"k": args.k, "sigma": args.sigma, "mode": args.mode, "span": args.span}
    return results, [], [], cfg


def _run_minimax(args, bits, params):
    rep = minimax_experiment(params, args.k, _to_mpf(args.sigma, bits),
                             mode=args.mode, span_max=args.span)
    results = {
        "err_x0": reports.enc_real(rep.err_x0, bits),
        "err_x1": reports.enc_real(rep.err_x1, bits),
        "upper_bound": reports.enc_real(rep.upper_bound, bits),
        "lower_bound": reports.enc_real(rep.lower_bound, bits),
        "eps_2k": reports.enc_real(rep.pair.eps2k, bits),
        "recovered_sparsity": rep.recovery.sparsity,
    }
    cfg = {"k": args.k, "sigma": args.sigma, "mode": args.mode, "span": args.span}
    return results, list(rep.checks), [], cfg


def _run_scaling(args, bits, params_unused):
    grid = [g.strip() for g in args.srf_grid.split(",") if g.strip()]
    res = srf_scaling(args.k, grid, bits=bits)
    expected = -(2 * args.k - 1)
    checks = [bound_check("slope_matches_sparsity_exponent",
                          abs(res.slope - expected), mpf("0.15"))]
    results = {
        "k": res.k,
        "slope": reports.enc_real(res.slope, bits),
        "intercept": reports.enc_real(res.intercept, bits),
        "expected_slope": expected,
        "table": [{"srf": reports.enc_real(s, bits),
                   "y": reports.enc_real(y, bits),
                   "eps_2k": reports.enc_real(e, bits)} for s, y, e in res.table],
    }
    return results, checks, [], {"k": args.k, "srf_grid": grid}


def _run_selftest(args, bits, params_unused):
    from .acceptance import run_all

    outcomes = run_all()
    checks = []
    details = []
    for out in outcomes:
        checks.append(bound_check(out.name, 0 if out.passed else 1, 0))
        details.append({"name": out.name, "passed": out.passed,
                        "detail": out.detail, "seconds": round(out.seconds, 2)})
        print(f"{out.name}: {'PASS' if out.passed else 'FAIL'} — {out.detail}",
              file=sys.stderr)
    return {"criteria": details}, checks, [], {}


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

_NO_PARAMS = {"asymptote", "scaling", "selftest"}


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        bits = (default_bits() if args.precision_bits is None
                else check_bits(args.precision_bits, "--precision-bits"))
        params = None
        if args.subcommand not in _NO_PARAMS:
            params = _params_from(args, bits)
        results, checks, errors, cfg_extra = _HANDLERS[args.subcommand](
            args, bits, params)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SRFError as exc:
        print(f"computational error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATIONAL

    config = {"precision_bits": bits, "format": args.format}
    config.update(cfg_extra)
    if params is not None:
        config.update(_echo_params(params))
    report = reports.build_report(args.subcommand, config, results,
                                  checks=checks, errors=errors, seed=args.seed,
                                  bits=bits)
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
