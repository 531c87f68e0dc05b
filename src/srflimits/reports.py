"""Machine-readable reports: lossless JSON and plottable CSV.

High-precision numbers are serialized as decimal strings annotated with
their mantissa budget in bits, never as binary floating point; values in
this package span 1e-40 to 1e+3 and reports must round-trip. This module
owns that format: ``build_report`` takes the plain values a computation
returns (mpf, mpc, proven enclosures, supports, coefficient vectors,
checks, and containers of them) and ``encode`` writes every number at the
run's bits, so callers never round or format a number themselves.

A report's status is pass or fail, from its checks alone: a run that
cannot finish raises its typed error and writes no report.
``from_json`` reads reports of this SCHEMA_VERSION only: a schema-1
report's ``errors`` key is not a Report field.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

from mpmath import iv, mp, mpc, mpf, workprec

from . import __version__
from .checks import BoundCheck
from .core import CoefficientVector, SupportSet
from .hp import Enclosure, iv_ends, iv_workprec

SCHEMA_VERSION = "2"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"


def digits_for(bits) -> int:
    """Decimal digits that preserve a ``bits``-bit mantissa on round trip."""
    return int(bits * 0.30103) + 5


def enc_real(x, bits) -> dict:
    with workprec(bits + 8):
        return {"dec": mp.nstr(mpf(x), digits_for(bits)), "bits": bits}


def enc_enclosure(lo, hi, bits) -> dict:
    """{"lo", "hi"} of a proven interval, each end first moved outward by
    2^-bits relative, more than enc_real's rounding to nearest can move
    it back inward."""
    with iv_workprec(bits):
        lo, hi = iv_ends(iv.mpf([lo, hi]) * (1 + iv.mpf([-1, 1]) * iv.mpf(2) ** -bits))
    return {"lo": enc_real(lo, bits), "hi": enc_real(hi, bits)}


def enc_complex(z, bits) -> dict:
    with workprec(bits + 8):
        z = mp.mpc(z)
        d = digits_for(bits)
        return {"re": mp.nstr(z.real, d), "im": mp.nstr(z.imag, d), "bits": bits}


def enc_coeff_vector(x: CoefficientVector, bits) -> dict:
    d = digits_for(bits)
    with workprec(bits + 8):
        return {
            "support": list(x.support.offsets),
            "re": [mp.nstr(v.real, d) for v in x.values],
            "im": [mp.nstr(v.imag, d) for v in x.values],
            "bits": bits,
        }


def enc_check(check: BoundCheck, bits) -> dict:
    return {
        "name": check.name,
        "lhs": enc_real(check.lhs, bits),
        "rhs": enc_real(check.rhs, bits),
        "slack": enc_real(check.slack, bits),
        "satisfied": check.satisfied,
    }


def encode(value, bits):
    """The report form of ``value`` at ``bits``: numbers, enclosures,
    coefficient vectors and checks by their enc_* function, a support as
    its offsets list, containers item by item, anything else unchanged."""
    if isinstance(value, mpf):
        return enc_real(value, bits)
    if isinstance(value, mpc):
        return enc_complex(value, bits)
    if isinstance(value, Enclosure):
        return enc_enclosure(value.lo, value.hi, bits)
    if isinstance(value, CoefficientVector):
        return enc_coeff_vector(value, bits)
    if isinstance(value, SupportSet):
        return list(value.offsets)
    if isinstance(value, BoundCheck):
        return enc_check(value, bits)
    if isinstance(value, dict):
        return {key: encode(item, bits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item, bits) for item in value]
    return value


@dataclass
class Report:
    """A fully serialized run: config echo, results payload, checks, status.

    Everything inside is already JSON-ready, so reparse equality is plain
    dict equality and byte determinism only excludes the timestamp.
    """

    subcommand: str
    config: dict
    results: dict
    checks: list = field(default_factory=list)
    status: str = STATUS_PASS
    seed: int = 0
    timestamp: str = ""
    schema_version: str = SCHEMA_VERSION
    tool_version: str = __version__

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        """One row per check with columns name,lhs,rhs,slack,satisfied;
        falls back to the results table for table-shaped payloads."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if self.checks:
            writer.writerow(["name", "lhs", "rhs", "slack", "satisfied"])
            for c in self.checks:
                writer.writerow([
                    c["name"], c["lhs"]["dec"], c["rhs"]["dec"],
                    c["slack"]["dec"], str(c["satisfied"]).lower(),
                ])
        elif "table" in self.results:
            rows = self.results["table"]
            if rows:
                header = list(rows[0].keys())
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_csv_cell(row[h]) for h in header])
        else:
            writer.writerow(["key", "value"])
            for k in sorted(self.results):
                writer.writerow([k, _csv_cell(self.results[k])])
        return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, dict):
        if "dec" in value:
            return value["dec"]
        if "re" in value:
            return f"{value['re']}+{value['im']}j"
        if "lo" in value:
            return f"{value['lo']['dec']};{value['hi']['dec']}"
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return value


def build_report(subcommand, config, results, bits, checks=(), seed=0,
                 timestamp=None) -> Report:
    """A report whose config, results and checks are ``encode``d at ``bits``;
    its status is fail if any check fails, else pass."""
    encoded = encode(checks, bits)
    status = STATUS_PASS if all(c["satisfied"] for c in encoded) else STATUS_FAIL
    ts = timestamp if timestamp is not None else \
        datetime.now(timezone.utc).isoformat(timespec="seconds")
    return Report(subcommand=subcommand, config=encode(config, bits),
                  results=encode(results, bits), checks=encoded,
                  status=status, seed=seed, timestamp=ts)


def from_json(text) -> Report:
    return Report(**json.loads(text))
