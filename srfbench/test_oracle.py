"""The benchmark's independent checks must reject perturbed results.

Run with: PYTHONPATH=src python3 -m pytest srfbench
"""

import json

from mpmath import mp, mpf, workprec

import jobs
import oracle
from srflimits import spectral
from srflimits.core import SystemParams


def test_inertia_check_rejects_scaled_lambda():
    res = spectral.min_eig_for_support(SystemParams.from_y("0.2"), range(5))
    assert oracle.check_min_eig("0.2", 4, res.value, res.bits_used)
    with workprec(512):
        for factor in (mpf("1.001"), mpf("0.999")):
            assert not oracle.check_min_eig("0.2", 4, res.value * factor, res.bits_used)


def test_recover_check_rejects_shifted_support():
    planted, coeffs = (8, 10, 11), ["1.5+0.25j", "-0.75+0.0j", "0.5-1.0j"]
    window = ["0"] * 12
    for t, c in zip(planted, coeffs):
        window[t] = c
    report = json.loads(jobs._srf([
        "recover", "--y", "0.1", "--window", ",".join(map(str, range(12))),
        "--coeffs", ";".join(window), "--sigma", "1e-12", "--k-cap", "3"]))
    assert report["results"]["supports_examined"] == 298
    assert oracle.check_recover(report, planted, coeffs, 12, "1e-12")
    shifted = tuple(t - 1 for t in planted)
    assert not oracle.check_recover(report, shifted, coeffs, 12, "1e-12")
    report["results"]["support"] = list(shifted)
    assert not oracle.check_recover(report, planted, coeffs, 12, "1e-12")


def test_reproduce_check_rejects_next_power():
    with workprec(256):
        w = mpf(3) * mp.expj(mpf("0.5"))
        exact = [w ** (-n) for n in range(6)]
        next_power = [w ** (-(n + 1)) for n in range(6)]
    assert oracle.check_reproduce(w, exact)
    assert not oracle.check_reproduce(w, next_power)
