"""CLI surface: report round trips, determinism, duality, exit codes."""

import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, workprec

import srflimits
from srflimits import CoefficientVector, SupportSet, SystemParams, cli, reports
from srflimits.checks import bound_check
from srflimits.cli import build_parser, run_cli
from srflimits.errors import DomainError, SRFError
from srflimits.hp import Enclosure
from srflimits.spectral import smally_limit


def run(argv, capsys):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, out


def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines()
                     if '"timestamp"' not in line)


def test_gram_json_exit_zero(capsys):
    code, out = run(["gram", "--y", "0.1", "--support", "0,1,2",
                     "--format", "json", "--precision-bits", "128"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["schema_version"] == "2"
    assert "errors" not in data
    assert data["results"]["entries"][0][0]["dec"] == "1.0"
    assert data["results"]["entries"][0][1]["bits"] == 128


def test_encode_writes_every_value_at_the_report_bits():
    bits = 128
    T = SupportSet.of(0, 2)
    x = CoefficientVector(T, (1, 2j))
    check = bound_check("one_le_two", 1, 2)
    box = Enclosure(mpf(1), mpf(2))
    value = {"pair": (mpf(1), [mpc(1, 2)]), "support": T, "x": x, "box": box,
             "check": check, "n": 3, "text": "0.1", "none": None}
    assert reports.encode(value, bits) == {
        "pair": [reports.enc_real(1, bits), [reports.enc_complex(mpc(1, 2), bits)]],
        "support": [0, 2],
        "x": reports.enc_coeff_vector(x, bits),
        "box": reports.enc_enclosure(1, 2, bits),
        "check": reports.enc_check(check, bits),
        "n": 3, "text": "0.1", "none": None,
    }


def test_domain_error_exit_two(capsys):
    code, _ = run(["bounds", "--y", "0.6", "--n", "4"], capsys)
    assert code == 2


def test_bad_precision_exit_two(capsys):
    code, _ = run(["gram", "--y", "0.1", "--support", "0", "--precision-bits", "32"],
                  capsys)
    assert code == 2


@pytest.mark.parametrize("value", ["abc", "16", "1.5", "8193"])
def test_bad_precision_env_exit_two(value, monkeypatch, capsys):
    monkeypatch.setenv("SRF_PRECISION_BITS", value)
    assert run_cli(["gram", "--y", "0.1", "--support", "0,1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "SRF_PRECISION_BITS" in err


def test_infeasible_exit_three(capsys):
    code, _ = run(["recover", "--y", "0.1", "--window", "0,1",
                   "--coeffs", "0;0", "--rho", "0.5", "--sigma", "0.1",
                   "--k-cap", "2"], capsys)
    assert code == 3


def test_bounds_computational_error_exit_three(capsys):
    code = run_cli(["bounds", "--y", "0.05", "--n", "31", "--samples", "100",
                    "--polys", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("computational error: ")


def test_handler_bug_is_not_a_usage_error(monkeypatch, capsys):
    # DomainError subclasses ValueError; only the former is the user's error
    def bug(args, params):
        raise ValueError("too many values to unpack (expected 3)")

    def domain(args, params):
        raise DomainError("bad input")

    argv = ["gram", "--y", "0.1", "--support", "0,1"]
    monkeypatch.setitem(cli._HANDLERS, "gram", bug)
    with pytest.raises(ValueError, match="unpack"):
        run_cli(argv)
    monkeypatch.setitem(cli._HANDLERS, "gram", domain)
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: bad input")


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        run_cli(["epsilon", "--y", "0.1"])  # missing --k
    assert exc.value.code == 2


def test_json_report_round_trip(capsys):
    code, out = run(["minimax", "--y", "0.2", "--k", "1", "--sigma", "1e-4",
                     "--precision-bits", "128"], capsys)
    assert code == 0
    rep = reports.from_json(out)
    assert rep.to_json() == out
    assert rep.status == "pass"
    assert all(c["satisfied"] for c in rep.checks)


def test_determinism_except_timestamp(capsys):
    argv = ["bounds", "--y", "0.1", "--n", "2", "--samples", "120",
            "--polys", "30", "--seed", "5", "--precision-bits", "128"]
    code1, out1 = run(argv, capsys)
    code2, out2 = run(argv, capsys)
    assert code1 == code2 == 0
    assert strip_timestamp(out1) == strip_timestamp(out2)


def test_threads_accepted_and_ignored(capsys):
    # every subcommand runs in one process; the flag stays accepted for
    # scripts that pass it, and reports do not echo it
    argv = ["contiguity", "--y", "0.05", "--size", "3", "--span", "10"]
    code1, out1 = run(argv + ["--threads", "1"], capsys)
    code2, out2 = run(argv + ["--threads", "2"], capsys)
    assert code1 == code2 == 0
    assert strip_timestamp(out1) == strip_timestamp(out2)
    assert "threads" not in json.loads(out1)["config"]


def test_srf_y_duality(capsys):
    _, out_srf = run(["epsilon", "--srf", "8", "--k", "2",
                      "--precision-bits", "128"], capsys)
    _, out_y = run(["epsilon", "--y", "1/8", "--k", "2",
                    "--precision-bits", "128"], capsys)
    assert json.loads(out_srf)["results"] == json.loads(out_y)["results"]


def test_scaling_cli_slope(capsys):
    code, out = run(["scaling", "--k", "2", "--srf-grid", "8,12,16,24,32",
                     "--precision-bits", "192"], capsys)
    assert code == 0
    data = json.loads(out)
    slope = float(data["results"]["slope"]["dec"])
    assert abs(slope + 3) < 0.15
    assert data["results"]["expected_slope"] == -3
    # the tolerance is parsed at the run's bits, not at 53
    (check,) = data["checks"]
    with workprec(200):
        assert abs(mpf(check["rhs"]["dec"]) - mpf("0.15")) <= mpf(2) ** (8 - 192)
        # and the misfit |slope + 3| is formed at the run's bits as well
        misfit = abs(mpf(data["results"]["slope"]["dec"]) + 3)
        assert abs(mpf(check["lhs"]["dec"]) - misfit) <= mpf(2) ** (8 - 192)


def test_contiguity_cli_checks(capsys):
    code, out = run(["contiguity", "--y", "0.05", "--size", "2", "--span", "6"],
                    capsys)
    assert code == 0
    data = json.loads(out)
    names = [c["name"] for c in data["checks"]]
    assert "contiguous_attains_minimum" in names
    assert all(c["satisfied"] for c in data["checks"])
    # the report's checks are the library's, as built by the scan
    res = srflimits.contiguity_scan(SystemParams.from_y("0.05"), 2, 6)
    assert data["checks"] == reports.encode(res.checks, 256)


def test_recover_builds_the_window_gram_once(monkeypatch, capsys):
    # the report's measurement_norm comes from the Gram matrix l0_solve
    # already built, and equals core.measurement_norm bit for bit
    from srflimits import core, recovery

    calls = []
    build_gram = core.build_gram

    def counting(*args, **kwargs):
        calls.append(args)
        return build_gram(*args, **kwargs)

    for module in (core, recovery, cli):
        monkeypatch.setattr(module, "build_gram", counting)
    code, out = run(["recover", "--y", "0.1", "--window", "0,1,2,3",
                     "--coeffs", "1;0;2-1j;0", "--sigma", "1e-6", "--k-cap", "3"], capsys)
    assert code == 0 and len(calls) == 1
    f = srflimits.MeasurementVector(window=SupportSet.of(0, 1, 2, 3),
                                    coeffs=(1, 0, mpc(2, -1), 0), rho=0)
    norm = srflimits.measurement_norm(SystemParams.from_y("0.1"), f)
    assert json.loads(out)["results"]["measurement_norm"] == reports.encode(norm, 256)


def test_csv_output_parses(capsys):
    code, out = run(["bounds", "--y", "0.1", "--n", "2", "--samples", "120",
                     "--polys", "25", "--format", "csv",
                     "--precision-bits", "128"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "lhs", "rhs", "slack", "satisfied"]
    assert len(rows) > 5
    for row in rows[1:]:
        float(row[1]), float(row[2]), float(row[3])
        assert row[4] in ("true", "false")


def test_szego_point_query(capsys):
    code, out = run(["szego", "--y", "0.1", "--z", "3.0",
                     "--precision-bits", "128"], capsys)
    assert code == 0
    data = json.loads(out)
    assert float(data["results"]["abs_Phi_z"]["dec"]) > 1
    assert float(data["results"]["phi_roundtrip_error"]["dec"]) < 1e-30


def test_spark_cli(capsys):
    code, out = run(["spark", "--y", "0.1", "--eps", "0.1", "--k-max", "4",
                     "--precision-bits", "192"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["results"]["spark"] == 2
    assert data["results"]["saturated"] is False


def test_asymptote_cli(capsys):
    code, out = run(["asymptote", "--support", "0,1",
                     "--y-grid", "0.001,0.002,0.004,0.008"], capsys)
    assert code == 0
    data = json.loads(out)
    alpha = float(data["results"]["alpha"]["dec"])
    assert abs(alpha - 2) < 0.01
    assert data["results"]["gram_order_alpha"] == 2
    assert data["results"]["limit"] == reports.enc_real(smally_limit((0, 1), 256), 256)
    # grid values are parsed at the report's bits, like --y
    grid = ("0.001", "0.002", "0.004", "0.008")
    echoed = [row["y"] for row in data["results"]["table"]]
    assert sorted(echoed, key=lambda e: float(e["dec"])) == \
        [reports.enc_real(SystemParams.from_y(v, bits=256).y, 256) for v in grid]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(["smin", "--y", "0.1", "--support", "0,1",
                     "--output", str(target), "--precision-bits", "128"], capsys)
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["results"]["sigma_min"]["dec"].startswith("0.1279388796")


def test_unwritable_output_exit_two(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code = run_cli(["gram", "--y", "0.1", "--support", "0,1", "--output", str(target)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert any(line.startswith("error:") for line in err.splitlines())
    assert not target.exists()


def test_exhaustive_spark_without_span_names_the_missing_span(capsys):
    code = run_cli(["spark", "--y", "0.1", "--eps", "0.5", "--mode", "exhaustive"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "requires span_max, and none was given" in err
    assert ">=" not in err


@pytest.mark.parametrize("argv", [
    ["bounds", "--y", "0.1", "--n", "12"],
    ["bounds", "--y", "0.05", "--n", "10"],
])
def test_bounds_faber_peaks_hold_at_small_y(argv, capsys):
    # float64 sums of Faber coefficients up to c^-n used to read
    # 2.4098 > 2.4 and 4.236 > 2.2 here
    code, out = run(argv, capsys)
    assert code == 0
    checks = [c for c in json.loads(out)["checks"] if c["name"].startswith("faber_arc_max")]
    assert len(checks) == int(argv[-1]) + 1
    assert all(c["satisfied"] for c in checks)


def test_selftest_plumbing(monkeypatch, capsys):
    # wire the subcommand through a stubbed suite; the real criteria run
    # (and are asserted) in test_acceptance.py
    import srflimits.acceptance as acceptance
    from srflimits.acceptance import CriterionOutcome

    def fake_run_all():
        return [CriterionOutcome("criterion_stub", True, "stub detail", 0.0)]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    code, out = run(["selftest"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["results"]["criteria"][0]["passed"] is True
    assert data["checks"][0]["name"] == "criterion_stub"
    assert data["status"] == "pass"


def test_asymptote_csv_table(capsys):
    code, out = run(["asymptote", "--support", "0,1",
                     "--y-grid", "0.002,0.004,0.006,0.008",
                     "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["y", "lambda_min", "lambda_min_enclosure"]
    assert len(rows) == 5
    lo, hi = rows[1][2].split(";")
    assert float(lo) <= float(rows[1][1]) <= float(hi)


def test_malformed_values_exit_two(capsys):
    code, _ = run(["gram", "--y", "0.1", "--support", "0,banana"], capsys)
    assert code == 2
    code, _ = run(["smin", "--y", "0.1", "--support", "0,x"], capsys)
    assert code == 2
    code, _ = run(["szego", "--y", "0.1", "--z", "not-a-number"], capsys)
    assert code == 2
    code, _ = run(["smin", "--y", "1/0", "--support", "0,1"], capsys)
    assert code == 2


def test_smin_and_epsilon_report_a_proven_enclosure(capsys):
    def dec(obj):
        with workprec(obj["bits"] + 8):
            return mpf(obj["dec"])

    for argv, key in [(["smin", "--y", "0.1", "--support", "0,5"], "sigma_min"),
                      (["epsilon", "--y", "0.2", "--k", "4"], "epsilon"),
                      (["epsilon", "--y", "0.2", "--k", "1"], "epsilon")]:
        code, out = run(argv, capsys)
        res = json.loads(out)["results"]
        box = res[key + "_enclosure"]
        assert code == 0
        assert dec(box["lo"]) <= dec(res[key]) <= dec(box["hi"])
        with workprec(256):
            assert dec(box["hi"]) - dec(box["lo"]) <= mpf("1e-6") * dec(box["lo"])


def test_spark_levels_and_asymptote_rows_report_a_proven_enclosure(capsys):
    # their values come from the certifying level, usually 128 bits, so the
    # 82 printed digits are not all right; the enclosure says which are
    def dec(obj):
        with workprec(obj["bits"] + 8):
            return mpf(obj["dec"])

    code, out = run(["spark", "--y", "0.1", "--eps", "0.1", "--k-max", "4"], capsys)
    levels = json.loads(out)["results"]["levels"]
    assert code == 0 and [level["k"] for level in levels] == [1, 2, 3]
    code, out = run(["asymptote", "--support", "0,1,2",
                     "--y-grid", "0.001,0.002,0.004,0.008"], capsys)
    rows = json.loads(out)["results"]["table"]
    assert code == 0 and len(rows) == 4
    for value, box in ([(level["epsilon"], level["epsilon_enclosure"]) for level in levels]
                       + [(row["lambda_min"], row["lambda_min_enclosure"]) for row in rows]):
        assert dec(box["lo"]) <= dec(value) <= dec(box["hi"])
        with workprec(256):
            assert dec(box["hi"]) - dec(box["lo"]) <= mpf("1e-6") * dec(box["lo"])


def test_leading_dash_values_need_the_equals_form(capsys):
    # after a space argparse reads "-3,5" and "-1;0" as options
    code, out = run(["smin", "--y", "0.1", "--support=-3,5", "--precision-bits", "128"],
                    capsys)
    assert code == 0 and json.loads(out)["results"]["support"] == [-3, 5]
    recover = ["recover", "--y", "0.1", "--window", "0,1", "--sigma", "1e-6",
               "--k-cap", "1", "--precision-bits", "128"]
    code, _ = run(recover + ["--coeffs=-1;0"], capsys)
    assert code == 0
    for argv in (["smin", "--y", "0.1", "--support", "-3,5"], recover + ["--coeffs", "-1;0"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


def test_szego_nan_point_exit_two(capsys):
    code, out = run(["szego", "--y", "0.1", "--z", "nan"], capsys)
    assert code == 2 and out == ""
    code, _ = run(["szego", "--y", "0.1", "--z", "1+nanj"], capsys)
    assert code == 2


def test_recover_nan_sigma_exit_two(capsys):
    code, out = run(["recover", "--y", "0.1", "--window", "0,1,2",
                     "--coeffs", "1;0;1", "--sigma", "nan", "--k-cap", "2"], capsys)
    assert code == 2 and out == ""
    code, _ = run(["recover", "--y", "0.1", "--window", "0,1,2",
                   "--coeffs", "1;0;1", "--rho", "nan", "--sigma", "0.1",
                   "--k-cap", "2"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["minimax", "--y", "0.2", "--k", "1", "--sigma", "inf"],
    ["spark", "--y", "0.1", "--eps", "inf", "--k-max", "2"],
    ["adversary", "--y", "0.2", "--k", "1", "--sigma", "inf"],
    ["recover", "--y", "0.1", "--window", "0,1,2", "--coeffs", "1;0;1",
     "--sigma", "inf", "--k-cap", "2"],
    ["recover", "--y", "0.1", "--window", "0,1,2", "--coeffs", "1;0;1",
     "--rho", "inf", "--sigma", "0.1", "--k-cap", "2"],
    ["recover", "--y", "0.1", "--window", "0,1,2", "--coeffs", "inf;0;1",
     "--sigma", "0.1", "--k-cap", "2"],
])
def test_infinite_input_exit_two(argv, capsys):
    code, out = run(argv, capsys)
    assert code == 2 and out == ""


def test_minimax_bounds_use_sigma_at_report_bits(capsys):
    code, out = run(["minimax", "--y", "0.2", "--k", "1", "--sigma", "1e-6",
                     "--precision-bits", "256"], capsys)
    assert code == 0
    res = json.loads(out)["results"]
    with workprec(300):
        eps = mpf(res["eps_2k"]["dec"])
        upper = mpf(res["upper_bound"]["dec"])
        lower = mpf(res["lower_bound"]["dec"])
        sigma = mpf("1e-6")
        assert abs(upper - 2 * sigma / eps) <= mpf(2) ** (-200) * upper
        assert abs(lower - sigma / (2 * eps)) <= mpf(2) ** (-200) * lower


@pytest.mark.parametrize("argv", [
    ["spark", "--y", "0.2", "--eps", "0.1", "--k-max", "-1"],
    ["recover", "--y", "0.1", "--window", "0,1,2", "--coeffs", "1;0;1",
     "--sigma", "1e-6", "--k-cap", "-1"],
    ["bounds", "--y", "0.1", "--n", "2", "--polys", "0"],
    ["contiguity", "--y", "0.1", "--size", "1", "--span", "4"],
    # a fit grid needs at least two distinct points
    ["asymptote", "--support", "0,1", "--y-grid", "0.001,0.001,0.001,0.001"],
    ["scaling", "--k", "1", "--srf-grid", "8,8,8,8"],
])
def test_bad_count_exit_two(argv, capsys):
    code, out = run(argv, capsys)
    assert code == 2 and out == ""


def _numbers(node):
    """Every decimal string of a report: the dec, re and im fields (re and
    im of a coefficient vector are lists)."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("dec", "re", "im"):
                yield from value if isinstance(value, list) else [value]
            else:
                yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)


_Y_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "0.5", "-0.1", "1/3", "1/0", "0.1.2"]),
    st.integers(min_value=1, max_value=499).map(lambda v: f"0.{v:03d}"),
)
_OFFSETS = st.lists(st.integers(min_value=-10, max_value=10), max_size=6)
_SUPPORT = st.one_of(_OFFSETS, _OFFSETS.map(lambda offs: sorted(set(offs))))


_NUMBER = st.sampled_from(["0.1", "1e-6", "0.5", "1.1", "0", "-1", "nan", "inf", "1e-30", "x"])
_Y_GRID = st.sampled_from(["0.001,0.002,0.004,0.008", "0.002,0.004,0.006,0.008,0.01",
                           "0.001,0.002,0.004", "0.001,0.002,0.004,nan",
                           "0.002,0.002,0.002,0.002", "0.01,0.02,0.03,0.04"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["gram", "smin", "epsilon", "szego", "spark", "recover",
                             "asymptote"]),
    y=_Y_TEXT,
    support=_SUPPORT,
    z=st.sampled_from(["3", "inf", "1", "nan", "-2+0.5j", "0.99"]),
    number=_NUMBER,
    grid=_Y_GRID,
)
def test_cli_exit_codes_property(command, y, support, z, number, grid):
    offsets = ",".join(map(str, support))
    argv = [command, f"--y={y}", "--precision-bits=128"]
    if command == "epsilon":
        argv.append(f"--k={max(len(support), 1)}")
    elif command == "szego":
        argv.append(f"--z={z}")
    elif command == "spark":
        argv += [f"--eps={number}", f"--k-max={min(len(support), 4)}"]
    elif command == "recover":
        coeffs = ";".join([z] + ["1"] * (len(support) - 1))
        argv += [f"--window={offsets}", f"--coeffs={coeffs}",
                 f"--sigma={number}", f"--k-cap={len(support)}"]
    elif command == "asymptote":
        argv = [command, f"--support={offsets}", f"--y-grid={grid}", "--precision-bits=128"]
    else:
        argv.append(f"--support={offsets}")
    assert_exit_code_contract(argv)


def assert_exit_code_contract(argv):
    """The run ends in a documented exit code, never an exception; a run
    that reports (exit 0 or 1) reports only finite numbers, and an error
    exit is the handler's error: 2 a DomainError, 3 any other SRFError."""
    raised = []
    handler = cli._HANDLERS[argv[0]]

    def spy(*args):
        try:
            return handler(*args)
        except Exception as exc:
            raised.append(exc)
            raise

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._HANDLERS, {argv[0]: spy}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        values = list(_numbers(json.loads(out.getvalue())))
        assert values
        with workprec(160):
            assert all(mp.isfinite(mpf(v)) for v in values)
    elif raised:
        assert code == (2 if isinstance(raised[0], DomainError) else 3), raised[0]
        assert isinstance(raised[0], SRFError), raised[0]


_SRF_GRID = st.sampled_from(["8,12,16,24", "8,12,16,24,32", "8,12,16", "8,8,8,8",
                             "2,4,8,16", "8,12,nan,16", "8,12,16,x"])
_SMALL_K = st.integers(min_value=0, max_value=2)
# sizes stay small so that no example is slow: span <= 8, k <= 2 in
# contiguous mode, n <= 3 and polys <= 5
_SCAN_AND_FIT_ARGV = st.one_of(
    st.builds(lambda y, size, span: ["contiguity", f"--y={y}", f"--size={size}",
                                     f"--span={span}"],
              _Y_TEXT, st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=8)),
    st.builds(lambda command, y, k, sigma: [command, f"--y={y}", f"--k={k}",
                                            f"--sigma={sigma}"],
              st.sampled_from(["adversary", "minimax"]), _Y_TEXT, _SMALL_K, _NUMBER),
    st.builds(lambda k, grid: ["scaling", f"--k={k}", f"--srf-grid={grid}"],
              _SMALL_K, _SRF_GRID),
    st.builds(lambda y, n, polys: ["bounds", f"--y={y}", f"--n={n}", f"--polys={polys}",
                                   "--samples=100"],
              _Y_TEXT, st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=5)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_SCAN_AND_FIT_ARGV)
def test_cli_exit_codes_property_scans_and_fits(argv):
    assert_exit_code_contract(argv + ["--precision-bits=128"])


# exhaustive scans stay small (span <= 6, k <= 3), and a missing span is
# its own case; test_huge_exhaustive_span_is_refused_up_front covers the rest
_EXHAUSTIVE_ARGV = st.builds(
    lambda command, y, k, span, number: (
        [command, f"--y={y}", "--mode=exhaustive"]
        + ([f"--eps={number}", f"--k-max={k}"] if command == "spark" else [f"--k={k}"])
        + ([f"--sigma={number}"] if command in ("adversary", "minimax") else [])
        + ([] if span is None else [f"--span={span}"])),
    st.sampled_from(["epsilon", "spark", "adversary", "minimax"]),
    st.sampled_from(["0.05", "0.1", "0.2", "0.3"]),
    st.integers(min_value=0, max_value=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    _NUMBER,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_EXHAUSTIVE_ARGV)
def test_cli_exit_codes_property_exhaustive(argv):
    assert_exit_code_contract(argv + ["--precision-bits=128"])


@pytest.mark.parametrize("argv", [
    ["epsilon", "--k", "3", "--mode", "exhaustive"],
    ["spark", "--eps", "0.1", "--k-max", "3", "--mode", "exhaustive"],
    ["adversary", "--k", "2", "--sigma", "1e-6", "--mode", "exhaustive"],
    ["minimax", "--k", "2", "--sigma", "1e-6", "--mode", "exhaustive"],
    ["contiguity", "--size", "3"],
])
def test_huge_exhaustive_span_is_refused_up_front(argv, monkeypatch, capsys):
    def no_gram(*args, **kwargs):
        raise AssertionError("a Gram matrix was built before the budget check")

    monkeypatch.setattr("srflimits.spectral.build_gram", no_gram)
    code = run_cli(argv + ["--y", "0.1", "--span", "10000000"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "exceed the enumeration budget" in err


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("srf ")]


@pytest.fixture(scope="module")
def readme_reports():
    """(argv, exit code, report text) of every README example but selftest,
    the acceptance suite, which runs on its own."""
    runs = []
    for argv in _readme_examples():
        if argv[1] != "selftest":
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run_cli(argv[1:])
            runs.append((argv, code, out.getvalue()))
    return runs


def test_readme_cli_examples_run(readme_reports):
    # catches documentation drift: every README example parses, and every
    # one but selftest runs and passes
    lines = _readme_examples()
    assert len(lines) >= 10
    parser = build_parser()
    for argv in lines:
        assert parser.parse_args(argv[1:]).subcommand == argv[1]
    for argv, code, _ in readme_reports:
        assert code == 0, argv


def test_readme_reports_derive_numbers_at_their_bits(readme_reports):
    # a check's slack, adversary's separation and szego's abs_Phi_z are
    # derived from other reported numbers; each must be good to the run's
    # bits, not to the 53 bits of mpmath's default context
    derived = []
    for argv, _, out in readme_reports:
        report = json.loads(out)
        bits = report["config"]["precision_bits"]
        res = report["results"]
        with workprec(bits + 8):
            def dec(obj):
                return mpf(obj["dec"])

            for c in report["checks"]:
                lhs, rhs = dec(c["lhs"]), dec(c["rhs"])
                derived.append((bits, dec(c["slack"]), rhs - lhs, max(abs(lhs), abs(rhs))))
            if "separation" in res:
                ratio = mpf(report["config"]["sigma"]) / dec(res["eps_2k"])
                derived.append((bits, dec(res["separation"]), ratio, ratio))
            if "abs_Phi_z" in res:
                w = mp.mpc(res["Phi_z"]["re"], res["Phi_z"]["im"])
                derived.append((bits, dec(res["abs_Phi_z"]), abs(w), abs(w)))
    assert len(derived) > 50
    for bits, reported, recomputed, scale in derived:
        with workprec(bits + 8):
            assert abs(reported - recomputed) <= mpf(2) ** (8 - bits) * scale


def test_runs_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process; a usage error between runs
    # must leave later reports unchanged
    gram = ["gram", "--y", "0.1", "--support", "0,1,3", "--precision-bits", "128"]
    eps = ["epsilon", "--y", "0.2", "--k", "3", "--precision-bits", "128"]
    assert build_parser() is build_parser()
    outs = []
    for argv in (gram, eps, None, gram):
        if argv is None:
            with pytest.raises(SystemExit) as exc:
                run_cli(["epsilon", "--y", "0.1", "--k", "x"])
            assert exc.value.code == 2
            assert run(["contiguity", "--y", "0.1", "--size", "3",
                        "--span", "10000000"], capsys)[0] == 3
            continue
        code, out = run(argv, capsys)
        assert code == 0
        outs.append(strip_timestamp(out))
    src = str(Path(srflimits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv, out in zip((gram, eps), outs):
        fresh = subprocess.run([sys.executable, "-m", "srflimits.cli", *argv],
                               capture_output=True, text=True, env=env, check=True)
        assert strip_timestamp(fresh.stdout) == out
    assert outs[2] == outs[0]
