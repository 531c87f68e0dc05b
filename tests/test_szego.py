"""Conformal maps, Szego kernel, leading coefficients, Faber polynomials."""

import gc
import os
import subprocess
import sys
import textwrap
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import to_fixed

from srflimits import (
    Phi_map,
    SystemParams,
    arc_inner_product,
    bound_suite,
    faber_poly,
    gram_entry,
    leading_coeffs,
    phi_map,
    szego_kernel,
    szego_reproduce,
)
from conftest import lit
from srflimits import szego
from srflimits.core import SupportSet, build_gram, gram_radius
from srflimits.errors import (
    ConvergenceError,
    DomainError,
    NotPositiveDefiniteError,
    OnArcError,
    PoleError,
    SRFError,
)
from srflimits.hp import hp_cholesky
from srflimits.szego import arc_rule, legendre_nodes, phi_prime_sqrt


def phi_prime(c, w):
    """phi'(w) = c (w^2 + 2 c w + 1)/(w + c)^2, the derivative of
    phi_map: the oracle for phi_prime_sqrt and the kernel."""
    return c * (w * w + 2 * c * w + 1) / ((w + c) * (w + c))


def test_phi_fixes_one():
    for c in ("0.1", "0.45", "0.7"):
        assert abs(phi_map(mpf(c), 1) - 1) == 0


def test_phi_rational_point():
    assert abs(phi_map(mpf("0.5"), 2) - mpf("1.6")) < mpf(2) ** (-200)


def test_phi_pole():
    with pytest.raises(PoleError):
        phi_map(mpf("0.5"), mpf("-0.5"))


def test_phi_endpoint_angle():
    # w on the unit circle with cos(theta) = -c maps to the arc endpoint
    p = SystemParams.from_y("0.1", bits=256)
    with workprec(256):
        t = mp.acos(-p.c)
        z = phi_map(p.c, mp.exp(mpc(0, 1) * t))
        assert abs(abs(z) - 1) < mpf(2) ** (-240)
        assert abs(mp.arg(z) - mp.pi * p.y) < mpf(2) ** (-240)


def test_phi_double_covers_the_arc():
    p = SystemParams.from_y("0.22", bits=128)
    with workprec(128):
        for t in np.linspace(-np.pi, np.pi, 41):
            z = phi_map(p.c, mp.exp(mpc(0, 1) * mpf(float(t))))
            assert abs(abs(z) - 1) < mpf(2) ** (-100)
            assert abs(mp.arg(z)) <= mp.pi * p.y + mpf(2) ** (-100)


def test_inverse_map_roundtrip_bulk():
    p = SystemParams.from_y("0.17", bits=128)
    rng = np.random.default_rng(2)
    with workprec(128):
        for _ in range(1000):
            r = 1 + 9 * mpf(float(rng.random()))
            t = 2 * mp.pi * mpf(float(rng.random()))
            w = r * mp.exp(mpc(0, 1) * t)
            z = phi_map(p.c, w)
            back = Phi_map(p.c, z, bits=128)
            assert abs(back - w) <= mpf(2) ** (-64) * abs(w)
            assert abs(back) > 1


def test_inverse_map_leading_behavior():
    p = SystemParams.from_y("0.12", bits=192)
    with workprec(192):
        ratio = Phi_map(p.c, mpf(100), bits=192) / 100
        assert abs(ratio - 1 / p.c) < mpf("0.02") / p.c


def test_inverse_map_rejects_arc_points():
    p = SystemParams.from_y("0.2", bits=128)
    with workprec(128):
        z = mp.exp(mpc(0, 1) * mp.pi * p.y / 2)
    with pytest.raises(OnArcError):
        Phi_map(p.c, z, bits=128)


def test_phi_prime_sqrt_is_analytic_branch():
    # squares back to phi', and 1/q(Phi(z)) squares back to 1/phi'(Phi(z))
    p = SystemParams.from_y("0.3", bits=192)
    rng = np.random.default_rng(9)
    with workprec(192):
        for _ in range(50):
            w = (1 + 4 * mpf(float(rng.random()))) * \
                mp.exp(mpc(0, 1) * 2 * mp.pi * mpf(float(rng.random())))
            q = phi_prime_sqrt(p.c, w)
            assert abs(q * q - phi_prime(p.c, w)) < mpf(2) ** (-150) * abs(q * q)
            z = phi_map(p.c, w)
            W = Phi_map(p.c, z, bits=192)
            s = 1 / phi_prime_sqrt(p.c, W)
            assert abs(s * s - 1 / phi_prime(p.c, W)) < mpf(2) ** (-120) * abs(s * s)


# --- Szego kernel -----------------------------------------------------------


def test_kernel_rejects_nan_point():
    p = SystemParams.from_y("0.1")
    with pytest.raises(DomainError):
        szego_kernel(p, None, mpc("nan"))
    with pytest.raises(DomainError):
        szego_kernel(p, mpc(3, float("nan")), None)
    # an infinite part does not make a point with a NaN part infinity
    for point in (mpc("nan", "inf"), mpc("inf", "nan")):
        with pytest.raises(DomainError):
            szego_kernel(p, point, 3)


def test_kernel_at_infinity():
    p = SystemParams.from_y("0.1", bits=256)
    val = szego_kernel(p, None, None)
    with workprec(256):
        assert abs(val - 2 * p.y / p.c) < mpf(2) ** (-240)
        assert abs(val - p.arc_length / (mp.pi * p.c)) < mpf(2) ** (-240)


def test_kernel_extremal_identity():
    # K(z, inf)/K(inf, inf) = sqrt(c * Phi'(z))
    p = SystemParams.from_y("0.2", bits=192)
    with workprec(192):
        for z in (mpf(3), mpc(1, 2), mpc(-2, "0.7")):
            lhs = szego_kernel(p, z, None) / szego_kernel(p, None, None)
            rhs = mp.sqrt(p.c) / phi_prime_sqrt(p.c, Phi_map(p.c, z, bits=192))
            assert abs(lhs - rhs) < mpf(2) ** (-150) * abs(rhs)


def test_kernel_hermitian_symmetry():
    p = SystemParams.from_y("0.14", bits=192)
    with workprec(192):
        a, b = mpc(2, 1), mpc("0.3", -2)
        k1 = szego_kernel(p, a, b)
        k2 = szego_kernel(p, b, a)
        assert abs(k1 - mp.conj(k2)) < mpf(2) ** (-150) * abs(k1)


def test_reproducing_constant_function():
    # F == 1 must come back as exactly 1 from the boundary quadrature
    p = SystemParams.from_y("0.1", bits=256)
    val = szego_reproduce(p, 0, mpf(4))
    assert abs(val - 1) < mpf("1e-12")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reproducing_inverse_powers(n):
    p = SystemParams.from_y("0.23", bits=256)
    with workprec(256):
        z = phi_map(p.c, mpf("2.7") * mp.exp(mpc(0, 1)))
        val = szego_reproduce(p, n, z)
        ref = Phi_map(p.c, z, bits=256) ** (-n)
        assert abs(val - ref) <= mpf("1e-10") * abs(ref)


def test_non_finite_points_and_fractional_degrees_are_refused():
    # the non-finite points used to double toward the node cap, and int()
    # turned a degree of 1.5 into 1
    p = SystemParams.from_y("0.17")
    for z in (mpc("nan", 0), mpc("inf", 0)):
        with pytest.raises(DomainError):
            szego_reproduce(p, 1, z)
    with pytest.raises(DomainError):
        szego_reproduce(p, 1.5, mpf(4))
    with pytest.raises(DomainError):
        faber_poly(p, 2.5)
    with pytest.raises(DomainError):
        leading_coeffs(p, 2.7)


# --- boundary rule ----------------------------------------------------------


@pytest.mark.parametrize("y", ["0.05", "0.3"])
@pytest.mark.parametrize("bits", [128, 256])
def test_reproduce_matches_inverse_power_of_seeded_preimage(y, bits):
    # no rule and no Phi_map: z = phi(w) from a seeded w, checked against w^-n
    p = SystemParams.from_y(y, bits=bits)
    rng = np.random.default_rng(5)
    with workprec(bits):
        for r in ("1.1", "3.2"):
            w = mpf(r) * mp.expj(mpf(float(rng.uniform(-np.pi, np.pi))))
            z = phi_map(p.c, w)
            for n in range(6):
                want = w ** -n
                assert abs(szego_reproduce(p, n, z) - want) <= mpf("1e-20") * abs(want)


def _reproduce_oracle(p, n, z, bits):
    """The reproducing integral with the kernel, Phi' and w^-n evaluated
    afresh at every node, under the same substitution, nested trapezoid
    rule and stopping test as szego_reproduce, but without its node
    tables."""
    c, L = p.c, p.arc_length
    with workprec(bits):
        W = Phi_map(c, z, bits=bits)
        SW = 1 / phi_prime_sqrt(c, W)

        def f(t):
            w = mp.exp(mpc(0, 1) * t)
            P = w * mp.conj(W)
            K = (L / mp.pi) * (1 / phi_prime_sqrt(c, w)) * mp.conj(SW) * P / (P - 1)
            return w ** (-n) * mp.conj(K) * abs(phi_prime(c, w))

        t0 = mp.acos(-c)
        total = mpc(0)
        for a, b in ((-t0, t0), (t0, 2 * mp.pi - t0)):
            width = b - a

            def g(s):
                t = a + width * (1 - mp.cos(mp.pi * s)) / 2
                return f(t) * width * (mp.pi / 2) * mp.sin(mp.pi * s)

            vals, prev = [], None
            for panels in (16, 32, 64, 128, 256):
                ks = range(1, panels, 2) if vals else range(1, panels)
                vals += [g(mpf(k) / panels) for k in ks]
                cur = sum(vals) / panels
                peak = max(abs(v) for v in vals)
                if prev is not None and \
                        abs(cur - prev) <= szego.QUAD_REL_TARGET * max(abs(cur), peak):
                    break
                prev = cur
            else:
                raise AssertionError("oracle quadrature did not converge")
            total += cur
        return total / (2 * L)


def test_reproduce_matches_pointwise_oracle():
    # 128 bits before 256 on each arc, and a second arc after the first:
    # a node table shared across arcs or bits would miss the tolerance
    szego._node_table.cache_clear()
    for y in ("0.1", "0.17"):
        for bits in (128, 256):
            p = SystemParams.from_y(y, bits=bits)
            with workprec(bits):
                z = phi_map(p.c, 4 * mp.exp(mpc(0, 1)))
            for n in range(6):
                got = szego_reproduce(p, n, z)
                want = _reproduce_oracle(p, n, z, bits)
                with workprec(bits):
                    assert abs(got - want) <= mpf(2) ** (16 - bits) * abs(want)


def _count_panels_and_nodes(monkeypatch):
    """Record each piece's final panel count, read off the levels that
    reach _level_sum (level j holds 2^j nodes, so a rule of m panels has
    summed m - 1 of them), and count the nodes each node table evaluates
    and the kernel ratios h/(W - w) formed from its levels, one integer
    complex division each, when the point has none kept."""
    panels, built, divided = [], Counter(), Counter()
    level_sum, evaluate = szego._level_sum, szego._NodeTable._level
    ratios = szego._Point.level

    def summing(pairs, n, F):
        if len(pairs) == 1:  # level 0 opens a piece's loop
            panels.append(1)
        panels[-1] += len(pairs)
        return level_sum(pairs, n, F)

    def counting(table, m):
        for node in evaluate(table, m):
            built[table] += 1
            yield node

    def dividing(point, table, piece, j):
        fresh = (piece, j) not in point.levels
        pairs, peak = ratios(point, table, piece, j)
        divided[table] += len(pairs) if fresh else 0
        return pairs, peak

    monkeypatch.setattr(szego, "_level_sum", summing)
    monkeypatch.setattr(szego._NodeTable, "_level", counting)
    monkeypatch.setattr(szego._Point, "level", dividing)
    return panels, built, divided


def _clear_caches():
    szego._node_table.cache_clear()
    szego._point.cache_clear()


def test_reproduction_evaluates_each_node_once(monkeypatch):
    panels, built, _ = _count_panels_and_nodes(monkeypatch)
    _clear_caches()
    p = SystemParams.from_y("0.2", bits=144)
    tables = [szego._node_table(p.c, 144, piece) for piece in (0, 1)]
    with workprec(144):
        near = phi_map(p.c, mpf("1.3") * mp.expj(1))
        far = phi_map(p.c, 4 * mp.expj(-2))
    szego_reproduce(p, 3, near)
    # 16 panels, then doublings: N - 1 nodes per piece, not 16 + 32 + ... + N
    assert panels[0] > 32
    assert [built[t] for t in tables] == [m - 1 for m in panels]
    built.clear()
    szego_reproduce(p, 2, far)
    assert max(panels[2:]) <= min(panels[:2])
    assert not built


def test_degrees_at_one_point_divide_once_per_node(monkeypatch):
    panels, _, divided = _count_panels_and_nodes(monkeypatch)
    _clear_caches()
    p = SystemParams.from_y("0.2", bits=144)
    tables = [szego._node_table(p.c, 144, piece) for piece in (0, 1)]
    with workprec(144):
        near = phi_map(p.c, mpf("1.3") * mp.expj(1))
        far = phi_map(p.c, 4 * mp.expj(-2))
    for z in (near, far):
        panels.clear()
        divided.clear()
        for n in range(6):
            szego_reproduce(p, n, z)
        # panels alternate piece 0, piece 1; the deepest degree sets the count
        assert [divided[t] for t in tables] == \
            [max(panels[0::2]) - 1, max(panels[1::2]) - 1]


def test_interleaved_reproductions_match_cold_ones():
    # ratios kept for one point must serve no other point, bits or arc
    cases = []
    for y in ("0.1", "0.17"):
        for bits in (128, 256):
            p = SystemParams.from_y(y, bits=bits)
            with workprec(bits):
                z1, z2 = (phi_map(p.c, 3 * mp.expj(a)) for a in (1, -2))
            cases += [(p, z1), (p, z2), (p, z1)]
    _clear_caches()
    warm = [[szego_reproduce(p, n, z) for n in range(6)] for p, z in cases]
    for (p, z), got in zip(cases, warm):
        _clear_caches()
        assert got == [szego_reproduce(p, n, z) for n in range(6)]


def test_reproduction_keeps_the_ratios_of_the_last_point_only():
    # a point's kernel ratios take as much memory again as the node tables,
    # and only repeated identical points would reuse those of an earlier one
    _clear_caches()
    p = SystemParams.from_y("0.17", bits=128)
    with workprec(128):
        z1, z2 = (phi_map(p.c, 3 * mp.expj(a)) for a in (1, -2))
    szego_reproduce(p, 1, z1)
    first = weakref.ref(szego._point(p, z1))
    assert first().levels
    szego_reproduce(p, 1, z2)
    gc.collect()
    assert first() is None
    assert szego._point.cache_info().currsize == 1
    # the node tables hold node levels only, and those stay for z2
    for piece in (0, 1):
        table = szego._node_table(p.c, 128, piece)
        assert all(len(nodes) == 1 << j for j, nodes in table.levels.items())
    assert szego._node_table.cache_info().currsize == 2


def test_node_tables_keep_nothing_above_retention(monkeypatch):
    # a limit of 32 panels stands in for 2^10, so the run stays small
    panels, built, divided = _count_panels_and_nodes(monkeypatch)
    monkeypatch.setattr(szego, "RETAIN_NODES", 32)
    _clear_caches()
    bits = 136
    p = SystemParams.from_y("0.1", bits=bits)
    with workprec(bits):
        w = mpf("1.3") * mp.expj(1)
        z = phi_map(p.c, w)
        val = szego_reproduce(p, 2, z)
        assert abs(val - w ** -2) < mpf("1e-20") * abs(w ** -2)
    assert min(panels) > 32
    tables = [szego._node_table(p.c, bits, piece) for piece in (0, 1)]
    assert [sum(map(len, t.levels.values())) for t in tables] == [31, 31]
    # the point keeps every level, above the limit too, until the next point
    kept = szego._point(p, z).levels
    assert [sum(len(pairs) for (k, _), (pairs, _) in kept.items() if k == piece)
            for piece in (0, 1)] == [m - 1 for m in panels]
    # every level above the limit was built and divided afresh, nothing else twice
    assert [built[t] for t in tables] == [m - 1 for m in panels]
    assert [divided[t] for t in tables] == [m - 1 for m in panels]


def test_degrees_at_one_point_evaluate_each_level_once(monkeypatch):
    # z = phi(1.02 e^i) doubles past RETAIN_NODES panels on one piece; the
    # six degrees there evaluate every level of each node table once, the
    # levels above the limit included, which the point keeps
    calls = Counter()
    evaluate = szego._NodeTable._level
    monkeypatch.setattr(szego._NodeTable, "_level",
                        lambda table, m: calls.update([(table, m)]) or evaluate(table, m))
    _clear_caches()
    p = SystemParams.from_y("0.17", bits=128)
    with workprec(128):
        z = phi_map(p.c, mpf("1.02") * mp.expj(1))
    for n in range(6):
        szego_reproduce(p, n, z)
    assert max(m for _, m in calls) > szego.RETAIN_NODES
    assert set(calls.values()) == {1}


def test_reproduction_oracle_and_l0_never_load_numpy():
    # numpy is imported on first use, by the sampled suites and the general
    # lambda_min kernel's float start only: no contiguous support loads it
    script = textwrap.dedent("""
        import sys
        from mpmath import mpc
        from srflimits import (CoefficientVector, SupportSet, SystemParams,
                               arc_inner_product, build_gram, epsilon, l0_solve,
                               leading_coeffs, smally_exponent, synthesize,
                               szego_reproduce, verify_srf_bounds)
        from srflimits.spectral import min_eig_for_support
        p = SystemParams.from_y("0.17", bits=128)
        szego_reproduce(p, 2, mpc(3, 1))
        arc_inner_product([0, 1], [1], p)
        build_gram(p, SupportSet.of(0, 2, 5))
        x = CoefficientVector(support=SupportSet.of(3), values=(mpc(2),))
        l0_solve(p, synthesize(p, x, SupportSet(tuple(range(6)))), 0, 2)
        # a level below the certifying guard, and a deep ladder
        min_eig_for_support(SystemParams.from_y("0.0401"), range(13))
        min_eig_for_support(SystemParams.from_y("0.1"), range(65))
        epsilon(p, 5)
        verify_srf_bounds(p, 6)
        smally_exponent([0, 1, 2], ["0.001", "0.002", "0.004", "0.008"])
        leading_coeffs(p, 6)
        sys.exit("numpy was loaded" if "numpy" in sys.modules else 0)
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_node_tables_are_kept_per_arc_bits_and_piece():
    _clear_caches()
    keys = []
    for y in ("0.1", "0.17"):
        for bits in (128, 256):
            p = SystemParams.from_y(y, bits=bits)
            with workprec(bits):
                szego_reproduce(p, 1, phi_map(p.c, 4 * mp.expj(1)))
            keys += [(p.c, bits, piece) for piece in (0, 1)]
    tables = [szego._node_table(*key) for key in keys]
    assert szego._node_table.cache_info().hits == len(keys)
    # the only node of level 0, s = 1/2, is w = +-1 on every arc; the
    # first of level 1, s = 1/4, moves
    quarter = {t.levels[1][0][:2] for t in tables}
    assert len(quarter) == len(keys)
    assert szego._node_table.cache_info().maxsize is not None


def test_degrees_at_one_point_map_the_point_once(monkeypatch):
    calls = Counter()
    inverse = szego.Phi_map
    monkeypatch.setattr(szego, "Phi_map", lambda *a, **k: calls.update([a[1]]) or inverse(*a, **k))
    szego._point.cache_clear()
    p = SystemParams.from_y("0.17", bits=128)
    with workprec(128):
        z1, z2 = (phi_map(p.c, 3 * mp.expj(a)) for a in (1, -2))
    for z in (z1, z2):
        for n in range(6):
            szego_reproduce(p, n, z)
    assert calls == Counter([z1, z2])


def test_far_points_keep_their_relative_accuracy():
    # the ratios h/(W - w) sit at a per-point scale 2^(F + mag W): at one
    # absolute scale a point at |w| = 2^100 kept 2^-100 of their bits and
    # reproduced F = 1 about 10^15 times worse than one at |w| = 2^10
    p = SystemParams.from_y("0.05", bits=128)
    errs = []
    for k in (10, 100):
        with workprec(128):
            z = phi_map(p.c, mpf(2) ** k * mp.expj(mpf("0.3")))
        val = szego_reproduce(p, 0, z)
        with workprec(256):
            errs.append(abs(val - 1) * mpf(2) ** 128)
    assert errs[0] <= 2 ** 13
    assert errs[1] <= 2 * errs[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    bits=st.sampled_from([64, 128, 256, 512]),
    t=st.floats(min_value=-3.2, max_value=3.2),
    e=st.integers(min_value=0, max_value=100),
    mag=st.integers(min_value=-20, max_value=20),
    arg=st.floats(min_value=-3.2, max_value=3.2),
    n=st.integers(min_value=0, max_value=64),
)
def test_fixed_point_terms_stay_within_the_stated_bound(bits, t, e, mag, arg, n):
    # szego_reproduce's docstring: with rho = 2^(1/2 - F), m = |n - 1|, the
    # term r conj(w)^m (n = 0: r w) from inputs truncated to scale 2^F (w)
    # and 2^(F+e) (r) is within rho (2m |r| + 2^(1-e)) of its exact value
    F = bits + szego.FIXED_GUARD
    with workprec(2 * bits):
        w = mp.expj(mpf(t))
        r = mp.ldexp(1, mag - e) * mp.expj(mpf(arg))
        fixed = [to_fixed(x._mpf_, F) for x in (w.real, w.imag)]
        fixed += [to_fixed(x._mpf_, F + e) for x in (r.real, r.imag)]
        sr, si = szego._level_sum([tuple(fixed)], n, F)
        got = mpc(mp.ldexp(sr, -2 * F - e), mp.ldexp(si, -2 * F - e))
        want = r * (w if n == 0 else mp.conj(w) ** (n - 1))
        m = abs(n - 1)
        rho = mp.ldexp(mp.sqrt(2), -F)
        assert abs(got - want) <= rho * (2 * m * abs(r) + mp.ldexp(2, -e))


def test_quadrature_node_cap_raises(monkeypatch):
    # the cap is read at call time: at 32 panels a point near the arc stops
    # after one doubling, and the oracle refuses a degree-200 monomial, whose
    # rule would have 152 nodes, before it builds any rule
    monkeypatch.setattr(szego, "QUAD_NODE_CAP", 32)
    monkeypatch.setattr(szego, "_NODE_CACHE", {})
    p = SystemParams.from_y("0.3", bits=128)
    with workprec(128):
        z = phi_map(p.c, mpf("1.001") * mp.exp(mpc(0, 1)))
    with pytest.raises(ConvergenceError):
        szego_reproduce(p, 1, z)
    with pytest.raises(ConvergenceError):
        arc_inner_product([0] * 200 + [1], [1], p)
    assert szego._NODE_CACHE == {}


def test_legendre_oracle_raises_before_building_a_rule_above_the_cap(monkeypatch):
    # the rule's size comes from its error bound before any rule is built:
    # at y = 0.3 and 128 bits z^12 needs 31 nodes and z^15 needs 34, so with
    # the cap at 32 the first is computed and the second refused by
    # arc_rule and arc_inner_product alike; RETAIN_NODES, which bounds the
    # trapezoid tables, does not bound the rule
    monkeypatch.setattr(szego, "QUAD_NODE_CAP", 32)
    monkeypatch.setattr(szego, "RETAIN_NODES", 8)
    monkeypatch.setattr(szego, "_NODE_CACHE", {})
    p = SystemParams.from_y("0.3", bits=128)
    assert arc_rule([0] * 12 + [1], [1], p)[0] == 31
    arc_inner_product([0] * 12 + [1], [1], p)
    assert list(szego._NODE_CACHE) == [(31, 128)]
    for call in (arc_rule, arc_inner_product):
        with pytest.raises(ConvergenceError):
            call([0] * 15 + [1], [1], p)
    assert list(szego._NODE_CACHE) == [(31, 128)]


@pytest.mark.parametrize("n, bits", [(1, 128), (2, 128), (13, 128), (22, 256),
                                     (35, 256), (20, 512)])
def test_legendre_nodes_are_symmetric_and_integrate_even_powers(n, bits):
    # each node legendre_nodes returns, and the sum of its weights' errors,
    # lie within nu = 2^-(bits + NODE_GUARD) of the exact rule's, so x^j
    # integrates to 2/(j + 1) within nu (1 + 2j) for even j <= 2n - 2
    nodes = legendre_nodes(n, bits)
    assert len(nodes) == n
    assert [x for x, _ in nodes] == sorted(x for x, _ in nodes)
    assert all(x + x2 == 0 and w == w2 for (x, w), (x2, w2) in zip(nodes, reversed(nodes)))
    with workprec(4 * bits):
        for j in range(0, 2 * n - 1, 2):
            got = mp.fsum(w * x ** j for x, w in nodes)
            assert abs(got - mpf(2) / (j + 1)) <= mp.ldexp(1 + 2 * j, -bits - szego.NODE_GUARD)


def test_legendre_nodes_refuse_a_rule_they_cannot_certify(monkeypatch):
    # nodes polished at bits + 16 + 2 bitlen(n) bits cannot be certified
    # to 2^-(bits + 64), and an uncertified rule is never cached
    monkeypatch.setattr(szego, "NODE_GUARD", 64)
    monkeypatch.setattr(szego, "_NODE_CACHE", {})
    with pytest.raises(ConvergenceError):
        legendre_nodes(13, 128)
    assert szego._NODE_CACHE == {}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    y=st.floats(min_value=0.01, max_value=0.45),
    j=st.integers(min_value=0, max_value=20),
    k=st.integers(min_value=0, max_value=20),
    bits=st.sampled_from([128, 256, 512]),
    unit=st.sampled_from([1, 1j]),
)
def test_arc_inner_product_lies_within_its_proven_error(y, j, k, bits, unit):
    # <unit z^j, z^k> is unit * gram_entry(j - k), which is itself within
    # gram_radius of the exact sinc; unit = 1j takes the complex path
    p = SystemParams.from_y(y, bits=bits)
    f, g = [0] * j + [unit], [0] * k + [1]
    _, err = arc_rule(f, g, p)
    got = arc_inner_product(f, g, p)
    radius = gram_radius(p, SupportSet.of(0, abs(j - k))) if j != k else 0
    with workprec(2 * bits):
        assert abs(got - unit * gram_entry(p, j - k)) <= err + radius


# --- leading coefficients ---------------------------------------------------


def test_leading_coeffs_k0_and_k1():
    p = SystemParams.from_y("0.1", bits=256)
    table = leading_coeffs(p, 4)
    assert abs(table.k_values[0] - 1) < mpf(2) ** (-250)
    with workprec(256):
        k1m2 = 1 / table.k_values[1] ** 2
        g = gram_entry(p, 1)
        assert abs(k1m2 - (1 - g * g)) < mpf(2) ** (-240)
        assert abs(k1m2 - lit("0.0324687907249210178")) < lit("1e-17")


def test_leading_coeffs_bracket_n1():
    p = SystemParams.from_y("0.1", bits=256)
    table = leading_coeffs(p, 2)
    with workprec(256):
        k1m2 = 1 / table.k_values[1] ** 2
        lo = lit("0.0191411192264322693373844900545")
        hi = lit("0.140957233069957712304654719867")
        assert lo < k1m2 < hi
    checks = table.thm10_checks(p)
    assert all(c.satisfied for c in checks)


def test_kn_strictly_increasing():
    p = SystemParams.from_y("0.2", bits=256)
    table = leading_coeffs(p, 8)
    for a, b in zip(table.k_values, table.k_values[1:]):
        assert b > a


def _orthonormal_poly(L, n, bits):
    """Coefficients (ascending) of the orthonormal p_n: with L the Cholesky
    factor of the monomial Gram matrix, they solve L^T x = e_n."""
    with workprec(bits):
        x = [mpf(0)] * (n + 1)
        x[n] = 1 / L[n][n]
        for i in range(n - 1, -1, -1):
            x[i] = -sum(L[k][i] * x[k] for k in range(i + 1, n + 1)) / L[i][i]
        return x


def test_orthonormality_via_quadrature():
    p = SystemParams.from_y("0.15", bits=256)
    L = hp_cholesky(build_gram(p, SupportSet(tuple(range(7))), bits=256), bits=256)
    polys = [_orthonormal_poly(L, n, 256) for n in range(7)]
    # the leading coefficient of p_n is k_n
    assert [q[-1] for q in polys] == list(leading_coeffs(p, 6).k_values)
    for m in range(7):
        for n in range(m, 7):
            ip = arc_inner_product(polys[m], polys[n], p)
            want = 1 if m == n else 0
            assert abs(ip - want) < mpf("1e-10")


# --- arc inner product ------------------------------------------------------


def test_arc_inner_product_normalization():
    p = SystemParams.from_y("0.3", bits=192)
    one = arc_inner_product([mpf(1)], [mpf(1)], p)
    assert abs(one - 1) < mpf("1e-13")


def test_arc_inner_product_matches_sinc():
    p = SystemParams.from_y("0.1", bits=192)
    z_vs_1 = arc_inner_product([mpf(0), mpf(1)], [mpf(1)], p)
    assert abs(z_vs_1.real - gram_entry(p, 1)) < mpf("1e-12")
    z2_vs_z5 = arc_inner_product([0, 0, mpf(1)], [0, 0, 0, 0, 0, mpf(1)], p)
    assert abs(z2_vs_z5.real - gram_entry(p, 3)) < mpf("1e-12")
    assert abs(z2_vs_z5.imag) < mpf("1e-12")


# --- Faber polynomials -----------------------------------------------------


def test_faber_low_degrees():
    p = SystemParams.from_y("0.1", bits=256)
    assert faber_poly(p, 0) == (mpf(1),)
    f1 = faber_poly(p, 1)
    with workprec(256):
        c = p.c
        assert abs(f1[1] - 1 / c) < mpf(2) ** (-240)
        assert abs(f1[0] - (c * c - 1) / c) < mpf(2) ** (-240)


def test_faber_degree_two_against_series_oracle():
    # independent oracle: square the degree-1 polynomial and add the
    # delta_1 correction from the Laurent series of Phi
    p = SystemParams.from_y("0.1", bits=256)
    f2 = faber_poly(p, 2)
    with workprec(256):
        c = p.c
        b0 = (c * c - 1) / c
        d1 = -b0 * (c * b0 + 1)
        oracle = ((b0 * b0 + 2 * d1 / c), (2 * b0 / c), (1 / (c * c)))
        for got, want in zip(f2, oracle):
            assert abs(got - want) < mpf(2) ** (-230) * max(1, abs(want))


def test_faber_leading_coefficient():
    p = SystemParams.from_y("0.22", bits=192)
    with workprec(192):
        for n in range(0, 13):
            coeffs = faber_poly(p, n)
            assert len(coeffs) == n + 1
            assert abs(coeffs[-1] - p.c ** (-n)) < mpf(2) ** (-150) * p.c ** (-n)


def test_faber_normalization_at_large_w():
    # F_n(phi(w)) = w^n + O(1/|w|) at infinity: the error times |w| stays
    # bounded, and the error itself keeps shrinking as |w| grows
    p = SystemParams.from_y("0.2", bits=256)
    with workprec(256):
        for n in (1, 3, 5, 10):
            coeffs = faber_poly(p, n)
            errs = []
            for w in (mpf(100), mpf(1000), mpf(10) ** 4):
                z = phi_map(p.c, w)
                errs.append(abs(sum(a * z ** i for i, a in enumerate(coeffs)) - w ** n))
                assert errs[-1] * w < 1
            assert errs[0] > errs[1] > errs[2]


def test_faber_arc_peaks_match_a_256_bit_horner_evaluation():
    # the float64 recurrence on values against faber_poly's coefficients
    # summed by Horner at 256 bits, on every 250th sample point and the
    # endpoints; y = 0.01 and 0.05 are where float64 sums of the
    # coefficients (up to c^-12 = 5e21 at y = 0.01) used to lose every digit
    step = 250
    for y in ("0.01", "0.05", "0.1", "0.45"):
        p = SystemParams.from_y(y, bits=256)
        vals = szego._np_faber_arc(p, 12)
        theta = np.linspace(-np.pi * float(p.y), np.pi * float(p.y), szego.ARC_SAMPLES)
        sub = list(range(0, szego.ARC_SAMPLES, step)) + [szego.ARC_SAMPLES - 1]
        peaks = szego.faber_arc_max(p, 12)
        assert len(peaks) == 13
        with workprec(256):
            zs = [mp.expj(mpf(float(theta[k]))) for k in sub]
            bound = 2 * (1 + 2 * p.y)
            for n in range(13):
                coeffs = faber_poly(p, n)
                horner = [abs(szego._poly_eval(coeffs, z)) for z in zs]
                assert max(abs(h - mpf(float(vals[n, k]))) for h, k in zip(horner, sub)) < 1e-10
                assert peaks[n] == mpf(float(vals[n].max())) + szego.FABER_CUSHION
                assert max(horner) <= peaks[n] <= bound


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    y=st.integers(min_value=1, max_value=499),
    n=st.integers(min_value=0, max_value=12),
    bits=st.sampled_from([128, 256]),
)
def test_faber_and_bound_suite_properties(y, n, bits):
    p = SystemParams.from_y(f"0.{y:03d}", bits=bits)
    coeffs = faber_poly(p, n)
    assert len(coeffs) == n + 1
    with workprec(bits):
        assert all(isinstance(a, mpf) and mp.isfinite(a) for a in coeffs)
        assert abs(coeffs[-1] - p.c ** (-n)) <= mpf(2) ** (16 - bits) * p.c ** (-n)
    try:
        bound_suite(p, n, samples=100, polys=1)
    except SRFError:
        pass


# --- bound suite ------------------------------------------------------------


def test_bound_suite_clean_run():
    p = SystemParams.from_y("0.1")
    res = bound_suite(p, 3, samples=150, seed=1, polys=40)
    assert all(c.satisfied for c in res.checks)
    names = {c.name for c in res.checks}
    assert "growth_exterior[n=2]" in names
    assert "phi_prime_envelope" in names


def test_bound_suite_raises_a_failed_section():
    # n = 31 passes the up-front refusal (from n = 36 at 256 bits), but the
    # k_n Cholesky fails at pivot 29
    p = SystemParams.from_y("0.05")
    with pytest.raises(NotPositiveDefiniteError):
        bound_suite(p, 31, samples=100, polys=1)


def test_bound_suite_rejects_thin_sampling():
    p = SystemParams.from_y("0.1")
    with pytest.raises(DomainError):
        bound_suite(p, 2, samples=10)


def test_bound_suite_refuses_degrees_beyond_the_precision():
    # 4 (1+2y)^2 c^(2 n_max) < 2^-bits: refused before any section runs
    p = SystemParams.from_y("0.1")
    with pytest.raises(DomainError, match="n_max"):
        bound_suite(p, 10 ** 6)


def test_growth_bound_at_constant_polynomial():
    # the kernel trace bound at P = p_0 = 1, z = 2
    p = SystemParams.from_y("0.1", bits=192)
    with workprec(192):
        z = mpf(2)
        w = Phi_map(p.c, z, bits=192)
        rhs = (p.arc_length / mp.pi) * abs(1 / phi_prime(p.c, w)) \
            * abs(w) ** 2 / (abs(w) ** 2 - 1)
        assert rhs >= 1
