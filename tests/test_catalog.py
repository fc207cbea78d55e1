import math

import numpy as np
import pytest

from conftest import dense_skt_defect
from pluriflow import catalog
from pluriflow.catalog import _hs_radius
from pluriflow.errors import ValidationError
from pluriflow.bismut_ricci import rho11_matrix, rho20_matrix
from pluriflow.hermitian_forms import HermitianMetric, closedness_defect, skt_defect
from pluriflow.lie_core import bracket_norm_sq, center, jacobi_defect, nilpotency_step


def all_entries():
    return [catalog.heisenberg_kt(), catalog.inoue_s0(1.0, 1.0),
            catalog.solvable_2414(), catalog.torus(2),
            catalog.random_2step_skt(2, 0), catalog.random_2step_skt(3, 0)]


def test_names_and_get():
    assert "heisenberg_kt" in catalog.names()
    entry = catalog.get("torus", n=3)
    assert entry.bracket.n == 3
    with pytest.raises(ValidationError):
        catalog.get("nope")


def test_heisenberg_structure(heisenberg):
    mu = heisenberg.bracket
    assert nilpotency_step(mu) == 2
    assert center(mu).shape[1] == 2
    assert mu.coeffs[0, 2, 1] == pytest.approx(-0.5)
    assert mu.coeffs[0, 2, 3] == pytest.approx(0.5)
    assert skt_defect(mu, heisenberg.default_metric) == 0.0
    assert bracket_norm_sq(mu) == pytest.approx(2.0)


def test_inoue_structure(inoue):
    lam = (1.0 + 1j * 1.0) / 2.0
    assert inoue.bracket.coeffs[0, 1, 0] == pytest.approx(lam)
    assert nilpotency_step(inoue.bracket) is None
    g0 = HermitianMetric(np.eye(2))
    r = rho11_matrix(inoue.bracket.coeffs, g0.matrix, g0.inverse)
    assert r[1, 1] == pytest.approx(-3.0)  # rho_22 at x = y = 1, z = 0 with a = 1
    with pytest.raises(ValidationError):
        catalog.inoue_s0(0.0, 1.0)


def test_solvable_structure(solvable):
    c = solvable.bracket.coeffs
    assert c[0, 2, :].max() == 0.0  # [Z1, Z1bar] = 0
    assert c[1, 3, :].max() == 0.0  # [Z2, Z2bar] = 0
    assert c[0, 1, 0] == pytest.approx(0.5)
    assert c[0, 3, 0] == pytest.approx(-0.5)
    assert closedness_defect(solvable.bracket, solvable.default_tamed) < 1e-14
    # displayed four-term Bismut Ricci form at (x, y, z) = (1, 1, 0.3)
    G = solvable.default_tamed.omega.matrix
    D = 1.0 - 0.09
    r20 = rho20_matrix(solvable.bracket.coeffs, G, solvable.default_tamed.omega.inverse)
    assert r20[0, 1] == pytest.approx(1j * 0.3 / (4 * D), rel=1e-13)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_inoue_parameter_sweep(a):
    entry = catalog.inoue_s0(a, 1.0)
    x, y, z = 1.3, 0.9, 0.2 - 0.4j
    det = x * y - abs(z) ** 2
    G = HermitianMetric(np.array([[x, z], [np.conj(z), y]]))
    r = rho11_matrix(entry.bracket.coeffs, G.matrix, G.inverse)
    assert r[1, 1] == pytest.approx(-3 * a * a * x * y / det, rel=1e-12)
    assert r[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert skt_defect(entry.bracket, G) < 1e-13
    cf = entry.closed_forms["pluriclosed"]
    G0 = np.diag([1.0, 2.0]).astype(complex)
    assert cf.applies_to(G0)
    assert cf.evaluate(G0, 3.0)[1, 1].real == pytest.approx(2.0 + 9 * a * a)


def test_torus_everything_flat():
    entry = catalog.torus(2)
    assert np.abs(entry.bracket.coeffs).max() == 0.0
    assert entry.default_tamed is not None
    assert entry.closed_forms["pluriclosed"].evaluate(np.eye(2), 5.0) is not None
    with pytest.raises(ValidationError):
        catalog.torus(0)


def test_tags_are_verified_not_declared():
    for entry in all_entries():
        if "nilpotent" in entry.tags:
            assert nilpotency_step(entry.bracket) is not None
        if "skt" in entry.tags:
            assert skt_defect(entry.bracket, entry.default_metric) < 1e-10
        assert jacobi_defect(entry.bracket) < 1e-12


def test_random_generator_constraints():
    for seed in range(8):
        e = catalog.random_2step_skt(3, seed)
        assert nilpotency_step(e.bracket) <= 2
        xi = center(e.bracket)
        # J-invariance of the center: multiplication by i preserves the span
        from pluriflow.lie_core import principal_angles, standard_j_diag

        jbasis = np.diag(standard_j_diag(3)) @ xi
        assert principal_angles(xi, jbasis).max() < 1e-10
        assert skt_defect(e.bracket, e.default_metric) < 1e-10


def test_random_generator_determinism_and_n2_family():
    a = catalog.random_2step_skt(3, 21).bracket.coeffs
    b = catalog.random_2step_skt(3, 21).bracket.coeffs
    assert np.array_equal(a, b)
    e = catalog.random_2step_skt(2, 3)
    # n = 2 reproduces the Heisenberg family up to isomorphism invariants
    assert center(e.bracket).shape[1] == 2
    assert nilpotency_step(e.bracket) == 2


def _fd_check(evaluate, seed, rhs, t_samples, rng_scale=1.0):
    eps = 1e-5
    worst = 0.0
    for t in t_samples:
        fp = evaluate(seed, t + eps)
        fm = evaluate(seed, t - eps)
        fc = evaluate(seed, t)
        if isinstance(fp, tuple):
            for dp, dm, comp_rhs in zip(fp, fm, rhs(fc)):
                d = (np.asarray(dp) - np.asarray(dm)) / (2 * eps)
                scale = max(np.abs(comp_rhs).max(), 1e-9)
                worst = max(worst, float(np.abs(d - comp_rhs).max() / scale))
        else:
            d = (np.asarray(fp) - np.asarray(fm)) / (2 * eps)
            comp = rhs(fc)
            scale = max(np.abs(comp).max(), 1e-9)
            worst = max(worst, float(np.abs(d - comp).max() / scale))
    return worst


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_draws_unchanged_by_dense_skt_defect(monkeypatch, n):
    # random_2step_skt accepts a draw when skt_defect < 1e-10; the block
    # rule's rounding must never change which draw is accepted
    drawn = [catalog.random_2step_skt(n, seed).bracket.coeffs for seed in range(21)]
    monkeypatch.setattr(catalog, "skt_defect", dense_skt_defect)
    for seed, coeffs in enumerate(drawn):
        assert np.array_equal(catalog.random_2step_skt(n, seed).bracket.coeffs, coeffs)


def test_closed_forms_satisfy_their_odes(rng):
    ts = rng.uniform(0.2, 20.0, 10)

    h = catalog.heisenberg_kt()
    G0 = np.array([[1.2, 0.3 - 0.2j], [0.3 + 0.2j, 0.9]])
    cf = h.closed_forms["pluriclosed"]
    assert cf.applies_to(G0)
    worst = _fd_check(cf.evaluate, G0,
                      lambda G: -rho11_matrix(h.bracket.coeffs, G, np.linalg.inv(G)), ts)
    assert worst < 1e-6

    cfb = h.closed_forms["bracket"]
    assert cfb.applies_to(h.bracket.coeffs)

    def bracket_rhs(c):
        from pluriflow.flows import delta_mu
        from pluriflow.bismut_ricci import rho11_matrix as r11

        identity = np.eye(2, dtype=complex)
        Pc = r11(c, identity, identity).T
        P = np.zeros((4, 4), dtype=complex)
        P[:2, :2] = Pc
        P[2:, 2:] = np.conj(Pc)
        return 0.5 * delta_mu(c, P)

    worst = _fd_check(cfb.evaluate, h.bracket.coeffs, bracket_rhs, ts)
    assert worst < 1e-6

    s = catalog.solvable_2414()
    seed = (s.default_tamed.omega.matrix, s.default_tamed.beta)
    cfh = s.closed_forms["hs"]
    assert cfh.applies_to(seed)

    def hs_rhs(state):
        G, _ = state
        return (-rho11_matrix(s.bracket.coeffs, G, np.linalg.inv(G)),
                -rho20_matrix(s.bracket.coeffs, G, np.linalg.inv(G)))

    worst = _fd_check(cfh.evaluate, seed, hs_rhs, ts)
    assert worst < 1e-6

    i = catalog.inoue_s0(1.0, 1.0)
    cfi = i.closed_forms["pluriclosed"]
    G0 = np.eye(2, dtype=complex)
    assert cfi.applies_to(G0)
    worst = _fd_check(cfi.evaluate, G0,
                      lambda G: -rho11_matrix(i.bracket.coeffs, G, np.linalg.inv(G)), ts)
    assert worst < 1e-6


def _hs_seeds(rng, count):
    """Seeds of the closed-form tamed family: beta01 = i G01, |G01| < 0.8 sqrt(G00 G11)."""
    for _ in range(count):
        x0, y0 = rng.uniform(0.5, 2.0, 2)
        z0 = rng.uniform(0.0, 0.8) * np.sqrt(x0 * y0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        G = np.array([[x0, z0], [np.conj(z0), y0]])
        yield G, np.array([[0.0, 1j * z0], [-1j * z0, 0.0]])


def _hs_equation(G, t):
    """F and the target of the hs law's radius equation F(|z(t)|) = F(|z0|) + t/4."""
    x, y = G[0, 0].real, G[1, 1].real

    def F(r):
        return r * r / (2.0 * x) - y * math.log(r)

    return F, F(abs(G[0, 1])) + t / 4.0


def test_hs_law_matches_brentq(rng):
    from scipy.optimize import brentq

    law = catalog.solvable_2414().closed_forms["hs"].evaluate
    compared = 0
    for G, beta in _hs_seeds(rng, 100):
        F, _ = _hs_equation(G, 0.0)
        rho0 = abs(G[0, 1])
        for t in (0.1, 1.0, 5.0, 20.0):
            Gt, beta_t = law((G, beta), t)
            _, target = _hs_equation(G, t)
            lo = rho0
            while F(lo) < target:
                lo *= 0.5
            # the reference is converged to 4 eps relative, not to an absolute tolerance
            ref = brentq(lambda r: F(r) - target, lo, rho0, xtol=1e-300,
                         rtol=4 * np.finfo(float).eps)
            got = abs(Gt[0, 1])
            assert np.angle(Gt[0, 1]) == pytest.approx(np.angle(G[0, 1]), abs=1e-15)
            assert beta_t[0, 1] == 1j * Gt[0, 1]
            if got > 1e-3:
                assert abs(got - ref) <= 1e-13 * ref
                compared += 1
    assert compared > 300


def test_hs_law_residual_at_late_time(rng):
    law = catalog.solvable_2414().closed_forms["hs"].evaluate
    for G, beta in _hs_seeds(rng, 100):
        Gt, _ = law((G, beta), 50.0)
        F, target = _hs_equation(G, 50.0)
        assert abs(Gt[0, 1]) > 0.0
        assert abs(F(abs(Gt[0, 1])) - target) <= 4 * np.spacing(target)
        # |z(1e4)| < exp(-2500 / G11) underflows to zero
        assert law((G, beta), 1e4)[0][0, 1] == 0.0


def test_hs_radius_converges_in_few_evaluations(rng):
    most = 0
    for G, _ in _hs_seeds(rng, 100):
        x, y, rho0 = G[0, 0].real, G[1, 1].real, abs(G[0, 1])
        for t in (0.1, 1.0, 5.0, 20.0, 50.0):
            F, target = _hs_equation(G, t)
            lo = rho0
            while F(lo) < target:
                lo *= 0.5
            calls = []

            def counted(r):
                calls.append(r)
                return F(r)

            r = _hs_radius(counted, x, y, target, lo, rho0)
            assert lo <= r <= rho0
            most = max(most, len(calls))
    assert most <= 16
