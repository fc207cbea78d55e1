import numpy as np
import pytest

from conftest import (
    FORM_PAIRING_CONSTANT,
    NotTwoStepError,
    abelian,
    bismut_scalar,
    bismut_scalar_pairing_check,
    generic_integrable_bracket,
    is_real,
    iwasawa_like,
    p_annihilates_center_defect,
    random_pd_metric,
    real_matrix,
    reality_defect,
    rho_B_2step,
)
from pluriflow import catalog
from pluriflow.bismut_ricci import (
    eta,
    p_of_bracket,
    p_of_metric,
    rho11_matrix,
    rho20_matrix,
    rho_B,
    static_defect,
)
from pluriflow.flows import _bracket_field, _metric_field, delta_mu
from pluriflow.hermitian_forms import HermitianMetric, d_mu
from pluriflow.lie_core import LieBracket, act, adapted_frame, complexify, standard_j_diag


def center_family_bracket(z):
    c = np.zeros((4, 4, 4), dtype=complex)
    c[0, 2, 1] = z
    c[0, 2, 3] = -np.conj(z)
    c[2, 0, 1] = -z
    c[2, 0, 3] = np.conj(z)
    return LieBracket(c)


def general_metric(x, y, z):
    return HermitianMetric(np.array([[x, z], [np.conj(z), y]]))


def test_eta_heisenberg(heisenberg):
    x, y, z = 1.3, 0.85, 0.25 - 0.15j
    det = x * y - abs(z) ** 2
    e = eta(heisenberg.bracket, general_metric(x, y, z))
    assert e.tensor[1] == pytest.approx(1j * y ** 2 / (2 * det), rel=1e-13)
    assert e.tensor[0] == pytest.approx(1j * y * z / (2 * det), rel=1e-13)
    assert is_real(e)


def test_eta_inoue(inoue):
    a, b = 1.0, 1.0
    x, y, z = 1.1, 0.9, 0.3 + 0.2j
    det = x * y - abs(z) ** 2
    e = eta(inoue.bracket, general_metric(x, y, z))
    assert e.tensor[0] == pytest.approx(-(3 * a + 1j * b) / 2 * x * z / det, rel=1e-13)


def test_eta_abelian_zero():
    e = eta(abelian(), HermitianMetric(np.eye(2)))
    assert e.max_norm() == 0.0


def test_rho_displayed_components(heisenberg, inoue, solvable):
    x, y, z = 1.5, 0.8, 0.2 + 0.3j
    det = x * y - abs(z) ** 2
    g = general_metric(x, y, z)
    r = rho11_matrix(heisenberg.bracket.coeffs, g.matrix, g.inverse)
    assert r[0, 0] == pytest.approx(-y ** 2 / (2 * det), rel=1e-13)
    assert np.abs(np.delete(r.reshape(-1), 0)).max() < 1e-15

    a, b = 1.0, 1.0
    ri = rho11_matrix(inoue.bracket.coeffs, g.matrix, g.inverse)
    assert ri[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert ri[0, 1] == pytest.approx((3 * a ** 2 + b ** 2 - 2j * a * b) / 4 * x * z / det,
                                     rel=1e-13)
    assert ri[1, 1] == pytest.approx(-3 * a ** 2 * x * y / det, rel=1e-13)

    # four-term expression on the solvable taming family with metric (x^2, y^2, z)
    xx, yy, zz = 1.0, 1.0, 0.3
    D = xx ** 2 * yy ** 2 - abs(zz) ** 2
    rt = rho_B(solvable.bracket, general_metric(xx ** 2, yy ** 2, zz))
    coef = zz * xx ** 2 / (4 * D)
    assert rt.tensor[0, 1] == pytest.approx(1j * coef, rel=1e-13)       # zeta^12
    assert rt.tensor[0, 3] == pytest.approx(-1j * coef, rel=1e-13)      # zeta^1 2bar
    assert rt.tensor[2, 3] == pytest.approx(-1j * np.conj(coef), rel=1e-13)
    assert rt.tensor[2, 1] == pytest.approx(1j * np.conj(coef), rel=1e-13)
    assert rt.tensor[0, 2] == pytest.approx(0.0, abs=1e-15)


def test_rho_closed_and_real(rng):
    for entry in (catalog.heisenberg_kt(), catalog.inoue_s0(1.0, 1.0),
                  catalog.solvable_2414()):
        g = random_pd_metric(rng, entry.bracket.n)
        r = rho_B(entry.bracket, g)
        assert reality_defect(r) < 1e-13
        assert d_mu(entry.bracket, r).max_norm() < 1e-13


def test_rho_B_equals_d_of_eta(rng):
    # rho_B is the raw-array kernel rho_tensor; d_mu(eta) gives the same values
    # (exact zeros may differ in sign)
    brackets = [catalog.get(name).bracket for name in ("heisenberg_kt", "inoue_s0", "solvable_2414")]
    for n in (2, 3, 4, 5):
        brackets += [catalog.torus(n).bracket, catalog.random_2step_skt(n, n).bracket,
                     generic_integrable_bracket(rng, n)]
    for mu in brackets:
        for g in (HermitianMetric(np.eye(mu.n)), random_pd_metric(rng, mu.n)):
            assert np.array_equal(rho_B(mu, g).tensor, d_mu(mu, eta(mu, g)).tensor)


def test_rho_component_formula_cross_check(rng, heisenberg):
    # rho_{i jbar} = -i sum_A mu(Z_i, Z_jbar)^A eta_A, expanded in components
    mu = heisenberg.bracket
    g = random_pd_metric(rng, 2)
    n = 2
    e = eta(mu, g).tensor
    r = rho11_matrix(mu.coeffs, g.matrix, g.inverse)
    for i in range(n):
        for j in range(n):
            val = -1j * np.dot(mu.coeffs[i, n + j, :], e)
            assert val == pytest.approx(r[i, j], rel=1e-12, abs=1e-14)

    # rho11_matrix, rho20_matrix and the three flow fields are blocks of
    # rho_B = d_mu(eta), at the identity and at a random metric
    cases = [catalog.inoue_s0(), catalog.solvable_2414()]
    cases += [catalog.random_2step_skt(n, n) for n in (2, 3, 4, 5)]
    for mu in (entry.bracket for entry in cases):
        n, c = mu.n, mu.coeffs
        g0 = HermitianMetric(np.eye(n))
        for g in (g0, random_pd_metric(rng, n)):
            G = g.matrix
            T = d_mu(mu, eta(mu, g)).tensor
            rho11 = 1j * T[:n, n:]
            tol = 1e-13 * np.abs(c).max() * np.abs(eta(mu, g).tensor).max()
            assert np.abs(rho11_matrix(c, G, g.inverse) - rho11).max() <= tol
            assert np.abs(rho20_matrix(c, G, g.inverse) - T[:n, :n]).max() <= tol
            assert np.abs(_metric_field(mu, False)(G.reshape(-1)) + rho11.reshape(-1)).max() <= tol
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            hs = _metric_field(mu, True)(np.concatenate([G.reshape(-1), (B - B.T).reshape(-1)]))
            assert np.abs(hs[:n * n] + rho11.reshape(-1)).max() <= tol
            assert np.abs(hs[n * n:] + T[:n, :n].reshape(-1)).max() <= tol
        # the bracket field reads P_mu off rho_B at the standard metric
        P = (1j * d_mu(mu, eta(mu, g0)).tensor[:n, n:]).T
        tol = 1e-13 * np.abs(c).max() * np.abs(eta(mu, g0).tensor).max()
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out = _bracket_field(n, True)(np.concatenate([c.reshape(-1), h.reshape(-1)]))
        dmu = out[:(2 * n) ** 3].reshape(2 * n, 2 * n, 2 * n)
        assert np.abs(dmu - 0.5 * delta_mu(c, complexify(P))).max() <= 6 * n * np.abs(c).max() * tol
        assert np.abs(out[(2 * n) ** 3:] + 0.5 * (P @ h).reshape(-1)).max() <= n * np.abs(h).max() * tol
        assert np.array_equal(_bracket_field(n, False)(c.reshape(-1)), dmu.reshape(-1))


def test_rho_2step_shortcut(rng, heisenberg):
    g = random_pd_metric(rng, 2)
    a = rho_B(heisenberg.bracket, g)
    b = rho_B_2step(heisenberg.bracket, g)
    assert np.abs(a.tensor - b.tensor).max() < 1e-12
    assert rho_B_2step(abelian(), HermitianMetric(np.eye(2))).max_norm() == 0.0
    with pytest.raises(NotTwoStepError):
        rho_B_2step(catalog.inoue_s0(1.0, 1.0).bracket, g)


def test_rho_accepts_non_skt_pairs(rng):
    # no pluriclosed precondition on eta / rho
    mu = iwasawa_like()
    g = random_pd_metric(rng, 3)
    r = rho_B(mu, g)
    assert np.isfinite(r.max_norm())


def test_p_of_bracket_center_family():
    for z in (-0.5, 0.3 + 0.4j):
        mu = center_family_bracket(z)
        P = p_of_bracket(mu)
        assert P.matrix[0, 0] == pytest.approx(-2 * abs(z) ** 2, rel=1e-13)
        assert abs(P.matrix[0, 1]) + abs(P.matrix[1, 0]) + abs(P.matrix[1, 1]) < 1e-14
    assert np.abs(p_of_bracket(abelian()).matrix).max() == 0.0


def test_p_properties(rng, heisenberg):
    mu = heisenberg.bracket
    P = p_of_bracket(mu)
    full = complexify(P.matrix)
    n = mu.n
    jd = np.diag(standard_j_diag(n))
    assert np.abs(full @ jd - jd @ full).max() < 1e-13          # commutes with J0
    assert p_annihilates_center_defect(mu) < 1e-13              # kills the center
    # omega_0 symmetry: omega_0(P X, Y) = omega_0(P Y, X) would be wrong;
    # the right statement is symmetry of the induced pairing g_0(P X, Y).
    S, _, _, _ = adapted_frame(n)
    Pr = real_matrix(P)
    g0 = 2 * np.eye(2 * n)
    pair = Pr.T @ g0
    assert np.abs(pair - pair.T).max() < 1e-13


def test_p_of_metric_identity_matches_bracket(heisenberg):
    mu = heisenberg.bracket
    a = p_of_bracket(mu).matrix
    b = p_of_metric(mu, HermitianMetric(np.eye(2))).matrix
    assert np.abs(a - b).max() < 1e-14
    assert np.abs(p_of_metric(abelian(), HermitianMetric(np.eye(2))).matrix).max() == 0.0


def test_p_conjugation_identity_diag(heisenberg):
    # P_mu = h P(omega) h^-1 for omega = omega_0(h ., h .)
    mu0 = heisenberg.bracket
    x = 1.8
    h = np.diag([np.sqrt(x), 1.0]).astype(complex)
    G = (h.conj().T @ h).T
    Pw = p_of_metric(mu0, HermitianMetric(G)).matrix
    Pm = p_of_bracket(act(h, mu0)).matrix
    assert np.abs(Pm - h @ Pw @ np.linalg.inv(h)).max() < 1e-10


def test_p_conjugation_identity_random(rng):
    # 100 random (h, mu0) pairs across catalog algebras
    entries = [catalog.heisenberg_kt(), catalog.inoue_s0(1.0, 1.0),
               catalog.solvable_2414(), catalog.random_2step_skt(3, 1)]
    count = 0
    for entry in entries:
        mu0 = entry.bracket
        n = mu0.n
        for _ in range(25):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h += 2.0 * np.eye(n)
            G = (h.conj().T @ h).T
            Pw = p_of_metric(mu0, HermitianMetric(G)).matrix
            Pm = p_of_bracket(act(h, mu0)).matrix
            scale = max(np.abs(Pm).max(), 1e-12)
            assert np.abs(Pm - h @ Pw @ np.linalg.inv(h)).max() < 1e-10 * max(scale, 1.0)
            count += 1
    assert count == 100


def test_bismut_scalar(heisenberg):
    assert bismut_scalar(abelian()) == 0.0
    assert bismut_scalar(center_family_bracket(-0.5)) == pytest.approx(-0.5, rel=1e-14)
    b, pairing = bismut_scalar_pairing_check(heisenberg.bracket)
    assert b == pytest.approx(FORM_PAIRING_CONSTANT * pairing, rel=1e-12)


from hypothesis import given, settings, strategies as st


@given(st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_bismut_scalar_scaling(c):
    # act(c I) divides the bracket by c, so b scales by 1/c^2
    mu = catalog.heisenberg_kt().bracket
    scaled = act(c * np.eye(2), mu)
    assert bismut_scalar(scaled) == pytest.approx(bismut_scalar(mu) / c ** 2, rel=1e-11)


def test_bismut_scalar_unitary_invariance(rng, heisenberg):
    mu = heisenberg.bracket
    base = bismut_scalar(mu)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        assert bismut_scalar(act(q, mu)) == pytest.approx(base, rel=1e-12)


def test_static_defect(heisenberg, torus2):
    g0 = HermitianMetric(np.eye(2))
    fit = static_defect(torus2.bracket, g0, 0.0)
    assert fit.defect == 0.0 and fit.residual_best == 0.0
    for r in (0.7, -0.3, 0.0):
        fit = static_defect(heisenberg.bracket, g0, r)
        assert fit.defect > 1e-3
    x, y, z = 1.5, 0.8, 0.2 + 0.3j
    fit = static_defect(heisenberg.bracket, general_metric(x, y, z), 0.1)
    assert fit.residual_best > 1e-3
    assert fit.residual_best <= fit.defect + 1e-15
