import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    NotTwoStepError,
    abelian,
    count_calls,
    count_defects,
    eberlein_oracle,
    einsum_bismut,
    einsum_bismut_residuals,
    einsum_curvature,
    einsum_levi_civita,
    einsum_ricci_traces,
    generic_integrable_bracket,
    gram_orthonormal,
    non_integrable_bracket,
    one_one_part,
    random_pd_metric,
    torsion_tensor,
    two_step_skt_bracket,
)
from pluriflow import catalog, connections, hermitian_forms, lie_core
from pluriflow.errors import IntegrabilityError, ValidationError
from pluriflow.connections import (
    bismut,
    curvature,
    levi_civita,
    ricci_forms,
    torsion_three_form,
)
from pluriflow.hermitian_forms import (
    HermitianMetric,
    codifferential,
    d_mu,
    fundamental_form,
    gram_real,
    transform_form,
)
from pluriflow.bismut_ricci import rho_B
from pluriflow.lie_core import (
    LieBracket,
    adapted_frame,
    export_real_structure,
    jacobi_defect,
    nilpotency_step,
    symmetrize_bracket,
)


def test_levi_civita_abelian_zero(rng):
    conn = levi_civita(abelian(), random_pd_metric(rng, 2))
    assert np.abs(conn).max() == 0.0


def test_levi_civita_heisenberg_values(heisenberg):
    # adapted basis has [E_1, E_3] = E_4 (paper order e1, e2 with e2 = -E_3)
    conn = levi_civita(heisenberg.bracket, HermitianMetric(np.eye(2)))
    expect = np.zeros(4)
    expect[3] = 0.5
    assert np.allclose(conn[0, 2, :], expect, atol=1e-14)
    expect = np.zeros(4)
    expect[2] = -0.5
    assert np.allclose(conn[0, 3, :], expect, atol=1e-14)


def test_levi_civita_defining_properties(rng):
    for entry in (catalog.heisenberg_kt(), catalog.inoue_s0(1.0, 1.0),
                  catalog.solvable_2414()):
        mu = entry.bracket
        g = random_pd_metric(rng, mu.n)
        conn = levi_civita(mu, g)
        gram = gram_real(g)
        mats = conn.transpose(0, 2, 1)
        compat = np.abs(np.einsum("iab,ac->ibc", mats, gram)
                        + np.einsum("ab,ibc->iac", gram, mats)).max()
        torsion = np.abs(torsion_tensor(conn, mu)).max()
        assert compat < 1e-12
        assert torsion < 1e-12


def test_bismut_torus_equals_levi_civita(rng, torus2):
    g = random_pd_metric(rng, 2)
    conn = bismut(torus2.bracket, g)
    lc = levi_civita(torus2.bracket, g)
    assert np.abs(conn - lc).max() == 0.0
    assert torsion_three_form(torus2.bracket, g).max_norm() == 0.0


def test_bismut_heisenberg_torsion(heisenberg):
    mu = heisenberg.bracket
    g = HermitianMetric(np.eye(2))
    c = torsion_three_form(mu, g)
    S, _, _, _ = adapted_frame(2)
    c_real = transform_form(c.tensor, S).real
    # c = -2 E^1 ^ E^3 ^ E^4 and nothing else
    assert c_real[0, 2, 3] == pytest.approx(-2.0)
    assert np.abs(c_real).max() == pytest.approx(2.0)
    assert d_mu(mu, c).max_norm() < 1e-14  # SKT: torsion form is closed


def test_bismut_defining_properties_random_metrics(rng, heisenberg):
    for _ in range(5):
        g = random_pd_metric(rng, 2)
        bismut(heisenberg.bracket, g)  # raises if residuals exceed 1e-8


def test_curvature_antisymmetry_and_flat_abelian(rng):
    mu = abelian()
    g = random_pd_metric(rng, 2)
    R = einsum_curvature(levi_civita(mu, g), mu)
    assert np.abs(R).max() == 0.0
    entry = catalog.inoue_s0(1.0, 1.0)
    R = einsum_curvature(levi_civita(entry.bracket, random_pd_metric(rng, 2)),
                         entry.bracket)
    assert np.abs(R + R.transpose(1, 0, 2, 3)).max() < 1e-14


def test_curvature_matches_two_step_formula(heisenberg):
    # g(R(X, Y) X, W) = (3/4) g(mu(X, Y), mu(X, W)) on the center complement
    mu = heisenberg.bracket
    g = HermitianMetric(np.eye(2))
    gram = gram_real(g)
    R = einsum_curvature(levi_civita(mu, g), mu)
    c = mu.real_structure()
    low = np.einsum("ijml,mw->ijlw", R, gram)   # g(R(X, Y) Z, W) as [i, j, l, w]
    lhs = low[0, 2, 0, 2]  # g(R(E1, E3) E1, E3)
    rhs = 0.75 * (c[0, 2, :] @ gram @ c[0, 2, :])
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ricci_forms_torus_all_zero(rng, torus2):
    data = ricci_forms(torus2.bracket, random_pd_metric(rng, 2))
    assert np.abs(data.ric_g).max() == 0.0
    assert np.abs(data.ric_b).max() == 0.0
    assert data.rho_b_trace.max_norm() == 0.0
    assert data.rho_c.max_norm() == 0.0


def test_chern_form_vanishes_two_step(rng, heisenberg):
    for _ in range(5):
        g = random_pd_metric(rng, 2)
        data = ricci_forms(heisenberg.bracket, g)
        assert data.rho_c.max_norm() < 1e-12


def test_rho_trace_matches_eta_path(rng):
    entries = [catalog.heisenberg_kt(), catalog.inoue_s0(1.0, 1.0),
               catalog.solvable_2414(), catalog.torus(2)]
    for entry in entries:
        for _ in range(5):
            g = random_pd_metric(rng, entry.bracket.n)
            data = ricci_forms(entry.bracket, g)
            direct = rho_B(entry.bracket, g)
            scale = max(direct.max_norm(), 1.0)
            assert np.abs(data.rho_b_trace.tensor - direct.tensor).max() < 1e-11 * scale


def test_rho_displayed_value_heisenberg(heisenberg):
    x, y, z = 1.9, 0.7, 0.3 + 0.1j
    g = HermitianMetric(np.array([[x, z], [np.conj(z), y]]))
    data = ricci_forms(heisenberg.bracket, g)
    # rho = -i rho_11 zeta^1 ^ zeta^1bar with rho_11 = -y^2 / (2 (x y - |z|^2))
    val = data.rho_b_trace.tensor[0, 2]
    rho11 = -y ** 2 / (2 * (x * y - abs(z) ** 2))
    assert val == pytest.approx(-1j * rho11, rel=1e-12)


def test_ricci_relation_eq_torsion(rng):
    # ric_b = ric_g - (1/2) d* c - (1/4) sum_i g(T(., u_i), T(., u_i))
    for entry in (catalog.heisenberg_kt(), catalog.inoue_s0(1.0, 1.0)):
        mu = entry.bracket
        g = random_pd_metric(rng, mu.n)
        data = ricci_forms(mu, g)
        conn, c = bismut(mu, g), torsion_three_form(mu, g)
        gram = gram_real(g)
        graminv = np.linalg.inv(gram)
        T = torsion_tensor(conn, mu)
        Q = np.einsum("kl,xka,ylb,ab->xy", graminv, T, T, gram, optimize=True)
        S, _, _, _ = adapted_frame(mu.n)
        dsc = transform_form(codifferential(mu, g, c).tensor, S).real
        resid = data.ric_b - (data.ric_g - 0.5 * dsc - 0.25 * Q)
        assert np.abs(resid).max() < 1e-10


def _perp_projector(mu, g):
    from pluriflow.lie_core import center

    gram = gram_real(g)
    xi = center(mu)
    _, Sinv, _, _ = adapted_frame(mu.n)
    rc = Sinv @ xi
    cand = np.concatenate([rc.real, rc.imag], axis=1)
    Z = gram_orthonormal(cand, gram)
    return np.eye(2 * mu.n) - Z @ (Z.T @ gram)


def test_two_step_identities(rng):
    # Theorem-style identities for 2-step pluriclosed data
    for seed in range(3):
        entry = catalog.random_2step_skt(3, seed)
        mu = entry.bracket
        g = HermitianMetric(np.eye(3))
        data = ricci_forms(mu, g)
        _, _, J, _ = adapted_frame(3)
        P = _perp_projector(mu, g)
        ric_b11 = one_one_part(data.ric_b)
        ric_g11 = one_one_part(data.ric_g)
        assert np.abs(ric_b11 - 2 * P.T @ ric_g11 @ P).max() < 1e-10
        S, _, _, _ = adapted_frame(3)
        rho11_real = transform_form(
            rho_B(mu, g).bidegree_part(1, 1).tensor, S).real
        assert np.abs(rho11_real - ric_b11 @ J).max() < 1e-10


def test_eberlein_oracle(rng, heisenberg):
    g0 = HermitianMetric(np.eye(2))
    eb = eberlein_oracle(heisenberg.bracket, g0)
    ko = ricci_forms(heisenberg.bracket, g0).ric_g
    assert np.abs(eb - ko).max() < 1e-12
    for _ in range(3):
        g = random_pd_metric(rng, 2)
        eb = eberlein_oracle(heisenberg.bracket, g)
        ko = ricci_forms(heisenberg.bracket, g).ric_g
        assert np.abs(eb - ko).max() < 1e-12
    # central directions: ric(Z, Z) >= 0, zero iff iota(Z) = 0.
    # E_2 spans the inert central direction, E_4 the derived one.
    assert abs(eb[1, 1]) < 1e-13 or ko[1, 1] >= -1e-13
    eb0 = eberlein_oracle(heisenberg.bracket, g0)
    assert eb0[1, 1] == pytest.approx(0.0, abs=1e-13)
    assert eb0[3, 3] > 0.1
    assert np.abs(eberlein_oracle(abelian(), g0)).max() == 0.0


def test_eberlein_rejects_non_two_step(inoue):
    with pytest.raises(NotTwoStepError):
        eberlein_oracle(inoue.bracket, HermitianMetric(np.eye(2)))


def test_complex_notation_traces_match_real_path(rng):
    # rho(X, Y) = -i g^{rbar k} g(R(X, Y) Z_k, Z_rbar) and
    # ric(X, Y) = -i g^{rbar k} g(R(Z_k, X) Y, Z_rbar) agree with the
    # real-notation traces implemented in ricci_forms
    from pluriflow.hermitian_forms import big_bilinear

    for entry in (catalog.heisenberg_kt(), catalog.inoue_s0(1.0, 1.0)):
        mu = entry.bracket
        n = mu.n
        g = random_pd_metric(rng, n)
        data = ricci_forms(mu, g)
        R = einsum_curvature(bismut(mu, g), mu)
        S, Sinv, _, _ = adapted_frame(n)
        B = big_bilinear(g)
        Ginv = np.linalg.inv(g.matrix)
        Bbar = B[:, n:]  # pairing against Z_rbar

        # g(R(E_i, E_j) Z_k, Z_rbar)
        out = np.einsum("Cm,ijml,lk->ijCk", S, R, Sinv[:, :n])
        paired = np.einsum("ijCk,Cr->ijkr", out, Bbar)
        rho_cplx = -1j * np.einsum("rk,ijkr->ij", Ginv, paired)
        assert np.abs(rho_cplx.imag).max() < 1e-10
        assert np.abs(rho_cplx.real - _rho_real(data, n)).max() < 1e-10

        # the Ricci trace is the mixed sum g(R(Z_k, X) Y, Z_rbar) plus its
        # conjugate (the barred half of the real trace)
        first = np.einsum("ak,aimj->kimj", Sinv[:, :n], R)
        outc = np.einsum("Cm,kimj->kiCj", S, first)
        paired = np.einsum("kiCj,Cr->kijr", outc, Bbar)
        mixed = np.einsum("rk,kijr->ij", Ginv, paired)
        assert np.abs(2.0 * mixed.real - data.ric_b).max() < 1e-10


def _rho_real(data, n):
    S, _, _, _ = adapted_frame(n)
    return transform_form(data.rho_b_trace.tensor, S).real


def test_torsion_closed_iff_skt(rng):
    # dc = 0 is equivalent to the pluriclosed condition
    from conftest import iwasawa_like
    from pluriflow.hermitian_forms import skt_defect

    g2 = random_pd_metric(rng, 2)
    mu = catalog.heisenberg_kt().bracket
    c = torsion_three_form(mu, g2)
    assert skt_defect(mu, g2) < 1e-13
    assert d_mu(mu, c).max_norm() < 1e-12

    mu = iwasawa_like()
    g3 = random_pd_metric(rng, 3)
    c = torsion_three_form(mu, g3)
    assert skt_defect(mu, g3) > 1e-3
    assert d_mu(mu, c).max_norm() > 1e-3


def _oracle_cases(n):
    """(bracket, metric) pairs at size n: random 2-step SKT brackets and the
    catalog algebras, each at the identity and at a random metric."""
    rng = np.random.default_rng(100 + n)
    brackets = [catalog.random_2step_skt(n, seed).bracket for seed in range(2)]
    brackets.append(catalog.torus(n).bracket)
    if n == 2:
        brackets += [catalog.heisenberg_kt().bracket, catalog.inoue_s0(1.0, 1.0).bracket,
                     catalog.solvable_2414().bracket]
    else:
        brackets.append(two_step_skt_bracket(n, n - 1, 2))
    for mu in brackets:
        yield mu, HermitianMetric(np.eye(n))
        yield mu, random_pd_metric(rng, n)


def _assert_close(got, want, scale=None, rel=1e-13):
    scale = np.abs(want).max() if scale is None else scale
    assert np.abs(got - want).max() <= rel * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_curvature_path_matches_einsum_oracles(n):
    _, Sinv, _, _ = adapted_frame(n)
    for mu, g in _oracle_cases(n):
        lc = levi_civita(mu, g)
        lc_ref = einsum_levi_civita(mu, g)
        _assert_close(lc, lc_ref)
        bc, c_form = bismut(mu, g), torsion_three_form(mu, g)
        bc_ref = einsum_bismut(mu, g, c_form)
        _assert_close(bc, bc_ref)
        Rg_ref = einsum_curvature(lc_ref, mu)
        Rb_ref = einsum_curvature(bc_ref, mu)
        _assert_close(einsum_curvature(lc, mu), Rg_ref)
        _assert_close(einsum_curvature(bc, mu), Rb_ref)

        data = ricci_forms(mu, g)
        ric_g, ric_b, rho_real = einsum_ricci_traces(Rg_ref, Rb_ref, g)
        rho_b = transform_form(rho_real, Sinv)
        _assert_close(data.ric_g, ric_g)
        _assert_close(data.ric_b, ric_b)
        _assert_close(data.rho_b_trace.tensor, rho_b)
        # rho_C is rounding noise around 0 here, so it is judged on rho_B's scale
        ddstar = d_mu(mu, codifferential(mu, g, fundamental_form(g))).tensor
        _assert_close(data.rho_c.tensor, rho_b + ddstar, scale=np.abs(rho_b).max())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_curvature_traces_match_einsum_curvature(n):
    # ricci and rho contract the connection matrices without building R;
    # the references trace the einsum curvature.  Besides the oracle cases,
    # random connections on random (non-Jacobi) brackets.
    rng = np.random.default_rng(200 + n)
    m = 2 * n
    _, _, J_real, _ = adapted_frame(n)
    cases = []
    for mu, g in _oracle_cases(n):
        cases += [(levi_civita(mu, g), mu), (bismut(mu, g), mu)]
    for _ in range(3):
        raw = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
        mu = LieBracket(symmetrize_bracket(raw, n), validate=False)
        cases.append((rng.standard_normal((m, m, m)), mu))
    for gamma, mu in cases:
        R = curvature(gamma, mu)
        ref = einsum_curvature(gamma, mu)
        gamma[...] = 0.0   # the tensor holds its own copy
        _assert_close(R.ricci(), np.trace(ref, axis1=0, axis2=2), rel=1e-12)
        _assert_close(R.rho(), 0.5 * np.tensordot(ref, J_real, axes=([2, 3], [0, 1])),
                      rel=1e-12)


def test_judgement_and_curvature_allocate_no_m4_arrays():
    # at n = 5 an m^4 complex array takes 16 * 10^4 bytes; the Jacobi
    # judgement and the Ricci traces stay below two of them
    mu, g = catalog.random_2step_skt(5, 1).bracket, HermitianMetric(np.eye(5))
    bound = 2 * 16 * (2 * mu.n) ** 4
    peaks = []
    tracemalloc.start()
    try:
        for run in (lambda: jacobi_defect(mu), lambda: ricci_forms(mu, g)):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert max(peaks) < bound, f"peaks {[p // 1024 for p in peaks]} KiB"


def test_bismut_residuals_match_einsum_oracle(monkeypatch, rng):
    # a perturbed Levi-Civita connection breaks all three defining properties;
    # ``bismut`` builds on whatever ``levi_civita`` returns, and the residuals
    # it reports are the oracle's
    for entry in (catalog.inoue_s0(1.0, 1.0), catalog.random_2step_skt(3, 0)):
        mu = entry.bracket
        g = random_pd_metric(rng, mu.n)
        conn, c_form = bismut(mu, g), torsion_three_form(mu, g)
        assert max(einsum_bismut_residuals(mu, g, conn, c_form)) < 1e-12
        kick = 1e-3 * rng.standard_normal(conn.shape)
        compat, jres, skew = einsum_bismut_residuals(
            mu, g, einsum_bismut(mu, g, c_form) + kick, c_form)
        message = f"compat {compat:.2e}, J {jres:.2e}, skew {skew:.2e}"
        kicked = einsum_levi_civita(mu, g) + kick
        with monkeypatch.context() as m:
            m.setattr(connections, "levi_civita", lambda *_: kicked)
            with pytest.raises(ValidationError, match=re.escape(message)):
                bismut(mu, g)


def test_ricci_forms_checks_its_bracket_once(monkeypatch, rng):
    jacobi, nijenhuis = count_defects(monkeypatch)
    for n in (2, 5):
        mu, g = catalog.random_2step_skt(n, 1).bracket, random_pd_metric(rng, n)
        jacobi.clear()
        nijenhuis.clear()
        ricci_forms(mu, g)
        rho_B(mu, g)
        assert (len(jacobi), len(nijenhuis)) == (0, 0)   # its CatalogEntry judged it
        fresh = LieBracket(mu.coeffs)
        ricci_forms(fresh, g)
        ricci_forms(fresh, g)
        assert (len(jacobi), len(nijenhuis)) == (1, 1)


def test_real_structure_is_built_once_per_bracket(monkeypatch, rng):
    frames = count_calls(monkeypatch, "change_frame", lie_core)
    for n in (2, 5):
        mu, g = LieBracket(catalog.random_2step_skt(n, 1).bracket.coeffs), random_pd_metric(rng, n)
        frames.clear()
        ricci_forms(mu, g)
        curvature(levi_civita(mu, g), mu)
        nilpotency_step(mu)
        assert len(frames) == 1
        c = mu.real_structure()
        assert not c.flags.writeable and mu.real_structure() is c
        exported = export_real_structure(mu)[0]
        assert exported.flags.writeable and np.array_equal(exported, c)


def test_metric_inverts_and_builds_its_gram_matrix_once(monkeypatch, rng):
    # ricci_forms reads g.inverse (codifferential) and g.gram, g.gram_inverse
    # (both connections); rho_B reads g.inverse again
    mu, g = catalog.random_2step_skt(3, 1).bracket, random_pd_metric(rng, 3)
    inversions = count_calls(monkeypatch, "inv", np.linalg)
    grams = count_calls(monkeypatch, "gram_real", hermitian_forms)
    ricci_forms(mu, g)
    rho_B(mu, g)
    assert (len(inversions), len(grams)) == (2, 1)


def test_ricci_forms_error_paths(rng):
    g = random_pd_metric(rng, 3)
    not_jacobi = generic_integrable_bracket(rng, 3)
    with pytest.raises(ValidationError, match="Jacobi identity"):
        ricci_forms(not_jacobi, g)
    with pytest.raises(IntegrabilityError):
        ricci_forms(non_integrable_bracket(), random_pd_metric(rng, 2))
