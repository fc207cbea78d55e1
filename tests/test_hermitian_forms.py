import math

import numpy as np
import pytest

from conftest import (
    abelian,
    alt,
    assert_form_close,
    brute_basis_form,
    brute_d,
    dense_skt_defect,
    frame_codifferential,
    frame_form_inner,
    generic_integrable_bracket,
    is_real,
    iwasawa_like,
    orthonormal_real_frame,
    random_pd_metric,
    tensordot_codifferential,
    tensordot_d_mu,
    transport_metric,
)
from pluriflow import catalog
from pluriflow.errors import ValidationError
from pluriflow.hermitian_forms import (
    HermitianMetric,
    InvariantForm,
    TamedForm,
    closedness_defect,
    codifferential,
    d_mu,
    d_mu_tensor,
    form_inner,
    fundamental_form,
    gram_real,
    lee_form,
    skt_defect,
    taming_margin,
)
from pluriflow.lie_core import (
    LieBracket,
    act,
    adapted_frame,
    center,
    complexify,
    jacobi_defect,
    nijenhuis_defect,
    standard_j_diag,
    symmetrize_bracket,
)


def zeta_wedge(n, *indices):
    return brute_basis_form(n, *indices)


def test_metric_validation():
    with pytest.raises(ValidationError):
        HermitianMetric(np.array([[1.0, 1.0], [0.0, 1.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        HermitianMetric(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not positive


@pytest.mark.parametrize("validate", [True, False])
def test_metric_matrix_read_only_caller_array_writeable(validate):
    G = np.eye(2, dtype=complex)
    g = HermitianMetric(G, validate=validate)
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 2.0
    G[0, 0] = 2.0
    assert G.flags.writeable


def test_metric_derived_arrays_are_computed_once_and_read_only(rng):
    g = random_pd_metric(rng, 3)
    expected = {"inverse": np.linalg.inv(g.matrix), "gram": gram_real(g),
                "gram_inverse": np.linalg.inv(gram_real(g))}
    for name, value in expected.items():
        derived = getattr(g, name)
        assert np.array_equal(derived, value) and getattr(g, name) is derived
        assert not derived.flags.writeable
        with pytest.raises(AttributeError):
            setattr(g, name, value)


def test_metric_owns_its_matrix():
    # a write into the caller's array reaches neither the metric nor its eigenvalues
    G = np.eye(2, dtype=complex)
    g = HermitianMetric(G, validate=False)
    G[0, 0] = -5.0
    assert np.array_equal(g.matrix, np.eye(2))
    assert g.min_eigenvalue() == 1.0


def test_fundamental_form_identity_and_general():
    w0 = fundamental_form(HermitianMetric(np.eye(2)))
    expected = -1j * zeta_wedge(2, 0, 2) - 1j * zeta_wedge(2, 1, 3)
    assert_form_close(w0.tensor, expected)
    x, y, z = 1.4, 0.6, 0.2 - 0.3j
    g = HermitianMetric(np.array([[x, z], [np.conj(z), y]]))
    w = fundamental_form(g)
    expected = (-1j * x * zeta_wedge(2, 0, 2) - 1j * y * zeta_wedge(2, 1, 3)
                - 1j * z * zeta_wedge(2, 0, 3) - 1j * np.conj(z) * zeta_wedge(2, 1, 2))
    assert_form_close(w.tensor, expected)
    assert is_real(w)


def test_fundamental_form_round_trip(rng):
    for _ in range(5):
        g = random_pd_metric(rng, 3)
        back = 1j * fundamental_form(g).tensor[:3, 3:]
        assert np.abs(back - g.matrix).max() < 1e-14


def test_d_of_constant_is_zero(heisenberg):
    f = InvariantForm(np.asarray(3.7 + 0j), 2)
    assert d_mu(heisenberg.bracket, f).max_norm() == 0.0


def test_heisenberg_real_coframe_differentials(heisenberg):
    # d E^1 = d E^2 = d E^3 = 0 and d E^4 = -E^1 ^ E^3 in the adapted real
    # basis (the paper-order coframe satisfies de4 = -e1 ^ e2 for the catalog
    # bracket; the structure-equation sign is absorbed in the basis choice).
    mu = heisenberg.bracket
    _, Sinv, _, _ = adapted_frame(2)
    duals = [InvariantForm(Sinv[k, :].copy(), 2, validate=False) for k in range(4)]
    for k in (0, 1, 2):
        assert d_mu(mu, duals[k]).max_norm() < 1e-15
    de4 = d_mu(mu, duals[3])
    S, _, _, _ = adapted_frame(2)
    val = np.einsum("A,B,AB->", S[:, 0], S[:, 2], de4.tensor)
    assert val == pytest.approx(-1.0)


def test_solvable_coframe_differentials(solvable):
    # d zeta^1 = -(1/2) zeta^12 + (1/2) zeta^1 2bar, d zeta^2 = 0
    mu = solvable.bracket
    zeta1 = InvariantForm(np.eye(4)[0].astype(complex), 2, validate=False)
    zeta2 = InvariantForm(np.eye(4)[1].astype(complex), 2, validate=False)
    d1 = d_mu(mu, zeta1)
    expected = -0.5 * zeta_wedge(2, 0, 1) + 0.5 * zeta_wedge(2, 0, 3)
    assert_form_close(d1.tensor, expected)
    assert d_mu(mu, zeta2).max_norm() < 1e-15


def test_d_squared_zero_all_degrees(rng):
    entries = [catalog.heisenberg_kt(), catalog.inoue_s0(1.0, 1.0),
               catalog.solvable_2414(), catalog.torus(2),
               catalog.random_2step_skt(3, 2)]
    for entry in entries:
        mu = entry.bracket
        dim = 2 * mu.n
        for deg in range(0, dim - 1):
            T = rng.standard_normal((dim,) * deg) + 1j * rng.standard_normal((dim,) * deg)
            if deg >= 1:
                T = _antisymmetrize(T)
            form = InvariantForm(T, mu.n, validate=False)
            dd = d_mu(mu, d_mu(mu, form))
            assert dd.max_norm() < 1e-12 * max(np.abs(T).max(), 1.0)


def _antisymmetrize(T):
    return alt(T) / math.factorial(T.ndim)


def test_d_matches_bruteforce(rng, solvable, inoue):
    cases = [(solvable.bracket, range(0, 4)), (inoue.bracket, range(0, 4)),
             (iwasawa_like(), range(1, 5)), (catalog.random_2step_skt(3, 5).bracket, range(1, 5))]
    for mu, degrees in cases:
        dim = 2 * mu.n
        for deg in degrees:
            T = rng.standard_normal((dim,) * deg) + 1j * rng.standard_normal((dim,) * deg)
            if deg >= 1:
                T = _antisymmetrize(T)
            got = d_mu_tensor(mu.coeffs, T, mu.n)
            assert got.shape == (dim,) * (deg + 1)
            assert_form_close(got, brute_d(mu, T), tol=1e-12, scale=max(np.abs(T).max(), 1.0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_d_and_codifferential_equal_tensordot_forms_bitwise(n):
    # the products on reshaped operands reproduce np.tensordot bit for bit:
    # d on 1- to 3-forms, d* on 2- to 4-forms (outputs of degree 1 to 3)
    rng = np.random.default_rng(300 + n)
    m = 2 * n
    raw = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
    brackets = [LieBracket(symmetrize_bracket(raw, n), validate=False), catalog.torus(n).bracket]
    if n >= 2:
        brackets += [catalog.random_2step_skt(n, seed).bracket for seed in range(2)]
    if n == 2:
        brackets += [catalog.heisenberg_kt().bracket, catalog.inoue_s0(1.0, 1.0).bracket,
                     catalog.solvable_2414().bracket]
    for mu in brackets:
        g = random_pd_metric(rng, n)
        for deg in (1, 2, 3):
            T = _random_form(rng, m, deg)
            got, want = d_mu_tensor(mu.coeffs, T, n), tensordot_d_mu(mu.coeffs, T)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), deg
            T = _random_form(rng, m, deg + 1)
            got = codifferential(mu, g, InvariantForm(T, n, validate=False)).tensor
            want = tensordot_codifferential(mu, g, T)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), deg + 1


def test_dolbeault_split_abelian_and_bidegree_bookkeeping(rng, heisenberg):
    zeta1 = InvariantForm(np.eye(4)[0].astype(complex), 2, validate=False)
    assert d_mu(abelian(), zeta1).max_norm() == 0.0
    # d of the pure (1,1) form omega has no (3,0) or (0,3) part for integrable mu
    d = d_mu(heisenberg.bracket, fundamental_form(random_pd_metric(rng, 2)))
    assert d.bidegree_part(3, 0).max_norm() == d.bidegree_part(0, 3).max_norm() == 0.0


def test_codifferential_abelian_zero(rng):
    mu = abelian()
    g = random_pd_metric(rng, 2)
    w = fundamental_form(g)
    assert codifferential(mu, g, w).max_norm() == 0.0


def _random_form(rng, dim, deg):
    T = rng.standard_normal((dim,) * deg) + 1j * rng.standard_normal((dim,) * deg)
    return _antisymmetrize(T) if deg > 1 else T


def test_codifferential_adjointness(rng):
    brackets = [catalog.heisenberg_kt().bracket, catalog.inoue_s0(1.0, 1.0).bracket,
                catalog.solvable_2414().bracket, iwasawa_like(),
                catalog.random_2step_skt(3, 2).bracket]
    for mu in brackets:
        n = mu.n
        g = random_pd_metric(rng, n)
        for deg in (1, 2, 3, 4):
            for _ in range(6):
                alpha = InvariantForm(_random_form(rng, 2 * n, deg - 1), n, validate=False)
                beta = InvariantForm(_random_form(rng, 2 * n, deg), n, validate=False)
                lhs = form_inner(d_mu(mu, alpha), beta, g)
                rhs = form_inner(alpha, codifferential(mu, g, beta), g)
                assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_slot_metric_kernels_match_orthonormal_frame(rng, n):
    # reference: the same products in a g-orthonormal real coframe U, where
    # U U^H = K = diag(conj G^-1, G^-1).  Differences are bounded by the
    # inputs' scale, since at top degree on a unimodular algebra d* is pure
    # rounding and a bound relative to the output would misjudge it.
    m = 2 * n
    eps = np.finfo(float).eps
    for seed in range(2):
        g = random_pd_metric(rng, n, spread=4.0)
        mu = catalog.random_2step_skt(n, seed).bracket
        K = complexify(np.conj(np.linalg.inv(g.matrix)))
        k_max, kinv_max = np.abs(K).max(), np.abs(g.matrix).max()
        U, _ = orthonormal_real_frame(g)
        assert np.abs(U @ U.conj().T - K).max() <= 16 * m * eps * k_max
        for deg in range(5):
            a, b = _random_form(rng, m, deg), _random_form(rng, m, deg)
            got = form_inner(InvariantForm(a, n, validate=False),
                             InvariantForm(b, n, validate=False), g)
            scale = np.abs(a).max() * np.abs(b).max() * k_max ** deg
            assert abs(got - frame_form_inner(a, b, g)) <= 16 * m * m * eps * scale, deg
            if deg < 2:
                continue
            got = codifferential(mu, g, InvariantForm(a, n, validate=False)).tensor
            scale = np.abs(mu.coeffs).max() * np.abs(a).max() * k_max ** 2 * kinv_max
            err = np.abs(got - frame_codifferential(mu, g, a)).max()
            assert err <= 16 * m * m * eps * scale, deg


def test_codifferential_of_omega_supported_on_center_duals(heisenberg):
    mu = heisenberg.bracket
    g = HermitianMetric(np.eye(2))
    dsw = codifferential(mu, g, fundamental_form(g))
    assert dsw.max_norm() > 0.01
    xi = center(mu)
    # evaluation on complement directions Z_1, Z_1bar vanishes
    assert abs(dsw.tensor[0]) < 1e-12 and abs(dsw.tensor[2]) < 1e-12
    assert max(abs(dsw.tensor[1]), abs(dsw.tensor[3])) > 0.01
    assert xi.shape[1] == 2


def test_skt_defect_examples(rng, heisenberg, torus2):
    for _ in range(5):
        g = random_pd_metric(rng, 2)
        assert skt_defect(heisenberg.bracket, g) < 1e-13
    assert skt_defect(torus2.bracket, random_pd_metric(rng, 2)) == 0.0
    mu = iwasawa_like()
    g = HermitianMetric(np.eye(3))
    got = skt_defect(mu, g)
    assert got > 0.1
    # brute-force double differential oracle, same g-induced norm
    w = fundamental_form(g)
    dw = brute_d(mu, w.tensor)
    d21 = InvariantForm(dw, 3, validate=False).bidegree_part(2, 1)
    ddw = brute_d(mu, d21.tensor)
    part22 = InvariantForm(ddw, 3, validate=False).bidegree_part(2, 2)
    expected = np.sqrt(form_inner(part22, part22, g).real)
    assert got == pytest.approx(expected, rel=1e-12)


def test_skt_defect_equivalence_invariance(rng, heisenberg):
    mu = iwasawa_like()
    g = random_pd_metric(rng, 3)
    base = skt_defect(mu, g)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 2 * np.eye(3)
    moved = skt_defect(act(h, mu), transport_metric(h, g))
    assert moved == pytest.approx(base, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_skt_defect_block_rule_matches_dense_forms(rng, n):
    # generic integrable tensors, not Jacobi: every block term is O(1)
    for _ in range(3):
        mu = generic_integrable_bracket(rng, n)
        assert nijenhuis_defect(mu) == 0.0 and jacobi_defect(mu) > 0.1
        for g in (HermitianMetric(np.eye(n)), random_pd_metric(rng, n)):
            expected = dense_skt_defect(mu, g)
            assert expected > 0.1
            assert abs(skt_defect(mu, g) - expected) <= 1e-13 * expected


def test_lee_form(rng, heisenberg, inoue, torus2):
    g0 = HermitianMetric(np.eye(2))
    assert lee_form(torus2.bracket, g0).max_norm() == 0.0
    theta = lee_form(heisenberg.bracket, g0)
    # supported on the duals of the center (indices 1 and 3)
    assert abs(theta.tensor[0]) < 1e-12 and abs(theta.tensor[2]) < 1e-12
    assert theta.max_norm() > 0.01
    th_inoue = lee_form(inoue.bracket, g0)
    assert th_inoue.max_norm() > 0.1
    # defining property g(J theta, alpha) = g(omega, d alpha) on a basis of 1-forms
    mu = inoue.bracket
    w = fundamental_form(g0)
    jtheta = InvariantForm(standard_j_diag(2) * th_inoue.tensor, 2, validate=False)
    for k in range(4):
        alpha = InvariantForm(np.eye(4)[k].astype(complex), 2, validate=False)
        lhs = form_inner(jtheta, alpha, g0)
        rhs = form_inner(w, d_mu(mu, alpha), g0)
        assert abs(lhs - rhs) < 1e-12
    # d(J theta) closes the chain back to the two Ricci forms: with the
    # defining property above, J theta = d* omega, so d(J theta) = rho_C - rho_B
    from pluriflow.connections import ricci_forms

    data = ricci_forms(mu, g0)
    djtheta = d_mu(mu, jtheta)
    diff = data.rho_c.tensor - data.rho_b_trace.tensor
    assert np.abs(djtheta.tensor - diff).max() < 1e-12


def test_taming_margin(rng, torus2):
    n = 2
    g0 = HermitianMetric(np.eye(n))
    assert taming_margin(TamedForm(g0)) == pytest.approx(1.0, abs=1e-13)
    assert taming_margin(torus2.default_tamed) == pytest.approx(1.0, abs=1e-13)
    g = HermitianMetric(np.diag([2.0, 0.5]))
    beta = np.array([[0, 0.7 - 0.2j], [-0.7 + 0.2j, 0]])
    assert taming_margin(TamedForm(g, beta)) == pytest.approx(0.5, abs=1e-13)


def test_taming_margin_beta_independent_bitwise(rng):
    g = random_pd_metric(rng, 2)
    beta1 = np.array([[0, 0.3 + 1j], [-0.3 - 1j, 0]])
    m0 = taming_margin(TamedForm(g))
    m1 = taming_margin(TamedForm(g, beta1))
    assert m0 == m1  # bit identical


def test_taming_margin_full_pairing_oracle(rng):
    # the literal symmetrization of Omega(J., .) gives the same margin
    g = random_pd_metric(rng, 2)
    beta = np.array([[0, 0.4 - 0.1j], [-0.4 + 0.1j, 0]])
    tf = TamedForm(g, beta)
    S, _, J_real, _ = adapted_frame(2)
    W = (S.T @ tf.full_form().tensor @ S).real
    A = J_real.T @ W
    margin_full = float(np.linalg.eigvalsh(0.5 * (A + A.T)).min() / 2.0)
    assert margin_full == pytest.approx(taming_margin(tf), abs=1e-12)


def test_taming_margin_is_min_eigenvalue(rng):
    # the taming margin is the smallest eigenvalue of the metric, so the
    # positivity floor of the hs flow trips before taming can be lost
    for n in (2, 3, 4, 5):
        for _ in range(20):
            g = random_pd_metric(rng, n, spread=rng.uniform(0.1, 10.0))
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            margin = taming_margin(TamedForm(g, B - B.T))
            assert abs(margin - g.min_eigenvalue()) <= 1e-12 * np.linalg.norm(g.matrix)


def test_closedness_defect(solvable, torus2, rng):
    mu = solvable.bracket
    assert closedness_defect(mu, solvable.default_tamed) < 1e-14
    # w != i z breaks closedness; defect agrees with the brute-force derivative
    g = solvable.default_tamed.omega
    bad_beta = np.array([[0, 0.5], [-0.5, 0]])
    tf = TamedForm(g, bad_beta)
    defect = closedness_defect(mu, tf)
    expected = np.abs(brute_d(mu, tf.full_form().tensor)).max()
    assert defect == pytest.approx(expected, rel=1e-12)
    assert defect > 0.01
    const = TamedForm(random_pd_metric(rng, 2), np.array([[0, 1j], [-1j, 0]]))
    assert closedness_defect(abelian(), const) == 0.0
