import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    abelian,
    brute_jacobi,
    brute_nijenhuis,
    dense_jacobi,
    orthonormal_real_frame,
    random_pd_metric,
    scipy_pivots,
    transform_subspace,
)
from pluriflow import catalog, lie_core
from pluriflow.errors import SingularTransformError, ValidationError
from pluriflow.flows import IntegratorConfig, bracket_flow
from pluriflow.lie_core import (
    LieBracket,
    Subspace,
    act,
    adapted_frame,
    bracket_norm_sq,
    center,
    change_frame,
    complexify,
    export_real_structure,
    from_real_structure,
    jacobi_defect,
    nijenhuis_defect,
    nilpotency_step,
    principal_angles,
    symmetrize_bracket,
)


def test_construction_rejects_bad_symmetry():
    c = np.zeros((4, 4, 4), dtype=complex)
    c[0, 1, 2] = 1.0  # missing antisymmetric partner
    with pytest.raises(ValidationError):
        LieBracket(c)


@pytest.mark.parametrize("validate", [True, False])
def test_bracket_coeffs_read_only_caller_array_writeable(heisenberg, validate):
    c = heisenberg.bracket.coeffs.copy()
    mu = LieBracket(c, validate=validate)
    with pytest.raises(ValueError):
        mu.coeffs[0, 1, 2] = 5.0
    c[0, 1, 2] = 5.0
    assert c.flags.writeable


def test_bracket_owns_its_coefficients_and_judgement(heisenberg):
    # a write into the caller's array reaches neither the bracket nor its defects
    ref = heisenberg.bracket
    c = ref.coeffs.copy()
    mu = LieBracket(c, validate=False)
    c[0, 1, 2] = c[2, 3, 0] = 0.37   # Nijenhuis and Jacobi defects O(1) in c
    assert np.array_equal(mu.coeffs, ref.coeffs)
    assert (mu.jacobi, mu.nijenhuis) == (jacobi_defect(ref), nijenhuis_defect(ref))
    assert nijenhuis_defect(LieBracket(c, validate=False)) > 0.1
    for name in ("jacobi", "nijenhuis"):
        with pytest.raises(AttributeError):
            setattr(mu, name, 0.0)


def test_jacobi_defect_examples(heisenberg):
    assert jacobi_defect(abelian()) == 0.0
    assert jacobi_defect(heisenberg.bracket) < 1e-14


def test_jacobi_defect_perturbed_matches_bruteforce(heisenberg):
    c = heisenberg.bracket.coeffs.copy()
    # break 2-step nilpotency: make the center direction act back on Z_1
    eps = 1e-3
    c[1, 2, 0] += eps
    c[2, 1, 0] -= eps
    c[3, 0, 2] += eps  # conjugate partner entries keep reality
    c[0, 3, 2] -= eps
    mu = LieBracket(c)
    got = jacobi_defect(mu)
    assert got > 0
    assert got == pytest.approx(brute_jacobi(mu), rel=1e-12)


def test_jacobi_defect_single_contraction_matches_three_einsums(rng, heisenberg, inoue):
    def three_einsums(c):
        return np.abs(np.einsum("abd,dce->abce", c, c)
                      + np.einsum("bcd,dae->abce", c, c)
                      + np.einsum("cad,dbe->abce", c, c)).max()

    brackets = [heisenberg.bracket, inoue.bracket] + [
        catalog.random_2step_skt(n, 7).bracket for n in (2, 3, 4, 5)]
    for n in (2, 3, 5):   # generic tensors, far from Jacobi
        m = 2 * n
        raw = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
        brackets.append(LieBracket(raw - raw.transpose(1, 0, 2), validate=False))
    for mu in brackets:
        scale = np.abs(mu.coeffs).max() ** 2
        assert abs(jacobi_defect(mu) - three_einsums(mu.coeffs)) <= 64 * np.finfo(float).eps * scale


def test_jacobi_defect_split_product_matches_tensordot(rng, heisenberg, inoue, solvable):
    def tensordot_formula(c):
        D = np.tensordot(c, c, ([2], [0]))
        return float(np.abs(D + D.transpose(2, 0, 1, 3) + D.transpose(1, 2, 0, 3)).max())

    brackets = [heisenberg.bracket, inoue.bracket, solvable.bracket] + [
        catalog.random_2step_skt(n, seed).bracket for n in (2, 3, 4, 5) for seed in (0, 7)]
    for n in (2, 3, 4, 5):   # generic tensors, far from Jacobi
        m = 2 * n
        raw = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
        brackets.append(LieBracket(symmetrize_bracket(raw, n), validate=False))
    for mu in brackets:
        assert jacobi_defect(mu) == tensordot_formula(mu.coeffs)


@given(n=st.integers(1, 6), k=st.integers(-4, 4), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_jacobi_defect_equals_dense_kernel(n, k, seed):
    # generic brackets, far from Jacobi, over eight orders of magnitude
    m = 2 * n
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
    mu = LieBracket(symmetrize_bracket(10.0 ** k * raw, n), validate=False)
    assert jacobi_defect(mu) == dense_jacobi(mu)


def test_jacobi_defect_equals_dense_kernel_along_a_bracket_flow():
    # every sample of an n = 5 run sampled at each step, judged on the way
    cfg = IntegratorConfig(dt=1e-2, t_end=0.5, sample_every=1)
    traj = bracket_flow(catalog.random_2step_skt(5, 3).bracket, cfg)
    assert len(traj.states) == 51
    for state in traj.states:
        assert state.mu.jacobi == dense_jacobi(state.mu)


def test_nilpotency_step(heisenberg, inoue):
    assert nilpotency_step(abelian()) == 1
    assert nilpotency_step(heisenberg.bracket) == 2
    assert nilpotency_step(inoue.bracket) is None


def test_center(heisenberg, solvable):
    full = center(abelian())
    assert full.dim == 4
    xi = center(heisenberg.bracket)
    assert xi.dim == 2
    # spanned by Z_2 and Z_2bar
    expected = np.zeros((4, 2), dtype=complex)
    expected[1, 0] = 1.0
    expected[3, 1] = 1.0
    assert principal_angles(xi, Subspace(expected)).max() < 1e-12
    assert center(solvable.bracket).dim == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_center_thin_svd_matches_full_svd_basis(n, heisenberg, inoue, solvable):
    def full_svd_basis(mu, tol=1e-9):
        m = mu.dim
        _, s, vh = np.linalg.svd(mu.coeffs.transpose(1, 2, 0).reshape(m * m, m),
                                 full_matrices=True)
        return vh.conj().T[:, s <= tol * s[0]]

    brackets = [catalog.random_2step_skt(n, seed).bracket for seed in range(10)]
    brackets += [catalog.torus(n).bracket]
    if n == 2:
        brackets += [heisenberg.bracket, inoue.bracket, solvable.bracket]
    for mu in brackets:
        assert np.array_equal(center(mu).basis, full_svd_basis(mu))


def test_nijenhuis_defect(heisenberg):
    assert nijenhuis_defect(abelian()) == 0.0
    assert nijenhuis_defect(heisenberg.bracket) == 0.0
    c = np.zeros((4, 4, 4), dtype=complex)
    c[0, 1, 2] = 0.37  # mu(Z_1, Z_2) with only a Z_1bar component
    c[1, 0, 2] = -0.37
    c[2, 3, 0] = 0.37
    c[3, 2, 0] = -0.37
    mu = LieBracket(c)
    got = nijenhuis_defect(mu)
    assert got > 0
    assert got == pytest.approx(brute_nijenhuis(mu), rel=1e-12)


def test_nijenhuis_defect_cached_factor_is_the_formula(rng):
    # the factor is built once per n; repeated calls agree bit for bit with
    # the formula built afresh, and the shared factor is read-only
    from pluriflow.lie_core import _nijenhuis_factor, standard_j_diag

    for n in (2, 3, 4, 5):
        m = 2 * n
        raw = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
        mu = LieBracket(symmetrize_bracket(raw, n), validate=False)
        j = standard_j_diag(n)
        factor = (j[:, None, None] * j[None, :, None] - j[:, None, None] * j[None, None, :]
                  - j[None, :, None] * j[None, None, :] - 1.0)
        fresh = float(np.abs(factor * mu.coeffs).max())
        assert fresh > 0.1
        assert nijenhuis_defect(mu) == fresh and nijenhuis_defect(mu) == fresh
        assert not _nijenhuis_factor(n).flags.writeable


def test_act_identity_and_scaling(heisenberg):
    mu = heisenberg.bracket
    same = act(np.eye(2), mu)
    assert np.abs(same.coeffs - mu.coeffs).max() < 1e-15
    c = 2.5
    scaled = act(c * np.eye(2), mu)
    assert np.abs(scaled.coeffs - mu.coeffs / c).max() < 1e-14


@given(st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_act_diagonal_scaling_matches_hand_expansion(s):
    mu = catalog.heisenberg_kt().bracket
    h = np.diag([1.0, s]).astype(complex)
    out = act(h, mu)
    # mu(Z_1, Z_1bar) = -(Z_2 - Z_2bar)/2 has both slots invariant under h,
    # while the value scales by s
    assert out.coeffs[0, 2, 1] == pytest.approx(-0.5 * s)
    assert out.coeffs[0, 2, 3] == pytest.approx(0.5 * s)


def test_act_group_action_property(rng, heisenberg):
    mu = heisenberg.bracket
    for _ in range(5):
        h1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h1 /= np.linalg.norm(h1)
        h2 /= np.linalg.norm(h2)
        a = act(h2, act(h1, mu))
        b = act(h2 @ h1, mu)
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-12 * max(np.abs(b.coeffs).max(), 1.0)


def test_act_preserves_defects_and_center(rng, heisenberg):
    mu = heisenberg.bracket
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h += 2 * np.eye(2)
    out = act(h, mu)
    assert jacobi_defect(out) < 1e-12
    assert nijenhuis_defect(out) < 1e-12
    moved = center(out)
    expected = transform_subspace(h, center(mu))
    assert moved.dim == expected.dim
    assert principal_angles(moved, expected).max() < 1e-8


def test_act_rejects_singular():
    mu = catalog.heisenberg_kt().bracket
    with pytest.raises(SingularTransformError):
        act(np.array([[1.0, 0.0], [0.0, 0.0]]), mu)


def test_bracket_norm_sq(heisenberg):
    assert bracket_norm_sq(abelian()) == 0.0
    assert bracket_norm_sq(heisenberg.bracket) == pytest.approx(2.0, abs=1e-14)
    # center-supported family: norm is 8 |z|^2
    z = -0.3 + 0.4j
    c = np.zeros((4, 4, 4), dtype=complex)
    c[0, 2, 1] = z
    c[0, 2, 3] = -np.conj(z)
    c[2, 0, 1] = -z
    c[2, 0, 3] = np.conj(z)
    mu = LieBracket(c)
    assert bracket_norm_sq(mu) == pytest.approx(8 * abs(z) ** 2, rel=1e-12)
    # <mu, mu> is the sum of squares of the real structure constants
    entries = [catalog.inoue_s0(0.7, 1.3), catalog.solvable_2414()]
    entries += [catalog.random_2step_skt(n, n) for n in (2, 3, 4, 5)]
    for mu in [heisenberg.bracket] + [e.bracket for e in entries]:
        expected = float(np.sum(mu.real_structure() ** 2))
        assert bracket_norm_sq(mu) == pytest.approx(expected, rel=1e-14)


def test_catalog_brackets_pass_structural_invariants():
    entries = [catalog.heisenberg_kt(), catalog.inoue_s0(1.0, 1.0),
               catalog.solvable_2414(), catalog.torus(2),
               catalog.random_2step_skt(3, 5)]
    for e in entries:
        assert jacobi_defect(e.bracket) < 1e-12
        assert nijenhuis_defect(e.bracket) < 1e-12


def test_real_structure_round_trip(heisenberg, inoue):
    for entry in (heisenberg, inoue):
        c, J, frame = export_real_structure(entry.bracket)
        mu2, _ = from_real_structure(c, J, frame)
        assert np.abs(mu2.coeffs - entry.bracket.coeffs).max() < 1e-12
        # the (1,0) test is relative: a frame at any scale passes, and scales the bracket
        mu3, _ = from_real_structure(c, J, 1e6 * frame)
        assert np.abs(mu3.coeffs - 1e6 * entry.bracket.coeffs).max() < 1e-6


def test_frame_conditioning_reads_its_constant(monkeypatch, heisenberg):
    # the adapted frame with its conjugate has condition number 1; with the
    # bound at 0 every frame is degenerate
    c, J, frame = export_real_structure(heisenberg.bracket)
    assert lie_core.FRAME_COND_BOUND == 1e10
    from_real_structure(c, J, frame)
    monkeypatch.setattr(lie_core, "FRAME_COND_BOUND", 0.0)
    with pytest.raises(SingularTransformError, match="degenerate"):
        from_real_structure(c, J, frame)


@given(n=st.integers(1, 5), kind=st.sampled_from(["permutation", "perturbed", "gl"]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_default_frame_pivots_match_scipy(n, kind, seed):
    # a 2-step bracket written in a user basis A^-1 E, where J = A J0 A^-1:
    # A a permutation (exact pivot ties), the same with J perturbed at 1e-14
    # (the ties must not move; LAPACK's choice among near-ties is rounding
    # noise, so the oracle reads the unperturbed J), or A a GL matrix
    rng = np.random.default_rng(seed)
    m = 2 * n
    mu0 = (catalog.random_2step_skt(n, 0) if n > 1 else catalog.torus(1)).bracket
    A = rng.standard_normal((m, m)) if kind == "gl" else np.eye(m)[rng.permutation(m)]
    assume(np.linalg.cond(A) < 1e3)
    Ainv = np.linalg.inv(A)
    J = A @ adapted_frame(n)[2] @ Ainv
    c = change_frame(mu0.real_structure(), Ainv, A)
    expected = scipy_pivots(0.5 * (np.eye(m) - 1j * J), n)
    if kind == "perturbed":
        J = J + 1e-14 * rng.standard_normal((m, m))
    mu, frame = from_real_structure(c, J)
    assert np.array_equal(frame, 0.5 * (np.eye(m) - 1j * J)[:, expected])
    assert np.abs(J @ frame - 1j * frame).max() <= 1e-10
    assert np.linalg.cond(np.concatenate([frame, np.conj(frame)], axis=1)) <= 1e10
    scale = max(np.abs(mu.coeffs).max(), 1.0)
    assert nilpotency_step(mu) == nilpotency_step(mu0)
    assert nijenhuis_defect(mu) < 1e-11 * scale
    assert jacobi_defect(mu) < 1e-11 * scale ** 2


def test_heisenberg_real_bracket_is_e1e2_to_e4(heisenberg):
    # In the adapted real basis E = (e1, e3, -e2, -e4) of the catalog frame,
    # mu(e1, e2) = e4 reads mu(E_1, E_3) = E_4.
    c = heisenberg.bracket.real_structure()
    expected = np.zeros(4)
    expected[3] = 1.0
    assert np.abs(c[0, 2, :] - expected).max() < 1e-14


def test_adapted_frame_is_read_only():
    for arr in adapted_frame(3):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    S = adapted_frame(3)[0]
    assert S[0, 0] == 1.0 and S[3, 0] == 1.0


def _random_basis(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols))
                        + 1j * rng.standard_normal((rows, cols)))[0]


def _scipy_condition(ref):
    """Condition of each angle on the branch scipy's subspace_angles evaluates it.

    scipy takes arcsin (condition 1/cos) at the positions where the
    descending cosines have sigma^2 >= 1/2, and arccos (1/sin) elsewhere.
    """
    arcsine = np.cos(ref)[::-1] ** 2 >= 0.5
    return np.where(arcsine, 1.0 / np.cos(ref), 1.0 / np.sin(ref))


def test_principal_angles_match_scipy(rng):
    from scipy.linalg import subspace_angles

    for da in range(1, 6):
        for db in range(1, 6):
            for _ in range(8):
                qa, qb = _random_basis(rng, 10, da), _random_basis(rng, 10, db)
                got = principal_angles(Subspace(qa), Subspace(qb))
                ref = subspace_angles(qa, qb)
                assert got.shape == (min(da, db),)
                assert np.all(np.abs(got - ref) <= 1e-14 * _scipy_condition(ref))
    # near-coincident pairs: Qb = Qa cos(theta) + Q_perp sin(theta)
    for dim in range(1, 6):
        for theta in (1e-9, 1e-10, 1e-11, 1e-12):
            q = _random_basis(rng, 10, 2 * dim)
            qa = q[:, :dim]
            qb = qa * np.cos(theta) + q[:, dim:] * np.sin(theta)
            got = principal_angles(Subspace(qa), Subspace(qb))
            assert np.abs(got - subspace_angles(qa, qb)).max() <= 1e-14
            assert np.abs(got - theta).max() <= 1e-14


def test_principal_angles_mixed_pair_keeps_small_angle(rng):
    # one angle above pi/4 and one tiny: each must take its own accurate branch
    q = _random_basis(rng, 10, 4)
    theta = np.array([1.5, 1e-9])
    qb = q[:, :2] * np.cos(theta) + q[:, 2:] * np.sin(theta)
    assert np.abs(principal_angles(Subspace(q[:, :2]), Subspace(qb)) - theta).max() <= 1e-15


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _frame_change_bound(coeffs, M, Minv):
    m = coeffs.shape[0]
    return (16 * m * np.finfo(float).eps * np.abs(M).max() ** 2
            * np.abs(coeffs).max() * np.abs(Minv).max())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_change_frame_matches_einsum_definitions(rng, n):
    # reference: the frame change of real_structure, codifferential, act and
    # from_real_structure, each written as one einsum over its operand kinds
    m = 2 * n
    c = _random_complex(rng, m, m, m)
    S, Sinv, _, _ = adapted_frame(n)
    U, Uinv = orthonormal_real_frame(random_pd_metric(rng, n))
    h = _random_complex(rng, n, n)
    H, Hinv = complexify(h), complexify(np.linalg.inv(h))
    M = _random_complex(rng, m, m)
    cases = [
        ("ia,jb,ijk,ck->abc", c, S, Sinv),
        ("Ai,Bj,ABC,kC->ijk", c, U, Uinv),
        ("pa,qb,pqr,cr->abc", c, Hinv, H),
        ("ia,jb,ijk,ck->abc", rng.standard_normal((m, m, m)), M, np.linalg.inv(M)),
    ]
    for spec, coeffs, A, Ainv in cases:
        ref = np.einsum(spec, A, A, coeffs, Ainv)
        err = np.abs(change_frame(coeffs, A, Ainv) - ref).max()
        assert err <= _frame_change_bound(coeffs, A, Ainv), spec
    ref = symmetrize_bracket(np.einsum("pa,qb,pqr,cr->abc", Hinv, Hinv, c, H), n)
    err = np.abs(act(h, LieBracket(c, validate=False)).coeffs - ref).max()
    assert err <= _frame_change_bound(c, Hinv, H)
