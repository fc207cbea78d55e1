import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import abelian, brute_jacobi, brute_nijenhuis
from pluriflow import catalog
from pluriflow.errors import SingularTransformError, ValidationError
from pluriflow.lie_core import (
    LieBracket,
    act,
    adapted_frame,
    bracket_norm_sq,
    center,
    export_real_structure,
    from_real_structure,
    jacobi_defect,
    nijenhuis_defect,
    nilpotency_step,
    principal_angles,
    transform_subspace,
)


def test_construction_rejects_bad_symmetry():
    c = np.zeros((4, 4, 4), dtype=complex)
    c[0, 1, 2] = 1.0  # missing antisymmetric partner
    with pytest.raises(ValidationError):
        LieBracket(c)


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
    assert principal_angles(xi.basis, expected).max() < 1e-12
    assert center(solvable.bracket).dim == 1


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


def test_from_real_structure_default_frame(heisenberg):
    c, J, _ = export_real_structure(heisenberg.bracket)
    mu2, frame = from_real_structure(c, J)
    assert nilpotency_step(mu2) == 2
    assert nijenhuis_defect(mu2) < 1e-12
    assert jacobi_defect(mu2) < 1e-12


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
                got = principal_angles(qa, qb)
                ref = subspace_angles(qa, qb)
                assert got.shape == (min(da, db),)
                assert np.all(np.abs(got - ref) <= 1e-14 * _scipy_condition(ref))
    # near-coincident pairs: Qb = Qa cos(theta) + Q_perp sin(theta)
    for dim in range(1, 6):
        for theta in (1e-9, 1e-10, 1e-11, 1e-12):
            q = _random_basis(rng, 10, 2 * dim)
            qa = q[:, :dim]
            qb = qa * np.cos(theta) + q[:, dim:] * np.sin(theta)
            got = principal_angles(qa, qb)
            assert np.abs(got - subspace_angles(qa, qb)).max() <= 1e-14
            assert np.abs(got - theta).max() <= 1e-14


def test_principal_angles_mixed_pair_keeps_small_angle(rng):
    # one angle above pi/4 and one tiny: each must take its own accurate branch
    q = _random_basis(rng, 10, 4)
    theta = np.array([1.5, 1e-9])
    qb = q[:, :2] * np.cos(theta) + q[:, 2:] * np.sin(theta)
    assert np.abs(principal_angles(q[:, :2], qb) - theta).max() <= 1e-15
