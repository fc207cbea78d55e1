"""Shared fixtures and independent brute-force oracles.

The oracles here are deliberately written as plain python loops over the
defining formulas, independent of the vectorized library paths they check.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from pluriflow import catalog, cli, flows, lie_core
from pluriflow.bismut_ricci import p_of_bracket, rho_B
from pluriflow.connections import Connection
from pluriflow.errors import ValidationError
from pluriflow.hermitian_forms import (
    HermitianMetric,
    InvariantForm,
    big_bilinear,
    d_mu,
    form_inner,
    fundamental_form,
    gram_real,
    transform_form,
)
from pluriflow.lie_core import (
    KERNEL_TOL,
    SYMMETRY_TOL,
    LieBracket,
    Subspace,
    act,
    adapted_frame,
    bracket_norm_sq,
    center,
    complexify,
    conj_tensor,
    export_real_structure,
    nilpotency_step,
    standard_j_diag,
    symmetrize_bracket,
)


@pytest.fixture(scope="session")
def heisenberg():
    return catalog.heisenberg_kt()


@pytest.fixture(scope="session")
def inoue():
    return catalog.inoue_s0(1.0, 1.0)


@pytest.fixture(scope="session")
def solvable():
    return catalog.solvable_2414()


@pytest.fixture(scope="session")
def torus2():
    return catalog.torus(2)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_pd_metric(rng, n, spread=1.0):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMetric(A @ A.conj().T * (spread / n) + 0.5 * np.eye(n))


def abelian(n=2):
    return LieBracket(np.zeros((2 * n, 2 * n, 2 * n), dtype=complex))


def iwasawa_like():
    """mu(Z_1, Z_2) = Z_3 on n = 3: 2-step, integrable, not SKT at the identity."""
    c = np.zeros((6, 6, 6), dtype=complex)
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[3, 4, 5] = 1.0
    c[4, 3, 5] = -1.0
    return LieBracket(c)


def dense_jacobi(mu: LieBracket) -> float:
    """The Jacobi maximum over the dense cyclic sum: D[a, b, c, e] = c_abd c_dce
    as two half-size products, one per half of the first index, and the sum
    D + D[b, c, a] + D[c, a, b] as two transposed copies of D."""
    c = mu.coeffs
    m = c.shape[0]
    n = m // 2
    right = c.reshape(m, m * m)
    D = np.concatenate([c[:n].reshape(n * m, m) @ right,
                        c[n:].reshape(n * m, m) @ right]).reshape(m, m, m, m)
    return float(np.abs(D + D.transpose(2, 0, 1, 3) + D.transpose(1, 2, 0, 3)).max())


def brute_jacobi(mu: LieBracket) -> float:
    c = mu.coeffs
    m = c.shape[0]
    worst = 0.0
    for a, b, d in itertools.product(range(m), repeat=3):
        acc = np.zeros(m, dtype=complex)
        for e in range(m):
            acc += c[a, b, e] * c[e, d, :]
            acc += c[b, d, e] * c[e, a, :]
            acc += c[d, a, e] * c[e, b, :]
        worst = max(worst, float(np.abs(acc).max()))
    return worst


def brute_nijenhuis(mu: LieBracket) -> float:
    c = mu.coeffs
    m = c.shape[0]
    j = standard_j_diag(mu.n)
    worst = 0.0
    for a, b in itertools.product(range(m), repeat=2):
        n_ab = j[a] * j[b] * c[a, b, :] - j[a] * (j * c[a, b, :]) \
            - j[b] * (j * c[a, b, :]) - c[a, b, :]
        worst = max(worst, float(np.abs(n_ab).max()))
    return worst


def perm_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), by counting inversions."""
    sign = 1
    for i, j in itertools.combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


def alt(T: np.ndarray) -> np.ndarray:
    """Signed sum of T over all permutations of its slots, with no 1/r! factor."""
    return sum(perm_sign(perm) * T.transpose(perm)
               for perm in itertools.permutations(range(T.ndim)))


def brute_basis_form(n: int, *indices: int) -> np.ndarray:
    """Elementary wedge as a permutation table: T[indices o perm] = sign(perm)."""
    T = np.zeros((2 * n,) * len(indices), dtype=complex)
    for perm in itertools.permutations(range(len(indices))):
        T[tuple(indices[p] for p in perm)] = perm_sign(perm)
    return T


def brute_d(mu: LieBracket, T: np.ndarray) -> np.ndarray:
    """Plain-loop Chevalley-Eilenberg differential of a dense tensor."""
    c = mu.coeffs
    m = c.shape[0]
    r = T.ndim
    out = np.zeros((m,) * (r + 1), dtype=complex)
    for args in itertools.product(range(m), repeat=r + 1):
        val = 0.0 + 0.0j
        for i in range(r + 1):
            for j in range(i + 1, r + 1):
                rest = tuple(args[k] for k in range(r + 1) if k not in (i, j))
                sign = (-1) ** (i + j)
                for e in range(m):
                    val += sign * c[args[i], args[j], e] * T[(e,) + rest]
        out[args] = val
    return out


def dense_skt_defect(mu: LieBracket, g: HermitianMetric) -> float:
    """The SKT defect on dense forms: the (2,2) part of d of the (2,1) part of
    d omega, measured by ``form_inner``."""
    d1 = d_mu(mu, fundamental_form(g)).bidegree_part(2, 1)
    d2 = d_mu(mu, d1).bidegree_part(2, 2)
    if d2.max_norm() == 0.0:
        return 0.0
    return float(np.sqrt(form_inner(d2, d2, g).real))


def generic_integrable_bracket(rng, n):
    """Random antisymmetric, real tensor with c[h, h, a] = c[a, a, h] = 0: J0 is
    integrable, while Jacobi and the SKT condition fail at O(1)."""
    m = 2 * n
    raw = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
    raw[:n, :n, n:] = 0.0
    raw[n:, n:, :n] = 0.0
    return LieBracket(symmetrize_bracket(raw, n), validate=False)


def non_integrable_bracket():
    """mu(Z_1, Z_2) = 0.37 Z_1bar at n = 2: antisymmetric and real, Nijenhuis defect O(1)."""
    c = np.zeros((4, 4, 4), dtype=complex)
    c[0, 1, 2] = c[2, 3, 0] = 0.37
    c[1, 0, 2] = c[3, 2, 0] = -0.37
    return LieBracket(c)


def count_calls(monkeypatch, name, *modules):
    """Wrap the function ``name`` under its binding in each module; every call
    through any of them appends to the one returned list."""
    calls = []
    for module in modules:
        def counted(*args, _original=getattr(module, name), **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_defects(monkeypatch):
    """(Jacobi, Nijenhuis) call lists.  A bracket computes its defects only in
    ``lie_core.jacobi_defect`` and ``lie_core.nijenhuis_defect``, so these count
    computations, whichever module asks for a defect."""
    return tuple(count_calls(monkeypatch, name, lie_core)
                 for name in ("jacobi_defect", "nijenhuis_defect"))


def assert_form_close(a, b, tol=1e-12, scale=1.0):
    diff = np.abs(np.asarray(a) - np.asarray(b)).max()
    assert diff <= tol * scale, f"forms differ by {diff:.3e}"


# Oracles and conversions that only the tests use.

def transport_metric(h: np.ndarray, g: HermitianMetric) -> HermitianMetric:
    """Metric of the equivalent pair: (h . mu, transport) ~ (mu, g)."""
    hinv = np.linalg.inv(np.asarray(h, dtype=complex))
    return HermitianMetric(hinv.T @ g.matrix @ hinv.conj())


def transform_subspace(h: np.ndarray, sub: Subspace) -> Subspace:
    """Image of a subspace under the complexified action of h in GL(n, C)."""
    img = complexify(h) @ sub.basis
    q, _ = np.linalg.qr(img)
    return Subspace(q)


def reality_defect(form: InvariantForm) -> float:
    """Max deviation from the symmetry making the form real on real vectors."""
    return float(np.abs(form.tensor - conj_tensor(form.tensor, form.n)).max())


def is_real(form: InvariantForm) -> bool:
    """Whether the form is real on real vectors, to SYMMETRY_TOL relative."""
    return reality_defect(form) <= SYMMETRY_TOL * max(form.max_norm(), 1.0)


def one_one_part(b: np.ndarray) -> np.ndarray:
    """J-average of a real bilinear form: b^{1,1}(X, Y) = (b(X, Y) + b(JX, JY)) / 2."""
    _, _, J, _ = adapted_frame(b.shape[0] // 2)
    return 0.5 * (b + J.T @ b @ J)


def torsion_tensor(conn: Connection, mu: LieBracket) -> np.ndarray:
    """T[i, j, k]: the E_k component of T(E_i, E_j)."""
    return conn.coeffs - conn.coeffs.transpose(1, 0, 2) - mu.real_structure()


def real_matrix(P: np.ndarray) -> np.ndarray:
    """Action on real adapted coordinates of the endomorphism commuting with
    J0 whose holomorphic block is P."""
    S, Sinv, _, _ = adapted_frame(P.shape[0])
    M = Sinv @ complexify(P) @ S
    return M.real


# Closed forms valid on 2-step data and the fixed-step integrator: references
# for quantities the package computes on any data, used only by the tests.

class NotTwoStepError(Exception):
    """A 2-step closed form was asked for a bracket that is not 2-step nilpotent."""


class StepRejectedError(Exception):
    """The RK4 step-doubling reference exhausted its halving budget."""


def _rk4(f, y: np.ndarray, dt: float, k1: np.ndarray) -> np.ndarray:
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_doubling_step(f, y: np.ndarray, dt: float, error_target: float = 1e-9,
                      max_halvings: int = 16, _depth: int = 0) -> np.ndarray:
    """Advance exactly dt with step-doubling error control.

    The full step and the first half step share f(y), so an accepted step
    costs 11 evaluations of f.  On rejection the interval is split into two
    halves, recursively, so the caller's time grid is preserved.  Raises
    StepRejectedError when the halving budget is exhausted.
    """
    k1 = f(y)
    big = _rk4(f, y, dt, k1)
    mid = _rk4(f, y, 0.5 * dt, k1)
    half = _rk4(f, mid, 0.5 * dt, f(mid))
    scale = max(float(np.linalg.norm(y)), float(np.linalg.norm(half)), 1e-30)
    diff = float(np.linalg.norm(big - half))
    err = diff / (15.0 * scale)
    if np.isfinite(err) and err <= error_target:
        return half
    if _depth >= max_halvings:
        raise StepRejectedError(
            f"step error {err:.3e} above target {error_target:.1e} after {_depth} halvings")
    mid = rk4_doubling_step(f, y, 0.5 * dt, error_target, max_halvings, _depth + 1)
    return rk4_doubling_step(f, mid, 0.5 * dt, error_target, max_halvings, _depth + 1)


def _require_two_step(mu: LieBracket) -> None:
    step = nilpotency_step(mu)
    if step is None or step > 2:
        raise NotTwoStepError(f"nilpotency step is {step}, need <= 2")


def gram_orthonormal(cols_real: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Gram-Schmidt with respect to ``gram``; drops dependent columns."""
    out = []
    for j in range(cols_real.shape[1]):
        v = cols_real[:, j].copy()
        for u in out:
            v = v - (u @ gram @ v) * u
        norm = float(v @ gram @ v)
        if norm > KERNEL_TOL:
            out.append(v / np.sqrt(norm))
    return np.stack(out, axis=1) if out else np.zeros((cols_real.shape[0], 0))


def eberlein_oracle(mu: LieBracket, g: HermitianMetric) -> np.ndarray:
    """Riemannian Ricci tensor of a 2-step nilpotent metric algebra from the
    skew maps iota(Z) defined by g(iota(Z) X, Y) = g(mu(X, Y), Z).

    Blockwise: ric = (1/2) sum_i iota(z_i)^2 on the complement of the center,
    ric(Z, Z*) = -(1/4) tr iota(Z) iota(Z*) on the center, zero on mixed pairs.
    """
    _require_two_step(mu)
    m = mu.dim
    gram = gram_real(g)
    struct = mu.real_structure()

    xi = center(mu)
    _, Sinv, _, _ = adapted_frame(mu.n)
    # real span of the (conjugation-stable) center
    rc = Sinv @ xi.basis if xi.dim else np.zeros((m, 0))
    cand = np.concatenate([rc.real, rc.imag], axis=1)
    Z = gram_orthonormal(cand, gram)
    p = Z.shape[1]
    # g-orthogonal complement of the center
    if p:
        proj = np.eye(m) - Z @ (Z.T @ gram)
    else:
        proj = np.eye(m)
    V = gram_orthonormal(proj, gram)
    q = V.shape[1]
    if p + q != m:
        raise ValidationError("center splitting failed to span the algebra")

    # iota(z_i) on the complement, matrix entries in the V basis
    brackets = np.einsum("ia,jb,ijk->abk", V, V, struct)  # mu(v_a, v_b) real coords
    iotas = np.einsum("abk,kl,li->iba", brackets, gram, Z) if p else np.zeros((0, q, q))
    # iotas[i, b, a] = g(mu(v_a, v_b), z_i) = g(iota(z_i) v_a, v_b) -> row b, col a

    ric_vv = 0.5 * sum(iotas[i] @ iotas[i] for i in range(p)) if p else np.zeros((q, q))
    ric_zz = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            ric_zz[i, j] = -0.25 * np.trace(iotas[i] @ iotas[j])

    basis = np.concatenate([V, Z], axis=1)
    block = np.zeros((m, m))
    block[:q, :q] = ric_vv
    block[q:, q:] = ric_zz
    binv = np.linalg.inv(basis)
    return binv.T @ block @ binv


def rho_B_2step(mu: LieBracket, g: HermitianMetric) -> InvariantForm:
    """Direct shortcut valid when the bracket is at most 2-step nilpotent:

    rho_B(X, Y) = -i g^{rbar k} g(mu(X, Y), mu(Z_r, Z_kbar)).
    """
    _require_two_step(mu)
    n = mu.n
    Ginv = np.linalg.inv(g.matrix)
    B = big_bilinear(g)
    # w[r, k, :] = mu(Z_r, Z_kbar) paired against mu(X, Y) through B
    pair = np.einsum("kr,rkC,CD->D", Ginv, mu.coeffs[:n, n:, :], B)
    T = -1j * np.einsum("abD,D->ab", mu.coeffs, pair)
    return InvariantForm(T, n, validate=False)


def bismut_scalar(mu: LieBracket) -> float:
    """b = -||sum_r mu(Z_r, Z_rbar)||^2 in the standard Hermitian norm.

    Equals the bilinear square of the trace vector, which is real and
    nonpositive because the vector is anti-real.
    """
    n = mu.n
    v = mu.coeffs[np.arange(n), np.arange(n, 2 * n), :].sum(axis=0)
    b = 2.0 * np.sum(v[:n] * v[n:])
    return float(b.real)


# Pairing of the Bismut Ricci form against omega_0 under form_inner equals
# the Bismut scalar; calibrated once on the Heisenberg family.
FORM_PAIRING_CONSTANT = 1.0


def bismut_scalar_pairing_check(mu: LieBracket) -> tuple[float, float]:
    """(b, pairing) where pairing = <rho_B, omega_0> under form_inner.

    The calibrated relation is b = FORM_PAIRING_CONSTANT * pairing.
    """
    g0 = HermitianMetric(np.eye(mu.n))
    b = bismut_scalar(mu)
    pairing = form_inner(rho_B(mu, g0), fundamental_form(g0), g0)
    return b, float(pairing.real)


def p_annihilates_center_defect(mu: LieBracket) -> float:
    """Max norm of P_mu applied to an orthonormal basis of the center."""
    P = complexify(p_of_bracket(mu))
    xi = center(mu)
    if xi.dim == 0:
        return 0.0
    return float(np.abs(P @ xi.basis).max())


# Checks of the flow theorems: the pluriclosed flow is a gauged bracket flow,
# the bracket norm decays like -kappa |P_mu|^2, and a solution lives briefly
# backwards.  They drive the package's private integrator directly.

class GridMismatchError(Exception):
    """Two trajectories were expected to share the same time grid."""


@dataclasses.dataclass
class EquivalenceReport:
    max_metric_defect: float
    max_bracket_defect: float


def equivalence_check(traj_metric, traj_bracket_gauged) -> EquivalenceReport:
    """Compare omega(t) against omega_0(h., h.) and mu(t) against h . mu_0."""
    ta = np.asarray(traj_metric.times)
    tb = np.asarray(traj_bracket_gauged.times)
    if len(ta) != len(tb) or np.abs(ta - tb).max() > 1e-12:
        raise GridMismatchError("trajectories use different time grids")
    if not isinstance(traj_metric.states[0], flows.MetricState):
        raise ValidationError("first trajectory must be a metric flow")
    sb0 = traj_bracket_gauged.states[0]
    if not isinstance(sb0, flows.BracketState) or sb0.h is None:
        raise ValidationError("second trajectory must be a gauged bracket flow")

    mu0 = sb0.mu
    max_g = 0.0
    max_mu = 0.0
    for sm, sb in zip(traj_metric.states, traj_bracket_gauged.states):
        G = sm.g.matrix
        h = sb.h
        Gh = (h.conj().T @ h).T
        max_g = max(max_g, float(np.abs(G - Gh).max() / max(np.abs(G).max(), 1e-12)))
        transported = act(h, mu0).coeffs
        scale = max(np.abs(sb.mu.coeffs).max(), 1e-12)
        max_mu = max(max_mu, float(np.abs(sb.mu.coeffs - transported).max() / scale))
    return EquivalenceReport(max_metric_defect=max_g, max_bracket_defect=max_mu)


def backward_existence_probe(mu0: LieBracket, g0: HermitianMetric, cfg) -> float:
    """Integrate the pluriclosed flow backwards until the positivity floor.

    Returns the (capped) backward time reached before losing positivity, a
    strictly positive empirical lower bound for the backward existence time.
    """
    traj = flows._metric_flow("pluriclosed", mu0, g0, None, lambda state: {}, cfg,
                              direction=-1.0)
    return float(traj.times[-1])


@dataclasses.dataclass
class CalibrationReport:
    kappa: float
    relative_spread: float
    samples: int
    bound_margin: float   # max over samples of d/dt||mu||^2 + (kappa/16) ||mu||^4
    per_run_kappa: list[float]


def decay_calibration(seeds: list[LieBracket], cfg) -> CalibrationReport:
    """Estimate kappa in d/dt <mu, mu> = -kappa <P_mu, P_mu> along bracket flows.

    Each seed runs the bracket field through the package's controller and
    records, at each sample, <mu, mu> and <P_mu, P_mu> = 2 sum |P|^2, where P
    comes from ``p_of_bracket`` and so judges the sample's integrability.
    kappa is estimated by 5-point central finite differences of the sampled
    bracket norm; the decay bound d/dt||mu||^2 <= -(kappa/16) ||mu||^4 is then
    checked at every interior sample using the same estimates.
    """
    kappas: list[float] = []
    per_run: list[float] = []
    derivs: list[tuple[float, float]] = []  # (fd derivative, ||mu||^2) at samples
    fd = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    for mu0 in seeds:
        n, shape = mu0.n, mu0.coeffs.shape
        samples = []   # (t, <mu, mu>, <P_mu, P_mu>)

        def record(t, y):
            mu = LieBracket(y.reshape(shape), validate=False)
            samples.append((t, bracket_norm_sq(mu), 2.0 * np.sum(np.abs(p_of_bracket(mu)) ** 2)))

        flows._integrate(flows._bracket_field(n, False), mu0.coeffs.reshape(-1),
                         lambda y: symmetrize_bracket(y.reshape(shape), n).reshape(-1),
                         None, record, cfg)
        ts, norms, pp = map(np.asarray, zip(*samples))
        if len(ts) < 5:
            raise ValidationError("calibration needs at least five samples per run")
        dt = float(ts[1] - ts[0])
        if np.abs(np.diff(ts) - dt).max() > 1e-12:
            raise ValidationError("calibration requires a uniform sample grid")
        run_kappas = []
        for i in range(2, len(ts) - 2):
            deriv = float(fd @ norms[i - 2:i + 3]) / dt
            derivs.append((deriv, float(norms[i])))
            if pp[i] < 1e-14:
                continue
            kappa_i = -deriv / pp[i]
            run_kappas.append(kappa_i)
            kappas.append(kappa_i)
        if run_kappas:
            per_run.append(float(np.mean(run_kappas)))
    if not kappas:
        raise ValidationError("no usable calibration samples (seeds may be abelian)")
    kappa = float(np.mean(kappas))
    spread = float(np.std(kappas) / abs(kappa))
    bound_margin = max(d + (kappa / 16.0) * m * m for d, m in derivs)
    return CalibrationReport(kappa=kappa, relative_spread=spread, samples=len(kappas),
                             bound_margin=float(bound_margin), per_run_kappa=per_run)


def scipy_pivots(a: np.ndarray, k: int) -> list[int]:
    """The first k column pivots of scipy's column-pivoted QR (LAPACK geqp3)."""
    return [int(j) for j in scipy.linalg.qr(a, pivoting=True)[2][:k]]


def export_config(cfg: dict) -> dict:
    """Round-trip helper: catalog entry -> explicit structure constants."""
    return explicit_algebra(cli.load_algebra(cfg["algebra"])[0])


def explicit_algebra(mu: LieBracket) -> dict:
    """The config ``algebra`` block giving mu by structure constants, J and frame."""
    c, J, frame = export_real_structure(mu)
    return {
        "structure_constants": c.tolist(),
        "J": J.tolist(),
        "frame": np.stack([frame.real, frame.imag], axis=-1).tolist(),
    }


def repr_row(row) -> str:
    """A trajectory CSV row: Python's repr of each float, comma-separated."""
    return ",".join(map(repr, row))


def repr_write_trajectory(path: str, traj) -> None:
    """The trajectory CSV written one ``repr`` per value, row by row: the
    reference for the byte contract of ``cli.write_trajectory``."""
    def parts(state):
        for f in dataclasses.fields(state):
            v = getattr(state, f.name)
            if v is not None:
                yield f.name, np.asarray(getattr(v, "matrix", getattr(v, "coeffs", v)),
                                         dtype=complex).reshape(-1)

    monitor_names = sorted(traj.monitors)
    names = [f"{name}_{idx}_{part}" for name, a in parts(traj.states[0])
             for idx in range(a.size) for part in ("re", "im")]
    with open(path, "w") as fh:
        fh.write("# " + ",".join(["t"] + names + monitor_names) + "\n")
        for i, (t, state) in enumerate(zip(traj.times, traj.states)):
            row = [float(t)]
            for _, a in parts(state):
                row += np.stack([a.real, a.imag], -1).ravel().tolist()
            row += [traj.monitors[m][i] for m in monitor_names]
            fh.write(repr_row(row) + "\n")


def orthonormal_real_frame(g: HermitianMetric):
    """g-orthonormal real frame (complexified coordinates) and its inverse."""
    L = np.linalg.cholesky(gram_real(g))
    S, _, _, _ = adapted_frame(g.n)
    U = S @ np.linalg.inv(L).T  # columns: orthonormal real vectors
    return U, np.linalg.inv(U)


def _to_frame(T: np.ndarray, M: np.ndarray) -> np.ndarray:
    for _ in range(T.ndim):
        T = np.tensordot(T, M, axes=([0], [0]))
    return T


def frame_form_inner(a: np.ndarray, b: np.ndarray, g: HermitianMetric) -> complex:
    """Form inner product as coefficient sums in a g-orthonormal real coframe."""
    U, _ = orthonormal_real_frame(g)
    return complex(np.sum(_to_frame(a, U) * np.conj(_to_frame(b, U))) / math.factorial(a.ndim))


def frame_codifferential(mu: LieBracket, g: HermitianMetric, T: np.ndarray) -> np.ndarray:
    """d* of an r-form (r >= 2) as the conjugate-transpose contraction of d_mu
    in a g-orthonormal real frame: -Alt(W) / (2 (r-2)!)."""
    r = T.ndim
    U, Uinv = orthonormal_real_frame(g)
    mu_u = np.einsum("ia,jb,ijk,ck->abc", U, U, mu.coeffs, Uinv)
    W = np.tensordot(np.conj(mu_u), _to_frame(T, U), axes=([0, 1], [0, 1]))
    return _to_frame(-alt(W) / (2 * math.factorial(r - 2)), Uinv)


# The curvature path as index contractions, one einsum per formula: the
# references for the matrix-product kernels in ``connections``.

def einsum_levi_civita(mu: LieBracket, g: HermitianMetric) -> np.ndarray:
    """Koszul formula 2 g(nabla_X Y, Z) = g(mu(X,Y), Z) - g(mu(Y,Z), X) + g(mu(Z,X), Y)."""
    c = mu.real_structure()
    gram = gram_real(g)
    k1 = np.einsum("ijl,lk->ijk", c, gram)
    k2 = np.einsum("jkl,li->ijk", c, gram)
    k3 = np.einsum("kil,lj->ijk", c, gram)
    rhs = 0.5 * (k1 - k2 + k3)
    return np.einsum("kl,ijl->ijk", np.linalg.inv(gram), rhs)


def einsum_bismut(mu: LieBracket, g: HermitianMetric, c_form) -> np.ndarray:
    """Bismut coefficients nabla^g + (1/2) g^-1 c for the torsion 3-form ``c_form``."""
    S, _, _, _ = adapted_frame(mu.n)
    c_real = transform_form(c_form.tensor, S).real
    graminv = np.linalg.inv(gram_real(g))
    return einsum_levi_civita(mu, g) + 0.5 * np.einsum("kl,ijl->ijk", graminv, c_real)


def einsum_bismut_residuals(mu: LieBracket, g: HermitianMetric, gamma: np.ndarray,
                            c_form) -> tuple[float, float, float]:
    """Metric compatibility, J-parallelism and torsion skewness defects of gamma."""
    S, _, J_real, _ = adapted_frame(mu.n)
    c_real = transform_form(c_form.tensor, S).real
    gram = gram_real(g)
    mats = gamma.transpose(0, 2, 1)
    compat = np.abs(np.einsum("iab,ac->ibc", mats, gram)
                    + np.einsum("ab,ibc->iac", gram, mats)).max()
    jres = np.abs(np.einsum("iab,bc->iac", mats, J_real)
                  - np.einsum("ab,ibc->iac", J_real, mats)).max()
    torsion = gamma - gamma.transpose(1, 0, 2) - mu.real_structure()
    skew = np.abs(np.einsum("ijm,mx->xij", torsion, gram) - c_real).max()
    return float(compat), float(jres), float(skew)


def einsum_curvature(gamma: np.ndarray, mu: LieBracket) -> np.ndarray:
    """R[i, j, a, c] of [nabla_i, nabla_j] - nabla_{mu(E_i, E_j)}."""
    mats = gamma.transpose(0, 2, 1)
    comm = np.einsum("iab,jbc->ijac", mats, mats)
    comm = comm - comm.transpose(1, 0, 2, 3)
    return comm - np.einsum("ijk,kac->ijac", mu.real_structure(), mats)


def einsum_ricci_traces(Rg: np.ndarray, Rb: np.ndarray, g: HermitianMetric):
    """ric_g, ric_b and the real rho_B matrix: ric(X, Y) = g^{kr} R(e_k, X, Y, e_r)
    and rho(X, Y) = (1/2) g^{kr} g(R(X, Y) e_k, J e_r)."""
    gram = gram_real(g)
    graminv = np.linalg.inv(gram)
    _, _, J_real, _ = adapted_frame(g.n)
    ric_g = np.einsum("kr,kimj,mr->ij", graminv, Rg, gram, optimize=True)
    ric_b = np.einsum("kr,kimj,mr->ij", graminv, Rb, gram, optimize=True)
    rho_real = 0.5 * np.einsum("kr,ijmk,mr->ij", graminv, Rb, gram @ J_real, optimize=True)
    return ric_g, ric_b, rho_real
