"""Bismut Ricci form via the 1-form eta, and the derived endomorphisms P.

The Bismut Ricci form is rho_B = d_mu(eta) with

    eta_a = -i g^{kbar r} g(mu(Z_a, Z_r), Z_kbar)
            + i g^{kbar r} g(mu(Z_r, Z_kbar), Z_a),
    eta_bbar = conj(eta_b),

where g^{kbar r} is the inverse metric entry with barred row index.  The
first sum collapses to -i mu_{ar}^r independently of the metric.

On raw arrays, ``rho_tensor`` is the one place where eta meets the bracket:
rho[a, b] = -mu_ab^c eta_c, the contraction d_mu(eta) reduces to on a
1-form.  ``rho_B`` wraps it as a form, ``rho11_matrix`` and ``rho20_matrix``
are its (1,1) and (2,0) blocks, and the right-hand sides of all three flows
in ``flows`` are read off it.  These raw-array kernels take G and G^-1
and invert nothing: functions that hold a ``HermitianMetric`` pass its
``matrix`` and ``inverse``.  The evolution contract everywhere in this
package is dg/dt = -(rho_B)^{1,1} in coefficient form, with the sign
anchored by the Heisenberg example where the standard metric grows like
sqrt(1 + t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian_forms import (
    HermitianMetric,
    InvariantForm,
    fundamental_form,
    require_integrable,
)
from .lie_core import LieBracket


def eta_components(coeffs: np.ndarray, G: np.ndarray, Ginv: np.ndarray) -> np.ndarray:
    """Holomorphic components eta_a of the Bismut 1-form, raw-array path.

    Takes G and its inverse Ginv; the kernel inverts nothing.
    """
    n = G.shape[0]
    trace = coeffs[:n, :n, :n].trace(axis1=1, axis2=2)   # mu_{ar}^r
    mixed = coeffs[:n, n:, n:].reshape(n * n, n)          # mu_{r kbar}^{lbar}, rows (r, k)
    t = Ginv.T.reshape(n * n) @ mixed                    # t_l = g^{kbar r} mu_{r kbar}^{lbar}
    return 1j * (G @ t - trace)


def eta_vector(coeffs: np.ndarray, G: np.ndarray, Ginv: np.ndarray) -> np.ndarray:
    """Full 2n coefficient vector of eta (holomorphic half plus conjugates)."""
    h = eta_components(coeffs, G, Ginv)
    return np.concatenate([h, np.conj(h)])


def rho_tensor(coeffs: np.ndarray, G: np.ndarray, Ginv: np.ndarray) -> np.ndarray:
    """Dense 2-form tensor of rho_B = d(eta): rho[a, b] = -mu_ab^c eta_c."""
    return -(coeffs @ eta_vector(coeffs, G, Ginv))


def rho11_matrix(coeffs: np.ndarray, G: np.ndarray, Ginv: np.ndarray) -> np.ndarray:
    """Coefficient matrix rho[i, j] with (rho_B)^{1,1} = -i rho[i, j] z^i w z^jbar."""
    n = G.shape[0]
    return 1j * rho_tensor(coeffs, G, Ginv)[:n, n:]


def rho20_matrix(coeffs: np.ndarray, G: np.ndarray, Ginv: np.ndarray) -> np.ndarray:
    """Values rho_B(Z_i, Z_j) of the (2, 0) block."""
    n = G.shape[0]
    return rho_tensor(coeffs, G, Ginv)[:n, :n]


def eta(mu: LieBracket, g: HermitianMetric) -> InvariantForm:
    """The real 1-form with rho_B = d(eta)."""
    require_integrable(mu)
    return InvariantForm(eta_vector(mu.coeffs, g.matrix, g.inverse), mu.n, validate=False)


def rho_B(mu: LieBracket, g: HermitianMetric) -> InvariantForm:
    """Bismut Ricci form d_mu(eta), as ``rho_tensor``."""
    require_integrable(mu)
    return InvariantForm(rho_tensor(mu.coeffs, g.matrix, g.inverse), mu.n, validate=False)


def p_of_bracket(mu: LieBracket) -> np.ndarray:
    """The endomorphism P with omega_0(P X, Y) = (rho_B)^{1,1}(X, Y) at the
    standard metric, as its (n, n) holomorphic block (P commutes with J0)."""
    require_integrable(mu)
    G0 = np.eye(mu.n, dtype=complex)
    return rho11_matrix(mu.coeffs, G0, G0).T


def p_of_metric(mu0: LieBracket, g: HermitianMetric) -> np.ndarray:
    """The holomorphic block of P(omega), omega(P X, Y) = (rho_B)^{1,1}(X, Y) for (mu0, g)."""
    require_integrable(mu0)
    rho = rho11_matrix(mu0.coeffs, g.matrix, g.inverse)
    return (rho @ g.inverse).T


@dataclass
class StaticFit:
    defect: float      # max norm of r*omega - (rho_B)^{1,1} at the given r
    r_best: float      # least squares rate
    residual_best: float


def static_defect(mu: LieBracket, g: HermitianMetric, r: float) -> StaticFit:
    """Distance of (g, rho_B) from the static condition r*omega = (rho_B)^{1,1}."""
    omega = fundamental_form(g).tensor
    rho11 = rho_B(mu, g).bidegree_part(1, 1).tensor
    defect = float(np.abs(r * omega - rho11).max())
    denom = float(np.sum(np.abs(omega) ** 2))
    r_best = float(np.sum(rho11 * np.conj(omega)).real / denom)
    residual = float(np.abs(r_best * omega - rho11).max())
    return StaticFit(defect=defect, r_best=r_best, residual_best=residual)

