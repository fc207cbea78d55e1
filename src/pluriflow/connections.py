"""Levi-Civita and Bismut connections, their curvature and Ricci objects.

A connection is the plain (2n, 2n, 2n) array Gamma over the real adapted
basis {E_1..E_2n}, with nabla_{E_i} E_j = Gamma[i, j, k] E_k, so the matrix
of nabla_{E_i} is Gamma[i].T.  The Bismut connection is built as
nabla^g + (1/2) g^{-1} c with torsion 3-form
c(X, Y, Z) = -d omega(JX, JY, JZ); its defining properties (metric,
J-parallel, totally skew torsion) are verified at construction and raise
if violated, which pins the sign conventions.

Curvature follows R(X, Y) = [nabla_X, nabla_Y] - nabla_{[X, Y]} and the
Ricci traces use ric(X, Y) = g^{kr} R(e_k, X, Y, e_r) together with
rho(X, Y) = (1/2) g^{kr} g(R(X, Y) e_k, J e_r).  Neither trace reads the
metric: lowering with g and raising with g^{-1} cancel, because the Gram
matrix is symmetric (g^{-1} g^T = I) and J-invariant (g^{-1} (g J)^T = -J).
So ric[X, Y] = R[k, X, k, Y] and rho[X, Y] = R[X, Y, m, k] J[m, k] / 2 on
the curvature coefficients R[i, j, m, l] (the E_m component of
R(E_i, E_j) E_l).  ``curvature`` returns a ``CurvatureTensor``, which
takes these traces (``ricci``, ``rho``) from the connection matrices and
the structure constants and never builds the 4-index coefficients.

The public functions are the kernels, and ``ricci_forms`` is composed from
them.  ``levi_civita`` and ``bismut`` check their bracket and read its
cached defects and real structure constants; the real Gram matrix and its
inverse come from the metric (``g.gram``, ``g.gram_inverse``).  ``bismut``
calls ``levi_civita``, so ``ricci_forms`` builds the Levi-Civita connection
twice, but the second build costs only the Koszul product.  The Bismut
residuals are judged against ``BISMUT_TOL``.  The kernels contract by
matrix products: the Koszul terms are transposes of one product, each
trace is one (m, m^2) @ (m^2, m) product with m = 2n, and no einsum path
search runs per call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .hermitian_forms import (
    HermitianMetric,
    InvariantForm,
    codifferential,
    d_mu,
    fundamental_form,
    require_integrable,
    transform_form,
)
from .lie_core import LieBracket, adapted_frame, standard_j_diag

JACOBI_TOL = 1e-8            # Jacobi defect, judged by ``require_jacobi``
BISMUT_TOL = 1e-8            # Bismut residuals, relative to max(|Gamma|, 1)
TORSION_REALITY_TOL = 1e-9   # imaginary part of the real torsion 3-form, relative


class CurvatureTensor:
    """R[i, j, m, l]: the E_m component of R(E_i, E_j) E_l, where
    R(E_i, E_j) = [M_i, M_j] - sum_k c[i, j, k] M_k for the connection
    matrices M_i and the bracket's real structure constants c.

    It holds a copy of the matrices and the bracket's read-only constants.
    ``ricci`` and ``rho`` contract M and c directly, with one
    (m, m^2) @ (m^2, m) product as the largest step; R itself is never built.
    """

    def __init__(self, mats: np.ndarray, c: np.ndarray):
        self._mats = np.array(mats)
        self._mats.setflags(write=False)
        self._c = c

    def ricci(self) -> np.ndarray:
        """ric[j, l] = R[k, j, k, l] = (v M_j)[l] - sum_{k, p} (M[j, k, p] + c[p, j, k]) M[k, p, l]
        with v[b] = sum_k M[k, k, b]."""
        mats, c = self._mats, self._c
        m = c.shape[0]
        v = np.trace(mats, axis1=0, axis2=1)
        left = mats.reshape(m, m * m) + c.transpose(1, 2, 0).reshape(m, m * m)
        return v @ mats - left @ mats.reshape(m * m, m)

    def rho(self) -> np.ndarray:
        """rho[i, j] = sum_{a, b} R[i, j, a, b] J[a, b] / 2 for the standard J on
        real coordinates (``adapted_frame``), as (P - P^T - sum_k c[i, j, k] w[k]) / 2
        with P[i, j] = tr(M_i M_j J^T) and w[k] = sum_{a, b} M[k, a, b] J[a, b]."""
        mats, c = self._mats, self._c
        m = c.shape[0]
        J = adapted_frame(m // 2)[2]
        MJ = (mats.reshape(m * m, m) @ J.T).reshape(m, m, m)   # M_j J^T as [j, b, a]
        P = mats.reshape(m, m * m) @ MJ.transpose(2, 1, 0).reshape(m * m, m)
        w = mats.reshape(m, m * m) @ J.reshape(m * m)
        return 0.5 * (P - P.T - (c.reshape(m * m, m) @ w).reshape(m, m))


class RicciData(NamedTuple):
    ric_g: np.ndarray   # (2n, 2n) real Ricci tensor of the Levi-Civita connection
    ric_b: np.ndarray   # (2n, 2n) real Ricci tensor of the Bismut connection
    rho_b_trace: InvariantForm
    rho_c: InvariantForm


def levi_civita(mu: LieBracket, g: HermitianMetric) -> np.ndarray:
    """Koszul formula for left-invariant metrics:

    2 g(nabla_X Y, Z) = g(mu(X,Y), Z) - g(mu(Y,Z), X) + g(mu(Z,X), Y),

    from one product X[i, j, k] = g(mu(E_i, E_j), E_k): the three terms are
    X, X[j, k, i] and X[k, i, j].
    """
    require_jacobi(mu)
    c = mu.real_structure()
    m = c.shape[0]
    X = (c.reshape(m * m, m) @ g.gram).reshape(m, m, m)
    rhs = 0.5 * (X - X.transpose(2, 0, 1) + X.transpose(1, 2, 0))
    return rhs @ g.gram_inverse.T


def require_jacobi(mu: LieBracket) -> None:
    """Raise unless the bracket's (cached) Jacobi defect is within JACOBI_TOL."""
    if mu.jacobi > JACOBI_TOL:
        raise ValidationError(f"bracket violates the Jacobi identity (defect {mu.jacobi:.3e})")


def torsion_three_form(mu: LieBracket, g: HermitianMetric) -> InvariantForm:
    """Bismut torsion c(X, Y, Z) = -d omega(JX, JY, JZ), complexified tensor."""
    dw = d_mu(mu, fundamental_form(g)).tensor
    j = standard_j_diag(mu.n)
    scale = j[:, None, None] * j[None, :, None] * j[None, None, :]
    return InvariantForm(-scale * dw, mu.n, validate=False)


def bismut(mu: LieBracket, g: HermitianMetric) -> np.ndarray:
    """Bismut connection ``levi_civita(mu, g)`` + (1/2) g^{-1} c, with c the
    torsion 3-form ``torsion_three_form(mu, g)``.

    Raises if the defining residuals (metric compatibility, J-parallelism,
    total skewness of the torsion) exceed tolerance, which catches
    convention errors early.
    """
    require_integrable(mu)
    lc = levi_civita(mu, g)
    c = mu.real_structure()
    S, _, J_real, _ = adapted_frame(mu.n)
    c_real_t = transform_form(torsion_three_form(mu, g).tensor, S)
    if np.abs(c_real_t.imag).max() > TORSION_REALITY_TOL * max(np.abs(c_real_t).max(), 1.0):
        raise ValidationError("torsion 3-form is not real")
    c_real = c_real_t.real
    gamma = lc + 0.5 * (c_real @ g.gram_inverse.T)

    scale = max(np.abs(gamma).max(), 1.0)
    mats = gamma.transpose(0, 2, 1)
    compat = np.abs(gamma @ g.gram + g.gram @ mats).max()
    jres = np.abs(mats @ J_real - J_real @ mats).max()
    torsion = gamma - gamma.transpose(1, 0, 2) - c
    skew = np.abs((torsion @ g.gram).transpose(2, 0, 1) - c_real).max()
    bound = BISMUT_TOL * scale
    if compat > bound or jres > bound or skew > bound:
        raise ValidationError(
            f"Bismut residuals too large (compat {compat:.2e}, J {jres:.2e}, skew {skew:.2e})")
    return gamma


def curvature(gamma: np.ndarray, mu: LieBracket) -> CurvatureTensor:
    """R(X, Y) = [nabla_X, nabla_Y] - nabla_{mu(X, Y)} on the real basis."""
    return CurvatureTensor(gamma.transpose(0, 2, 1), mu.real_structure())


def ricci_forms(mu: LieBracket, g: HermitianMetric) -> RicciData:
    """Ricci tensors of both connections plus the trace-path Bismut Ricci form
    and the Chern Ricci form rho_C = rho_B + d d* omega.

    ``bismut`` checks the bracket.  The Levi-Civita connection is built
    twice: inside ``bismut``, and for the Levi-Civita curvature.
    """
    Rb = curvature(bismut(mu, g), mu)
    Rg = curvature(levi_civita(mu, g), mu)
    Sinv = adapted_frame(mu.n)[1]
    rho_b_trace = InvariantForm(transform_form(Rb.rho(), Sinv), mu.n, validate=False)

    omega = fundamental_form(g)
    ddstar = d_mu(mu, codifferential(mu, g, omega))
    rho_c = rho_b_trace + ddstar

    return RicciData(
        ric_g=Rg.ricci(),
        ric_b=Rb.ricci(),
        rho_b_trace=rho_b_trace,
        rho_c=rho_c,
    )
