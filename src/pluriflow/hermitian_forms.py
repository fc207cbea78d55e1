"""Invariant exterior calculus on the complexified algebra.

Forms are dense antisymmetric coefficient tensors over the 2n
complexified basis covectors zeta^1..zeta^n, zeta^1bar..zeta^nbar.
Wedge normalization is the determinant convention with no 1/r! factor:
(zeta^a wedge zeta^b)(Z_a, Z_b) = 1.

A Hermitian metric is the n x n matrix g[r, k] = g(Z_r, Z_kbar); its
bilinear extension to the complexification vanishes on (1,0) x (1,0)
pairs.  Under this convention the fundamental form of the identity
metric is -i sum_r zeta^r wedge zeta^rbar and real adapted basis vectors
have squared length 2.

g measures forms through the slot metric K = diag(conj G^-1, G^-1), the
Hermitian structure g induces on covectors: <zeta^A, zeta^B> = K[A, B].
On r-forms it acts slot by slot, <a, b> = sum a[A..] K[A, B].. conj(b[B..]) / r!,
the sum over increasing multi-indices of a g-orthonormal coframe.  d and d*
are signed shuffle sums, shuffle(C, k)[a_1..a_r] = sum_I sign(I)
C[a_I, a_rest] over the increasing k-subsets I of C's r slots.  On antisymmetric
input d T = -shuffle(C, 2) with C[a, b, ...] = mu[a, b, e] T[e, ...], and
d* psi = -shuffle(W, 1) / 2 with W[c, ...] = sum conj(mu[i, j, k]) K[A, i]
K[B, j] psi[A, B, ...] K^-1[k, c], the adjoint of d_mu in the product above.

K is block-diagonal, so the C(r, p) slot arrangements of a pure (p, q)
form contribute equally: |psi|^2 = C(r, p) / r! times the slot-metric sum
over its one n^r block with holomorphic slots first, conj G^-1 on the p
holomorphic slots and G^-1 on the q antiholomorphic ones.  ``skt_defect``
uses this block rule on the (2,2) block of dbar dpartial omega, which it
builds from the (2,1) block of d omega without the dense 3- and 4-forms.

Integrability is judged against ``INTEGRABILITY_TOL`` and the constructors'
symmetry checks against ``lie_core.SYMMETRY_TOL``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import IntegrabilityError, ValidationError
from .lie_core import (
    SYMMETRY_TOL,
    Derived,
    LieBracket,
    adapted_frame,
    complexify,
    standard_j_diag,
)

INTEGRABILITY_TOL = 1e-8   # Nijenhuis defect


class HermitianMetric:
    """Positive definite Hermitian matrix g[r, k] = g(Z_r, Z_kbar)."""

    def __init__(self, matrix: np.ndarray, *, validate: bool = True):
        G = np.array(matrix, dtype=complex)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {G.shape}")
        if validate:
            if not np.isfinite(G).all():
                raise ValidationError("metric has non-finite entries")
            herm = np.abs(G - G.conj().T).max()
            if herm > SYMMETRY_TOL * max(np.abs(G).max(), 1.0):
                raise ValidationError(f"metric not Hermitian (defect {herm:.3e})")
            G = 0.5 * (G + G.conj().T)
            if np.linalg.eigvalsh(G).min() <= 0:
                raise ValidationError("metric is not positive definite")
        G.setflags(write=False)
        self.matrix = G
        self.n = G.shape[0]

    @Derived
    def inverse(self) -> np.ndarray:
        """G^-1, the inverse metric g^{kbar r}."""
        return np.linalg.inv(self.matrix)

    @Derived
    def gram(self) -> np.ndarray:
        """``gram_real`` of this metric, the real Gram matrix."""
        return gram_real(self)

    @Derived
    def gram_inverse(self) -> np.ndarray:
        """Inverse of the real Gram matrix."""
        return np.linalg.inv(self.gram)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())

    def __repr__(self) -> str:
        return f"HermitianMetric(n={self.n})"


class InvariantForm:
    """Antisymmetric multilinear form as a dense coefficient tensor."""

    def __init__(self, tensor: np.ndarray, n: int, *, validate: bool = True):
        T = np.asarray(tensor, dtype=complex)
        if T.ndim and any(s != 2 * n for s in T.shape):
            raise ValidationError(f"tensor axes must have length {2 * n}, got {T.shape}")
        if validate and T.ndim >= 2:
            anti = np.abs(T + np.swapaxes(T, 0, 1)).max()
            if anti > SYMMETRY_TOL * max(np.abs(T).max(), 1.0):
                raise ValidationError(f"form not antisymmetric (defect {anti:.3e})")
        self.tensor = T
        self.n = n

    @property
    def degree(self) -> int:
        return self.tensor.ndim

    def max_norm(self) -> float:
        return float(np.abs(self.tensor).max()) if self.tensor.size else 0.0

    def bidegree_part(self, p: int, q: int) -> "InvariantForm":
        """Projection onto coefficients with p unbarred and q barred indices."""
        return InvariantForm(_bidegree_mask(self.n, self.degree, p) * self.tensor,
                             self.n, validate=False)

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        return InvariantForm(self.tensor + other.tensor, self.n, validate=False)

    def __repr__(self) -> str:
        return f"InvariantForm(n={self.n}, degree={self.degree})"


class TamedForm:
    """Closed real 2-form split as Hermitian (1,1) part plus (2,0) part.

    ``omega`` holds the positive (1,1) part as a HermitianMetric; ``beta``
    is the complex antisymmetric matrix of (2,0) coefficients, with the
    full form Omega = omega_form + sum_{i<j} beta[i,j] zeta^i wedge zeta^j
    plus the conjugate.
    """

    def __init__(self, omega: HermitianMetric, beta: np.ndarray | None = None):
        self.omega = omega
        n = omega.n
        if beta is None:
            beta = np.zeros((n, n), dtype=complex)
        beta = np.asarray(beta, dtype=complex)
        if beta.shape != (n, n):
            raise ValidationError(f"beta must have shape ({n}, {n})")
        # entries near the float limit overflow here; a non-finite entry of
        # beta leaves a non-finite entry in its antisymmetric part too
        with np.errstate(over="ignore", invalid="ignore"):
            antisym = 0.5 * (beta - beta.T)
            if not np.isfinite(antisym).all():
                raise ValidationError("beta and its antisymmetric part must be finite")
            if np.abs(beta + beta.T).max() > SYMMETRY_TOL * max(np.abs(beta).max(), 1.0):
                raise ValidationError("beta must be antisymmetric")
        self.beta = antisym
        self.n = n

    def full_form(self) -> InvariantForm:
        """The real 2-form omega + beta + conj(beta)."""
        n = self.n
        T = fundamental_form(self.omega).tensor.copy()
        T[:n, :n] += self.beta
        T[n:, n:] += np.conj(self.beta)
        return InvariantForm(T, n, validate=False)

    def __repr__(self) -> str:
        return f"TamedForm(n={self.n})"


@lru_cache(maxsize=64)
def _bidegree_mask(n: int, degree: int, p: int) -> np.ndarray:
    hol = np.repeat([1, 0], n)
    return (sum(np.ix_(*[hol] * degree), np.zeros((), dtype=int)) == p).astype(float)


@lru_cache(maxsize=64)
def _shuffles(r: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(axes, sign) per (k, r-k) shuffle I, with C.transpose(axes)[a] = C[a_I, a_rest]."""
    out = []
    for front in itertools.combinations(range(r), k):
        order = front + tuple(i for i in range(r) if i not in front)
        out.append((tuple(np.argsort(order).tolist()), (-1) ** (sum(front) - k * (k - 1) // 2)))
    return tuple(out)


def _shuffle(C: np.ndarray, k: int) -> np.ndarray:
    """Signed sum of C over the (k, r-k) shuffles of its slots (module docstring)."""
    out = C.copy()   # the first shuffle is the identity
    for axes, sign in _shuffles(C.ndim, k)[1:]:
        if sign > 0:
            out += C.transpose(axes)
        else:
            out -= C.transpose(axes)
    return out


def fundamental_form(g: HermitianMetric) -> InvariantForm:
    """omega = -i g[r, k] zeta^r wedge zeta^kbar, the (1,1) form of g."""
    n = g.n
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    T[:n, n:] = -1j * g.matrix
    T[n:, :n] = 1j * g.matrix.T
    return InvariantForm(T, n, validate=False)


def d_mu_tensor(m: np.ndarray, T: np.ndarray, n: int) -> np.ndarray:
    """Chevalley-Eilenberg differential of a dense antisymmetric tensor.

    (dT)[a_0..a_r] = sum_{i<j} (-1)^(i+j) m[a_i, a_j, e] T[e, rest] = -shuffle(m . T, 2),
    as moving slots i < j to the front has sign (-1)^(i+j-1).  ``m`` is a
    structure tensor in the same frame as ``T``; valid in any frame.
    """
    dim = 2 * n
    if T.ndim == 0:
        return np.zeros(dim, dtype=np.result_type(m, T, complex))
    C = (-m).reshape(dim * dim, dim) @ T.reshape(dim, -1)
    return _shuffle(C.reshape((dim,) * (T.ndim + 1)), 2)


def d_mu(mu: LieBracket, form: InvariantForm) -> InvariantForm:
    """Exterior differential induced by the bracket."""
    if form.degree > 2 * mu.n - 1:
        raise ValidationError("degree exceeds 2n - 1")
    return InvariantForm(d_mu_tensor(mu.coeffs, form.tensor, mu.n), mu.n, validate=False)


def require_integrable(mu: LieBracket) -> None:
    """Raise unless the bracket's (cached) Nijenhuis defect is within INTEGRABILITY_TOL."""
    if mu.nijenhuis > INTEGRABILITY_TOL:
        raise IntegrabilityError(
            f"Nijenhuis defect {mu.nijenhuis:.3e} exceeds {INTEGRABILITY_TOL:.1e}")


def big_bilinear(g: HermitianMetric) -> np.ndarray:
    """Bilinear extension of g to the complexification, shape (2n, 2n)."""
    n = g.n
    B = np.zeros((2 * n, 2 * n), dtype=complex)
    B[:n, n:] = g.matrix
    B[n:, :n] = g.matrix.T
    return B


def gram_real(g: HermitianMetric) -> np.ndarray:
    """Real Gram matrix of g on the adapted real basis."""
    S, _, _, _ = adapted_frame(g.n)
    B = big_bilinear(g)
    gram = S.T @ B @ S
    return gram.real


def transform_form(T: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Pull a coefficient tensor through the basis change with columns M[:, j],
    one product per slot: each contracts the leading slot and appends the new one."""
    out = T
    for _ in range(T.ndim):
        out = out.reshape(M.shape[0], -1).T @ M
    return out.reshape((M.shape[1],) * T.ndim)


def _slot_metric(g: HermitianMetric) -> np.ndarray:
    """K = diag(conj G^-1, G^-1), the metric g induces on each covector slot."""
    return complexify(np.conj(g.inverse))


def form_inner(a: InvariantForm, b: InvariantForm, g: HermitianMetric) -> complex:
    """Inner product sum a[A..] K[A, B].. conj(b[B..]) / r! with the slot metric K."""
    if a.degree != b.degree:
        raise ValidationError("forms must have equal degree")
    a_up = transform_form(a.tensor, _slot_metric(g))
    return complex(np.sum(a_up * np.conj(b.tensor)) / math.factorial(a.degree))


def codifferential(mu: LieBracket, g: HermitianMetric, form: InvariantForm) -> InvariantForm:
    """Adjoint of d_mu with respect to the g-induced form inner products.

    The two contracted slots of the form are raised by the slot metric K,
    contracted with conj(mu), and the output slot is lowered by
    K^-1 = diag(conj G, G) into W; d* = -shuffle(W, 1) / 2.  A 1-form maps to
    the zero scalar, since d vanishes on constants.
    """
    r = form.degree
    if r < 1:
        raise ValidationError("codifferential needs degree >= 1")
    n = mu.n
    if r == 1:
        return InvariantForm(np.zeros((), dtype=complex), n, validate=False)
    m, K = 2 * n, _slot_metric(g)
    # raise the two leading slots, which move to the back
    up = (form.tensor.reshape(m, -1).T @ K).reshape(m, -1).T @ K
    W = np.conj(mu.coeffs).reshape(m * m, m).T @ up.reshape(-1, m * m).T
    W = complexify(np.conj(g.matrix)).T @ W
    return InvariantForm(-0.5 * _shuffle(W.reshape((m,) * (r - 1)), 1), n, validate=False)


def skt_defect(mu: LieBracket, g: HermitianMetric) -> float:
    """Norm of dbar dpartial omega; zero exactly for pluriclosed pairs.

    Measured in the g-induced form norm, which is invariant under the
    simultaneous equivalence (mu, g) -> (h . mu, transported g); a raw
    coefficient max-norm would not be.  Checks integrability of mu, then
    evaluates the (2,2) block from the (2,1) and (2,2) blocks alone.

    With h = :n, a = n:, c = mu.coeffs and G = g.matrix, the (2,1) block of
    d omega is
    D[i, j, k] = i (c[h, h, h] @ G)[i, j, k] + X[i, k, j] - X[j, k, i]
    with X = c[h, a, a] @ (i G^T).  The (2,2) block of d of its (2,1) part is
    E[i, j, k, l] = A[i, j, k, l] - A[i, j, l, k] - A[j, i, k, l] + A[j, i, l, k]
                    - sum_e D[i, j, e] c[k+n, l+n, e+n]
    with A[i, j, k, l] = sum_e c[i, k+n, e] D[e, j, l]; the four A terms are
    A antisymmetrized in (k, l), then in (i, j).  Every other term of the
    dense differentials vanishes by bidegree, for any c.  The slot metric is
    block-diagonal, so the 6 = C(4, 2) slot arrangements of the (2,2) form
    contribute equally: with E shaped (n^2, n^2),
    |E|^2 = 6/4! <E, (conj G^-1 (x) conj G^-1)^T E (G^-1 (x) G^-1)>.
    """
    require_integrable(mu)
    coeffs, G = mu.coeffs, g.matrix
    n = G.shape[0]
    nn = n * n
    h, a = slice(None, n), slice(n, None)
    X = coeffs[h, a, a] @ (1j * G.T)
    D = 1j * (coeffs[h, h, h] @ G) + X.transpose(0, 2, 1) - X.transpose(2, 0, 1)
    A = (coeffs[h, a, h].reshape(nn, n) @ D.reshape(n, nn)).reshape(n, n, n, n)
    A = A.transpose(0, 2, 1, 3) - A.transpose(0, 2, 3, 1)
    E = ((A - A.transpose(1, 0, 2, 3)).reshape(nn, nn)
         - D.reshape(nn, n) @ coeffs[a, a, a].reshape(nn, n).T)
    Ginv = g.inverse
    K2 = (Ginv[:, None, :, None] * Ginv[None, :, None, :]).reshape(nn, nn)   # kron(Ginv, Ginv)
    return float(np.sqrt(np.vdot(E, K2.T.conj() @ E @ K2).real / 4))


def lee_form(mu: LieBracket, g: HermitianMetric) -> InvariantForm:
    """Lee form theta = -J(d* omega), with (J alpha)(X) = alpha(J X) on 1-forms."""
    dstar = codifferential(mu, g, fundamental_form(g))
    return InvariantForm(-standard_j_diag(mu.n) * dstar.tensor, mu.n, validate=False)


def taming_margin(Omega: TamedForm) -> float:
    """Smallest eigenvalue of the symmetrized pairing (X, Y) -> Omega(JX, Y).

    Only the (1,1) part enters (the (2,0) + (0,2) block is J-anti-invariant
    and cancels in the symmetrization).  That part is the real Gram form of
    Omega's metric, whose eigenvalues are the metric's own, each twice; with
    the identity metric normalized to margin 1, the margin is the smallest
    eigenvalue of the metric.
    """
    return Omega.omega.min_eigenvalue()


def closedness_defect(mu: LieBracket, Omega: TamedForm) -> float:
    """Max norm of d Omega."""
    return d_mu(mu, Omega.full_form()).max_norm()

