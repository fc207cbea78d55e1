"""Lie brackets as structure-constant tensors on the complexified algebra.

All computations happen in an adapted frame for the standard complex
structure J0.  The 2n complexified basis vectors are

    Z_1, ..., Z_n, Z_1bar, ..., Z_nbar

where Z_k = (E_k - i*J0 E_k)/2 for the real adapted basis {E_1..E_2n}
with J0 E_k = E_{k+n}.  Index A >= n denotes the conjugate of A - n.

A bracket mu is a dense complex tensor ``coeffs`` of shape (2n, 2n, 2n):
``coeffs[A, B, C]`` is the coefficient of basis vector C in mu(b_A, b_B).
Stored tensors are exactly antisymmetric in (A, B) and satisfy the reality
symmetry conj(coeffs[A, B, C]) = coeffs[bar A, bar B, bar C].  A bracket
owns a read-only copy of its coefficients, so it is judged once per object:
its ``jacobi`` and ``nijenhuis`` defects and its real structure constants
are computed on first use and kept.
Construction checks only the symmetries; the checks that read the defects
(``hermitian_forms.require_integrable``, ``connections.require_jacobi`` and
``CatalogEntry``) run where a bracket enters.

Every frame change of a bracket goes through ``change_frame(coeffs, M,
Minv)``, which writes it in the frame with columns M: out[a, b, c] =
M[i, a] M[j, b] coeffs[i, j, k] Minv[c, k]; ``act`` uses M = complexify(h^-1).

Norm convention: ``bracket_norm_sq`` sums |mu(E_i, E_j)|^2 over ordered
pairs of real adapted basis vectors, treating {E_i} as orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import SingularTransformError, ValidationError

SYMMETRY_TOL = 1e-10    # antisymmetry, reality and Hermitian symmetry, relative
KERNEL_TOL = 1e-9       # singular values below KERNEL_TOL * s_max span the center
RANK_TOL = 1e-10        # rank cut and zero test of the lower central series
COND_BOUND = 1e12       # largest condition number ``act`` accepts
COMPLEX_STRUCTURE_TOL = 1e-10   # J @ J = -I (absolute) and J F = i F of a (1,0) frame F (relative)
FRAME_COND_BOUND = 1e10  # largest condition number of [F, conj F] for a (1,0) frame F


def bar_indices(n: int) -> np.ndarray:
    """Index permutation swapping the holomorphic and antiholomorphic halves."""
    return np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])


def standard_j_diag(n: int) -> np.ndarray:
    """Diagonal of J0 in the complexified frame: +i on Z_k, -i on Z_kbar."""
    return np.concatenate([1j * np.ones(n), -1j * np.ones(n)])


@lru_cache(maxsize=32)
def adapted_frame(n: int):
    """Change-of-basis data between real and complexified coordinates.

    Returns (S, Sinv, J_real, jdiag) where S maps real coordinates to
    complexified ones (columns are the E_i in the Z-basis), Sinv is its
    inverse, and J_real is J0 on real coordinates.  The arrays are cached
    and shared between callers, so they are read-only.
    """
    m = 2 * n
    S = np.zeros((m, m), dtype=complex)
    for k in range(n):
        S[k, k] = 1.0
        S[n + k, k] = 1.0
        S[k, n + k] = 1j
        S[n + k, n + k] = -1j
    Sinv = S.conj().T / 2.0
    J_real = np.zeros((m, m))
    J_real[n:, :n] = np.eye(n)
    J_real[:n, n:] = -np.eye(n)
    frame = (S, Sinv, J_real, standard_j_diag(n))
    for arr in frame:
        arr.setflags(write=False)
    return frame


def conj_tensor(T: np.ndarray, n: int) -> np.ndarray:
    """Conjugate a complexified tensor: conj of entries, bar on every index."""
    ix = bar_indices(n)
    out = np.conj(T)
    for axis in range(T.ndim):
        out = np.take(out, ix, axis=axis)
    return out


def complexify(h: np.ndarray) -> np.ndarray:
    """Block diag(h, conj h): the action of h in GL(n, C) on complexified coordinates."""
    n = h.shape[0]
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    H[:n, :n] = h
    H[n:, n:] = np.conj(h)
    return H


def change_frame(coeffs: np.ndarray, M: np.ndarray, Minv: np.ndarray) -> np.ndarray:
    """The frame change of the module docstring, as three matrix products."""
    m = coeffs.shape[0]
    out = (M.T @ coeffs.reshape(m, m * m)).reshape(m, m, m)
    return (M.T @ out) @ Minv.T


def symmetrize_bracket(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Project a raw tensor onto exact antisymmetry and reality."""
    T = 0.5 * (coeffs - coeffs.transpose(1, 0, 2))
    return 0.5 * (T + conj_tensor(T, n))


class Derived(cached_property):
    """A value computed once from an object's arrays; unsettable, and read-only if an array."""

    def __get__(self, instance, owner=None):
        value = super().__get__(instance, owner)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        return value

    def __set__(self, instance, value):
        raise AttributeError(f"{self.attrname} is computed from the object's arrays")


class LieBracket:
    """Structure-constant tensor of a bracket on the complexified algebra.

    The coefficients are exactly antisymmetric: coeffs[b, a] == -coeffs[a, b]
    bit for bit, and coeffs[a, a] == 0.  ``jacobi_defect`` relies on it.
    ``validate=True`` ensures it by ``symmetrize_bracket``; a caller that
    passes ``validate=False`` hands in a ``symmetrize_bracket`` output,
    zeros, or a tensor x - x.transpose(1, 0, 2).
    """

    def __init__(self, coeffs: np.ndarray, *, validate: bool = True):
        coeffs = np.array(coeffs, dtype=complex)
        if coeffs.ndim != 3 or len(set(coeffs.shape)) != 1 or coeffs.shape[0] % 2:
            raise ValidationError(f"expected shape (2n, 2n, 2n), got {coeffs.shape}")
        self.n = coeffs.shape[0] // 2
        if validate:
            if not np.isfinite(coeffs).all():
                raise ValidationError("bracket has non-finite structure constants")
            scale = max(np.abs(coeffs).max(), 1.0)
            anti = np.abs(coeffs + coeffs.transpose(1, 0, 2)).max()
            real = np.abs(coeffs - conj_tensor(coeffs, self.n)).max()
            if anti > SYMMETRY_TOL * scale:
                raise ValidationError(f"bracket not antisymmetric (defect {anti:.3e})")
            if real > SYMMETRY_TOL * scale:
                raise ValidationError(f"bracket violates reality symmetry (defect {real:.3e})")
            coeffs = symmetrize_bracket(coeffs, self.n)
        coeffs.setflags(write=False)
        self.coeffs = coeffs

    @property
    def dim(self) -> int:
        return 2 * self.n

    @Derived
    def jacobi(self) -> float:
        """``jacobi_defect`` of this bracket, computed once."""
        return jacobi_defect(self)

    @Derived
    def nijenhuis(self) -> float:
        """``nijenhuis_defect`` of this bracket, computed once."""
        return nijenhuis_defect(self)

    def real_structure(self) -> np.ndarray:
        """Structure constants over the real adapted basis, shape (2n, 2n, 2n),
        computed once and shared read-only."""
        return self._real

    @Derived
    def _real(self) -> np.ndarray:
        S, Sinv, _, _ = adapted_frame(self.n)
        c = change_frame(self.coeffs, S, Sinv)
        if np.abs(c.imag).max() > SYMMETRY_TOL * max(np.abs(c).max(), 1.0):
            raise ValidationError("real structure constants have a large imaginary part")
        return c.real.copy()

    def __repr__(self) -> str:
        nz = int(np.count_nonzero(np.abs(self.coeffs) > 1e-14))
        return f"LieBracket(n={self.n}, nonzeros={nz})"


@dataclass
class Subspace:
    """Subspace of the complexified algebra, columns of ``basis`` orthonormal."""

    basis: np.ndarray  # (2n, dim) complex, orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def jacobi_defect(mu: LieBracket) -> float:
    """Max norm of mu(mu(X, Y), Z) + cyclic over complexified basis triples.

    With D[a, b, c, e] = c_abd c_dce, the cyclic sum at (a, b, c) is
    (D[a, b, c] + D[b, c, a]) + D[c, a, b], added in that order.  The
    coefficients are exactly antisymmetric in their first two indices (see
    ``LieBracket``), so D[b, a] = -D[a, b] and D[a, a] = 0 exactly.  The sum
    is then exactly 0 where two indices agree, and for a < b < c its six
    orderings are the three association orders (x + y) + z, (y + z) + x and
    (z + x) + y, or their negatives, of x = D[a, b, c], y = D[b, c, a] and
    z = -D[a, c, b].  So the maximum reads only the ordered triples, and D
    only at its rows a < b: one (m(m-1)/2, m) @ (m, m^2) product.  A row of
    a product has the same bits whichever other rows are computed with it,
    so this is the dense maximum bit for bit; a block of columns is a
    product of another shape, whose kernel may sum in another order.
    """
    c = mu.coeffs
    m = c.shape[0]
    rows, triples = _ordered_triples(m)
    D = (c.reshape(m * m, m)[rows] @ c.reshape(m, m * m)).reshape(-1, m)
    x, y, w = D[triples]   # z = -w
    return float(np.abs(np.stack([(x + y) - w, (y - w) + x, (x - w) + y])).max(initial=0.0))


@lru_cache(maxsize=32)
def _ordered_triples(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of ``jacobi_defect`` in dimension m, shared read-only.

    ``rows`` are the rows p * m + q, p < q, of c.reshape(m * m, m), and
    ``triples[:, t]`` the rows of D.reshape(-1, m) that hold D[a, b, c],
    D[b, c, a] and D[a, c, b] for the t-th triple a < b < c.
    """
    p, q = np.triu_indices(m, 1)
    pair = np.zeros((m, m), dtype=np.intp)
    pair[p, q] = np.arange(p.size)
    i = np.arange(m)
    a, b, c = np.nonzero((i[:, None, None] < i[:, None]) & (i[:, None] < i))
    tables = (p * m + q, np.stack([pair[a, b] * m + c, pair[b, c] * m + a, pair[a, c] * m + b]))
    for arr in tables:
        arr.setflags(write=False)
    return tables


def nijenhuis_defect(mu: LieBracket) -> float:
    """Max norm of the Nijenhuis tensor of J0 with respect to mu."""
    return float(np.abs(_nijenhuis_factor(mu.n) * mu.coeffs).max())


@lru_cache(maxsize=32)
def _nijenhuis_factor(n: int) -> np.ndarray:
    """N[a, b, c] = j_a j_b - j_a j_c - j_b j_c - 1, shared read-only: the
    Nijenhuis tensor of J0 is N * coeffs."""
    j = standard_j_diag(n)
    factor = (
        j[:, None, None] * j[None, :, None]
        - j[:, None, None] * j[None, None, :]
        - j[None, :, None] * j[None, None, :]
        - 1.0
    )
    factor.setflags(write=False)
    return factor


def nilpotency_step(mu: LieBracket) -> int | None:
    """Smallest k with the (k+1)-fold lower-central-series bracket below RANK_TOL.

    Returns None if the series does not reach zero within 2n steps.
    """
    c = mu.real_structure()
    m = mu.dim
    scale = max(np.abs(c).max(), 1.0)
    current = np.eye(m)  # columns span g^0 = g
    for k in range(1, m + 1):
        # columns of prods span mu(g, g^{k-1})
        prods = np.einsum("ijl,jb->lib", c, current).reshape(m, -1)
        if np.abs(prods).max() <= RANK_TOL * scale:
            return k
        u, s, _ = np.linalg.svd(prods, full_matrices=False)
        rank = int(np.sum(s > RANK_TOL * s[0]))   # s[0] >= max |prods| > 0, so rank >= 1
        current = u[:, :rank]
    return None


def center(mu: LieBracket) -> Subspace:
    """Kernel of X -> mu(X, .) via SVD of the stacked bracket matrix."""
    m = mu.dim
    M = mu.coeffs.transpose(1, 2, 0).reshape(m * m, m)
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    mask = s <= KERNEL_TOL * s[0]
    basis = vh.conj().T[:, mask]
    return Subspace(basis)


def act(h: np.ndarray, mu: LieBracket) -> LieBracket:
    """Transport the bracket by h in GL(n, C): (h . mu)(X, Y) = h mu(h^-1 X, h^-1 Y)."""
    h = np.asarray(h, dtype=complex)
    n = mu.n
    if h.shape != (n, n):
        raise ValidationError(f"expected h of shape ({n}, {n}), got {h.shape}")
    cond = np.linalg.cond(h)
    if not np.isfinite(cond) or cond > COND_BOUND:
        raise SingularTransformError(f"condition number {cond:.3e} exceeds bound {COND_BOUND:.1e}")
    new = change_frame(mu.coeffs, complexify(np.linalg.inv(h)), complexify(h))
    return LieBracket(symmetrize_bracket(new, n), validate=False)


def bracket_norm_sq(mu: LieBracket) -> float:
    """<mu, mu> summed over ordered real-basis pairs, {E_i} orthonormal.

    The columns of S / sqrt(2) (``adapted_frame``) are orthonormal, so the
    sum of squares of the real structure constants is 2 sum |mu_ab^c|^2.
    """
    return float(2.0 * np.sum(np.abs(mu.coeffs) ** 2))


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles between two subspaces, in descending order.

    The algorithm is the one of ``scipy.linalg.subspace_angles`` (Knyazev &
    Argentati, SIAM J. Sci. Comput. 23 (2002)) on the orthonormal bases Qa
    and Qb of the subspaces: take the singular values sigma of Qa^H Qb as
    cosines, and for every angle whose cosine has sigma^2 >= 1/2 take the
    arcsine of the matching singular value of the residual instead, which
    stays accurate for tiny angles where arccos of a cosine saturates around
    1e-8.  scipy indexes that mask by descending cosine against angles in
    descending order, so when some angles lie above pi/4 and some below it
    takes the ill-conditioned branch for both kinds; here each angle takes
    its own well-conditioned branch.
    """
    qa, qb = a.basis, b.basis
    cross = qa.conj().T @ qb
    sigma = np.linalg.svd(cross, compute_uv=False)
    if qa.shape[1] >= qb.shape[1]:
        resid = qb - qa @ cross
    else:
        resid = qa - qb @ cross.conj().T
    cosines = sigma[::-1]   # of the angles in descending order, like the sines
    small = cosines ** 2 >= 0.5
    sines = np.linalg.svd(resid, compute_uv=False) if small.any() else 0.0
    return np.where(small, np.arcsin(np.clip(sines, -1.0, 1.0)),
                    np.arccos(np.clip(cosines, -1.0, 1.0)))


def from_real_structure(c_real: np.ndarray, J: np.ndarray, frame: np.ndarray | None = None):
    """Build a LieBracket from real structure constants and a complex structure.

    ``c_real[i, j, k]`` is the E_k-coefficient of [E_i, E_j] in the user's
    real basis and J is the matrix of the complex structure (J @ J = -I).
    ``frame``, if given, must hold the (1,0) frame vectors as columns in
    user real coordinates (complex entries), so J @ frame = i frame.
    Otherwise the frame is n columns of the candidate matrix (I - iJ)/2,
    picked by column pivoting: each round takes the column of largest
    residual norm, the lowest index among those within RANK_TOL of it, and
    deflates it out of the rest.

    Returns (LieBracket, frame) with the frame actually used.
    """
    c_real = np.asarray(c_real, dtype=float)
    J = np.asarray(J, dtype=float)
    m = c_real.shape[0]
    if c_real.shape != (m, m, m) or J.shape != (m, m) or m % 2:
        raise ValidationError("real structure constants and J have inconsistent shapes")
    if not (np.isfinite(c_real).all() and np.isfinite(J).all()):
        raise ValidationError("structure constants and J must be finite")
    if np.abs(J @ J + np.eye(m)).max() > COMPLEX_STRUCTURE_TOL:
        raise ValidationError("J is not an almost complex structure (J^2 != -I)")
    n = m // 2
    if frame is None:
        # candidate (1,0) vectors (u - i J u)/2 for standard basis vectors u
        cand = 0.5 * (np.eye(m) - 1j * J)
        frame = cand[:, _pivot_columns(cand, n)]
    frame = np.asarray(frame, dtype=complex)
    if frame.shape != (m, n) or not np.isfinite(frame).all():
        raise ValidationError(f"frame must be a finite array of shape ({m}, {n})")
    scale = max(np.abs(frame).max(), 1.0)
    if np.abs(J @ frame - 1j * frame).max() > COMPLEX_STRUCTURE_TOL * scale:
        raise ValidationError("frame is not of type (1,0) for J (J frame != i frame)")
    M = np.concatenate([frame, np.conj(frame)], axis=1)
    if np.linalg.cond(M) > FRAME_COND_BOUND:
        raise SingularTransformError("(1,0) frame is numerically degenerate")
    Minv = np.linalg.inv(M)
    coeffs = change_frame(c_real, M, Minv)
    return LieBracket(symmetrize_bracket(coeffs, n), validate=False), frame


def export_real_structure(mu: LieBracket):
    """Real structure constants, J matrix and frame in the adapted basis.

    Round-trips to rounding through ``from_real_structure``.
    """
    _, Sinv, J_real, _ = adapted_frame(mu.n)
    return mu.real_structure().copy(), J_real.copy(), Sinv[:, : mu.n].copy()


def _pivot_columns(a: np.ndarray, k: int) -> list[int]:
    """The first k column pivots of a (Businger & Golub 1965), with ties
    within RANK_TOL going to the lowest index; see ``from_real_structure``."""
    r = np.array(a, dtype=complex)
    piv = []
    for _ in range(k):
        norms = np.linalg.norm(r, axis=0)
        norms[piv] = -1.0
        j = int(np.argmax(norms >= (1.0 - RANK_TOL) * norms.max()))
        q = r[:, j] / norms[j]
        r -= np.outer(q, q.conj() @ r)
        piv.append(j)
    return piv
