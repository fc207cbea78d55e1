"""Lie brackets as structure-constant tensors on the complexified algebra.

All computations happen in an adapted frame for the standard complex
structure J0.  The 2n complexified basis vectors are

    Z_1, ..., Z_n, Z_1bar, ..., Z_nbar

where Z_k = (E_k - i*J0 E_k)/2 for the real adapted basis {E_1..E_2n}
with J0 E_k = E_{k+n}.  Index A >= n denotes the conjugate of A - n.

A bracket mu is a dense complex tensor ``coeffs`` of shape (2n, 2n, 2n):
``coeffs[A, B, C]`` is the coefficient of basis vector C in mu(b_A, b_B).
Stored tensors are antisymmetric in (A, B) and satisfy the reality
symmetry conj(coeffs[A, B, C]) = coeffs[bar A, bar B, bar C].  The Jacobi
identity is deliberately not enforced at construction; ``jacobi_defect``
measures it and flows check it explicitly.

Norm convention: ``bracket_norm_sq`` sums |mu(E_i, E_j)|^2 over ordered
pairs of real adapted basis vectors, treating {E_i} as orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularTransformError, ValidationError

DEFAULT_KERNEL_TOL = 1e-9
DEFAULT_COND_BOUND = 1e12

_FRAME_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def bar_indices(n: int) -> np.ndarray:
    """Index permutation swapping the holomorphic and antiholomorphic halves."""
    return np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])


def standard_j_diag(n: int) -> np.ndarray:
    """Diagonal of J0 in the complexified frame: +i on Z_k, -i on Z_kbar."""
    return np.concatenate([1j * np.ones(n), -1j * np.ones(n)])


def adapted_frame(n: int):
    """Change-of-basis data between real and complexified coordinates.

    Returns (S, Sinv, J_real, jdiag) where S maps real coordinates to
    complexified ones (columns are the E_i in the Z-basis), Sinv is its
    inverse, and J_real is J0 on real coordinates.  The arrays are cached
    and shared between callers, so they are read-only.
    """
    if n not in _FRAME_CACHE:
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
        _FRAME_CACHE[n] = frame
    return _FRAME_CACHE[n]


def conj_tensor(T: np.ndarray, n: int) -> np.ndarray:
    """Conjugate a complexified tensor: conj of entries, bar on every index."""
    ix = bar_indices(n)
    out = np.conj(T)
    for axis in range(T.ndim):
        out = np.take(out, ix, axis=axis)
    return out


def symmetrize_bracket(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Project a raw tensor onto exact antisymmetry and reality."""
    T = 0.5 * (coeffs - coeffs.transpose(1, 0, 2))
    return 0.5 * (T + conj_tensor(T, n))


class LieBracket:
    """Structure-constant tensor of a bracket on the complexified algebra."""

    def __init__(self, coeffs: np.ndarray, *, tol: float = 1e-10, validate: bool = True):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3 or len(set(coeffs.shape)) != 1 or coeffs.shape[0] % 2:
            raise ValidationError(f"expected shape (2n, 2n, 2n), got {coeffs.shape}")
        self.n = coeffs.shape[0] // 2
        if validate:
            scale = max(np.abs(coeffs).max(), 1.0)
            anti = np.abs(coeffs + coeffs.transpose(1, 0, 2)).max()
            real = np.abs(coeffs - conj_tensor(coeffs, self.n)).max()
            if anti > tol * scale:
                raise ValidationError(f"bracket not antisymmetric (defect {anti:.3e})")
            if real > tol * scale:
                raise ValidationError(f"bracket violates reality symmetry (defect {real:.3e})")
            coeffs = symmetrize_bracket(coeffs, self.n)
        self.coeffs = coeffs

    @property
    def dim(self) -> int:
        return 2 * self.n

    def real_structure(self) -> np.ndarray:
        """Structure constants over the real adapted basis, shape (2n, 2n, 2n)."""
        S, Sinv, _, _ = adapted_frame(self.n)
        c = np.einsum("ia,jb,ijk,ck->abc", S, S, self.coeffs, Sinv, optimize=True)
        if np.abs(c.imag).max() > 1e-10 * max(np.abs(c).max(), 1.0):
            raise ValidationError("real structure constants have a large imaginary part")
        return c.real.copy()

    def __repr__(self) -> str:
        nz = int(np.count_nonzero(np.abs(self.coeffs) > 1e-14))
        return f"LieBracket(n={self.n}, nonzeros={nz})"


@dataclass
class Subspace:
    """Subspace of the complexified algebra, columns of ``basis`` orthonormal."""

    basis: np.ndarray  # (2n, dim) complex, orthonormal columns
    dim: int

    def __post_init__(self):
        if self.basis.shape[1] != self.dim:
            raise ValidationError("basis column count does not match dim")


def jacobi_defect(mu: LieBracket) -> float:
    """Max norm of mu(mu(X, Y), Z) + cyclic over complexified basis triples.

    The three cyclic terms are index permutations of one contraction
    D[a, b, c, e] = c_abd c_dce.
    """
    c = mu.coeffs
    D = np.tensordot(c, c, ([2], [0]))
    return float(np.abs(D + D.transpose(2, 0, 1, 3) + D.transpose(1, 2, 0, 3)).max())


def nijenhuis_defect(mu: LieBracket) -> float:
    """Max norm of the Nijenhuis tensor of J0 with respect to mu."""
    n = mu.n
    j = standard_j_diag(n)
    factor = (
        j[:, None, None] * j[None, :, None]
        - j[:, None, None] * j[None, None, :]
        - j[None, :, None] * j[None, None, :]
        - 1.0
    )
    return float(np.abs(factor * mu.coeffs).max())


def nilpotency_step(mu: LieBracket, tol: float = 1e-10) -> int | None:
    """Smallest k with the (k+1)-fold lower-central-series bracket below tol.

    Returns None if the series does not reach zero within 2n steps.
    """
    c = mu.real_structure()
    m = mu.dim
    scale = max(np.abs(c).max(), 1.0)
    current = np.eye(m)  # columns span g^0 = g
    for k in range(1, m + 1):
        # columns of prods span mu(g, g^{k-1})
        prods = np.einsum("ijl,jb->lib", c, current).reshape(m, -1)
        if np.abs(prods).max() <= tol * scale:
            return k
        u, s, _ = np.linalg.svd(prods, full_matrices=False)
        rank = int(np.sum(s > tol * max(s[0], 1e-300)))
        if rank == 0:
            return k
        current = u[:, :rank]
    return None


def center(mu: LieBracket, tol: float = DEFAULT_KERNEL_TOL) -> Subspace:
    """Kernel of X -> mu(X, .) via SVD of the stacked bracket matrix."""
    m = mu.dim
    M = mu.coeffs.transpose(1, 2, 0).reshape(m * m, m)
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    s = np.concatenate([s, np.zeros(m - len(s))])
    smax = s[0] if len(s) else 0.0
    mask = s <= tol * smax
    basis = vh.conj().T[:, mask]
    return Subspace(basis=basis, dim=int(mask.sum()))


def act(h: np.ndarray, mu: LieBracket, cond_bound: float = DEFAULT_COND_BOUND) -> LieBracket:
    """Transport the bracket by h in GL(n, C): (h . mu)(X, Y) = h mu(h^-1 X, h^-1 Y)."""
    h = np.asarray(h, dtype=complex)
    n = mu.n
    if h.shape != (n, n):
        raise ValidationError(f"expected h of shape ({n}, {n}), got {h.shape}")
    cond = np.linalg.cond(h)
    if not np.isfinite(cond) or cond > cond_bound:
        raise SingularTransformError(f"condition number {cond:.3e} exceeds bound {cond_bound:.1e}")
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    H[:n, :n] = h
    H[n:, n:] = np.conj(h)
    Hinv = np.zeros_like(H)
    hinv = np.linalg.inv(h)
    Hinv[:n, :n] = hinv
    Hinv[n:, n:] = np.conj(hinv)
    new = np.einsum("pa,qb,pqr,cr->abc", Hinv, Hinv, mu.coeffs, H)
    return LieBracket(symmetrize_bracket(new, n), validate=False)


def bracket_norm_sq(mu: LieBracket) -> float:
    """<mu, mu> summed over ordered real-basis pairs, {E_i} orthonormal."""
    c = mu.real_structure()
    return float(np.sum(c * c))


def principal_angles(a: Subspace | np.ndarray, b: Subspace | np.ndarray) -> np.ndarray:
    """Principal angles between two subspaces given by (orthonormal) bases.

    Angles come in descending order.  The algorithm is the one of
    ``scipy.linalg.subspace_angles`` (Knyazev & Argentati, SIAM J. Sci.
    Comput. 23 (2002)): orthonormalize both bases by SVD, take the singular
    values sigma of Qa^H Qb as cosines, and for every angle whose cosine has
    sigma^2 >= 1/2 take the arcsine of the matching singular value of the
    residual instead, which stays accurate for tiny angles where arccos of
    a cosine saturates around 1e-8.  scipy indexes that mask by descending
    cosine against angles in descending order, so when some angles lie
    above pi/4 and some below it takes the ill-conditioned branch for both
    kinds; here each angle takes its own well-conditioned branch.
    """
    qa = a.basis if isinstance(a, Subspace) else np.linalg.qr(np.asarray(a, dtype=complex))[0]
    qb = b.basis if isinstance(b, Subspace) else np.linalg.qr(np.asarray(b, dtype=complex))[0]
    qa, qb = _orth(qa), _orth(qb)
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


def _orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of a, by SVD (scipy.linalg.orth)."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(a.shape)
    return u[:, :int(np.sum(s > tol))]


def transform_subspace(h: np.ndarray, sub: Subspace) -> Subspace:
    """Image of a subspace under the complexified action of h in GL(n, C)."""
    n = h.shape[0]
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    H[:n, :n] = h
    H[n:, n:] = np.conj(h)
    img = H @ sub.basis
    q, _ = np.linalg.qr(img)
    return Subspace(basis=q, dim=sub.dim)


def from_real_structure(c_real: np.ndarray, J: np.ndarray, frame: np.ndarray | None = None):
    """Build a LieBracket from real structure constants and a complex structure.

    ``c_real[i, j, k]`` is the E_k-coefficient of [E_i, E_j] in the user's
    real basis and J is the matrix of the complex structure (J @ J = -I).
    ``frame``, if given, must hold the (1,0) frame vectors as columns in
    user real coordinates (complex entries); otherwise a deterministic
    frame is extracted from J by pivoted selection.

    Returns (LieBracket, frame) with the frame actually used.
    """
    c_real = np.asarray(c_real, dtype=float)
    J = np.asarray(J, dtype=float)
    m = c_real.shape[0]
    if c_real.shape != (m, m, m) or J.shape != (m, m) or m % 2:
        raise ValidationError("real structure constants and J have inconsistent shapes")
    if np.abs(J @ J + np.eye(m)).max() > 1e-10:
        raise ValidationError("J is not an almost complex structure (J^2 != -I)")
    n = m // 2
    if frame is None:
        # Candidate (1,0) vectors (u - i J u)/2 for standard basis u; keep a
        # maximal independent set chosen by column-pivoted QR.
        cand = 0.5 * (np.eye(m) - 1j * J)
        _, _, piv = _qr_pivoted(cand)
        frame = cand[:, piv[:n]]
    frame = np.asarray(frame, dtype=complex)
    if frame.shape != (m, n):
        raise ValidationError(f"frame must have shape ({m}, {n})")
    M = np.concatenate([frame, np.conj(frame)], axis=1)
    if np.linalg.cond(M) > 1e10:
        raise SingularTransformError("(1,0) frame is numerically degenerate")
    Minv = np.linalg.inv(M)
    coeffs = np.einsum("ia,jb,ijk,ck->abc", M, M, c_real.astype(complex), Minv)
    return LieBracket(symmetrize_bracket(coeffs, n), validate=False), frame


def export_real_structure(mu: LieBracket):
    """Real structure constants, J matrix and frame in the adapted basis.

    Round-trips exactly through ``from_real_structure``.
    """
    _, Sinv, J_real, _ = adapted_frame(mu.n)
    return mu.real_structure(), J_real.copy(), Sinv[:, : mu.n].copy()


def _qr_pivoted(a: np.ndarray):
    # scipy only here: LAPACK's tie-breaking among equal-norm pivots sets the frame
    import scipy.linalg

    return scipy.linalg.qr(a, pivoting=True)
