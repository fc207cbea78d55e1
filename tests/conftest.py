"""Shared fixtures and independent brute-force oracles.

The oracles here are deliberately written as plain python loops over the
defining formulas, independent of the vectorized library paths they check.
"""

import itertools
import math

import numpy as np
import pytest

from pluriflow import catalog
from pluriflow.hermitian_forms import (
    HermitianMetric,
    d_mu,
    form_inner,
    fundamental_form,
    gram_real,
)
from pluriflow.lie_core import LieBracket, adapted_frame, standard_j_diag, symmetrize_bracket


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


def assert_form_close(a, b, tol=1e-12, scale=1.0):
    diff = np.abs(np.asarray(a) - np.asarray(b)).max()
    assert diff <= tol * scale, f"forms differ by {diff:.3e}"


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
    alt = sum(np.sign(np.prod([q - p for p, q in itertools.combinations(perm, 2)]))
              * W.transpose(perm) for perm in itertools.permutations(range(r - 1)))
    return _to_frame(-alt / (2 * math.factorial(r - 2)), Uinv)
