"""Built-in algebras with canonical seeds and closed-form solution oracles.

Every entry pins the complexified bracket tensor directly; the real
structure equations are recoverable through ``export_real_structure``.
Closed forms are attached as callables mapping (seed state, t) to the
exact state and each carries an ``applies_to`` predicate; they are
finite-difference checked against the flow ODEs in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import RejectionBudgetError, ValidationError
from .hermitian_forms import HermitianMetric, TamedForm, skt_defect
from .lie_core import LieBracket, act


@dataclass
class ClosedForm:
    evaluate: Callable  # (seed_state, t) -> state of the same shape
    applies_to: Callable  # seed_state -> bool


@dataclass
class CatalogEntry:
    name: str
    bracket: LieBracket
    default_metric: HermitianMetric
    default_tamed: TamedForm | None = None
    closed_forms: dict[str, ClosedForm] = field(default_factory=dict)
    tags: frozenset[str] = frozenset()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # every catalog bracket is judged here; the bracket keeps both defects
        if self.bracket.jacobi > 1e-12:
            raise ValidationError(f"catalog entry {self.name} violates Jacobi")
        if self.bracket.nijenhuis > 1e-12:
            raise ValidationError(f"catalog entry {self.name} is not integrable")


def _bracket_from_table(n: int, table: dict[tuple[int, int], dict[int, complex]]) -> LieBracket:
    c = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
    for (A, B), comps in table.items():
        for C, v in comps.items():
            c[A, B, C] = v
            c[B, A, C] = -v
    return LieBracket(c)


def heisenberg_kt() -> CatalogEntry:
    """The 4-dimensional nilpotent algebra h3 + R with its invariant complex
    structure; the unique nilpotent SKT example in real dimension four.

    The only nonzero bracket is mu(Z_1, Z_1bar) = -(Z_2 - Z_2bar)/2.
    """
    n = 2
    mu = _bracket_from_table(n, {(0, 2): {1: -0.5, 3: 0.5}})

    def metric_applies(G: np.ndarray) -> bool:
        return G.shape == (2, 2)

    def metric_law(G0: np.ndarray, t: float) -> np.ndarray:
        x0 = G0[0, 0].real
        y0 = G0[1, 1].real
        z0 = G0[0, 1]
        u0 = x0 * y0 - abs(z0) ** 2
        x = (np.sqrt(y0 ** 3 * t + u0 ** 2) + abs(z0) ** 2) / y0
        out = G0.copy()
        out[0, 0] = x
        return out

    def bracket_applies(coeffs: np.ndarray) -> bool:
        support = np.zeros_like(coeffs, dtype=bool)
        for (A, B) in ((0, 2), (2, 0)):
            support[A, B, 1] = support[A, B, 3] = True
        return bool(np.abs(coeffs[~support]).max() < 1e-12)

    def bracket_law(coeffs: np.ndarray, t: float) -> np.ndarray:
        z0 = coeffs[0, 2, 1]
        z = z0 / np.sqrt(1.0 + 4.0 * abs(z0) ** 2 * t)
        out = np.zeros_like(coeffs)
        out[0, 2, 1] = z
        out[0, 2, 3] = -np.conj(z)
        out[2, 0, 1] = -z
        out[2, 0, 3] = np.conj(z)
        return out

    return CatalogEntry(
        name="heisenberg_kt",
        bracket=mu,
        default_metric=HermitianMetric(np.eye(n)),
        closed_forms={
            "pluriclosed": ClosedForm(metric_law, metric_applies),
            "bracket": ClosedForm(bracket_law, bracket_applies),
        },
        tags=frozenset({"nilpotent", "skt"}),
    )


def inoue_s0(a: float = 1.0, b: float = 1.0) -> CatalogEntry:
    """Solvable algebra underlying Inoue surfaces of type S0.

    Brackets: mu(Z_1, Z_2) = lambda Z_1, mu(Z_1, Z_2bar) = -lambda Z_1 with
    lambda = (b + i a)/2, and mu(Z_2, Z_2bar) = a i (Z_2 + Z_2bar).
    """
    if a == 0 or b == 0:
        raise ValidationError("parameters a, b must be nonzero")
    n = 2
    lam = (b + 1j * a) / 2.0
    mu = _bracket_from_table(n, {
        (0, 1): {0: lam},
        (0, 3): {0: -lam},
        (2, 3): {2: np.conj(lam)},
        (2, 1): {2: -np.conj(lam)},
        (1, 3): {1: 1j * a, 3: 1j * a},
    })

    def applies(G: np.ndarray) -> bool:
        return abs(G[0, 1]) < 1e-14

    def law(G0: np.ndarray, t: float) -> np.ndarray:
        # with z = 0 the system freezes x and z and gives dy/dt = 3 a^2
        out = G0.copy()
        out[1, 1] = G0[1, 1].real + 3.0 * a * a * t
        return out

    return CatalogEntry(
        name="inoue_s0",
        bracket=mu,
        default_metric=HermitianMetric(np.eye(n)),
        closed_forms={"pluriclosed": ClosedForm(law, applies)},
        tags=frozenset({"solvable", "skt"}),
        params={"a": a, "b": b},
    )


def solvable_2414() -> CatalogEntry:
    """Solvable algebra with real structure equations (24, -14, 0, 0) and
    J e_1 = e_2, J e_3 = e_4; carries a family of taming symplectic forms.

    Brackets: mu(Z_1, Z_2) = Z_1/2, mu(Z_1, Z_2bar) = -Z_1/2.
    """
    n = 2
    mu = _bracket_from_table(n, {
        (0, 1): {0: 0.5},
        (0, 3): {0: -0.5},
        (2, 3): {2: 0.5},
        (2, 1): {2: -0.5},
    })
    x0 = y0 = 1.0
    z0 = 0.3
    tamed = TamedForm(
        HermitianMetric(np.array([[x0 ** 2, z0], [np.conj(z0), y0 ** 2]])),
        np.array([[0.0, 1j * z0], [-1j * z0, 0.0]]),
    )

    def applies(state) -> bool:
        G0, beta0 = state
        ok_shape = G0.shape == (2, 2)
        w = beta0[0, 1]
        return ok_shape and abs(w - 1j * G0[0, 1]) < 1e-12

    def law(state, t: float):
        G0, beta0 = state
        xx = G0[0, 0].real
        yy = G0[1, 1].real
        z_init = G0[0, 1]
        rho0 = abs(z_init)
        if rho0 < 1e-300:
            return G0.copy(), beta0.copy()

        def F(r: float) -> float:
            return r * r / (2.0 * xx) - yy * math.log(r)

        target = F(rho0) + t / 4.0
        lo = max(rho0 * math.exp(-(target - F(rho0) + 1.0) / yy), math.ulp(0.0))
        while lo > 0.0 and F(lo) < target:
            lo *= 0.5
        # lo = 0: the radius is below the smallest positive float
        rho = _hs_radius(F, xx, yy, target, lo, rho0) if lo > 0.0 else 0.0
        z = z_init / rho0 * rho
        G = G0.copy()
        G[0, 1] = z
        G[1, 0] = np.conj(z)
        beta = np.array([[0.0, 1j * z], [-1j * z, 0.0]])
        return G, beta

    return CatalogEntry(
        name="solvable_2414",
        bracket=mu,
        default_metric=HermitianMetric(np.array([[x0 ** 2, z0], [np.conj(z0), y0 ** 2]])),
        default_tamed=tamed,
        closed_forms={"hs": ClosedForm(law, applies)},
        tags=frozenset({"solvable", "tamed-symplectic"}),
    )


def _hs_radius(F: Callable, x: float, y: float, target: float, lo: float, hi: float) -> float:
    """The r in [lo, hi] with F(r) = r^2/(2x) - y ln r = target, F(lo) >= target >= F(hi).

    F is decreasing and convex in u = ln r on the bracket (r^2 < x y), so
    Newton steps in u converge quickly.  A Newton point outside the bracket
    (or none, where rounding leaves no negative slope) is replaced by the
    midpoint in u, and one that rounds back to r by the adjacent float
    toward the root.  Every evaluated point narrows the bracket, which ends
    as an exact root or two adjacent floats, of which the one with the
    smaller residual is returned.
    """
    r = hi
    while True:
        g = F(r) - target
        if g == 0.0:
            return r
        if g > 0.0:
            lo = r
        else:
            hi = r
        if math.nextafter(lo, hi) == hi:
            return lo if F(lo) - target <= target - F(hi) else hi
        slope = r * r / x - y   # dF/du, negative where F decreases
        nxt = r * math.exp(min(-g / slope, 700.0)) if slope < 0.0 else math.nan
        if nxt == r:
            nxt = math.nextafter(r, hi if g > 0.0 else lo)
        if not lo < nxt < hi:
            nxt = math.sqrt(lo) * math.sqrt(hi)
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
        r = nxt


def torus(n: int) -> CatalogEntry:
    """Abelian algebra: the flat Kaehler torus; every flow is constant."""
    if n < 1:
        raise ValidationError("torus needs n >= 1")
    mu = LieBracket(np.zeros((2 * n, 2 * n, 2 * n), dtype=complex), validate=False)
    tamed = None
    if n >= 2:
        beta = np.zeros((n, n), dtype=complex)
        beta[0, 1] = 1.0
        beta[1, 0] = -1.0
        tamed = TamedForm(HermitianMetric(np.eye(n)), beta)
    const_metric = ClosedForm(lambda G0, t: G0.copy(), lambda G0: True)
    const_bracket = ClosedForm(lambda c0, t: c0.copy(), lambda c0: True)
    const_tamed = ClosedForm(lambda st, t: (st[0].copy(), st[1].copy()), lambda st: True)
    tags = {"nilpotent", "abelian", "skt", "kahler"}
    if n >= 2:
        tags.add("tamed-symplectic")
    return CatalogEntry(
        name="torus",
        bracket=mu,
        default_metric=HermitianMetric(np.eye(n)),
        default_tamed=tamed,
        closed_forms={"pluriclosed": const_metric, "bracket": const_bracket,
                      "hs": const_tamed},
        tags=frozenset(tags),
        params={"n": n},
    )


def random_2step_skt(n: int, seed: int) -> CatalogEntry:
    """Random 2-step nilpotent SKT bracket with J-invariant center.

    Construction: the designated center is the last complex direction e;
    the mixed bracket block is a Hermitian rank-one matrix V = lambda w w*,
    giving mu(Z_a, Z_cbar) = V[a, c] (Z_e - Z_ebar) with no (1,0)x(1,0)
    component.  Such brackets satisfy Jacobi, integrability and the
    pluriclosed condition for the standard metric identically; a final
    random unitary change of frame adds genericity without breaking any
    of those.  A draw is redrawn unless its SKT defect at the standard
    metric is below 1e-10 and its largest coefficient above 1e-3; Jacobi
    and integrability are judged by ``CatalogEntry``, against 1e-12.
    """
    if n < 2:
        raise ValidationError("random_2step_skt needs n >= 2")
    rng = np.random.default_rng(seed)
    k = n - 1
    budget = 64
    for _ in range(budget):
        w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        lam = rng.standard_normal()
        V = lam * np.outer(w, w.conj())
        coeffs = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
        coeffs[:k, n:n + k, k] = V
        coeffs[:k, n:n + k, n + k] = -np.conj(V.T)
        # V and -conj(V.T) make this exactly antisymmetric and real-symmetric
        mu = LieBracket(coeffs - coeffs.transpose(1, 0, 2), validate=False)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mu = act(q, mu)
        g0 = HermitianMetric(np.eye(n))
        if skt_defect(mu, g0) < 1e-10 and np.abs(mu.coeffs).max() > 1e-3:
            return CatalogEntry(
                name="random_2step_skt",
                bracket=mu,
                default_metric=g0,
                tags=frozenset({"nilpotent", "skt", "random"}),
                params={"n": n, "seed": seed},
            )
    raise RejectionBudgetError(f"no admissible sample within {budget} draws")


_BUILDERS: dict[str, Callable[..., CatalogEntry]] = {
    "heisenberg_kt": heisenberg_kt,
    "inoue_s0": inoue_s0,
    "solvable_2414": solvable_2414,
    "torus": torus,
    "random_2step_skt": random_2step_skt,
}


def names() -> list[str]:
    return sorted(_BUILDERS)


def get(name: str, **params) -> CatalogEntry:
    if name not in _BUILDERS:
        raise ValidationError(f"unknown catalog entry {name!r}; known: {', '.join(names())}")
    return _BUILDERS[name](**params)
