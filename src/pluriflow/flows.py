"""ODE integration of the pluriclosed, bracket and Hermitian-symplectic flows.

All right-hand sides derive from one contract: the Hermitian coefficients
evolve by dg/dt = -(rho_B)^{1,1} and the (2,0) coefficients of a tamed
form by dbeta/dt = -(rho_B)^{2,0}.  The bracket flow is
dmu/dt = (1/2) delta_mu(P_mu) with P_mu read off rho_B at the standard
metric, and the gauge curve solves dh/dt = -(1/2) P_mu h from h = I.
Each right-hand side reads one ``bismut_ricci.rho_tensor`` per call.

The Hermitian-symplectic flow is the pluriclosed flow carrying beta, as the
gauged bracket flow is the bracket flow carrying h: ``_metric_field`` takes
the (1,1) block of the tensor and, with beta, its (2,0) block, and both
metric flows run through ``_metric_flow``.  So there are two state classes,
``MetricState(g, beta=None)`` and ``BracketState(mu, h=None)``; their
fields, in order, are the state columns of a trajectory CSV.

All three flows integrate with the Dormand-Prince 5(4) embedded pair
(Dormand & Prince, J. Comput. Appl. Math. 6 (1980)) with FSAL: the last
stage of an accepted step is the first stage of the next, so a step costs
6 evaluations of the field.  The work is split in two.  ``step`` is one
trial step: the six new stages, the projected 5th-order solution with its
field value, and the embedded error estimate.  ``_integrate`` is the
controller around it and makes every trial step through ``step``.  Its
first step is dt, no step is longer than sample_every * dt, and steps are
clipped to land exactly on the sample times k * dt of the grid.  A step is
accepted when its error estimate, relative to the state norm, is at most
error_target / 10; the run ends as ``step_rejected`` when the controller
asks for a step below dt * 2**-max_halvings.  Hermitian or bracket
symmetry is restored by exact symmetrization of every accepted state, and
the positivity floor is checked on accepted states.  A field value may
overflow on the way to a rejected step, the first one included; that is
the controller's business, so it raises no numpy warning.

The module holds the flows and nothing that only a check of them needs:
the metric/bracket equivalence check, the decay calibration of kappa and
the backward existence probe live in ``tests/conftest.py`` and drive
``_integrate`` and ``_metric_flow`` (whose ``direction`` reverses the
field) directly.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, ClassVar, Mapping

import numpy as np

from .errors import ValidationError
from .hermitian_forms import (
    HermitianMetric,
    TamedForm,
    closedness_defect,
    codifferential,
    d_mu,
    fundamental_form,
    skt_defect,
    taming_margin,
)
from .bismut_ricci import p_of_bracket, p_of_metric, rho11_matrix, rho_B, rho_tensor
from .lie_core import (
    LieBracket,
    bracket_norm_sq,
    center,
    complexify,
    nilpotency_step,
    principal_angles,
    symmetrize_bracket,
)


@dataclass
class MetricState:
    g: HermitianMetric
    beta: np.ndarray | None = None      # (2,0) coefficients, Hermitian-symplectic flow only


@dataclass
class BracketState:
    mu: LieBracket
    h: np.ndarray | None = None         # gauge, gauged bracket flow only


@dataclass
class IntegratorConfig:
    dt: float = 1e-3                    # first step and sample-grid spacing
    t_end: float = 10.0
    sample_every: int = 100             # sample every this many dt; also the largest step
    positivity_floor: float = 1e-8      # relative to the initial minimum eigenvalue
    error_target: float = 1e-9          # a step is accepted at relative error <= error_target / 10
    max_halvings: int = 16              # smallest step dt * 2**-max_halvings
    defect_tolerances: ClassVar[Mapping[str, float]] = MappingProxyType({
        "skt_defect": 1e-8,
        "closedness_defect": 1e-8,
        "center_principal_angle": 1e-8,
    })

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (
                self.dt, self.t_end, self.positivity_floor, self.error_target)):
            raise ValidationError(
                "dt, t_end, positivity_floor and error_target must be finite and positive")
        if not (type(self.sample_every) is type(self.max_halvings) is int
                and self.sample_every >= 1 and self.max_halvings >= 0):
            raise ValidationError("sample_every and max_halvings must be integers >= 1 and >= 0")
        if math.ldexp(self.dt, -self.max_halvings) == 0.0:
            raise ValidationError("the smallest step dt * 2**-max_halvings underflows to 0")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1
                and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ValidationError("t_end must be a whole number >= 1 of dt steps")


@dataclass
class FlowTrajectory:
    kind: str
    times: list[float] = field(default_factory=list)
    states: list = field(default_factory=list)
    monitors: dict[str, list[float]] = field(default_factory=dict)
    termination: str = "reached_t_end"
    stats: dict = field(default_factory=dict)   # rhs_calls, accepted_steps, rejected_steps

    def record(self, t: float, state, channels: dict[str, float]) -> None:
        self.times.append(t)
        self.states.append(state)
        for name, value in channels.items():
            self.monitors.setdefault(name, []).append(float(value))

    def monitor_max(self, name: str) -> float:
        """Largest value of a channel; NaN if any value is NaN or there is none."""
        return float(np.max(self.monitors[name])) if self.monitors.get(name) else float("nan")

    def final_state(self):
        return self.states[-1]


# Dormand-Prince 5(4): the stage rows of the Butcher tableau, whose last row
# is the 5th-order solution (its field value is the next step's first stage),
# and the 5th-order weights minus the embedded 4th-order ones.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _combine(weights: tuple, ks: list) -> np.ndarray:
    return sum(w * k for w, k in zip(weights, ks) if w)


def step(f: Callable, y: np.ndarray, h: float, k1: np.ndarray,
         project: Callable) -> tuple[np.ndarray, np.ndarray, float]:
    """One Dormand-Prince 5(4) trial step of size h from y, where k1 = f(y).

    Returns the 5th-order solution passed through ``project``, its field
    value (the first stage of the next step) and the embedded error
    estimate relative to the state norm, inf when that norm is not finite.
    Costs 6 evaluations of f.
    """
    # trial stages may overflow; a non-finite estimate rejects the step
    with np.errstate(over="ignore", invalid="ignore"):
        ks = [k1]
        for row in _DP_A[:-1]:
            ks.append(f(y + h * _combine(row, ks)))
        y_new = project(y + h * _combine(_DP_A[-1], ks))
        ks.append(f(y_new))
        scale = max(float(np.linalg.norm(y)), float(np.linalg.norm(y_new)), 1e-30)
        err = h * float(np.linalg.norm(_combine(_DP_E, ks))) / scale
    if not np.isfinite(scale):
        err = np.inf
    return y_new, ks[-1], err


def _integrate(field: Callable, y0: np.ndarray, project: Callable,
               guard: Callable | None, record: Callable,
               cfg: IntegratorConfig) -> tuple[str, dict]:
    """Integrate y' = field(y) from y0, calling record(t, y) at every sample.

    Samples are taken at t = k * dt for each multiple k of sample_every up to
    round(t_end / dt), and at that last grid point.  Accepted states pass
    through ``project``; an accepted state with ``guard(y)`` true is recorded
    and ends the run at the positivity floor.  When the controller asks for
    a step below dt * 2**-max_halvings, the last accepted state is recorded
    (unless it is a sample already) and the run ends as ``step_rejected``.
    Returns the termination cause and the run's counters.
    """
    nsteps = int(round(cfg.t_end / cfg.dt))
    grid = itertools.chain(range(cfg.sample_every, nsteps + 1, cfg.sample_every),
                           [nsteps] if nsteps % cfg.sample_every else [])
    h_max = cfg.sample_every * cfg.dt
    h_min = math.ldexp(cfg.dt, -cfg.max_halvings)
    target = cfg.error_target / 10.0
    stats = {"rhs_calls": 1, "accepted_steps": 0, "rejected_steps": 0}

    t = t_recorded = 0.0
    y, h = y0, cfg.dt
    record(t, y)
    with np.errstate(over="ignore", invalid="ignore"):   # as in ``step``
        k1 = field(y)
    for k in grid:
        t_sample = k * cfg.dt
        while t < t_sample:
            # stretch a step by up to 1% rather than leave a sliver before the sample
            land = t + 1.01 * h >= t_sample
            hs = t_sample - t if land else h
            y_new, k_new, err = step(field, y, hs, k1, project)
            stats["rhs_calls"] += 6
            if err <= target:
                stats["accepted_steps"] += 1
                t = t_sample if land else t + hs
                y, k1 = y_new, k_new
                if guard is not None and guard(y):
                    record(t, y)
                    return "positivity_floor", stats
                proposed = hs * (5.0 if err == 0.0 else min(5.0, 0.9 * (target / err) ** 0.2))
                # a step shortened to land on a sample says nothing against h
                h = min(h_max, max(proposed, h) if land else proposed)
            else:
                stats["rejected_steps"] += 1
                h = hs * (max(0.2, 0.9 * (target / err) ** 0.2) if np.isfinite(err) else 0.2)
                if h < h_min:
                    if t > t_recorded:
                        record(t, y)
                    return "step_rejected", stats
        record(t, y)
        t_recorded = t
    return "reached_t_end", stats


def _metric_field(mu: LieBracket, with_beta: bool) -> Callable:
    """dG/dt = -(rho_B)^{1,1}; with beta, also dbeta/dt = -(rho_B)^{2,0}."""
    coeffs, n, nsq = mu.coeffs, mu.n, mu.n ** 2

    def f(y: np.ndarray) -> np.ndarray:
        G = y[:nsq].reshape(n, n)
        R = rho_tensor(coeffs, G, np.linalg.inv(G))
        dG = -(1j * R[:n, n:]).reshape(-1)
        return np.concatenate([dG, -R[:n, :n].reshape(-1)]) if with_beta else dG

    return f


def _hermitize(G: np.ndarray) -> np.ndarray:
    return 0.5 * (G + G.conj().T)


def _metric_flow(kind: str, mu0: LieBracket, g0: HermitianMetric, beta0: np.ndarray | None,
                 channels: Callable, cfg: IntegratorConfig,
                 direction: float = 1.0) -> FlowTrajectory:
    """Integrate the metric field from g0, carrying beta when beta0 is given.

    Each sample is one ``MetricState``, recorded with its smallest eigenvalue
    as ``min_eigenvalue`` and then ``channels(state)``.  Accepted states are
    Hermitized (beta antisymmetrized); the run stops at the positivity floor,
    positivity_floor times the smallest eigenvalue of g0.  Every row after
    the first records a state the guard has just seen, so its
    ``min_eigenvalue`` is the guard's.  ``direction`` -1.0 integrates the
    reversed field.
    """
    n, nsq = mu0.n, mu0.n ** 2
    with_beta = beta0 is not None
    base = _metric_field(mu0, with_beta)
    f = base if direction > 0 else (lambda y: -base(y))
    parts = (g0.matrix,) if beta0 is None else (g0.matrix, beta0)
    y0 = np.concatenate([p.reshape(-1) for p in parts])
    lam = [g0.min_eigenvalue()]   # smallest eigenvalue of the last state the guard saw
    floor = cfg.positivity_floor * lam[0]
    traj = FlowTrajectory(kind=kind)

    def project(y: np.ndarray) -> np.ndarray:
        G = _hermitize(y[:nsq].reshape(n, n)).reshape(-1)
        if not with_beta:
            return G
        beta = y[nsq:].reshape(n, n)
        return np.concatenate([G, (0.5 * (beta - beta.T)).reshape(-1)])

    def guard(y: np.ndarray) -> bool:
        lam[0] = float(np.linalg.eigvalsh(y[:nsq].reshape(n, n)).min())
        return lam[0] <= floor

    def record(t: float, y: np.ndarray) -> None:
        beta = y[nsq:].reshape(n, n).copy() if with_beta else None
        state = MetricState(HermitianMetric(y[:nsq].reshape(n, n), validate=False), beta)
        traj.record(t, state, {"min_eigenvalue": lam[0], **channels(state)})

    traj.termination, traj.stats = _integrate(f, y0, project, guard, record, cfg)
    return traj


def pluriclosed_flow(mu0: LieBracket, g0: HermitianMetric,
                     cfg: IntegratorConfig) -> FlowTrajectory:
    """Integrate dg/dt = -(rho_B)^{1,1} with the bracket held fixed."""
    if g0.n != mu0.n:
        raise ValidationError("metric dimension does not match the bracket")
    skt0 = skt_defect(mu0, g0)
    if skt0 > cfg.defect_tolerances["skt_defect"]:
        warnings.warn(f"seed is not pluriclosed (defect {skt0:.3e}); integrating anyway")
    two_step = (nilpotency_step(mu0) or 99) <= 2

    def channels(state: MetricState) -> dict[str, float]:
        g = state.g
        ch = {"skt_defect": skt_defect(mu0, g)}
        if two_step:
            ddstar = d_mu(mu0, codifferential(mu0, g, fundamental_form(g)))
            ch["reduction_defect"] = (rho_B(mu0, g) + ddstar).bidegree_part(1, 1).max_norm()
        return ch

    return _metric_flow("pluriclosed", mu0, g0, None, channels, cfg)


def _bracket_field(n: int, with_gauge: bool) -> Callable:
    size_mu = (2 * n) ** 3
    identity = np.eye(n, dtype=complex)   # the standard metric, its own inverse

    def f(y: np.ndarray) -> np.ndarray:
        coeffs = y[:size_mu].reshape(2 * n, 2 * n, 2 * n)
        Pc = rho11_matrix(coeffs, identity, identity).T
        dmu = 0.5 * delta_mu(coeffs, complexify(Pc))
        if not with_gauge:
            return dmu.reshape(-1)
        h = y[size_mu:].reshape(n, n)
        dh = -0.5 * Pc @ h
        return np.concatenate([dmu.reshape(-1), dh.reshape(-1)])

    return f


def delta_mu(coeffs: np.ndarray, A: np.ndarray) -> np.ndarray:
    """delta_mu(A) = mu(A., .) + mu(., A.) - A mu(., .), complexified action.

    In coefficients A_da c_dbc + A_db c_adc - c_abd A_cd, as three matrix
    products.
    """
    m = coeffs.shape[0]
    At = A.T
    return (At @ coeffs.reshape(m, m * m)).reshape(m, m, m) + At @ coeffs - coeffs @ At


def bracket_flow(mu0: LieBracket, cfg: IntegratorConfig,
                 with_gauge: bool = False) -> FlowTrajectory:
    """Integrate dmu/dt = (1/2) delta_mu(P_mu); optionally co-integrate h(t).

    Each sample is one ``LieBracket`` whose Jacobi and Nijenhuis defects
    are recorded; a state that has drifted past ``INTEGRABILITY_TOL`` raises
    the ``IntegrabilityError`` of ``skt_defect``.
    """
    n = mu0.n
    size_mu = (2 * n) ** 3
    f = _bracket_field(n, with_gauge)
    xi0 = center(mu0)
    g0 = HermitianMetric(np.eye(n))
    traj = FlowTrajectory(kind="bracket_gauged" if with_gauge else "bracket")

    def channels(mu: LieBracket) -> dict[str, float]:
        ch = {
            "bracket_norm_sq": bracket_norm_sq(mu),
            "jacobi_defect": mu.jacobi,
            "nijenhuis_defect": mu.nijenhuis,
            "skt_defect": skt_defect(mu, g0),
        }
        xi = center(mu)
        if xi.shape[1] != xi0.shape[1]:
            ch["center_principal_angle"] = float(np.pi / 2.0)
        elif xi.shape[1] in (0, 2 * n):
            ch["center_principal_angle"] = 0.0
        else:
            ch["center_principal_angle"] = float(principal_angles(xi, xi0).max())
        return ch

    def gauge_channel(state: BracketState) -> float:
        h = state.h
        Pmu = p_of_bracket(state.mu)
        Pw = p_of_metric(mu0, HermitianMetric((h.conj().T @ h).T, validate=False))
        conj = h @ Pw @ np.linalg.inv(h)
        denom = max(np.abs(Pmu).max(), 1e-12)
        return float(np.abs(Pmu - conj).max() / denom)

    def project(y: np.ndarray) -> np.ndarray:
        coeffs = symmetrize_bracket(y[:size_mu].reshape(2 * n, 2 * n, 2 * n), n)
        return np.concatenate([coeffs.reshape(-1), y[size_mu:]])

    def record(t: float, y: np.ndarray) -> None:
        mu = LieBracket(y[:size_mu].reshape(2 * n, 2 * n, 2 * n), validate=False)
        state = BracketState(mu, y[size_mu:].reshape(n, n).copy() if with_gauge else None)
        ch = channels(state.mu)
        if with_gauge:
            ch["gauge_defect"] = gauge_channel(state)
        traj.record(t, state, ch)

    y0 = mu0.coeffs.reshape(-1).copy()
    if with_gauge:
        y0 = np.concatenate([y0, np.eye(n, dtype=complex).reshape(-1)])
    traj.termination, traj.stats = _integrate(f, y0, project, None, record, cfg)
    return traj


def hs_flow(mu0: LieBracket, Omega0: TamedForm, cfg: IntegratorConfig) -> FlowTrajectory:
    """Evolve a taming 2-form: the (1,1) part by the pluriclosed flow of its
    metric, the (2,0) part by dbeta/dt = -(rho_B)^{2,0}.

    A non-closed seed only triggers a warning: d Omega(t) stays constant
    along the flow either way (the drift is monitored), and non-torus
    nilpotent algebras admit no closed taming form at all.  A seed that
    fails to tame the complex structure is fatal.  Taming cannot be lost
    later without tripping the positivity floor first: the taming margin
    equals the smallest eigenvalue of the metric, so ``taming_margin``
    repeats ``min_eigenvalue``.
    """
    defect0 = closedness_defect(mu0, Omega0)
    if defect0 > cfg.defect_tolerances["closedness_defect"]:
        warnings.warn(f"seed form is not closed (defect {defect0:.3e}); "
                      "monitoring the drift of d Omega instead")
    if taming_margin(Omega0) <= 0:
        raise ValidationError("seed form does not tame the complex structure")

    def channels(state: MetricState) -> dict[str, float]:
        tf = TamedForm(state.g, state.beta)
        defect = closedness_defect(mu0, tf)
        return {
            "closedness_defect": defect,
            "closedness_drift": abs(defect - defect0),
            "taming_margin": taming_margin(tf),
        }

    return _metric_flow("hs", mu0, Omega0.omega, Omega0.beta, channels, cfg)
