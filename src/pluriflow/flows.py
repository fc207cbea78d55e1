"""ODE integration of the pluriclosed, bracket and Hermitian-symplectic flows.

All right-hand sides derive from one contract: the Hermitian coefficients
evolve by dg/dt = -(rho_B)^{1,1} and the (2,0) coefficients of a tamed
form by dbeta/dt = -(rho_B)^{2,0}.  The bracket flow is
dmu/dt = (1/2) delta_mu(P_mu) with P_mu read off rho_B at the standard
metric, and the gauge curve solves dh/dt = -(1/2) P_mu h from h = I.

All three flows run through one driver, ``_integrate``: the Dormand-Prince
5(4) embedded pair with FSAL (the last stage of an accepted step is the
first stage of the next, so a step costs 6 evaluations of the field).  The
first step is dt, no step is longer than sample_every * dt, and steps are
clipped to land exactly on the sample times k * dt of the grid.  A step is
accepted when its embedded error estimate, relative to the state norm, is
at most error_target / 10; the run ends as ``step_rejected`` when the
controller asks for a step below dt * 2**-max_halvings.  Hermitian or
bracket symmetry is restored by exact symmetrization of every accepted
state, and the positivity floor is checked on accepted states.  ``step``,
the fixed-dt RK4 step-doubling method, is kept as the reference the tests
compare against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridMismatchError, StepRejectedError, ValidationError
from .hermitian_forms import (
    HermitianMetric,
    TamedForm,
    closedness_defect,
    codifferential,
    d_mu,
    fundamental_form,
    taming_margin,
)
from .bismut_ricci import (
    eta_vector,
    p_of_bracket,
    p_of_metric,
    rho11_from_eta,
    rho20_from_eta,
    rho_tensor,
)
from .lie_core import (
    LieBracket,
    center,
    jacobi_defect,
    nijenhuis_defect,
    nilpotency_step,
    principal_angles,
    symmetrize_bracket,
)


@dataclass
class MetricState:
    g: HermitianMetric


@dataclass
class BracketState:
    mu: LieBracket


@dataclass
class BracketWithGaugeState:
    mu: LieBracket
    h: np.ndarray


@dataclass
class TamedState:
    g: HermitianMetric
    beta: np.ndarray


@dataclass
class IntegratorConfig:
    dt: float = 1e-3                    # first step and sample-grid spacing
    t_end: float = 10.0
    sample_every: int = 100             # sample every this many dt; also the largest step
    positivity_floor: float = 1e-8      # relative to the initial minimum eigenvalue
    error_target: float = 1e-9          # a step is accepted at relative error <= error_target / 10
    max_halvings: int = 16              # smallest step dt * 2**-max_halvings
    defect_tolerances: dict = field(default_factory=lambda: {
        "skt_defect": 1e-8,
        "closedness_defect": 1e-8,
        "center_principal_angle": 1e-8,
    })

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0 or self.sample_every < 1:
            raise ValidationError("dt, t_end must be positive and sample_every >= 1")
        if self.positivity_floor <= 0:
            raise ValidationError("positivity_floor must be positive")


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


def _rk4(f: Callable, y: np.ndarray, dt: float, k1: np.ndarray) -> np.ndarray:
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(f: Callable, y: np.ndarray, dt: float, error_target: float = 1e-9,
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
    mid = step(f, y, 0.5 * dt, error_target, max_halvings, _depth + 1)
    return step(f, mid, 0.5 * dt, error_target, max_halvings, _depth + 1)


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
    grid = list(range(cfg.sample_every, nsteps + 1, cfg.sample_every))
    if nsteps % cfg.sample_every:
        grid.append(nsteps)
    h_max = cfg.sample_every * cfg.dt
    h_min = cfg.dt * 2.0 ** -cfg.max_halvings
    target = cfg.error_target / 10.0
    stats = {"rhs_calls": 1, "accepted_steps": 0, "rejected_steps": 0}

    t = t_recorded = 0.0
    y, h = y0, cfg.dt
    record(t, y)
    k1 = field(y)
    for k in grid:
        t_sample = k * cfg.dt
        while t < t_sample:
            # stretch a step by up to 1% rather than leave a sliver before the sample
            land = t + 1.01 * h >= t_sample
            hs = t_sample - t if land else h
            # trial stages may overflow; a non-finite estimate rejects the step
            with np.errstate(over="ignore", invalid="ignore"):
                ks = [k1]
                for row in _DP_A[:-1]:
                    ks.append(field(y + hs * _combine(row, ks)))
                y_new = project(y + hs * _combine(_DP_A[-1], ks))
                ks.append(field(y_new))
                scale = max(float(np.linalg.norm(y)), float(np.linalg.norm(y_new)), 1e-30)
                err = hs * float(np.linalg.norm(_combine(_DP_E, ks))) / scale
            if not np.isfinite(scale):
                err = np.inf
            stats["rhs_calls"] += 6
            if err <= target:
                stats["accepted_steps"] += 1
                t = t_sample if land else t + hs
                y, k1 = y_new, ks[-1]
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


def _pluriclosed_field(mu: LieBracket) -> Callable:
    """Right-hand side dG/dt = -(rho_B)^{1,1} with constant blocks hoisted."""
    n = mu.n
    coeffs = mu.coeffs
    trace = np.einsum("arr->a", coeffs[:n, :n, :n]).copy()
    # tensordot(Ginv, mixed, axes=([0, 1], [1, 0])) with its operand prepared once
    mixed_t = np.ascontiguousarray(coeffs[:n, n:, n:].transpose(1, 0, 2)).reshape(n * n, n)
    low_h = np.ascontiguousarray(coeffs[:n, n:, :n])
    low_a = np.ascontiguousarray(coeffs[:n, n:, n:])

    def f(gflat: np.ndarray) -> np.ndarray:
        G = gflat.reshape(n, n)
        Ginv = np.linalg.inv(G)
        t = np.dot(Ginv.reshape(1, n * n), mixed_t).reshape(n)
        eta_h = -1j * trace + 1j * (G @ t)
        rho_mixed = -(low_h @ eta_h + low_a @ np.conj(eta_h))
        return (-1j * rho_mixed).reshape(-1)

    return f


def _hermitize(G: np.ndarray) -> np.ndarray:
    return 0.5 * (G + G.conj().T)


def pluriclosed_flow(mu0: LieBracket, g0: HermitianMetric, cfg: IntegratorConfig,
                     direction: float = 1.0) -> FlowTrajectory:
    """Integrate dg/dt = -(rho_B)^{1,1} with the bracket held fixed."""
    from .hermitian_forms import skt_defect

    n = mu0.n
    if g0.n != n:
        raise ValidationError("metric dimension does not match the bracket")
    skt0 = skt_defect(mu0, g0)
    if skt0 > cfg.defect_tolerances.get("skt_defect", 1e-8):
        warnings.warn(f"seed is not pluriclosed (defect {skt0:.3e}); integrating anyway")
    two_step = (nilpotency_step(mu0) or 99) <= 2

    base = _pluriclosed_field(mu0)
    f = base if direction > 0 else (lambda y: -base(y))
    floor = cfg.positivity_floor * g0.min_eigenvalue()

    traj = FlowTrajectory(kind="pluriclosed")

    def channels(G: np.ndarray) -> dict[str, float]:
        gm = HermitianMetric(G, validate=False)
        ch = {
            "min_eigenvalue": float(np.linalg.eigvalsh(G).min()),
            "skt_defect": skt_defect(mu0, gm),
        }
        if two_step:
            omega = fundamental_form(gm)
            ddstar = d_mu(mu0, codifferential(mu0, gm, omega))
            rho11 = rho_tensor(mu0.coeffs, G)
            mask11 = np.zeros((2 * n, 2 * n))
            mask11[:n, n:] = 1.0
            mask11[n:, :n] = 1.0
            resid = (rho11 + ddstar.tensor) * mask11
            ch["reduction_defect"] = float(np.abs(resid).max())
        return ch

    def record(t: float, y: np.ndarray) -> None:
        G = y.reshape(n, n)
        traj.record(t, MetricState(HermitianMetric(G, validate=False)), channels(G))

    traj.termination, traj.stats = _integrate(
        f, g0.matrix.reshape(-1).copy(),
        project=lambda y: _hermitize(y.reshape(n, n)).reshape(-1),
        guard=lambda y: float(np.linalg.eigvalsh(y.reshape(n, n)).min()) <= floor,
        record=record, cfg=cfg)
    return traj


def _rho11_at_identity(coeffs: np.ndarray, n: int) -> np.ndarray:
    """``rho11_matrix(coeffs, I)``: at the standard metric eta needs no inverse."""
    e = (-1j * np.einsum("arr->a", coeffs[:n, :n, :n])
         + 1j * np.einsum("kka->a", coeffs[:n, n:, n:]))
    return rho11_from_eta(coeffs, np.concatenate([e, np.conj(e)]))


def _bracket_field(n: int, with_gauge: bool) -> Callable:
    size_mu = (2 * n) ** 3

    def f(y: np.ndarray) -> np.ndarray:
        coeffs = y[:size_mu].reshape(2 * n, 2 * n, 2 * n)
        Pc = _rho11_at_identity(coeffs, n).T
        Pfull = np.zeros((2 * n, 2 * n), dtype=complex)
        Pfull[:n, :n] = Pc
        Pfull[n:, n:] = np.conj(Pc)
        dmu = 0.5 * delta_mu(coeffs, Pfull)
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
    """Integrate dmu/dt = (1/2) delta_mu(P_mu); optionally co-integrate h(t)."""
    n = mu0.n
    size_mu = (2 * n) ** 3
    f = _bracket_field(n, with_gauge)
    xi0 = center(mu0)
    g0 = HermitianMetric(np.eye(n))
    from .hermitian_forms import skt_defect

    traj = FlowTrajectory(kind="bracket_gauged" if with_gauge else "bracket")

    def channels(coeffs: np.ndarray) -> dict[str, float]:
        mu = LieBracket(coeffs, validate=False)
        ch = {
            "bracket_norm_sq": float(np.sum(mu.real_structure() ** 2)),
            "jacobi_defect": jacobi_defect(mu),
            "nijenhuis_defect": nijenhuis_defect(mu),
            "skt_defect": skt_defect(mu, g0),
        }
        xi = center(mu)
        if xi.dim != xi0.dim:
            ch["center_principal_angle"] = float(np.pi / 2.0)
        elif xi.dim == 0 or xi.dim == 2 * n:
            ch["center_principal_angle"] = 0.0
        else:
            ch["center_principal_angle"] = float(principal_angles(xi, xi0).max())
        return ch

    def gauge_channel(coeffs: np.ndarray, h: np.ndarray) -> float:
        mu = LieBracket(coeffs, validate=False)
        Pmu = p_of_bracket(mu).matrix
        Gh = (h.conj().T @ h).T
        Pw = p_of_metric(mu0, HermitianMetric(Gh, validate=False)).matrix
        conj = h @ Pw @ np.linalg.inv(h)
        denom = max(np.abs(Pmu).max(), 1e-12)
        return float(np.abs(Pmu - conj).max() / denom)

    def project(y: np.ndarray) -> np.ndarray:
        coeffs = symmetrize_bracket(y[:size_mu].reshape(2 * n, 2 * n, 2 * n), n)
        return np.concatenate([coeffs.reshape(-1), y[size_mu:]])

    def record(t: float, y: np.ndarray) -> None:
        coeffs = y[:size_mu].reshape(2 * n, 2 * n, 2 * n)
        ch = channels(coeffs)
        if with_gauge:
            ch["gauge_defect"] = gauge_channel(coeffs, y[size_mu:].reshape(n, n))
        traj.record(t, _bracket_state(y, n, with_gauge), ch)

    y0 = mu0.coeffs.reshape(-1).copy()
    if with_gauge:
        y0 = np.concatenate([y0, np.eye(n, dtype=complex).reshape(-1)])
    traj.termination, traj.stats = _integrate(f, y0, project, None, record, cfg)
    return traj


def _bracket_state(y: np.ndarray, n: int, with_gauge: bool):
    size_mu = (2 * n) ** 3
    mu = LieBracket(y[:size_mu].reshape(2 * n, 2 * n, 2 * n).copy(), validate=False)
    if with_gauge:
        return BracketWithGaugeState(mu=mu, h=y[size_mu:].reshape(n, n).copy())
    return BracketState(mu=mu)


@dataclass
class EquivalenceReport:
    max_metric_defect: float
    max_bracket_defect: float


def equivalence_check(traj_metric: FlowTrajectory,
                      traj_bracket_gauged: FlowTrajectory) -> EquivalenceReport:
    """Compare omega(t) against omega_0(h., h.) and mu(t) against h . mu_0."""
    ta = np.asarray(traj_metric.times)
    tb = np.asarray(traj_bracket_gauged.times)
    if len(ta) != len(tb) or np.abs(ta - tb).max() > 1e-12:
        raise GridMismatchError("trajectories use different time grids")
    if not isinstance(traj_metric.states[0], MetricState):
        raise ValidationError("first trajectory must be a metric flow")
    if not isinstance(traj_bracket_gauged.states[0], BracketWithGaugeState):
        raise ValidationError("second trajectory must be a gauged bracket flow")

    from .lie_core import act

    mu0_coeffs = traj_bracket_gauged.states[0].mu.coeffs
    mu0 = LieBracket(mu0_coeffs, validate=False)
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


def _hs_field(mu: LieBracket) -> Callable:
    coeffs = mu.coeffs
    n = mu.n
    nsq = n * n

    def f(y: np.ndarray) -> np.ndarray:
        e = eta_vector(coeffs, y[:nsq].reshape(n, n))
        dG = -rho11_from_eta(coeffs, e)
        dbeta = -rho20_from_eta(coeffs, e)
        return np.concatenate([dG.reshape(-1), dbeta.reshape(-1)])

    return f


def hs_flow(mu0: LieBracket, Omega0: TamedForm, cfg: IntegratorConfig) -> FlowTrajectory:
    """Evolve a taming 2-form: the (1,1) part by the pluriclosed flow of its
    metric, the (2,0) part by dbeta/dt = -(rho_B)^{2,0}.

    A non-closed seed only triggers a warning: d Omega(t) stays constant
    along the flow either way (the drift is monitored), and non-torus
    nilpotent algebras admit no closed taming form at all.  A seed that
    fails to tame the complex structure is fatal.  Taming cannot be lost
    later without tripping the positivity floor first: the taming margin
    equals the smallest eigenvalue of the metric.
    """
    n = mu0.n
    rep0 = closedness_defect(mu0, Omega0)
    if rep0.defect > cfg.defect_tolerances.get("closedness_defect", 1e-8):
        warnings.warn(f"seed form is not closed (defect {rep0.defect:.3e}); "
                      "monitoring the drift of d Omega instead")
    if taming_margin(Omega0) <= 0:
        raise ValidationError("seed form does not tame the complex structure")

    f = _hs_field(mu0)
    floor = cfg.positivity_floor * Omega0.omega.min_eigenvalue()
    nsq = n * n
    traj = FlowTrajectory(kind="hs")

    def channels(G: np.ndarray, beta: np.ndarray) -> dict[str, float]:
        tf = TamedForm(HermitianMetric(G, validate=False), beta)
        rep = closedness_defect(mu0, tf)
        return {
            "min_eigenvalue": float(np.linalg.eigvalsh(G).min()),
            "closedness_defect": rep.defect,
            "closedness_drift": abs(rep.defect - rep0.defect),
            "taming_margin": taming_margin(tf),
        }

    def project(y: np.ndarray) -> np.ndarray:
        beta = y[nsq:].reshape(n, n)
        return np.concatenate([_hermitize(y[:nsq].reshape(n, n)).reshape(-1),
                               (0.5 * (beta - beta.T)).reshape(-1)])

    def record(t: float, y: np.ndarray) -> None:
        G = y[:nsq].reshape(n, n)
        beta = y[nsq:].reshape(n, n)
        traj.record(t, TamedState(HermitianMetric(G, validate=False), beta.copy()),
                    channels(G, beta))

    y0 = np.concatenate([Omega0.omega.matrix.reshape(-1), Omega0.beta.reshape(-1)])
    traj.termination, traj.stats = _integrate(
        f, y0, project,
        guard=lambda y: float(np.linalg.eigvalsh(y[:nsq].reshape(n, n)).min()) <= floor,
        record=record, cfg=cfg)
    return traj


def backward_existence_probe(mu0: LieBracket, g0: HermitianMetric,
                             cfg: IntegratorConfig) -> float:
    """Integrate the pluriclosed flow backwards until the positivity floor.

    Returns the (capped) backward time reached before losing positivity, a
    strictly positive empirical lower bound for the backward existence time.
    """
    traj = pluriclosed_flow(mu0, g0, cfg, direction=-1.0)
    return float(traj.times[-1]) if traj.times else 0.0


@dataclass
class CalibrationReport:
    kappa: float
    relative_spread: float
    samples: int
    bound_margin: float   # max over samples of d/dt||mu||^2 + (kappa/16) ||mu||^4
    per_run_kappa: list[float]


def decay_calibration(seeds: list[LieBracket], cfg: IntegratorConfig) -> CalibrationReport:
    """Estimate kappa in d/dt <mu, mu> = -kappa <P_mu, P_mu> along bracket flows.

    kappa is estimated by 5-point central finite differences of the sampled
    bracket norm; the decay bound d/dt||mu||^2 <= -(kappa/16) ||mu||^4 is then
    checked at every interior sample using the same estimates.
    """
    kappas: list[float] = []
    per_run: list[float] = []
    derivs: list[tuple[float, float]] = []  # (fd derivative, ||mu||^2) at samples
    fd = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    for mu0 in seeds:
        traj = bracket_flow(mu0, cfg, with_gauge=False)
        ts = np.asarray(traj.times)
        if len(ts) < 5:
            raise ValidationError("calibration needs at least five samples per run")
        dt = float(ts[1] - ts[0])
        if np.abs(np.diff(ts) - dt).max() > 1e-12:
            raise ValidationError("calibration requires a uniform sample grid")
        norms = np.asarray(traj.monitors["bracket_norm_sq"])
        pp = np.array([p_of_bracket(s.mu).frobenius_sq() for s in traj.states])
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
