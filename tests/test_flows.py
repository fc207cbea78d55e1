import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    GridMismatchError,
    StepRejectedError,
    abelian,
    backward_existence_probe,
    count_calls,
    count_defects,
    decay_calibration,
    equivalence_check,
    non_integrable_bracket,
    random_pd_metric,
    rk4_doubling_step,
)
from pluriflow import catalog, flows
from pluriflow.errors import IntegrabilityError, ValidationError
from pluriflow.flows import (
    IntegratorConfig,
    bracket_flow,
    hs_flow,
    pluriclosed_flow,
    step,
    _bracket_field,
    _hermitize,
    _integrate,
    _metric_field,
    _metric_flow,
)
from pluriflow.hermitian_forms import HermitianMetric, TamedForm, require_integrable, skt_defect
from pluriflow.lie_core import act, bracket_norm_sq, symmetrize_bracket


def fixed_step_run(field, y0, project, dt, nsteps, error_target=1e-9):
    """States after each of nsteps fixed steps of the RK4 step-doubling reference."""
    ys = [y0]
    for _ in range(nsteps):
        ys.append(project(rk4_doubling_step(field, ys[-1], dt, error_target)))
    return ys


def test_sample_grid_is_walked_lazily():
    # a million samples; the guard ends the run at the first accepted step, so
    # a grid built up front would be nearly all of the run's allocations
    cfg = IntegratorConfig(dt=1e-6, t_end=1.0, sample_every=1)
    tracemalloc.start()
    try:
        cause, stats = _integrate(lambda y: -y, np.ones(2), lambda y: y,
                                  lambda y: True, lambda t, y: None, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cause == "positivity_floor" and stats["accepted_steps"] == 1
    assert peak < 1 << 20, f"peak {peak / 1e6:.1f} MB"


def _rel(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / np.abs(np.asarray(b)).max())


def _symmetrize_flat(n):
    size_mu = (2 * n) ** 3

    def project(y):
        coeffs = symmetrize_bracket(y[:size_mu].reshape(2 * n, 2 * n, 2 * n), n)
        return np.concatenate([coeffs.reshape(-1), y[size_mu:]])

    return project


def test_step_zero_field_identity():
    y = np.array([1.0 + 2.0j, -0.5])
    out = rk4_doubling_step(lambda v: np.zeros_like(v), y, 0.1)
    assert np.array_equal(out, y)


def test_step_scalar_sqrt_law_order():
    # dx/dt = 1/(2x) has solution sqrt(1 + t); halving dt scales the global
    # error by about 2^-4
    def run(dt):
        y = np.array([1.0 + 0j])
        f = lambda v: 1.0 / (2.0 * v)
        t = 0.0
        while t < 1.0 - 1e-12:
            y = rk4_doubling_step(f, y, dt, error_target=1.0)  # force plain accept
            t += dt
        return abs(y[0] - np.sqrt(2.0))

    e1 = run(0.02)
    e2 = run(0.01)
    assert e1 / e2 > 8.0  # fourth order modulo constants


def test_step_shares_first_evaluation_bitwise(heisenberg):
    # an accepted step evaluates the field 11 times and returns exactly what
    # the literal RK4 doubling (12 evaluations) returns
    field = _metric_field(heisenberg.bracket, False)
    calls = []

    def f(v):
        calls.append(1)
        return field(v)

    def rk4(v, dt):
        k1 = field(v)
        k2 = field(v + 0.5 * dt * k1)
        k3 = field(v + 0.5 * dt * k2)
        k4 = field(v + dt * k3)
        return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    y = np.array([[1.3, 0.2 - 0.4j], [0.2 + 0.4j, 0.8]], dtype=complex).reshape(-1)
    for dt in (1e-3, 1e-2):
        calls.clear()
        out = rk4_doubling_step(f, y, dt)
        assert len(calls) == 11
        assert np.array_equal(out, rk4(rk4(y, 0.5 * dt), 0.5 * dt))


def test_step_rejects_on_singularity():
    f = lambda v: -1.0 / (2.0 * v)  # blows up when v reaches 0
    y = np.array([0.05 + 0j])
    with pytest.raises(StepRejectedError):
        for _ in range(100):
            y = rk4_doubling_step(f, y, 0.05, error_target=1e-12, max_halvings=4)


def _identity(v):
    return v


def test_step_is_dormand_prince_on_linear_field():
    # on y' = lam y one trial step multiplies y by the stability polynomial of
    # Dormand-Prince 5(4) at z = h lam, in 6 field calls, and hands back
    # f(y_new) as the next step's first stage
    lam = np.array([-1.3 + 0.4j, 0.7, -2.0j, -5.0])
    calls = []

    def f(v):
        calls.append(1)
        return lam * v

    y = np.array([1.0 + 0.5j, -0.3, 2.0, 0.8])
    for h in (0.2, 0.05, 0.0125):
        z = h * lam
        R = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24 + z ** 5 / 120 + z ** 6 / 600
        k1 = lam * y
        calls.clear()
        y_new, k_new, err = step(f, y, h, k1, _identity)
        assert len(calls) == 6
        assert np.abs(y_new - R * y).max() <= 1e-15
        assert np.array_equal(k_new, lam * y_new)
        assert 0.0 < err < np.inf


def test_step_zero_field_returns_state_with_zero_error():
    y = np.array([1.0 + 2.0j, -0.5])
    zero = np.zeros_like(y)
    y_new, k_new, err = step(lambda v: np.zeros_like(v), y, 0.1, zero, _identity)
    assert np.array_equal(y_new, y) and np.array_equal(k_new, zero) and err == 0.0


def test_step_error_estimate_is_fifth_order():
    # the embedded estimate is the local error of the 4th-order solution, O(h^5)
    f = lambda v: 1.0 / (2.0 * v)
    y = np.array([1.0 + 0j])
    errs = [step(f, y, h, f(y), _identity)[2] for h in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 28.0 < coarse / fine < 38.0


@pytest.mark.parametrize("settings", [
    pytest.param({"dt": -1.0}, id="dt_negative"),
    pytest.param({"sample_every": 0}, id="sample_every_zero"),
    pytest.param({"dt": float("nan")}, id="dt_nan"),
    pytest.param({"t_end": float("inf")}, id="t_end_inf"),
    pytest.param({"error_target": float("nan")}, id="error_target_nan"),
    pytest.param({"error_target": -1}, id="error_target_negative"),
    pytest.param({"positivity_floor": float("nan")}, id="positivity_floor_nan"),
    pytest.param({"max_halvings": -3}, id="max_halvings_negative"),
    pytest.param({"sample_every": 2.0}, id="sample_every_float"),
    pytest.param({"sample_every": 1.5}, id="sample_every_fraction"),
    pytest.param({"sample_every": True}, id="sample_every_bool"),
    pytest.param({"max_halvings": 1.5}, id="max_halvings_fraction"),
    pytest.param({"dt": 1.0, "t_end": 0.4}, id="t_end_below_one_step"),
    pytest.param({"dt": 0.3, "t_end": 1.0}, id="t_end_off_the_grid"),
])
def test_config_validation(settings):
    with pytest.raises(ValidationError):
        IntegratorConfig(**settings)


def test_pluriclosed_heisenberg_standard(heisenberg):
    cfg = IntegratorConfig(dt=1e-3, t_end=4.0, sample_every=400)
    traj = pluriclosed_flow(heisenberg.bracket, HermitianMetric(np.eye(2)), cfg)
    ts = np.asarray(traj.times)
    xs = np.array([s.g.matrix[0, 0].real for s in traj.states])
    assert np.abs(xs - np.sqrt(1 + ts)).max() < 1e-9
    ys = np.array([s.g.matrix[1, 1] for s in traj.states])
    zs = np.array([s.g.matrix[0, 1] for s in traj.states])
    assert np.abs(ys - 1.0).max() < 1e-12
    assert np.abs(zs).max() < 1e-12
    assert traj.monitor_max("skt_defect") < 1e-12
    assert traj.termination == "reached_t_end"
    # symmetrization keeps states exactly Hermitian
    for s in traj.states:
        assert np.abs(s.g.matrix - s.g.matrix.conj().T).max() == 0.0


def test_pluriclosed_heisenberg_general_seed(heisenberg):
    x0, y0, z0 = 1.2, 0.7, 0.25 - 0.35j
    cf = heisenberg.closed_forms["pluriclosed"]
    g0 = np.array([[x0, z0], [np.conj(z0), y0]])
    cfg = IntegratorConfig(dt=2e-3, t_end=3.0, sample_every=300)
    traj = pluriclosed_flow(heisenberg.bracket, HermitianMetric(g0), cfg)
    for t, s in zip(traj.times, traj.states):
        exact = cf.evaluate(g0, t)
        assert np.abs(s.g.matrix - exact).max() < 1e-9


def test_pluriclosed_torus_constant(rng, torus2):
    g0 = random_pd_metric(rng, 2)
    cfg = IntegratorConfig(dt=1e-2, t_end=2.0, sample_every=10)
    traj = pluriclosed_flow(torus2.bracket, g0, cfg)
    for s in traj.states:
        assert np.array_equal(s.g.matrix, traj.states[0].g.matrix)


def test_pluriclosed_inoue_slope(inoue):
    # from x0 = 1, z0 = 0: x, z frozen and dy/dt = 3 a^2
    a = inoue.params["a"]
    cfg = IntegratorConfig(dt=1e-3, t_end=2.0, sample_every=250)
    traj = pluriclosed_flow(inoue.bracket, HermitianMetric(np.eye(2)), cfg)
    ts = np.asarray(traj.times)
    ys = np.array([s.g.matrix[1, 1].real for s in traj.states])
    assert np.abs(ys - (1.0 + 3 * a * a * ts)).max() < 1e-9
    xs = np.array([s.g.matrix[0, 0].real for s in traj.states])
    zs = np.array([s.g.matrix[0, 1] for s in traj.states])
    assert np.abs(xs - 1.0).max() < 1e-12
    assert np.abs(zs).max() < 1e-12


def test_pluriclosed_warns_on_non_skt_seed():
    from conftest import iwasawa_like

    mu = iwasawa_like()
    cfg = IntegratorConfig(dt=1e-2, t_end=0.1, sample_every=5)
    with pytest.warns(UserWarning):
        pluriclosed_flow(mu, HermitianMetric(np.eye(3)), cfg)


def test_bracket_flow_heisenberg(heisenberg):
    cfg = IntegratorConfig(dt=5e-3, t_end=10.0, sample_every=200)
    traj = bracket_flow(heisenberg.bracket, cfg)
    ts = np.asarray(traj.times)
    zs = np.array([s.mu.coeffs[0, 2, 1] for s in traj.states])
    exact = -1.0 / (2.0 * np.sqrt(ts + 1.0))
    assert np.abs((zs - exact) / exact).max() < 1e-8
    assert traj.monitor_max("center_principal_angle") < 1e-10
    assert traj.monitor_max("jacobi_defect") < 1e-12
    assert traj.monitor_max("nijenhuis_defect") < 1e-12
    assert traj.monitor_max("skt_defect") < 1e-12
    norms = traj.monitors["bracket_norm_sq"]
    assert all(b < a for a, b in zip(norms, norms[1:]))  # strictly decreasing


@pytest.mark.parametrize("with_gauge", [False, True])
def test_bracket_flow_checks_integrability_once_per_sample(monkeypatch, with_gauge):
    mu0 = catalog.random_2step_skt(3, 0).bracket
    jacobi, nijenhuis = count_defects(monkeypatch)
    cfg = IntegratorConfig(dt=1e-2, t_end=0.2, sample_every=5)
    traj = bracket_flow(mu0, cfg, with_gauge=with_gauge)
    assert len(traj.times) == 5 and len(jacobi) == len(nijenhuis) == len(traj.times)
    g0 = HermitianMetric(np.eye(3))
    assert traj.monitors["skt_defect"] == [skt_defect(s.mu, g0) for s in traj.states]


def test_bracket_flow_inverts_the_standard_metric_once(monkeypatch):
    # every sample's skt_defect reads the inverse the standard metric keeps
    mu0 = catalog.random_2step_skt(3, 0).bracket
    inversions = count_calls(monkeypatch, "inv", np.linalg)
    traj = bracket_flow(mu0, IntegratorConfig(dt=1e-2, t_end=0.2, sample_every=1))
    assert len(traj.times) == 21 and len(inversions) == 1


def test_metric_flow_solves_one_eigenproblem_per_accepted_state(monkeypatch):
    # the positivity guard and the sample row of an accepted state share its
    # smallest eigenvalue, and so do the floor and the initial row
    mu0 = catalog.random_2step_skt(5, 3).bracket
    g0 = HermitianMetric(np.eye(5))
    eigvalsh = np.linalg.eigvalsh
    calls = count_calls(monkeypatch, "eigvalsh", np.linalg)
    traj = pluriclosed_flow(mu0, g0, IntegratorConfig(dt=1e-2, t_end=0.5, sample_every=1))
    assert len(traj.times) == 51 and len(calls) == traj.stats["accepted_steps"] + 1
    assert traj.monitors["min_eigenvalue"] == [
        float(eigvalsh(s.g.matrix).min()) for s in traj.states]


def test_decay_calibration_checks_integrability_once_per_sample(monkeypatch):
    # p_of_bracket judges each of the run's 21 samples once; no calibration
    # quantity reads the Jacobi defect, so it is not computed
    mu0 = catalog.random_2step_skt(3, 0).bracket
    jacobi, nijenhuis = count_defects(monkeypatch)
    cfg = IntegratorConfig(dt=1e-2, t_end=0.2, sample_every=1)
    rep = decay_calibration([mu0], cfg)
    assert rep.samples == 17 and len(nijenhuis) == 21 and not jacobi


def test_bracket_flow_raises_on_non_integrable_state():
    mu = non_integrable_bracket()
    with pytest.raises(IntegrabilityError) as expected:
        require_integrable(mu)
    cfg = IntegratorConfig(dt=1e-2, t_end=0.1, sample_every=5)
    with pytest.raises(IntegrabilityError) as raised:
        bracket_flow(mu, cfg)
    assert str(raised.value) == str(expected.value)


def test_bracket_flow_abelian_constant():
    cfg = IntegratorConfig(dt=1e-2, t_end=1.0, sample_every=10)
    traj = bracket_flow(abelian(), cfg)
    for s in traj.states:
        assert np.abs(s.mu.coeffs).max() == 0.0


def test_bracket_flow_tensor_matches_fine_reference(heisenberg):
    # full-tensor integration agrees with a fixed-step reference run at dt / 100
    cfg = IntegratorConfig(dt=1e-1, t_end=1.0, sample_every=10)
    a = bracket_flow(heisenberg.bracket, cfg)
    b = fixed_step_run(_bracket_field(2, False), heisenberg.bracket.coeffs.reshape(-1),
                       _symmetrize_flat(2), dt=1e-3, nsteps=1000, error_target=1.0)[-1]
    assert a.times[-1] == 1.0
    diff = np.abs(a.final_state().mu.coeffs.reshape(-1) - b).max()
    assert diff < 1e-7


def test_equivalence_check(heisenberg, inoue, torus2):
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_every=100)
    g0 = HermitianMetric(np.eye(2))
    for entry in (heisenberg, inoue):
        tm = pluriclosed_flow(entry.bracket, g0, cfg)
        tb = bracket_flow(entry.bracket, cfg, with_gauge=True)
        rep = equivalence_check(tm, tb)
        assert rep.max_metric_defect < 1e-8
        assert rep.max_bracket_defect < 1e-8
        assert tb.monitor_max("gauge_defect") < 1e-10
    tm = pluriclosed_flow(torus2.bracket, g0, cfg)
    tb = bracket_flow(torus2.bracket, cfg, with_gauge=True)
    rep = equivalence_check(tm, tb)
    assert rep.max_metric_defect == 0.0
    assert rep.max_bracket_defect == 0.0


def test_equivalence_check_grid_mismatch(heisenberg):
    g0 = HermitianMetric(np.eye(2))
    a = pluriclosed_flow(heisenberg.bracket, g0,
                         IntegratorConfig(dt=1e-2, t_end=0.5, sample_every=10))
    b = bracket_flow(heisenberg.bracket,
                     IntegratorConfig(dt=1e-2, t_end=0.5, sample_every=25),
                     with_gauge=True)
    with pytest.raises(GridMismatchError):
        equivalence_check(a, b)


def test_equivalence_check_rejects_wrong_layouts(heisenberg):
    cfg = IntegratorConfig(dt=1e-2, t_end=0.1, sample_every=5)
    tm = pluriclosed_flow(heisenberg.bracket, HermitianMetric(np.eye(2)), cfg)
    tb = bracket_flow(heisenberg.bracket, cfg, with_gauge=True)
    with pytest.raises(ValidationError, match="gauged bracket flow"):
        equivalence_check(tm, bracket_flow(heisenberg.bracket, cfg))
    with pytest.raises(ValidationError, match="metric flow"):
        equivalence_check(tb, tm)
    assert equivalence_check(tm, tb).max_metric_defect < 1e-8


def test_hs_flow_builds_one_metric_per_sample(solvable, monkeypatch):
    # the monitor reads the sample's own metric and its smallest eigenvalue once
    built = []
    init = HermitianMetric.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HermitianMetric, "__init__", counting)
    cfg = IntegratorConfig(dt=1e-2, t_end=0.5, sample_every=5)
    traj = hs_flow(solvable.bracket, solvable.default_tamed, cfg)
    assert len(traj.times) == len(built) == 11
    assert traj.monitors["taming_margin"] == traj.monitors["min_eigenvalue"]


def test_hs_flow_torus_constant(torus2):
    cfg = IntegratorConfig(dt=5e-2, t_end=5.0, sample_every=10)
    traj = hs_flow(torus2.bracket, torus2.default_tamed, cfg)
    for s in traj.states:
        assert np.array_equal(s.g.matrix, traj.states[0].g.matrix)
        assert np.array_equal(s.beta, traj.states[0].beta)


def test_hs_flow_solvable_decay(solvable):
    cfg = IntegratorConfig(dt=1e-2, t_end=10.0, sample_every=100)
    traj = hs_flow(solvable.bracket, solvable.default_tamed, cfg)
    assert traj.termination == "reached_t_end"
    xs = np.array([s.g.matrix[0, 0].real for s in traj.states])
    ys = np.array([s.g.matrix[1, 1].real for s in traj.states])
    assert np.abs(xs - xs[0]).max() < 1e-12
    assert np.abs(ys - ys[0]).max() < 1e-12
    zs = np.array([abs(s.g.matrix[0, 1]) for s in traj.states])
    assert np.all(np.diff(zs) < 0)
    assert traj.monitor_max("closedness_defect") < 1e-10
    # closed-form oracle along the way
    cf = solvable.closed_forms["hs"]
    seed = (solvable.default_tamed.omega.matrix, solvable.default_tamed.beta)
    for t, s in zip(traj.times, traj.states):
        Ge, be = cf.evaluate(seed, t)
        assert np.abs(s.g.matrix - Ge).max() < 1e-8
        assert np.abs(s.beta - be).max() < 1e-8


def test_hs_flow_beta_stays_zero_on_pure_11_rho(heisenberg):
    # rho_B of the nilpotent entry is purely (1,1), so beta = 0 is preserved;
    # the seed is not closed (no closed taming form exists here), which only warns
    from pluriflow.bismut_ricci import rho_B

    tf = TamedForm(HermitianMetric(np.eye(2)))
    cfg = IntegratorConfig(dt=1e-2, t_end=2.0, sample_every=20)
    with pytest.warns(UserWarning):
        traj = hs_flow(heisenberg.bracket, tf, cfg)
    for s in traj.states:
        assert np.abs(s.beta).max() < 1e-14
        rho = rho_B(heisenberg.bracket, s.g)
        assert rho.bidegree_part(1, 1).max_norm() > 0.0
        assert rho.bidegree_part(2, 0).max_norm() == rho.bidegree_part(0, 2).max_norm() == 0.0
    assert traj.monitor_max("closedness_drift") < 1e-10


def test_hs_flow_warns_on_non_closed_seed(solvable):
    bad = TamedForm(solvable.default_tamed.omega, np.array([[0, 0.9], [-0.9, 0]]))
    cfg = IntegratorConfig(dt=1e-2, t_end=0.2, sample_every=5)
    with pytest.warns(UserWarning):
        traj = hs_flow(solvable.bracket, bad, cfg)
    assert traj.monitor_max("closedness_drift") < 1e-8


def test_hs_beta_matches_quadrature_oracle(solvable):
    # beta(t) = beta_0 - integral of (rho_B)^{2,0}(omega(s)) ds, evaluated by
    # Simpson quadrature on densely sampled states
    from scipy.integrate import cumulative_simpson

    from pluriflow.bismut_ricci import rho20_matrix

    cfg = IntegratorConfig(dt=1e-2, t_end=5.0, sample_every=1)
    traj = hs_flow(solvable.bracket, solvable.default_tamed, cfg)
    ts = np.asarray(traj.times)
    rhos = np.array([rho20_matrix(solvable.bracket.coeffs, s.g.matrix, s.g.inverse)
                     for s in traj.states])
    integral = (cumulative_simpson(rhos.real, x=ts, axis=0, initial=0.0)
                + 1j * cumulative_simpson(rhos.imag, x=ts, axis=0, initial=0.0))
    betas = np.array([s.beta for s in traj.states])
    expected = betas[0][None, :, :] - integral
    assert np.abs(betas - expected).max() < 1e-8


def test_backward_probe_positive(heisenberg):
    cfg = IntegratorConfig(dt=1e-2, t_end=5.0, sample_every=50)
    eps = backward_existence_probe(heisenberg.bracket, HermitianMetric(np.eye(2)), cfg)
    assert eps > 0.5  # exact backward blow-down at t = -1


def test_decay_calibration(heisenberg):
    cfg = IntegratorConfig(dt=2e-3, t_end=1.0, sample_every=1)
    rep = decay_calibration([heisenberg.bracket], cfg)
    assert rep.relative_spread < 1e-6
    assert rep.kappa == pytest.approx(4.0, rel=1e-6)
    assert rep.bound_margin <= 1e-10
    with pytest.raises(ValidationError):
        decay_calibration([abelian()], cfg)  # vacuous, excluded


def test_trajectory_reality_along_flows(heisenberg):
    cfg = IntegratorConfig(dt=1e-2, t_end=1.0, sample_every=20)
    traj = bracket_flow(heisenberg.bracket, cfg)
    from pluriflow.lie_core import conj_tensor

    for s in traj.states:
        c = s.mu.coeffs
        assert np.abs(c + c.transpose(1, 0, 2)).max() == 0.0
        assert np.abs(c - conj_tensor(c, 2)).max() == 0.0


def test_adaptive_flows_match_fixed_step_reference(heisenberg, solvable):
    # each flow's samples agree with the fixed-dt RK4 step-doubling reference
    g0 = np.array([[1.2, 0.25 - 0.35j], [0.25 + 0.35j, 0.7]])
    cfg = IntegratorConfig(dt=2e-3, t_end=3.0, sample_every=300)
    traj = pluriclosed_flow(heisenberg.bracket, HermitianMetric(g0), cfg)
    ref = fixed_step_run(_metric_field(heisenberg.bracket, False), g0.reshape(-1),
                         lambda y: _hermitize(y.reshape(2, 2)).reshape(-1), cfg.dt, 1500)
    for i, s in enumerate(traj.states):
        assert _rel(s.g.matrix.reshape(-1), ref[300 * i]) < 1e-9

    tamed = solvable.default_tamed
    cfg = IntegratorConfig(dt=1e-2, t_end=5.0, sample_every=100)
    traj = hs_flow(solvable.bracket, tamed, cfg)

    def project_hs(y):
        beta = y[4:].reshape(2, 2)
        return np.concatenate([_hermitize(y[:4].reshape(2, 2)).reshape(-1),
                               (0.5 * (beta - beta.T)).reshape(-1)])

    y0 = np.concatenate([tamed.omega.matrix.reshape(-1), tamed.beta.reshape(-1)])
    ref = fixed_step_run(_metric_field(solvable.bracket, True), y0, project_hs, cfg.dt, 500)
    for i, s in enumerate(traj.states):
        assert _rel(np.concatenate([s.g.matrix.reshape(-1), s.beta.reshape(-1)]), ref[100 * i]) < 1e-9

    mu0 = catalog.random_2step_skt(4, 11).bracket
    cfg = IntegratorConfig(dt=1e-2, t_end=2.0, sample_every=50)
    traj = bracket_flow(mu0, cfg, with_gauge=True)
    y0 = np.concatenate([mu0.coeffs.reshape(-1), np.eye(4, dtype=complex).reshape(-1)])
    # at this dt the reference's own error in h is 1e-8, so it runs at dt / 5
    ref = fixed_step_run(_bracket_field(4, True), y0, _symmetrize_flat(4), cfg.dt / 5, 1000)
    for i, s in enumerate(traj.states):
        assert _rel(s.mu.coeffs.reshape(-1), ref[250 * i][:512]) < 1e-9
        assert _rel(s.h.reshape(-1), ref[250 * i][512:]) < 1e-9


def test_sample_times_are_exact_grid_points(heisenberg):
    cfg = IntegratorConfig(dt=1e-3, t_end=0.1, sample_every=7)
    for traj in (pluriclosed_flow(heisenberg.bracket, HermitianMetric(np.eye(2)), cfg),
                 bracket_flow(heisenberg.bracket, cfg)):
        ks = list(range(0, 100, 7)) + [100]
        assert traj.times == [k * cfg.dt for k in ks]


def test_stats_count_field_calls(heisenberg, monkeypatch):
    calls = []
    make_field = flows._metric_field

    def counting(mu, with_beta):
        field = make_field(mu, with_beta)
        return lambda y: (calls.append(1), field(y))[1]

    monkeypatch.setattr(flows, "_metric_field", counting)
    cfg = IntegratorConfig(dt=1e-3, t_end=2.0, sample_every=100)
    traj = pluriclosed_flow(heisenberg.bracket, HermitianMetric(np.eye(2)), cfg)
    st = traj.stats
    assert st["rhs_calls"] == len(calls) == 1 + 6 * (st["accepted_steps"] + st["rejected_steps"])
    assert st["accepted_steps"] < 100  # the parent grid had 2000 steps of 11 calls


def test_step_rejected_keeps_last_accepted_state(heisenberg):
    # backwards, x = sqrt(1 - t) blows down at t = 1, below the positivity floor's reach
    cfg = IntegratorConfig(dt=1e-2, t_end=5.0, sample_every=50)
    traj = _metric_flow("pluriclosed", heisenberg.bracket, HermitianMetric(np.eye(2)), None,
                        lambda state: {}, cfg, direction=-1.0)
    assert traj.termination == "step_rejected"
    assert traj.times[-2] == 0.5 and 0.99 < traj.times[-1] < 1.0
    x = traj.final_state().g.matrix[0, 0].real
    assert abs(x - np.sqrt(1.0 - traj.times[-1])) < 1e-2 * x


def test_bracket_flow_rejected_trials_do_not_warn():
    # at dt = 1e-2 the first trial steps overflow; they are rejected silently
    mu = catalog.random_2step_skt(5, 1234).bracket
    cfg = IntegratorConfig(dt=1e-2, t_end=0.5, sample_every=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = bracket_flow(mu, cfg)
    assert traj.termination == "reached_t_end"
    assert traj.stats["rejected_steps"] > 0


def test_delta_mu_matches_einsum_definition(rng):
    from pluriflow.flows import delta_mu

    for n in (2, 3, 5):
        c = catalog.random_2step_skt(n, 4).bracket.coeffs
        A = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        expected = (np.einsum("da,dbc->abc", A, c) + np.einsum("db,adc->abc", A, c)
                    - np.einsum("abd,cd->abc", c, A))
        assert _rel(delta_mu(c, A), expected) < 1e-14


def test_monitor_max_propagates_nan():
    traj = flows.FlowTrajectory(kind="pluriclosed")
    traj.monitors = {"a": [1.0, float("nan")], "b": [float("nan"), 1.0], "c": [0.5, 2.0]}
    assert np.isnan(traj.monitor_max("a")) and np.isnan(traj.monitor_max("b"))
    assert traj.monitor_max("c") == 2.0
    assert np.isnan(traj.monitor_max("missing"))


# Symmetries of the flows, judged through the whole driver (field, projection,
# step controller, sampling) with no reference solution.  Scaling by a power
# of two is exact in floating point, and the relative error control then
# takes the same steps, so the scaled runs agree bit for bit.

_SYMMETRY_CFG = dict(dt=1e-2, t_end=1.0, sample_every=10)


def test_bracket_flow_scaling_is_bit_exact():
    # the bracket field is cubic, so the flow from 2 mu0 is 2 mu(4 t)
    mu0 = catalog.random_2step_skt(3, 2).bracket
    ref = bracket_flow(mu0, IntegratorConfig(**_SYMMETRY_CFG))
    scaled_cfg = IntegratorConfig(**{**_SYMMETRY_CFG, "dt": 1e-2 / 4, "t_end": 1.0 / 4})
    scaled = bracket_flow(act(np.eye(3) / 2, mu0), scaled_cfg)
    assert scaled.stats == ref.stats
    assert scaled.times == [t / 4 for t in ref.times]
    for a, b in zip(scaled.states, ref.states):
        assert np.array_equal(a.mu.coeffs, 2 * b.mu.coeffs)
    # a factor of 3 is not exact in floating point, so it holds to rounding
    third_cfg = IntegratorConfig(**{**_SYMMETRY_CFG, "dt": 1e-2 / 9, "t_end": 1.0 / 9})
    third = bracket_flow(act(np.eye(3) / 3, mu0), third_cfg)
    assert np.allclose(third.times, [t / 9 for t in ref.times], rtol=1e-14, atol=0.0)
    scale = 3 * np.abs(mu0.coeffs).max()
    for a, b in zip(third.states, ref.states):
        assert np.abs(a.mu.coeffs - 3 * b.mu.coeffs).max() <= 1e-14 * scale


def test_pluriclosed_flow_scaling_is_bit_exact(rng):
    # rho_B is invariant under g -> 2 g, so the flow from 2 g0 is 2 g(t / 2)
    mu0 = catalog.random_2step_skt(3, 2).bracket
    g0 = random_pd_metric(rng, 3)
    ref = pluriclosed_flow(mu0, g0, IntegratorConfig(**_SYMMETRY_CFG))
    scaled_cfg = IntegratorConfig(**{**_SYMMETRY_CFG, "dt": 2e-2, "t_end": 2.0})
    scaled = pluriclosed_flow(mu0, HermitianMetric(2 * g0.matrix), scaled_cfg)
    assert scaled.stats == ref.stats
    assert scaled.times == [2 * t for t in ref.times]
    for a, b in zip(scaled.states, ref.states):
        assert np.array_equal(a.g.matrix, 2 * b.g.matrix)


def test_bracket_flow_is_unitarily_equivariant(rng):
    # the flow from k . mu0 is k . mu(t) for unitary k, up to rounding
    mu0 = catalog.random_2step_skt(3, 2).bracket
    k, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    cfg = IntegratorConfig(**_SYMMETRY_CFG)
    ref = bracket_flow(mu0, cfg)
    moved = bracket_flow(act(k, mu0), cfg)
    assert moved.stats == ref.stats and moved.times == ref.times
    scale = np.abs(mu0.coeffs).max()
    for a, b in zip(moved.states, ref.states):
        assert np.abs(a.mu.coeffs - act(k, b.mu).coeffs).max() <= 1e-14 * scale
