"""Acceptance criteria, one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expensive trajectories are shared through session fixtures.
"""

import time

import numpy as np
import pytest

from conftest import (
    eberlein_oracle,
    gram_orthonormal,
    one_one_part,
    random_pd_metric,
    transport_metric,
)
from pluriflow import catalog
from pluriflow.bismut_ricci import rho_B
from pluriflow.connections import ricci_forms
from pluriflow.flows import (
    IntegratorConfig,
    backward_existence_probe,
    bracket_flow,
    decay_calibration,
    equivalence_check,
    hs_flow,
    pluriclosed_flow,
)
from pluriflow.hermitian_forms import (
    HermitianMetric,
    skt_defect,
    transform_form,
)
from pluriflow.lie_core import (
    act,
    adapted_frame,
    bracket_norm_sq,
    center,
    nilpotency_step,
)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}  {detail}".rstrip())
    assert ok, f"criterion {num}: {desc} {detail}"


def random_skt_instance(rng, n, seed):
    """Random 2-step pair (mu, g) that is pluriclosed, via equivalence transport.

    Normalized to unit bracket norm so Ricci entries are O(1) and absolute
    tolerances are meaningful.
    """
    entry = catalog.random_2step_skt(n, seed)
    h = np.eye(n) + 0.35 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    scale = np.sqrt(bracket_norm_sq(act(h, entry.bracket)))
    h = scale * h
    mu = act(h, entry.bracket)
    g = transport_metric(h, HermitianMetric(np.eye(n)))
    return mu, g


@pytest.fixture(scope="module")
def heis():
    return catalog.heisenberg_kt()


@pytest.fixture(scope="module")
def heis_bracket_t100(heis):
    cfg = IntegratorConfig(dt=1e-2, t_end=100.0, sample_every=100)
    return bracket_flow(heis.bracket, cfg)


@pytest.fixture(scope="module")
def nilpotent_seeds():
    return [
        ("heisenberg_kt", catalog.heisenberg_kt()),
        ("random_2step_skt(2, 7)", catalog.random_2step_skt(2, 7)),
        ("random_2step_skt(3, 7)", catalog.random_2step_skt(3, 7)),
        ("torus(2)", catalog.torus(2)),
    ]


@pytest.fixture(scope="module")
def forward_runs_t100(nilpotent_seeds):
    out = {}
    for name, entry in nilpotent_seeds:
        cfg = IntegratorConfig(dt=1e-2, t_end=100.0, sample_every=200)
        out[name] = pluriclosed_flow(entry.bracket, entry.default_metric, cfg)
    return out


def test_criterion_01_heisenberg_closed_form(heis):
    cfg = IntegratorConfig(dt=1e-3, t_end=10.0, sample_every=200)
    t0 = time.perf_counter()
    traj = pluriclosed_flow(heis.bracket, HermitianMetric(np.eye(2)), cfg)
    elapsed = time.perf_counter() - t0
    ts = np.asarray(traj.times)
    xs = np.array([s.g.matrix[0, 0].real for s in traj.states])
    rel = np.abs(xs - np.sqrt(1.0 + ts)) / np.sqrt(1.0 + ts)
    ydrift = np.abs(np.array([s.g.matrix[1, 1] for s in traj.states]) - 1.0).max()
    zdrift = np.abs(np.array([s.g.matrix[0, 1] for s in traj.states])).max()
    ok = rel.max() < 1e-6 and ydrift < 1e-10 and zdrift < 1e-10 and elapsed < 5.0
    report(1, "pluriclosed flow matches sqrt(1+t) law", ok,
           f"(rel err {rel.max():.2e}, drift {max(ydrift, zdrift):.2e}, {elapsed:.2f}s)")


def test_criterion_02_general_seed_law(heis):
    rng = np.random.default_rng(20)
    cf = heis.closed_forms["pluriclosed"]
    worst = 0.0
    for _ in range(20):
        x0 = rng.uniform(0.5, 2.0)
        y0 = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0, 2 * np.pi)
        z0 = rng.uniform(0.0, 0.8) * np.sqrt(x0 * y0) * np.exp(1j * phase)
        G0 = np.array([[x0, z0], [np.conj(z0), y0]])
        cfg = IntegratorConfig(dt=5e-3, t_end=10.0, sample_every=200)
        traj = pluriclosed_flow(heis.bracket, HermitianMetric(G0), cfg)
        for t_target in (1.0, 10.0):
            idx = int(np.argmin(np.abs(np.asarray(traj.times) - t_target)))
            assert abs(traj.times[idx] - t_target) < 1e-9
            exact = cf.evaluate(G0, t_target)
            got = traj.states[idx].g.matrix
            worst = max(worst, float(np.abs(got - exact).max() / np.abs(exact).max()))
    report(2, "general-seed x(t) law over 20 random seeds", worst < 1e-6,
           f"(max rel err {worst:.2e})")


def test_criterion_03_bracket_flow_law(heis_bracket_t100):
    traj = heis_bracket_t100
    worst = 0.0
    for t_target in (1.0, 10.0, 100.0):
        idx = int(np.argmin(np.abs(np.asarray(traj.times) - t_target)))
        assert abs(traj.times[idx] - t_target) < 1e-9
        z = traj.states[idx].mu.coeffs[0, 2, 1]
        exact = -1.0 / (2.0 * np.sqrt(t_target + 1.0))
        worst = max(worst, abs((z - exact) / exact))
    report(3, "bracket flow z(t) matches -1/(2 sqrt(t+1))", worst < 1e-6,
           f"(max rel err {worst:.2e})")


def test_criterion_04_equivalence(heis):
    results = []
    g0 = HermitianMetric(np.eye(2))
    cfg = IntegratorConfig(dt=1e-3, t_end=10.0, sample_every=500)
    tm = pluriclosed_flow(heis.bracket, g0, cfg)
    tb = bracket_flow(heis.bracket, cfg, with_gauge=True)
    rep = equivalence_check(tm, tb)
    results.append(max(rep.max_metric_defect, rep.max_bracket_defect))

    entry = catalog.random_2step_skt(3, 3)
    cfg = IntegratorConfig(dt=2e-3, t_end=10.0, sample_every=500)
    tm = pluriclosed_flow(entry.bracket, HermitianMetric(np.eye(3)), cfg)
    tb = bracket_flow(entry.bracket, cfg, with_gauge=True)
    rep = equivalence_check(tm, tb)
    results.append(max(rep.max_metric_defect, rep.max_bracket_defect))
    worst = max(results)
    report(4, "metric flow equals gauged bracket flow", worst < 1e-6,
           f"(max defect {worst:.2e})")


def test_criterion_05_cross_path_rho():
    rng = np.random.default_rng(50)
    entries = [catalog.heisenberg_kt(), catalog.inoue_s0(1.0, 1.0),
               catalog.solvable_2414(), catalog.torus(2)]
    worst = 0.0
    for entry in entries:
        mu = entry.bracket
        for _ in range(100):
            g = random_pd_metric(rng, mu.n)
            trace_path = ricci_forms(mu, g).rho_b_trace.tensor
            direct = rho_B(mu, g).tensor
            scale = max(np.abs(direct).max(), 1.0)
            worst = max(worst, float(np.abs(trace_path - direct).max() / scale))
    report(5, "curvature-trace rho agrees with d(eta) path", worst < 1e-10,
           f"(max defect {worst:.2e})")


def test_criterion_06_chern_form_vanishes():
    rng = np.random.default_rng(60)
    worst = 0.0
    cases = [catalog.heisenberg_kt().bracket]
    cases += [catalog.random_2step_skt(3, s).bracket for s in range(10)]
    cases += [catalog.random_2step_skt(2, s).bracket for s in range(10)]
    for mu in cases:
        g = random_pd_metric(rng, mu.n)
        worst = max(worst, ricci_forms(mu, g).rho_c.max_norm())
    report(6, "Chern Ricci form vanishes on 2-step data", worst < 1e-10,
           f"(max norm {worst:.2e})")


def test_criterion_07_decay_calibration(heis):
    rng = np.random.default_rng(70)
    seeds = [heis.bracket]
    for _ in range(2):
        h = np.eye(2) + 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        seeds.append(act(h, heis.bracket))
    seeds.append(catalog.random_2step_skt(2, 5).bracket)
    seeds.append(catalog.random_2step_skt(3, 5).bracket)
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_every=1)
    rep = decay_calibration(seeds, cfg)
    ok = rep.relative_spread < 1e-4 and rep.bound_margin <= 1e-10
    report(7, "decay constant kappa is universal and bound holds", ok,
           f"(kappa {rep.kappa:.6f}, spread {rep.relative_spread:.2e}, "
           f"bound margin {rep.bound_margin:.2e})")


def test_criterion_08_center_preserved_and_norm_decay(heis_bracket_t100):
    traj = heis_bracket_t100
    angle = traj.monitor_max("center_principal_angle")
    norms = traj.monitors["bracket_norm_sq"]
    ratio = norms[-1] / norms[0]
    decreasing = all(b < a for a, b in zip(norms, norms[1:]))
    ok = angle < 1e-8 and ratio < 0.02 and decreasing and traj.times[-1] >= 100.0
    report(8, "center preserved and bracket norm decays to 1/101", ok,
           f"(angle {angle:.2e}, ratio {ratio:.4f})")


def test_criterion_09_long_time_existence(nilpotent_seeds, forward_runs_t100):
    ok = True
    details = []
    for name, entry in nilpotent_seeds:
        traj = forward_runs_t100[name]
        alive = traj.termination == "reached_t_end" and traj.times[-1] >= 100.0
        skt = traj.monitor_max("skt_defect")
        cfg_b = IntegratorConfig(dt=1e-2, t_end=5.0, sample_every=50)
        eps = backward_existence_probe(entry.bracket, entry.default_metric, cfg_b)
        ok = ok and alive and skt < 1e-8 and eps > 0.0
        details.append(f"{name}: skt {skt:.1e}, eps {eps:.2f}")
    report(9, "no blow-down to t = 100, SKT preserved, backward eps > 0", ok,
           "(" + "; ".join(details) + ")")


def test_criterion_10_two_step_identities():
    rng = np.random.default_rng(100)
    worst_t55 = worst_l54 = worst_p53 = worst_eb = 0.0
    count = 0
    for seed in range(25):
        for n in (2, 3):
            mu, g = random_skt_instance(rng, n, seed)
            assert skt_defect(mu, g) < 1e-10
            data = ricci_forms(mu, g)
            eb = eberlein_oracle(mu, g)
            worst_eb = max(worst_eb, float(np.abs(eb - data.ric_g).max()))

            from pluriflow.hermitian_forms import gram_real

            gram = gram_real(g)
            xi = center(mu)
            _, Sinv, J, _ = adapted_frame(n)
            rc = Sinv @ xi.basis
            Z = gram_orthonormal(np.concatenate([rc.real, rc.imag], axis=1), gram)
            P = np.eye(2 * n) - Z @ (Z.T @ gram)

            ric_b11 = one_one_part(data.ric_b)
            ric_g11 = one_one_part(data.ric_g)
            worst_t55 = max(worst_t55,
                            float(np.abs(ric_b11 - 2 * P.T @ ric_g11 @ P).max()))

            S, _, _, _ = adapted_frame(n)
            rho11_real = transform_form(rho_B(mu, g).bidegree_part(1, 1).tensor, S).real
            worst_l54 = max(worst_l54, float(np.abs(rho11_real - ric_b11 @ J).max()))

            from pluriflow.hermitian_forms import lee_form

            theta = lee_form(mu, g)
            # evaluation on every vector of the center complement must vanish
            comp = P @ np.eye(2 * n)
            vals = np.einsum("A,Ai->i", theta.tensor, S @ comp)
            worst_p53 = max(worst_p53, float(np.abs(vals).max()))
            count += 1
    ok = worst_t55 < 1e-10 and worst_l54 < 1e-10 and worst_p53 < 1e-10 and worst_eb < 1e-12
    report(10, f"2-step identities on {count} random pluriclosed instances", ok,
           f"(ricci {worst_t55:.1e}, rho {worst_l54:.1e}, lee {worst_p53:.1e}, "
           f"eberlein {worst_eb:.1e})")


def test_criterion_11_hs_flow_solvable():
    entry = catalog.solvable_2414()
    cfg = IntegratorConfig(dt=1e-2, t_end=50.0, sample_every=100)
    traj = hs_flow(entry.bracket, entry.default_tamed, cfg)
    xs = np.array([s.g.matrix[0, 0].real for s in traj.states])
    ys = np.array([s.g.matrix[1, 1].real for s in traj.states])
    zs = np.array([abs(s.g.matrix[0, 1]) for s in traj.states])
    const = max(np.abs(xs - xs[0]).max(), np.abs(ys - ys[0]).max())
    decreasing = bool(np.all(np.diff(zs) < 0))
    final = traj.final_state()
    limit = np.diag([xs[0], ys[0]]).astype(complex)
    dist = max(float(np.abs(final.g.matrix - limit).max()),
               float(np.abs(final.beta).max()))
    drift = traj.monitor_max("closedness_drift")
    ok = (const < 1e-10 and decreasing and zs[-1] < 0.05 * zs[0]
          and drift < 1e-8 and dist < 1e-3)
    report(11, "taming-form flow decays to the diagonal limit", ok,
           f"(x,y drift {const:.1e}, |z(50)|/|z0| {zs[-1] / zs[0]:.2e}, "
           f"drift {drift:.1e}, final dist {dist:.1e})")


def test_criterion_12_torus_hs_constant():
    entry = catalog.torus(2)
    cfg = IntegratorConfig(dt=5e-2, t_end=100.0, sample_every=200)
    traj = hs_flow(entry.bracket, entry.default_tamed, cfg)
    ok = all(np.array_equal(s.g.matrix, traj.states[0].g.matrix)
             and np.array_equal(s.beta, traj.states[0].beta)
             for s in traj.states) and traj.times[-1] >= 100.0
    report(12, "torus taming form is a fixed point to machine precision", ok)


def test_criterion_13_reduced_flow_identity(nilpotent_seeds, forward_runs_t100):
    worst = 0.0
    checked = 0
    for name, entry in nilpotent_seeds:
        if (nilpotency_step(entry.bracket) or 99) > 2:
            continue
        traj = forward_runs_t100[name]
        worst = max(worst, traj.monitor_max("reduction_defect"))
        checked += len(traj.times)
    report(13, f"-(rho_B)^(1,1) equals (d d* omega)^(1,1) at {checked} samples",
           worst < 1e-10, f"(max defect {worst:.2e})")
