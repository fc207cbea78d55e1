import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pluriflow
from pluriflow import catalog, cli


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def heis_run_cfg(tmp_path, outdir, t_end=5.0, dt=5e-3):
    return {
        "algebra": {"catalog": "heisenberg_kt"},
        "flow": "pluriclosed",
        "seed": "default",
        "integrator": {"dt": dt, "t_end": t_end, "sample_every": 100},
        "output": {"directory": str(outdir), "prefix": "heis"},
    }


def test_run_heisenberg_summary(tmp_path):
    out = tmp_path / "out"
    cfgp = write_cfg(tmp_path, "cfg.json", heis_run_cfg(tmp_path, out, t_end=10.0))
    rc = cli.main(["run", cfgp])
    assert rc == 0
    summary = json.loads((out / "heis_summary.json").read_text())
    assert summary["termination"] == "reached_t_end"
    assert summary["closed_form_max_relative_deviation"] < 1e-6
    assert summary["initial_defects"]["skt_defect"] < 1e-12
    lines = (out / "heis_trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# t,")
    ncols = len(lines[0][2:].split(","))
    assert all(len(line.split(",")) == ncols for line in lines[1:])


def test_run_torus_hs_rows_identical(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "algebra": {"catalog": "torus", "params": {"n": 2}},
        "flow": "hs",
        "seed": "default",
        "integrator": {"dt": 0.05, "t_end": 2.0, "sample_every": 5},
        "output": {"directory": str(out), "prefix": "torus"},
    }
    rc = cli.main(["run", write_cfg(tmp_path, "cfg.json", cfg)])
    assert rc == 0
    lines = (out / "torus_trajectory.csv").read_text().splitlines()
    first_state = lines[1].split(",")[1:]
    for line in lines[2:]:
        assert line.split(",")[1:] == first_state


def test_run_rejects_bad_seed(tmp_path):
    out = tmp_path / "out"
    cfg = heis_run_cfg(tmp_path, out)
    cfg["seed"] = {"metric": [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]}
    rc = cli.main(["run", write_cfg(tmp_path, "cfg.json", cfg)])
    assert rc == cli.EXIT_VALIDATION
    assert not (out / "heis_trajectory.csv").exists()


def test_run_unknown_catalog(tmp_path):
    cfg = {"algebra": {"catalog": "not_a_thing"}, "flow": "pluriclosed"}
    rc = cli.main(["run", write_cfg(tmp_path, "cfg.json", cfg)])
    assert rc == cli.EXIT_VALIDATION


def test_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == cli.EXIT_PARSE
    assert cli.main(["verify", str(path)]) == cli.EXIT_PARSE


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    cfg1 = heis_run_cfg(tmp_path, out1, t_end=1.0)
    cfg2 = heis_run_cfg(tmp_path, out2, t_end=1.0)
    assert cli.main(["run", write_cfg(tmp_path, "c1.json", cfg1)]) == 0
    assert cli.main(["run", write_cfg(tmp_path, "c2.json", cfg2)]) == 0
    a = (out1 / "heis_trajectory.csv").read_bytes()
    b = (out2 / "heis_trajectory.csv").read_bytes()
    assert a == b


def test_outdir_env_override(tmp_path, monkeypatch):
    out = tmp_path / "ignored"
    override = tmp_path / "envdir"
    monkeypatch.setenv("PLURIFLOW_OUTDIR", str(override))
    cfg = heis_run_cfg(tmp_path, out, t_end=0.5)
    assert cli.main(["run", write_cfg(tmp_path, "cfg.json", cfg)]) == 0
    assert (override / "heis_trajectory.csv").exists()
    assert not (out / "heis_trajectory.csv").exists()


def test_verify_reports(tmp_path, capsys):
    cfg = {"algebra": {"catalog": "heisenberg_kt"}, "seed": "default"}
    assert cli.main(["verify", write_cfg(tmp_path, "cfg.json", cfg)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["nilpotency_step"] == 2
    assert rep["center_dim"] == 2
    assert rep["skt_defect"] < 1e-12
    assert rep["static_fit"]["residual_best"] > 1e-3
    assert not rep["kahler"]

    cfg = {"algebra": {"catalog": "torus", "params": {"n": 2}}, "seed": "default"}
    assert cli.main(["verify", write_cfg(tmp_path, "cfg2.json", cfg)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kahler"] and rep["static_fit"]["residual_best"] < 1e-12

    cfg = {"algebra": {"catalog": "inoue_s0", "params": {"a": 1.0, "b": 1.0}},
           "seed": "default"}
    assert cli.main(["verify", write_cfg(tmp_path, "cfg3.json", cfg)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["skt_defect"] < 1e-12
    assert rep["nilpotency_step"] is None


def test_catalog_listing(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out.split()
    assert "heisenberg_kt" in out and "torus" in out


def test_round_trip_export_reingest(tmp_path, capsys):
    base = {"algebra": {"catalog": "heisenberg_kt"}, "seed": "default"}
    explicit = {"algebra": cli.export_config(base), "seed": {
        "metric": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}}
    assert cli.main(["verify", write_cfg(tmp_path, "a.json", base)]) == 0
    rep_a = json.loads(capsys.readouterr().out)
    assert cli.main(["verify", write_cfg(tmp_path, "b.json", explicit)]) == 0
    rep_b = json.loads(capsys.readouterr().out)
    for key in ("jacobi_defect", "nijenhuis_defect", "skt_defect",
                "nilpotency_step", "center_dim"):
        assert rep_a[key] == rep_b[key]


def test_run_integrator_failure_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = heis_run_cfg(tmp_path, out, t_end=1.0)
    cfg["integrator"]["error_target"] = 1e-30
    cfg["integrator"]["max_halvings"] = 0
    rc = cli.main(["run", write_cfg(tmp_path, "cfg.json", cfg)])
    assert rc == cli.EXIT_INTEGRATOR
    summary = json.loads((out / "heis_summary.json").read_text())
    assert summary["termination"] == "step_rejected"


def test_run_blowdown_exit_code(tmp_path):
    # backwards-in-time seed: shrink the metric until the floor by flowing a
    # metric whose evolution decreases x; use hs flow taming loss instead is
    # hard to trigger, so emulate blow-down with a tiny t_end... the reliable
    # path: pluriclosed on heisenberg runs forever, so drive the (0,0) entry
    # down via a custom explicit algebra is overkill.  Use the positivity
    # floor configured above the initial eigenvalue so it trips immediately.
    out = tmp_path / "out"
    cfg = heis_run_cfg(tmp_path, out, t_end=1.0)
    cfg["integrator"]["positivity_floor"] = 2.0
    rc = cli.main(["run", write_cfg(tmp_path, "cfg.json", cfg)])
    assert rc == cli.EXIT_BLOWDOWN
    summary = json.loads((out / "heis_summary.json").read_text())
    assert summary["termination"] == "positivity_floor"


def test_trajectory_csv_parses_back_exactly(tmp_path):
    import numpy as np

    from pluriflow.flows import IntegratorConfig, bracket_flow

    traj = bracket_flow(catalog.random_2step_skt(2, 3).bracket,
                        IntegratorConfig(dt=1e-2, t_end=0.2, sample_every=5), with_gauge=True)
    path = tmp_path / "traj.csv"
    cli.write_trajectory(str(path), traj)
    lines = path.read_text().splitlines()
    names, _ = cli._state_columns(traj.states[0])
    monitors = sorted(traj.monitors)
    assert lines[0] == "# " + ",".join(["t"] + names + monitors)
    assert len(lines) == len(traj.times) + 1
    for i, (line, state) in enumerate(zip(lines[1:], traj.states)):
        vals = [float(v) for v in line.split(",")]
        assert vals[0] == traj.times[i]
        k = 1
        for arr in (state.mu.coeffs, state.h):
            flat = arr.reshape(-1)
            got = np.array(vals[k:k + 2 * flat.size:2]) + 1j * np.array(vals[k + 1:k + 2 * flat.size:2])
            assert np.array_equal(got, flat)
            k += 2 * flat.size
        assert vals[k:] == [traj.monitors[m][i] for m in monitors]


def test_run_summary_telemetry_and_repeatable_csv(tmp_path):
    cfgs = [
        {"algebra": {"catalog": "solvable_2414"}, "flow": "hs", "seed": "default",
         "integrator": {"dt": 1e-2, "t_end": 2.0, "sample_every": 20}},
        {"algebra": {"catalog": "random_2step_skt", "params": {"n": 3, "seed": 2}},
         "flow": "bracket_gauged", "seed": "default",
         "integrator": {"dt": 1e-2, "t_end": 1.0, "sample_every": 10}},
    ]
    for cfg in cfgs:
        csvs = []
        for run in ("a", "b"):
            cfg["output"] = {"directory": str(tmp_path / run), "prefix": cfg["flow"]}
            assert cli.main(["run", write_cfg(tmp_path, f"{run}.json", cfg)]) == 0
            csvs.append((tmp_path / run / f"{cfg['flow']}_trajectory.csv").read_bytes())
        assert csvs[0] == csvs[1]
        summary = json.loads((tmp_path / "a" / f"{cfg['flow']}_summary.json").read_text())
        tel = summary["telemetry"]
        assert tel["accepted_steps"] > 0
        assert tel["rhs_calls"] == 1 + 6 * (tel["accepted_steps"] + tel["rejected_steps"])


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_summary_is_strict_json_with_non_finite_values(tmp_path):
    out = tmp_path / "out"
    huge = [[[0.0, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.0, 0.0]]]
    cfg = {
        "algebra": {"catalog": "solvable_2414"},
        "flow": "hs",
        "seed": {"metric": [[[1.0, 0.0], [0.3, 0.0]], [[0.3, 0.0], [1.0, 0.0]]], "beta": huge},
        "integrator": {"dt": 1e-2, "t_end": 1.0, "sample_every": 10},
        "output": {"directory": str(out), "prefix": "huge"},
    }
    assert cli.main(["run", write_cfg(tmp_path, "cfg.json", cfg)]) == cli.EXIT_INTEGRATOR
    summary = json.loads((out / "huge_summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["termination"] == "step_rejected"
    assert summary["initial_defects"]["closedness_defect"] == "nan"
    assert summary["monitor_max"]["closedness_defect"] == "nan"
    assert summary["final_state"]["beta_1_re"] == "inf"
    assert summary["final_state"]["beta_2_re"] == "-inf"
    assert summary["monitor_max"]["min_eigenvalue"] == pytest.approx(0.7)


_COLD_START = """
import sys
from pluriflow import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
sys.exit(code)
"""


@pytest.mark.parametrize("verb, cfg", [
    ("run", {"algebra": {"catalog": "heisenberg_kt"}, "flow": "pluriclosed",
             "integrator": {"dt": 1e-2, "t_end": 0.5, "sample_every": 10}}),
    ("run", {"algebra": {"catalog": "solvable_2414"}, "flow": "hs",
             "integrator": {"dt": 1e-2, "t_end": 0.5, "sample_every": 10}}),
    ("run", {"algebra": {"catalog": "random_2step_skt", "params": {"n": 3, "seed": 2}},
             "flow": "bracket_gauged",
             "integrator": {"dt": 1e-2, "t_end": 0.2, "sample_every": 5}}),
    ("verify", {"algebra": {"catalog": "random_2step_skt", "params": {"n": 3, "seed": 2}}}),
], ids=["heisenberg-pluriclosed", "solvable_2414-hs", "random-bracket_gauged", "verify"])
def test_catalog_commands_do_not_load_scipy(tmp_path, verb, cfg):
    # a fresh interpreter: this one has scipy loaded by other tests
    cfg = dict(cfg, seed="default", output={"directory": str(tmp_path / "out"), "prefix": "cold"})
    src = str(Path(pluriflow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", _COLD_START, verb,
                          write_cfg(tmp_path, "cfg.json", cfg)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    if verb == "run":
        summary = json.loads((tmp_path / "out" / "cold_summary.json").read_text())
        assert summary["termination"] == "reached_t_end"
        if cfg["flow"] == "hs":   # the closed form was evaluated
            assert summary["closed_form_max_relative_deviation"] < 1e-6
