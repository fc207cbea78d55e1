"""Batch front-end: run flows and verification reports from JSON configs.

Config layout (all matrices are row-major nested lists; complex entries
are [re, im] pairs)::

    {
      "algebra": {"catalog": "heisenberg_kt", "params": {}}
                 | {"structure_constants": [...], "J": [...], "frame": [...]},
      "flow": "pluriclosed" | "bracket" | "bracket_gauged" | "hs",
      "seed": "default" | {"metric": [[..]]} | {"metric": [[..]], "beta": [[..]]},
      "integrator": {"dt": 1e-3, "t_end": 10.0, "sample_every": 100,
                     "positivity_floor": 1e-8, "error_target": 1e-9,
                     "max_halvings": 16},
      "output": {"directory": ".", "prefix": "run"}
    }

``dt`` is the first step and the spacing of the sample grid, samples are
taken every ``sample_every`` grid points, and the adaptive steps in between
meet ``error_target / 10`` relative error each (see ``flows``).

Outputs: ``<prefix>_trajectory.csv`` with a commented header naming every
column, and ``<prefix>_summary.json``, whose ``telemetry`` block holds the
run's ``rhs_calls``, ``accepted_steps`` and ``rejected_steps``.  The
summary and the ``verify`` report are strict JSON: a non-finite number is
written as the string "nan", "inf" or "-inf".  The PLURIFLOW_OUTDIR
environment variable overrides the output directory.

Exit codes: 0 success, 2 validation failure, 3 blow-down before t_end,
4 integrator failure (a step below dt * 2**-max_halvings needed), 5 parse
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import catalog
from .errors import PluriflowError, ValidationError
from .hermitian_forms import (
    HermitianMetric,
    TamedForm,
    closedness_defect,
    d_mu,
    fundamental_form,
    skt_defect,
    taming_margin,
)
from .bismut_ricci import static_defect
from .flows import (
    BracketState,
    BracketWithGaugeState,
    FlowTrajectory,
    IntegratorConfig,
    MetricState,
    TamedState,
    bracket_flow,
    hs_flow,
    pluriclosed_flow,
)
from .lie_core import (
    LieBracket,
    center,
    from_real_structure,
    jacobi_defect,
    nijenhuis_defect,
    nilpotency_step,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWDOWN = 3
EXIT_INTEGRATOR = 4
EXIT_PARSE = 5


def _complex_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != 2:
        raise ValidationError("complex arrays must use [re, im] pairs in the last axis")
    return arr[..., 0] + 1j * arr[..., 1]


def _encode_complex(arr: np.ndarray):
    out = np.stack([np.asarray(arr).real, np.asarray(arr).imag], axis=-1)
    return out.tolist()


def _strict_json(obj):
    """obj with every non-finite float replaced by "nan", "inf" or "-inf"."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict_json(v) for v in obj]
    return obj


def _dump_json(obj, fh) -> None:
    json.dump(_strict_json(obj), fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def load_algebra(spec: dict) -> tuple[LieBracket, catalog.CatalogEntry | None]:
    if "catalog" in spec:
        entry = catalog.get(spec["catalog"], **spec.get("params", {}))
        return entry.bracket, entry
    if "structure_constants" in spec:
        c = np.asarray(spec["structure_constants"], dtype=float)
        J = np.asarray(spec["J"], dtype=float)
        frame = _complex_array(spec["frame"]) if "frame" in spec else None
        mu, _ = from_real_structure(c, J, frame)
        return mu, None
    raise ValidationError("algebra must name a catalog entry or give structure constants")


def load_seed(spec, entry: catalog.CatalogEntry | None, flow: str, n: int):
    if spec == "default" or spec is None:
        if entry is None:
            raise ValidationError("explicit algebras need an explicit seed")
        if flow == "hs":
            if entry.default_tamed is None:
                raise ValidationError(f"catalog entry {entry.name} has no tamed seed")
            return entry.default_tamed
        return entry.default_metric
    metric = HermitianMetric(_complex_array(spec["metric"]))
    if metric.n != n:
        raise ValidationError(f"seed dimension {metric.n} does not match algebra n={n}")
    if flow == "hs":
        beta = _complex_array(spec["beta"]) if "beta" in spec else None
        return TamedForm(metric, beta)
    return metric


def initial_report(mu: LieBracket, seed, flow: str) -> dict:
    g = seed.omega if isinstance(seed, TamedForm) else seed
    rep = {
        "jacobi_defect": jacobi_defect(mu),
        "nijenhuis_defect": nijenhuis_defect(mu),
        "skt_defect": skt_defect(mu, g),
    }
    if isinstance(seed, TamedForm):
        cd = closedness_defect(mu, seed)
        rep["closedness_defect"] = cd.defect
        rep["taming_margin"] = taming_margin(seed)
    return rep


def _state_parts(state) -> list[tuple[str, np.ndarray]]:
    if isinstance(state, MetricState):
        return [("g", state.g.matrix)]
    if isinstance(state, BracketState):
        return [("mu", state.mu.coeffs)]
    if isinstance(state, BracketWithGaugeState):
        return [("mu", state.mu.coeffs), ("h", state.h)]
    if isinstance(state, TamedState):
        return [("g", state.g.matrix), ("beta", state.beta)]
    raise ValidationError(f"unknown state type {type(state)!r}")


def _state_values(state) -> list[float]:
    """Real and imaginary parts of every state entry, interleaved, as floats."""
    vals: list[float] = []
    for _, arr in _state_parts(state):
        a = np.asarray(arr, dtype=complex).reshape(-1)
        vals += np.stack([a.real, a.imag], -1).ravel().tolist()
    return vals


def _state_columns(state) -> tuple[list[str], list[float]]:
    names = [f"{prefix}_{idx}_{part}"
             for prefix, arr in _state_parts(state)
             for idx in range(np.size(arr))
             for part in ("re", "im")]
    return names, _state_values(state)


def write_trajectory(path: str, traj: FlowTrajectory) -> None:
    monitor_names = sorted(traj.monitors)
    with open(path, "w") as fh:
        names, _ = _state_columns(traj.states[0])
        header = ["t"] + names + monitor_names
        fh.write("# " + ",".join(header) + "\n")
        for i, (t, state) in enumerate(zip(traj.times, traj.states)):
            row = [float(t)] + _state_values(state) + [traj.monitors[m][i] for m in monitor_names]
            fh.write(",".join(map(repr, row)) + "\n")


def closed_form_deviation(entry: catalog.CatalogEntry, flow: str, seed,
                          traj: FlowTrajectory) -> float | None:
    cf = entry.closed_forms.get(flow if flow != "bracket_gauged" else "bracket")
    if cf is None:
        return None
    if flow == "pluriclosed":
        seed_state = seed.matrix
        extract = lambda s: s.g.matrix
    elif flow in ("bracket", "bracket_gauged"):
        seed_state = entry.bracket.coeffs
        extract = lambda s: s.mu.coeffs
    else:
        seed_state = (seed.omega.matrix, seed.beta)
        extract = lambda s: (s.g.matrix, s.beta)
    if not cf.applies_to(seed_state):
        return None
    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        exact = cf.evaluate(seed_state, t)
        got = extract(state)
        if isinstance(exact, tuple):
            for e, g_ in zip(exact, got):
                scale = max(np.abs(e).max(), 1e-12)
                worst = max(worst, float(np.abs(e - g_).max() / scale))
        else:
            scale = max(np.abs(exact).max(), 1e-12)
            worst = max(worst, float(np.abs(exact - got).max() / scale))
    return worst


def run_config(cfg: dict) -> int:
    mu, entry = load_algebra(cfg["algebra"])
    flow = cfg.get("flow", "pluriclosed")
    if flow not in ("pluriclosed", "bracket", "bracket_gauged", "hs"):
        raise ValidationError(f"unknown flow kind {flow!r}")
    seed = load_seed(cfg.get("seed", "default"), entry, flow, mu.n)
    icfg = IntegratorConfig(**cfg.get("integrator", {}))
    out = cfg.get("output", {})
    outdir = os.environ.get("PLURIFLOW_OUTDIR", out.get("directory", "."))
    prefix = out.get("prefix", "run")
    os.makedirs(outdir, exist_ok=True)

    report = initial_report(mu, seed, flow)
    if flow == "pluriclosed":
        traj = pluriclosed_flow(mu, seed, icfg)
    elif flow in ("bracket", "bracket_gauged"):
        traj = bracket_flow(mu, icfg, with_gauge=(flow == "bracket_gauged"))
    else:
        traj = hs_flow(mu, seed, icfg)

    traj_path = os.path.join(outdir, f"{prefix}_trajectory.csv")
    write_trajectory(traj_path, traj)

    final_names, final_vals = _state_columns(traj.final_state())
    summary = {
        "flow": flow,
        "algebra": cfg["algebra"],
        "initial_defects": report,
        "termination": traj.termination,
        "t_final": traj.times[-1],
        "final_state": dict(zip(final_names, final_vals)),
        "monitor_max": {k: traj.monitor_max(k) for k in traj.monitors},
        "telemetry": traj.stats,
    }
    if entry is not None:
        dev = closed_form_deviation(entry, flow, seed, traj)
        if dev is not None:
            summary["closed_form_max_relative_deviation"] = dev
    summary_path = os.path.join(outdir, f"{prefix}_summary.json")
    with open(summary_path, "w") as fh:
        _dump_json(summary, fh)

    if traj.termination == "positivity_floor":
        return EXIT_BLOWDOWN
    if traj.termination == "step_rejected":
        return EXIT_INTEGRATOR
    return EXIT_OK


def verify_config(cfg: dict) -> int:
    mu, entry = load_algebra(cfg["algebra"])
    flow = cfg.get("flow", "pluriclosed")
    seed = load_seed(cfg.get("seed", "default"), entry, flow, mu.n)
    g = seed.omega if isinstance(seed, TamedForm) else seed
    report = initial_report(mu, seed, flow)
    report["nilpotency_step"] = nilpotency_step(mu)
    report["center_dim"] = center(mu).dim
    domega = d_mu(mu, fundamental_form(g)).max_norm()
    report["domega_norm"] = domega
    report["kahler"] = bool(domega < 1e-10 and report["skt_defect"] < 1e-10)
    fit = static_defect(mu, g, 0.0)
    report["static_fit"] = {"r_best": fit.r_best, "residual_best": fit.residual_best,
                            "defect_at_r0": fit.defect}
    _dump_json(report, sys.stdout)
    return EXIT_OK


def catalog_listing() -> int:
    for name in catalog.names():
        print(name)
    return EXIT_OK


def export_config(cfg: dict) -> dict:
    """Round-trip helper: catalog entry -> explicit structure constants."""
    mu, _ = load_algebra(cfg["algebra"])
    from .lie_core import export_real_structure

    c, J, frame = export_real_structure(mu)
    return {
        "structure_constants": c.tolist(),
        "J": J.tolist(),
        "frame": _encode_complex(frame),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pluriflow",
                                     description="invariant Hermitian flows on Lie algebras")
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="integrate a flow from a JSON config")
    p_run.add_argument("config")
    p_ver = sub.add_parser("verify", help="print structural report for an algebra/seed")
    p_ver.add_argument("config")
    sub.add_parser("catalog", help="list built-in algebras")
    args = parser.parse_args(argv)

    if args.verb == "catalog":
        return catalog_listing()

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.verb == "run":
            return run_config(cfg)
        return verify_config(cfg)
    except (ValidationError, KeyError, TypeError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PluriflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR


if __name__ == "__main__":
    sys.exit(main())
