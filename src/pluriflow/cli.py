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
run's ``rhs_calls``, ``accepted_steps`` and ``rejected_steps``.  Every CSV
value is Python's ``repr`` of a float64, the shortest string that reads
back to the same float, and each state entry's real and imaginary parts
sit in adjacent columns.  The summary and the ``verify`` report are strict
JSON: a non-finite number is written as the string "nan", "inf" or "-inf".
The PLURIFLOW_OUTDIR environment variable overrides the output directory.

Exit codes: 0 success, 2 validation failure (Jacobi included, a missing key
or a wrong type while the config is read, and an output location that cannot
be used), 3 blow-down before t_end,
4 integrator failure (a step below dt * 2**-max_halvings needed) or a
non-integrable bracket, 5 parse error.  Once the arguments parse, each exit
from 2 to 5 prints one ``error:`` line on stderr.  A run that ends at 3 or 4
still writes its CSV and summary, and its line names the cause and the time
reached.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
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
    require_integrable,
    skt_defect,
    taming_margin,
)
from .bismut_ricci import static_defect
from .connections import require_jacobi
from .flows import FlowTrajectory, IntegratorConfig, bracket_flow, hs_flow, pluriclosed_flow
from .lie_core import LieBracket, center, from_real_structure, nilpotency_step

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWDOWN = 3
EXIT_INTEGRATOR = 4
EXIT_PARSE = 5

KAHLER_TOL = 1e-10   # |d omega| and the SKT defect below which ``verify`` reports kahler


def _real_array(data) -> np.ndarray:
    try:
        return np.asarray(data, dtype=float)
    except ValueError as exc:   # ragged nesting or a non-numeric entry
        raise ValidationError(f"malformed array: {exc}") from None


def _complex_array(data) -> np.ndarray:
    arr = _real_array(data)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValidationError("complex arrays must use [re, im] pairs in the last axis")
    return arr[..., 0] + 1j * arr[..., 1]


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
        c = _real_array(spec["structure_constants"])
        J = _real_array(spec["J"])
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
    """Judge the bracket (Nijenhuis, then Jacobi) and report the seed's defects."""
    require_integrable(mu)
    require_jacobi(mu)
    g = seed.omega if isinstance(seed, TamedForm) else seed
    rep = {"jacobi_defect": mu.jacobi, "nijenhuis_defect": mu.nijenhuis,
           "skt_defect": skt_defect(mu, g)}
    if isinstance(seed, TamedForm):
        rep["closedness_defect"] = closedness_defect(mu, seed)
        rep["taming_margin"] = taming_margin(seed)
    return rep


def _state_parts(state) -> list[tuple[str, np.ndarray]]:
    """(name, array) of each set field of a flow state, in field order; a
    metric contributes its matrix and a bracket its coefficients."""
    values = ((f.name, getattr(state, f.name)) for f in dataclasses.fields(state))
    return [(name, getattr(v, "matrix", getattr(v, "coeffs", v)))
            for name, v in values if v is not None]


def _state_vector(state) -> np.ndarray:
    """Real and imaginary parts of every state entry, interleaved, as float64."""
    return np.concatenate([np.ascontiguousarray(arr, dtype=complex).reshape(-1).view(np.float64)
                           for _, arr in _state_parts(state)])


def _state_columns(state) -> tuple[list[str], list[float]]:
    names = [f"{prefix}_{idx}_{part}"
             for prefix, arr in _state_parts(state)
             for idx in range(np.size(arr))
             for part in ("re", "im")]
    return names, _state_vector(state).tolist()


def _format_row(row: np.ndarray) -> str:
    """``",".join(map(repr, row))``, with one ``repr`` per distinct magnitude.

    ``repr`` of a float depends only on its bits, and ``repr(-x)`` is
    ``"-" + repr(x)`` for every x whose sign bit is clear, 0.0 and inf
    included.  So each value below zero is formatted as its negation with a
    "-" prefix; every other value (-0.0 and a NaN of either sign among them)
    keeps its own bits, and values with equal bits share one string.
    """
    neg = row < 0
    uniq, inverse = np.unique(np.where(neg, -row, row).view(np.uint64), return_inverse=True)
    texts = list(map(repr, uniq.view(np.float64).tolist()))
    table = np.array(texts + ["-" + s for s in texts], dtype=object)
    return ",".join(table[inverse + len(texts) * neg].tolist())


def write_trajectory(path: str, traj: FlowTrajectory) -> None:
    """Write the header and one row per sample: t, the state, the monitors.

    Each value is ``repr`` of a float64.  A bracket row repeats each
    magnitude about eight times (mu is antisymmetric and real), so
    ``_format_row`` formats each distinct one once; the bytes are those of
    a ``repr`` per value.  Rows are built and written one at a time, so
    memory does not grow with the length of the trajectory.
    """
    monitor_names = sorted(traj.monitors)
    with open(path, "w") as fh:
        names, _ = _state_columns(traj.states[0])
        header = ["t"] + names + monitor_names
        fh.write("# " + ",".join(header) + "\n")
        for i, (t, state) in enumerate(zip(traj.times, traj.states)):
            row = np.concatenate([[t], _state_vector(state),
                                  [traj.monitors[m][i] for m in monitor_names]])
            fh.write(_format_row(row) + "\n")


def closed_form_deviation(entry: catalog.CatalogEntry, flow: str,
                          traj: FlowTrajectory) -> float | None:
    """Largest relative deviation of the run from the entry's closed form.

    The closed form evolves every state part but the gauge h from the
    first state, which is the seed; None if the entry has none that applies.
    """
    cf = entry.closed_forms.get(flow if flow != "bracket_gauged" else "bracket")
    if cf is None:
        return None

    def evolved(state) -> list[np.ndarray]:
        return [arr for name, arr in _state_parts(state) if name != "h"]

    seed = evolved(traj.states[0])
    seed_state = seed[0] if len(seed) == 1 else tuple(seed)
    if not cf.applies_to(seed_state):
        return None
    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        exact = cf.evaluate(seed_state, t)
        for e, got in zip(exact if len(seed) > 1 else [exact], evolved(state)):
            worst = max(worst, float(np.abs(e - got).max() / max(np.abs(e).max(), 1e-12)))
    return worst


@contextlib.contextmanager
def _reading_config():
    """A missing key or a wrongly typed value met while reading the config is
    a ValidationError; raised anywhere else, these are program faults."""
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise ValidationError(str(exc)) from exc


def _load(cfg: dict):
    """(bracket, catalog entry or None, flow kind, seed, initial report), judged."""
    with _reading_config():
        mu, entry = load_algebra(cfg["algebra"])
        flow = cfg.get("flow", "pluriclosed")
        if flow not in ("pluriclosed", "bracket", "bracket_gauged", "hs"):
            raise ValidationError(f"unknown flow kind {flow!r}")
        seed = load_seed(cfg.get("seed", "default"), entry, flow, mu.n)
    return mu, entry, flow, seed, initial_report(mu, seed, flow)


def run_config(cfg: dict) -> int:
    mu, entry, flow, seed, report = _load(cfg)
    with _reading_config():
        icfg = IntegratorConfig(**cfg.get("integrator", {}))
        out = cfg.get("output", {})
        if not isinstance(out, dict):
            raise ValidationError("output must be an object")
        outdir = os.environ.get("PLURIFLOW_OUTDIR", out.get("directory", "."))
        stem = os.path.join(outdir, str(out.get("prefix", "run")))
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create output directory {outdir!r}: {exc.strerror}") from None
        if not os.path.isdir(os.path.dirname(stem)):
            raise ValidationError(f"output prefix {stem!r} is not in an existing directory")

    if flow == "pluriclosed":
        traj = pluriclosed_flow(mu, seed, icfg)
    elif flow in ("bracket", "bracket_gauged"):
        traj = bracket_flow(mu, icfg, with_gauge=(flow == "bracket_gauged"))
    else:
        traj = hs_flow(mu, seed, icfg)

    write_trajectory(f"{stem}_trajectory.csv", traj)

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
        dev = closed_form_deviation(entry, flow, traj)
        if dev is not None:
            summary["closed_form_max_relative_deviation"] = dev
    with open(f"{stem}_summary.json", "w") as fh:
        _dump_json(summary, fh)

    t = traj.times[-1]
    if traj.termination == "positivity_floor":
        print(f"error: blow-down at t = {t!r}: the smallest metric eigenvalue fell below "
              f"positivity_floor = {icfg.positivity_floor!r} times its initial value",
              file=sys.stderr)
        return EXIT_BLOWDOWN
    if traj.termination == "step_rejected":
        print(f"error: step rejected at t = {t!r}: the controller needs a step below "
              f"dt * 2**-max_halvings = {math.ldexp(icfg.dt, -icfg.max_halvings)!r}",
              file=sys.stderr)
        return EXIT_INTEGRATOR
    return EXIT_OK


def verify_config(cfg: dict) -> int:
    mu, _, _, seed, report = _load(cfg)
    g = seed.omega if isinstance(seed, TamedForm) else seed
    report["nilpotency_step"] = nilpotency_step(mu)
    report["center_dim"] = center(mu).dim
    domega = d_mu(mu, fundamental_form(g)).max_norm()
    report["domega_norm"] = domega
    report["kahler"] = bool(domega < KAHLER_TOL and report["skt_defect"] < KAHLER_TOL)
    fit = static_defect(mu, g, 0.0)
    report["static_fit"] = {"r_best": fit.r_best, "residual_best": fit.residual_best,
                            "defect_at_r0": fit.defect}
    _dump_json(report, sys.stdout)
    return EXIT_OK


def catalog_listing() -> int:
    for name in catalog.names():
        print(name)
    return EXIT_OK


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
    except ValidationError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PluriflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR


if __name__ == "__main__":
    sys.exit(main())
