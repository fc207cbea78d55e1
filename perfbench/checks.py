"""Output checks.  An op that fails any of them counts as failed, never dropped.

Gates are the ones the acceptance suite uses: 1e-6 on closed-form deviation
(criteria 01-03) and on the gauge defect (criterion 04), 1e-10 on the two
Ricci checks (criteria 05 and 06), and the program's own
``IntegratorConfig.defect_tolerances`` on monitor maxima.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

CLOSED_FORM_GATE = 1e-6
GAUGE_GATE = 1e-6
RICCI_GATE = 1e-10


def read_flow_outputs(op) -> tuple[bytes, dict]:
    """Trajectory CSV bytes and parsed summary of a flow op; missing files read as empty."""
    try:
        with open(op.csv_path, "rb") as fh:
            csv_bytes = fh.read()
    except OSError:
        csv_bytes = b""
    try:
        with open(op.summary_path) as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError):
        summary = {}
    return csv_bytes, summary


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _last_row(csv_bytes: bytes) -> dict[str, float]:
    lines = csv_bytes.decode("ascii", errors="replace").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        return {}
    header = lines[0][2:].split(",")
    row = lines[-1].split(",")
    if len(row) != len(header):
        return {}
    try:
        return {name: float(v) for name, v in zip(header, row)}
    except ValueError:
        return {}


def _state_arrays(final_state: dict) -> dict[str, np.ndarray]:
    """Rebuild the complex state arrays from `<prefix>_<idx>_<re|im>` columns."""
    parts: dict[str, dict[int, complex]] = {}
    for key, value in final_state.items():
        prefix, idx, part = key.rsplit("_", 2)
        slot = parts.setdefault(prefix, {})
        slot[int(idx)] = slot.get(int(idx), 0.0) + (value if part == "re" else 1j * value)
    return {p: np.array([v[i] for i in sorted(v)]) for p, v in parts.items()}


def _rel_dev(exact: np.ndarray, got: np.ndarray) -> float:
    exact = np.asarray(exact).reshape(-1)
    got = np.asarray(got).reshape(-1)
    if exact.shape != got.shape:
        return float("inf")
    return float(np.abs(exact - got).max() / max(np.abs(exact).max(), 1e-12))


def check_flow(op, exit_code: int, csv_bytes: bytes, summary: dict,
               reference_digest: str | None, tolerances: dict) -> list[str]:
    """Problems with one `pluriflow run`; an empty list means the op passed."""
    from pluriflow.cli import EXIT_OK

    problems = []
    if exit_code != EXIT_OK:
        problems.append(f"exit code {exit_code}, expected {EXIT_OK}")
    if not summary or not csv_bytes:
        return problems + ["missing summary or trajectory"]
    if summary.get("termination") != "reached_t_end":
        problems.append(f"termination {summary.get('termination')!r}")
    t_final = summary.get("t_final", float("nan"))
    if not abs(t_final - op.t_end) <= 1e-9:
        problems.append(f"t_final {t_final!r}, expected {op.t_end}")

    monitor_max = summary.get("monitor_max", {})
    for name, tol in tolerances.items():
        if name in monitor_max and not monitor_max[name] <= tol:
            problems.append(f"monitor {name} max {monitor_max[name]!r} above {tol}")
    if op.flow == "bracket_gauged" and not monitor_max.get("gauge_defect", float("nan")) <= GAUGE_GATE:
        problems.append(f"gauge_defect {monitor_max.get('gauge_defect')!r} above {GAUGE_GATE}")

    final_state = summary.get("final_state", {})
    last = _last_row(csv_bytes)
    if not final_state or any(last.get(k) != v for k, v in final_state.items()):
        problems.append("final state differs from the last trajectory row")

    if op.seed_state is not None:
        dev = summary.get("closed_form_max_relative_deviation")
        if dev is None or not dev <= CLOSED_FORM_GATE:
            problems.append(f"closed-form deviation {dev!r} above {CLOSED_FORM_GATE}")
        exact = op.entry.closed_forms[op.flow].evaluate(op.seed_state, op.t_end)
        got = _state_arrays(final_state)
        if op.flow == "hs":
            recheck = max(_rel_dev(exact[0], got.get("g", [])), _rel_dev(exact[1], got.get("beta", [])))
        else:
            recheck = _rel_dev(exact, got.get("g", []))
        if not recheck <= CLOSED_FORM_GATE:
            problems.append(f"final state off the closed form by {recheck:.3e}")

    if reference_digest is not None and digest(csv_bytes) != reference_digest:
        problems.append("trajectory CSV differs from an earlier run of the same config")
    return problems


def check_ricci(exit_code: int, report_text: str, rho_trace: np.ndarray,
                rho_direct: np.ndarray, rho_c: np.ndarray) -> list[str]:
    """Problems with one static_ricci op; an empty list means the op passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exit code {exit_code}")
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict) or "skt_defect" not in report:
        problems.append("verify report is not a JSON defect report")
    scale = max(float(np.abs(rho_direct).max()), 1.0)
    cross = float(np.abs(rho_trace - rho_direct).max()) / scale
    if not cross <= RICCI_GATE:
        problems.append(f"criterion 05: rho_B paths differ by {cross:.3e} (relative)")
    chern = float(np.abs(rho_c).max())
    if not chern <= RICCI_GATE:
        problems.append(f"criterion 06: rho_C max norm {chern:.3e}")
    return problems
