"""Span tracing from outside the program, for the traced run.

Each public function named in LAYERS is wrapped, and the wrapper replaces
the original under every name that points at it in every loaded
``pluriflow`` module, because ``from .x import f`` makes a separate binding
(``flows.d_mu``, ``cli.skt_defect`` ...).  Right-hand-side calls are counted
by wrapping the field passed to ``flows.step`` once per grid step; the
recursive halvings receive the already wrapped field.

A span is (name, start, end, parent span, op id, algebra size n).  Spans stay
in memory in flat arrays and are written out once, when the run ends.  A
span's self time is its duration minus the durations of its child spans;
calls are sequential, so the children never overlap.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "flows": ["step"],
    "bismut_ricci": ["eta_components", "rho11_matrix", "rho20_matrix", "rho_B",
                     "p_of_bracket", "p_of_metric"],
    "hermitian_forms": ["d_mu", "d_mu_tensor", "codifferential", "skt_defect", "form_inner",
                        "closedness_defect", "taming_margin"],
    "lie_core": ["center", "jacobi_defect", "nijenhuis_defect", "nilpotency_step",
                 "principal_angles", "act", "symmetrize_bracket"],
    "connections": ["ricci_forms", "levi_civita", "bismut", "curvature"],
    "catalog": ["get"],
    "cli": ["write_trajectory", "closed_form_deviation", "initial_report", "verify_config"],
}

STEP = "flows.step"
HALVING = "flows.step.halving"   # recursive step calls after a rejected grid step
RHS = "flows.rhs"

# Functions whose per-call self time is reported for each algebra size n.
# d_mu_tensor and form_inner are where skt_defect and d_mu spend their time.
SIZE_SWEEP = ["connections.ricci_forms", "hermitian_forms.skt_defect",
              "hermitian_forms.codifferential", "hermitian_forms.d_mu.deg1",
              "hermitian_forms.d_mu.deg2", "hermitian_forms.d_mu.deg3",
              "hermitian_forms.d_mu_tensor", "hermitian_forms.form_inner",
              "lie_core.center", "lie_core.nilpotency_step"]
SIZES = (2, 3, 4, 5)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("b")
        self.bytes_written = array("q")   # (op id, size) pairs, flattened
        self._stack = [-1]
        self.current_op = -1
        self._bindings: list[tuple] = []   # (module, attribute, original, wrapper)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, nid: int, size: int, fn, args, kwargs):
        sid = len(self.start)
        self.name.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.size.append(size)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = time.perf_counter()
            self.start[sid] = t0
            self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._id(name)
        call = self._call

        def wrapper(*args, **kwargs):
            return call(nid, getattr(args[0], "n", 0) if args else 0, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_d_mu_tensor(self, fn):
        nid = self._id("hermitian_forms.d_mu_tensor")
        call = self._call

        def wrapper(m, T, n):
            return call(nid, n, fn, (m, T, n), {})

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_d_mu(self, fn):
        call, ident = self._call, self._id

        def wrapper(mu, form, *args, **kwargs):
            nid = ident(f"hermitian_forms.d_mu.deg{form.degree}")
            return call(nid, mu.n, fn, (mu, form) + args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_step(self, fn):
        call, step_id, halving_id = self._call, self._id(STEP), self._id(HALVING)
        rhs_id = self._id(RHS)

        def traced_field(f):
            def field(y):
                return call(rhs_id, 0, f, (y,), {})

            field.is_traced_rhs = True
            return field

        def wrapper(f, y, dt, *args, **kwargs):
            # step(f, y, dt, error_target, max_halvings, _depth): halvings recurse with depth > 0
            depth = args[2] if len(args) > 2 else kwargs.get("_depth", 0)
            if not getattr(f, "is_traced_rhs", False):
                f = traced_field(f)
            return call(halving_id if depth else step_id, 0, fn, (f, y, dt) + args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_write_trajectory(self, fn):
        inner = self.wrap(fn, "cli.write_trajectory")
        record = self.bytes_written

        def wrapper(path, traj):
            try:
                return inner(path, traj)
            finally:
                record.extend((self.current_op, os.path.getsize(path)))

        wrapper.__wrapped__ = fn
        return wrapper

    def enable(self) -> None:
        """Wrap every function in LAYERS under all of its bindings in pluriflow."""
        if not self._bindings:
            self._find_bindings()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        """Put the original functions back."""
        for mod, attr, orig, _ in self._bindings:
            setattr(mod, attr, orig)

    def _find_bindings(self) -> None:
        import importlib

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pluriflow" or name.startswith("pluriflow."))]
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"pluriflow.{mod_name}")
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                if (mod_name, fn_name) == ("flows", "step"):
                    wrapper = self._wrap_step(orig)
                elif (mod_name, fn_name) == ("hermitian_forms", "d_mu"):
                    wrapper = self._wrap_d_mu(orig)
                elif (mod_name, fn_name) == ("hermitian_forms", "d_mu_tensor"):
                    wrapper = self._wrap_d_mu_tensor(orig)
                elif (mod_name, fn_name) == ("cli", "write_trajectory"):
                    wrapper = self._wrap_write_trajectory(orig)
                else:
                    wrapper = self.wrap(orig, f"{mod_name}.{fn_name}")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._bindings.append((m, attr, orig, wrapper))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, op_pass: dict[int, int], op_flow: dict[int, str],
                  pass_walls: list[float], untraced_walls: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and their sample counts.

    ``op_pass`` maps each traced op id to its pass index, ``op_flow`` to its
    flow kind; spans outside timed ops (input generation) are ignored.
    """
    a = tracer.arrays()
    npass = len(pass_walls)
    names = tracer.names
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_t = dur - child

    # index -1 (spans outside any op) reads the trailing sentinel
    nops = int(a["op"].max()) + 1 if len(a["op"]) else 0
    pass_idx = np.array([op_pass.get(o, -1) for o in range(nops)] + [-1])
    span_pass = pass_idx[a["op"]]
    keep = span_pass >= 0
    self_sum = np.zeros((npass, len(names)))
    total_sum = np.zeros((npass, len(names)))
    calls = np.zeros((npass, len(names)))
    np.add.at(self_sum, (span_pass[keep], a["name"][keep]), self_t[keep])
    np.add.at(total_sum, (span_pass[keep], a["name"][keep]), dur[keep])
    np.add.at(calls, (span_pass[keep], a["name"][keep]), 1)

    def col(table, name):
        if name not in tracer._ids:
            return np.zeros(npass)
        return table[:, tracer._ids[name]]

    out: dict[str, float] = {}
    samples: dict[str, int] = {}

    def put(metric, per_pass):
        out[metric] = _median(per_pass)
        samples[metric] = npass

    walls = np.asarray(pass_walls)
    for mod_name, fns in LAYERS.items():
        for fn_name in fns:
            if (mod_name, fn_name) in (("flows", "step"), ("hermitian_forms", "d_mu")):
                continue
            name = f"{mod_name}.{fn_name}"
            put(f"{name}.self_s", col(self_sum, name))
            put(f"{name}.calls", col(calls, name))
    for deg in (1, 2, 3):
        name = f"hermitian_forms.d_mu.deg{deg}"
        put(f"{name}.self_s", col(self_sum, name))
        put(f"{name}.calls", col(calls, name))

    grid = col(calls, STEP)
    rhs_calls = col(calls, RHS)
    put("flows.step.grid_steps", grid)
    put("flows.step.halvings", col(calls, HALVING))
    put("flows.step.self_s", col(self_sum, STEP) + col(self_sum, HALVING))
    put("flows.rhs.calls", rhs_calls)
    put("flows.rhs.self_s", col(self_sum, RHS))
    put("flows.rhs_per_grid_step", np.divide(rhs_calls, grid, out=np.zeros(npass), where=grid > 0))
    put("flows.rhs.wall_share", col(total_sum, RHS) / walls)

    # eta_components calls per RHS call of the hs flow, counted within hs ops
    hs_ops = np.array([op_flow.get(o) == "hs" for o in range(nops)] + [False])
    in_hs = keep & hs_ops[a["op"]]
    eta = np.sum(in_hs & (a["name"] == tracer._ids.get("bismut_ricci.eta_components", -1)))
    hs_rhs = np.sum(in_hs & (a["name"] == tracer._ids.get(RHS, -1)))
    out["bismut_ricci.eta_components.per_hs_rhs"] = float(eta / hs_rhs) if hs_rhs else 0.0
    samples["bismut_ricci.eta_components.per_hs_rhs"] = int(hs_rhs)

    written = np.frombuffer(tracer.bytes_written, dtype=np.int64).reshape(-1, 2)
    per_pass_bytes = np.zeros(npass)
    for op_id, size in written:
        p = op_pass.get(int(op_id), -1)
        if p >= 0:
            per_pass_bytes[p] += size
    put("cli.write_trajectory.bytes", per_pass_bytes)

    for name in SIZE_SWEEP:
        nid = tracer._ids.get(name, -1)
        for n in SIZES:
            sel = keep & (a["name"] == nid) & (a["size"] == n)
            out[f"{name}.n{n}.self_s"] = _median(self_t[sel])
            samples[f"{name}.n{n}.self_s"] = int(sel.sum())

    roots = keep & (a["parent"] < 0)
    covered = np.zeros(npass)
    np.add.at(covered, span_pass[roots], dur[roots])
    put("unattributed_s", walls - covered)
    out["trace_overhead_frac"] = _median(walls) / _median(untraced_walls) - 1.0
    samples["trace_overhead_frac"] = npass
    return out, samples
