"""Seeded inputs for the three benchmark workloads.

Every input the program sees is generated here from the workload seed:
catalog parameters, Hermitian metrics, tamed forms and run configs in the
README's JSON layout.  The same seed always gives the same inputs.  Why each
workload exists is written down in WORKLOADS.md beside this file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("fixed_grid", "dense_monitors", "static_ricci")

# fixed_grid: t_end per flow is chosen so that each flow takes about one
# second on a 2-core x86 machine and none dominates the pass.
FIXED_GRID_T_END = {"heisenberg": 2.0, "hs": 1.0, "bracket_gauged": 5.0}
DENSE_T_END = 0.5

# static_ricci: ops per pass for each algebra size n.  Sorted by latency
# (n=2 fastest, n=5 slowest) the groups cover 0-30%, 30-70%, 70-80% and
# 80-100% of the ops, so p50 lies mid-way in the n=3 group and p90 mid-way
# in the n=5 group instead of on a boundary between two sizes.
RICCI_MIX = {2: 6, 3: 8, 4: 2, 5: 4}
# batch 0 is the warm-up, one op per size; timed passes use batches 1, 2, ...
RICCI_WARMUP_MIX = {2: 1, 3: 1, 4: 1, 5: 1}


@dataclass
class FlowOp:
    """One `pluriflow run` of a generated config file."""

    name: str
    flow: str
    config_path: str
    csv_path: str
    summary_path: str
    t_end: float
    entry: object                # catalog entry, for the closed-form re-check
    seed_state: object = None    # closed-form seed state, None if no closed form applies


@dataclass
class RicciOp:
    """One (algebra, metric) analysis through public library functions."""

    name: str
    n: int
    cfg: dict
    mu: object
    g: object


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _algebra_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def _encode(matrix: np.ndarray) -> list:
    m = np.asarray(matrix, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _general_metric_2x2(rng: np.random.Generator) -> np.ndarray:
    """The criterion-02 family: x0, y0 in [0.5, 2], |z0| < 0.8 sqrt(x0 y0)."""
    x0 = rng.uniform(0.5, 2.0)
    y0 = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    z0 = rng.uniform(0.0, 0.8) * np.sqrt(x0 * y0) * np.exp(1j * phase)
    return np.array([[x0, z0], [np.conj(z0), y0]])


def _random_metric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive definite Hermitian matrix with moderate conditioning."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n + 0.5 * np.eye(n)


def _flow_op(workdir: str, name: str, flow: str, algebra: dict, seed, integrator: dict,
             entry, seed_state=None) -> FlowOp:
    outdir = os.path.join(workdir, "out")
    cfg = {
        "algebra": algebra,
        "flow": flow,
        "seed": seed,
        "integrator": integrator,
        "output": {"directory": outdir, "prefix": name},
    }
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return FlowOp(
        name=name,
        flow=flow,
        config_path=path,
        csv_path=os.path.join(outdir, f"{name}_trajectory.csv"),
        summary_path=os.path.join(outdir, f"{name}_summary.json"),
        t_end=integrator["t_end"],
        entry=entry,
        seed_state=seed_state,
    )


def fixed_grid(seed: int, workdir: str) -> list[FlowOp]:
    from pluriflow import catalog

    rng = _rng(seed, 1)
    G = _general_metric_2x2(rng)
    heis = catalog.get("heisenberg_kt")

    # closed-form tamed family on solvable_2414: beta01 = i G01
    H = _general_metric_2x2(rng)
    beta = np.array([[0.0, 1j * H[0, 1]], [-1j * H[0, 1], 0.0]])
    solv = catalog.get("solvable_2414")

    params = {"n": 4, "seed": _algebra_seed(rng)}
    rand = catalog.get("random_2step_skt", **params)

    t = FIXED_GRID_T_END
    return [
        _flow_op(workdir, "heisenberg", "pluriclosed", {"catalog": "heisenberg_kt"},
                 {"metric": _encode(G)},
                 {"dt": 1e-3, "t_end": t["heisenberg"], "sample_every": 100},
                 heis, seed_state=G),
        _flow_op(workdir, "hs", "hs", {"catalog": "solvable_2414"},
                 {"metric": _encode(H), "beta": _encode(beta)},
                 {"dt": 1e-3, "t_end": t["hs"], "sample_every": 100},
                 solv, seed_state=(H, beta)),
        _flow_op(workdir, "bracket_gauged", "bracket_gauged",
                 {"catalog": "random_2step_skt", "params": params}, "default",
                 {"dt": 1e-2, "t_end": t["bracket_gauged"], "sample_every": 100},
                 rand),
    ]


def dense_monitors(seed: int, workdir: str) -> list[FlowOp]:
    from pluriflow import catalog

    rng = _rng(seed, 2)
    params = {"n": 5, "seed": _algebra_seed(rng)}
    entry = catalog.get("random_2step_skt", **params)
    algebra = {"catalog": "random_2step_skt", "params": params}
    integrator = {"dt": 1e-2, "t_end": DENSE_T_END, "sample_every": 1}
    return [
        _flow_op(workdir, "pluriclosed", "pluriclosed", algebra, "default", integrator, entry),
        _flow_op(workdir, "bracket", "bracket", algebra, "default", integrator, entry),
    ]


def ricci_ops(seed: int, batch: int, mix: dict[int, int] = RICCI_MIX) -> list[RicciOp]:
    """One batch of static_ricci ops; every batch has fresh algebras and metrics."""
    from pluriflow import catalog
    from pluriflow.hermitian_forms import HermitianMetric

    rng = _rng(seed, 3, batch)
    sizes = [n for n, count in sorted(mix.items()) for _ in range(count)]
    rng.shuffle(sizes)
    ops = []
    for i, n in enumerate(sizes):
        params = {"n": int(n), "seed": _algebra_seed(rng)}
        entry = catalog.get("random_2step_skt", **params)
        G = _random_metric(rng, int(n))
        cfg = {
            "algebra": {"catalog": "random_2step_skt", "params": params},
            "flow": "pluriclosed",
            "seed": {"metric": _encode(G)},
        }
        ops.append(RicciOp(name=f"b{batch}-{i}-n{n}", n=int(n), cfg=cfg,
                           mu=entry.bracket, g=HermitianMetric(G)))
    return ops


def build(name: str, seed: int, workdir: str) -> list:
    """Generate the ops of a workload's first pass, writing configs under workdir."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    if name == "fixed_grid":
        return fixed_grid(seed, workdir)
    if name == "dense_monitors":
        return dense_monitors(seed, workdir)
    if name == "static_ricci":
        return ricci_ops(seed, 1)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
