"""pluriflow benchmark: one workload per process, metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixed_grid --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run; BENCHMARK.json lists both with
their units.  Every op's outputs are checked (checks.py); the last line of
standard output is {"correct", "attempted", "failed", "metrics"}.
Inputs come from --seed only (workloads.py).  Exit code 2 means the program
could not be found or the arguments are wrong; no result line is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUP_PROBES = 5      # timed set-ups per run, after one untimed one that warms file caches
PROBE_SHARE = 0.25        # a probe follows a pass while probes took at most this share of pass time
MIN_PASSES = 2


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


class SetupProbe:
    """Times set-up in fresh child processes, spread over the run.

    The first, untimed probe compiles byte code and warms the file cache.
    Later probes run between timed passes, so they see the same machine
    state as the passes do.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.args = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.workdir = workdir
        self.samples: list[float] = []
        self.spent = 0.0
        self.probe()
        self.samples.clear()
        self.spent = 0.0

    def probe(self) -> None:
        t0 = time.perf_counter()
        probe_dir = self.workdir / f"setup{len(self.samples)}"
        res = subprocess.run(self.args + [str(probe_dir)],
                             capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
        shutil.rmtree(probe_dir, ignore_errors=True)
        self.spent += time.perf_counter() - t0


class Runner:
    """Runs ops, times them, checks their outputs and counts failures."""

    def __init__(self, tolerances: dict, tracer=None):
        from pluriflow import bismut_ricci, cli, connections

        self.cli, self.connections, self.bismut_ricci = cli, connections, bismut_ricci
        self.tolerances = tolerances
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()
        self.references: dict[str, str] = {}
        self.next_op = 0
        self.op_pass: dict[int, int] = {}
        self.op_flow: dict[int, str] = {}

    def _execute(self, op):
        if isinstance(op, workloads.FlowOp):
            return self.cli.main(["run", op.config_path])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.verify_config(op.cfg)
        return (code, out.getvalue(), self.connections.ricci_forms(op.mu, op.g),
                self.bismut_ricci.rho_B(op.mu, op.g))

    def _check(self, op, result) -> list[str]:
        if isinstance(op, workloads.FlowOp):
            csv_bytes, summary = checks.read_flow_outputs(op)
            ref = self.references.setdefault(op.name, checks.digest(csv_bytes))
            return checks.check_flow(op, result, csv_bytes, summary, ref, self.tolerances)
        code, report, data, direct = result
        return checks.check_ricci(code, report, data.rho_b_trace.tensor, direct.tensor,
                                  data.rho_c.tensor)

    def run(self, op, pass_index: int) -> tuple[float, float]:
        """Run one op; returns its wall and CPU seconds, checks excluded."""
        op_id = self.next_op
        self.next_op += 1
        self.op_pass[op_id] = pass_index
        self.op_flow[op_id] = getattr(op, "flow", "static")
        if self.tracer is not None:
            self.tracer.current_op = op_id
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result, error = self._execute(op), None
        except Exception:  # an op that raises is a failed op, and the run goes on
            result, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if self.tracer is not None:
            self.tracer.current_op = -1
        if error is None:
            try:
                problems = self._check(op, result)
            except Exception:  # a check that cannot read the outputs fails the op
                error = traceback.format_exc()
        if error is not None:
            problems = ["raised " + error.strip().splitlines()[-1]]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.update(problems)
        return wall, cpu


def run_passes(runner: Runner, pass_ops, seconds: float, setup: SetupProbe | None = None) -> dict:
    """Repeat passes until the next one would end after `seconds`.

    When the runner has a tracer, passes alternate untraced and traced, so
    that both kinds see the same machine state and their ratio is the
    tracing overhead.  With a set-up probe, set-up is timed after an
    untraced pass while probes have taken at most PROBE_SHARE of the pass
    time, and after the last pass until there are MIN_SETUP_PROBES samples.
    """
    tracer = runner.tracer
    kinds = ("untraced", "traced") if tracer is not None else ("untraced",)
    walls = {kind: [] for kind in kinds}
    cpus, spans = [], []
    latencies: dict[str, list[float]] = {}
    start = time.perf_counter()
    k = 0
    while True:
        t_pass = time.perf_counter()
        kind = kinds[k % len(kinds)]
        if tracer is not None:
            tracer.enable() if kind == "traced" else tracer.disable()
        pass_index = len(walls[kind]) if kind == "traced" else -1
        wall = cpu = 0.0
        for op in pass_ops(1 + k):
            w, c = runner.run(op, pass_index)
            wall += w
            cpu += c
            # a flow config reruns every pass; static_ricci ops are all fresh, so one group
            group = op.name if isinstance(op, workloads.FlowOp) else "static_ricci"
            latencies.setdefault(group, []).append(w)
        walls[kind].append(wall)
        cpus.append(cpu)
        if setup is not None and setup.spent <= PROBE_SHARE * sum(walls["untraced"]):
            setup.probe()
        spans.append(time.perf_counter() - t_pass)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= MIN_PASSES * len(kinds) and elapsed + statistics.median(spans) > seconds:
            break
    if tracer is not None:
        tracer.disable()
    while setup is not None and len(setup.samples) < MIN_SETUP_PROBES:
        setup.probe()
    return {"walls": walls["untraced"], "traced_walls": walls.get("traced"),
            "cpus": cpus, "latencies": latencies}


def op_percentile(latencies: dict[str, list[float]], decile: int) -> float:
    """Sum over op groups of each group's latency at the given decile.

    A flow config is its own group, so on the flow workloads this is the
    pass time with every config at its own percentile, which never falls on
    the boundary between two configs of different length.  static_ricci's
    ops form one group.
    """
    return sum(statistics.quantiles(lat, n=10, method="inclusive")[decile - 1]
               for lat in latencies.values())


def end_to_end(timed: dict, setup: list[float]) -> tuple[dict, dict]:
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(timed["walls"]),
        "cpu_s": statistics.median(timed["cpus"]),
        "op_p50_s": op_percentile(timed["latencies"], 5),
        "op_p90_s": op_percentile(timed["latencies"], 9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    npass = len(timed["walls"])
    nlat = "+".join(str(len(lat)) for lat in timed["latencies"].values())
    samples = {"setup_s": len(setup), "wall_s": npass, "cpu_s": npass,
               "op_p50_s": nlat, "op_p90_s": nlat, "peak_rss_mb": 1}
    return values, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pluriflow" / "__init__.py").is_file():
        print(f"error: no pluriflow sources in {SRC}; run from the root of a pluriflow checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    os.environ.pop("PLURIFLOW_OUTDIR", None)   # outputs must stay in the work directory

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup = None if args.trace else SetupProbe(args.workload, args.seed, workdir)

        import pluriflow
        from pluriflow.flows import IntegratorConfig

        if Path(pluriflow.__file__).resolve().parent != (SRC / "pluriflow").resolve():
            print(f"error: imported pluriflow from {pluriflow.__file__}, not {SRC}", file=sys.stderr)
            return 2
        ops = workloads.build(args.workload, args.seed, str(workdir / "run"))
        if args.workload == "static_ricci":
            warmup = workloads.ricci_ops(args.seed, 0, workloads.RICCI_WARMUP_MIX)

            def pass_ops(k):   # batch 1 was built in set-up; later batches are fresh
                return ops if k == 1 else workloads.ricci_ops(args.seed, k)
        else:
            warmup = ops

            def pass_ops(k):
                return ops

        runner = Runner(IntegratorConfig().defect_tolerances)
        for op in warmup:
            runner.run(op, -1)

        if args.trace:
            from tracing import Tracer, layer_metrics

            runner.tracer = Tracer()
            timed = run_passes(runner, pass_ops, args.seconds)
            values, samples = layer_metrics(runner.tracer, runner.op_pass, runner.op_flow,
                                            timed["traced_walls"], timed["walls"])
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            runner.tracer.save(str(out_dir / f"spans-{args.workload}.npz"))
            wanted = spec["per_layer"]
        else:
            timed = run_passes(runner, pass_ops, args.seconds, setup)
            values, samples = end_to_end(timed, setup.samples)
            wanted = spec["end_to_end"]
        env = environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()   # only if no other run is using it

    print("environment " + json.dumps(env, sort_keys=True))
    for problem, count in sorted(runner.problems.items()):
        print(f"FAILED x{count}: {problem}")
    print(f"{'fail_frac':<44} {runner.failed / runner.attempted:>14.6g} ratio"
          f"  ({runner.failed} of {runner.attempted} ops)")
    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']:<6} (samples: {samples[m['name']]})")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
