"""Self-test of the benchmark's output checks.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Runs the fixed_grid flows and one static_ricci op once, then feeds the
checker the clean outputs, which must pass, and corrupted copies (a flipped
CSV byte, a perturbed final state, a wrong exit code, a config the program
rejects, monitors and gates above their tolerance), each of which must count
as a failed op.  Exits 0
when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402


def flip_byte(data: bytes) -> bytes:
    """Change one digit in the middle of the data."""
    i = len(data) // 2
    while not chr(data[i]).isdigit():
        i += 1
    return data[:i] + (b"1" if data[i:i + 1] != b"1" else b"2") + data[i + 1:]


def main() -> int:
    from pluriflow import bismut_ricci, connections
    from pluriflow.flows import IntegratorConfig

    tol = IntegratorConfig().defect_tolerances
    workdir = HERE.parent / ".perfbench_work" / "selftest"
    results = []

    def expect(label: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        results.append(ok)
        verdict = "counted as failure" if problems else "passed"
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    try:
        ops = workloads.build("fixed_grid", 0, str(workdir))
        runner = Runner(tol)
        for op in ops:
            runner.run(op, 0)
        expect("clean fixed_grid outputs", [f"{runner.failed} failed"] if runner.failed else [], False)
        heis, hs, gauged = ops
        outputs = {op.name: checks.read_flow_outputs(op) for op in ops}
        refs = {name: checks.digest(csv) for name, (csv, _) in outputs.items()}

        def check(op, csv=None, summary=None, exit_code=0):
            csv0, summary0 = outputs[op.name]
            return checks.check_flow(op, exit_code, csv0 if csv is None else csv,
                                     summary0 if summary is None else summary,
                                     refs[op.name], tol)

        for op in ops:
            expect(f"{op.name}: clean rerun", check(op), False)
        expect("heisenberg: flipped CSV byte", check(heis, csv=flip_byte(outputs["heisenberg"][0])), True)
        expect("heisenberg: empty CSV", check(heis, csv=b""), True)
        for op, key, delta in ((heis, "g_0_re", 1e-3), (hs, "beta_1_im", 1e-3), (gauged, "mu_9_re", 1e-9)):
            s = copy.deepcopy(outputs[op.name][1])
            s["final_state"][key] += delta
            expect(f"{op.name}: perturbed final state {key}", check(op, summary=s), True)
        expect("heisenberg: exit code 4", check(heis, exit_code=4), True)
        s = copy.deepcopy(outputs["heisenberg"][1])
        del s["t_final"]
        expect("heisenberg: summary without t_final", check(heis, summary=s), True)
        for op, key, value in ((heis, "skt_defect", 10 * tol["skt_defect"]),
                               (hs, "closedness_defect", 10 * tol["closedness_defect"]),
                               (gauged, "gauge_defect", 10 * checks.GAUGE_GATE)):
            s = copy.deepcopy(outputs[op.name][1])
            s["monitor_max"][key] = value
            expect(f"{op.name}: monitor {key} above tolerance", check(op, summary=s), True)
        s = copy.deepcopy(outputs["hs"][1])
        s["closed_form_max_relative_deviation"] = 10 * checks.CLOSED_FORM_GATE
        expect("hs: closed-form deviation above gate", check(hs, summary=s), True)

        # the same corruptions reach the failure count of a run
        counting = Runner(tol)
        counting.references[heis.name] = "0" * 64
        counting.run(heis, 0)
        with open(gauged.config_path) as fh:
            cfg = json.load(fh)
        cfg["flow"] = "no_such_flow"
        invalid_path = str(workdir / "invalid_flow.json")
        with open(invalid_path, "w") as fh:
            json.dump(cfg, fh)
        counting.run(dataclasses.replace(gauged, config_path=invalid_path), 0)
        expect("runner counts a CSV mismatch and a config that `pluriflow run` rejects",
               [] if counting.failed == 2 and any(p.startswith("exit code") for p in counting.problems)
               else [f"counted {counting.failed} of 2: {sorted(counting.problems)}"], False)

        (rop,) = workloads.ricci_ops(0, 0, {3: 1})
        data = connections.ricci_forms(rop.mu, rop.g)
        direct = bismut_ricci.rho_B(rop.mu, rop.g).tensor
        trace_t, chern = data.rho_b_trace.tensor, data.rho_c.tensor
        report = '{"skt_defect": 0.0}'
        expect("static_ricci: clean op", checks.check_ricci(0, report, trace_t, direct, chern), False)
        bumped = trace_t.copy()
        bumped[0, -1] += 1e-6
        expect("static_ricci: perturbed rho_B trace path",
               checks.check_ricci(0, report, bumped, direct, chern), True)
        bumped = chern.copy()
        bumped[0, -1] += 1e-6
        expect("static_ricci: nonzero rho_C", checks.check_ricci(0, report, trace_t, direct, bumped), True)
        expect("static_ricci: garbled verify report",
               checks.check_ricci(0, "{", trace_t, direct, chern), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(f"selftest: {sum(results)} of {len(results)} cases behaved as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
