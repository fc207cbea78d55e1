"""Reference outputs of a fixed set of CLI runs, and the script that rewrites them.

``golden/cases.json`` holds run configs owned by the tests: all four flow
kinds, n = 2..5, one explicit ``structure_constants`` algebra without a
frame, a run that ends at the positivity floor and one that ends as
``step_rejected``.  Each case goes through ``pluriflow run`` and
``pluriflow verify``.  Its outputs are the trajectory CSV, the summary, the
``verify`` stdout and both exit codes.  ``golden/expected/`` keeps a copy of
each output file, and ``golden/manifest.json`` their sha256, the exit codes
and the environment they were made on: python, numpy, the BLAS library and
the CPU model.  ``test_byte_identity.py`` reruns the cases against them.

Rewrite the copies and the manifest with

    PYTHONPATH=src python tests/golden_outputs.py

A change that rewrites them changes a check: say which bytes moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from pluriflow import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = GOLDEN / "cases.json"
EXPECTED = GOLDEN / "expected"
MANIFEST = GOLDEN / "manifest.json"


def environment() -> dict[str, str]:
    """What the output bits may depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy < 1.26 has no mode argument
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError, StopIteration), open("/proc/cpuinfo") as fh:
        cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu": cpu}


def run_cases(workdir: Path) -> tuple[dict[str, bytes], dict[str, list[int]]]:
    """Output files by name and [run, verify] exit codes by case, from
    running every case in ``workdir``."""
    files, exit_codes = {}, {}
    for name, cfg in json.loads(CASES.read_text()).items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(dict(cfg, output={"directory": str(workdir), "prefix": name})))
        run = cli.main(["run", str(path)])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            verify = cli.main(["verify", str(path)])
        exit_codes[name] = [run, verify]
        files[f"{name}_verify.json"] = stdout.getvalue().encode()
        for kind in ("trajectory.csv", "summary.json"):
            out = workdir / f"{name}_{kind}"
            if out.exists():
                files[out.name] = out.read_bytes()
    return files, exit_codes


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def first_difference(name: str, got: bytes, want: bytes) -> str:
    """Where ``got`` first differs from ``want``: the line, and the CSV column
    by its header name or the character position in other files."""
    got_lines, want_lines = got.decode().split("\n"), want.decode().split("\n")
    line = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), None)
    if line is None:
        return f"{len(got_lines)} lines instead of {len(want_lines)}"
    a, b = got_lines[line], want_lines[line]
    if name.endswith(".csv"):
        header = want_lines[0][2:].split(",")
        fa, fb = a.split(","), b.split(",")
        col = next((i for i, (x, y) in enumerate(zip(fa, fb)) if x != y), min(len(fa), len(fb)))
        label = header[col] if col < len(header) else f"#{col + 1}"
        values = [f[col] if col < len(f) else "<none>" for f in (fa, fb)]
        return f"line {line + 1}, column {label}: {values[0]} instead of {values[1]}"
    col = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"line {line + 1}, character {col + 1}: {a.strip()!r} instead of {b.strip()!r}"


def rewrite() -> None:
    os.environ.pop("PLURIFLOW_OUTDIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        files, exit_codes = run_cases(Path(tmp))
    shutil.rmtree(EXPECTED, ignore_errors=True)
    EXPECTED.mkdir()
    for name, data in files.items():
        (EXPECTED / name).write_bytes(data)
    manifest = {"environment": environment(), "exit_codes": exit_codes,
                "sha256": {name: sha256(data) for name, data in sorted(files.items())}}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(files)} outputs of {len(exit_codes)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    rewrite()
