"""Every output bit of a fixed set of CLI runs is the manifest's.

The cases, the reference copies and the manifest live in ``tests/golden``;
``golden_outputs.py`` describes them and rewrites them.  On another
environment the bits may move for reasons outside the code, so the test
fails there too and says so, after naming every output that moved.
"""

import json

from golden_outputs import EXPECTED, MANIFEST, environment, first_difference, run_cases, sha256


def test_cli_outputs_are_byte_identical_to_the_manifest(tmp_path, monkeypatch):
    monkeypatch.delenv("PLURIFLOW_OUTDIR", raising=False)
    manifest = json.loads(MANIFEST.read_text())
    files, exit_codes = run_cases(tmp_path)
    problems = [f"{case}: exit codes [run, verify] {exit_codes.get(case)} instead of {codes}"
                for case, codes in manifest["exit_codes"].items() if exit_codes.get(case) != codes]
    for name in sorted(set(files) | set(manifest["sha256"])):
        want = manifest["sha256"].get(name)
        if name not in files or want is None:
            problems.append(f"{name}: {'missing' if want else 'not in the manifest'}")
        elif sha256(files[name]) != want:
            ref = (EXPECTED / name).read_bytes()
            where = (first_difference(name, files[name], ref) if sha256(ref) == want
                     else "its reference copy does not match the manifest either")
            problems.append(f"{name}: {where}")
    env = environment()
    if env != manifest["environment"]:
        problems.append(f"the manifest was made on {manifest['environment']}, this is {env}; "
                        "rewrite it with tests/golden_outputs.py once every output "
                        "difference listed is explained")
    assert not problems, "\n".join(problems)
