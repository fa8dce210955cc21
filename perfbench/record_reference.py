"""Record reference.json: every case's instance digest, exit code and stdout
digest, from one untraced call each.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right; the benchmark
then fails any later commit whose outputs differ.
"""

from __future__ import annotations

import json
import platform
import subprocess
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS


def record(cases) -> dict:
    """{case name: reference} for one pool."""
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        _, cli, paths, digests = run.setup(cases, Path(tmp))
        out = {}
        for case, path, digest in zip(cases, paths, digests):
            _, (code, stdout_sha) = run.run_call(cli, case.argv(str(path)))
            out[case.name] = {"instance_sha256": digest, "exit": code,
                              "stdout_sha256": stdout_sha}
        return out


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"commit": commit or "unknown",
           "python": platform.python_version(),
           "workloads": {name: record(make())
                         for name, make in WORKLOADS.items()}}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
