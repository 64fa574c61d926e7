#!/usr/bin/env python3
"""One digest line per shipped scenario, for byte-identity checks.

Runs every `scripts/scenarios/*.scn` of a checkout with `flowlab run` into
a temporary directory and prints, per scenario, its name, its exit status
and a SHA-256 over its stdout (with the output directory masked) and over
every output file except the volatile `run-meta.json`.  Two checkouts
produce the same bytes exactly when their lines are equal:

    python3 scripts/scenario_digest.py > change.txt
    python3 scripts/scenario_digest.py path/to/other/checkout > parent.txt
    diff parent.txt change.txt

The optional argument is the checkout to run (default: the one holding
this script); its own `src/` and scenarios are used.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VOLATILE = "run-meta.json"


def digest(root: Path, scenario: Path, out: Path):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    # a relative scenario path, because report.json records it
    proc = subprocess.run(
        [sys.executable, "-m", "flowlab.cli", "run",
         str(scenario.relative_to(root)), "--out", str(out)],
        cwd=root, env=env, capture_output=True, text=True)
    h = hashlib.sha256(proc.stdout.replace(str(out), "<out>").encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name == VOLATILE:
            continue
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return proc.returncode, h.hexdigest()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1])
    root = root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted((root / "scripts" / "scenarios").glob("*.scn")):
            status, hexdigest = digest(root, scenario,
                                       Path(tmp) / scenario.stem)
            print(f"{scenario.stem} {status} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
