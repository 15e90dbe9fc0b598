#!/usr/bin/env python3
"""Digest the outputs of the benchmark's 18 commands, to compare two checkouts.

    python3 scripts/gate_digest.py DEST

Lays out the enumerate, report and verify workloads under DEST/<workload>
with ``perfbench.prepare.plan_ops`` at seed 7, runs each command as a user
does (a fresh interpreter, src on the path, PYTHONHASHSEED=0) and prints one
line per command, sorted by name: the name, the exit code, and the sha256
over its stdout, its --out file and the files under its --out-dir (each by
its path relative to that directory, then its bytes).  Reports embed their
input paths, so two checkouts are compared with the same DEST, which must
not exist when the script starts.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.prepare import plan_ops  # noqa: E402

WORKLOADS = ("enumerate", "report", "verify")
SEED = 7


def digest(stdout: bytes, op: dict) -> str:
    h = hashlib.sha256(stdout)
    out = Path(op["out"])
    h.update(out.read_bytes() if out.exists() else b"")
    argv = op["argv"]
    if "--out-dir" in argv:
        out_dir = Path(argv[argv.index("--out-dir") + 1])
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out_dir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    dest = Path(sys.argv[1]).resolve()
    dest.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    lines = []
    for workload in WORKLOADS:
        (dest / workload).mkdir()
        for op in plan_ops(workload, SEED, dest / workload):
            proc = subprocess.run(
                [sys.executable, "-c", "from bracelab.cli import entry; entry()", *op["argv"]],
                cwd=ROOT, env=env, capture_output=True,
            )
            lines.append(f"{op['name']} {proc.returncode} {digest(proc.stdout, op)}")
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
