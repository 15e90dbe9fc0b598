#!/usr/bin/env python3
"""Regenerate the stored inputs of the benchmark under perfbench/inputs/.

    PYTHONPATH=src python3 perfbench/make_inputs.py

The inputs are stored because two of them are slow to make: enumerating
C4 x C4 takes about 26 s and the exponent-5 ring brace about 31 s.  Every
file comes from a bracelab command or builder and is deterministic, so
running this again reproduces the same bytes.

    inputs/report/builtin/  the built-in constructions (orders 4 to 625)
    inputs/report/order8/   enumerated representatives on C8, C2xC4, C2^3
    inputs/report/order16/  enumerated representatives on C16, C2xC8, C4xC4
    inputs/verify/          diagonal-m2 p=3, diagonal-m1 p=3, the exponent-5 brace
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

from bracelab.constructions import diagonal_brace_m1, diagonal_brace_m2, ring_brace
from bracelab.corpus import builtin_braces
from bracelab.fileformat import save_brace

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

ORDER8 = ("8", "2,4", "2,2,2")
ORDER16 = ("16", "2,8", "4,4")
# Exponent 5, circle group of exponent 5 as well: no order-p^4 model covers it.
EXPONENT5 = ((5, 5, 5, 5), {(0, 1): (0, 0, 1, 0)})


def _enumerate_into(moduli: str, out_dir: Path) -> None:
    cmd = [sys.executable, "-c", "from bracelab.cli import entry; entry()",
           "enumerate", moduli, "--out-dir", str(out_dir), "--out", str(out_dir / ".report")]
    subprocess.run(cmd, check=True)
    (out_dir / ".report").unlink()


def main() -> int:
    if INPUTS.exists():
        shutil.rmtree(INPUTS)
    builtin = INPUTS / "report" / "builtin"
    builtin.mkdir(parents=True)
    for i, brace in enumerate(builtin_braces()):
        safe = "".join(ch if ch.isalnum() or ch in "-=" else "_" for ch in brace.name)
        save_brace(brace, builtin / f"{i:02d}-{safe}.json", construction=brace.name)
    for group, names in (("order8", ORDER8), ("order16", ORDER16)):
        out = INPUTS / "report" / group
        out.mkdir(parents=True)
        for moduli in names:
            _enumerate_into(moduli, out)
    verify = INPUTS / "verify"
    verify.mkdir(parents=True)
    save_brace(diagonal_brace_m2(3), verify / "diagonal-m2-p3.json", construction="diagonal-m2 p=3")
    save_brace(diagonal_brace_m1(3), verify / "diagonal-m1-p3.json", construction="diagonal-m1 p=3")
    moduli, products = EXPONENT5
    save_brace(ring_brace(moduli, products, name="exponent-5"), verify / "exponent-5.json",
               construction="ring_brace((5,5,5,5), {(0,1): (0,0,1,0)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
