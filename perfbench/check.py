"""Check what bracelab printed against the brute-force answers of oracle.py.

    python3 perfbench/check.py PLAN.json EXIT_CODES_JSON

checks the outputs of one round of the plan written by prepare.py, given the
exit code of each of its operations, and prints a JSON list of problems; an
empty list means every answer agrees with the independent computation and
with the properties the mathematics guarantees.  The benchmark runs it after
each round, outside the timed region, in a process of its own so that NumPy
never weighs on the memory measured for bracelab's commands.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from oracle import BraceTables, automorphism_count, smallest_prime_factor

# (total tables, isomorphism classes) per additive group, as recorded in
# perfbench/README.md with the command that makes each of them anew.
RECORDED_COUNTS = {
    (8,): (6, 5),
    (2, 4): (28, 14),
    (2, 2, 2): (232, 8),
    (9,): (3, 2),
    (3, 3): (9, 2),
    (16,): (16, 8),
    (2, 8): (160, 66),
    (27,): (9, 3),
    (3, 9): (135, 22),
}
# Published totals of brace classes per order (Guarnieri and Vendramin,
# Math. Comp. 2017), over every additive group of that order.
PUBLISHED_TOTALS = {8: 27, 9: 4}

# The order-p^4 models bracelab had when this benchmark was written; each has
# an element of order at least p^2, so none can be a circle group of exponent p.
EXPONENT_AT_LEAST_P2_TAGS = ("VII", "VIII", "IX", "X", "XI", "XII", "XIII", "G4")

# Exhaustive up to order 81 (531,441 triples), sampled above.
BRAID_SAMPLE = 600_000


def _load(path) -> dict | None:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class Facts:
    """Everything the checks need about one brace, computed once per run."""

    def __init__(self, path: str):
        doc = _load(path)
        b = BraceTables(doc["moduli"], doc["lambda_table"])
        self.tables = b
        self.n = b.n
        self.moduli = list(b.moduli)
        self.p = smallest_prime_factor(b.n)
        self.p4 = self.p ** 4 == b.n
        self.axioms = b.axiom_failures()
        self.classes = {k: b.series_class(k) for k in ("left", "right", "strong")}
        self.certificates = set(b.certificate_candidates().tolist())
        self.abelian = b.circ_abelian()
        self.abelian_type = b.circ_abelian_type() if self.abelian else None
        self.g4 = b.g4_pair() if self.p4 and not self.abelian else None
        self.exponent = b.circ_exponent()
        self.mpl = b.multipermutation_level()

    @property
    def right_nilpotent(self) -> bool:
        return self.classes["right"] is not None

    def rank(self, coords) -> int:
        return int(self.tables.rank(np.array(coords, dtype=np.int64)))

    def property_failures(self) -> list[str]:
        bad = [f"brace axiom: {a}" for a in self.axioms]
        if self.right_nilpotent != (self.mpl is not None):
            bad.append("right nilpotent != finite multipermutation level")
        if self.right_nilpotent and not self.certificates:
            bad.append("right nilpotent without a certificate")
        if self.p4 and self.abelian and None in (self.classes["left"], self.classes["right"]):
            bad.append("abelian circle group of order p^4 but not left and right nilpotent")
        return bad

    def label_failures(self, entry: dict) -> list[str]:
        """Problems with a 'multiplicative' or 'classify' entry."""
        if not self.p4:
            if entry.get("kind") != "out-of-family" or entry.get("abelian") != self.abelian:
                return [f"multiplicative label {entry} for a brace of order {self.n} (abelian={self.abelian})"]
            return []
        if self.abelian:
            want = "abelian " + "x".join(f"C{d}" for d in self.abelian_type)
            return [] if entry.get("label") == want else [f"label {entry.get('label')!r}, expected {want!r}"]
        if self.exponent == self.p:
            tag = entry.get("label") if entry.get("kind") == "tag" else None
            if entry.get("kind") not in ("tag", "no-match") or tag in EXPONENT_AT_LEAST_P2_TAGS:
                return [f"exponent-{self.p} circle group labelled {entry}"]
            return []
        if entry.get("kind") not in ("tag", "unmatched"):
            return [f"nonabelian circle group labelled {entry}"]
        if (self.g4 is not None) != (entry.get("label") == "G4"):
            return [f"label {entry.get('label')!r}, but a G4 pair {'exists' if self.g4 else 'does not exist'}"]
        return []


class Checker:
    def __init__(self, seed: int):
        self.seed = seed
        self._facts: dict[str, Facts] = {}
        self._aut: dict[tuple, int] = {}

    def facts(self, path: str) -> Facts:
        if path not in self._facts:
            self._facts[path] = Facts(path)
        return self._facts[path]

    def check(self, op: dict, code: int) -> list[str]:
        doc = _load(op["out"])
        if doc is None:
            return [] if code != 0 else ["no report written"]
        kind = op["argv"][0]
        problems = getattr(self, f"_check_{kind}")(op, doc["results"])
        if code == 0 and doc.get("exit_code") != 0:
            problems.append(f"exit code 0 but report says {doc.get('exit_code')}")
        return [f"{op['name']}: {p}" for p in problems]

    def check_round(self, ops: list[dict]) -> list[str]:
        """Properties across the operations of one round."""
        totals: dict[int, int] = {}
        for op in ops:
            if op["argv"][0] != "enumerate":
                continue
            doc = _load(op["out"])
            if doc is None:
                continue
            order = int(np.prod(op["moduli"]))
            totals[order] = totals.get(order, 0) + doc["results"]["isomorphism_classes"]
        return [
            f"order {order}: {totals[order]} brace classes, published total {want}"
            for order, want in PUBLISHED_TOTALS.items()
            if order in totals and totals[order] != want
        ]

    # -- enumerate ---------------------------------------------------------------

    def _check_enumerate(self, op: dict, res: dict) -> list[str]:
        moduli = tuple(op["moduli"])
        bad = []
        total, classes, sizes = res["total_tables"], res["isomorphism_classes"], res["class_sizes"]
        if (total, classes) != RECORDED_COUNTS[moduli]:
            bad.append(f"counts {(total, classes)}, recorded {RECORDED_COUNTS[moduli]}")
        if sum(sizes) != total or len(sizes) != classes or len(res["files"]) != classes:
            bad.append("class sizes, files and counts disagree")
        if moduli not in self._aut:
            self._aut[moduli] = automorphism_count(moduli)
        aut = self._aut[moduli]
        if any(aut % s for s in sizes):
            bad.append(f"a class size does not divide |Aut(A,+)| = {aut}")
        if op["oracle"]:
            orc = res.get("oracle", {})
            if (orc.get("regular_subgroups"), orc.get("aut_conjugacy_classes")) != (total, classes):
                bad.append(f"oracle {orc} disagrees with {(total, classes)}")
        for name in res["files"]:
            doc = _load(Path(op["reps"]) / name)
            if doc is None or doc["moduli"] != list(moduli):
                bad.append(f"{name}: missing or wrong moduli")
                continue
            failures = BraceTables(doc["moduli"], doc["lambda_table"]).axiom_failures()
            bad += [f"{name}: {f}" for f in failures]
        return bad

    # -- report --------------------------------------------------------------------

    def _check_report(self, op: dict, res: dict) -> list[str]:
        by_name = {Path(p).name: p for p in op["inputs"]}
        rows = res.get("rows", [])
        bad = []
        if res.get("rejected") or sorted(r["file"] for r in rows) != sorted(by_name):
            bad.append("rows do not match the corpus")
        for row in rows:
            f = self.facts(by_name[row["file"]])
            bad += [f"{row['file']}: {p}" for p in self._row_failures(f, row)]
        return bad

    def _row_failures(self, f: Facts, row: dict) -> list[str]:
        bad = f.property_failures()
        if row["moduli"] != f.moduli or row["additive_type"] != sorted(f.moduli):
            bad.append("moduli")
        for kind in ("left", "right", "strong"):
            if row[f"{kind}_class"] != f.classes[kind]:
                bad.append(f"{kind} class {row[f'{kind}_class']}, brute force {f.classes[kind]}")
        if row["right_nilpotent"] != f.right_nilpotent:
            bad.append("right_nilpotent")
        bad += self._certificate_failures(f, row["certificate"])
        if row["multipermutation_level"] != f.mpl:
            bad.append(f"multipermutation level {row['multipermutation_level']}, brute force {f.mpl}")
        bad += f.label_failures(row["multiplicative"])
        return bad

    @staticmethod
    def _certificate_failures(f: Facts, cert) -> list[str]:
        if cert is None:
            return [] if not f.certificates else ["no certificate, but one exists"]
        return [] if f.rank(cert) in f.certificates else [f"{cert} is not a certificate"]

    # -- verify ----------------------------------------------------------------------

    def _check_verify(self, op: dict, res: dict) -> list[str]:
        f = self.facts(op["input"])
        b = f.tables
        bad = f.property_failures()
        val = res["validate"]
        if not val["accepted"] or val["order"] != f.n or val["moduli"] != f.moduli:
            bad.append("validate")
        for kind in ("left", "right", "strong"):
            if res["series"][kind]["class"] != f.classes[kind]:
                bad.append(f"{kind} class")
        stages = res["identity"]
        if any(s["status"] == "failed" for s in stages):
            bad.append("an identity stage failed")
        cert = res["certify"]
        first = cert["transcript"][0]
        if cert["right_nilpotent"] != f.right_nilpotent or first["order"] != f.n:
            bad.append("certify verdict")
        bad += self._certificate_failures(f, first["certificate"])
        bad += f.label_failures(res["classify"])
        square = sorted(f.moduli) == [f.p ** 2, f.p ** 2]
        pa = res["pa_bound"]
        if square:
            pa_order, a_pa = b.a_star_pa()
            if (pa["pa_order"], pa["a_star_pa_order"]) != (pa_order, a_pa) or not pa["bound_holds"]:
                bad.append(f"pA bound {pa}, brute force |pA|={pa_order} |A*pA|={a_pa}")
            if a_pa > f.p:
                bad.append(f"|A*pA| = {a_pa} > p")
        elif "skipped" not in pa:
            bad.append("pA bound ran off its shape")
        ybe = res["ybe"]
        if not (ybe["involutive"] and ybe["nondegenerate"] and ybe["braid"]):
            bad.append(f"solution {ybe}")
        bad += [f"brute force: {x}" for x in b.solution_failures(BRAID_SAMPLE, self.seed)]
        if ybe["multipermutation_level"] != f.mpl:
            bad.append("multipermutation level")
        if op["theorem1"]:
            bad += self._theorem1_failures(f, op["theorem1"], res["theorem1"], stages)
        return bad

    @staticmethod
    def _theorem1_failures(f: Facts, tokens: list[str], thm: dict, identity: list[dict]) -> list[str]:
        spec = {}
        for tok in tokens:
            key, _, value = tok.partition("=")
            spec[key] = value
        coords = [int(x) for x in spec["P"].strip("()").split(",")]
        q = [int(x) for x in spec["Q"].strip("()").split(",")]
        hyps, conclusion, ord_p = f.tables.theorem1(f.rank(coords), [f.rank(q)], int(spec["m"]))
        bad = []
        if [h["passed"] for h in thm["hypotheses"]] != hyps or not all(hyps):
            bad.append(f"hypotheses {[h['passed'] for h in thm['hypotheses']]}, brute force {hyps}")
        if thm["conclusion_passed"] != conclusion or not conclusion or thm["conclusion_window"] != [-ord_p, ord_p]:
            bad.append("theorem1 conclusion")
        if not thm["stages"] or any(s["status"] != "passed" for s in thm["stages"] + identity):
            bad.append("a theorem1 or identity stage did not pass")
        return bad


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    codes = json.loads(sys.argv[2])
    checker = Checker(plan["seed"])
    problems = []
    for op, code in zip(plan["ops"], codes):
        problems += checker.check(op, code)
    problems += checker.check_round(plan["ops"])
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
