#!/usr/bin/env python3
"""The bracelab benchmark: one workload, timed, checked, reported as JSON.

    python3 perfbench/run.py --workload {enumerate,report,verify} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a bracelab checkout (the directory holding src/).
Every operation is one bracelab command in a fresh interpreter, run one at a
time, as a user runs it; see perfbench/README.md for the workloads and the
metrics.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("enumerate", "report", "verify")
# Set-up is short, so it is repeated and its median reported.
SETUP_REPEATS = 7
# The longest command takes about 30 s; a hung one is killed well inside the
# 180 s a run may take, and counts as failed.
OP_TIMEOUT_S = 90
# String hashing is randomised per interpreter by default, and that alone
# moves the C3 x C9 enumeration by about 30% from one process to the next.
# Every command runs under one fixed hash seed so that runs compare alike.
HASH_SEED = "0"
# The console script `bracelab` does exactly this.
BRACELAB = [sys.executable, "-c", "from bracelab.cli import entry; entry()"]

# Per-layer time: the time inside spans of that name, not counting a span
# nested in another of the same name (series recurses, for one).
SPAN_METRICS = {
    "abelian.automorphisms_s": "abelian.automorphisms",
    "enumeration.dedupe_s": "enumeration.dedupe",
    "enumeration.oracle_s": "enumeration.oracle",
    "fileformat.load_s": "fileformat.load",
    "brace.validate_s": "brace.validate",
    "brace.quotient_s": "brace.quotient",
    "nilpotency.certify_s": "nilpotency.certify",
    "nilpotency.series_s": "nilpotency.series",
    "nilpotency.certificate_s": "nilpotency.certificate",
    "ybe.solution_s": "ybe.solution",
    "ybe.mpl_s": "ybe.mpl",
    "nilpotency.identity.ppn_s": "nilpotency.identity.ppn",
    "nilpotency.identity.commuting_powers_s": "nilpotency.identity.commuting_powers",
    "nilpotency.identity.rel_suite_s": "nilpotency.identity.rel_suite",
    "nilpotency.theorem_context_s": "nilpotency.theorem_context",
    "nilpotency.theorem1_s": "nilpotency.theorem1",
    "nilpotency.pa_bound_s": "nilpotency.pa_bound",
    "ybe.braid_s": "ybe.braid",
    "pgroups.classify_s": "pgroups.classify",
    "pgroups.build_model_s": "pgroups.build_model",
    "pgroups.fingerprint_s": "pgroups.fingerprint",
}


def run_child(argv: list[str], env: dict[str, str], stderr_path: Path) -> tuple[float, int, float]:
    """(wall seconds, exit code, peak RSS in MB) of one child process."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def layer_metrics(span_files: list[Path]) -> dict[str, float]:
    """Per-layer totals over the commands of one traced round."""
    totals = dict.fromkeys(SPAN_METRICS, 0.0)
    totals.update({"enumeration.search_s": 0.0, "nilpotency.identity.theorem_stages_s": 0.0, "cli.self_s": 0.0})
    counters: dict[str, int] = {}
    for path in span_files:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        spans = doc["spans"]
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
        children: dict[int, list[int]] = {}
        for i, (_, _, _, parent) in enumerate(spans):
            children.setdefault(parent, []).append(i)

        def ancestors(i: int):
            parent = spans[i][3]
            while parent >= 0:
                yield spans[parent][0]
                parent = spans[parent][3]

        def duration(i: int) -> float:
            return spans[i][2] - spans[i][1]

        for i, (name, _, _, _) in enumerate(spans):
            for metric, span_name in SPAN_METRICS.items():
                if name == span_name and span_name not in ancestors(i):
                    totals[metric] += duration(i)
            kids = children.get(i, [])
            if name == "enumeration.enumerate":
                totals["enumeration.search_s"] += duration(i) - sum(
                    duration(c) for c in kids if spans[c][0] in ("enumeration.dedupe", "abelian.automorphisms")
                )
            elif name == "nilpotency.theorem_stages" and "nilpotency.identity" in ancestors(i):
                totals["nilpotency.identity.theorem_stages_s"] += duration(i)
            elif name == "cli.main":
                totals["cli.self_s"] += duration(i) - sum(duration(c) for c in kids)
    calls = counters.get("enumeration.dedupe_calls", 0)
    braid_s = totals["ybe.braid_s"]
    totals.update({
        "enumeration.dfs_nodes": counters.get("enumeration.dfs_nodes", 0),
        "enumeration.dedupe_calls": calls,
        "enumeration.dedupe_hit_ratio": counters.get("enumeration.dedupe_hits", 0) / calls if calls else 0.0,
        "nilpotency.identity.commuting_powers_checks": counters.get("nilpotency.identity.commuting_powers_checks", 0),
        "ybe.braid_triples_per_s": counters.get("ybe.braid_triples", 0) / braid_s if braid_s else 0.0,
    })
    return totals


UNITS = {"count": ("enumeration.dfs_nodes", "enumeration.dedupe_calls", "nilpotency.identity.commuting_powers_checks"),
         "ratio": ("enumeration.dedupe_hit_ratio", "trace.overhead_ratio"),
         "1/s": ("ybe.braid_triples_per_s",),
         "MB": ("peak_rss_mb",)}


def unit_of(metric: str) -> str:
    return next((u for u, names in UNITS.items() if metric in names), "s")


class Run:
    def __init__(self, root: Path, args: argparse.Namespace):
        self.args = args
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=HASH_SEED)
        # Cache bytecode as an installed package does, so that no command
        # recompiles bracelab; the first set-up of a checkout writes the cache.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.out_dir = root / ".perfbench"
        self.work = self.out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.problems: list[str] = []
        self.log: list[dict] = []

    def setup(self) -> tuple[float, list[dict]]:
        times = []
        for i in range(SETUP_REPEATS):
            dest = self.work / f"setup-{i}"
            argv = [sys.executable, str(HERE / "prepare.py"), self.args.workload, str(self.args.seed), str(dest)]
            wall, code, _ = run_child(argv, self.env, self.work / f"setup-{i}.stderr")
            if code != 0:
                sys.stderr.write((self.work / f"setup-{i}.stderr").read_text(errors="replace"))
                raise RuntimeError(f"set-up exited with {code}")
            times.append(wall)
        self.plan_path = dest / "plan.json"
        plan = json.loads(self.plan_path.read_text(encoding="utf-8"))
        return statistics.median(times), plan["ops"]

    def round(self, ops: list[dict], index: int, traced: bool) -> tuple[float, list[Path]]:
        """Run every operation once; return the summed wall time and span files."""
        total = 0.0
        spans = []
        for op in ops:
            out = Path(op["out"])
            out.unlink(missing_ok=True)
            if "reps" in op:
                shutil.rmtree(op["reps"], ignore_errors=True)
            if traced:
                span_file = self.work / f"spans-{index}-{op['name']}.json"
                argv = [sys.executable, str(HERE / "trace_child.py"), str(span_file), *op["argv"]]
                spans.append(span_file)
            else:
                argv = [*BRACELAB, *op["argv"]]
            wall, code, rss = run_child(argv, self.env, out.with_suffix(".stderr"))
            total += wall
            self.log.append({"round": index, "traced": traced, "op": op["name"], "wall_s": wall,
                             "exit_code": code, "peak_rss_mb": rss})
            if code not in (0, 1):
                sys.stderr.write(f"{op['name']} exited with {code}\n")
        codes = [entry["exit_code"] for entry in self.log[-len(ops):]]
        check = subprocess.run([sys.executable, str(HERE / "check.py"), str(self.plan_path), json.dumps(codes)],
                               capture_output=True, text=True)
        if check.returncode != 0:
            self.problems.append(f"checker exited with {check.returncode}: {check.stderr[-2000:]}")
        else:
            self.problems += json.loads(check.stdout)
        return total, spans

    def execute(self) -> int:
        args = self.args
        self.work.mkdir(parents=True)
        try:
            setup_s, ops = self.setup()
            walls = {False: [], True: []}
            traced_layers = []
            modes = (False, True) if args.trace else (False,)
            start = time.perf_counter()
            index = 0
            while True:
                unit_start = time.perf_counter()
                for traced in modes:
                    wall, span_files = self.round(ops, index, traced)
                    walls[traced].append(wall)
                    if traced:
                        traced_layers.append(layer_metrics(span_files))
                    index += 1
                now = time.perf_counter()
                if (now - start) + (now - unit_start) > args.seconds:
                    break
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

        untraced = [e for e in self.log if not e["traced"]]
        if args.trace:
            metrics = {name: statistics.median(r[name] for r in traced_layers) for name in traced_layers[0]}
            metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        else:
            metrics = {
                "wall_s": statistics.median(walls[False]),
                "setup_s": setup_s,
                "peak_rss_mb": max(e["peak_rss_mb"] for e in untraced),
            }
        result = {
            "correct": not self.problems,
            "attempted": len(self.log),
            "failed": sum(1 for e in self.log if e["exit_code"] != 0),
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }
        for problem in self.problems[:50]:
            print(f"check failed: {problem}", file=sys.stderr)
        detail = self.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        detail.write_text(json.dumps({"result": result, "rounds": self.log, "problems": self.problems}, indent=1))
        print(json.dumps(result))
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "bracelab" / "cli.py").is_file():
        print(f"no bracelab sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    return Run(root, args).execute()


if __name__ == "__main__":
    raise SystemExit(main())
